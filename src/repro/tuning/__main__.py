"""Command-line front-end of the empirical autotuner.

Usage (``PYTHONPATH=src python -m repro.tuning <command>``)::

    tune   SPEC ... [--strategy S] [--budget N] [--seed N]
                    [--backend auto|compiled|numpy|interpreter|model]
                    [--scalar] [--json]
    report [SPEC ...] [--json]      # show records (all, or for the specs);
                                    # --json emits the stable machine schema
    export [--output FILE]          # dump every record as JSON
    purge  [--yes] [--json]         # drop every tuning record

A SPEC is ``name:size`` (``potrf:12``) or ``name:sizexk`` (``kf:8x4``) --
the same workload addresses the kernel service uses.  The database root
defaults to ``~/.cache/repro-slingen/tuning`` and can be moved with
``--db`` or the ``REPRO_TUNING_DB`` environment variable.  ``report``
exits non-zero when a requested spec has no record yet, so scripts (and
CI) can assert that a tuning run landed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import cli
from ..cli import (EXIT_OK, add_json_flag, print_json, purge_records,
                   write_json_file)
from ..slingen.options import Options
from .db import TuningDB, default_tuning_dir, tuning_key
from .measure import measurer_names
from .strategies import strategy_names
from .tuner import Autotuner


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning",
        description="Empirically tune kernels and manage tuning records.")
    parser.add_argument("--db", default=None, metavar="DIR",
                        help=f"database root "
                             f"(default: {default_tuning_dir()})")
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="search variants for workloads and "
                                       "persist the winners")
    tune.set_defaults(handler=_cmd_tune)
    tune.add_argument("specs", nargs="+", metavar="SPEC",
                      help="workloads to tune, e.g. potrf:4 kf:8x4")
    tune.add_argument("--strategy", default="hill-climb",
                      choices=strategy_names())
    tune.add_argument("--budget", type=int, default=8,
                      help="max candidate evaluations per workload")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--backend", default=None, choices=measurer_names(),
                      help="measurement backend (default: auto / "
                           "$REPRO_TUNE_BACKEND)")
    tune.add_argument("--scalar", action="store_true",
                      help="tune scalar (non-vectorized) kernels")
    add_json_flag(tune)

    report = sub.add_parser("report", help="show tuning records")
    report.set_defaults(handler=_cmd_report)
    report.add_argument("specs", nargs="*", metavar="SPEC",
                        help="workloads to report (default: every record)")
    report.add_argument("--scalar", action="store_true",
                        help="look up the scalar-tuned records for the "
                             "given specs")
    add_json_flag(report, help="emit a machine-readable report (stable "
                               "schema, see REPORT_SCHEMA_VERSION) "
                               "instead of the human-readable table")

    export = sub.add_parser("export", help="dump records as JSON")
    export.set_defaults(handler=_cmd_export)
    export.add_argument("--output", default=None, metavar="FILE",
                        help="write to FILE instead of stdout")
    add_json_flag(export, help="accepted for consistency (export is "
                               "always JSON)")

    purge = sub.add_parser("purge", help="drop every tuning record")
    purge.set_defaults(
        handler=lambda db, args: purge_records(db, "tuning record", args))
    purge.add_argument("--yes", action="store_true",
                       help="do not ask for confirmation")
    add_json_flag(purge)
    return parser


#: Version of the ``report --json`` document.  The document is
#: ``{"schema": N, "db_root": str, "requested": [SPEC...] | null,
#: "missing": [SPEC...], "records": [RECORD...]}`` where each RECORD has
#: exactly the keys of :func:`_record_json`.  Scripts and CI assert
#: against this shape; bump the version on any incompatible change.
REPORT_SCHEMA_VERSION = 1


def _record_json(record, spec: Optional[str] = None) -> dict:
    """The stable machine-readable projection of one tuning record."""
    return {
        "spec": spec if spec is not None else record.label,
        "label": record.label,
        "program": record.program_name,
        "key": record.key,
        "strategy": record.strategy,
        "backend": record.backend,
        "unit": record.unit,
        "budget": record.budget,
        "seed": record.seed,
        "evaluations": record.evaluations,
        "best_label": record.best_label,
        "best_score": record.best_score,
        "baseline_score": record.baseline_score,
        "improvement": record.improvement,
        "created_at": record.created_at,
    }


def _record_line(record) -> str:
    return (f"{record.label:14s} {record.strategy:10s} "
            f"{record.backend:11s} {record.evaluations:3d} evals  "
            f"best {record.best_score:.6g} {record.unit} "
            f"(baseline {record.baseline_score:.6g}, "
            f"x{record.improvement:.3f})  {record.best_label}")


def _cmd_tune(db: TuningDB, args: argparse.Namespace) -> int:
    from ..service.registry import build_case, parse_spec
    options = Options(vectorize=not args.scalar, annotate_code=False)
    tuner = Autotuner(db=db, measurer=args.backend, strategy=args.strategy,
                      budget=args.budget, seed=args.seed)
    records = []
    for text in args.specs:
        spec = parse_spec(text)
        record = tuner.tune_case(build_case(spec), options=options,
                                 label=spec.label)
        records.append((text, record))
        if not args.as_json:
            print(f"{_record_line(record)}  {record.key[:12]}")
    if args.as_json:
        print_json({"schema": REPORT_SCHEMA_VERSION,
                    "db_root": db.root,
                    "backend": tuner.measurer.name,
                    "records": [_record_json(record, spec)
                                for spec, record in records]})
    else:
        print(f"tuned {len(args.specs)} workload(s) with "
              f"{tuner.measurer.name} measurements into {db.root}")
    return EXIT_OK


def _cmd_report(db: TuningDB, args: argparse.Namespace) -> int:
    return cli.report_records(
        db, args, noun="tuning record", store_name="tuning database",
        root_key="db_root", schema=REPORT_SCHEMA_VERSION, key=tuning_key,
        to_json=_record_json, line=_record_line)


def _cmd_export(db: TuningDB, args: argparse.Namespace) -> int:
    doc = [record.to_json() for record in db.records()]
    write_json_file(args.output or "-", doc,
                    note=f"exported {len(doc)} record(s) to {args.output}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv,
                   setup=lambda args: TuningDB(root=args.db))


if __name__ == "__main__":
    sys.exit(main())
