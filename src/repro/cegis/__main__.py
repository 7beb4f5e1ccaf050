"""Command-line front-end of the CEGIS verified-optimization tier.

Usage (``PYTHONPATH=src python -m repro.cegis <command>``)::

    optimize SPEC ... [--budget N] [--seed N] [--backends B] [--scalar]
                      [--json]     # run the CEGIS loop and bank the result
    report   [SPEC ...] [--json]   # show fix records (all, or for specs)
    replay   SPEC ... [--json]     # re-check every banked counterexample
                                   # still refutes its rewrite
    purge    [--yes] [--json]      # drop every fix record

A SPEC is ``name:size`` (``potrf:8``) or ``name:sizexk`` (``kf:8x4``) --
the same workload addresses the kernel service and tuner use.  The bank
root defaults to ``~/.cache/repro-slingen/fixbank`` and can be moved
with ``--db`` (historical alias ``--bank``) or the ``REPRO_FIXBANK``
environment variable.

``optimize --json`` emits one stable document per run (see
:data:`REPORT_SCHEMA_VERSION`); CI asserts accepted/refuted counts
against it.  ``report`` exits non-zero when a requested spec has no
record yet; ``replay`` exits non-zero when a banked counterexample no
longer refutes (which means a rewrite or the oracle changed -- the
record is stale and should be re-verified).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .. import cli
from ..cli import (EXIT_FAILURE, EXIT_OK, add_json_flag, print_json,
                   purge_records)
from ..slingen.options import Options
from .fixbank import FixBank, default_fixbank_dir, fixbank_key
from .loop import optimize_program
from .rewrites import known_ids
from .verifier import DEFAULT_BUDGET, find_counterexample


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cegis",
        description="Verify unsound rewrites per workload and manage the "
                    "fix bank.")
    parser.add_argument("--db", "--bank", dest="bank", default=None,
                        metavar="DIR",
                        help=f"fix-bank root "
                             f"(default: {default_fixbank_dir()})")
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser(
        "optimize", help="run the CEGIS loop on workloads and bank what "
                         "survives")
    optimize.set_defaults(handler=_cmd_optimize)
    optimize.add_argument("specs", nargs="+", metavar="SPEC",
                          help="workloads to verify, e.g. potrf:8 kf:8x4")
    optimize.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help="fresh input draws per candidate rewrite")
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument("--backends", default="auto",
                          help="comma-separated backend list or 'auto'")
    optimize.add_argument("--scalar", action="store_true",
                          help="verify scalar (non-vectorized) generation")
    add_json_flag(optimize, help="emit a machine-readable summary (stable "
                                 "schema, see REPORT_SCHEMA_VERSION)")

    report = sub.add_parser("report", help="show fix records")
    report.set_defaults(handler=_cmd_report)
    report.add_argument("specs", nargs="*", metavar="SPEC",
                        help="workloads to report (default: every record)")
    report.add_argument("--scalar", action="store_true",
                        help="look up the scalar-verified records")
    add_json_flag(report, help="emit a machine-readable report")

    replay = sub.add_parser(
        "replay", help="re-run every banked counterexample against its "
                       "refuted rewrite")
    replay.set_defaults(handler=_cmd_replay)
    replay.add_argument("specs", nargs="+", metavar="SPEC")
    replay.add_argument("--scalar", action="store_true")
    add_json_flag(replay)

    purge = sub.add_parser("purge", help="drop every fix record")
    purge.set_defaults(
        handler=lambda bank, args: purge_records(bank, "fix record", args))
    purge.add_argument("--yes", action="store_true",
                       help="do not ask for confirmation")
    add_json_flag(purge)
    return parser


#: Version of the machine-readable documents this CLI emits.  ``optimize
#: --json`` prints ``{"schema": N, "bank_root": str, "runs": [RUN...]}``
#: where each RUN is a :meth:`repro.cegis.loop.CegisOutcome.summary`
#: dict; ``report --json`` prints ``{"schema": N, "bank_root": str,
#: "requested": [...] | null, "missing": [...], "records": [...]}``.
#: Scripts and CI assert against these shapes; bump on any incompatible
#: change.
REPORT_SCHEMA_VERSION = 1


def _record_json(record, spec: Optional[str] = None) -> dict:
    return {
        "spec": spec if spec is not None else record.label,
        "label": record.label,
        "program": record.program_name,
        "key": record.key,
        "seed": record.seed,
        "budget": record.budget,
        "backends": list(record.backends),
        "accepted": list(record.accepted),
        "refuted": list(record.refuted),
        "inapplicable": list(record.inapplicable),
        "created_at": record.created_at,
    }


def _record_line(record) -> str:
    refuted = ",".join(entry["id"] for entry in record.refuted) or "-"
    accepted = ",".join(record.accepted) or "-"
    return (f"{record.label:14s} accepted [{accepted}]  "
            f"refuted [{refuted}]  budget {record.budget}  "
            f"{len(record.backends)} backend(s)")


def _base_options(scalar: bool) -> Options:
    return Options(vectorize=not scalar, annotate_code=False)


def _cmd_optimize(bank: FixBank, args: argparse.Namespace) -> int:
    from ..service.registry import build_case, parse_spec
    options = _base_options(args.scalar)
    runs = []
    for text in args.specs:
        spec = parse_spec(text)
        case = build_case(spec)
        outcome = optimize_program(
            case.program, options, budget=args.budget, seed=args.seed,
            backends=args.backends, bank=bank, label=spec.label)
        runs.append(outcome.summary())
        if not args.as_json:
            print(_record_line(outcome.to_record()))
    if args.as_json:
        print_json({
            "schema": REPORT_SCHEMA_VERSION,
            "bank_root": bank.root,
            "runs": runs,
        })
    else:
        print(f"verified {len(args.specs)} workload(s) against "
              f"{len(known_ids())} candidate rewrite(s) into {bank.root}")
    return EXIT_OK


def _cmd_report(bank: FixBank, args: argparse.Namespace) -> int:
    return cli.report_records(
        bank, args, noun="fix record", store_name="fix bank",
        root_key="bank_root", schema=REPORT_SCHEMA_VERSION, key=fixbank_key,
        to_json=_record_json, line=_record_line)


def _cmd_replay(bank: FixBank, args: argparse.Namespace) -> int:
    """Re-establish every banked counterexample.

    For each refuted rewrite with a recorded seed, re-run the verifier
    with *only* that seed (budget 0 fresh draws) and demand it still
    refutes.  The composition is reconstructed exactly as the loop
    tried it: the loop walks the catalog in order with the accepted
    set accumulated *so far*, so the prefix for a refuted rewrite is
    the accepted ids that precede it in catalog order -- not the full
    final accepted set, under which a later rewrite may simply no
    longer fire.  A counterexample that stopped refuting means the
    catalog or the pipeline changed under the record."""
    from ..service.registry import build_case, parse_spec
    options = _base_options(args.scalar)
    catalog_position = {rid: pos for pos, rid in enumerate(known_ids())}
    stale = 0
    checked = 0
    results = []

    def note(doc: dict, line: str) -> None:
        results.append(doc)
        if not args.as_json:
            print(line)

    for text in args.specs:
        case = build_case(parse_spec(text))
        record = bank.get(fixbank_key(case.program,
                                      vectorize=not args.scalar))
        if record is None:
            stale += 1
            note({"spec": text, "status": "no-record"},
                 f"{text}: no fix record")
            continue
        known = set(known_ids())
        for entry in record.counterexamples():
            rewrite_id = str(entry["id"])
            if rewrite_id not in known:
                stale += 1
                note({"spec": text, "rewrite": rewrite_id,
                      "status": "unknown-rewrite"},
                     f"{text}: {rewrite_id}: rewrite no longer in catalog")
                continue
            prefix = tuple(
                rid for rid in record.accepted
                if rid in known
                and catalog_position[rid] < catalog_position[rewrite_id])
            trial = dataclasses.replace(
                options, verified_rewrites=prefix + (rewrite_id,))
            counterexample = find_counterexample(
                case.program, case.program, options, options_b=trial,
                seeds=[int(entry["seed"])], budget=0)
            checked += 1
            if counterexample is None:
                stale += 1
                note({"spec": text, "rewrite": rewrite_id,
                      "seed": int(entry["seed"]), "status": "stale"},
                     f"{text}: {rewrite_id}: seed {entry['seed']} no "
                     f"longer refutes (stale record)")
            else:
                note({"spec": text, "rewrite": rewrite_id,
                      "seed": int(entry["seed"]), "status": "refuted"},
                     f"{text}: {rewrite_id}: still refuted -- "
                     f"{counterexample.describe()}")
    if args.as_json:
        print_json({"schema": REPORT_SCHEMA_VERSION, "checked": checked,
                    "stale": stale, "results": results})
    else:
        print(f"replayed {checked} counterexample(s), {stale} stale")
    return EXIT_FAILURE if stale else EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv,
                   setup=lambda args: FixBank(root=args.bank))


if __name__ == "__main__":
    sys.exit(main())
