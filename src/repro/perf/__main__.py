"""Command-line front-end of the continuous-performance subsystem.

Usage (``PYTHONPATH=src python -m repro.perf <command>``)::

    run     [--suite S | --manifest FILE] [--repeats N] [--validate]
            [--json FILE] [--no-append] [--commit LABEL]
        Execute the benchmark matrix, append the records to the
        trajectory (unless --no-append), and optionally write the run
        document as JSON (the CI artifact).

    gate    [--suite S | --manifest FILE] [--candidate FILE] [--json]
            [--warn-timing] [--min-rel X] [--noise-mult K]
        Judge a candidate run (default: the trajectory's latest) against
        the per-entry, environment-compatible baseline statistics of the
        trajectory.  Exit 1 on a timing regression (downgraded to a
        warning by --warn-timing) or on any structural error (never
        downgraded).

    report  [--suite S | --manifest FILE] [--entry ID ...] [--json]
        Per-entry trends over the whole trajectory.

    baseline [--suite S | --manifest FILE] [--json]
        The baseline statistics the gate would compare a run from *this*
        host against (per entry: compatible runs, median, spread).

The trajectory file defaults to ``BENCH_trajectory.jsonl`` in the
current directory and can be moved with ``--trajectory`` or the
``REPRO_TRAJECTORY`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .. import cli
from ..cli import (EXIT_FAILURE, EXIT_OK, add_json_flag, human_output,
                   print_json, write_json_file)
from .analyze import (DEFAULT_MIN_REL, DEFAULT_NOISE_MULT, gate_records,
                      render_report, trend_report)
from .environment import environment_fingerprint
from .manifest import resolve, suite_names
from .runner import run_manifest
from .trajectory import TrajectoryStore, default_trajectory_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run benchmark manifests, maintain the append-only "
                    "performance trajectory, and gate on regressions.")
    parser.add_argument("--trajectory", default=None, metavar="FILE",
                        help=f"trajectory file (default: "
                             f"{default_trajectory_path()})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--suite", default="smoke", choices=suite_names(),
                         help="built-in suite to use (default: smoke)")
        cmd.add_argument("--manifest", default=None, metavar="FILE",
                         help="explicit JSON manifest (overrides --suite)")

    run = sub.add_parser("run", help="execute the benchmark matrix and "
                                     "append a trajectory run")
    run.set_defaults(handler=_cmd_run)
    add_matrix_args(run)
    run.add_argument("--repeats", type=int, default=None, metavar="N",
                     help="override every entry's repeat policy")
    run.add_argument("--validate", action="store_true",
                     help="also check each kernel against its case oracle")
    run.add_argument("--json", default=None, metavar="FILE", dest="json_path",
                     help="write the run document as JSON ('-' = stdout)")
    run.add_argument("--no-append", action="store_true",
                     help="do not append the records to the trajectory")
    run.add_argument("--commit", default=None, metavar="LABEL",
                     help="commit label for the records (default: git HEAD)")

    gate = sub.add_parser("gate", help="judge a run against the "
                                       "trajectory's baselines")
    gate.set_defaults(handler=_cmd_gate)
    add_matrix_args(gate)
    gate.add_argument("--candidate", default=None, metavar="FILE",
                      help="run document / record list to judge (default: "
                           "the trajectory's latest run)")
    add_json_flag(gate, help="emit the machine-readable gate report "
                             "(stable schema) instead of the table")
    gate.add_argument("--warn-timing", action="store_true",
                      help="downgrade timing regressions to warnings "
                           "(structural errors still fail)")
    gate.add_argument("--min-rel", type=float, default=DEFAULT_MIN_REL,
                      metavar="X",
                      help="minimum relative slowdown that can fail "
                           "(default: %(default)s)")
    gate.add_argument("--noise-mult", type=float,
                      default=DEFAULT_NOISE_MULT, metavar="K",
                      help="threshold widening in units of measured "
                           "spread (default: %(default)s)")

    report = sub.add_parser("report", help="per-entry trends over the "
                                           "trajectory")
    report.set_defaults(handler=_cmd_report)
    add_matrix_args(report)
    report.add_argument("--entry", action="append", default=None,
                        metavar="ID",
                        help="restrict to an entry id (repeatable); "
                             "default: every entry in the trajectory")
    add_json_flag(report, help="emit the machine-readable report "
                               "(stable schema) instead of the table")

    baseline = sub.add_parser("baseline",
                              help="the gate's baseline statistics for "
                                   "this host")
    baseline.set_defaults(handler=_cmd_baseline)
    add_matrix_args(baseline)
    add_json_flag(baseline, help="emit machine-readable statistics")

    return parser


def _cmd_run(store: TrajectoryStore, args: argparse.Namespace) -> int:
    manifest = resolve(args.suite, args.manifest)
    run = run_manifest(manifest, repeats=args.repeats,
                       validate=args.validate, commit=args.commit)
    wrong = [r["entry"] for r in run.records
             if args.validate and r["correct"] is False]
    with human_output(args.json_path):
        print(run.format_table())
        if not args.no_append:
            appended = store.append(run.records)
            print(f"appended {appended} record(s) to {store.path}")
        if wrong:
            print(f"FAIL: incorrect outputs from {', '.join(wrong)}")
    write_json_file(args.json_path, run.to_json(),
                    note=f"wrote {args.json_path} ({len(run.records)} "
                         f"records, {len(run.skipped)} skipped)")
    return EXIT_FAILURE if wrong else EXIT_OK


def _load_candidate(path: str) -> List[dict]:
    """Candidate records from a ``run --json`` document or a bare list."""
    from ..errors import PerfError
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise PerfError(f"cannot read candidate {path!r}: {exc}")
    if isinstance(doc, dict) and isinstance(doc.get("records"), list):
        return doc["records"]
    if isinstance(doc, list):
        return doc
    raise PerfError(f"candidate {path!r} is neither a run document nor "
                    f"a record list")


def _cmd_gate(store: TrajectoryStore, args: argparse.Namespace) -> int:
    manifest = resolve(args.suite, args.manifest)
    history = store.load()
    if args.candidate:
        candidate = _load_candidate(args.candidate)
    else:
        latest = store.latest_run()
        if latest is None:
            print(f"error: trajectory {store.path!r} has no runs and no "
                  f"--candidate was given", file=sys.stderr)
            return 1
        candidate = latest[1]
    report = gate_records(candidate, history,
                          suite_entries=manifest.entry_ids(),
                          min_rel=args.min_rel,
                          noise_mult=args.noise_mult)
    if args.as_json:
        print_json(report.to_json(warn_timing=args.warn_timing))
    else:
        print(report.format_table())
        if args.warn_timing and report.regressions():
            print("warning: timing regressions downgraded by --warn-timing")
    return report.exit_code(warn_timing=args.warn_timing)


def _cmd_report(store: TrajectoryStore, args: argparse.Namespace) -> int:
    entries = args.entry
    if entries is None and (args.manifest or args.suite != "smoke"):
        entries = resolve(args.suite, args.manifest).entry_ids()
    doc = trend_report(store.load(), entries=entries)
    if args.as_json:
        print_json(doc)
        return 0
    if not doc["entries"]:
        print(f"trajectory {store.path} has no matching records")
        return 0
    print(render_report(doc))
    if store.dropped:
        print(f"({store.dropped} undecodable line(s) skipped)")
    return 0


def _cmd_baseline(store: TrajectoryStore, args: argparse.Namespace) -> int:
    from .analyze import baseline_for
    manifest = resolve(args.suite, args.manifest)
    env = environment_fingerprint()
    history = store.load()
    stats = [baseline_for(entry_id, history, env)
             for entry_id in manifest.entry_ids()]
    if args.as_json:
        print_json({
            "schema": 1,
            "suite": manifest.name,
            "env": env,
            "baselines": [s.to_json() for s in stats],
        })
        return 0
    print(f"[perf baseline:{manifest.name}]  trajectory {store.path}")
    for s in stats:
        if s.median is not None:
            print(f"  {s.entry:34s} {s.runs:3d} run(s)  "
                  f"median {s.median * 1e6:10.2f}us  "
                  f"spread {(s.spread or 0.0) * 1e6:8.2f}us")
        else:
            print(f"  {s.entry:34s} no compatible baseline "
                  f"({s.incompatible} incompatible record(s))")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv,
                   setup=lambda args: TrajectoryStore(path=args.trajectory))


if __name__ == "__main__":
    sys.exit(main())
