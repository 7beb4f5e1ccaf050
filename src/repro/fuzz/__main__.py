"""Command-line front-end of the differential fuzzer.

Usage (``PYTHONPATH=src python -m repro.fuzz <command>``)::

    run [--budget N] [--seed S] [--backends B[,B...]] [--tol T]
        [--ref-tol T] [--no-reference] [--max-statements N]
        [--max-size N] [--no-shrink] [--shrink-budget N] [--save DIR]
        [--json FILE] [--verified] [--verify-budget N] [--verbose]
        Sample N random (program, options) cases from the given seed and
        run each through the differential oracle.  Failures are shrunk
        to minimized repros and printed (and saved under --save as
        corpus-style JSON).  Exits 1 if any case crashed or diverged --
        this is the budgeted fixed-seed job CI runs.  --json additionally
        writes a machine-readable summary (cases, per-status and
        per-backend counts, seed) so CI asserts "zero divergences"
        structurally instead of grepping text.  --verified runs a small
        CEGIS pass per executable case first and fuzzes with the accepted
        rewrites applied -- the whole-grammar proof that the verified
        tier preserves the oracle's zero-divergence bar.

    replay [FILE ...] [--corpus DIR] [--backends ...] [--tol T]
        [--ref-tol T]
        Re-run saved repro files (default: every entry of the committed
        corpus, tests/fuzz_corpus/).  An entry documents a *fixed* bug
        (must come back ok) or, with an ``expect`` signature, a witness
        (must still fail the documented way); exits 1 otherwise.

    corpus [--corpus DIR]
        List the committed corpus: id, status when found, note.

Seeds are deterministic: the same ``--seed``/``--budget`` always fuzzes
the same cases, so a red run reproduces locally byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import cli
from ..cli import (EXIT_FAILURE, EXIT_OK, add_json_flag, human_output,
                   print_json, write_json_file)
from ..errors import ReproError
from . import corpus as corpus_mod
from .generate import sample_case
from .oracle import DEFAULT_REF_TOL, DEFAULT_TOL, resolve_backends, run_case
from .shrink import shrink_case

#: Version of the ``run --json`` summary document; bump on any
#: incompatible change.  The document is ``{"schema": N, "seed": int,
#: "budget": int, "backends": [str...], "verified": bool, "counts":
#: {"ok"|"reject"|"crash"|"divergence": int}, "verified_rewrites":
#: {rewrite_id: int}, "failures": [{"seed", "status", "stage",
#: "describe"}...]}``.
RUN_SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differentially fuzz the LA -> C pipeline with random "
                    "programs and options.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="fuzz N random cases; shrink and report failures")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--budget", type=int, default=100, metavar="N",
                     help="number of random cases to run (default 100)")
    run.add_argument("--seed", type=int, default=0,
                     help="base seed; case i uses seed+i (default 0)")
    run.add_argument("--backends", default="auto",
                     help="comma-separated backend list, or 'auto' "
                          "(interpreter,numpy,numpy-vectorized + compiled "
                          "when $CC resolves)")
    run.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help=f"cross-backend tolerance "
                          f"(default {DEFAULT_TOL:g})")
    run.add_argument("--ref-tol", type=float, default=DEFAULT_REF_TOL,
                     help=f"tolerance against the LA-level NumPy/SciPy "
                          f"reference (default {DEFAULT_REF_TOL:g})")
    run.add_argument("--no-reference", action="store_true",
                     help="skip the LA-level reference check")
    run.add_argument("--max-statements", type=int, default=5, metavar="N",
                     help="statement budget per sampled program (default 5)")
    run.add_argument("--max-size", type=int, default=8, metavar="N",
                     help="largest operand dimension sampled (default 8)")
    run.add_argument("--no-shrink", action="store_true",
                     help="report raw failing cases without minimizing")
    run.add_argument("--shrink-budget", type=int, default=300, metavar="N",
                     help="oracle runs the shrinker may spend per failure "
                          "(default 300)")
    run.add_argument("--save", metavar="DIR",
                     help="write minimized failures as corpus-style JSON "
                          "entries into DIR")
    run.add_argument("--json", metavar="FILE", dest="json_path",
                     help="write a machine-readable run summary to FILE "
                          "('-' for stdout); see RUN_SCHEMA_VERSION")
    run.add_argument("--verified", action="store_true",
                     help="CEGIS-verify each case first and fuzz with the "
                          "accepted rewrites applied")
    run.add_argument("--verify-budget", type=int, default=2, metavar="N",
                     help="input draws per candidate rewrite under "
                          "--verified (default 2)")
    run.add_argument("--verbose", action="store_true",
                     help="print a line per case, not only failures")

    replay = sub.add_parser(
        "replay", help="re-run saved repros; every entry must pass")
    replay.set_defaults(handler=_cmd_replay)
    replay.add_argument("paths", nargs="*", metavar="FILE",
                        help="repro files (default: the committed corpus)")
    replay.add_argument("--corpus", default=corpus_mod.DEFAULT_CORPUS_DIR,
                        metavar="DIR",
                        help="corpus directory used when no FILE is given "
                             f"(default: {corpus_mod.DEFAULT_CORPUS_DIR})")
    replay.add_argument("--backends", default="auto",
                        help="comma-separated backend list or 'auto'")
    replay.add_argument("--tol", type=float, default=DEFAULT_TOL)
    replay.add_argument("--ref-tol", type=float, default=DEFAULT_REF_TOL)
    add_json_flag(replay)

    listing = sub.add_parser("corpus", help="list the committed corpus")
    listing.set_defaults(handler=_cmd_corpus)
    listing.add_argument("--corpus", default=corpus_mod.DEFAULT_CORPUS_DIR,
                         metavar="DIR",
                         help="corpus directory "
                              f"(default: {corpus_mod.DEFAULT_CORPUS_DIR})")
    add_json_flag(listing)
    return parser


def _verify_case(case, args: argparse.Namespace):
    """Run a small CEGIS pass on one sampled case; returns the case with
    the accepted rewrites enabled (or unchanged when the case is not
    verifiable -- rejected programs stay rejects)."""
    import dataclasses

    from ..cegis.loop import optimize_program
    try:
        program = case.program.parse()
        outcome = optimize_program(
            program, case.options, budget=args.verify_budget,
            seed=case.input_seed, backends=args.backends,
            tol=args.tol, ref_tol=args.ref_tol)
    except ReproError:
        return case, ()
    if not outcome.accepted:
        return case, ()
    options = dataclasses.replace(
        case.options, verified_rewrites=tuple(outcome.accepted))
    return dataclasses.replace(case, options=options), tuple(outcome.accepted)


def _cmd_run(args: argparse.Namespace) -> int:
    counts = {"ok": 0, "reject": 0, "crash": 0, "divergence": 0}
    failure_docs = []
    applied: dict = {}
    reference = not args.no_reference
    with human_output(args.json_path):
        for index in range(args.budget):
            seed = args.seed + index
            case = sample_case(seed, max_statements=args.max_statements,
                               max_size=args.max_size)
            if args.verified:
                case, accepted = _verify_case(case, args)
                for rewrite_id in accepted:
                    applied[rewrite_id] = applied.get(rewrite_id, 0) + 1
            result = run_case(case, backends=args.backends, tol=args.tol,
                              reference=reference, ref_tol=args.ref_tol)
            counts[result.status] += 1
            if result.failed:
                failure_docs.append({"seed": seed, "status": result.status,
                                     "stage": result.stage,
                                     "describe": result.describe()})
            if args.verbose or result.failed:
                print(f"seed {seed:8d}  {result.describe()}")
            if not result.failed:
                continue
            if not args.no_shrink:
                shrunk = shrink_case(case, result, backends=args.backends,
                                     tol=args.tol, reference=reference,
                                     ref_tol=args.ref_tol,
                                     budget=args.shrink_budget)
                case, result = shrunk.case, shrunk.result
                print(f"  shrunk to {len(case.program.statements)} stmt(s), "
                      f"{len(case.program.decls)} operand(s) "
                      f"in {shrunk.attempts} attempts: {result.describe()}")
            if args.save:
                path = corpus_mod.save_entry(
                    case, result, note=f"found by run --seed {args.seed} "
                                       f"(case seed {seed})",
                    directory=args.save)
                print(f"  saved {path}")
            else:
                print("  repro:")
                for line in case.dumps().rstrip().splitlines():
                    print(f"    {line}")
        print(f"{args.budget} cases: {counts['ok']} ok, "
              f"{counts['reject']} rejected, {counts['crash']} crashed, "
              f"{counts['divergence']} diverged")
    write_json_file(args.json_path, {
        "schema": RUN_SCHEMA_VERSION,
        "seed": args.seed,
        "budget": args.budget,
        "backends": resolve_backends(args.backends),
        "verified": bool(args.verified),
        "counts": dict(counts),
        "verified_rewrites": dict(sorted(applied.items())),
        "failures": failure_docs,
    }, note=f"summary written to {args.json_path}")
    if failure_docs:
        print(f"{len(failure_docs)} unresolved failure(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.paths:
        entries = [corpus_mod.load_entry(path) for path in args.paths]
    else:
        entries = corpus_mod.load_corpus(args.corpus)
    if not entries and not args.as_json:
        print("no corpus entries found")
        return EXIT_OK
    failures = 0
    docs = []
    for entry in entries:
        result = corpus_mod.replay_entry(entry, backends=args.backends,
                                         tol=args.tol, ref_tol=args.ref_tol)
        passed = corpus_mod.entry_passes(entry, result)
        if entry.expects_failure:
            status = "witness" if passed else "FAIL"
        else:
            status = "ok" if passed else "FAIL"
        if not passed:
            failures += 1
        if args.as_json:
            docs.append({"id": entry.entry_id, "passed": passed,
                         "status": status, "was": entry.found_status,
                         "now": result.describe(), "note": entry.note})
            continue
        note = f"  ({entry.note})" if entry.note else ""
        print(f"{entry.entry_id}  {status:7s} "
              f"was:{entry.found_status:10s} now:{result.describe()}{note}")
    if args.as_json:
        print_json({"entries": docs, "failures": failures})
        return EXIT_FAILURE if failures else EXIT_OK
    if failures:
        print(f"{failures} of {len(entries)} corpus entries fail",
              file=sys.stderr)
        return EXIT_FAILURE
    print(f"all {len(entries)} corpus entries replay ok")
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    entries = corpus_mod.load_corpus(args.corpus)
    if args.as_json:
        print_json({"entries": [
            {"id": entry.entry_id, "was": entry.found_status,
             "statements": len(entry.case.program.statements),
             "note": entry.note}
            for entry in entries]})
        return EXIT_OK
    if not entries:
        print("no corpus entries found")
        return EXIT_OK
    for entry in entries:
        statements = len(entry.case.program.statements)
        print(f"{entry.entry_id}  was:{entry.found_status:10s} "
              f"{statements} stmt(s)  {entry.note}")
    print(f"{len(entries)} entries")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
