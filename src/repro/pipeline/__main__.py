"""Command-line front-end of the staged generation pipeline.

Usage (``PYTHONPATH=src python -m repro.pipeline <command>``)::

    profile [SPEC ...] [--scalar] [--no-autotune] [--max-variants N]
            [--phase-cache DIR] [--json]
        Generate each workload twice against one fresh phase cache -- a
        cold pass that builds every artifact and a warm pass that must
        be served entirely from the cache -- and print the per-phase
        call/hit/seconds table for both.  Exits 1 when the warm pass
        misses any phase (the cache keys stopped covering an option
        axis: a bug).  This is the pipeline's self-check; CI runs it
        on potrf:8.

    axes [--json]
        Print the phase -> option-axis partition (which Options fields
        feed which pipeline phase, plus the search-level axes that feed
        none).  The partition is asserted complete against the Options
        dataclass on import, so this listing cannot go stale.

    purge [--phase-cache DIR] [--gc] [--yes] [--json]
        Empty the persistent phase-cache layer (or, with ``--gc``, only
        evict least-recently-used entries until it fits its size bound).
        The target directory comes from ``--phase-cache`` or
        ``$REPRO_PHASE_CACHE``; purging prompts unless ``--yes``.

A SPEC is ``name:size`` (``potrf:8``) or ``name:sizexk`` (``kf:8x4``) --
the same workload addresses the kernel service uses.  ``--phase-cache``
adds a persistent artifact layer under DIR (also: the
``REPRO_PHASE_CACHE`` environment variable); by default the profile runs
against a fresh in-memory cache so the cold pass is honestly cold.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from ..cli import EXIT_FAILURE, EXIT_OK, add_json_flag, fail, print_json
from ..errors import ReproError
from ..slingen.options import Options
from .cache import PersistentPhaseStore, PhaseCache
from .keys import GATE_AXES, PHASE_AXES, PHASES, SEARCH_AXES

#: Version of the ``profile --json`` document; bump on any incompatible
#: change.  The document is ``{"schema": N, "workloads": [{"spec",
#: "cold_seconds", "warm_seconds", "speedup", "cold_phases",
#: "warm_phases", "warm_misses"}...], "cache": <PhaseCache.stats()>,
#: "ok": bool}``.
PROFILE_SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline",
        description="Profile the staged generation pipeline and inspect "
                    "its phase/option-axis partition.")
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser(
        "profile", help="generate workloads cold then warm against one "
                        "phase cache; fail on any warm-pass miss")
    profile.add_argument("specs", nargs="*", metavar="SPEC",
                         default=["potrf:8"],
                         help="workloads to profile (default: potrf:8)")
    profile.add_argument("--scalar", action="store_true",
                         help="profile scalar (non-vectorized) generation")
    profile.add_argument("--no-autotune", action="store_true",
                         help="skip the autotuning search")
    profile.add_argument("--max-variants", type=int, default=6)
    profile.add_argument("--phase-cache", default=None, metavar="DIR",
                         help="persistent artifact layer root (default: "
                              "none -- in-memory only; also "
                              "$REPRO_PHASE_CACHE)")
    add_json_flag(profile)

    axes = sub.add_parser(
        "axes", help="print the phase -> option-axis partition")
    add_json_flag(axes)

    purge = sub.add_parser(
        "purge", help="empty (or, with --gc, size-bound) the persistent "
                      "phase-cache layer")
    purge.add_argument("--phase-cache", default=None, metavar="DIR",
                       help="persistent layer root (default: "
                            "$REPRO_PHASE_CACHE)")
    purge.add_argument("--gc", action="store_true", dest="only_gc",
                       help="evict oldest entries down to the size bound "
                            "($REPRO_PHASE_CACHE_LIMIT) instead of "
                            "removing everything")
    purge.add_argument("--yes", action="store_true",
                       help="skip the confirmation prompt")
    add_json_flag(purge)
    return parser


def _phase_line(phase: str, entry: Dict[str, float]) -> str:
    return (f"    {phase:10s} {int(entry['calls']):4d} calls  "
            f"{int(entry['hits']):4d} hits  "
            f"{entry['seconds'] * 1e3:9.2f} ms")


def _profile_one(spec_text: str, options: Options,
                 cache: PhaseCache) -> Dict[str, object]:
    from ..service.registry import build_case, parse_spec
    from ..slingen.generator import SLinGen

    case = build_case(parse_spec(spec_text))
    generator = SLinGen(options, phase_cache=cache)

    started = time.perf_counter()
    cold = generator.generate_result(case.program,
                                     nominal_flops=case.nominal_flops)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = generator.generate_result(case.program,
                                     nominal_flops=case.nominal_flops)
    warm_seconds = time.perf_counter() - started

    if warm.c_code != cold.c_code:
        raise ReproError(
            f"{spec_text}: warm-cache C differs from cold (the phase "
            f"cache changed generated code -- keys are broken)")
    warm_phases = warm.phase_stats or {}
    warm_misses = {
        phase: int(entry["calls"] - entry["hits"])
        for phase, entry in warm_phases.items()
        if entry["calls"] > entry["hits"]}
    return {
        "spec": spec_text,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": (cold_seconds / warm_seconds
                    if warm_seconds > 0 else float("inf")),
        "cold_phases": cold.phase_stats or {},
        "warm_phases": warm_phases,
        "warm_misses": warm_misses,
    }


def _cmd_profile(args: argparse.Namespace) -> int:
    options = Options(vectorize=not args.scalar,
                      autotune=not args.no_autotune,
                      max_variants=args.max_variants,
                      annotate_code=False)
    persistent = (PersistentPhaseStore(args.phase_cache)
                  if args.phase_cache else None)
    cache = PhaseCache(persistent=persistent)
    workloads = [_profile_one(text, options, cache) for text in args.specs]
    ok = all(not doc["warm_misses"] for doc in workloads)

    if args.as_json:
        print_json({
            "schema": PROFILE_SCHEMA_VERSION,
            "workloads": workloads,
            "cache": cache.stats(),
            "ok": ok,
        })
        return EXIT_OK if ok else EXIT_FAILURE

    for doc in workloads:
        print(f"{doc['spec']}: cold {doc['cold_seconds'] * 1e3:.1f} ms, "
              f"warm {doc['warm_seconds'] * 1e3:.2f} ms "
              f"(x{doc['speedup']:.1f})")
        print("  cold:")
        for phase in PHASES:
            if phase in doc["cold_phases"]:
                print(_phase_line(phase, doc["cold_phases"][phase]))
        print("  warm:")
        for phase in PHASES:
            if phase in doc["warm_phases"]:
                print(_phase_line(phase, doc["warm_phases"][phase]))
        if doc["warm_misses"]:
            print(f"  WARM MISSES: {doc['warm_misses']} -- the phase "
                  f"keys fail to cover some option axis")
    if not ok:
        print("warm pass missed the phase cache", file=sys.stderr)
        return EXIT_FAILURE
    print(f"all {len(workloads)} workload(s) served warm entirely from "
          f"the phase cache")
    return EXIT_OK


def _cmd_axes(args: argparse.Namespace) -> int:
    if args.as_json:
        print_json({
            "phases": {phase: list(PHASE_AXES[phase]) for phase in PHASES},
            "search": list(SEARCH_AXES),
            "gate": list(GATE_AXES),
        })
        return EXIT_OK
    for phase in PHASES:
        print(f"{phase:10s} {', '.join(PHASE_AXES[phase])}")
    print(f"{'(search)':10s} {', '.join(SEARCH_AXES)}")
    print(f"{'(gate)':10s} {', '.join(GATE_AXES)}")
    return EXIT_OK


def _cmd_purge(args: argparse.Namespace) -> int:
    import os

    from ..cli import confirm
    from .cache import ENV_PHASE_CACHE, ENV_PHASE_CACHE_LIMIT, parse_size

    root = args.phase_cache or os.environ.get(ENV_PHASE_CACHE, "").strip()
    if not root:
        raise ReproError("no persistent phase cache configured: pass "
                         "--phase-cache DIR or set $REPRO_PHASE_CACHE")
    limit = os.environ.get(ENV_PHASE_CACHE_LIMIT)
    store = PersistentPhaseStore(
        root, max_bytes=parse_size(limit) if limit is not None else None)
    before = store.total_bytes()

    if args.only_gc:
        if store.max_bytes is None:
            raise ReproError("--gc needs a size bound: set "
                             "$REPRO_PHASE_CACHE_LIMIT (e.g. 512M)")
        removed = store.gc()
    else:
        if not confirm(f"purge the persistent phase cache at {store.root}?",
                       assume_yes=args.yes):
            print("aborted")
            return EXIT_FAILURE
        removed = store.purge()

    after = store.total_bytes()
    if args.as_json:
        print_json({"root": store.root, "removed": removed,
                    "bytes_before": before, "bytes_after": after,
                    "gc": args.only_gc})
        return EXIT_OK
    action = "evicted" if args.only_gc else "purged"
    print(f"{action} {removed} entr{'y' if removed == 1 else 'ies'} "
          f"({before - after} bytes) from {store.root}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "purge":
            return _cmd_purge(args)
        return _cmd_axes(args)
    except ReproError as exc:
        return fail(exc)


if __name__ == "__main__":
    sys.exit(main())
