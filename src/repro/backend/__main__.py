"""Command-line front-end of the execution backends.

Usage (``PYTHONPATH=src python -m repro.backend <command>``)::

    crosscheck SPEC ... [--backends B[,B...]] [--tol T] [--scalar]
        [--seed S] [--seeds N]
        Generate each workload and execute it on every requested backend
        (interpreter / numpy / compiled), asserting that all backends
        agree element-wise within the tolerance, for ``N`` input draws
        starting at seed ``S`` (so agreement claims do not hinge on one
        lucky input).  Exits non-zero on any disagreement -- this is the
        cross-backend differential job CI runs on every push.

    emit SPEC [--format c|numpy] [--scalar]
        Print the generated artifact for one workload: the emitted C or
        the NumPy-backend Python translation.

A SPEC is ``name:size`` (``potrf:4``) or ``name:sizexk`` (``kf:4x4``) --
the same workload addresses the kernel service and the tuner use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import cli
from ..cli import EXIT_FAILURE, EXIT_OK, add_json_flag, print_json
from ..errors import ReproError
from ..fuzz.oracle import max_deviation
from ..slingen.generator import SLinGen
from ..slingen.options import Options
from . import EXECUTORS, make_executor, resolve_backends
from .numpy_backend import translate_function

#: Tolerance of the differential check.  All three backends implement the
#: same double-precision operation sequence, so they agree to rounding
#: error; 1e-12 absolute leaves ~3 decimal digits of headroom over pure
#: accumulation noise without masking real divergence.
DEFAULT_TOLERANCE = 1e-12


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backend",
        description="Differentially test and inspect kernel execution "
                    "backends.")
    sub = parser.add_subparsers(dest="command", required=True)

    cross = sub.add_parser(
        "crosscheck",
        help="run workloads on every backend and assert agreement")
    cross.set_defaults(handler=_cmd_crosscheck)
    cross.add_argument("specs", nargs="+", metavar="SPEC",
                       help="workloads to check, e.g. potrf:4 gemm:8 kf:4x4")
    cross.add_argument("--backends", default="auto",
                       help="comma-separated backend list, or 'auto' "
                            "(interpreter,numpy + compiled when $CC "
                            "resolves)")
    cross.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                       help=f"max |a - b| between any two backends "
                            f"(default {DEFAULT_TOLERANCE:g})")
    cross.add_argument("--scalar", action="store_true",
                       help="check scalar (non-vectorized) kernels")
    cross.add_argument("--seed", type=int, default=17,
                       help="first input-generation seed")
    cross.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="number of input draws per workload, seeds "
                            "seed..seed+N-1 (default 1)")
    add_json_flag(cross)

    emit = sub.add_parser("emit", help="print a generated artifact")
    emit.set_defaults(handler=_cmd_emit)
    emit.add_argument("spec", metavar="SPEC")
    emit.add_argument("--format", default="numpy",
                      choices=("c", "numpy"))
    emit.add_argument("--scalar", action="store_true")
    add_json_flag(emit, help="wrap the artifact in a JSON document "
                             "instead of printing it raw")
    return parser


def _resolve_backends(text: str) -> List[str]:
    backends = resolve_backends(text)
    for name in backends:
        if name not in EXECUTORS:
            raise ReproError(
                f"unknown backend {name!r}; known: {', '.join(EXECUTORS)}")
    if len(backends) < 2:
        raise ReproError("crosscheck needs at least two backends")
    return backends


def _generate(spec_text: str, scalar: bool):
    from ..service.registry import build_case, parse_spec
    case = build_case(parse_spec(spec_text))
    options = Options(vectorize=not scalar, annotate_code=False)
    result = SLinGen(options).generate_result(
        case.program, nominal_flops=case.nominal_flops)
    return case, result


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ReproError(f"--seeds must be >= 1, got {args.seeds}")
    backends = _resolve_backends(args.backends)
    seeds = range(args.seed, args.seed + args.seeds)
    failures = 0
    docs = []
    for text in args.specs:
        case, result = _generate(text, args.scalar)
        kernels = {
            backend: make_executor(result.function, backend=backend,
                                   c_code=result.c_code)
            for backend in backends}
        worst = 0.0
        worst_pair = ""
        worst_seed = args.seed
        for seed in seeds:
            inputs = case.make_inputs(seed=seed)
            outputs = {backend: kernels[backend].run(inputs)
                       for backend in backends}
            for i, first in enumerate(backends):
                for second in backends[i + 1:]:
                    deviation = max_deviation(outputs[first],
                                              outputs[second])
                    if deviation > worst:
                        worst = deviation
                        worst_pair = f"{first} vs {second}"
                        worst_seed = seed
        agreed = worst <= args.tol
        if not agreed:
            failures += 1
        if args.as_json:
            docs.append({"spec": text, "backends": backends,
                         "max_deviation": worst,
                         "worst_pair": worst_pair or None,
                         "worst_seed": worst_seed, "ok": agreed})
            continue
        seed_note = f" seed {worst_seed}" if args.seeds > 1 else ""
        print(f"{text:12s} {'/'.join(backends):32s} "
              f"max |delta| {worst:.3e}"
              f"{'  (' + worst_pair + seed_note + ')' if worst_pair else '':28s} "
              f"{'ok' if agreed else 'DISAGREE'}")
    if args.as_json:
        print_json({"workloads": docs, "tol": args.tol,
                    "seeds": args.seeds, "failures": failures})
        return EXIT_FAILURE if failures else EXIT_OK
    if failures:
        print(f"{failures} of {len(args.specs)} workloads disagree beyond "
              f"{args.tol:g}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"all {len(args.specs)} workloads agree across "
          f"{len(backends)} backends and {args.seeds} input seed(s) "
          f"within {args.tol:g}")
    return EXIT_OK


def _cmd_emit(args: argparse.Namespace) -> int:
    _, result = _generate(args.spec, args.scalar)
    artifact = result.c_code if args.format == "c" \
        else translate_function(result.function)
    if args.as_json:
        print_json({"spec": args.spec, "format": args.format,
                    "code": artifact})
    else:
        print(artifact, end="")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
