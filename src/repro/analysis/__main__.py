"""Command-line front-end of the static verifier.

Usage (``PYTHONPATH=src python -m repro.analysis <command>``)::

    check [TARGET ...] [--const NAME=VALUE] [--json]
        Generate (or load) each target and run every static pass over
        its Stage-1 program and C-IR function.  Exits 1 when any target
        produces an *error* diagnostic; warnings never affect the exit
        code.  With no targets the full sweep runs: every registry
        workload at its default sizes plus every committed fuzz-corpus
        entry -- the acceptance bar the CI ``analysis-smoke`` job holds.

    lint [TARGET ...] [--const NAME=VALUE] [--json]
        Same sweep, but the report also lists warning diagnostics
        (dead stores, double writes, implicit-zero reads).  The exit
        code is still driven by errors only.

A TARGET is one of:

* a registry spec (``potrf:8``, ``kf:8x4``) or bare workload name
  (``potrf`` -- expands to its default size sweep),
* a ``.la`` source file (dimension constants via ``--const N=8``),
* a fuzz-case JSON file (the ``tests/fuzz_corpus/`` shape), or
* ``witness:NAME`` -- a deliberately broken artifact from
  :data:`repro.analysis.witnesses.WITNESSES`, verified directly
  without generation (it must be flagged).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

from .. import cli
from ..cli import EXIT_FAILURE, EXIT_OK, add_json_flag, print_json
from ..errors import AnalysisError
from ..ir.program import Program
from ..slingen.options import Options
from .diagnostics import AnalysisReport
from .verifier import verify_artifact, verify_function, verify_program
from .witnesses import WITNESSES

#: Version of the ``check/lint --json`` document; bump on any
#: incompatible change.  The document is ``{"schema": N, "mode":
#: "check"|"lint", "targets": [{"label", "kind", "ok", "errors": [...],
#: "warnings": [...]}...], "counts": {"targets", "errors", "warnings"},
#: "ok": bool}``.
CHECK_SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify generated artifacts: registry "
                    "kernels, fuzz-corpus entries, LA sources, and "
                    "the built-in witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "verify targets; exit 1 on any error diagnostic"),
            ("lint", "verify targets and also report warnings")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=_run)
        cmd.add_argument("targets", nargs="*", metavar="TARGET",
                         help="registry spec/name, .la source, fuzz-case "
                              "JSON, or witness:NAME (default: full "
                              "registry + corpus sweep)")
        cmd.add_argument("--const", action="append", default=[],
                         metavar="NAME=VALUE", dest="consts",
                         help="dimension constant for .la targets "
                              "(repeatable)")
        add_json_flag(cmd)
    return parser


def _parse_consts(pairs: List[str]) -> Dict[str, int]:
    consts: Dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name.strip():
            raise AnalysisError(
                f"bad --const {pair!r} (expected NAME=VALUE)")
        try:
            consts[name.strip()] = int(value)
        except ValueError:
            raise AnalysisError(f"bad --const value in {pair!r}")
    return consts


def _sweep_options() -> Options:
    # The sweep verifies one representative artifact per workload; the
    # autotuning search only permutes which variant wins, and every
    # variant a search would visit flows through the same gated drivers.
    return Options(autotune=False, annotate_code=False)


def _verify_generated(program: Program, options: Options,
                      nominal_flops: Optional[float],
                      label: str) -> AnalysisReport:
    from ..slingen.generator import SLinGen

    result = SLinGen(options).generate_result(
        program, nominal_flops=nominal_flops)
    report = AnalysisReport.of(label, [])
    if result.basic_program is not None:
        report = report.merged_with(verify_program(result.basic_program))
    report = report.merged_with(verify_function(result.function))
    return report


def _target_reports(text: str, consts: Dict[str, int]
                    ) -> List[Tuple[str, str, AnalysisReport]]:
    """Expand one TARGET into ``(label, kind, report)`` rows."""
    if text.startswith("witness:"):
        name = text[len("witness:"):]
        if name not in WITNESSES:
            raise AnalysisError(
                f"unknown witness {name!r} (known: "
                f"{', '.join(sorted(WITNESSES))})")
        return [(text, "witness", verify_artifact(WITNESSES[name]()))]
    if text.endswith(".la"):
        from ..la import parse_program
        with open(text, "r", encoding="utf-8") as handle:
            source = handle.read()
        name = os.path.splitext(os.path.basename(text))[0]
        program = parse_program(source, dict(consts), name=name)
        return [(text, "source",
                 _verify_generated(program, _sweep_options(), None, text))]
    if text.endswith(".json"):
        from ..fuzz.corpus import load_entry
        entry = load_entry(text)
        case = entry.case
        return [(text, "corpus",
                 _verify_generated(case.program.parse(), case.options,
                                   None, text))]
    return _registry_reports([text])


def _registry_reports(specs: Optional[List[str]]
                      ) -> List[Tuple[str, str, AnalysisReport]]:
    """Registry rows for ``specs`` (None: every registered workload)."""
    from ..service.registry import sweep_requests

    options = _sweep_options()
    return [(request.label or "?", "registry",
             _verify_generated(request.program, options,
                               request.nominal_flops, request.label or "?"))
            for request in sweep_requests(specs, options=options)]


def _default_sweep() -> List[Tuple[str, str, AnalysisReport]]:
    from ..fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus

    rows = _registry_reports(None)
    if os.path.isdir(DEFAULT_CORPUS_DIR):
        for entry in load_corpus():
            rows.append((entry.entry_id, "corpus",
                         _verify_generated(entry.case.program.parse(),
                                           entry.case.options, None,
                                           entry.entry_id)))
    return rows


def _run(args: argparse.Namespace) -> int:
    consts = _parse_consts(args.consts)
    if args.targets:
        rows = []
        for text in args.targets:
            rows.extend(_target_reports(text, consts))
    else:
        rows = _default_sweep()

    show_warnings = args.command == "lint"
    total_errors = sum(len(report.errors) for _, _, report in rows)
    total_warnings = sum(len(report.warnings) for _, _, report in rows)
    ok = total_errors == 0

    if args.as_json:
        print_json({
            "schema": CHECK_SCHEMA_VERSION,
            "mode": args.command,
            "targets": [{
                "label": label,
                "kind": kind,
                "ok": report.ok,
                "errors": [diag.to_json() for diag in report.errors],
                "warnings": [diag.to_json() for diag in report.warnings],
            } for label, kind, report in rows],
            "counts": {"targets": len(rows), "errors": total_errors,
                       "warnings": total_warnings},
            "ok": ok,
        })
        return EXIT_OK if ok else EXIT_FAILURE

    for label, kind, report in rows:
        flagged = report.errors + (report.warnings if show_warnings else ())
        status = "ok" if report.ok else "FAIL"
        suffix = (f"  ({len(report.errors)} error(s), "
                  f"{len(report.warnings)} warning(s))"
                  if (report.errors or report.warnings) else "")
        print(f"{status:4s} {kind:8s} {label}{suffix}")
        for diag in flagged:
            print(f"       {diag.describe()}")
    tail = f"{len(rows)} target(s), {total_errors} error(s)"
    if show_warnings:
        tail += f", {total_warnings} warning(s)"
    if not ok:
        print(f"static analysis failed: {tail}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"static analysis clean: {tail}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
