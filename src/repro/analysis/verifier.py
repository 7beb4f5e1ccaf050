"""Verifier orchestration: run every pass, gate phase artifacts, count.

:func:`verify_function` and :func:`verify_program` aggregate the pass
modules into one :class:`~repro.analysis.diagnostics.AnalysisReport`;
:func:`verify_artifact` dispatches on artifact type so the four IR
phase drivers share one entry point.  :func:`gate_artifact` implements the
``Options.analysis`` contract:

``off``
    No verification, no cost.
``warn``
    Verify; record error/warning counts in the process-wide stats
    (surfaced by ``ServiceStats.snapshot()`` and ``/stats``); never
    interrupt generation.
``strict``
    Like warn, but error diagnostics raise
    :class:`~repro.errors.AnalysisError` *before* the phase driver
    caches the artifact -- nothing ill-formed can reach the phase
    cache, the kernel store, or a client.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

from ..cir.nodes import Function
from ..errors import AnalysisError, ConfigurationError, ReproError
from ..ir.program import Program
from .bounds import check_bounds
from .defuse import check_element_defuse, check_register_defuse
from .diagnostics import AnalysisReport, Diagnostic
from .liveness import check_dead_registers, check_double_writes
from .structure import check_program, check_symmetric_storage
from .widths import check_widths

GATE_MODES = ("off", "warn", "strict")

#: pass registry: name -> (callable, artifact kind); adding a pass means
#: adding a row here (see docs/analysis.md)
FUNCTION_PASSES = (
    ("widths", check_widths),
    ("bounds", check_bounds),
    ("defuse.registers", check_register_defuse),
    ("defuse.elements", check_element_defuse),
    ("liveness.dead-registers", check_dead_registers),
    ("liveness.double-writes", check_double_writes),
)
PROGRAM_PASSES = (
    ("structure", check_program),
    ("structure.symmetric-storage", check_symmetric_storage),
)


def _run_pass(name: str, check, subject, diags: List[Diagnostic]) -> None:
    try:
        diags.extend(check(subject))
    except ReproError as exc:
        # A pass crashing on an artifact is itself evidence of
        # ill-formedness (unbound index variables, malformed nodes).
        diags.append(Diagnostic(name.split(".")[0], "error",
                                f"pass {name!r} failed: {exc}"))


def verify_function(fn: Function) -> AnalysisReport:
    """Run every C-IR pass over one function."""
    diags: List[Diagnostic] = []
    for name, check in FUNCTION_PASSES:
        _run_pass(name, check, fn, diags)
    return AnalysisReport.of(f"function {fn.name!r}", diags)


def verify_program(program: Program) -> AnalysisReport:
    """Run every mathematical-level pass over one LA/Stage-1 program."""
    diags: List[Diagnostic] = []
    for name, check in PROGRAM_PASSES:
        _run_pass(name, check, program, diags)
    return AnalysisReport.of(f"program {program.name!r}", diags)


def verify_artifact(artifact: Union[Program, Function]) -> AnalysisReport:
    """Dispatch on artifact type (Stage-1 program vs C-IR function)."""
    if isinstance(artifact, Program):
        return verify_program(artifact)
    if isinstance(artifact, Function):
        return verify_function(artifact)
    raise AnalysisError(
        f"cannot verify artifact of type {type(artifact).__name__}")


# ---------------------------------------------------------------------------
# Process-wide stats (mirrors the ServiceStats counter conventions)
# ---------------------------------------------------------------------------

_STATS_LOCK = threading.Lock()
_STATS: Dict[str, int] = {}


def _zero_stats() -> Dict[str, int]:
    return {"programs_checked": 0, "functions_checked": 0, "errors": 0,
            "warnings": 0, "strict_failures": 0}


_STATS = _zero_stats()


def record_report(report: AnalysisReport, kind: str,
                  strict_failure: bool = False) -> None:
    """Fold one report into the process-wide counters (thread-safe)."""
    with _STATS_LOCK:
        if kind == "program":
            _STATS["programs_checked"] += 1
        else:
            _STATS["functions_checked"] += 1
        _STATS["errors"] += len(report.errors)
        _STATS["warnings"] += len(report.warnings)
        if strict_failure:
            _STATS["strict_failures"] += 1


def stats_snapshot() -> Dict[str, int]:
    """A point-in-time copy of the analysis counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_stats() -> None:
    with _STATS_LOCK:
        for key in list(_STATS):
            _STATS[key] = 0


# ---------------------------------------------------------------------------
# Phase gating
# ---------------------------------------------------------------------------


def validate_mode(mode: str) -> str:
    if mode not in GATE_MODES:
        raise ConfigurationError(f"invalid analysis mode {mode!r}; "
                                 f"choose one of {GATE_MODES}")
    return mode


def gate_artifact(phase: str, artifact: Union[Program, Function],
                  mode: str) -> Optional[AnalysisReport]:
    """Verify a freshly built phase artifact according to ``mode``.

    Called by the phase drivers on every cache *miss*, before the
    artifact is inserted into the phase cache; strict failures therefore
    leave no trace in any cache or store.  Returns the report (or
    ``None`` when ``mode == "off"``).
    """
    if mode == "off":
        return None
    validate_mode(mode)
    report = verify_artifact(artifact)
    kind = "program" if isinstance(artifact, Program) else "function"
    strict_failure = mode == "strict" and not report.ok
    record_report(report, kind, strict_failure=strict_failure)
    if strict_failure:
        details = "; ".join(d.describe() for d in report.errors[:8])
        raise AnalysisError(
            f"static analysis rejected the {phase!r} artifact "
            f"({report.subject}): {details}")
    return report
