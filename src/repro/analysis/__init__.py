"""Static analysis: an IR well-formedness verifier and dataflow framework.

The subsystem proves well-formedness of pipeline artifacts at
generation time -- on *all* paths, with zero execution cost -- where
the differential fuzzer and the CEGIS verifier can only sample:

* :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` -- the
  reusable framework: structured CFGs over C-IR bodies and a generic
  forward/backward worklist solver.
* :mod:`repro.analysis.widths`, :mod:`repro.analysis.bounds`,
  :mod:`repro.analysis.defuse`, :mod:`repro.analysis.liveness` -- the
  C-IR function passes.
* :mod:`repro.analysis.structure` -- the mathematical-level passes over
  LA/Stage-1 programs (structurally-zero reads/writes, ``ow()`` overlay
  aliasing).
* :mod:`repro.analysis.verifier` -- orchestration, the
  ``Options.analysis`` phase gate, and the process-wide stats counters
  surfaced on ``/stats``.
* :mod:`repro.analysis.witnesses` -- builders of deliberately broken
  artifacts the verifier must flag.

CLI: ``python -m repro.analysis check|lint`` sweeps registry kernels,
the fuzz corpus, the witnesses, and arbitrary LA sources.
"""

from ..errors import AnalysisError
from .diagnostics import AnalysisReport, Diagnostic
from .verifier import (GATE_MODES, gate_artifact, record_report,
                       reset_stats, stats_snapshot, validate_mode,
                       verify_artifact, verify_function, verify_program)

__all__ = [
    "AnalysisError", "AnalysisReport", "Diagnostic", "GATE_MODES",
    "gate_artifact", "record_report", "reset_stats", "stats_snapshot",
    "validate_mode", "verify_artifact", "verify_function",
    "verify_program",
]
