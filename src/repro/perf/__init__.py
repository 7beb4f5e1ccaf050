"""Continuous performance tracking: manifests, a trajectory, and gates.

The paper's entire evaluation is measured performance, and every tier of
this repository (backends, autotuner, CEGIS rewrites) exists to move it
-- so performance is tracked like correctness, with a declarative spec of
*what* to measure, an append-only history of *every* measurement, and a
gate that turns "slower than last time" into a red build.

Four layers, one per module:

* :mod:`.manifest` -- the declarative benchmark **matrix**: entries over
  kernels x sizes x backends x {untuned, tuned, verified}, grouped into
  named suites (``smoke``, ``figures``, ``full``), loadable from JSON.
* :mod:`.environment` -- the host **fingerprint** stamped into every
  record (python/numpy versions, CPU count, ``$CC``, vectorization
  flags) and the compatibility rules that decide which historical
  records a new measurement may be compared against.
* :mod:`.runner` -- executes a manifest through the existing
  :class:`~repro.service.service.KernelService` /
  :func:`~repro.backend.make_executor` machinery and emits
  schema-versioned records (robust median + MAD seconds per call).
* :mod:`.trajectory` -- the **append-only** history
  (``BENCH_trajectory.jsonl``): one JSON record per line, atomic
  appends, corruption-tolerant reads in the TuningDB/fix-bank style,
  keyed by commit + manifest entry.
* :mod:`.analyze` -- per-entry baseline statistics over the trajectory
  and the noise-aware regression **gate** / trend report.

``python -m repro.perf run / report / gate / baseline``
(:mod:`.__main__`) is the operational surface; CI runs the ``smoke``
suite and gates every push on it.
"""

from .analyze import (GateDecision, GateReport, gate_records, render_report,
                      trend_report)
from .environment import compatibility_issues, environment_fingerprint
from .manifest import (Manifest, ManifestEntry, load_manifest, suite,
                       suite_names)
from .runner import RECORD_SCHEMA_VERSION, BenchRun, run_manifest
from .trajectory import TrajectoryStore, default_trajectory_path

__all__ = [
    "Manifest", "ManifestEntry", "load_manifest", "suite", "suite_names",
    "environment_fingerprint", "compatibility_issues",
    "RECORD_SCHEMA_VERSION", "BenchRun", "run_manifest",
    "TrajectoryStore", "default_trajectory_path",
    "GateDecision", "GateReport", "gate_records", "trend_report",
    "render_report",
]
