"""Shared pieces of the benchmark: the kernel suite, output checks,
statistics, the tracer for the per-layer run, and the result record."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The paper's Table 3 HLACs plus gemm/trsm at n = 4 and 8, and the three
#: Fig. 13 applications at n = 4.  trsyl/trlya stay at n = 4: at n = 8 their
#: cold generation alone takes seconds, which would leave one pass per run.
SUITE: Tuple[str, ...] = (
    "potrf:4", "potrf:8", "trtri:4", "trtri:8", "trsyl:4", "trlya:4",
    "gemm:4", "gemm:8", "trsm:4", "trsm:8", "kf:4", "gpr:4", "l1a:4")

#: Suite cases with a LAPACK/BLAS counterpart (the measured baseline rows).
OPENBLAS_ROUTINES: Dict[str, str] = {
    "potrf": "dpotrf", "trtri": "dtrtri", "trsyl": "dtrsyl",
    "gemm": "dgemm", "trsm": "dtrsm"}

#: Kernels on which the driver's injected 2x slowdown must read as 2x.
SELF_CHECK: Tuple[str, ...] = ("gemm:8", "potrf:8")
SELF_CHECK_RANGE = (1.6, 2.4)


def metric_name(spec: str) -> str:
    """``potrf:4`` -> ``potrf_4`` (metric names admit no colon)."""
    return spec.replace(":", "_")


def make_case(spec: str):
    """The registry's benchmark case (inputs, reference, checked outputs)."""
    from repro.applications.cases import make_case as build
    name, _, size = spec.partition(":")
    return build(name, int(size))


class KernelSet:
    """Cases of some suite kernels with seeded inputs, their reference
    outputs, and the latest compiled kernel the workload delivered for each
    (``latest[spec] = (CompiledKernel, model flops/cycle)``)."""

    def __init__(self, specs: Sequence[str], seed: int) -> None:
        self.cases = {spec: make_case(spec) for spec in specs}
        self.inputs = {spec: case.make_inputs(seed)
                       for spec, case in self.cases.items()}
        self.expected = {spec: case.reference_outputs(self.inputs[spec])
                         for spec, case in self.cases.items()}
        self.latest: Dict[str, Tuple[object, float]] = {}

    def check(self, spec: str, outputs: Dict[str, np.ndarray]) -> bool:
        return outputs_match(outputs, self.expected[spec],
                             self.cases[spec].checked_outputs)


def outputs_match(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray],
                  modes: Dict[str, str]) -> bool:
    """Compare checked outputs, honouring triangle modes ("lower"/"upper"
    compare only that triangle, as the case defines its output)."""
    for name, mode in modes.items():
        if name not in got:
            return False
        expect = np.asarray(want[name], dtype=np.float64)
        actual = np.asarray(got[name], dtype=np.float64).reshape(expect.shape)
        if mode == "lower":
            actual, expect = np.tril(actual), np.tril(expect)
        elif mode == "upper":
            actual, expect = np.triu(actual), np.triu(expect)
        scale = max(1.0, float(np.max(np.abs(expect))))
        if not np.allclose(actual, expect, rtol=1e-9, atol=1e-9 * scale):
            return False
    return True


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def put_speed(outcome: "Outcome", figures: Sequence[float],
              throughput: Optional[float] = None) -> None:
    """The speed metrics from one figure (seconds) per operation kind, as
    the workload reduces its kinds' samples: ``op_ms`` is the median over
    kinds, and ``ops_per_s`` the rate at which the kinds run back to back,
    unless the workload measures its own ``throughput``.  The slowest
    kind's figure is the per-layer ``load.slowest_op_ms``: on paper-suite
    it is one kernel's few builds, too unsteady to gate.  Medians and tails
    as measured are reported beside them (``load.*``, traced runs)."""
    outcome.put("op_ms", 1e3 * statistics.median(figures), "ms")
    outcome.put("load.slowest_op_ms", 1e3 * max(figures), "ms")
    if throughput is None:
        throughput = len(figures) / sum(figures)
    outcome.put("ops_per_s", throughput, "1/s")


def put_load(outcome: "Outcome", latencies: Sequence[float], seconds: float,
             tail: float) -> None:
    """Median, tail percentile and rate of all operations as measured."""
    outcome.put("load.p50_ms", 1e3 * statistics.median(latencies), "ms")
    outcome.put("load.tail_ms", 1e3 * percentile(latencies, tail), "ms")
    outcome.put("load.ops_per_s", len(latencies) / seconds, "1/s")


def paced_setup(setup: Callable[[int], object], gauge,
                teardown: Optional[Callable[[object], None]] = None,
                times: int = 3) -> Tuple[float, object]:
    """Run ``setup(i)`` ``times`` times and return the median seconds, each
    set-up paced by the ``native.Gauge`` reading after it, and the last
    set-up's state; ``teardown`` (untimed) disposes of the others."""
    seconds = []
    state = None
    for index in range(times):
        if state is not None and teardown is not None:
            teardown(state)
        started = time.perf_counter()
        state = setup(index)
        seconds.append(gauge.pace(time.perf_counter() - started))
    return statistics.median(seconds), state


class Tracer:
    """Spans recorded around calls into the system's layers.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a module function
    or a class method, wherever the caller resolves it) by a timing wrapper;
    ``close()`` puts every original back.  Spans keep name, start, end and
    the enclosing span's name, per thread.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((name, started, ended, parent))

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def durations(self, name: str) -> List[float]:
        with self._lock:
            return [end - start for span, start, end, _ in self.spans
                    if span == name]

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations(name))

    def count(self, name: str) -> int:
        return len(self.durations(name))


class Outcome:
    """Counts of attempted and failed operations, plus the metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.tsc_ghz: Optional[float] = None

    def attempt(self, ok: bool, what: str = "") -> bool:
        """Count one operation (a wrong output is a failure too)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def environment_stamp(tsc_ghz: Optional[float]) -> Dict[str, object]:
    """Compiler, CPU features, CPU count and TSC rate of this host."""
    cc = os.environ.get("CC") or "gcc"
    try:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags: Dict[str, bool] = {}
    try:
        with open("/proc/cpuinfo") as handle:
            words = set()
            for line in handle:
                if line.startswith("flags"):
                    words.update(line.split(":", 1)[1].split())
                    break
        flags = {f: f in words for f in ("avx2", "fma", "avx512f")}
    except OSError:
        pass
    return {"cc": version, "cpu_flags": flags, "nproc": os.cpu_count(),
            "tsc_ghz": tsc_ghz}
