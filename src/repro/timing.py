"""The one batched-timing protocol shared by every execution backend.

:class:`~repro.backend.compile.CompiledKernel`,
:class:`~repro.backend.numpy_backend.NumPyKernel`, and
:class:`~repro.cir.interpreter.InterpreterKernel` all expose
``time(inputs, repeats, warmup, inner)``; keeping the measurement loop in
one place guarantees their samples stay comparable -- the autotuner's
measurement backends and the bench harness rank kernels across backends,
so a protocol change (warmup handling, where the restore sits relative to
the timer) must apply to all of them at once.

Kept in a leaf module (like :mod:`repro.ioutil`) so both :mod:`repro.cir`
and :mod:`repro.backend` can share it without layering inversions.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Sequence, Tuple


def median_and_mad(samples: List[float]) -> Tuple[float, float]:
    """Median and median-absolute-deviation of timing samples.

    The summary every consumer of :func:`batched_time` reports (the
    bench harness, the perf runner's trajectory records): the median is
    robust to scheduler noise and the MAD is the matching robust spread
    -- the regression gate widens its threshold by it, so a noisy entry
    needs a proportionally larger slowdown to trip."""
    if not samples:
        raise ValueError("no timing samples")
    center = statistics.median(samples)
    spread = statistics.median(abs(s - center) for s in samples)
    return center, spread


def batched_time(invoke: Callable[[], None], restore: Callable[[], None],
                 repeats: int, warmup: int, inner: int) -> List[float]:
    """Time ``invoke``: ``repeats`` samples of seconds-per-call.

    Each sample times a batch of ``inner`` calls (tiny kernels finish well
    below the timer resolution) and reports the mean call time.
    ``restore`` runs before every call -- *inside* the timed region, so
    its (constant) cost is identical across candidate kernels and cancels
    in comparisons -- returning in-out buffers to their pristine values,
    which keeps iterative kernels like factorizations numerically sane
    across calls.  The first ``warmup`` batches run untimed (icache,
    branch predictors, frequency ramp-up).
    """
    def run_batch() -> float:
        started = time.perf_counter()
        for _ in range(inner):
            restore()
            invoke()
        return (time.perf_counter() - started) / inner

    for _ in range(warmup):
        run_batch()
    return [run_batch() for _ in range(repeats)]


def pristine_restore(params: Sequence, work: Sequence) -> Callable[[], None]:
    """The ``restore`` step of :func:`batched_time` for a kernel called on
    the arrays ``work``, one per C-IR parameter in ``params``: copies the
    ``inout`` ones now and writes the copies back on every call.  Output-only
    buffers are recomputed from the inputs on every call; restoring them
    would only charge each candidate for its number of outputs."""
    pristine = [(array, array.copy())
                for buf, array in zip(params, work) if buf.kind == "inout"]

    def restore() -> None:
        for array, original in pristine:
            array[...] = original

    return restore
