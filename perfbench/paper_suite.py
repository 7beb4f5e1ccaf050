"""paper-suite: cold builds of the paper's kernels, then native timing.

Set-up builds the suite's cases (seeded inputs, reference outputs) and the
native driver.  Each operation takes one suite kernel from LA source to a
checked, loaded
native kernel with every cache empty: a fresh ``DiskKernelStore``, a cleared
phase cache and a fresh object cache.  It goes through the public path a
user takes -- ``make_request`` (parses the LA source),
``KernelService.generate`` and ``response.kernel("compiled")`` (runs
``$CC``) -- and ends when the kernel's outputs match the case reference.
Between builds, untimed, the gauge reads the host's pace (``native.Gauge``)
and the native driver times the compiled kernels in turn, so their timing
spreads over the whole run.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import tempfile
import time
from typing import Dict, List, Tuple

import common
import native

#: The tail percentile of the load rows: the ~23 builds of a traced run's
#: untraced half leave >= 10 beyond it.
TAIL = 55.0

#: Native driver runs after each build (~10 ms each against a ~450 ms
#: build and a ~300 ms gauge reading), so every kernel is timed ~20 times
#: over a run.
TIMINGS_PER_BUILD = 6

#: (per-layer metric, span) pairs reported per build in traced runs.
LAYER_SPANS = (
    ("la.parse_ms", "la.parse"),
    ("pipeline.stage1_ms", "pipeline.stage1"),
    ("pipeline.rewrite_ms", "pipeline.rewrite"),
    ("pipeline.lower_ms", "pipeline.lower"),
    ("pipeline.optimize_ms", "pipeline.optimize"),
    ("machine.score_ms", "machine.score"),
    ("backend.emit_ms", "backend.emit"),
    ("backend.cc_ms", "backend.cc"),
    ("service.store_get_ms", "service.store_get"),
    ("service.store_put_ms", "service.store_put"),
)


class _Builder:
    """Cold LA-to-native builds, one kernel at a time."""

    def __init__(self, kernels: common.KernelSet, root: str) -> None:
        self.kernels = kernels
        self.root = root
        self.phase_hits = 0
        self.phase_lookups = 0
        self.candidates: List[int] = []

    def build(self, spec: str) -> bool:
        from repro.api import (DiskKernelStore, KernelService, make_request,
                               shared_phase_cache)
        store_root = tempfile.mkdtemp(prefix="store-", dir=self.root)
        os.environ["REPRO_OBJECT_CACHE"] = tempfile.mkdtemp(
            prefix="objects-", dir=self.root)
        cache = shared_phase_cache()
        cache.clear()
        cache.reset_stats()
        request = make_request(spec)
        service = KernelService(store=DiskKernelStore(root=store_root))
        response = service.generate(request)
        kernel = response.kernel("compiled")
        outputs = kernel.run(self.kernels.inputs[spec])
        stats = cache.stats()
        self.phase_hits += int(stats["hits"])
        self.phase_lookups += int(stats["hits"]) + int(stats["misses"])
        self.candidates.append(len(response.result.candidates))
        self.kernels.latest[spec] = (
            kernel, response.result.performance.flops_per_cycle)
        return self.kernels.check(spec, outputs)

    def passes(self, rng: random.Random, seconds: float,
               outcome: common.Outcome, timer: native.KernelTimer,
               gauge: native.Gauge
               ) -> Tuple[Dict[str, List[float]], List[float]]:
        """Whole passes over the suite, each in a seeded order, until the
        time is up.  Each build is followed by a ``gauge`` reading, which
        paces it, and by ``timer`` runs.  Returns each kernel's paced build
        times and all build times as measured, in seconds."""
        samples: Dict[str, List[float]] = {spec: [] for spec in common.SUITE}
        measured: List[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            order = list(common.SUITE)
            rng.shuffle(order)
            for spec in order:
                # Every build starts from a collected heap, so when the
                # collector runs inside a build depends on that build alone,
                # not on which kernels the seeded order put before it.
                gc.collect()
                started = time.perf_counter()
                try:
                    ok = self.build(spec)
                except Exception as exc:  # counted, and the run goes on
                    outcome.attempt(False, f"build {spec}: {exc!r}")
                    continue
                elapsed = time.perf_counter() - started
                if outcome.attempt(ok, f"{spec}: wrong output"):
                    samples[spec].append(gauge.pace(elapsed))
                    measured.append(elapsed)
                timer.next(TIMINGS_PER_BUILD)
        return samples, measured


def _trace(tracer: common.Tracer) -> None:
    import repro.applications.cases as cases
    import repro.backend as backend
    import repro.pipeline.phases as phases
    import repro.slingen.generator as generator
    from repro.api import DiskKernelStore
    tracer.wrap(cases, "parse_program", "la.parse")
    for phase in ("stage1", "rewrite", "lower", "optimize"):
        tracer.wrap(phases, phase, f"pipeline.{phase}")
    tracer.wrap(generator, "analyze_function", "machine.score")
    tracer.wrap(generator, "unparse_function", "backend.emit")
    tracer.wrap(backend, "compile_kernel", "backend.cc")
    tracer.wrap(DiskKernelStore, "get", "service.store_get")
    tracer.wrap(DiskKernelStore, "put", "service.store_put")


def run(seed: int, seconds: float, trace: bool, root: str,
        outcome: common.Outcome) -> None:
    def setup(index: int):
        # The suite's registry cases with their seeded inputs and reference
        # outputs, and the native driver.
        return (common.KernelSet(common.SUITE, seed),
                native.build_driver(os.path.join(root, f"drv{index}")))

    gauge = native.Gauge(os.path.join(root, "gauge"))
    setup_s, (kernels, exe) = common.paced_setup(setup, gauge, times=5)
    outcome.put("setup_s", setup_s, "s")
    rng = random.Random(seed)
    builder = _Builder(kernels, root)
    timer = native.KernelTimer(exe, kernels, root,
                               self_check=common.SELF_CHECK)

    measure = seconds / 2 if trace else seconds
    started = time.perf_counter()
    samples, measured = builder.passes(rng, measure, outcome, timer, gauge)
    elapsed = time.perf_counter() - started
    # A kernel's figure is the median of its paced builds: pacing takes out
    # the host's slow stretches, which fastest samples did not when a run
    # fell wholly into one.
    common.put_speed(outcome, [statistics.median(values)
                               for values in samples.values() if values])
    outcome.put("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
    common.put_load(outcome, measured, elapsed, TAIL)

    if trace:
        outcome.put("host.gauge_s", statistics.median(gauge.readings), "s")
        tracer = common.Tracer()
        _trace(tracer)
        builder.phase_hits = builder.phase_lookups = 0
        builder.candidates.clear()
        try:
            traced, _ = builder.passes(rng, seconds / 2, outcome, timer,
                                       gauge)
        finally:
            tracer.close()
        builds = len(builder.candidates)
        for layer, span in LAYER_SPANS:
            outcome.put(layer, tracer.total_ms(span) / builds, "ms")
        outcome.put("machine.score_calls",
                    tracer.count("machine.score") / builds, "count")
        outcome.put("backend.cc_calls", tracer.count("backend.cc") / builds,
                    "count")
        outcome.put("pipeline.hit_ratio",
                    builder.phase_hits / max(1, builder.phase_lookups),
                    "ratio")
        outcome.put("slingen.candidates", statistics.mean(builder.candidates),
                    "count")
        both = [spec for spec in common.SUITE
                if traced[spec] and samples[spec]]
        outcome.put("trace.overhead_ms", 1e3 * sum(
            statistics.median(traced[spec])
            - statistics.median(samples[spec]) for spec in both), "ms")

    timer.put(trace, outcome)
    if trace:
        native.measure_openblas(exe, builder.kernels, seed, root, outcome)
