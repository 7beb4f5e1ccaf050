"""Phase-cache hot-path benchmark: the tuning sweep, cold vs. warm.

The staged pipeline content-addresses every phase artifact (Stage-1
synthesis, rewrites, lowering, the pass pipeline, the roofline score),
keying lowering, passes and score by what each consumes, so a
codegen-axis sweep shares everything the variants do not change.  This benchmark
drives an exhaustive sweep over one Stage-1 choice and a fixed set of
codegen variants (none of which overrides the blocking factor, so all
of them share one Stage-1 artifact) twice against one
:class:`~repro.pipeline.cache.PhaseCache`:

* **cold** -- every artifact is built; Stage 1 must synthesize exactly
  once for the whole sweep (the cross-variant reuse the pipeline API
  exists for),
* **warm** -- a second builder over the same cache; every phase must
  hit.

Asserts the warm sweep is at least 5x cheaper than the cold one, that
the cold sweep misses Stage 1 exactly once, that it misses lowering once
per distinct lowered function (the variants' lowerings, told apart by
:func:`~repro.pipeline.keys.function_digest`), and that it misses the
optimize and score phases once per distinct input of the pass pipeline:
a (lowered function, unrolled body, scalar replacement, load/store
analysis) tuple, counted here by running ``unroll_loops`` directly
rather than through the unroll plan the optimize key holds.  Then it
writes ``results/generation_hotpath.txt``.  Run with::

    python benchmarks/bench_generation_hotpath.py
"""

import os
import sys
import time

from _bootstrap import ensure_repro_importable

REPO_ROOT = ensure_repro_importable()

#: The profiled workload (the same one CI's pipeline-smoke job uses).
SPEC = "potrf:8"

#: Minimum cold/warm cost ratio; generous against the >100x measured so
#: CI noise does not flap the job.
MIN_SPEEDUP = 5.0


def _codegen_variants():
    """An exhaustive >= 8-variant sweep that never overrides the Stage-1
    blocking factor -- every variant shares one Stage-1 artifact."""
    from dataclasses import replace

    from repro.lgen.tiling import CodegenVariant

    base = CodegenVariant(vector_width=4)
    variants = [
        base,
        replace(base, unroll_trip_count=4, unroll_body_limit=32),
        replace(base, unroll_trip_count=16, unroll_body_limit=128),
        replace(base, use_shuffle_transpose=False),
        replace(base, scalar_replacement=False),
        replace(base, load_store_analysis=False),
        replace(base, unroll_trip_count=4, unroll_body_limit=32,
                scalar_replacement=False),
        replace(base, use_shuffle_transpose=False,
                load_store_analysis=False),
    ]
    assert all(v.block_size is None for v in variants)
    return variants


def _distinct_inputs(case, options, variants):
    """How many distinct functions the variants lower to, and how many
    distinct (lowered digest, unrolled-body digest, sr, lsa) tuples they
    hand the pass pipeline."""
    from repro.cir.nodes import Function
    from repro.cir.passes import simplify, unroll_loops
    from repro.pipeline import phases
    from repro.pipeline.keys import function_digest

    rewritten = phases.rewrite(
        phases.stage1(case.program, options.effective_block_size, {}),
        options.rewrite_rules, options.verified_rewrites)
    functions, inputs = set(), set()
    for variant in variants:
        lowered = phases.lower(
            rewritten, variant.vector_width, variant.use_shuffle_transpose,
            options.function_name or f"{case.program.name}_kernel",
            options.annotate_code)
        function = lowered.function
        functions.add(function_digest(function))
        body = simplify(function.body)
        if options.unroll:
            body = unroll_loops(body, variant.unroll_trip_count,
                                variant.unroll_body_limit)
        unrolled = function_digest(Function(
            function.name, function.params, function.temps, body,
            function.vector_width))
        inputs.add((lowered.digest, unrolled,
                    options.scalar_replacement and variant.scalar_replacement,
                    options.load_store_analysis
                    and variant.load_store_analysis))
    return len(functions), len(inputs)


def _sweep(builder) -> float:
    started = time.perf_counter()
    for point in builder.space().points():
        builder.candidate(point)
    return time.perf_counter() - started


def run(write_results: bool = True) -> int:
    from repro.machine.microarch import default_machine
    from repro.pipeline.cache import PhaseCache
    from repro.service.registry import build_case, parse_spec
    from repro.slingen.generator import CandidateBuilder
    from repro.slingen.options import Options

    case = build_case(parse_spec(SPEC))
    options = Options(vectorize=True, annotate_code=False)
    machine = default_machine()
    variants = _codegen_variants()

    cache = PhaseCache()
    cold_builder = CandidateBuilder(case.program, options, machine,
                                    [{}], variants,
                                    nominal_flops=case.nominal_flops,
                                    phase_cache=cache)
    cold_s = _sweep(cold_builder)
    cold_stats = cache.stats()["phases"]

    cache.reset_stats()
    warm_builder = CandidateBuilder(case.program, options, machine,
                                    [{}], variants,
                                    nominal_flops=case.nominal_flops,
                                    phase_cache=cache)
    warm_s = _sweep(warm_builder)
    warm_stats = cache.stats()["phases"]

    speedup = cold_s / max(warm_s, 1e-9)
    lowerings, distinct = _distinct_inputs(case, options, variants)
    lines = [
        f"# Phase-cache hot path: exhaustive {len(variants)}-variant "
        f"codegen sweep on {SPEC}",
        "# cold = fresh cache (every artifact built); warm = same cache,",
        "# new builder (every phase must hit).",
        "",
        f"{'pass':6s} {'wall (ms)':>10s}  "
        f"{'stage1 miss':>11s} {'rewrite miss':>12s} "
        f"{'lower miss':>10s} {'optimize miss':>13s} "
        f"{'score miss':>10s}",
    ]
    for name, seconds, stats in (("cold", cold_s, cold_stats),
                                 ("warm", warm_s, warm_stats)):
        lines.append(
            f"{name:6s} {seconds * 1e3:10.1f}  "
            f"{stats['stage1']['misses']:>11d} "
            f"{stats['rewrite']['misses']:>12d} "
            f"{stats['lower']['misses']:>10d} "
            f"{stats['optimize']['misses']:>13d} "
            f"{stats['score']['misses']:>10d}")
    lines.append("")
    lines.append(f"distinct lowered functions: {lowerings} "
                 f"(assert == cold lower misses)")
    lines.append(f"distinct pass-pipeline inputs: {distinct} "
                 f"(assert == cold optimize and score misses)")
    lines.append(f"warm speedup: {speedup:.1f}x (assert >= "
                 f"{MIN_SPEEDUP:.0f}x)")

    failures = []
    if cold_stats["stage1"]["misses"] != 1:
        failures.append(
            f"FAIL: cold sweep built Stage 1 "
            f"{cold_stats['stage1']['misses']} times (expected exactly 1 "
            f"across {len(variants)} variants)")
    if cold_stats["lower"]["misses"] != lowerings:
        failures.append(
            f"FAIL: cold sweep missed lower "
            f"{cold_stats['lower']['misses']} times (expected {lowerings}, "
            f"once per distinct lowered function)")
    for phase in ("optimize", "score"):
        if cold_stats[phase]["misses"] != distinct:
            failures.append(
                f"FAIL: cold sweep missed {phase} "
                f"{cold_stats[phase]['misses']} times (expected {distinct}, "
                f"once per distinct pass-pipeline input)")
    warm_misses = sum(stats["misses"] for stats in warm_stats.values())
    if warm_misses:
        failures.append(f"FAIL: warm sweep missed the phase cache "
                        f"{warm_misses} time(s) (expected 0)")
    if speedup < MIN_SPEEDUP:
        failures.append(f"FAIL: warm sweep only {speedup:.1f}x cheaper "
                        f"(expected >= {MIN_SPEEDUP:.0f}x)")
    lines.extend(failures)
    lines.append("FAIL" if failures else "OK")

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if write_results and not failures:
        path = os.path.join(REPO_ROOT, "results", "generation_hotpath.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {os.path.relpath(path, REPO_ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
