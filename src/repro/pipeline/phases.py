"""Phase drivers: the Stage 1-3 pipeline and its score as five
memoizable steps.

Each driver computes its artifact's content key, consults the
:class:`~repro.pipeline.cache.PhaseCache` (when given one), and builds
the artifact only on a miss -- recording wall-clock and hit/miss into a
:class:`~repro.pipeline.cache.PhaseTimings`.  The drivers are *pure*:
the artifact a driver returns is fully determined by its key.  Lowering
is keyed by the digest of the program it consumes (not by how it was
produced), so algorithmic variants that reach the same basic program
share everything downstream of it; optimization is keyed by the
lowering's key, which determines the lowered function.  Two details make
purity true:

* Stage 1 synthesizes with a **fresh** algorithm database per call, so
  temporary naming never depends on what other variants were built
  first (the old shared-database builder numbered temps across
  candidates in build order -- order-dependent output that a
  content-addressed cache cannot tolerate).
* Later phases share their input's IR instead of copying it.  The only
  in-place steps rebind containers -- ``apply_rule_r1`` rebinds
  ``program.statements`` and declares new operands, ``run_pipeline``
  rebinds ``function.body`` -- so the rewrite and optimize drivers hand
  them a fresh shell (new containers around the cached statements,
  operands and buffers).  Everything inside is shared and never mutated:
  LA statements are rebuilt rather than edited, C-IR expressions and
  statements are frozen, and every C-IR pass returns new statement lists.

Every IR driver takes an ``analysis`` gate mode (``Options.analysis``):
on a cache miss the freshly built artifact is handed to
:func:`repro.analysis.gate_artifact` *before* ``cache.put``, so under
``strict`` an ill-formed program/function raises
:class:`~repro.errors.AnalysisError` and never reaches the phase cache,
the kernel store, or a client.  Cache hits are not re-verified: an
artifact in the cache either passed the gate or was admitted with the
gate off.

``build_candidate`` in :mod:`repro.slingen.generator` chains the five
drivers and is the only intended caller; the drivers are exposed for
tests and the ``python -m repro.pipeline profile`` CLI.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional, Sequence

from ..cir.nodes import Function
from ..cir.passes import PassOptions, run_pipeline, unroll_plan
from ..cl1ck.database import AlgorithmDatabase
from ..errors import ConfigurationError
from ..ir.program import Program
from ..lgen.compiler import lower_program_with_shuffle_use
from ..lgen.lowering import LoweringOptions
from ..machine.microarch import MicroArchitecture
from ..machine.roofline import PerformanceEstimate
from ..slingen.rewrite import RewriteReport, apply_rule_r1
from ..slingen.stage1 import synthesize_basic_program
from .artifacts import (LoweredFunction, OptimizedFunction,
                        RewrittenProgram, Stage1Artifact)
from .cache import PhaseCache, PhaseTimings
from .keys import (lower_key, optimize_key, program_digest, rewrite_key,
                   score_key, stage1_key)


def _finish(timings: Optional[PhaseTimings], phase: str, started: float,
            hit: bool) -> None:
    if timings is not None:
        timings.record(phase, time.perf_counter() - started, hit)


def _gate(phase: str, artifact, analysis: str) -> None:
    if analysis != "off":
        from ..analysis import gate_artifact
        gate_artifact(phase, artifact, analysis)


def stage1(program: Program, block_size: int,
           variant_choices: Mapping[int, str],
           cache: Optional[PhaseCache] = None,
           timings: Optional[PhaseTimings] = None,
           analysis: str = "off",
           program_text: Optional[str] = None) -> Stage1Artifact:
    """Synthesize (or recall) the basic program for one variant choice;
    ``program_text`` as for :func:`~repro.pipeline.keys.stage1_key`."""
    started = time.perf_counter()
    key = stage1_key(program, block_size, variant_choices, program_text)
    artifact = cache.get("stage1", key) if cache is not None else None
    if artifact is not None:
        _finish(timings, "stage1", started, hit=True)
        return artifact
    database = AlgorithmDatabase()
    result = synthesize_basic_program(
        program, block_size, dict(variant_choices), database,
        label=f"v{len(variant_choices)}")
    artifact = Stage1Artifact(key=key, result=result,
                              database_stats=database.stats())
    _gate("stage1", result.program, analysis)
    if cache is not None:
        cache.put("stage1", key, artifact)
    _finish(timings, "stage1", started, hit=False)
    return artifact


def rewrite(stage1_artifact: Stage1Artifact, rewrite_rules: bool,
            verified_rewrites: Sequence[str],
            cache: Optional[PhaseCache] = None,
            timings: Optional[PhaseTimings] = None,
            analysis: str = "off") -> RewrittenProgram:
    """Apply the sound R1 rule and any CEGIS-verified rewrites."""
    started = time.perf_counter()
    key = rewrite_key(stage1_artifact.key, rewrite_rules, verified_rewrites)
    artifact = cache.get("rewrite", key) if cache is not None else None
    if artifact is not None:
        _finish(timings, "rewrite", started, hit=True)
        return artifact
    basic = stage1_artifact.result.program
    program = Program(basic.name, dict(basic.operands),
                      list(basic.statements), dict(basic.constants))
    report = RewriteReport()
    if rewrite_rules:
        report = apply_rule_r1(program)
    if verified_rewrites:
        # CEGIS-verified unsound rewrites run after the sound R1
        # rule, on the same basic program every later stage consumes.
        from ..cegis.rewrites import apply_sequence
        program = apply_sequence(verified_rewrites, program)
    artifact = RewrittenProgram(key=key, digest=program_digest(program),
                                program=program, report=report)
    _gate("rewrite", program, analysis)
    if cache is not None:
        cache.put("rewrite", key, artifact)
    _finish(timings, "rewrite", started, hit=False)
    return artifact


def lower(rewritten: RewrittenProgram, vector_width: int,
          use_shuffle_transpose: bool, function_name: str, annotate: bool,
          cache: Optional[PhaseCache] = None,
          timings: Optional[PhaseTimings] = None,
          analysis: str = "off") -> LoweredFunction:
    """Lower the rewritten basic program to a C-IR function.

    ``function_name`` must be non-empty: the key leaves out the
    program's name, so lowering must never fall back to it.  A lowering
    that reached no decision ``use_shuffle_transpose`` steers is filed
    under both values of the flag as one artifact, which records the key
    it was built under (and which keys its optimization).
    """
    if not function_name:
        raise ConfigurationError("lowering needs a non-empty function_name")
    started = time.perf_counter()
    key = lower_key(rewritten.digest, vector_width, use_shuffle_transpose,
                    function_name, annotate)
    artifact = cache.get("lower", key) if cache is not None else None
    if artifact is not None:
        _finish(timings, "lower", started, hit=True)
        return artifact
    options = LoweringOptions(vector_width=vector_width,
                              use_shuffle_transpose=use_shuffle_transpose)
    function, read_shuffle = lower_program_with_shuffle_use(
        rewritten.program, options, function_name=function_name,
        annotate=annotate)
    artifact = LoweredFunction(key=key, function=function)
    _gate("lower", function, analysis)
    if cache is not None:
        cache.put("lower", key, artifact)
        if not read_shuffle:
            cache.put("lower", lower_key(
                rewritten.digest, vector_width, not use_shuffle_transpose,
                function_name, annotate), artifact)
    _finish(timings, "lower", started, hit=False)
    return artifact


def optimize(lowered: LoweredFunction, pass_options: PassOptions,
             cache: Optional[PhaseCache] = None,
             timings: Optional[PhaseTimings] = None,
             analysis: str = "off") -> OptimizedFunction:
    """Run the Stage-3 pass pipeline on a fresh shell of the function.

    The shell has its own parameter and temporary lists and shares the
    lowered body, which the passes read but never mutate; the pipeline
    then binds the optimized body to the shell.  The key holds the
    unroll plan, not the thresholds, and the pipeline applies that same
    plan, so unroll thresholds that decide alike share one artifact.
    """
    started = time.perf_counter()
    source = lowered.function
    plan = (unroll_plan(source.body, pass_options.max_unroll_trip_count,
                        pass_options.max_unroll_body)
            if pass_options.unroll else None)
    key = optimize_key(lowered.key, plan,
                       pass_options.scalar_replacement,
                       pass_options.load_store_analysis)
    artifact = cache.get("optimize", key) if cache is not None else None
    if artifact is not None:
        _finish(timings, "optimize", started, hit=True)
        return artifact
    function = Function(source.name, list(source.params),
                        list(source.temps), source.body,
                        source.vector_width)
    report = run_pipeline(function, pass_options, plan)
    artifact = OptimizedFunction(key=key, function=function,
                                 pass_report=report)
    _gate("optimize", function, analysis)
    if cache is not None:
        cache.put("optimize", key, artifact)
    _finish(timings, "optimize", started, hit=False)
    return artifact


def score(optimized: OptimizedFunction, machine: MicroArchitecture,
          machine_key: str, nominal_flops: Optional[float],
          analyze: Callable[..., PerformanceEstimate],
          cache: Optional[PhaseCache] = None,
          timings: Optional[PhaseTimings] = None) -> PerformanceEstimate:
    """The roofline estimate of the optimized function on ``machine``.

    ``machine_key`` is :func:`~repro.pipeline.keys.machine_digest` of
    ``machine``, which callers compute once per search.  On a miss the
    estimate comes from ``analyze(function, machine=, nominal_flops=)``;
    the caller passes the analysis in so that traces of the generator's
    ``analyze_function`` still see every scoring.  The estimate is
    shared like any artifact: treat it as immutable.
    """
    started = time.perf_counter()
    key = score_key(optimized.key, machine_key, nominal_flops)
    estimate = cache.get("score", key) if cache is not None else None
    if estimate is not None:
        _finish(timings, "score", started, hit=True)
        return estimate
    estimate = analyze(optimized.function, machine=machine,
                       nominal_flops=nominal_flops)
    if cache is not None:
        cache.put("score", key, estimate)
    _finish(timings, "score", started, hit=False)
    return estimate


def aggregate_database_stats(
        per_stage1: Mapping[str, Mapping[str, int]]) -> Dict[str, int]:
    """Combine per-Stage-1-artifact algorithm-database stats.

    The staged pipeline gives every Stage-1 synthesis its own database
    (purity requires it); result metadata still wants one roll-up, and
    summing over *distinct* Stage-1 artifacts keeps the roll-up a pure
    function of which artifacts a generation consumed -- identical on
    cold and warm runs.
    """
    total: Dict[str, int] = {"signatures": 0, "cached_expansions": 0,
                             "hits": 0, "syntheses": 0}
    for stats in per_stage1.values():
        for name in total:
            total[name] += int(stats.get(name, 0))
    return total
