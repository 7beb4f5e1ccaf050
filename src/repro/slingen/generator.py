"""The SLinGen program generator (paper Sec. 3, Fig. 6).

``SLinGen.generate(program)`` runs the full pipeline:

1. **Stage 1** -- every HLAC is expanded into a loop-based algorithm over
   sBLACs/scalar ops (Cl1ck-style synthesis, algorithm database, variants).
2. **Stage 2** -- rewrite rules R0/R1, statement normalization and tiling
   into nu-BLAC-style vector code, producing C-IR.
3. **Stage 3** -- code-level optimizations (unrolling, scalar replacement,
   the load/store analysis, DCE) and autotuning over algorithmic and
   code-generation variants.

Variant selection is delegated to a pluggable search strategy
(:mod:`repro.tuning.strategies`) scoring candidates with a measurement
backend (:mod:`repro.tuning.measure`).  The default -- no strategy or
measurer given -- is the paper's model-driven two-phase search with the
roofline estimate as the timing oracle, byte-compatible with the historic
hard-coded loop; passing e.g. ``strategy="hill-climb"`` and an empirical
measurer turns the same pipeline into a measurement-driven autotuner.

The result bundles the chosen C-IR kernel, the emitted single-source C code,
the performance estimate, and enough metadata to reproduce the choice.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend.c_unparser import unparse_function
from ..cir.nodes import Function
from ..cir.interpreter import Interpreter
from ..cir.passes import PassOptions, PassReport
from ..errors import AutotuningError
from ..ir.program import Program
from ..lgen.tiling import (CodegenVariant, candidate_variants,
                           dedupe_resolved)
from ..machine.microarch import MicroArchitecture, default_machine
from ..machine.roofline import PerformanceEstimate, analyze_function
from ..pipeline import phases as pipeline_phases
from ..pipeline.cache import PhaseCache, PhaseTimings, shared_phase_cache
from ..pipeline.keys import machine_digest
from .options import Options
from .rewrite import RewriteReport
from .stage1 import (Stage1Result, enumerate_variant_choices,
                     find_hlac_sites)


@dataclass
class Candidate:
    """One fully generated implementation considered by the autotuner."""

    label: str
    stage1: Stage1Result
    codegen: CodegenVariant
    function: Function
    estimate: PerformanceEstimate
    pass_report: PassReport
    rewrite_report: RewriteReport
    #: Key of the Stage-1 artifact this candidate was derived from, and
    #: that artifact's algorithm-database stats (for result metadata).
    stage1_cache_key: str = ""
    database_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.estimate.cycles


@dataclass
class GenerationResult:
    """The pure, picklable output of one SLinGen run.

    This is the artifact the kernel service stores and serves: everything a
    client needs to *use* the generated kernel (C-IR function, emitted C,
    performance estimate, provenance) with no back-reference to the request
    ``Program`` object, so results round-trip through pickle and across
    worker processes.
    """

    program_name: str
    function: Function
    c_code: str
    performance: PerformanceEstimate
    options: Options
    variant_label: str
    candidates: List[Dict[str, object]] = field(default_factory=list)
    database_stats: Dict[str, int] = field(default_factory=dict)
    basic_program: Optional[Program] = None
    pass_report: Optional[PassReport] = None
    rewrite_report: Optional[RewriteReport] = None
    #: Per-phase wall-clock/hit accounting of the generation run that
    #: produced this result (``None`` on results recalled from a store:
    #: a store hit did no phase work, and stored results stay a pure
    #: function of their key).
    phase_stats: Optional[Dict[str, Dict[str, float]]] = None

    def run(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the generated kernel on numpy inputs (via the C-IR
        interpreter)."""
        return Interpreter(self.function).run(inputs)

    def compile_and_run(self, inputs: Dict[str, np.ndarray],
                        cache_key: Optional[str] = None
                        ) -> Dict[str, np.ndarray]:
        """Compile the emitted C with the system compiler and execute it.

        ``cache_key`` (the service's content hash) enables shared-object
        reuse across calls via the backend object cache.
        """
        from ..backend.compile import compile_kernel
        kernel = compile_kernel(self.c_code, self.function,
                                cache_key=cache_key)
        return kernel.run(inputs)

    def run_numpy(self, inputs: Dict[str, np.ndarray],
                  cache_key: Optional[str] = None) -> Dict[str, np.ndarray]:
        """Execute the generated kernel via its NumPy translation -- real
        (fast) execution with no C compiler required."""
        return self.kernel("numpy", cache_key=cache_key).run(inputs)

    def kernel(self, backend: str = "auto",
               cache_key: Optional[str] = None):
        """An executable kernel on the chosen backend.

        ``backend`` is ``"compiled"``, ``"numpy"``, ``"interpreter"``, or
        ``"auto"`` (compiled when a C compiler is available, NumPy
        otherwise); the returned object has the shared
        ``run(inputs)``/``time(inputs, ...)`` contract.  ``cache_key``
        (the service's content hash) enables content-addressed reuse of
        the compiled artifact.
        """
        from ..backend import make_executor
        return make_executor(self.function, backend=backend,
                             c_code=self.c_code, cache_key=cache_key)

    @property
    def flops_per_cycle(self) -> float:
        return self.performance.flops_per_cycle

    def summary(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "program": self.program_name,
            "variant": self.variant_label,
            "cycles": self.performance.cycles,
            "flops_per_cycle": self.performance.flops_per_cycle,
            "bottleneck": self.performance.bottleneck,
            "statements": self.function.statement_count(),
            "candidates_evaluated": len(self.candidates),
        }
        if self.phase_stats is not None:
            doc["phases"] = self.phase_stats
        return doc


@dataclass
class GeneratedCode:
    """The output of one SLinGen run (bound to the request ``Program``)."""

    program: Program
    basic_program: Program
    function: Function
    c_code: str
    performance: PerformanceEstimate
    options: Options
    variant_label: str
    candidates: List[Dict[str, object]] = field(default_factory=list)
    pass_report: Optional[PassReport] = None
    rewrite_report: Optional[RewriteReport] = None
    database_stats: Dict[str, int] = field(default_factory=dict)
    phase_stats: Optional[Dict[str, Dict[str, float]]] = None

    @classmethod
    def from_result(cls, program: Program,
                    result: GenerationResult) -> "GeneratedCode":
        """Re-bind a (possibly cached) pure result to its request program."""
        return cls(
            program=program,
            basic_program=result.basic_program,
            function=result.function,
            c_code=result.c_code,
            performance=result.performance,
            options=result.options,
            variant_label=result.variant_label,
            candidates=result.candidates,
            pass_report=result.pass_report,
            rewrite_report=result.rewrite_report,
            database_stats=result.database_stats,
            phase_stats=result.phase_stats)

    def run(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the generated kernel on numpy inputs (via the C-IR
        interpreter)."""
        return Interpreter(self.function).run(inputs)

    def compile_and_run(self, inputs: Dict[str, np.ndarray]
                        ) -> Dict[str, np.ndarray]:
        """Compile the emitted C with the system compiler and execute it."""
        from ..backend.compile import compile_kernel
        kernel = compile_kernel(self.c_code, self.function)
        return kernel.run(inputs)

    def run_numpy(self, inputs: Dict[str, np.ndarray]
                  ) -> Dict[str, np.ndarray]:
        """Execute the generated kernel via its NumPy translation."""
        return self.kernel("numpy").run(inputs)

    def kernel(self, backend: str = "auto"):
        """An executable kernel on the chosen backend (see
        :meth:`GenerationResult.kernel`)."""
        from ..backend import make_executor
        return make_executor(self.function, backend=backend,
                             c_code=self.c_code)

    @property
    def flops_per_cycle(self) -> float:
        return self.performance.flops_per_cycle

    def summary(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "program": self.program.name,
            "variant": self.variant_label,
            "cycles": self.performance.cycles,
            "flops_per_cycle": self.performance.flops_per_cycle,
            "bottleneck": self.performance.bottleneck,
            "statements": self.function.statement_count(),
            "candidates_evaluated": len(self.candidates),
        }
        if self.phase_stats is not None:
            doc["phases"] = self.phase_stats
        return doc


def build_candidate(program: Program, options: Options,
                    machine: MicroArchitecture,
                    variant_choices: Dict[int, str],
                    codegen: CodegenVariant,
                    block_size: int,
                    nominal_flops: Optional[float],
                    machine_key: str,
                    cache: Optional[PhaseCache] = None,
                    timings: Optional[PhaseTimings] = None,
                    program_text: Optional[str] = None) -> Candidate:
    """Run Stages 1-3 for one (algorithmic, code-generation) variant pair
    and score the result on the machine model.

    This is the single place a candidate implementation is built; the
    generator's search strategies and the standalone empirical tuner both
    call it.  ``block_size`` is the options default; a ``codegen`` with an
    explicit ``block_size`` overrides it for Stage-1 synthesis.
    ``machine_key`` is :func:`~repro.pipeline.keys.machine_digest` of
    ``machine``, and ``program_text``
    :func:`~repro.service.keys.canonical_program` of ``program``, both
    computed once per search.

    The stages run as the five memoized drivers of
    :mod:`repro.pipeline.phases`, each keyed by a digest of what it
    consumes plus exactly the option axes assigned to it
    (:data:`repro.pipeline.keys.PHASE_AXES`): with a ``cache``,
    codegen-only sweeps reuse one Stage-1 build, algorithmic variants
    that synthesize the same basic program share its lowering, passes
    and score, and repeated generations reuse everything.
    """
    analysis = options.analysis
    stage1_art = pipeline_phases.stage1(
        program, codegen.block_size or block_size, variant_choices,
        cache=cache, timings=timings, analysis=analysis,
        program_text=program_text)
    rewritten = pipeline_phases.rewrite(
        stage1_art, options.rewrite_rules, options.verified_rewrites,
        cache=cache, timings=timings, analysis=analysis)
    lowered = pipeline_phases.lower(
        rewritten, codegen.vector_width, codegen.use_shuffle_transpose,
        function_name=options.function_name or f"{program.name}_kernel",
        annotate=options.annotate_code, cache=cache, timings=timings,
        analysis=analysis)
    pass_options = PassOptions(
        unroll=options.unroll,
        max_unroll_trip_count=codegen.unroll_trip_count,
        max_unroll_body=codegen.unroll_body_limit,
        scalar_replacement=(options.scalar_replacement
                            and codegen.scalar_replacement),
        load_store_analysis=(options.load_store_analysis
                             and codegen.load_store_analysis),
        dead_code_elimination=True,
        algebraic_simplification=True)
    optimized = pipeline_phases.optimize(lowered, pass_options,
                                         cache=cache, timings=timings,
                                         analysis=analysis)

    estimate = pipeline_phases.score(
        optimized, machine, machine_key, nominal_flops, analyze_function,
        cache=cache, timings=timings)
    # The candidate's Stage-1 view carries the *rewritten* program (the
    # basic program every later stage consumed), as it always has.
    stage1 = dataclasses_replace(stage1_art.result,
                                 program=rewritten.program)
    label = f"{stage1.label}|{codegen.label}"
    return Candidate(label=label, stage1=stage1, codegen=codegen,
                     function=optimized.function, estimate=estimate,
                     pass_report=optimized.pass_report,
                     rewrite_report=rewritten.report,
                     stage1_cache_key=stage1_art.key,
                     database_stats=stage1_art.database_stats)


class CandidateBuilder:
    """Memoized candidate construction over a variant search space.

    Maps :class:`~repro.tuning.strategies.TuningPoint` coordinates --
    (Stage-1 choice index, codegen variant index) -- to fully built
    :class:`Candidate` implementations, building each point at most once
    and recording build order for the result metadata.

    The builder is thread-safe: the memo, build list, and timing
    accumulator are guarded by one lock, so the threaded service's
    coalesced-miss path (or any caller scoring points from several
    threads) still builds each point exactly once.  Shared Stage-1 work
    lives in the (itself thread-safe) ``phase_cache``; each phase builds
    with private state, so there is no cross-candidate mutable
    algorithm database left to race on.
    """

    def __init__(self, program: Program, options: Options,
                 machine: MicroArchitecture,
                 stage1_choices: List[Dict[int, str]],
                 codegen_variants: List[CodegenVariant],
                 nominal_flops: Optional[float] = None,
                 phase_cache: Optional[PhaseCache] = None,
                 timings: Optional[PhaseTimings] = None):
        if not stage1_choices or not codegen_variants:
            raise AutotuningError("empty variant space")
        self.program = program
        self.options = options
        self.machine = machine
        self.stage1_choices = stage1_choices
        self.codegen_variants = codegen_variants
        self.nominal_flops = nominal_flops
        self.phase_cache = (phase_cache if phase_cache is not None
                            else shared_phase_cache())
        self.timings = timings if timings is not None else PhaseTimings()
        self.block_size = options.effective_block_size
        self.machine_key = machine_digest(machine)
        from ..service.keys import canonical_program
        self.program_text = canonical_program(program)
        self.built: List[Candidate] = []
        self._memo: Dict[Tuple[int, int], Candidate] = {}
        self._lock = threading.Lock()

    def space(self):
        """The joint search space strategies walk."""
        from ..tuning.strategies import SearchSpace
        return SearchSpace(len(self.stage1_choices), self.codegen_variants)

    def candidate(self, point) -> Candidate:
        """The candidate at ``point`` (built on first request)."""
        key = (point.stage1, point.codegen)
        # The lock is held across the build: concurrent requests for the
        # same point coalesce into one build, and `built` keeps exact
        # build order.  Builds are pure CPU work with no reentry into
        # the builder, so holding the lock cannot deadlock.
        with self._lock:
            found = self._memo.get(key)
            if found is None:
                found = build_candidate(
                    self.program, self.options, self.machine,
                    self.stage1_choices[point.stage1],
                    self.codegen_variants[point.codegen],
                    self.block_size, self.nominal_flops, self.machine_key,
                    cache=self.phase_cache, timings=self.timings,
                    program_text=self.program_text)
                self._memo[key] = found
                self.built.append(found)
        return found

    def database_stats(self) -> Dict[str, int]:
        """Algorithm-database stats rolled up over the distinct Stage-1
        artifacts the built candidates consumed (identical whether the
        artifacts were freshly synthesized or phase-cache hits)."""
        with self._lock:
            per_stage1 = {c.stage1_cache_key: c.database_stats
                          for c in self.built}
        return pipeline_phases.aggregate_database_stats(per_stage1)


class SLinGen:
    """Program generator for small-scale linear algebra applications."""

    def __init__(self, options: Optional[Options] = None,
                 machine: Optional[MicroArchitecture] = None,
                 store: Optional[object] = None,
                 strategy: Optional[object] = None,
                 measurer: Optional[object] = None,
                 phase_cache: Optional[PhaseCache] = None):
        """``store`` (a :class:`repro.service.store.KernelStore`) makes the
        generator consult and populate the persistent kernel cache on every
        ``generate``/``generate_result`` call.

        ``strategy`` (a :class:`~repro.tuning.strategies.SearchStrategy` or
        its name) and ``measurer`` (a :class:`~repro.tuning.measure.Measurer`
        or backend name) customize how ``autotune=True`` explores the
        variant space.  Both default to the paper's model-driven two-phase
        search -- keys and results for unchanged requests stay stable.

        ``phase_cache`` (a :class:`~repro.pipeline.cache.PhaseCache`)
        memoizes Stage-1/rewrite/lowering/pass artifacts and roofline
        scores across variants and across calls; ``None`` uses the
        shared process-wide cache
        (:func:`~repro.pipeline.cache.shared_phase_cache`).  Phase
        artifacts are pure functions of their keys, so the cache changes
        generation cost, never generated code."""
        self.options = options or Options()
        self.machine = machine or default_machine()
        self.store = store
        self.strategy = strategy
        self.measurer = measurer
        self.phase_cache = phase_cache

    # -- public API -------------------------------------------------------------

    def generate(self, program: Program,
                 nominal_flops: Optional[float] = None) -> GeneratedCode:
        """Generate optimized code for an LA program.

        Thin wrapper over the canonical :meth:`generate_result` path: it
        runs exactly that and re-binds the pure result to ``program``
        as a :class:`GeneratedCode`.
        """
        result = self.generate_result(program, nominal_flops=nominal_flops)
        return GeneratedCode.from_result(program, result)

    def generate_result(self, program: Program,
                        nominal_flops: Optional[float] = None
                        ) -> GenerationResult:
        """Generate code for an LA program, returning the pure
        :class:`GenerationResult` (no reference back to ``program``).

        This is **the** canonical generation path: :meth:`generate` and
        the module-level :func:`generate` are thin wrappers over it, and
        it is the path the kernel service calls.  The result pickles
        cleanly, so it can cross process boundaries and live in the
        persistent store.  When the generator was constructed with a
        ``store``, the store is consulted first and populated on a miss.
        """
        program.validate()
        self.options.validate()

        key: Optional[str] = None
        # The cache key covers (program, options, machine) only: a custom
        # strategy or measurer changes which kernel wins without changing
        # the key, so such generators bypass the store entirely -- a stored
        # result must stay a pure function of its key.  (The empirical
        # tuner persists its winners through the TuningDB as pinned
        # *options*, which do participate in the key.)
        if self.store is not None and self.strategy is None \
                and self.measurer is None:
            from ..service.keys import cache_key
            key = cache_key(program, self.options, self.machine,
                            nominal_flops=nominal_flops)
            cached = self.store.get(key)
            if cached is not None:
                return cached

        result = self._generate_uncached(program, nominal_flops)
        if self.store is not None and key is not None:
            # Stored results are a pure function of their key; the phase
            # timings are wall-clock measurements of *this* run, so they
            # stay out of the persisted artifact.
            self.store.put(key, dataclasses_replace(result,
                                                    phase_stats=None))
        return result

    def _generate_uncached(self, program: Program,
                           nominal_flops: Optional[float]) -> GenerationResult:
        from ..tuning.strategies import make_strategy

        options = self.options
        block_size = options.effective_block_size
        sites = find_hlac_sites(program, block_size)

        if options.stage1_variants is not None:
            stage1_choices = [dict(options.stage1_variants)]
        elif options.autotune:
            stage1_choices = enumerate_variant_choices(
                sites, max_candidates=max(1, options.max_variants))
        else:
            stage1_choices = [{}]

        if options.autotune:
            codegen_variants = dedupe_resolved(
                candidate_variants(vectorize=options.vectorize),
                block_size)[:max(1, options.max_variants)]
        else:
            codegen_variants = [CodegenVariant(
                vector_width=options.effective_vector_width,
                unroll_trip_count=options.unroll_trip_count,
                unroll_body_limit=options.unroll_body_limit,
                use_shuffle_transpose=options.use_shuffle_transpose,
                load_store_analysis=options.load_store_analysis,
                block_size=options.block_size,
                scalar_replacement=options.scalar_replacement)]

        builder = CandidateBuilder(
            program, options, self.machine, stage1_choices, codegen_variants,
            nominal_flops=nominal_flops, phase_cache=self.phase_cache)
        strategy = make_strategy(self.strategy or "two-phase")
        scores: Dict[str, float] = {}

        measurer = None
        measure_inputs: Dict[str, object] = {}
        if self.measurer is not None:
            from ..tuning.measure import resolve_measurer
            measurer = resolve_measurer(self.measurer, machine=self.machine)

        def evaluate(point) -> float:
            candidate = builder.candidate(point)
            if measurer is None:
                score = candidate.cycles
            else:
                from ..tuning.measure import score_function
                score, _, _ = score_function(measurer, candidate.function,
                                             candidate.estimate,
                                             measure_inputs)
            scores[candidate.label] = score
            return score

        outcome = strategy.search(builder.space(), evaluate,
                                  budget=max(1, options.max_variants))
        if measurer is not None and not math.isfinite(outcome.best_score):
            raise AutotuningError(
                f"every candidate of {program.name!r} failed to measure "
                f"on the {measurer.name!r} backend")
        best = builder.candidate(outcome.best)

        c_code = unparse_function(best.function)
        return GenerationResult(
            program_name=program.name,
            basic_program=best.stage1.program,
            function=best.function,
            c_code=c_code,
            performance=best.estimate,
            options=options,
            variant_label=best.label,
            candidates=[{
                "label": c.label,
                "cycles": c.cycles,
                "flops_per_cycle": c.estimate.flops_per_cycle,
                "bottleneck": c.estimate.bottleneck,
                "score": scores.get(c.label),
            } for c in builder.built],
            database_stats=builder.database_stats(),
            pass_report=best.pass_report,
            rewrite_report=best.rewrite_report,
            phase_stats=builder.timings.as_dict(),
        )



def generate(program: Program, options: Optional[Options] = None,
             nominal_flops: Optional[float] = None) -> GeneratedCode:
    """Module-level convenience wrapper over the one canonical generation
    path, ``SLinGen.generate_result``: equivalent to
    ``SLinGen(options).generate(program)``."""
    return SLinGen(options).generate(program, nominal_flops=nominal_flops)
