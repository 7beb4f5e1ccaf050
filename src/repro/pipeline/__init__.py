"""The staged generation pipeline: phase artifacts + content-addressed reuse.

The paper's Stage 1/2/3 decomposition is the natural memoization seam:
a tuning sweep varies codegen axes while Stage 1 is unchanged, and a
fuzz or CEGIS campaign re-verifies one program under many option sets.
This package makes each phase an explicitly keyed, cacheable step:

``stage1``  Cl1ck synthesis of the basic program
            (keyed by program, resolved block size, variant choices)
``rewrite`` sound R1 + CEGIS-verified rewrites
            (+ rewrite_rules, verified_rewrites)
``lower``   lowering to C-IR
            (name-free rewritten-program digest, resolved vector
            width, shuffle transpose when read, name, annotate)
``optimize`` the Stage-3 pass pipeline
            (lowered-function digest, unroll axes, effective
            scalar-replacement / load-store)
``score``   the roofline estimate
            (optimize key, machine model, nominal flops)

:mod:`repro.pipeline.keys` owns the option-axis partition (asserted
complete against ``Options`` in tests), :mod:`repro.pipeline.cache` the
thread-safe :class:`PhaseCache` with its optional ``REPRO_PHASE_CACHE``
persistent layer, and :mod:`repro.pipeline.phases` the drivers that
``build_candidate`` chains.  ``python -m repro.pipeline profile`` times
a cold-vs-warm generation and fails on any warm-pass miss.
"""

from .artifacts import (LoweredFunction, OptimizedFunction,
                        RewrittenProgram, Stage1Artifact)
from .cache import (ENV_PHASE_CACHE, PersistentPhaseStore, PhaseCache,
                    PhaseTimings, reset_shared_phase_cache,
                    shared_phase_cache)
from .keys import (PHASE_AXES, PHASE_SCHEMA_VERSION, PHASES, SEARCH_AXES,
                   assert_partition_complete, lower_key, optimize_key,
                   partition, rewrite_key, score_key, stage1_key)

__all__ = [
    "ENV_PHASE_CACHE",
    "LoweredFunction",
    "OptimizedFunction",
    "PersistentPhaseStore",
    "PhaseCache",
    "PhaseTimings",
    "PHASE_AXES",
    "PHASE_SCHEMA_VERSION",
    "PHASES",
    "RewrittenProgram",
    "SEARCH_AXES",
    "Stage1Artifact",
    "assert_partition_complete",
    "lower_key",
    "optimize_key",
    "partition",
    "rewrite_key",
    "reset_shared_phase_cache",
    "score_key",
    "shared_phase_cache",
    "stage1_key",
]
