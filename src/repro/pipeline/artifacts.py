"""Typed artifacts of the staged generation pipeline.

Each artifact is the pure output of one phase, stamped with its own
content key.  An artifact names no parent: lowering and optimization are
keyed by what they consume, so one artifact can serve several parents.
:class:`RewrittenProgram` and :class:`LoweredFunction` carry the digest
of their IR, computed once when they are built, which keys the next
phase.  The score phase caches the roofline
:class:`~repro.machine.roofline.PerformanceEstimate` itself; the fully
built :class:`~repro.slingen.generator.Candidate` that binds an
optimized function to its estimate stays in the generator.

Artifacts are plain picklable dataclasses (the persistent
``REPRO_PHASE_CACHE`` layer stores them as pickles).  They are
immutable by contract: the :class:`~repro.pipeline.cache.PhaseCache`
hands out the canonical shared object, and later phases share its IR
rather than copy it.  The two in-place stages only rebind containers
(``apply_rewrite_rules`` rebinds ``program.statements``,
``run_pipeline`` rebinds ``function.body``), so the drivers hand them a
fresh program/function shell around the shared statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..cir.nodes import Function
from ..cir.passes import PassReport
from ..ir.program import Program
from ..lgen.compiler import CompileStats
from ..slingen.rewrite import RewriteReport
from ..slingen.stage1 import Stage1Result


@dataclass
class Stage1Artifact:
    """One Stage-1 synthesis: the basic program plus provenance.

    Built with a *fresh* algorithm database so the artifact (temp names
    included) is a pure function of its key; ``database_stats`` records
    that database's hit/synthesis counts for result metadata.
    """

    key: str
    result: Stage1Result
    database_stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class RewrittenProgram:
    """The basic program after sound R0/R1 and CEGIS-verified rewrites.

    ``digest`` is :func:`~repro.pipeline.keys.program_digest` of
    ``program``, which keys lowering.
    """

    key: str
    digest: str
    program: Program
    report: RewriteReport = field(default_factory=RewriteReport)


@dataclass
class LoweredFunction:
    """The C-IR function straight out of lowering, before Stage-3 passes.

    ``digest`` is :func:`~repro.pipeline.keys.function_digest` of
    ``function``, which keys the pass pipeline.
    """

    key: str
    digest: str
    function: Function
    stats: CompileStats = field(default_factory=CompileStats)


@dataclass
class OptimizedFunction:
    """The C-IR function after the Stage-3 pass pipeline."""

    key: str
    function: Function
    pass_report: PassReport = field(default_factory=PassReport)
