"""C-IR optimization passes (Stage 3 of SLinGen).

The default pipeline mirrors the paper's code-level optimizations:

1. loop unrolling of small innermost loops,
2. scalar replacement / redundant-load elimination,
3. the domain-specific load/store analysis (store->load forwarding via
   register blends/shuffles),
4. algebraic simplification,
5. dead code elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..nodes import Function
from .cse import eliminate_redundant_loads
from .dce import eliminate_dead_code
from .loadstore import LoadStoreStats, forward_stores_to_loads
from .simplify import simplify
from .unroll import apply_unroll_plan, unroll_loops, unroll_plan


@dataclass
class PassOptions:
    """Configuration of the Stage-3 pass pipeline."""

    unroll: bool = True
    max_unroll_trip_count: int = 8
    max_unroll_body: int = 64
    scalar_replacement: bool = True
    load_store_analysis: bool = True
    dead_code_elimination: bool = True
    algebraic_simplification: bool = True


@dataclass
class PassReport:
    """What the pipeline did (consumed by tests and the ablation benches;
    docs/pipeline.md, Stage 3, walks through the passes)."""

    load_store: LoadStoreStats = field(default_factory=LoadStoreStats)
    statements_before: int = 0
    statements_after: int = 0


def run_pipeline(function: Function,
                 options: Optional[PassOptions] = None,
                 plan: Optional[Sequence[bool]] = None) -> PassReport:
    """Run the Stage-3 pass pipeline on ``function`` in place.

    ``plan`` is the :func:`unroll_plan` to apply when ``options.unroll``
    is on; by default it is made from ``options``' thresholds.
    """
    options = options or PassOptions()
    report = PassReport()
    report.statements_before = function.statement_count()

    body = function.body
    if options.algebraic_simplification:
        body = simplify(body)
    if options.unroll:
        if plan is None:
            plan = unroll_plan(body, options.max_unroll_trip_count,
                               options.max_unroll_body)
        body = apply_unroll_plan(body, plan)
    if options.scalar_replacement:
        body = eliminate_redundant_loads(body)
    if options.load_store_analysis:
        body, report.load_store = forward_stores_to_loads(body)
    if options.algebraic_simplification:
        body = simplify(body)
    if options.dead_code_elimination:
        body = eliminate_dead_code(body)

    function.body = body
    report.statements_after = function.statement_count()
    return report


__all__ = [
    "PassOptions", "PassReport", "run_pipeline", "unroll_loops",
    "unroll_plan", "apply_unroll_plan", "simplify",
    "eliminate_redundant_loads", "eliminate_dead_code",
    "forward_stores_to_loads", "LoadStoreStats",
]
