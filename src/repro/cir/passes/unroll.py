"""Loop unrolling pass.

SLinGen unrolls the innermost loops produced by the sBLAC tiling (paper
Sec. 3.3, "code-level optimizations ... such as loop unrolling and scalar
replacement").  Unrolling is what exposes the straight-line store/load
sequences that the Stage-3 load/store analysis turns into register
shuffles/blends.

The pass replaces any ``For`` whose trip count does not exceed a threshold
by its unrolled body, substituting the induction variable with its constant
value in every affine index.

The decisions are made first, by :func:`unroll_plan`, as a tuple with one
unroll/keep flag per loop; :func:`apply_unroll_plan` then rewrites the
body, rebuilding each emitted statement once with the values of all the
unrolled loops around it.  The plan is a structural walk that reads no
expressions, so the optimize phase keys its cache by it: threshold pairs
that unroll a function alike share one pass pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ...errors import CIRError
from ..nodes import CStmt, For, If
from ..transform import substitute_indices


def unroll_plan(stmts: List[CStmt], max_trip_count: int = 8,
                max_body_statements: int = 64) -> Tuple[bool, ...]:
    """The decisions :func:`unroll_loops` makes on ``simplify(stmts)``:
    unroll (``True``) or keep (``False``) for each loop that survives,
    inner loops before the loop around them.

    The walk drops what :func:`~repro.cir.passes.simplify.simplify`
    drops -- a ``For`` with no iterations or an empty body, an ``If``
    with both bodies empty -- so the plan of a lowered body equals the
    plan of its simplified body.  An unrolled loop counts ``trip *
    len(body)`` statements toward the loop around it; a kept loop and an
    ``If`` count one.

    Parameters
    ----------
    max_trip_count:
        Loops with more iterations than this are kept.
    max_body_statements:
        Safety valve: loops whose unrolled size would exceed this many
        statements are kept even if the trip count is small.
    """
    plan: List[bool] = []

    def size(block: List[CStmt]) -> int:
        # Statements ``block`` holds after simplify and unrolling.  A
        # dropped statement adds no decision: a zero-trip loop is skipped
        # before its body is walked, and an empty body added none.
        count = 0
        for stmt in block:
            if isinstance(stmt, For):
                trip = stmt.trip_count
                if trip <= 0:
                    continue
                body = size(stmt.body)
                if not body:
                    continue
                unrolled = (trip <= max_trip_count
                            and trip * body <= max_body_statements)
                plan.append(unrolled)
                count += trip * body if unrolled else 1
            elif isinstance(stmt, If):
                if size(stmt.then_body) + size(stmt.else_body):
                    count += 1
            else:
                count += 1
        return count

    size(stmts)
    return tuple(plan)


def apply_unroll_plan(stmts: List[CStmt], plan: Sequence[bool]) -> List[CStmt]:
    """Unroll the loops ``plan`` marks, keeping the others.

    Loops and branches :func:`unroll_plan` drops are dropped here too, so
    a plan lines up with the body it was made from and with that body
    simplified.  Raises :class:`~repro.errors.CIRError` when the plan has
    more or fewer decisions than the body has loops.
    """
    decisions = iter(plan)

    def decide(block: List[CStmt]) -> List[tuple]:
        # The statements of ``block`` that survive, each loop with its
        # decision and each loop or branch with its decided bodies.
        kept: List[tuple] = []
        for stmt in block:
            if isinstance(stmt, For):
                if stmt.trip_count <= 0:
                    continue
                body = decide(stmt.body)
                if not body:
                    continue
                unrolled = next(decisions, None)
                if unrolled is None:
                    raise CIRError("unroll plan is shorter than the loops")
                kept.append((stmt, unrolled, body))
            elif isinstance(stmt, If):
                then_body = decide(stmt.then_body)
                else_body = decide(stmt.else_body)
                if then_body or else_body:
                    kept.append((stmt, then_body, else_body))
            else:
                kept.append((stmt,))
        return kept

    def emit(kept: List[tuple], bindings: Dict[str, int]) -> List[CStmt]:
        # ``bindings`` holds the value of every enclosing unrolled loop's
        # variable, so each emitted statement is rebuilt once.
        result: List[CStmt] = []
        for entry in kept:
            stmt = entry[0]
            if isinstance(stmt, For):
                _, unrolled, body = entry
                if unrolled:
                    for value in stmt.iterations():
                        result.extend(emit(body, {**bindings,
                                                  stmt.var: value}))
                else:
                    result.append(For(stmt.var, stmt.start, stmt.stop,
                                      stmt.step, emit(body, bindings)))
            elif isinstance(stmt, If):
                _, then_body, else_body = entry
                result.append(If(stmt.lhs.substitute(bindings), stmt.op,
                                 stmt.rhs.substitute(bindings),
                                 emit(then_body, bindings),
                                 emit(else_body, bindings)))
            else:
                result.append(substitute_indices(stmt, bindings)
                              if bindings else stmt)
        return result

    kept = decide(stmts)
    if next(decisions, None) is not None:
        raise CIRError("unroll plan is longer than the loops")
    return emit(kept, {})


def unroll_loops(stmts: List[CStmt], max_trip_count: int = 8,
                 max_body_statements: int = 64) -> List[CStmt]:
    """Unroll loops with small, known trip counts (see :func:`unroll_plan`
    for the thresholds)."""
    return apply_unroll_plan(
        stmts, unroll_plan(stmts, max_trip_count, max_body_statements))
