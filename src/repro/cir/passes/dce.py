"""Dead code elimination: remove register assignments whose value is never used.

Stores to buffers are always considered live (buffers can be function
outputs or carry values across loop iterations).  The pass iterates to a
fixpoint so that chains of dead assignments disappear entirely.
"""

from __future__ import annotations

from typing import List, Set

from ..nodes import (Assign, CExpr, CStmt, For, ScalarVar, Store, VecVar,
                     VStore)


def _collect_expression_registers(expr: CExpr, used: Set[str]) -> None:
    kind = type(expr)
    if kind is ScalarVar or kind is VecVar:
        used.add(expr.name)
        return
    for child in expr.children():
        _collect_expression_registers(child, used)


def _collect_used_registers(stmts: List[CStmt], used: Set[str]) -> None:
    for stmt in stmts:
        kind = type(stmt)
        if kind is For:
            _collect_used_registers(stmt.body, used)
        elif kind is Assign or kind is Store or kind is VStore:
            _collect_expression_registers(stmt.value, used)


def _remove_dead(stmts: List[CStmt], used: Set[str]) -> List[CStmt]:
    """``stmts`` without the dead assignments; ``stmts`` itself when
    there are none."""
    result: List[CStmt] = []
    changed = False
    for stmt in stmts:
        if isinstance(stmt, Assign) and stmt.dest.name not in used:
            changed = True
            continue
        if isinstance(stmt, For):
            body = _remove_dead(stmt.body, used)
            if body is not stmt.body:
                changed = True
                stmt = For(stmt.var, stmt.start, stmt.stop, stmt.step, body)
        result.append(stmt)
    return result if changed else stmts


def eliminate_dead_code(stmts: List[CStmt], max_iterations: int = 10) -> List[CStmt]:
    """Remove assignments to registers that are never read (to a fixpoint).

    Note: register reads *inside* the assignment being considered do not keep
    it alive; liveness is computed from all other statements.  Because the
    builder generates fresh names, self-referential accumulator updates inside
    loops still count as uses via the following iteration's read, which this
    conservative whole-function analysis keeps alive.
    """
    current = stmts
    for _ in range(max_iterations):
        used: Set[str] = set()
        _collect_used_registers(current, used)
        new = _remove_dead(current, used)
        if new is current:
            return current
        current = new
    return current
