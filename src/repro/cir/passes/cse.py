"""Scalar replacement / redundant-load elimination.

Within every straight-line region, loads (scalar or vector) of the same
address that are executed more than once are replaced by a register that is
loaded once -- the "scalar replacement" of LGen/SLinGen's code-level
optimizations.  A store to a buffer conservatively invalidates all cached
loads from that buffer; loop boundaries invalidate everything.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..nodes import (Assign, CExpr, CStmt, For, Load, ScalarVar, Store, VecVar,
                     VLoad, VStore)
from ..transform import map_statement_expressions


#: The registers this pass names; no other producer uses the prefix.
_REGISTER = re.compile(r"sr_[sv](\d+)$")


class _Counter:
    """Allocates register names for the pass (kept distinct from builder names)."""

    def __init__(self, start: int = 0) -> None:
        self.count = start

    def scalar(self) -> ScalarVar:
        self.count += 1
        return ScalarVar(f"sr_s{self.count}")

    def vector(self, width: int) -> VecVar:
        self.count += 1
        return VecVar(f"sr_v{self.count}", width)


def _highest_register(stmts: List[CStmt]) -> int:
    """The highest ``sr_`` index a block assigns (0 for none): a second
    run numbers its registers after it, so it never reuses a name the
    first run left live."""
    highest = 0
    for stmt in stmts:
        if isinstance(stmt, For):
            highest = max(highest, _highest_register(stmt.body))
        elif isinstance(stmt, Assign):
            match = _REGISTER.match(stmt.dest.name)
            if match:
                highest = max(highest, int(match.group(1)))
    return highest


def _load_key(expr: CExpr) -> Optional[Tuple]:
    """A key identifying a load's address, or None: the buffer name and
    the index's terms and constant, plus width and mask for a vector
    load.  A plain tuple of strings and ints hashes in C, where the
    frozen dataclass ``__hash__`` of an ``Affine`` runs in Python."""
    kind = type(expr)
    if kind is Load:
        index = expr.index
        return (expr.buffer.name, index.terms, index.const)
    if kind is VLoad:
        index = expr.index
        return (expr.buffer.name, index.terms, index.const, expr.width,
                expr.mask)
    return None


def _count_expression_loads(expr: CExpr, counts: Dict[Tuple, int]) -> None:
    key = _load_key(expr)
    if key is not None:
        counts[key] = counts.get(key, 0) + 1
        return
    for child in expr.children():
        _count_expression_loads(child, counts)


def _count_loads(stmts: List[CStmt]) -> Dict[Tuple, int]:
    """Count load occurrences in a straight-line block (no recursion)."""
    counts: Dict[Tuple, int] = {}
    for stmt in stmts:
        if isinstance(stmt, (Assign, Store, VStore)):
            _count_expression_loads(stmt.value, counts)
    return counts


def eliminate_redundant_loads(stmts: List[CStmt],
                              _counter: _Counter | None = None) -> List[CStmt]:
    """Replace repeated loads of the same address with a single register load."""
    counter = _counter or _Counter(_highest_register(stmts))
    counts = _count_loads(stmts)
    available: Dict[Tuple, CExpr] = {}
    # buffer name -> the keys of ``available`` loading from it
    by_buffer: Dict[str, List[Tuple]] = {}
    result: List[CStmt] = []

    def invalidate_buffer(buffer_name: str) -> None:
        for key in by_buffer.pop(buffer_name, ()):
            del available[key]

    for stmt in stmts:
        if isinstance(stmt, For):
            available.clear()
            by_buffer.clear()
            result.append(For(stmt.var, stmt.start, stmt.stop, stmt.step,
                              eliminate_redundant_loads(stmt.body, counter)))
            continue

        pending: List[CStmt] = []

        def replace(expr: CExpr) -> CExpr:
            key = _load_key(expr)
            if key is None:
                return expr
            if key in available:
                return available[key]
            if counts.get(key, 0) >= 2:
                reg = (counter.vector(expr.width) if type(expr) is VLoad
                       else counter.scalar())
                pending.append(Assign(reg, expr))
                available[key] = reg
                by_buffer.setdefault(key[0], []).append(key)
                return reg
            return expr

        new_stmt = map_statement_expressions(stmt, replace)
        result.extend(pending)
        result.append(new_stmt)

        if type(new_stmt) is Store or type(new_stmt) is VStore:
            invalidate_buffer(new_stmt.buffer.name)

    return result
