"""Static bounds checking of every buffer access in a C-IR function.

All loop bounds in C-IR are integer constants and every index is an
affine expression of the enclosing induction variables, so in-bounds
facts are decidable.  The pass runs in two steps:

1. **Interval screening.**  Walking the body structurally, each
   induction variable gets its exact value set (the loop's iteration
   range).  The interval of an affine index follows directly; an access
   whose interval stays within ``[0, size)`` is proven safe.  Masked
   vector accesses only need their *enabled* lanes in bounds -- the
   exact semantics of AVX masked loads/stores and of the interpreter's
   ``_check_index``.
2. **Concrete confirmation.**  Interval screening ignores ``If``
   guards, so a candidate violation is confirmed by enumerating the
   relevant induction variables over their true iteration grids
   (complete when the space is small, corner sampling otherwise) and
   evaluating the guard conditions along the path.  A confirmed binding
   becomes an ``error`` carrying the witness values; a candidate that
   can be neither confirmed nor refuted within the enumeration budget
   becomes a ``warn``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cir.nodes import (Affine, Buffer, CStmt, Comment, For, Function, If,
                         Load, Store, VLoad, VStore, walk_expressions)
from .diagnostics import Diagnostic

PASS = "bounds"

#: complete-enumeration budget for confirming a candidate violation
ENUMERATION_LIMIT = 4096

#: iteration values of each in-scope induction variable
Ranges = Dict[str, range]


@dataclass(frozen=True)
class _Guard:
    """One ``If`` condition on the current path."""

    lhs: Affine
    op: str
    rhs: Affine
    taken: bool  # True inside then_body, False inside else_body

    def holds(self, bindings: Dict[str, int]) -> bool:
        lhs = self.lhs.evaluate(bindings)
        rhs = self.rhs.evaluate(bindings)
        result = {"<": lhs < rhs, "<=": lhs <= rhs, "==": lhs == rhs,
                  ">=": lhs >= rhs, ">": lhs > rhs}[self.op]
        return result if self.taken else not result


def interval(index: Affine, ranges: Ranges) -> Tuple[int, int]:
    """Exact (min, max) of an affine expression over the variable grids."""
    lo = hi = index.const
    for name, coef in index.terms:
        span = ranges[name]
        vlo, vhi = span[0], span[-1]
        if coef >= 0:
            lo += coef * vlo
            hi += coef * vhi
        else:
            lo += coef * vhi
            hi += coef * vlo
    return lo, hi


def _mask_lanes(width: int, mask: Optional[Tuple[bool, ...]]) -> List[int]:
    if mask is None:
        return list(range(width))
    return [lane for lane, keep in enumerate(mask) if keep]


def check_bounds(fn: Function) -> List[Diagnostic]:
    """All bounds diagnostics for one function."""
    diags: List[Diagnostic] = []

    def visit(stmts: Sequence[CStmt], ranges: Ranges,
              guards: Tuple[_Guard, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, For):
                if stmt.trip_count == 0:
                    continue  # body statically never runs
                inner = dict(ranges)
                inner[stmt.var] = stmt.iterations()
                visit(stmt.body, inner, guards)
            elif isinstance(stmt, If):
                guard = _Guard(stmt.lhs, stmt.op, stmt.rhs, True)
                visit(stmt.then_body, ranges, guards + (guard,))
                guard = _Guard(stmt.lhs, stmt.op, stmt.rhs, False)
                visit(stmt.else_body, ranges, guards + (guard,))
            elif isinstance(stmt, Comment):
                continue
            else:
                location = _location(stmt)
                if isinstance(stmt, Store):
                    _check(diags, stmt.buffer, stmt.index, [0], ranges,
                           guards, location, "store")
                elif isinstance(stmt, VStore):
                    _check(diags, stmt.buffer, stmt.index,
                           _mask_lanes(stmt.width, stmt.mask), ranges,
                           guards, location, "vstore")
                for node in walk_expressions(stmt):
                    if isinstance(node, Load):
                        _check(diags, node.buffer, node.index, [0],
                               ranges, guards, location, "load")
                    elif isinstance(node, VLoad):
                        _check(diags, node.buffer, node.index,
                               _mask_lanes(node.width, node.mask),
                               ranges, guards, location, "vload")

    visit(fn.body, {}, ())
    return diags


def _check(diags: List[Diagnostic], buffer: Buffer, index: Affine,
           lanes: List[int], ranges: Ranges, guards: Tuple[_Guard, ...],
           location: str, what: str) -> None:
    if not lanes:
        return  # fully masked-off access touches no memory
    unbound = [v for v in index.variables() if v not in ranges]
    if unbound:
        diags.append(Diagnostic(
            PASS, "error",
            f"{what} index {index} of {buffer.name!r} uses unbound "
            f"variable(s) {unbound}", location))
        return
    lo, hi = interval(index, ranges)
    low = lo + min(lanes)
    high = hi + max(lanes)
    if low >= 0 and high < buffer.size:
        return  # proven in bounds on every path
    verdict, witness = _confirm(index, lanes, buffer.size, ranges, guards)
    bounds_text = (f"{what} {buffer.name}[{index}] lanes "
                   f"{min(lanes)}..{max(lanes)} may reach "
                   f"[{low}, {high}] of extent {buffer.size}")
    if verdict == "violation":
        diags.append(Diagnostic(
            PASS, "error",
            f"{bounds_text}; out of bounds at {witness}", location))
    elif verdict == "unknown":
        diags.append(Diagnostic(
            PASS, "warn",
            f"{bounds_text}; could not prove in-bounds (guard too complex "
            "to enumerate)", location))
    # verdict == "safe": every reachable binding honoring the If guards
    # stays in bounds -- the interval screen was just guard-blind.


def _confirm(index: Affine, lanes: List[int], size: int, ranges: Ranges,
             guards: Tuple[_Guard, ...]) -> Tuple[str, str]:
    """Search for a reachable binding that indexes outside ``[0, size)``.

    Returns ``("violation", witness)``, ``("safe", "")`` when complete
    enumeration found no violating binding, or ``("unknown", "")`` when
    the space exceeded the budget and corner sampling was inconclusive.
    """
    relevant = set(index.variables())
    for guard in guards:
        relevant.update(guard.lhs.variables())
        relevant.update(guard.rhs.variables())
    if any(v not in ranges for v in relevant):
        return "unknown", ""
    names = sorted(relevant)

    def violating(bindings: Dict[str, int]) -> Optional[str]:
        if not all(g.holds(bindings) for g in guards):
            return None
        base = index.evaluate(bindings)
        for lane in lanes:
            at = base + lane
            if at < 0 or at >= size:
                text = ", ".join(f"{n}={bindings[n]}" for n in names)
                return f"{{{text or 'constant index'}}} -> index {at}"
        return None

    spans = [ranges[n] for n in names]
    total = 1
    for span in spans:
        total *= len(span)
    if total <= ENUMERATION_LIMIT:
        for values in itertools.product(*spans):
            witness = violating(dict(zip(names, values)))
            if witness is not None:
                return "violation", witness
        return "safe", ""
    # Too many combinations: sample the corners (affine extremes live
    # there); a hit is a definite violation, a miss is inconclusive.
    corners = [(span[0], span[-1]) for span in spans]
    for values in itertools.product(*corners):
        witness = violating(dict(zip(names, values)))
        if witness is not None:
            return "violation", witness
    return "unknown", ""


def _location(stmt: CStmt) -> str:
    text = repr(stmt)
    return text if len(text) <= 96 else text[:93] + "..."
