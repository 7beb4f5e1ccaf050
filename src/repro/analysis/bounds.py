"""Static bounds checking of every buffer access in a C-IR function.

C-IR control flow is counted loops with constant bounds, and every
index is an affine expression of the enclosing induction variables, so
in-bounds facts are decidable.  Walking the body structurally, each
induction variable gets its exact value set (the loop's iteration
range), and the interval of an affine index follows directly.  The
screen is exact: an affine index takes its extremes at the corners of
the rectangular grid of its loops, and every grid point is reached, so
an access whose interval leaves ``[0, size)`` does go out of bounds.
Such an access is an ``error`` that names the first corner binding
reaching outside.  Masked vector accesses only need their *enabled*
lanes in bounds -- the exact semantics of AVX masked loads/stores and of
the interpreter's ``_check_index``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..cir.nodes import (Affine, Buffer, CStmt, Comment, For, Function, Load,
                         Store, VLoad, VStore, walk_expressions)
from .diagnostics import Diagnostic

PASS = "bounds"

#: iteration values of each in-scope induction variable
Ranges = Dict[str, range]


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

    def visit(stmts: Sequence[CStmt], ranges: Ranges) -> None:
        for stmt in stmts:
            if isinstance(stmt, For):
                if stmt.trip_count == 0:
                    continue  # body statically never runs
                inner = dict(ranges)
                inner[stmt.var] = stmt.iterations()
                visit(stmt.body, inner)
            elif isinstance(stmt, Comment):
                continue
            else:
                location = _location(stmt)
                if isinstance(stmt, Store):
                    _check(diags, stmt.buffer, stmt.index, [0], ranges,
                           location, "store")
                elif isinstance(stmt, VStore):
                    _check(diags, stmt.buffer, stmt.index,
                           _mask_lanes(stmt.width, stmt.mask), ranges,
                           location, "vstore")
                for node in walk_expressions(stmt):
                    if isinstance(node, Load):
                        _check(diags, node.buffer, node.index, [0],
                               ranges, location, "load")
                    elif isinstance(node, VLoad):
                        _check(diags, node.buffer, node.index,
                               _mask_lanes(node.width, node.mask),
                               ranges, location, "vload")

    visit(fn.body, {})
    return diags


def _check(diags: List[Diagnostic], buffer: Buffer, index: Affine,
           lanes: List[int], ranges: Ranges, location: str,
           what: str) -> None:
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
        return  # in bounds on every iteration
    diags.append(Diagnostic(
        PASS, "error",
        f"{what} {buffer.name}[{index}] lanes {min(lanes)}..{max(lanes)} "
        f"may reach [{low}, {high}] of extent {buffer.size}; out of bounds "
        f"at {_witness(index, lanes, buffer.size, ranges)}", location))


def _witness(index: Affine, lanes: List[int], size: int,
             ranges: Ranges) -> str:
    """The first corner binding, in sorted variable order, at which a
    lane indexes outside ``[0, size)``.  One exists whenever the
    interval leaves the extent: the interval's ends are corner values."""
    names = sorted(index.variables())
    corners = [(ranges[n][0], ranges[n][-1]) for n in names]
    for values in itertools.product(*corners):
        bindings = dict(zip(names, values))
        base = index.evaluate(bindings)
        for lane in lanes:
            at = base + lane
            if at < 0 or at >= size:
                text = ", ".join(f"{n}={bindings[n]}" for n in names)
                return f"{{{text or 'constant index'}}} -> index {at}"
    raise AssertionError("an interval end lies at no corner")


def _location(stmt: CStmt) -> str:
    text = repr(stmt)
    return text if len(text) <= 96 else text[:93] + "..."
