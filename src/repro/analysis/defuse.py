"""Def-before-use and uninitialized-read detection.

Two cooperating analyses:

* **Registers** (``ScalarVar``/``VecVar``): a forward scan of the
  registers assigned so far.  A loop that runs at least once passes its
  body's assignments on to what follows it; a zero-trip loop is skipped.
  A register read before any assignment reaches it is an *error* -- the
  interpreter raises ``use of undefined register`` and the C backends
  read an uninitialized stack slot.

* **Buffer elements**: reaching definitions at element granularity via
  a concrete walk.  Loop bounds are integer constants, so loops can be
  unrolled abstractly (up to a step budget) while tracking, per buffer,
  exactly which elements have been written.  Reading an element of an
  ``out``/``temp`` buffer before any write is well-defined under the
  backend contract but almost always a lowering bug, so it is reported
  as a *warning*; ``in``/``inout`` buffers start fully defined.  Callers
  zero ``out`` buffers; ``temp`` buffers start zeroed in the interpreter
  and NumPy, and in C when :func:`classify_temps` says they must.

The same concrete walk powers the double-write lint in
:mod:`repro.analysis.liveness` -- both consume :func:`element_events`.
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from ..cir.nodes import (Affine, Assign, CExpr, Comment, CStmt, For,
                         Function, Load, ScalarVar, Store, VecVar, VLoad,
                         VStore)
from .diagnostics import Diagnostic

PASS = "defuse"

#: budget for the concrete element walk (simple statements visited)
ELEMENT_WALK_LIMIT = 200_000


def expr_registers(expr: CExpr) -> FrozenSet[str]:
    """Names of all registers read by ``expr``."""
    return frozenset(node.name for node in expr.walk()
                     if isinstance(node, (ScalarVar, VecVar)))


def check_register_defuse(fn: Function) -> List[Diagnostic]:
    """Registers that may be read before any assignment reaches them."""
    diags: List[Diagnostic] = []
    reported: Set[str] = set()

    def scan(stmts: Sequence[CStmt], defined: Set[str]) -> None:
        # ``defined`` grows in place.  Every iteration of a loop starts
        # with at least what was defined before it, and the first starts
        # with exactly that, so one scan of the body decides its reads.
        for stmt in stmts:
            if isinstance(stmt, For):
                if stmt.trip_count:
                    scan(stmt.body, defined)
            elif isinstance(stmt, (Assign, Store, VStore)):
                for name in sorted(expr_registers(stmt.value)):
                    if name not in defined and name not in reported:
                        reported.add(name)
                        diags.append(Diagnostic(
                            PASS, "error",
                            f"register {name!r} may be read before it is "
                            f"assigned", _location(stmt)))
                if isinstance(stmt, Assign):
                    defined.add(stmt.dest.name)

    scan(fn.body, set())
    return diags


# ---------------------------------------------------------------------------
# Concrete element-level walk
# ---------------------------------------------------------------------------


class WalkStatus:
    """Mutable completeness marker filled in as the event stream drains."""

    def __init__(self) -> None:
        self.complete = True


#: One buffer access of a simple statement: kind, buffer, index
#: expression, and the lane offsets it touches from that index.
_Access = Tuple[str, str, Affine, Tuple[int, ...]]


def _lanes(width: int, mask: Optional[Tuple[bool, ...]]) -> Tuple[int, ...]:
    if mask is None:
        return tuple(range(width))
    return tuple(lane for lane, keep in enumerate(mask) if keep)


def _reads(expr: CExpr, found: List[_Access]) -> None:
    """Append the loads under ``expr`` in pre-order."""
    if isinstance(expr, Load):
        found.append(("read", expr.buffer.name, expr.index, (0,)))
    elif isinstance(expr, VLoad):
        found.append(("read", expr.buffer.name, expr.index,
                      _lanes(expr.width, expr.mask)))
    else:
        for child in expr.children():
            _reads(child, found)


def _accesses(stmt: CStmt) -> List[_Access]:
    """The accesses of a simple statement in event order: its reads,
    then its write."""
    found: List[_Access] = []
    if isinstance(stmt, (Assign, Store, VStore)):
        _reads(stmt.value, found)
    if isinstance(stmt, Store):
        found.append(("write", stmt.buffer.name, stmt.index, (0,)))
    elif isinstance(stmt, VStore):
        found.append(("write", stmt.buffer.name, stmt.index,
                      _lanes(stmt.width, stmt.mask)))
    return found


def element_events(fn: Function,
                   limit: int = ELEMENT_WALK_LIMIT,
                   only: Optional[AbstractSet[str]] = None
                   ) -> Tuple[Iterator[Tuple[str, str, int, CStmt]],
                              WalkStatus]:
    """Iterate ``(kind, buffer, element, stmt)`` access events in order.

    ``kind`` is ``"read"`` or ``"write"``.  Loops are concretely
    unrolled (all bounds are constants), so the event stream is the
    precise dynamic access trace -- independent of data values, which
    indices never depend on.  The returned :class:`WalkStatus` reports
    (once the stream is fully drained) whether the walk stayed within
    ``limit`` simple statements; callers must treat a truncated stream
    as inconclusive, not clean.

    ``only`` restricts the stream to the named buffers: statements and
    whole loops that access none of them are skipped, and do not count
    against ``limit``.
    """
    status = WalkStatus()
    plans: Dict[int, List[_Access]] = {}
    loops: Dict[int, bool] = {}

    def plan(stmt: CStmt) -> List[_Access]:
        found = plans.get(id(stmt))
        if found is None:
            found = plans[id(stmt)] = [
                access for access in _accesses(stmt)
                if only is None or access[1] in only]
        return found

    def touches(stmt: CStmt) -> bool:
        if isinstance(stmt, For):
            hit = loops.get(id(stmt))
            if hit is None:
                hit = loops[id(stmt)] = any(map(touches, stmt.body))
            return hit
        return not isinstance(stmt, Comment) and bool(plan(stmt))

    def events(stmts: Sequence[CStmt], bindings: Dict[str, int],
               budget: List[int]) -> Iterator[Tuple[str, str, int, CStmt]]:
        for stmt in stmts:
            if budget[0] <= 0:
                status.complete = False
                return
            if isinstance(stmt, For):
                if only is not None and not touches(stmt):
                    continue
                for value in stmt.iterations():
                    inner = dict(bindings)
                    inner[stmt.var] = value
                    yield from events(stmt.body, inner, budget)
                    if budget[0] <= 0:
                        status.complete = False
                        return
            elif not isinstance(stmt, Comment):
                accesses = plan(stmt)
                if only is not None and not accesses:
                    continue
                budget[0] -= 1
                for kind, name, index, lanes in accesses:
                    base = index.evaluate(bindings)
                    for lane in lanes:
                        yield kind, name, base + lane, stmt

    return events(fn.body, {}, [limit]), status


def classify_temps(fn: Function) -> Tuple[Set[str], Set[str]]:
    """``(zeroed, unread)`` names of temp buffers: those with an element
    read before any write to it, which must start zeroed, and those never
    read at all, whose stores are dead.  Only statements that access a
    temp are walked.  A truncated walk proves nothing, so it zeroes every
    temp and finds none unread."""
    temps = {buf.name for buf in fn.temps}
    if not temps:
        return set(), set()
    stream, status = element_events(fn, only=temps)
    written: Dict[str, Set[int]] = {name: set() for name in temps}
    zeroed: Set[str] = set()
    read: Set[str] = set()
    for kind, name, at, _stmt in stream:
        if kind == "write":
            written[name].add(at)
        else:
            read.add(name)
            if at not in written[name]:
                zeroed.add(name)
    if not status.complete:
        return temps, set()
    return zeroed, temps - read


def check_element_defuse(fn: Function) -> List[Diagnostic]:
    """Stale reads: ``out``/``temp`` elements read before the write that
    later defines them.

    Reads of elements *never* written anywhere in the trace are the
    designed implicit-zero idiom (full-width vector loads sweeping the
    structurally-zero half of a triangular output) and stay silent; a
    read that precedes a write of the same element observes the zero
    where the computed value was plainly intended -- an ordering bug in
    the lowering -- and warns.
    """
    initialized: Dict[str, bool] = {
        buf.name: buf.kind in ("in", "inout") for buf in fn.buffers()}
    stream, _status = element_events(fn)
    trace = list(stream)
    ever_written: Dict[str, Set[int]] = {}
    for kind, name, at, _stmt in trace:
        if kind == "write":
            ever_written.setdefault(name, set()).add(at)

    written: Dict[str, Set[int]] = {buf.name: set() for buf in fn.buffers()}
    diags: List[Diagnostic] = []
    reported: Set[Tuple[str, int]] = set()
    for kind, name, at, stmt in trace:
        if kind == "write":
            written[name].add(at)
        elif (not initialized.get(name, True)
                and at not in written[name]
                and at in ever_written.get(name, ())
                and (name, at) not in reported):
            reported.add((name, at))
            diags.append(Diagnostic(
                PASS, "warn",
                f"element {name}[{at}] of {_kind(fn, name)} buffer "
                f"{name!r} is read before the write that later defines "
                f"it (observes the implicit zero instead)",
                _location(stmt)))
    return diags


def _kind(fn: Function, name: str) -> str:
    for buf in fn.buffers():
        if buf.name == name:
            return buf.kind
    return "unknown"


def _location(stmt: CStmt) -> str:
    text = repr(stmt)
    return text if len(text) <= 96 else text[:93] + "..."
