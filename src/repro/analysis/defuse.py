"""Def-before-use and uninitialized-read detection.

Two cooperating analyses:

* **Registers** (``ScalarVar``/``VecVar``): a forward must-defined
  dataflow over the CFG (intersection meet).  A register read that is
  not definitely assigned on every path to it is an *error* -- the
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

from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from ..cir.nodes import (Assign, Comment, CStmt, For, Function, If, Load,
                         Store, VLoad, VStore, walk_expressions)
from .cfg import build_cfg
from .dataflow import MustDefined, expr_registers, solve, stmt_def
from .diagnostics import Diagnostic

PASS = "defuse"

#: budget for the concrete element walk (simple statements visited)
ELEMENT_WALK_LIMIT = 200_000


def check_register_defuse(fn: Function) -> List[Diagnostic]:
    """Registers that may be read before any assignment reaches them."""
    cfg = build_cfg(fn.body)
    universe: Set[str] = set()
    for stmt in fn.walk_statements():
        universe |= stmt_def(stmt)
        if isinstance(stmt, (Assign, Store, VStore)):
            universe |= expr_registers(stmt.value)
    states = solve(cfg, MustDefined(frozenset(universe)))

    diags: List[Diagnostic] = []
    reported: Set[str] = set()
    reachable = cfg.reachable_ids()
    for block in cfg.blocks:
        if block.block_id not in reachable:
            continue
        defined: FrozenSet[str] = states[block.block_id][0]
        current = set(defined)
        for stmt in block.stmts:
            if isinstance(stmt, (Assign, Store, VStore)):
                for name in sorted(expr_registers(stmt.value)):
                    if name not in current and name not in reported:
                        reported.add(name)
                        diags.append(Diagnostic(
                            PASS, "error",
                            f"register {name!r} may be read before it is "
                            f"assigned", _location(stmt)))
            current |= stmt_def(stmt)
    return diags


# ---------------------------------------------------------------------------
# Concrete element-level walk
# ---------------------------------------------------------------------------


class WalkStatus:
    """Mutable completeness marker filled in as the event stream drains."""

    def __init__(self) -> None:
        self.complete = True


def element_events(fn: Function,
                   limit: int = ELEMENT_WALK_LIMIT
                   ) -> Tuple[Iterator[Tuple[str, str, int, CStmt]],
                              WalkStatus]:
    """Iterate ``(kind, buffer, element, stmt)`` access events in order.

    ``kind`` is ``"read"`` or ``"write"``.  Loops are concretely
    unrolled (all bounds are constants) and ``If`` conditions evaluated
    exactly, so the event stream is the precise dynamic access trace --
    independent of data values, which indices never depend on.  The
    returned :class:`WalkStatus` reports (once the stream is fully
    drained) whether the walk stayed within ``limit`` simple statements;
    callers must treat a truncated stream as inconclusive, not clean.
    """
    status = WalkStatus()

    def events(stmts: Sequence[CStmt], bindings: Dict[str, int],
               budget: List[int]) -> Iterator[Tuple[str, str, int, CStmt]]:
        for stmt in stmts:
            if budget[0] <= 0:
                status.complete = False
                return
            if isinstance(stmt, For):
                for value in stmt.iterations():
                    inner = dict(bindings)
                    inner[stmt.var] = value
                    yield from events(stmt.body, inner, budget)
                    if budget[0] <= 0:
                        status.complete = False
                        return
            elif isinstance(stmt, If):
                taken = stmt.evaluate(bindings)
                yield from events(stmt.then_body if taken else
                                  stmt.else_body, bindings, budget)
            elif isinstance(stmt, Comment):
                continue
            else:
                budget[0] -= 1
                for expr in walk_expressions(stmt):
                    for node in expr.walk():
                        if isinstance(node, Load):
                            at = node.index.evaluate(bindings)
                            yield "read", node.buffer.name, at, stmt
                        elif isinstance(node, VLoad):
                            base = node.index.evaluate(bindings)
                            mask = (node.mask if node.mask is not None
                                    else (True,) * node.width)
                            for lane, keep in enumerate(mask):
                                if keep:
                                    yield ("read", node.buffer.name,
                                           base + lane, stmt)
                if isinstance(stmt, Store):
                    at = stmt.index.evaluate(bindings)
                    yield "write", stmt.buffer.name, at, stmt
                elif isinstance(stmt, VStore):
                    base = stmt.index.evaluate(bindings)
                    mask = (stmt.mask if stmt.mask is not None
                            else (True,) * stmt.width)
                    for lane, keep in enumerate(mask):
                        if keep:
                            yield "write", stmt.buffer.name, base + lane, stmt

    return events(fn.body, {}, [limit]), status


def classify_temps(fn: Function) -> Tuple[Set[str], Set[str]]:
    """``(zeroed, unread)`` names of temp buffers: those with an element
    read before any write to it, which must start zeroed, and those never
    read at all, whose stores are dead.  A truncated walk proves nothing,
    so it zeroes every temp and finds none unread."""
    temps = {buf.name for buf in fn.temps}
    if not temps:
        return set(), set()
    stream, status = element_events(fn)
    written: Dict[str, Set[int]] = {name: set() for name in temps}
    zeroed: Set[str] = set()
    read: Set[str] = set()
    for kind, name, at, _stmt in stream:
        if name not in temps:
            continue
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
