"""Dead-store and double-write lints from liveness.

* **Dead register stores**: a backward scan of the live registers; an
  ``Assign`` whose destination is not live out of the statement is
  work the optimizer should have removed (the DCE pass does exactly
  this when enabled), reported as a warning.  A loop body that runs
  more than once is scanned until its live-out set stops growing, in
  place of the back edge; a zero-trip body is skipped.
* **Double writes**: from the concrete element event stream, a buffer
  element written twice with no intervening read of it -- the first
  store is dead.  Also a warning: accumulation idioms always read
  between stores, so legitimate code does not trip this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cir.nodes import Assign, Comment, CStmt, For, Function
from .defuse import element_events, expr_registers
from .diagnostics import Diagnostic

PASS = "liveness"


def check_dead_registers(fn: Function) -> List[Diagnostic]:
    """Assignments whose destination register is never read afterwards.

    Each register is reported once, at its last dead assignment."""
    dead: Dict[str, CStmt] = {}
    _live_in(fn.body, set(), dead)
    return [Diagnostic(PASS, "warn",
                       f"dead store: register {name!r} is assigned but "
                       f"never read afterwards", _location(stmt))
            for name, stmt in reversed(dead.items())]


def _live_in(stmts: Sequence[CStmt], live_out: Set[str],
             dead: Optional[Dict[str, CStmt]]) -> Set[str]:
    """The registers live before ``stmts`` given those live after them,
    recording into ``dead`` (when given) the first dead assignment of
    each register met walking backwards."""
    live = set(live_out)
    for stmt in reversed(stmts):
        if isinstance(stmt, For):
            if stmt.trip_count:
                live = _loop_live_in(stmt, live, dead)
        elif not isinstance(stmt, Comment):
            if isinstance(stmt, Assign):
                name = stmt.dest.name
                if name not in live and dead is not None:
                    dead.setdefault(name, stmt)
                live.discard(name)
            live |= expr_registers(stmt.value)
    return live


def _loop_live_in(loop: For, live_out: Set[str],
                  dead: Optional[Dict[str, CStmt]]) -> Set[str]:
    """Live-in of a loop that runs at least once.  Its body's live-out
    is what follows the loop plus, when there is a next iteration, the
    body's own live-in: iterate that to its fixpoint, then report."""
    body_out = live_out
    if loop.trip_count > 1:
        while True:
            grown = live_out | _live_in(loop.body, body_out, None)
            if grown == body_out:
                break
            body_out = grown
    return _live_in(loop.body, body_out, dead)


def check_double_writes(fn: Function) -> List[Diagnostic]:
    """Buffer elements overwritten with no intervening read."""
    last_write: Dict[Tuple[str, int], CStmt] = {}
    diags: List[Diagnostic] = []
    # Deduplicate per statement pair: one vector store overwriting four
    # lanes of another is one finding, not four.
    reported: Set[Tuple[str, str]] = set()
    stream, status = element_events(fn)
    for kind, name, at, stmt in stream:
        key = (name, at)
        if kind == "read":
            last_write.pop(key, None)
        else:
            previous = last_write.get(key)
            if previous is not None:
                pair = (_location(previous), _location(stmt))
                if pair not in reported:
                    reported.add(pair)
                    diags.append(Diagnostic(
                        PASS, "warn",
                        f"double write: {name}[{at}] is overwritten "
                        f"before the earlier store ({pair[0]}) is read",
                        pair[1]))
            last_write[key] = stmt
    if not status.complete:
        return []  # truncated trace: orderings beyond the budget unknown
    return diags


def _location(stmt: CStmt) -> str:
    text = repr(stmt)
    return text if len(text) <= 96 else text[:93] + "..."
