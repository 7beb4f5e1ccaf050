"""Control-flow graphs over C-IR statement lists.

C-IR control flow is structured (``For`` with constant bounds, ``If``
diamonds), so the CFG builder can be exact:

* A ``For`` whose static trip count is zero contributes no edges into
  its body -- the body blocks are kept (so structural passes still see
  them) but marked unreachable.
* A ``For`` with trip count >= 1 is modeled as a do-while: the entry
  edge leads straight into the body, the body loops back on itself, and
  the exit edge leaves from the body's end.  This keeps must-definedness
  precise -- a register assigned in a loop that provably runs is
  definitely assigned after it, exactly matching the interpreter.
* An ``If`` is a diamond: both branches are considered reachable (the
  condition depends on induction variables and is evaluated per
  iteration).

Blocks hold only *simple* statements (``Assign``, ``Store``, ``VStore``,
``Comment``); ``For``/``If`` dissolve into edges.  The graph is the
substrate for the generic solver in :mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from ..cir.nodes import Comment, CStmt, For, If


@dataclass
class Block:
    """A basic block: straight-line simple statements plus CFG edges."""

    block_id: int
    stmts: List[CStmt] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: loop variables of every enclosing ``For`` (outermost first)
    loop_context: Tuple[str, ...] = ()

    def add_succ(self, other: "Block") -> None:
        if other.block_id not in self.succs:
            self.succs.append(other.block_id)
        if self.block_id not in other.preds:
            other.preds.append(self.block_id)


@dataclass
class CFG:
    """A control-flow graph with unique entry and exit blocks."""

    blocks: List[Block]
    entry_id: int
    exit_id: int

    def reachable_ids(self) -> Set[int]:
        """Block ids reachable from the entry (zero-trip bodies are not)."""
        seen: Set[int] = set()
        work = [self.entry_id]
        while work:
            bid = work.pop()
            if bid in seen:
                continue
            seen.add(bid)
            work.extend(self.blocks[bid].succs)
        return seen

    def topological_order(self) -> List[int]:
        """Reverse-postorder over reachable blocks (good worklist order)."""
        seen: Set[int] = set()
        order: List[int] = []
        # Iterative postorder DFS: generated functions can have tens of
        # thousands of blocks in a straight line, far past the Python
        # recursion limit.
        stack: List[Tuple[int, int]] = [(self.entry_id, 0)]
        seen.add(self.entry_id)
        while stack:
            bid, next_succ = stack[-1]
            succs = self.blocks[bid].succs
            while next_succ < len(succs) and succs[next_succ] in seen:
                next_succ += 1
            if next_succ < len(succs):
                stack[-1] = (bid, next_succ + 1)
                seen.add(succs[next_succ])
                stack.append((succs[next_succ], 0))
            else:
                stack.pop()
                order.append(bid)
        return list(reversed(order))


class _Builder:
    def __init__(self) -> None:
        self.blocks: List[Block] = []

    def new_block(self, loop_context: Tuple[str, ...]) -> Block:
        block = Block(block_id=len(self.blocks), loop_context=loop_context)
        self.blocks.append(block)
        return block

    def build(self, stmts: Sequence[CStmt], current: Block,
              loop_context: Tuple[str, ...]) -> Block:
        """Lay out ``stmts``; return the block control falls out of."""
        for stmt in stmts:
            if isinstance(stmt, For):
                after = self.new_block(loop_context)
                if stmt.trip_count == 0:
                    # Body statically never runs: keep its blocks (they
                    # stay unreachable) and fall through directly.
                    body_entry = self.new_block(loop_context + (stmt.var,))
                    self.build(stmt.body, body_entry,
                               loop_context + (stmt.var,))
                    current.add_succ(after)
                else:
                    body_entry = self.new_block(loop_context + (stmt.var,))
                    current.add_succ(body_entry)
                    body_exit = self.build(stmt.body, body_entry,
                                           loop_context + (stmt.var,))
                    if stmt.trip_count > 1:
                        body_exit.add_succ(body_entry)  # back edge
                    body_exit.add_succ(after)
                current = after
            elif isinstance(stmt, If):
                then_entry = self.new_block(loop_context)
                else_entry = self.new_block(loop_context)
                join = self.new_block(loop_context)
                current.add_succ(then_entry)
                current.add_succ(else_entry)
                then_exit = self.build(stmt.then_body, then_entry,
                                       loop_context)
                else_exit = self.build(stmt.else_body, else_entry,
                                       loop_context)
                then_exit.add_succ(join)
                else_exit.add_succ(join)
                current = join
            elif isinstance(stmt, Comment):
                continue
            else:
                current.stmts.append(stmt)
        return current


def build_cfg(body: Sequence[CStmt]) -> CFG:
    """Build the CFG of a statement list (e.g. ``Function.body``)."""
    builder = _Builder()
    entry = builder.new_block(())
    last = builder.build(body, entry, ())
    if last.succs or last.stmts or last is not entry:
        exit_block = builder.new_block(())
        last.add_succ(exit_block)
    else:
        exit_block = last
    return CFG(blocks=builder.blocks, entry_id=entry.block_id,
               exit_id=exit_block.block_id)
