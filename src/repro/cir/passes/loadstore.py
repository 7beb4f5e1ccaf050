"""Domain-specific load/store analysis (paper Sec. 3.3, Figs. 11-12).

Goal: replace explicit memory round-trips (a store followed by a load of the
same locations) by data rearrangement between vector registers.  In the
paper's example, two masked stores followed by two masked loads and a
shuffle become two ``blend`` instructions and one shuffle -- no memory
traffic at all.

The pass tracks, per straight-line region and with constant addresses only,
which register (and lane) last wrote every buffer element.  A later vector
load whose lanes are all known is then rebuilt from registers:

* all lanes come from one register with matching lane positions -> that
  register is used directly;
* the lanes come from two registers, each in its original lane position ->
  a single ``VBlend``;
* otherwise -> a ``VSet`` of per-lane extracts (still cheaper than a
  round-trip through L1 on the modeled machine only when few lanes are
  needed, so this fallback is only applied for masked loads).

Stores themselves are kept: the buffer may be a function output, and no
later pass removes a store either (:mod:`~repro.cir.passes.dce` removes
only dead register assignments).  The C unparser leaves out a temporary
that nothing reads and its stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..nodes import (Assign, CExpr, CStmt, FloatConst, For, Load, ScalarVar,
                     Store, VBlend, VecVar, VExtract, VLoad, VSet, VStore)
from ..transform import map_statement_expressions


@dataclass
class LoadStoreStats:
    """Statistics reported by the analysis (used by tests and the
    load/store ablation in ``benchmarks/bench_ablation.py``)."""

    forwarded_full: int = 0       # loads replaced by a single register
    forwarded_blend: int = 0      # loads replaced by a blend of two registers
    forwarded_gather: int = 0     # masked loads rebuilt from lane extracts
    forwarded_scalar: int = 0     # scalar loads replaced by a register value

    @property
    def total(self) -> int:
        return (self.forwarded_full + self.forwarded_blend
                + self.forwarded_gather + self.forwarded_scalar)


class _MemoryModel:
    """Tracks the last known register value of buffer elements."""

    def __init__(self) -> None:
        # (buffer name, element index) -> scalar-valued expression
        self.elements: Dict[Tuple[str, int], CExpr] = {}
        # (buffer name, base index) -> (vector register, mask)
        self.vectors: Dict[Tuple[str, int], Tuple[VecVar, Tuple[bool, ...]]] = {}

    def kill_buffer(self, name: str) -> None:
        self.elements = {k: v for k, v in self.elements.items() if k[0] != name}
        self.vectors = {k: v for k, v in self.vectors.items() if k[0] != name}

    def kill_register(self, reg_name: str) -> None:
        # Delete in place; the values recorded are almost always a
        # ``ScalarVar`` or a ``VExtract`` of a ``VecVar``, checked by name.
        def references(expr: CExpr) -> bool:
            kind = type(expr)
            if kind is ScalarVar:
                return expr.name == reg_name
            if kind is VExtract and type(expr.vec) is VecVar:
                return expr.vec.name == reg_name
            return any(isinstance(e, (ScalarVar, VecVar))
                       and e.name == reg_name for e in expr.walk())
        for key in [key for key, value in self.elements.items()
                    if references(value)]:
            del self.elements[key]
        for key in [key for key, (reg, _) in self.vectors.items()
                    if reg.name == reg_name]:
            del self.vectors[key]

    def record_scalar_store(self, buffer: str, index: int, value: CExpr) -> None:
        if isinstance(value, (ScalarVar, FloatConst, VExtract)):
            self.elements[(buffer, index)] = value
        else:
            self.elements.pop((buffer, index), None)
        # A scalar store into the middle of a tracked vector invalidates it.
        for (buf, base), (_, mask) in list(self.vectors.items()):
            if buf == buffer and base <= index < base + len(mask):
                del self.vectors[(buf, base)]

    def record_vector_store(self, buffer: str, base: int, value: CExpr,
                            width: int, mask: Optional[Tuple[bool, ...]]) -> None:
        mask = mask if mask is not None else (True,) * width
        if isinstance(value, VecVar):
            self.vectors[(buffer, base)] = (value, mask)
            for lane, keep in enumerate(mask):
                if keep:
                    self.elements[(buffer, base + lane)] = VExtract(value, lane)
        else:
            for lane, keep in enumerate(mask):
                if keep:
                    self.elements.pop((buffer, base + lane), None)
            self.vectors.pop((buffer, base), None)


def _try_rebuild_vload(load: VLoad, model: _MemoryModel,
                       stats: LoadStoreStats) -> Optional[CExpr]:
    if not load.index.is_constant:
        return None
    base = load.index.value()
    mask = load.mask if load.mask is not None else (True,) * load.width
    wanted = [lane for lane, keep in enumerate(mask) if keep]

    # Fast path: a full vector register stored at the same base address.
    key = (load.buffer.name, base)
    if key in model.vectors:
        reg, stored_mask = model.vectors[key]
        if all(stored_mask[lane] for lane in wanted) and reg.width == load.width:
            stats.forwarded_full += 1
            return reg

    # Lane-wise reconstruction.
    lane_exprs: Dict[int, CExpr] = {}
    for lane in wanted:
        expr = model.elements.get((load.buffer.name, base + lane))
        if expr is None:
            return None
        lane_exprs[lane] = expr

    # Blend pattern: every lane is VExtract(reg, lane) from at most two regs.
    regs: List[str] = []
    aligned = True
    for lane, expr in lane_exprs.items():
        if isinstance(expr, VExtract) and isinstance(expr.vec, VecVar) \
                and expr.lane == lane:
            if expr.vec.name not in regs:
                regs.append(expr.vec.name)
        else:
            aligned = False
            break
    if aligned and 1 <= len(regs) <= 2:
        reg_a = VecVar(regs[0], load.width)
        if len(regs) == 1:
            stats.forwarded_full += 1
            return reg_a
        reg_b = VecVar(regs[1], load.width)
        imm = 0
        for lane, expr in lane_exprs.items():
            assert isinstance(expr, VExtract)
            if isinstance(expr.vec, VecVar) and expr.vec.name == regs[1]:
                imm |= 1 << lane
        stats.forwarded_blend += 1
        return VBlend(reg_a, reg_b, imm, load.width)

    # Gather fallback -- only worthwhile for masked (partial) loads.
    if load.mask is not None:
        elements = tuple(lane_exprs.get(lane, FloatConst(0.0))
                         for lane in range(load.width))
        stats.forwarded_gather += 1
        return VSet(elements)
    return None


def forward_stores_to_loads(stmts: List[CStmt],
                            stats: Optional[LoadStoreStats] = None
                            ) -> Tuple[List[CStmt], LoadStoreStats]:
    """Run the load/store analysis on a statement list.

    Returns the rewritten statements and the replacement statistics.
    """
    stats = stats if stats is not None else LoadStoreStats()
    model = _MemoryModel()
    assigned: set = set()
    result: List[CStmt] = []

    for stmt in stmts:
        if isinstance(stmt, For):
            body, _ = forward_stores_to_loads(stmt.body, stats)
            model = _MemoryModel()   # conservative across the loop
            result.append(For(stmt.var, stmt.start, stmt.stop, stmt.step, body))
            continue

        def replace(expr: CExpr) -> CExpr:
            if type(expr) is VLoad:
                rebuilt = _try_rebuild_vload(expr, model, stats)
                if rebuilt is not None:
                    return rebuilt
            elif type(expr) is Load and expr.index.is_constant:
                known = model.elements.get((expr.buffer.name,
                                            expr.index.value()))
                if known is not None and isinstance(known,
                                                    (ScalarVar, FloatConst,
                                                     VExtract)):
                    stats.forwarded_scalar += 1
                    return known
            return expr

        new_stmt = map_statement_expressions(stmt, replace)

        if isinstance(new_stmt, Assign):
            if new_stmt.dest.name in assigned:
                model.kill_register(new_stmt.dest.name)
            assigned.add(new_stmt.dest.name)
        elif isinstance(new_stmt, Store):
            if new_stmt.index.is_constant:
                model.record_scalar_store(new_stmt.buffer.name,
                                          new_stmt.index.value(),
                                          new_stmt.value)
            else:
                model.kill_buffer(new_stmt.buffer.name)
        elif isinstance(new_stmt, VStore):
            if new_stmt.index.is_constant:
                model.record_vector_store(new_stmt.buffer.name,
                                          new_stmt.index.value(),
                                          new_stmt.value, new_stmt.width,
                                          new_stmt.mask)
            else:
                model.kill_buffer(new_stmt.buffer.name)

        result.append(new_stmt)

    return result, stats
