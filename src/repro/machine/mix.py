"""Static instruction-mix extraction from C-IR.

Because every loop in generated C-IR has constant bounds, the exact dynamic
instruction counts can be computed statically by weighting each statement
with the product of the trip counts of its enclosing loops.  The resulting
:class:`InstructionMix` is the input of the ERM-style roofline analysis and
is also used directly by tests (e.g. "the load/store analysis removes N
loads").

Divisions and square roots are charged once per distinct value, the way
the C compiler computes them: within one straight-line block, a repeat of
the same ``div``/``sqrt`` expression node is free while nothing it reads
has changed since its first occurrence.  An ``Assign`` to a register the
expression reads, or a ``Store``/``VStore`` to a buffer it loads from,
makes the next occurrence charged again, and the set of charged values
starts empty at every ``For``/``If`` boundary (as in
:mod:`repro.cir.passes.cse`).  Every other instruction is charged per
occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, Iterable, Tuple

from ..cir.nodes import (Assign, BinOp, CExpr, Comment, CStmt, For, Function,
                         If, Load, ScalarVar, Store, UnOp, VBinOp, VBlend,
                         VBroadcast, VecVar, VExtract, VFma, VLoad,
                         VPermute2f128, VReduceAdd, VSet, VShufflePd, VStore,
                         VUnpack, VZero)


@dataclass
class InstructionMix:
    """Dynamic instruction counts of one generated kernel."""

    # floating-point arithmetic (instruction counts, not flops)
    vector_add: float = 0.0
    vector_mul: float = 0.0
    vector_fma: float = 0.0
    vector_div: float = 0.0
    scalar_add: float = 0.0
    scalar_mul: float = 0.0
    scalar_div: float = 0.0
    scalar_sqrt: float = 0.0
    # memory
    vector_loads: float = 0.0
    vector_stores: float = 0.0
    scalar_loads: float = 0.0
    scalar_stores: float = 0.0
    # data rearrangement
    shuffles: float = 0.0
    blends: float = 0.0
    broadcasts: float = 0.0
    extracts: float = 0.0
    reductions: float = 0.0

    vector_width: int = 4

    # -- derived quantities -------------------------------------------------

    @property
    def flops(self) -> float:
        """Double-precision floating-point operations actually executed."""
        w = self.vector_width
        return (w * (self.vector_add + self.vector_mul + self.vector_div)
                + 2 * w * self.vector_fma
                + self.scalar_add + self.scalar_mul + self.scalar_div
                + self.scalar_sqrt
                + (w - 1) * self.reductions)

    @property
    def mul_issues(self) -> float:
        return self.vector_mul + self.vector_fma + self.scalar_mul

    @property
    def add_issues(self) -> float:
        # a horizontal reduction needs ~2 additional add-type issues
        return (self.vector_add + self.vector_fma + self.scalar_add
                + 2 * self.reductions)

    @property
    def div_sqrt_issues(self) -> float:
        return self.vector_div + self.scalar_div + self.scalar_sqrt

    @property
    def load_issues(self) -> float:
        return self.vector_loads + self.scalar_loads + self.broadcasts

    @property
    def store_issues(self) -> float:
        return self.vector_stores + self.scalar_stores

    @property
    def shuffle_issues(self) -> float:
        # a horizontal reduction needs ~2 lane-crossing shuffles
        return self.shuffles + self.extracts + 2 * self.reductions

    @property
    def blend_issues(self) -> float:
        return self.blends

    @property
    def total_issues(self) -> float:
        """All issued instructions (used for Table-4 style issue rates)."""
        return (self.mul_issues + self.add_issues + self.div_sqrt_issues
                + self.load_issues + self.store_issues + self.shuffle_issues
                + self.blend_issues)

    @property
    def issues_excluding_memory(self) -> float:
        return self.total_issues - self.load_issues - self.store_issues

    # -- arithmetic ----------------------------------------------------------

    def scaled(self, factor: float) -> "InstructionMix":
        result = InstructionMix(vector_width=self.vector_width)
        for f in fields(self):
            if f.name == "vector_width":
                continue
            setattr(result, f.name, getattr(self, f.name) * factor)
        return result

    def __add__(self, other: "InstructionMix") -> "InstructionMix":
        result = InstructionMix(vector_width=max(self.vector_width,
                                                 other.vector_width))
        for f in fields(self):
            if f.name == "vector_width":
                continue
            setattr(result, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return result

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "vector_width"}


class _Issued:
    """The divisions and square roots already charged in one straight-line
    block, each with its inputs: ``("reg", name)`` for a register it reads
    and ``("buf", name)`` for a buffer it loads from."""

    def __init__(self) -> None:
        self.inputs: Dict[CExpr, FrozenSet[Tuple[str, str]]] = {}

    def first(self, node: CExpr) -> bool:
        """True (and remember ``node``) unless its value is still live."""
        if node in self.inputs:
            return False
        self.inputs[node] = frozenset(
            ("reg", child.name) if isinstance(child, (ScalarVar, VecVar))
            else ("buf", child.buffer.name)
            for child in node.walk()
            if isinstance(child, (ScalarVar, VecVar, Load, VLoad)))
        return True

    def kill(self, stmt: CStmt) -> None:
        """Forget every value ``stmt`` overwrites an input of."""
        if self.inputs:
            written = (("reg", stmt.dest.name) if isinstance(stmt, Assign)
                       else ("buf", stmt.buffer.name))
            # delete in place: rebuilding the dict would rehash every key,
            # and hashing a C-IR expression walks all of it
            for node in [node for node, inputs in self.inputs.items()
                         if written in inputs]:
                del self.inputs[node]


def _count_expression(expr: CExpr, mix: InstructionMix, weight: float,
                      issued: _Issued) -> None:
    for node in expr.walk():
        if isinstance(node, Load):
            mix.scalar_loads += weight
        elif isinstance(node, VLoad):
            mix.vector_loads += weight
        elif isinstance(node, VBroadcast):
            mix.broadcasts += weight
        elif isinstance(node, BinOp):
            if node.op in ("add", "sub", "max", "min"):
                mix.scalar_add += weight
            elif node.op == "mul":
                mix.scalar_mul += weight
            elif node.op == "div" and issued.first(node):
                mix.scalar_div += weight
        elif isinstance(node, UnOp):
            if node.op != "sqrt":
                mix.scalar_add += weight
            elif issued.first(node):
                mix.scalar_sqrt += weight
        elif isinstance(node, VBinOp):
            if node.op in ("add", "sub", "max", "min"):
                mix.vector_add += weight
            elif node.op == "mul":
                mix.vector_mul += weight
            elif node.op == "div" and issued.first(node):
                mix.vector_div += weight
        elif isinstance(node, VFma):
            mix.vector_fma += weight
        elif isinstance(node, VReduceAdd):
            mix.reductions += weight
        elif isinstance(node, VExtract):
            mix.extracts += weight
        elif isinstance(node, VBlend):
            mix.blends += weight
        elif isinstance(node, (VShufflePd, VPermute2f128, VUnpack)):
            mix.shuffles += weight
        elif isinstance(node, (VSet, VZero)):
            # vzeroall / set sequences: negligible, but VSet of k scalars
            # costs about k-1 lane insertions (counted as shuffles).
            if isinstance(node, VSet):
                mix.shuffles += weight * max(0, len(node.elements) - 1)


def _count_statements(stmts: Iterable[CStmt], mix: InstructionMix,
                      weight: float) -> None:
    issued = _Issued()
    for stmt in stmts:
        if isinstance(stmt, Comment):
            continue
        if isinstance(stmt, For):
            issued = _Issued()
            _count_statements(stmt.body, mix, weight * stmt.trip_count)
            continue
        if isinstance(stmt, If):
            # Both branches weighted by half: conditions in generated code
            # are leftovers guards that alternate.
            issued = _Issued()
            _count_statements(stmt.then_body, mix, weight * 0.5)
            _count_statements(stmt.else_body, mix, weight * 0.5)
            continue
        _count_expression(stmt.value, mix, weight, issued)
        if isinstance(stmt, Store):
            mix.scalar_stores += weight
        elif isinstance(stmt, VStore):
            mix.vector_stores += weight
        issued.kill(stmt)


def instruction_mix(function: Function) -> InstructionMix:
    """Compute the exact dynamic instruction mix of a C-IR function."""
    mix = InstructionMix(vector_width=max(function.vector_width, 1))
    _count_statements(function.body, mix, 1.0)
    return mix
