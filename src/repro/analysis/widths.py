"""Type/width consistency checking over C-IR expressions.

The vector ISA contract (mirroring the AVX semantics the interpreter
and the C unparser implement):

* the function's ``vector_width`` is 1, 2, or 4 and every vector-valued
  node agrees with it -- no mixed-width blends/shuffles anywhere;
* scalar operators (``BinOp``/``UnOp``) take width-1 operands,
  ``VReduceAdd``/``VExtract`` take a full-width vector and yield width 1;
* ``VSet`` supplies exactly ``width`` scalar elements; masks have
  exactly ``width`` lanes; blend immediates fit in ``width`` bits;
  ``VPermute2f128`` only exists on 256-bit (width-4) vectors;
* ``Assign`` destinations match their value's width, and each register
  name keeps one kind/width for the whole function.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cir.nodes import (Assign, BinOp, CExpr, CStmt, FloatConst, Function,
                         Load, ScalarVar, Store, UnOp, VBinOp, VBlend,
                         VBroadcast, VecVar, VExtract, VLoad, VPermute2f128,
                         VReduceAdd, VSet, VStore, VUnpack, VZero)
from .diagnostics import Diagnostic

PASS = "widths"
VALID_WIDTHS = (1, 2, 4)


def _err(message: str, location: str = "") -> Diagnostic:
    return Diagnostic(PASS, "error", message, location)


def check_widths(fn: Function) -> List[Diagnostic]:
    """All width-consistency diagnostics for one function."""
    diags: List[Diagnostic] = []
    width = fn.vector_width
    if width not in VALID_WIDTHS:
        diags.append(_err(f"function vector_width {width} is not one of "
                          f"{VALID_WIDTHS}", fn.name))
        return diags

    # each register name must keep a single (kind, width) signature
    registers: Dict[str, Tuple[str, int]] = {}

    def note_register(node: CExpr, location: str) -> None:
        kind = "vec" if isinstance(node, VecVar) else "scalar"
        signature = (kind, node.width)
        name = node.name  # type: ignore[attr-defined]
        previous = registers.setdefault(name, signature)
        if previous != signature:
            diags.append(_err(
                f"register {name!r} used as {kind} width {node.width} "
                f"but previously as {previous[0]} width {previous[1]}",
                location))

    def check_expr(expr: CExpr, location: str) -> None:
        for node in expr.walk():
            if isinstance(node, (ScalarVar, VecVar)):
                note_register(node, location)
            if isinstance(node, ScalarVar) and node.width != 1:
                diags.append(_err(f"scalar register {node.name!r} has "
                                  f"width {node.width}", location))
            elif isinstance(node, VecVar) and node.width != width:
                diags.append(_err(
                    f"vector register {node.name!r} has width "
                    f"{node.width}, function width is {width}", location))
            elif isinstance(node, FloatConst) and node.width != 1:
                diags.append(_err("float constant must have width 1",
                                  location))
            elif isinstance(node, Load) and node.width != 1:
                diags.append(_err("scalar load must have width 1", location))
            elif isinstance(node, VLoad):
                if node.width != width:
                    diags.append(_err(
                        f"vload width {node.width} != function width "
                        f"{width}", location))
                if node.mask is not None and len(node.mask) != node.width:
                    diags.append(_err(
                        f"vload mask has {len(node.mask)} lanes for "
                        f"width {node.width}", location))
            elif isinstance(node, VBroadcast):
                if node.width != width:
                    diags.append(_err(
                        f"vbroadcast width {node.width} != function "
                        f"width {width}", location))
                if node.value.width != 1:
                    diags.append(_err("vbroadcast of a non-scalar value",
                                      location))
            elif isinstance(node, VSet):
                if node.width != width:
                    diags.append(_err(
                        f"vset has {node.width} elements, function "
                        f"width is {width}", location))
                for element in node.elements:
                    if element.width != 1:
                        diags.append(_err("vset element is not scalar",
                                          location))
            elif isinstance(node, VZero) and node.width != width:
                diags.append(_err(f"vzero width {node.width} != function "
                                  f"width {width}", location))
            elif isinstance(node, (BinOp, UnOp)):
                if node.width != 1:
                    diags.append(_err(f"scalar op {node.op!r} has width "
                                      f"{node.width}", location))
                for child in node.children():
                    if child.width != 1:
                        diags.append(_err(
                            f"scalar op {node.op!r} has a width-"
                            f"{child.width} operand", location))
            elif isinstance(node, VBinOp):
                if node.width != width:
                    diags.append(_err(
                        f"vector op width {node.width} != function "
                        f"width {width}", location))
                for child in node.children():
                    if child.width != node.width:
                        diags.append(_err(
                            f"vector op mixes widths {node.width} and "
                            f"{child.width}", location))
            elif isinstance(node, VReduceAdd):
                if node.width != 1:
                    diags.append(_err("vreduce_add result must be scalar",
                                      location))
                if node.vec.width != width:
                    diags.append(_err(
                        f"vreduce_add of width-{node.vec.width} vector "
                        f"in width-{width} function", location))
            elif isinstance(node, VExtract):
                if node.width != 1:
                    diags.append(_err("vextract result must be scalar",
                                      location))
                if node.vec.width != width:
                    diags.append(_err(
                        f"vextract from width-{node.vec.width} vector "
                        f"in width-{width} function", location))
                if not 0 <= node.lane < node.vec.width:
                    diags.append(_err(
                        f"vextract lane {node.lane} out of range for "
                        f"width {node.vec.width}", location))
            elif isinstance(node, (VBlend, VPermute2f128, VUnpack)):
                if node.width != width:
                    diags.append(_err(
                        f"{type(node).__name__} width {node.width} != "
                        f"function width {width}", location))
                for child in node.children():
                    if child.width != node.width:
                        diags.append(_err(
                            f"{type(node).__name__} mixes widths "
                            f"{node.width} and {child.width}", location))
                if isinstance(node, VBlend) and not (
                        0 <= node.imm < (1 << node.width)):
                    diags.append(_err(
                        f"blend immediate {node.imm:#x} does not fit in "
                        f"{node.width} bits", location))
                if isinstance(node, VPermute2f128) and node.width != 4:
                    diags.append(_err(
                        "permute2f128 requires 256-bit (width-4) vectors",
                        location))

    for stmt in fn.walk_statements():
        location = _location(stmt)
        if isinstance(stmt, Assign):
            note_register(stmt.dest, location)
            check_expr(stmt.value, location)
            if stmt.dest.width != stmt.value.width:
                diags.append(_err(
                    f"assignment to {stmt.dest.name!r} mixes widths "
                    f"{stmt.dest.width} and {stmt.value.width}", location))
            if isinstance(stmt.dest, ScalarVar) and stmt.dest.width != 1:
                diags.append(_err(f"scalar register {stmt.dest.name!r} "
                                  f"has width {stmt.dest.width}", location))
            if isinstance(stmt.dest, VecVar) and stmt.dest.width != width:
                diags.append(_err(
                    f"vector register {stmt.dest.name!r} has width "
                    f"{stmt.dest.width}, function width is {width}",
                    location))
        elif isinstance(stmt, Store):
            check_expr(stmt.value, location)
            if stmt.value.width != 1:
                diags.append(_err(
                    f"scalar store of a width-{stmt.value.width} value",
                    location))
        elif isinstance(stmt, VStore):
            check_expr(stmt.value, location)
            if stmt.width != width:
                diags.append(_err(f"vstore width {stmt.width} != function "
                                  f"width {width}", location))
            if stmt.value.width != stmt.width:
                diags.append(_err(
                    f"vstore of a width-{stmt.value.width} value into a "
                    f"width-{stmt.width} store", location))
            if stmt.mask is not None and len(stmt.mask) != stmt.width:
                diags.append(_err(
                    f"vstore mask has {len(stmt.mask)} lanes for width "
                    f"{stmt.width}", location))
    return diags


def _location(stmt: CStmt) -> str:
    text = repr(stmt)
    return text if len(text) <= 96 else text[:93] + "..."
