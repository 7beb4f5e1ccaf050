"""Algebraic simplification of C-IR expressions.

Removes the identities that the mechanical sBLAC lowering tends to produce
(`x + 0`, `x * 1`, blends with trivial immediates, vector ops against a zero
vector, empty loops, ...).  Running this before the machine-model analysis
avoids counting instructions a C compiler would never emit.
"""

from __future__ import annotations

from typing import List

from ..nodes import (BinOp, CExpr, CStmt, FloatConst, For, If, UnOp, VBinOp,
                     VBlend, VZero)
from ..transform import map_statement_expressions


def _is_zero(expr: CExpr) -> bool:
    return (isinstance(expr, FloatConst) and expr.value == 0.0) or \
        isinstance(expr, VZero)


def _is_one(expr: CExpr) -> bool:
    return isinstance(expr, FloatConst) and expr.value == 1.0


def simplify_expression(expr: CExpr) -> CExpr:
    """Apply local algebraic identities to a single node (children already
    simplified by the bottom-up driver)."""
    if isinstance(expr, BinOp):
        left, right = expr.left, expr.right
        if isinstance(left, FloatConst) and isinstance(right, FloatConst):
            value = {"add": left.value + right.value,
                     "sub": left.value - right.value,
                     "mul": left.value * right.value}.get(expr.op)
            if value is not None:
                return FloatConst(value)
            if expr.op == "div" and right.value != 0.0:
                return FloatConst(left.value / right.value)
        if expr.op == "add":
            if _is_zero(left):
                return right
            if _is_zero(right):
                return left
        if expr.op == "sub" and _is_zero(right):
            return left
        if expr.op == "mul":
            if _is_one(left):
                return right
            if _is_one(right):
                return left
            if _is_zero(left) or _is_zero(right):
                return FloatConst(0.0)
        if expr.op == "div" and _is_one(right):
            return left
    if isinstance(expr, UnOp) and expr.op == "neg":
        if isinstance(expr.operand, FloatConst):
            return FloatConst(-expr.operand.value)
    if isinstance(expr, VBinOp):
        left, right = expr.left, expr.right
        if expr.op == "add":
            if _is_zero(left):
                return right
            if _is_zero(right):
                return left
        if expr.op == "sub" and _is_zero(right):
            return left
        if expr.op == "mul" and (_is_zero(left) or _is_zero(right)):
            return VZero(expr.width)
    if isinstance(expr, VBlend):
        lane_mask = (1 << expr.width) - 1
        if expr.imm & lane_mask == 0:
            return expr.a
        if expr.imm & lane_mask == lane_mask:
            return expr.b
    return expr


def simplify(stmts: List[CStmt]) -> List[CStmt]:
    """Simplify expressions everywhere and drop empty loops/branches.

    One walk: each leaf statement's expressions are simplified once, and
    each ``For``/``If`` body is recursed into once.
    """
    result: List[CStmt] = []
    for stmt in stmts:
        if isinstance(stmt, For):
            if stmt.trip_count <= 0:
                continue
            body = simplify(stmt.body)
            if body:
                result.append(For(stmt.var, stmt.start, stmt.stop, stmt.step,
                                  body))
        elif isinstance(stmt, If):
            then_body = simplify(stmt.then_body)
            else_body = simplify(stmt.else_body)
            if then_body or else_body:
                result.append(If(stmt.lhs, stmt.op, stmt.rhs, then_body,
                                 else_body))
        else:
            result.append(map_statement_expressions(stmt,
                                                    simplify_expression))
    return result
