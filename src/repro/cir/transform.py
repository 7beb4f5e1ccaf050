"""Generic bottom-up transformation utilities for C-IR trees.

Passes are expressed as functions over expressions/statements; this module
provides the structural recursion so each pass only has to deal with the
node kinds it cares about.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .nodes import (Affine, Assign, BinOp, CExpr, CStmt, For, If, Load,
                    Store, UnOp, VBinOp, VBlend, VBroadcast, VExtract, VLoad,
                    VPermute2f128, VReduceAdd, VSet, VStore, VUnpack)

ExprFn = Callable[[CExpr], CExpr]

# Nodes are rebuilt as ``type(node)(**{**node.__dict__, **changes})``:
# ``dataclasses.replace`` without its per-field checks.  Every C-IR node
# field is an init field held in the instance ``__dict__``
# (``tests/test_cir.py`` asserts this for every node class).


#: The fields holding child expressions, per composite expression type
#: (``VSet`` keeps its children in a tuple and is handled separately).
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    VBroadcast: ("value",),
    BinOp: ("left", "right"),
    UnOp: ("operand",),
    VBinOp: ("left", "right"),
    VReduceAdd: ("vec",),
    VExtract: ("vec",),
    VBlend: ("a", "b"),
    VPermute2f128: ("a", "b"),
    VUnpack: ("a", "b"),
}


def map_expression(expr: CExpr, fn: ExprFn) -> CExpr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been transformed and
    returns the (possibly new) node.  A node none of whose children changed
    is passed to ``fn`` as is, so an identity ``fn`` returns ``expr`` itself.
    """
    fields = _CHILD_FIELDS.get(type(expr))
    if fields is not None:
        changed = {}
        for name in fields:
            child = getattr(expr, name)
            mapped = map_expression(child, fn)
            if mapped is not child:
                changed[name] = mapped
        if changed:
            expr = type(expr)(**{**expr.__dict__, **changed})
    elif isinstance(expr, VSet):
        elements = tuple(map_expression(e, fn) for e in expr.elements)
        if any(new is not old for new, old in zip(elements, expr.elements)):
            expr = VSet(elements)
    return fn(expr)


def map_statement_expressions(stmt: CStmt, fn: ExprFn) -> CStmt:
    """Apply ``fn`` (via :func:`map_expression`) to the value expression of a
    single statement.  Returns ``stmt`` itself when the value is unchanged,
    else a new statement.  Does not recurse into the bodies of
    ``For``/``If``."""
    if isinstance(stmt, (Assign, Store, VStore)):
        value = map_expression(stmt.value, fn)
        if value is not stmt.value:
            return type(stmt)(**{**stmt.__dict__, "value": value})
    return stmt


def transform_block(stmts: List[CStmt], expr_fn: Optional[ExprFn] = None,
                    index_subst: Optional[Dict[str, int]] = None) -> List[CStmt]:
    """A new statement list with an expression transform and/or an
    index-variable substitution applied.

    ``index_subst`` replaces index variables with constants in every affine
    index (loop unrolling uses this).  Statements and expressions the
    transform leaves unchanged are shared with ``stmts``, not copied;
    ``For``/``If`` are always rebuilt around new body lists.
    """
    def fix_affine(affine: Affine) -> Affine:
        if not index_subst:
            return affine
        return affine.substitute(index_subst)

    def fix_expr(expr: CExpr) -> CExpr:
        if index_subst and isinstance(expr, (Load, VLoad)):
            index = fix_affine(expr.index)
            if index is not expr.index:
                expr = type(expr)(**{**expr.__dict__, "index": index})
        if expr_fn is not None:
            expr = expr_fn(expr)
        return expr

    result: List[CStmt] = []
    for stmt in stmts:
        if isinstance(stmt, For):
            result.append(For(stmt.var, stmt.start, stmt.stop, stmt.step,
                              transform_block(stmt.body, expr_fn, index_subst)))
        elif isinstance(stmt, If):
            result.append(If(fix_affine(stmt.lhs), stmt.op, fix_affine(stmt.rhs),
                             transform_block(stmt.then_body, expr_fn,
                                             index_subst),
                             transform_block(stmt.else_body, expr_fn,
                                             index_subst)))
        elif isinstance(stmt, (Store, VStore)):
            index = fix_affine(stmt.index)
            value = map_expression(stmt.value, fix_expr)
            if index is not stmt.index or value is not stmt.value:
                stmt = type(stmt)(**{**stmt.__dict__, "index": index,
                                      "value": value})
            result.append(stmt)
        else:
            result.append(map_statement_expressions(stmt, fix_expr))
    return result
