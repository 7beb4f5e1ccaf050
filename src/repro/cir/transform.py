"""Generic bottom-up transformation utilities for C-IR trees.

Passes are expressed as functions over expressions/statements; this module
provides the structural recursion so each pass only has to deal with the
node kinds it cares about.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .nodes import (Assign, BinOp, CExpr, CStmt, Load, Store, UnOp, VBinOp,
                    VBlend, VBroadcast, VExtract, VLoad, VPermute2f128,
                    VReduceAdd, VSet, VStore, VUnpack)

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


def substitute_indices(stmt: CStmt, bindings: Dict[str, int]) -> CStmt:
    """``stmt`` with ``bindings`` substituted for index variables in every
    affine index of a leaf statement (loop unrolling uses this).

    Returns ``stmt`` itself when no index changes, and shares every
    unchanged expression.  Does not recurse into the bodies of
    ``For``/``If``.
    """
    def fix_load(expr: CExpr) -> CExpr:
        if isinstance(expr, (Load, VLoad)):
            index = expr.index.substitute(bindings)
            if index is not expr.index:
                return type(expr)(**{**expr.__dict__, "index": index})
        return expr

    if isinstance(stmt, (Store, VStore)):
        index = stmt.index.substitute(bindings)
        value = map_expression(stmt.value, fix_load)
        if index is not stmt.index or value is not stmt.value:
            return type(stmt)(**{**stmt.__dict__, "index": index,
                                 "value": value})
        return stmt
    return map_statement_expressions(stmt, fix_load)
