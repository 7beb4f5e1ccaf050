"""Generic bottom-up transformation utilities for C-IR trees.

Passes are expressed as functions over expressions/statements; this module
provides the structural recursion so each pass only has to deal with the
node kinds it cares about.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Dict, Tuple

from .nodes import (Assign, BinOp, CExpr, CStmt, Load, Store, UnOp, VBinOp,
                    VBlend, VBroadcast, VExtract, VLoad, VPermute2f128,
                    VReduceAdd, VSet, VStore, VUnpack)

ExprFn = Callable[[CExpr], CExpr]


#: Field names per node class, in order (filled on first rebuild).
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _rebuild(node, changes: Dict[str, object]):
    """``node`` with ``changes`` to some of its fields.

    The copy is made with ``object.__new__`` and its fields set one by
    one with ``object.__setattr__``, skipping the frozen dataclass
    ``__init__`` (and so ``__post_init__``): a rebuild changes only
    child expressions, a statement's ``value`` or an ``index``, never a
    field that ``__post_init__`` checks.  Neither node's ``__dict__`` is
    touched: CPython keeps the fields of an instance whose ``__dict__``
    was never asked for in a compact inline form that later attribute
    reads are several times faster on.
    """
    kind = type(node)
    names = _FIELDS.get(kind)
    if names is None:
        names = _FIELDS[kind] = tuple(f.name for f in fields(kind))
    new = object.__new__(kind)
    for name in names:
        object.__setattr__(new, name, changes[name] if name in changes
                           else getattr(node, name))
    return new


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

#: The statement types that hold a value expression.
_VALUE_STATEMENTS = frozenset((Assign, Store, VStore))


def map_expression(expr: CExpr, fn: ExprFn) -> CExpr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been transformed and
    returns the (possibly new) node.  A node none of whose children changed
    is passed to ``fn`` as is, so an identity ``fn`` returns ``expr`` itself.
    """
    child_fields = _CHILD_FIELDS.get(type(expr))
    if child_fields is not None:
        changed = None
        for name in child_fields:
            child = getattr(expr, name)
            mapped = map_expression(child, fn)
            if mapped is not child:
                if changed is None:
                    changed = {}
                changed[name] = mapped
        if changed is not None:
            expr = _rebuild(expr, changed)
    elif type(expr) is VSet:
        elements = tuple(map_expression(e, fn) for e in expr.elements)
        if any(new is not old for new, old in zip(elements, expr.elements)):
            expr = _rebuild(expr, {"elements": elements})
    return fn(expr)


def map_statement_expressions(stmt: CStmt, fn: ExprFn) -> CStmt:
    """Apply ``fn`` (via :func:`map_expression`) to the value expression of a
    single statement.  Returns ``stmt`` itself when the value is unchanged,
    else a new statement.  Does not recurse into the body of a ``For``."""
    if type(stmt) in _VALUE_STATEMENTS:
        value = map_expression(stmt.value, fn)
        if value is not stmt.value:
            return _rebuild(stmt, {"value": value})
    return stmt


def substitute_indices(stmt: CStmt, bindings: Dict[str, int]) -> CStmt:
    """``stmt`` with ``bindings`` substituted for index variables in every
    affine index of a leaf statement (loop unrolling uses this).

    Returns ``stmt`` itself when no index changes, and shares every
    unchanged expression.  Does not recurse into the body of a ``For``.
    """
    def fix_load(expr: CExpr) -> CExpr:
        if type(expr) is Load or type(expr) is VLoad:
            index = expr.index.substitute(bindings)
            if index is not expr.index:
                return _rebuild(expr, {"index": index})
        return expr

    if type(stmt) is Store or type(stmt) is VStore:
        index = stmt.index.substitute(bindings)
        value = map_expression(stmt.value, fix_load)
        if index is not stmt.index or value is not stmt.value:
            return _rebuild(stmt, {"index": index, "value": value})
        return stmt
    return map_statement_expressions(stmt, fix_load)
