"""The catalog of candidate *unsound* rewrites over basic programs.

Every transform here is a pure function ``Program -> Program | None``:
``None`` means "does not apply to this program"; otherwise a **new**
program is returned and the input is left untouched.  Transforms are
deterministic and idempotent (applying one to its own output returns
``None``), which the tier-1 suite checks over the whole fuzz corpus.

None of these rewrites is safe in general -- each changes rounding,
exploits an assumed structural property, or reorders memory traffic.
That is the point: the CEGIS loop (:mod:`repro.cegis.loop`) applies a
transform to one concrete program instance and keeps it **only** when
the differential oracle cannot refute the result within its input
budget.  The catalog:

``tri-unit-diag``
    Triangle shortcut: drop divisions by a diagonal element of a square
    operand, assuming the diagonal is exactly 1.  Valid for
    unit-diagonal triangular systems; genuinely wrong otherwise (the
    designated refutation workhorse).
``fma-chain``
    Reassociate long +/- chains into sum-of-positives minus
    sum-of-negatives, right-nested -- the shape FMA contraction and
    vector reduction like.  Changes the rounding order.
``recip-div``
    Strength reduction ``x = b / d  ->  t = 1/d; x = t * b`` for scalar
    divisions with a non-constant divisor, sharing the reciprocal
    across statements with the same divisor.  One rounding per use
    becomes two.
``factor-scalar``
    Common-scalar factoring ``(t*A) - (t*B) -> t * (A - B)`` over +/-
    chains whose terms all scale by the same scalar.  Distributivity is
    not exact in floats.
``fuse-scalar``
    Fuse adjacent single-consumer scalar temporaries into their one
    consumer (forward substitution), deleting the defining statement.
    Reorders evaluation relative to surrounding writes.
``cse-hoist``
    Cross-statement CSE: a scalar statement recomputing an earlier
    statement's exact right-hand side (no intervening clobber of its
    inputs) becomes a copy from the earlier destination.

Hazard checks are storage-group aware (``ow`` aliasing resolved through
:meth:`~repro.ir.program.Program.storage_groups`), but they are *local*
safeguards, not proofs -- the oracle has the final word.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import CegisError
from ..ir.expr import (Add, Const, Div, Expr, Mul, Neg, Ref, Sub, _Binary,
                       _Unary, flatten_add)
from ..ir.operands import IOType, Operand, Scratch, View
from ..ir.program import Assign, Program, Statement

#: Iteration bound for the internal fixpoint loops (generous; basic
#: programs have at most a few hundred statements).
_FIXPOINT_LIMIT = 200


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _clone(program: Program) -> Program:
    """An independent deep copy (statements keep referencing the *copied*
    operand objects, so ``Program.add``'s identity checks still hold)."""
    return copy.deepcopy(program)


def _views_clash(a: View, b: View, leaders: Dict[str, str]) -> bool:
    """Do two views touch the same storage (``ow`` chains resolved)?"""
    la = leaders.get(a.operand.name, a.operand.name)
    lb = leaders.get(b.operand.name, b.operand.name)
    if la != lb:
        return False
    return not (a.row_off + a.rows <= b.row_off
                or b.row_off + b.rows <= a.row_off
                or a.col_off + a.cols <= b.col_off
                or b.col_off + b.cols <= a.col_off)


def _clashes_any(view: View, others: Iterable[View],
                 leaders: Dict[str, str]) -> bool:
    return any(_views_clash(view, other, leaders) for other in others)


def _fresh_scalar(program: Program, prefix: str) -> View:
    """Declare a fresh 1x1 scratch temporary with an unused name."""
    for index in itertools.count():
        name = f"{prefix}{index}"
        if name not in program.operands:
            operand = Scratch(name, 1, 1)
            program.declare(operand)
            return operand.full_view()
    raise AssertionError("unreachable")  # pragma: no cover


def _map_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` with ``fn`` applied to every child subtree."""
    if isinstance(expr, _Binary):
        return type(expr)(fn(expr.left), fn(expr.right))
    if isinstance(expr, _Unary):
        return type(expr)(fn(expr.child))
    return expr


# ---------------------------------------------------------------------------
# tri-unit-diag
# ---------------------------------------------------------------------------


def _is_diagonal_element(view: View) -> bool:
    return (view.rows == 1 and view.cols == 1
            and view.row_off == view.col_off
            and view.operand.rows == view.operand.cols
            and view.operand.rows > 1)


def _tri_unit_diag(program: Program) -> Optional[Program]:
    """Assume square operands carry a unit diagonal: ``x = b / D[k,k]``
    loses its division.  Sound only for genuinely unit-diagonal data."""
    out = _clone(program)
    changed = False
    statements: List[Statement] = []
    for statement in out.statements:
        if isinstance(statement, Assign) and isinstance(statement.rhs, Div) \
                and isinstance(statement.rhs.right, Ref) \
                and _is_diagonal_element(statement.rhs.right.view):
            statements.append(Assign(statement.lhs, statement.rhs.left))
            changed = True
        else:
            statements.append(statement)
    if not changed:
        return None
    out.statements = statements
    return out


# ---------------------------------------------------------------------------
# fma-chain
# ---------------------------------------------------------------------------


def _right_sum(terms: List[Expr]) -> Expr:
    total = terms[-1]
    for term in reversed(terms[:-1]):
        total = Add(term, total)
    return total


def _reassociate(expr: Expr) -> Expr:
    if isinstance(expr, (Add, Sub, Neg)):
        terms = [(sign, _map_expr(term, _reassociate))
                 for sign, term in flatten_add(expr)]
        if len(terms) >= 3:
            positive = [term for sign, term in terms if sign > 0]
            negative = [term for sign, term in terms if sign < 0]
            if not negative:
                return _right_sum(positive)
            if not positive:
                return Neg(_right_sum(negative))
            return Sub(_right_sum(positive), _right_sum(negative))
        # short chains keep their structure (terms still rebuilt)
    return _map_expr(expr, _reassociate)


def _fma_chain(program: Program) -> Optional[Program]:
    """Reassociate every +/- chain of >= 3 terms into
    ``(p0+(p1+...)) - (n0+(n1+...))``: positives and negatives each
    right-nested, FMA/reduction shaped.  Changes rounding order."""
    out = _clone(program)
    changed = False
    statements: List[Statement] = []
    for statement in out.statements:
        if isinstance(statement, Assign):
            rebuilt = _reassociate(statement.rhs)
            if rebuilt != statement.rhs:
                statement = Assign(statement.lhs, rebuilt)
                changed = True
        statements.append(statement)
    if not changed:
        return None
    out.statements = statements
    return out


# ---------------------------------------------------------------------------
# recip-div
# ---------------------------------------------------------------------------


def _recip_div(program: Program) -> Optional[Program]:
    """``x = b / d`` (non-constant scalar divisor, non-constant
    numerator) becomes ``t = 1/d; x = t * b``, reusing ``t`` across
    statements whose divisor is syntactically identical and whose
    inputs were not overwritten in between."""
    from ..service.keys import _canonical_expr
    out = _clone(program)
    leaders = out.storage_groups()
    changed = False
    statements: List[Statement] = []
    # canonical divisor text -> (reciprocal view, divisor read views)
    memo: Dict[str, Tuple[View, List[View]]] = {}
    for statement in out.statements:
        if isinstance(statement, Assign) and isinstance(statement.rhs, Div) \
                and not isinstance(statement.rhs.right, Const) \
                and not isinstance(statement.rhs.left, Const):
            divisor = statement.rhs.right
            canon = _canonical_expr(divisor)
            entry = memo.get(canon)
            if entry is None:
                tau = _fresh_scalar(out, "cg_r")
                statements.append(Assign(tau, Div(Const(1.0), divisor)))
                memo[canon] = (tau, divisor.views())
            else:
                tau = entry[0]
            statements.append(Assign(statement.lhs,
                                     Mul(Ref(tau), statement.rhs.left)))
            changed = True
        else:
            statements.append(statement)
        # invalidate memoized reciprocals whose divisor inputs this
        # statement (or the rewritten pair above) just overwrote
        for write in statements[-1].writes():
            memo = {canon: entry for canon, entry in memo.items()
                    if not _clashes_any(write, entry[1], leaders)}
    if not changed:
        return None
    out.statements = statements
    return out


# ---------------------------------------------------------------------------
# factor-scalar
# ---------------------------------------------------------------------------


def _signed_chain(terms: List[Tuple[int, Expr]]) -> Expr:
    sign, term = terms[0]
    total = Neg(term) if sign < 0 else term
    for sign, term in terms[1:]:
        total = Sub(total, term) if sign < 0 else Add(total, term)
    return total


def _factor(expr: Expr) -> Expr:
    if isinstance(expr, (Add, Sub)):
        terms = [(sign, _factor(term))
                 for sign, term in flatten_add(expr)]
        if len(terms) >= 2 \
                and all(isinstance(term, Mul) and isinstance(term.left, Ref)
                        and term.left.is_scalar for _, term in terms):
            scalars = [term.left for _, term in terms]
            if all(scalar == scalars[0] for scalar in scalars[1:]):
                inner = _signed_chain([(sign, term.right)
                                       for sign, term in terms])
                return Mul(scalars[0], inner)
    return _map_expr(expr, _factor)


def _factor_scalar(program: Program) -> Optional[Program]:
    """``(t*A) - (t*B) + (t*C) ... -> t * (A - B + C ...)`` whenever all
    terms of a +/- chain scale by the same scalar.  Distributivity does
    not hold exactly in floating point."""
    out = _clone(program)
    changed = False
    statements: List[Statement] = []
    for statement in out.statements:
        if isinstance(statement, Assign):
            rebuilt = _factor(statement.rhs)
            if rebuilt != statement.rhs:
                statement = Assign(statement.lhs, rebuilt)
                changed = True
        statements.append(statement)
    if not changed:
        return None
    out.statements = statements
    return out


# ---------------------------------------------------------------------------
# fuse-scalar
# ---------------------------------------------------------------------------


def _substitute_ref(expr: Expr, target: Operand, replacement: Expr) -> Expr:
    if isinstance(expr, Ref) and expr.view.operand is target:
        return replacement
    return _map_expr(expr, lambda child: _substitute_ref(child, target,
                                                         replacement))


def _fuse_once(program: Program) -> bool:
    """Inline one single-def single-use scalar temporary; True if fused."""
    leaders = program.storage_groups()
    statements = program.statements
    for operand in program.operands.values():
        if not (operand.is_scalar and operand.io is IOType.OUT
                and operand.overwrites is None):
            continue
        defs = [index for index, statement in enumerate(statements)
                if isinstance(statement, Assign)
                and statement.lhs.operand is operand]
        uses = [(index, sum(1 for view in statement.reads()
                            if view.operand is operand))
                for index, statement in enumerate(statements)
                if any(view.operand is operand
                       for view in statement.reads())]
        if len(defs) != 1 or len(uses) != 1 or uses[0][1] != 1:
            continue
        def_index, use_index = defs[0], uses[0][0]
        if use_index <= def_index:
            continue
        use = statements[use_index]
        if not isinstance(use, Assign):
            continue
        definition = statements[def_index]
        def_reads = definition.rhs.views()
        if any(view.operand is operand for view in def_reads):
            continue  # self-referential definition
        hazard = False
        for between in statements[def_index + 1:use_index]:
            for write in between.writes():
                if _clashes_any(write, def_reads + [definition.lhs],
                                leaders):
                    hazard = True
                    break
            if hazard:
                break
        # the consumer's own write must not feed the substituted reads
        if hazard or _clashes_any(use.lhs, def_reads, leaders):
            continue
        fused = _substitute_ref(use.rhs, operand, definition.rhs)
        program.statements = (statements[:def_index]
                              + statements[def_index + 1:use_index]
                              + [Assign(use.lhs, fused)]
                              + statements[use_index + 1:])
        return True
    return False


def _fuse_scalar(program: Program) -> Optional[Program]:
    """Forward-substitute scalar temporaries with exactly one definition
    and one consumer, deleting the defining statement (its declaration
    stays; dead stores are the later passes' business).  Runs to a
    fixpoint so the transform is idempotent."""
    out = _clone(program)
    changed = False
    for _ in range(_FIXPOINT_LIMIT):
        if not _fuse_once(out):
            break
        changed = True
    return out if changed else None


# ---------------------------------------------------------------------------
# cse-hoist
# ---------------------------------------------------------------------------


def _cse_hoist(program: Program) -> Optional[Program]:
    """A scalar statement recomputing an earlier statement's exact RHS
    (inputs not clobbered in between) becomes a copy of the earlier
    destination: ``t7 = 1/U[3,3]`` after ``t6 = 1/U[3,3]`` turns into
    ``t7 = t6``."""
    from ..service.keys import _canonical_expr
    out = _clone(program)
    leaders = out.storage_groups()
    changed = False
    # canonical rhs -> (source lhs view, rhs read views)
    memo: Dict[str, Tuple[View, List[View]]] = {}
    statements: List[Statement] = []
    for statement in out.statements:
        if isinstance(statement, Assign) and statement.lhs.is_scalar \
                and not isinstance(statement.rhs, (Ref, Const)):
            canon = _canonical_expr(statement.rhs)
            entry = memo.get(canon)
            if entry is not None:
                statement = Assign(statement.lhs, Ref(entry[0]))
                changed = True
        statements.append(statement)
        writes = statement.writes()
        memo = {canon: entry for canon, entry in memo.items()
                if not any(_clashes_any(write, entry[1] + [entry[0]],
                                        leaders) for write in writes)}
        if isinstance(statement, Assign) and statement.lhs.is_scalar \
                and not isinstance(statement.rhs, (Ref, Const)):
            reads = statement.rhs.views()
            if not _clashes_any(statement.lhs, reads, leaders):
                memo[_canonical_expr(statement.rhs)] = (statement.lhs,
                                                        reads)
    if not changed:
        return None
    out.statements = statements
    return out


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rewrite:
    """One catalog entry: a stable id, a summary, and the pure transform."""

    id: str
    summary: str
    transform: Callable[[Program], Optional[Program]]

    def apply(self, program: Program) -> Optional[Program]:
        """The transformed program, or ``None`` when inapplicable.  The
        input program is never mutated."""
        return self.transform(program)


#: Catalog order is the CEGIS proposal order.  ``tri-unit-diag`` goes
#: first on purpose: it is the rewrite most likely to be refuted, and an
#: early refutation seeds the counterexample list that every later
#: candidate must survive before fresh draws are spent.
_CATALOG: Tuple[Rewrite, ...] = (
    Rewrite("tri-unit-diag",
            "skip divisions by the diagonal of a square operand "
            "(assumes a unit diagonal)", _tri_unit_diag),
    Rewrite("fma-chain",
            "reassociate long +/- chains into FMA/reduction shape "
            "(positives minus negatives, right-nested)", _fma_chain),
    Rewrite("recip-div",
            "strength-reduce scalar division to reciprocal + multiply, "
            "sharing reciprocals per divisor", _recip_div),
    Rewrite("factor-scalar",
            "factor a common scalar multiplier out of +/- chains",
            _factor_scalar),
    # cse-hoist must precede fuse-scalar: hoisting needs the duplicate
    # scalar definitions that fusing would inline away.
    Rewrite("cse-hoist",
            "replace recomputed scalar right-hand sides with a copy of "
            "the earlier result", _cse_hoist),
    Rewrite("fuse-scalar",
            "inline single-definition single-use scalar temporaries "
            "into their consumer", _fuse_scalar),
)


def catalog() -> Tuple[Rewrite, ...]:
    """Every candidate rewrite, in proposal order."""
    return _CATALOG


def known_ids() -> Tuple[str, ...]:
    return tuple(rewrite.id for rewrite in _CATALOG)


def get_rewrite(rewrite_id: str) -> Rewrite:
    for rewrite in _CATALOG:
        if rewrite.id == rewrite_id:
            return rewrite
    raise CegisError(
        f"unknown rewrite id {rewrite_id!r} (known: "
        f"{', '.join(known_ids())})")


def apply_sequence(rewrite_ids: Iterable[str], program: Program) -> Program:
    """Apply a sequence of rewrites by id, skipping inapplicable ones.

    Always returns a program (the input itself when nothing fired); the
    input is never mutated.  This is what the generator calls for
    ``Options.verified_rewrites``, so banked ids replay identically here
    and in the CEGIS loop.
    """
    current = program
    for rewrite_id in rewrite_ids:
        result = get_rewrite(rewrite_id).apply(current)
        if result is not None:
            current = result
    return current
