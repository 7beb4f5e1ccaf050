"""Normalization of sBLAC statements into canonical operations.

LGen compiles *single* sBLACs; an LA statement like ``Y = F*P*F^T + Q`` first
has to be decomposed into a sequence of canonical operations (binary matrix
products, scaled copies, scalar assignments), introducing temporary operands
for intermediate results.  This module performs that decomposition:

* additive terms are split (``flatten_add``),
* transposes are pushed down to the leaves (``(A*B)^T -> B^T * A^T``),
* scalar factors (including reciprocals coming from rule R1) are collected
  into a symbolic coefficient,
* matrix product chains are associated with the classic matrix-chain dynamic
  program to minimize flops, and
* in-place updates (``C = C - A*B``) are detected so no temporary copy of the
  output is needed.

The result is a list of :class:`CanonicalOp` objects that the lowering in
:mod:`repro.lgen.lowering` knows how to turn into C-IR.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import LoweringError
from ..ir.expr import (Add, Const, Div, Expr, Inverse, Mul, Neg, Ref, Sqrt,
                       Sub, Transpose, flatten_add)
from ..ir.operands import Operand, Scratch, View
from ..ir.program import Assign

# ---------------------------------------------------------------------------
# Canonical operations
# ---------------------------------------------------------------------------


@dataclass
class ScalarCoeff:
    """A product of scalar factors ``sign * prod(factor or 1/factor)``.

    Factors are either floats or 1x1 views.  ``is_one`` lets the emitters
    skip the multiplication entirely for the common ``alpha = 1`` case.
    """

    sign: int = 1
    factors: List[Tuple[Union[View, float], bool]] = field(default_factory=list)

    def scaled_by(self, factor: Union[View, float],
                  reciprocal: bool = False) -> "ScalarCoeff":
        new = ScalarCoeff(self.sign, list(self.factors))
        new.factors.append((factor, reciprocal))
        return new

    def negated(self) -> "ScalarCoeff":
        return ScalarCoeff(-self.sign, list(self.factors))

    @property
    def is_one(self) -> bool:
        return self.sign == 1 and not self.factors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [] if self.sign == 1 else ["-1"]
        for factor, recip in self.factors:
            text = repr(factor) if isinstance(factor, View) else f"{factor:g}"
            parts.append(f"1/({text})" if recip else text)
        return " * ".join(parts) if parts else "1"


@dataclass
class MatMulOp:
    """``dest (accumulate)= alpha * op(A) * op(B)``."""

    dest: View
    accumulate: int              # 0: assign, +1: add into dest, -1: subtract
    a: View
    trans_a: bool
    b: View
    trans_b: bool
    alpha: ScalarCoeff = field(default_factory=ScalarCoeff)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        op = {0: "=", 1: "+=", -1: "-="}[self.accumulate]
        ta = "^T" if self.trans_a else ""
        tb = "^T" if self.trans_b else ""
        return (f"{self.dest!r} {op} {self.alpha!r} * {self.a!r}{ta} "
                f"* {self.b!r}{tb}")


@dataclass
class ScaleCopyOp:
    """``dest (accumulate)= alpha * op(src)`` (element-wise)."""

    dest: View
    accumulate: int
    src: View
    trans: bool
    alpha: ScalarCoeff = field(default_factory=ScalarCoeff)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        op = {0: "=", 1: "+=", -1: "-="}[self.accumulate]
        t = "^T" if self.trans else ""
        return f"{self.dest!r} {op} {self.alpha!r} * {self.src!r}{t}"


@dataclass
class ScalarAssignOp:
    """Assignment of an arbitrary scalar expression to a 1x1 view."""

    dest: View
    expr: Expr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.dest!r} = {self.expr!r}"


CanonicalOp = Union[MatMulOp, ScaleCopyOp, ScalarAssignOp]


# ---------------------------------------------------------------------------
# Temporary operand allocation
# ---------------------------------------------------------------------------


class TempAllocator:
    """Allocates temporary operands introduced by the normalization."""

    def __init__(self, prefix: str = "lg_tmp"):
        self.prefix = prefix
        self.counter = itertools.count()
        self.operands: List[Operand] = []

    def fresh(self, rows: int, cols: int) -> Operand:
        operand = Scratch(f"{self.prefix}{next(self.counter)}", rows, cols)
        self.operands.append(operand)
        return operand


# ---------------------------------------------------------------------------
# Transpose push-down
# ---------------------------------------------------------------------------


def push_down_transposes(expr: Expr) -> Expr:
    """Rewrite the expression so transposes only wrap leaf references.

    Uses ``(A*B)^T = B^T A^T``, ``(A+B)^T = A^T + B^T``, ``(A^T)^T = A`` and
    leaves scalar subexpressions untouched.
    """
    if isinstance(expr, Transpose):
        child = push_down_transposes(expr.child)
        if isinstance(child, Transpose):
            return child.child
        if isinstance(child, Mul):
            return Mul(push_down_transposes(Transpose(child.right)),
                       push_down_transposes(Transpose(child.left)))
        if isinstance(child, Add):
            return Add(push_down_transposes(Transpose(child.left)),
                       push_down_transposes(Transpose(child.right)))
        if isinstance(child, Sub):
            return Sub(push_down_transposes(Transpose(child.left)),
                       push_down_transposes(Transpose(child.right)))
        if isinstance(child, Neg):
            return Neg(push_down_transposes(Transpose(child.child)))
        if isinstance(child, Div):
            # (A / s)^T = A^T / s -- the divisor is scalar by typing.
            # Without this rule a transposed quotient survives push-down
            # unchanged and used to send _materialize into infinite
            # recursion (a fuzzer-found crash).
            return Div(push_down_transposes(Transpose(child.left)),
                       push_down_transposes(child.right))
        if child.is_scalar:
            return child
        return Transpose(child)
    if isinstance(expr, Mul):
        return Mul(push_down_transposes(expr.left),
                   push_down_transposes(expr.right))
    if isinstance(expr, Add):
        return Add(push_down_transposes(expr.left),
                   push_down_transposes(expr.right))
    if isinstance(expr, Sub):
        return Sub(push_down_transposes(expr.left),
                   push_down_transposes(expr.right))
    if isinstance(expr, Neg):
        return Neg(push_down_transposes(expr.child))
    if isinstance(expr, Div):
        return Div(push_down_transposes(expr.left),
                   push_down_transposes(expr.right))
    if isinstance(expr, Sqrt):
        return Sqrt(push_down_transposes(expr.child))
    return expr


# ---------------------------------------------------------------------------
# Matrix chain ordering
# ---------------------------------------------------------------------------


def chain_order(dims: Sequence[int]) -> List[Tuple[int, int]]:
    """Optimal association order for a matrix chain with dimensions ``dims``.

    ``dims`` has length ``n+1`` for ``n`` factors.  Returns the list of merge
    steps as pairs of factor-list indices, in the order the products should
    be formed (classic O(n^3) dynamic program).
    """
    n = len(dims) - 1
    if n <= 1:
        return []
    cost = [[0.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            cost[i][j] = float("inf")
            for k in range(i, j):
                candidate = (cost[i][k] + cost[k + 1][j]
                             + dims[i] * dims[k + 1] * dims[j + 1])
                if candidate < cost[i][j]:
                    cost[i][j] = candidate
                    split[i][j] = k

    steps: List[Tuple[int, int]] = []

    def emit(i: int, j: int) -> None:
        if i == j:
            return
        k = split[i][j]
        emit(i, k)
        emit(k + 1, j)
        steps.append((i, j))

    emit(0, n - 1)
    return steps


# ---------------------------------------------------------------------------
# Term extraction
# ---------------------------------------------------------------------------


@dataclass
class _Term:
    """One additive term: a (possibly empty) product of matrix factors and a
    scalar coefficient."""

    coeff: ScalarCoeff
    factors: List[Tuple[View, bool]]   # (view, transposed)

    @property
    def is_pure_view(self) -> bool:
        return (self.coeff.is_one and len(self.factors) == 1
                and not self.factors[0][1])


class Normalizer:
    """Decomposes Assign statements into canonical operations."""

    def __init__(self, temp_allocator: Optional[TempAllocator] = None):
        self.temps = temp_allocator or TempAllocator()

    # -- public API -----------------------------------------------------------

    def normalize(self, statement: Assign) -> List[CanonicalOp]:
        """Normalize one sBLAC statement into canonical operations."""
        if statement.is_hlac():
            raise LoweringError(
                f"cannot normalize HLAC statement {statement!r}; run Stage 1 "
                f"first")
        if statement.lhs.is_scalar:
            ops: List[CanonicalOp] = []
            expr = self._prepare_scalar_expr(
                push_down_transposes(statement.rhs), ops)
            ops.append(ScalarAssignOp(statement.lhs, expr))
            return ops

        ops = []
        rhs = push_down_transposes(statement.rhs)
        terms = [self._extract_term(sign, term, ops)
                 for sign, term in flatten_add(rhs)]
        self._emit_terms(statement.lhs, terms, ops)
        return ops

    # -- term handling ---------------------------------------------------------

    def _mul_factors(self, expr: Expr) -> List[Expr]:
        """Flatten nested Mul, keeping scalar-valued subproducts atomic.

        A scalar-shaped product like ``x^T * y`` inside a larger product is
        a *coefficient* of the surrounding matrix chain, not two more chain
        factors: flattening through it would thread a bogus 1x1 "matrix"
        into the chain-order dims and emit inconsistent matmuls (a
        fuzzer-found crash on ``C = (x' * y) * A``).
        """
        factors: List[Expr] = []

        def visit(node: Expr) -> None:
            if isinstance(node, Mul) and not node.is_scalar:
                visit(node.left)
                visit(node.right)
            else:
                factors.append(node)

        visit(expr)
        return factors

    def _extract_term(self, sign: int, expr: Expr,
                      ops: List[CanonicalOp]) -> _Term:
        coeff = ScalarCoeff(sign)
        factors: List[Tuple[View, bool]] = []
        for factor in self._mul_factors(expr):
            coeff, factors = self._add_factor(factor, coeff, factors, ops)
        return _Term(coeff, factors)

    def _add_factor(self, factor: Expr, coeff: ScalarCoeff,
                    factors: List[Tuple[View, bool]],
                    ops: List[CanonicalOp]) -> Tuple[ScalarCoeff, list]:
        if isinstance(factor, Neg):
            coeff, factors = self._add_factor(factor.child, coeff, factors, ops)
            return coeff.negated(), factors
        if isinstance(factor, Const):
            return coeff.scaled_by(float(factor.value)), factors
        if isinstance(factor, Div):
            # scalar division: x / s  ->  coefficient 1/s (rule R1 territory)
            if not factor.right.is_scalar:
                raise LoweringError(f"non-scalar divisor in {factor!r}")
            coeff, factors = self._add_factor(factor.left, coeff, factors, ops)
            divisor = self._scalar_view(factor.right, ops)
            return coeff.scaled_by(divisor, reciprocal=True), factors
        if factor.is_scalar:
            view = self._scalar_view(factor, ops)
            return coeff.scaled_by(view), factors
        if isinstance(factor, Ref):
            factors = factors + [(factor.view, False)]
            return coeff, factors
        if isinstance(factor, Transpose):
            if isinstance(factor.child, Ref):
                factors = factors + [(factor.child.view, True)]
                return coeff, factors
            # A transposed compound: materialize the (strictly smaller)
            # untransposed child and transpose the reference, so the
            # recursion always terminates.
            view = self._materialize(factor.child, ops)
            factors = factors + [(view, True)]
            return coeff, factors
        if isinstance(factor, Inverse):
            raise LoweringError(
                "matrix inverses must be eliminated by Stage 1 before "
                "lowering")
        # Anything else (nested sums inside a product, transposed products not
        # reducible to leaves, ...) is materialized into a temporary.
        view = self._materialize(factor, ops)
        factors = factors + [(view, False)]
        return coeff, factors

    def _scalar_view(self, expr: Expr, ops: List[CanonicalOp]) -> Union[View, float]:
        """Return a 1x1 view (or a constant) holding the value of a scalar expr."""
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, Ref) and expr.view.is_scalar:
            return expr.view
        temp = self.temps.fresh(1, 1)
        dest = temp.full_view()
        ops.append(ScalarAssignOp(dest, self._prepare_scalar_expr(expr, ops)))
        return dest

    def _prepare_scalar_expr(self, expr: Expr,
                             ops: List[CanonicalOp]) -> Expr:
        """Rewrite a scalar expression so every inner product has leaf
        vector operands.

        The lowering inlines scalar-valued products as dot-product loops
        over *references*; a compound operand (``x^T * A`` in the quadratic
        form ``x^T * A * x``, or ``(x + y)^T`` in ``(x + y)^T * z``) is
        first evaluated into a temporary here (a fuzzer-found crash).
        Expects (and preserves) transposes already pushed down to leaves.
        """
        if isinstance(expr, Mul):
            if expr.left.is_scalar and expr.right.is_scalar:
                return Mul(self._prepare_scalar_expr(expr.left, ops),
                           self._prepare_scalar_expr(expr.right, ops))
            return Mul(self._vector_operand(expr.left, ops),
                       self._vector_operand(expr.right, ops))
        if isinstance(expr, Add):
            return Add(self._prepare_scalar_expr(expr.left, ops),
                       self._prepare_scalar_expr(expr.right, ops))
        if isinstance(expr, Sub):
            return Sub(self._prepare_scalar_expr(expr.left, ops),
                       self._prepare_scalar_expr(expr.right, ops))
        if isinstance(expr, Div):
            return Div(self._prepare_scalar_expr(expr.left, ops),
                       self._prepare_scalar_expr(expr.right, ops))
        if isinstance(expr, Neg):
            return Neg(self._prepare_scalar_expr(expr.child, ops))
        if isinstance(expr, Sqrt):
            return Sqrt(self._prepare_scalar_expr(expr.child, ops))
        if isinstance(expr, Transpose):
            return Transpose(self._prepare_scalar_expr(expr.child, ops))
        return expr

    def _vector_operand(self, expr: Expr, ops: List[CanonicalOp]) -> Expr:
        """An inner-product operand as a (possibly transposed) leaf
        reference, materializing compound expressions into temporaries."""
        if isinstance(expr, Ref):
            return expr
        if isinstance(expr, Transpose) and isinstance(expr.child, Ref):
            return expr
        return Ref(self._materialize(expr, ops))

    def _materialize(self, expr: Expr, ops: List[CanonicalOp]) -> View:
        """Evaluate a non-trivial subexpression into a fresh temporary."""
        temp = self.temps.fresh(expr.rows, expr.cols)
        dest = temp.full_view()
        terms = [self._extract_term(sign, term, ops)
                 for sign, term in flatten_add(push_down_transposes(expr))]
        self._emit_terms(dest, terms, ops)
        return dest

    # -- emission ---------------------------------------------------------------

    def _emit_terms(self, lhs: View, terms: List[_Term],
                    ops: List[CanonicalOp]) -> None:
        lhs_group = (lhs.operand.name, lhs.operand.overwrites)

        def references_lhs(term: _Term) -> bool:
            for view, _ in term.factors:
                if view.operand is lhs.operand or \
                        view.operand.overwrites == lhs.operand.name or \
                        lhs.operand.overwrites == view.operand.name:
                    if view.overlaps(lhs) or view.operand is not lhs.operand:
                        return True
            for factor, _ in term.coeff.factors:
                if isinstance(factor, View) and factor.operand is lhs.operand:
                    return True
            return False

        # In-place accumulation: "lhs = lhs +/- rest" keeps lhs as the
        # accumulator; otherwise, if lhs is read anywhere in the rhs, the
        # result is computed in a temporary first.
        identity_index = None
        for index, term in enumerate(terms):
            if (term.is_pure_view and term.factors[0][0] == lhs):
                identity_index = index
                break

        other_terms = [t for i, t in enumerate(terms) if i != identity_index]
        needs_temp = identity_index is None and any(
            references_lhs(t) for t in terms)
        if identity_index is not None and any(references_lhs(t)
                                              for t in other_terms):
            needs_temp = True
            other_terms = terms
            identity_index = None

        target = lhs
        if needs_temp:
            temp = self.temps.fresh(lhs.rows, lhs.cols)
            target = temp.full_view()
            identity_index = None
            other_terms = terms

        first = identity_index is None
        for term in other_terms:
            self._emit_single_term(target, term, assign=first, ops=ops)
            first = False
        if identity_index is not None and not other_terms:
            # statement was literally "lhs = lhs": emit a copy to keep
            # semantics (a no-op after simplification).
            ops.append(ScaleCopyOp(target, 0, lhs, False, ScalarCoeff()))

        if needs_temp:
            ops.append(ScaleCopyOp(lhs, 0, target, False, ScalarCoeff()))

    def _emit_single_term(self, dest: View, term: _Term, assign: bool,
                          ops: List[CanonicalOp]) -> None:
        accumulate = 0 if assign else (1 if term.coeff.sign > 0 else -1)
        coeff = term.coeff if assign else ScalarCoeff(1, list(term.coeff.factors))

        if not term.factors:
            raise LoweringError(
                f"additive term with no matrix factor writing {dest!r}; "
                f"shapes should have prevented this")

        if len(term.factors) == 1:
            view, trans = term.factors[0]
            ops.append(ScaleCopyOp(dest, accumulate, view, trans, coeff))
            return

        # Reduce a product chain of two or more factors.
        factors = list(term.factors)
        if len(factors) > 2:
            dims = [factors[0][0].cols if factors[0][1] else factors[0][0].rows]
            for view, trans in factors:
                dims.append(view.rows if trans else view.cols)
            steps = chain_order(dims)
        else:
            steps = [(0, 1)]

        # Apply merge steps; each merge of more than the final pair goes into
        # a temporary.
        entries: List[Optional[Tuple[View, bool]]] = list(factors)
        final_pair: Optional[Tuple[Tuple[View, bool], Tuple[View, bool]]] = None
        for step_index, (i, j) in enumerate(steps):
            left_idx = next(k for k in range(i, j + 1) if entries[k] is not None)
            right_idx = next(k for k in range(j, i - 1, -1)
                             if entries[k] is not None and k != left_idx)
            left = entries[left_idx]
            right = entries[right_idx]
            assert left is not None and right is not None
            is_last = step_index == len(steps) - 1
            if is_last:
                final_pair = (left, right)
                break
            rows = left[0].cols if left[1] else left[0].rows
            cols = right[0].rows if right[1] else right[0].cols
            temp = self.temps.fresh(rows, cols)
            ops.append(MatMulOp(temp.full_view(), 0, left[0], left[1],
                                right[0], right[1], ScalarCoeff()))
            entries[left_idx] = (temp.full_view(), False)
            entries[right_idx] = None

        assert final_pair is not None
        (a, trans_a), (b, trans_b) = final_pair
        ops.append(MatMulOp(dest, accumulate, a, trans_a, b, trans_b, coeff))
