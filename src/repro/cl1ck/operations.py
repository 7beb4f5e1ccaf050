"""Recognition of HLAC statements (the operations Cl1ck can synthesize).

Stage 1 of SLinGen walks the input LA program and collects every HLAC
(paper Sec. 3.1, "Identifying HLACs"): statements with an expression on the
left-hand side, or with a matrix inverse on the right-hand side.  This
module classifies each such statement into one of the supported operation
kinds -- the same set the paper evaluates (Table 3) plus the triangular
solves needed by the applications:

======================  =============================================
kind                    equation
======================  =============================================
``cholesky_upper``      ``U^T * U = S``   (U upper triangular, S SPD)
``cholesky_lower``      ``L * L^T = S``   (L lower triangular, S SPD)
``trsm``                ``op(T) * X = B`` (T triangular, X unknown)
``trtri``               ``X = T^{-1}``    (T triangular)
``trsyl``               ``L * X + X * U = C``
``trlya``               ``L * X + X * L^T = S``  (X symmetric)
======================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import UnsupportedHLACError
from ..ir.expr import Add, Expr, Inverse, Mul, Ref, Transpose
from ..ir.operands import Operand, View
from ..ir.program import Assign, Equation, Statement
from ..ir.properties import Structure


@dataclass
class OperationInstance:
    """A recognized HLAC with its role-assigned operand views."""

    kind: str
    #: role name -> operand view (e.g. "factor", "rhs", "unknown")
    views: Dict[str, View] = field(default_factory=dict)
    #: extra boolean/str flags (e.g. transposed coefficient, lower/upper)
    flags: Dict[str, object] = field(default_factory=dict)
    statement: Optional[Statement] = None

    def signature(self) -> Tuple:
        """A hashable signature used by the algorithm database (Stage 1a).

        Two HLACs that share functionality and sizes map to the same
        signature, enabling algorithm reuse across statements.
        """
        shape_items = tuple(sorted(
            (role, view.rows, view.cols) for role, view in self.views.items()))
        flag_items = tuple(sorted((k, str(v)) for k, v in self.flags.items()))
        return (self.kind, shape_items, flag_items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        roles = ", ".join(f"{k}={v!r}" for k, v in self.views.items())
        return f"OperationInstance({self.kind}, {roles}, {self.flags})"


# ---------------------------------------------------------------------------
# Pattern matching helpers
# ---------------------------------------------------------------------------


def _as_leaf(expr: Expr) -> Optional[Tuple[View, bool]]:
    """Match ``Ref(v)`` or ``Transpose(Ref(v))`` -> (view, transposed)."""
    if isinstance(expr, Ref):
        return expr.view, False
    if isinstance(expr, Transpose) and isinstance(expr.child, Ref):
        return expr.child.view, True
    return None


def _is_output(view: View) -> bool:
    return view.operand.is_output


def _is_triangular(view: View) -> bool:
    return view.operand.properties.is_triangular and view.rows == view.cols


def _triangle(view: View, transposed: bool) -> str:
    """'lower' or 'upper' of op(view) for a triangular operand."""
    structure = view.operand.properties.structure
    lower = structure is Structure.LOWER_TRIANGULAR
    if transposed:
        lower = not lower
    return "lower" if lower else "upper"


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def recognize(statement: Statement) -> OperationInstance:
    """Classify an HLAC statement; raises UnsupportedHLACError otherwise."""
    if isinstance(statement, Assign) and statement.is_hlac():
        return _recognize_inverse(statement)
    if isinstance(statement, Equation):
        return _recognize_equation(statement)
    raise UnsupportedHLACError(f"statement {statement!r} is not an HLAC")


def _recognize_inverse(statement: Assign) -> OperationInstance:
    rhs = statement.rhs
    if isinstance(rhs, Inverse):
        leaf = _as_leaf(rhs.child)
        if leaf is not None and _is_triangular(leaf[0]):
            view, transposed = leaf
            return OperationInstance(
                kind="trtri",
                views={"coefficient": view, "unknown": statement.lhs},
                flags={"uplo": _triangle(view, transposed),
                       "transposed": transposed},
                statement=statement)
    raise UnsupportedHLACError(
        f"unsupported inverse expression {statement.rhs!r}; only inverses of "
        f"triangular matrices are supported (general inverses should be "
        f"written as a factorization followed by triangular solves)")


def _recognize_equation(statement: Equation) -> OperationInstance:
    lhs, rhs = statement.lhs, statement.rhs

    # Cholesky: U^T * U = S  or  L * L^T = S
    if isinstance(lhs, Mul):
        left = _as_leaf(lhs.left)
        right = _as_leaf(lhs.right)
        if left and right and left[0].operand is right[0].operand \
                and _is_output(left[0]):
            rhs_leaf = _as_leaf(rhs)
            if rhs_leaf is None or rhs_leaf[1]:
                raise UnsupportedHLACError(
                    f"Cholesky right-hand side must be a plain operand, got "
                    f"{rhs!r}")
            if left[1] and not right[1]:
                return OperationInstance(
                    kind="cholesky_upper",
                    views={"factor": left[0], "rhs": rhs_leaf[0]},
                    statement=statement)
            if not left[1] and right[1]:
                return OperationInstance(
                    kind="cholesky_lower",
                    views={"factor": left[0], "rhs": rhs_leaf[0]},
                    statement=statement)

    # Triangular solve: op(T) * X = B with T known triangular, X unknown.
    if isinstance(lhs, Mul):
        coeff = _as_leaf(lhs.left)
        unknown = _as_leaf(lhs.right)
        if coeff and unknown and _is_triangular(coeff[0]) \
                and _is_output(unknown[0]) and not unknown[1]:
            rhs_leaf = _as_leaf(rhs)
            if rhs_leaf is not None and not rhs_leaf[1]:
                return OperationInstance(
                    kind="trsm",
                    views={"coefficient": coeff[0], "unknown": unknown[0],
                           "rhs": rhs_leaf[0]},
                    flags={"uplo": _triangle(coeff[0], coeff[1]),
                           "transposed": coeff[1]},
                    statement=statement)

    # Sylvester / Lyapunov: L*X + X*U = C  /  L*X + X*L^T = S
    if isinstance(lhs, Add) and isinstance(lhs.left, Mul) \
            and isinstance(lhs.right, Mul):
        first_coeff = _as_leaf(lhs.left.left)
        first_unknown = _as_leaf(lhs.left.right)
        second_unknown = _as_leaf(lhs.right.left)
        second_coeff = _as_leaf(lhs.right.right)
        rhs_leaf = _as_leaf(rhs)
        if (first_coeff and first_unknown and second_unknown and second_coeff
                and rhs_leaf and not rhs_leaf[1]
                and first_unknown[0].operand is second_unknown[0].operand
                and _is_output(first_unknown[0])
                and _is_triangular(first_coeff[0])
                and _is_triangular(second_coeff[0])):
            same_coeff = first_coeff[0].operand is second_coeff[0].operand
            if same_coeff and second_coeff[1] and not first_coeff[1] \
                    and _triangle(first_coeff[0], False) == "lower":
                return OperationInstance(
                    kind="trlya",
                    views={"coefficient": first_coeff[0],
                           "unknown": first_unknown[0],
                           "rhs": rhs_leaf[0]},
                    statement=statement)
            if not first_coeff[1] and not second_coeff[1] \
                    and _triangle(first_coeff[0], False) == "lower" \
                    and _triangle(second_coeff[0], False) == "upper":
                return OperationInstance(
                    kind="trsyl",
                    views={"coefficient_left": first_coeff[0],
                           "coefficient_right": second_coeff[0],
                           "unknown": first_unknown[0],
                           "rhs": rhs_leaf[0]},
                    statement=statement)

    raise UnsupportedHLACError(
        f"HLAC statement {statement!r} does not match any supported "
        f"operation (Cholesky, triangular solve, triangular inverse, "
        f"Sylvester, Lyapunov)")

