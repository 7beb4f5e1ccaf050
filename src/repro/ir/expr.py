"""Mathematical expression trees over operand views.

These expressions form the *mathematical level* of SLinGen: the statements
of an LA program and of every basic linear algebra program produced by
Stage 1 are equations/assignments whose sides are instances of
:class:`Expr`.

Supported operators mirror the LA grammar (paper Fig. 4): ``+``, ``-``,
``*``, transposition, and for scalar expressions also division and square
root.  Matrix inversion (``(.)^-1``) may only appear on the right-hand side
of an HLAC statement and is represented by :class:`Inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

from ..errors import DimensionError
from .operands import Operand, View


class Expr:
    """Base class of all mathematical expressions."""

    #: shape of the expression's value, set by subclasses
    rows: int
    cols: int

    # -- classification ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    # -- traversal ----------------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def views(self) -> List[View]:
        """All operand views referenced by this expression (reads)."""
        return [node.view for node in self.walk() if isinstance(node, Ref)]

    def operands(self) -> List[Operand]:
        """All distinct operands referenced, in first-occurrence order."""
        seen: List[Operand] = []
        for view in self.views():
            if view.operand not in seen:
                seen.append(view.operand)
        return seen

    def contains_inverse(self) -> bool:
        return any(isinstance(node, Inverse) for node in self.walk())

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other: "Expr") -> "Add":
        return Add(self, _coerce(other))

    def __sub__(self, other: "Expr") -> "Sub":
        return Sub(self, _coerce(other))

    def __mul__(self, other: "Expr") -> "Mul":
        return Mul(self, _coerce(other))

    def __neg__(self) -> "Neg":
        return Neg(self)

    def __truediv__(self, other: "Expr") -> "Div":
        return Div(self, _coerce(other))

    @property
    def T(self) -> "Transpose":
        return Transpose(self)


def _coerce(value: Union[Expr, View, Operand, int, float]) -> Expr:
    """Coerce python values, operands and views into expressions."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, View):
        return Ref(value)
    if isinstance(value, Operand):
        return Ref(value.full_view())
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot convert {value!r} to an expression")


def ref(value: Union[View, Operand]) -> "Ref":
    """Build a :class:`Ref` from an operand or a view."""
    if isinstance(value, Operand):
        return Ref(value.full_view())
    return Ref(value)


@dataclass(frozen=True)
class Ref(Expr):
    """Leaf node: a read of an operand view."""

    view: View

    @property
    def rows(self) -> int:
        return self.view.rows

    @property
    def cols(self) -> int:
        return self.view.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.view)


@dataclass(frozen=True)
class Const(Expr):
    """A scalar floating-point literal."""

    value: float
    rows: int = 1
    cols: int = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:g}"


class _Unary(Expr):
    """Common base for unary operators."""

    def __init__(self, child: Expr):
        self.child = _coerce(child)

    def children(self) -> Tuple[Expr, ...]:
        return (self.child,)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.child == other.child

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.child))


class _Binary(Expr):
    """Common base for binary operators."""

    def __init__(self, left: Expr, right: Expr):
        self.left = _coerce(left)
        self.right = _coerce(right)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return (type(self) is type(other) and self.left == other.left
                and self.right == other.right)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right))


class Transpose(_Unary):
    """Matrix/vector transposition ``A^T``."""

    @property
    def rows(self) -> int:
        return self.child.cols

    @property
    def cols(self) -> int:
        return self.child.rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.child!r}^T"


class Neg(_Unary):
    """Negation ``-A``."""

    @property
    def rows(self) -> int:
        return self.child.rows

    @property
    def cols(self) -> int:
        return self.child.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"-({self.child!r})"


class Sqrt(_Unary):
    """Scalar square root (LA allows it on scalar expressions only)."""

    def __init__(self, child: Expr):
        super().__init__(child)
        if not self.child.is_scalar:
            raise DimensionError("sqrt() is only defined on scalars")

    rows = 1
    cols = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"sqrt({self.child!r})"


class Inverse(_Unary):
    """Matrix inverse; only legal on the RHS of an HLAC statement."""

    def __init__(self, child: Expr):
        super().__init__(child)
        if self.child.rows != self.child.cols:
            raise DimensionError(
                f"inverse requires a square matrix, got {self.child.shape}")

    @property
    def rows(self) -> int:
        return self.child.rows

    @property
    def cols(self) -> int:
        return self.child.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.child!r})^-1"


class Add(_Binary):
    """Addition ``A + B`` (shapes must match)."""

    def __init__(self, left: Expr, right: Expr):
        super().__init__(left, right)
        if self.left.shape != self.right.shape:
            raise DimensionError(
                f"cannot add {self.left.shape} and {self.right.shape}")

    @property
    def rows(self) -> int:
        return self.left.rows

    @property
    def cols(self) -> int:
        return self.left.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} + {self.right!r})"


class Sub(_Binary):
    """Subtraction ``A - B`` (shapes must match)."""

    def __init__(self, left: Expr, right: Expr):
        super().__init__(left, right)
        if self.left.shape != self.right.shape:
            raise DimensionError(
                f"cannot subtract {self.right.shape} from {self.left.shape}")

    @property
    def rows(self) -> int:
        return self.left.rows

    @property
    def cols(self) -> int:
        return self.left.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} - {self.right!r})"


class Mul(_Binary):
    """Multiplication: matrix product or scalar scaling.

    The following shape combinations are accepted:

    * scalar * anything, anything * scalar (scaling),
    * (m x k) * (k x n) matrix/vector product.
    """

    def __init__(self, left: Expr, right: Expr):
        super().__init__(left, right)
        if not (self.left.is_scalar or self.right.is_scalar
                or self.left.cols == self.right.rows):
            raise DimensionError(
                f"cannot multiply {self.left.shape} by {self.right.shape}")

    @property
    def is_scaling(self) -> bool:
        return self.left.is_scalar or self.right.is_scalar

    @property
    def rows(self) -> int:
        if self.left.is_scalar:
            return self.right.rows
        return self.left.rows

    @property
    def cols(self) -> int:
        if self.right.is_scalar:
            return self.left.cols
        if self.left.is_scalar:
            return self.right.cols
        return self.right.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} * {self.right!r})"


class Div(_Binary):
    """Division by a scalar.

    The left operand may be a vector or a matrix: an element-wise division
    by a scalar, which the Stage-2 rewrite rule R1 (paper Table 2) turns
    into a reciprocal and a scaling.
    """

    def __init__(self, left: Expr, right: Expr):
        super().__init__(left, right)
        if not self.right.is_scalar:
            raise DimensionError("division requires a scalar divisor")

    @property
    def rows(self) -> int:
        return self.left.rows

    @property
    def cols(self) -> int:
        return self.left.cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} / {self.right!r})"


def flatten_add(expr: Expr) -> List[Tuple[int, Expr]]:
    """Flatten nested Add/Sub into a list of (sign, term) pairs.

    ``A + B - C`` becomes ``[(+1, A), (+1, B), (-1, C)]``.  Negations are
    folded into the sign.
    """
    terms: List[Tuple[int, Expr]] = []

    def visit(node: Expr, sign: int) -> None:
        if isinstance(node, Add):
            visit(node.left, sign)
            visit(node.right, sign)
        elif isinstance(node, Sub):
            visit(node.left, sign)
            visit(node.right, -sign)
        elif isinstance(node, Neg):
            visit(node.child, -sign)
        else:
            terms.append((sign, node))

    visit(expr, +1)
    return terms
