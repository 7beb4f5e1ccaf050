"""C-IR: the C-like intermediate representation of SLinGen (paper Sec. 3, Stage 2/3).

C-IR sits between the mathematical level (sBLACs on views) and the emitted C
code.  It provides

1. *buffers* -- flat, row-major arrays corresponding to operands (or
   temporaries), accessed through affine index expressions ("special
   pointers for accessing portions of matrices and vectors"),
2. scalar and vector arithmetic on SSA-like register variables, including
   the data-reorganization operations (blend/shuffle/permute/unpack) needed
   by the vectorized codelets and by the load/store analysis,
3. ``For`` and ``If`` statements with affine bounds/conditions on induction
   variables.

All loop bounds are integer constants (operand sizes are fixed), which keeps
both the interpreter and the static instruction-mix analysis exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import CIRError

# ---------------------------------------------------------------------------
# Affine index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """An affine integer expression ``sum_i coef_i * var_i + const``.

    ``terms`` is a sorted tuple of ``(variable_name, coefficient)`` pairs
    with non-zero coefficients, making instances canonical and hashable.
    """

    terms: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine((), int(value))

    @staticmethod
    def var(name: str, coef: int = 1) -> "Affine":
        if coef == 0:
            return Affine((), 0)
        return Affine(((name, int(coef)),), 0)

    @staticmethod
    def of(value: Union["Affine", int, str]) -> "Affine":
        if isinstance(value, Affine):
            return value
        if isinstance(value, int):
            return Affine.constant(value)
        if isinstance(value, str):
            return Affine.var(value)
        raise CIRError(f"cannot build an affine expression from {value!r}")

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: Union["Affine", int, str]) -> "Affine":
        other = Affine.of(other)
        # Either side constant: the other's terms are already canonical.
        if not other.terms:
            return Affine(self.terms, self.const + other.const)
        if not self.terms:
            return Affine(other.terms, self.const + other.const)
        coeffs: Dict[str, int] = dict(self.terms)
        for name, coef in other.terms:
            coeffs[name] = coeffs.get(name, 0) + coef
        terms = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return Affine(terms, self.const + other.const)

    def __radd__(self, other: Union[int, str]) -> "Affine":
        return self.__add__(other)

    def __sub__(self, other: Union["Affine", int, str]) -> "Affine":
        return self + Affine.of(other).scaled(-1)

    def __mul__(self, factor: int) -> "Affine":
        return self.scaled(factor)

    def __rmul__(self, factor: int) -> "Affine":
        return self.scaled(factor)

    def scaled(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine((), 0)
        terms = tuple((n, c * factor) for n, c in self.terms)
        return Affine(terms, self.const * factor)

    # -- queries -------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def value(self) -> int:
        if not self.is_constant:
            raise CIRError(f"affine expression {self} is not constant")
        return self.const

    def variables(self) -> List[str]:
        return [name for name, _ in self.terms]

    def substitute(self, bindings: Dict[str, int]) -> "Affine":
        """Substitute integer values for (some) variables.

        Returns ``self`` when none of its variables is bound.
        """
        if not any(name in bindings for name, _ in self.terms):
            return self
        const = self.const
        terms = []
        for name, coef in self.terms:
            if name in bindings:
                const += coef * bindings[name]
            else:
                terms.append((name, coef))
        return Affine(tuple(terms), const)

    def evaluate(self, bindings: Dict[str, int]) -> int:
        value = self.const
        for name, coef in self.terms:
            try:
                value += coef * bindings[name]
            except KeyError:
                raise CIRError(f"unbound index variable {name!r} in {self}")
        return value

    def __str__(self) -> str:
        parts: List[str] = []
        for name, coef in self.terms:
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Buffer:
    """A flat row-major array: a function parameter or a local temporary."""

    name: str
    rows: int
    cols: int
    kind: str = "in"  # one of: in, out, inout, temp

    VALID_KINDS = ("in", "out", "inout", "temp")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise CIRError(f"invalid buffer kind {self.kind!r}")
        if self.rows <= 0 or self.cols <= 0:
            raise CIRError(f"buffer {self.name!r} has invalid shape "
                           f"{self.rows}x{self.cols}")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def writable(self) -> bool:
        return self.kind in ("out", "inout", "temp")

    def index(self, row: Union[Affine, int, str],
              col: Union[Affine, int, str]) -> Affine:
        """Row-major linear index of element (row, col)."""
        return Affine.of(row) * self.cols + Affine.of(col)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Buffer({self.name}, {self.rows}x{self.cols}, {self.kind})"

    def __hash__(self) -> int:
        return id(self)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class CExpr:
    """Base class of C-IR value expressions (double or vector of doubles)."""

    #: vector width of the value (1 for scalars)
    width: int = 1

    def children(self) -> Tuple["CExpr", ...]:
        return ()

    def walk(self) -> Iterator["CExpr"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class FloatConst(CExpr):
    value: float
    width: int = 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.value:g}"


@dataclass(frozen=True)
class ScalarVar(CExpr):
    """A scalar double register variable."""
    name: str
    width: int = 1

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


@dataclass(frozen=True)
class VecVar(CExpr):
    """A vector register variable of ``width`` doubles."""
    name: str
    width: int = 4

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


@dataclass(frozen=True)
class Load(CExpr):
    """Scalar load ``buffer[index]``."""
    buffer: Buffer
    index: Affine
    width: int = 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.buffer.name}[{self.index}]"


@dataclass(frozen=True)
class VLoad(CExpr):
    """Contiguous vector load of ``width`` doubles starting at ``index``.

    ``mask`` (a tuple of booleans, one per lane) marks the lanes actually
    loaded; unset lanes read as 0.0 (AVX ``maskload`` semantics).  ``None``
    means a full unmasked load.
    """
    buffer: Buffer
    index: Affine
    width: int = 4
    mask: Optional[Tuple[bool, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover
        m = "" if self.mask is None else f", mask={self.mask}"
        return f"vload({self.buffer.name}[{self.index}], {self.width}{m})"


@dataclass(frozen=True)
class VBroadcast(CExpr):
    """Broadcast a scalar value to all lanes."""
    value: CExpr
    width: int = 4

    def children(self) -> Tuple[CExpr, ...]:
        return (self.value,)

    def __repr__(self) -> str:  # pragma: no cover
        return f"vbroadcast({self.value!r})"


@dataclass(frozen=True)
class VSet(CExpr):
    """Build a vector from ``width`` scalar expressions (lane 0 first)."""
    elements: Tuple[CExpr, ...]

    @property
    def width(self) -> int:  # type: ignore[override]
        return len(self.elements)

    def children(self) -> Tuple[CExpr, ...]:
        return self.elements

    def __repr__(self) -> str:  # pragma: no cover
        return f"vset({', '.join(map(repr, self.elements))})"


@dataclass(frozen=True)
class VZero(CExpr):
    """An all-zero vector."""
    width: int = 4

    def __repr__(self) -> str:  # pragma: no cover
        return f"vzero({self.width})"


_SCALAR_OPS = ("add", "sub", "mul", "div", "max", "min")


@dataclass(frozen=True)
class BinOp(CExpr):
    """Scalar binary arithmetic."""
    op: str
    left: CExpr
    right: CExpr
    width: int = 1

    def __post_init__(self) -> None:
        if self.op not in _SCALAR_OPS:
            raise CIRError(f"invalid scalar op {self.op!r}")

    def children(self) -> Tuple[CExpr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:  # pragma: no cover
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}.get(self.op,
                                                                   self.op)
        return f"({self.left!r} {sym} {self.right!r})"


@dataclass(frozen=True)
class UnOp(CExpr):
    """Scalar unary operation: ``neg`` or ``sqrt``."""
    op: str
    operand: CExpr
    width: int = 1

    def __post_init__(self) -> None:
        if self.op not in ("neg", "sqrt"):
            raise CIRError(f"invalid unary op {self.op!r}")

    def children(self) -> Tuple[CExpr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.op}({self.operand!r})"


@dataclass(frozen=True)
class VBinOp(CExpr):
    """Lane-wise vector arithmetic."""
    op: str
    left: CExpr
    right: CExpr
    width: int = 4

    def __post_init__(self) -> None:
        if self.op not in _SCALAR_OPS:
            raise CIRError(f"invalid vector op {self.op!r}")

    def children(self) -> Tuple[CExpr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:  # pragma: no cover
        return f"v{self.op}({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class VReduceAdd(CExpr):
    """Horizontal sum of all lanes; the result is a scalar."""
    vec: CExpr
    width: int = 1

    def children(self) -> Tuple[CExpr, ...]:
        return (self.vec,)

    def __repr__(self) -> str:  # pragma: no cover
        return f"vreduce_add({self.vec!r})"


@dataclass(frozen=True)
class VExtract(CExpr):
    """Extract lane ``lane`` of a vector as a scalar."""
    vec: CExpr
    lane: int
    width: int = 1

    def children(self) -> Tuple[CExpr, ...]:
        return (self.vec,)

    def __repr__(self) -> str:  # pragma: no cover
        return f"vextract({self.vec!r}, {self.lane})"


@dataclass(frozen=True)
class VBlend(CExpr):
    """AVX ``blend_pd`` semantics: lane i = b[i] if bit i of imm else a[i]."""
    a: CExpr
    b: CExpr
    imm: int
    width: int = 4

    def children(self) -> Tuple[CExpr, ...]:
        return (self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"vblend({self.a!r}, {self.b!r}, {self.imm:#x})"


@dataclass(frozen=True)
class VPermute2f128(CExpr):
    """AVX ``permute2f128_pd``: select 128-bit halves from two sources."""
    a: CExpr
    b: CExpr
    imm: int
    width: int = 4

    def children(self) -> Tuple[CExpr, ...]:
        return (self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"vperm2f128({self.a!r}, {self.b!r}, {self.imm:#x})"


@dataclass(frozen=True)
class VUnpack(CExpr):
    """AVX ``unpacklo_pd`` (``high=False``) / ``unpackhi_pd`` (``high=True``)."""
    a: CExpr
    b: CExpr
    high: bool
    width: int = 4

    def children(self) -> Tuple[CExpr, ...]:
        return (self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover
        half = "hi" if self.high else "lo"
        return f"vunpack{half}({self.a!r}, {self.b!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class CStmt:
    """Base class of C-IR statements.

    Statements are frozen, like expressions: passes build new statements
    and new statement lists instead of editing old ones, which is what
    lets cached C-IR be shared between pipeline phases and candidates.
    """


@dataclass(frozen=True)
class Assign(CStmt):
    """Assign a value to a register variable (declaring it on first use)."""
    dest: Union[ScalarVar, VecVar]
    value: CExpr

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.dest!r} = {self.value!r};"


@dataclass(frozen=True)
class Store(CStmt):
    """Scalar store ``buffer[index] = value``."""
    buffer: Buffer
    index: Affine
    value: CExpr

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.buffer.name}[{self.index}] = {self.value!r};"


@dataclass(frozen=True)
class VStore(CStmt):
    """Vector store of ``width`` contiguous doubles (optionally masked)."""
    buffer: Buffer
    index: Affine
    value: CExpr
    width: int = 4
    mask: Optional[Tuple[bool, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover
        m = "" if self.mask is None else f", mask={self.mask}"
        return f"vstore({self.buffer.name}[{self.index}], {self.value!r}{m});"


@dataclass(frozen=True)
class For(CStmt):
    """Counted loop with constant bounds: ``for (var = start; var < stop; var += step)``."""
    var: str
    start: int
    stop: int
    step: int
    body: List[CStmt] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise CIRError("loop step must be positive")

    @property
    def trip_count(self) -> int:
        if self.stop <= self.start:
            return 0
        return (self.stop - self.start + self.step - 1) // self.step

    def iterations(self) -> range:
        return range(self.start, self.stop, self.step)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"for ({self.var} = {self.start}; {self.var} < {self.stop}; "
                f"{self.var} += {self.step}) {{ {len(self.body)} stmts }}")


@dataclass(frozen=True)
class If(CStmt):
    """Conditional with an affine condition ``lhs <op> rhs``."""
    lhs: Affine
    op: str  # one of <, <=, ==, >=, >
    rhs: Affine
    then_body: List[CStmt] = field(default_factory=list)
    else_body: List[CStmt] = field(default_factory=list)

    VALID_OPS = ("<", "<=", "==", ">=", ">")

    def __post_init__(self) -> None:
        if self.op not in self.VALID_OPS:
            raise CIRError(f"invalid comparison {self.op!r}")

    def evaluate(self, bindings: Dict[str, int]) -> bool:
        lhs = self.lhs.evaluate(bindings)
        rhs = self.rhs.evaluate(bindings)
        return {"<": lhs < rhs, "<=": lhs <= rhs, "==": lhs == rhs,
                ">=": lhs >= rhs, ">": lhs > rhs}[self.op]


@dataclass(frozen=True)
class Comment(CStmt):
    """A comment carried through to the emitted C code."""
    text: str

    def __repr__(self) -> str:  # pragma: no cover
        return f"// {self.text}"


# ---------------------------------------------------------------------------
# Function
# ---------------------------------------------------------------------------


@dataclass
class Function:
    """A complete C-IR function: parameters, local temporaries, body."""

    name: str
    params: List[Buffer] = field(default_factory=list)
    temps: List[Buffer] = field(default_factory=list)
    body: List[CStmt] = field(default_factory=list)
    vector_width: int = 1

    def buffers(self) -> List[Buffer]:
        return list(self.params) + list(self.temps)

    def buffer(self, name: str) -> Buffer:
        for buf in self.buffers():
            if buf.name == name:
                return buf
        raise CIRError(f"no buffer named {name!r} in function {self.name!r}")

    def walk_statements(self) -> Iterator[CStmt]:
        """Iterate all statements in the body, descending into For/If."""
        def visit(stmts: Sequence[CStmt]) -> Iterator[CStmt]:
            for stmt in stmts:
                yield stmt
                if isinstance(stmt, For):
                    yield from visit(stmt.body)
                elif isinstance(stmt, If):
                    yield from visit(stmt.then_body)
                    yield from visit(stmt.else_body)
        return visit(self.body)

    def statement_count(self) -> int:
        return sum(1 for _ in self.walk_statements())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Function({self.name}, {len(self.params)} params, "
                f"{len(self.temps)} temps, {self.statement_count()} stmts)")


def walk_expressions(stmt: CStmt) -> Iterator[CExpr]:
    """Iterate every expression appearing in a statement (not recursing into
    nested statements of For/If)."""
    if isinstance(stmt, Assign):
        yield from stmt.value.walk()
    elif isinstance(stmt, Store):
        yield from stmt.value.walk()
    elif isinstance(stmt, VStore):
        yield from stmt.value.walk()
    # For/If/Comment carry no value expressions of their own


__all__ = [
    "Affine", "Buffer", "CExpr", "FloatConst", "ScalarVar", "VecVar", "Load",
    "VLoad", "VBroadcast", "VSet", "VZero", "BinOp", "UnOp", "VBinOp",
    "VReduceAdd", "VExtract", "VBlend", "VPermute2f128", "VUnpack", "CStmt",
    "Assign", "Store", "VStore", "For", "If", "Comment", "Function",
    "walk_expressions",
]
