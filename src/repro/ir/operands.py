"""Operands of an LA program: scalars, vectors, matrices, and views.

An *operand* is a named, fixed-size array declared at the top of an LA
program (paper Fig. 4/5).  Each operand carries:

* its dimensions (``rows`` x ``cols``; vectors are n x 1, scalars 1 x 1),
* an I/O type (``In``, ``Out``, ``InOut``),
* structural properties (:class:`~repro.ir.properties.Properties`),
* an optional *overwrite* target: ``ow(S)`` declares that the operand shares
  storage with operand ``S`` (e.g. the Cholesky factor U overwriting S),
* a *scratch* flag on the temporaries the pipeline invents
  (:func:`Scratch`), which the generated function keeps in local arrays.

A *view* is a rectangular sub-block of an operand with concrete integer
offsets and sizes.  Views are the leaves of every expression produced by
Stage 1 (basic linear algebra programs): partitioned algorithms compute on
blocks such as ``S[0:i, i:i+nu]``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import DimensionError
from .properties import Properties, Structure


class IOType(enum.Enum):
    """Input/output role of an operand in an LA program."""

    IN = "In"
    OUT = "Out"
    INOUT = "InOut"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(eq=False)
class Operand:
    """A named, fixed-size operand of an LA program.

    Operands use identity-based equality: two declarations with the same
    name are distinct objects (important when composing programs).
    """

    name: str
    rows: int
    cols: int
    io: IOType = IOType.IN
    properties: Properties = field(default_factory=Properties)
    overwrites: Optional[str] = None
    datatype: str = "double"
    scratch: bool = False

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionError(
                f"operand {self.name!r} must have positive dimensions, "
                f"got {self.rows}x{self.cols}")
        if not self.name.isidentifier():
            raise ValueError(f"invalid operand name {self.name!r}")

    # -- classification ----------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    @property
    def is_vector(self) -> bool:
        return not self.is_scalar and (self.rows == 1 or self.cols == 1)

    @property
    def is_matrix(self) -> bool:
        return self.rows > 1 and self.cols > 1

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def size(self) -> int:
        """Total number of stored elements (full storage scheme)."""
        return self.rows * self.cols

    @property
    def is_input(self) -> bool:
        return self.io in (IOType.IN, IOType.INOUT)

    @property
    def is_output(self) -> bool:
        return self.io in (IOType.OUT, IOType.INOUT)

    # -- views --------------------------------------------------------------

    def view(self, row_off: int = 0, col_off: int = 0,
             rows: Optional[int] = None, cols: Optional[int] = None) -> "View":
        """Return a view of the block starting at (row_off, col_off)."""
        rows = self.rows - row_off if rows is None else rows
        cols = self.cols - col_off if cols is None else cols
        return View(self, row_off, col_off, rows, cols)

    def full_view(self) -> "View":
        """Return a view covering the whole operand."""
        return View(self, 0, 0, self.rows, self.cols)

    def element(self, i: int, j: int = 0) -> "View":
        """Return a 1x1 view of element (i, j)."""
        return View(self, i, j, 1, 1)

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "Sca" if self.is_scalar else ("Vec" if self.is_vector else "Mat")
        props = str(self.properties)
        ow = f", ow({self.overwrites})" if self.overwrites else ""
        return (f"{kind} {self.name}({self.rows},{self.cols}) "
                f"<{self.io}, {props}{ow}>")

    def __hash__(self) -> int:
        return id(self)


def Matrix(name: str, rows: int, cols: int, io: IOType = IOType.IN,
           properties: Optional[Properties] = None,
           overwrites: Optional[str] = None) -> Operand:
    """Convenience constructor for a matrix operand."""
    return Operand(name, rows, cols, io, properties or Properties(),
                   overwrites=overwrites)


def Vector(name: str, n: int, io: IOType = IOType.IN,
           overwrites: Optional[str] = None) -> Operand:
    """Convenience constructor for a column-vector operand (n x 1)."""
    return Operand(name, n, 1, io, Properties(), overwrites=overwrites)


def Scalar(name: str, io: IOType = IOType.IN,
           overwrites: Optional[str] = None) -> Operand:
    """Convenience constructor for a scalar operand (1 x 1)."""
    return Operand(name, 1, 1, io, Properties(), overwrites=overwrites)


def Scratch(name: str, rows: int, cols: int) -> Operand:
    """A temporary the pipeline invents (Stage 1, the rewrite tiers or
    Stage 2): writable like an ``Out`` operand, backed by a local array."""
    return Operand(name, rows, cols, IOType.OUT, Properties(), scratch=True)


@dataclass(frozen=True)
class View:
    """A rectangular sub-block of an operand with concrete offsets/sizes.

    Views are value objects: two views of the same operand with identical
    offsets and sizes compare equal, which lets passes detect overlapping
    and identical accesses.
    """

    operand: Operand
    row_off: int
    col_off: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"view of {self.operand.name} has negative "
                                 f"size {self.rows}x{self.cols}")
        if (self.row_off < 0 or self.col_off < 0
                or self.row_off + self.rows > self.operand.rows
                or self.col_off + self.cols > self.operand.cols):
            raise DimensionError(
                f"view [{self.row_off}:{self.row_off + self.rows}, "
                f"{self.col_off}:{self.col_off + self.cols}] is out of bounds "
                f"for operand {self.operand.name} "
                f"({self.operand.rows}x{self.operand.cols})")

    # -- classification ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    @property
    def is_full(self) -> bool:
        """True when the view covers its whole operand."""
        return (self.row_off == 0 and self.col_off == 0
                and self.rows == self.operand.rows
                and self.cols == self.operand.cols)

    @property
    def structure(self) -> Structure:
        """Structure of this block inferred from the operand's structure.

        Only diagonal blocks (row range == column range) of a structured
        matrix inherit the full structure; blocks strictly above/below the
        diagonal of a triangular matrix are GENERAL or ZERO.
        """
        parent = self.operand.properties.structure
        if parent is Structure.GENERAL or self.is_full:
            return parent
        on_diagonal = (self.row_off == self.col_off and self.rows == self.cols)
        if on_diagonal:
            return parent
        row_end = self.row_off + self.rows
        col_end = self.col_off + self.cols
        if parent is Structure.LOWER_TRIANGULAR and row_end <= self.col_off:
            return Structure.ZERO
        if parent is Structure.UPPER_TRIANGULAR and col_end <= self.row_off:
            return Structure.ZERO
        if parent is Structure.ZERO:
            return Structure.ZERO
        if parent in (Structure.DIAGONAL, Structure.IDENTITY):
            if row_end <= self.col_off or col_end <= self.row_off:
                return Structure.ZERO
        return Structure.GENERAL

    # -- sub-views ----------------------------------------------------------

    def sub(self, row_off: int, col_off: int, rows: int, cols: int) -> "View":
        """Return a sub-view relative to this view's origin."""
        return View(self.operand, self.row_off + row_off,
                    self.col_off + col_off, rows, cols)

    def element(self, i: int, j: int = 0) -> "View":
        return self.sub(i, j, 1, 1)

    def row(self, i: int) -> "View":
        return self.sub(i, 0, 1, self.cols)

    def column(self, j: int) -> "View":
        return self.sub(0, j, self.rows, 1)

    def overlaps(self, other: "View") -> bool:
        """True when the two views touch at least one common element.

        Aliased operands (via ``ow``) are *not* resolved here; callers that
        care about storage-level aliasing must map operands to their storage
        group first (see :mod:`repro.cir.interpreter`).
        """
        if self.operand is not other.operand:
            return False
        return not (self.row_off + self.rows <= other.row_off
                    or other.row_off + other.rows <= self.row_off
                    or self.col_off + self.cols <= other.col_off
                    or other.col_off + other.cols <= self.col_off)

    def contains(self, other: "View") -> bool:
        """True when ``other`` is entirely inside this view."""
        if self.operand is not other.operand:
            return False
        return (self.row_off <= other.row_off
                and self.col_off <= other.col_off
                and other.row_off + other.rows <= self.row_off + self.rows
                and other.col_off + other.cols <= self.col_off + self.cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_full:
            return self.operand.name
        return (f"{self.operand.name}[{self.row_off}:{self.row_off + self.rows},"
                f"{self.col_off}:{self.col_off + self.cols}]")
