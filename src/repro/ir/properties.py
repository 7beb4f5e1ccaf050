"""Matrix structure properties.

The LA language (paper Fig. 4) lets the user annotate matrices with
structural and mathematical properties:

* ``LoTri`` / ``UpTri``  -- lower / upper triangular
* ``LoSym`` / ``UpSym``  -- symmetric, stored in the lower / upper half
* ``PD``                 -- symmetric positive definite
* ``NS``                 -- non-singular
* ``UnitDiag``           -- unit diagonal (for triangular factors)

Internally we work with a slightly richer *structure lattice* that also
contains ``ZERO``, ``IDENTITY`` and ``DIAGONAL`` because those show up when
partitioned matrix expressions are simplified (e.g. the bottom-left block of
an upper-triangular matrix is ZERO).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable


class Structure(enum.Enum):
    """Structural shape of a matrix (mutually exclusive)."""

    GENERAL = "general"
    LOWER_TRIANGULAR = "lower_triangular"
    UPPER_TRIANGULAR = "upper_triangular"
    SYMMETRIC = "symmetric"
    DIAGONAL = "diagonal"
    IDENTITY = "identity"
    ZERO = "zero"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_symmetric(self) -> bool:
        return self in (Structure.SYMMETRIC, Structure.DIAGONAL,
                        Structure.IDENTITY, Structure.ZERO)


class StorageHalf(enum.Enum):
    """Which half of a symmetric/triangular matrix is stored.

    The paper uses a *full storage scheme* even for structured matrices
    (Sec. 5), but the annotations ``UpSym``/``LoSym`` and ``UpTri``/``LoTri``
    still determine which half is read/written.
    """

    FULL = "full"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class Properties:
    """Complete property set of a matrix operand.

    Parameters
    ----------
    structure:
        Structural shape (triangular, symmetric, ...).
    storage:
        Which half is stored for triangular/symmetric matrices.
    positive_definite:
        ``PD`` annotation -- implies symmetric and non-singular.
    non_singular:
        ``NS`` annotation.
    unit_diagonal:
        ``UnitDiag`` annotation for triangular factors.
    """

    structure: Structure = Structure.GENERAL
    storage: StorageHalf = StorageHalf.FULL
    positive_definite: bool = False
    non_singular: bool = False
    unit_diagonal: bool = False

    # -- constructors ------------------------------------------------------

    @staticmethod
    def general() -> "Properties":
        return Properties()

    @staticmethod
    def lower_triangular(non_singular: bool = False,
                         unit_diagonal: bool = False) -> "Properties":
        return Properties(Structure.LOWER_TRIANGULAR, StorageHalf.LOWER,
                          non_singular=non_singular,
                          unit_diagonal=unit_diagonal)

    @staticmethod
    def upper_triangular(non_singular: bool = False,
                         unit_diagonal: bool = False) -> "Properties":
        return Properties(Structure.UPPER_TRIANGULAR, StorageHalf.UPPER,
                          non_singular=non_singular,
                          unit_diagonal=unit_diagonal)

    @staticmethod
    def symmetric(storage: StorageHalf = StorageHalf.UPPER,
                  positive_definite: bool = False) -> "Properties":
        return Properties(Structure.SYMMETRIC, storage,
                          positive_definite=positive_definite,
                          non_singular=positive_definite)

    @staticmethod
    def diagonal() -> "Properties":
        return Properties(Structure.DIAGONAL, StorageHalf.FULL)

    @staticmethod
    def identity() -> "Properties":
        return Properties(Structure.IDENTITY, StorageHalf.FULL,
                          non_singular=True)

    @staticmethod
    def zero() -> "Properties":
        return Properties(Structure.ZERO, StorageHalf.FULL)

    # -- predicates --------------------------------------------------------

    @property
    def is_lower_triangular(self) -> bool:
        return self.structure in (Structure.LOWER_TRIANGULAR,
                                  Structure.DIAGONAL, Structure.IDENTITY,
                                  Structure.ZERO)

    @property
    def is_upper_triangular(self) -> bool:
        return self.structure in (Structure.UPPER_TRIANGULAR,
                                  Structure.DIAGONAL, Structure.IDENTITY,
                                  Structure.ZERO)

    @property
    def is_triangular(self) -> bool:
        return self.is_lower_triangular or self.is_upper_triangular

    @property
    def is_symmetric(self) -> bool:
        return self.structure.is_symmetric

    # -- LA-language annotation names --------------------------------------

    def annotation_names(self) -> FrozenSet[str]:
        """Return the set of LA annotation keywords describing ``self``."""
        names = set()
        if self.structure is Structure.LOWER_TRIANGULAR:
            names.add("LoTri")
        elif self.structure is Structure.UPPER_TRIANGULAR:
            names.add("UpTri")
        elif self.structure is Structure.SYMMETRIC:
            names.add("UpSym" if self.storage is StorageHalf.UPPER else "LoSym")
        if self.positive_definite:
            names.add("PD")
        if self.non_singular:
            names.add("NS")
        if self.unit_diagonal:
            names.add("UnitDiag")
        return frozenset(names)

    @staticmethod
    def from_annotations(names: Iterable[str]) -> "Properties":
        """Build a property set from LA annotation keywords.

        Raises
        ------
        ValueError
            If an unknown annotation keyword is supplied.
        """
        known = {"LoTri", "UpTri", "UpSym", "LoSym", "PD", "NS", "UnitDiag"}
        names = list(names)
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown matrix properties: {unknown}")

        structure = Structure.GENERAL
        storage = StorageHalf.FULL
        if "LoTri" in names:
            structure, storage = Structure.LOWER_TRIANGULAR, StorageHalf.LOWER
        if "UpTri" in names:
            structure, storage = Structure.UPPER_TRIANGULAR, StorageHalf.UPPER
        if "UpSym" in names:
            structure, storage = Structure.SYMMETRIC, StorageHalf.UPPER
        if "LoSym" in names:
            structure, storage = Structure.SYMMETRIC, StorageHalf.LOWER

        pd = "PD" in names
        ns = "NS" in names or pd
        return Properties(structure=structure, storage=storage,
                          positive_definite=pd, non_singular=ns,
                          unit_diagonal="UnitDiag" in names)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        names = sorted(self.annotation_names())
        return ",".join(names) if names else "General"
