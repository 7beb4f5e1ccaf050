"""Unit tests for matrix properties and views."""

import pytest

from repro.errors import DimensionError
from repro.ir import IOType, Matrix, Operand, Properties, Structure, Vector


class TestProperties:
    def test_from_annotations_lower_triangular(self):
        props = Properties.from_annotations(["LoTri", "NS"])
        assert props.is_lower_triangular
        assert props.non_singular
        assert not props.positive_definite

    def test_from_annotations_symmetric_pd_implies_nonsingular(self):
        props = Properties.from_annotations(["UpSym", "PD"])
        assert props.is_symmetric
        assert props.positive_definite
        assert props.non_singular

    def test_from_annotations_rejects_unknown(self):
        with pytest.raises(ValueError):
            Properties.from_annotations(["Banded"])

    def test_annotation_roundtrip(self):
        names = {"UpTri", "NS", "UnitDiag"}
        props = Properties.from_annotations(names)
        assert props.annotation_names() == frozenset(names)


class TestOperandsAndViews:
    def test_operand_classification(self):
        assert Matrix("A", 4, 5).is_matrix
        assert Vector("x", 4).is_vector
        assert Operand("s", 1, 1).is_scalar

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            Operand("A", 0, 3)

    def test_view_bounds_checked(self):
        A = Matrix("A", 4, 4)
        with pytest.raises(DimensionError):
            A.view(2, 2, 3, 3)

    def test_view_overlap_and_containment(self):
        A = Matrix("A", 6, 6)
        top = A.view(0, 0, 3, 6)
        bottom = A.view(3, 0, 3, 6)
        corner = A.view(1, 1, 2, 2)
        assert not top.overlaps(bottom)
        assert top.overlaps(corner)
        assert top.contains(corner)
        assert not bottom.contains(corner)

    def test_view_structure_of_blocks(self):
        L = Matrix("L", 8, 8, properties=Properties.lower_triangular())
        assert L.view(0, 0, 4, 4).structure is Structure.LOWER_TRIANGULAR
        assert L.view(0, 4, 4, 4).structure is Structure.ZERO
        assert L.view(4, 0, 4, 4).structure is Structure.GENERAL

    def test_view_of_different_operands_never_overlaps(self):
        A, B = Matrix("A", 4, 4), Matrix("B", 4, 4)
        assert not A.full_view().overlaps(B.full_view())

    def test_element_and_row_views(self):
        A = Matrix("A", 4, 6)
        assert A.element(1, 2).shape == (1, 1)
        assert A.full_view().row(2).shape == (1, 6)
        assert A.full_view().column(3).shape == (4, 1)

    def test_io_classification(self):
        assert Matrix("A", 2, 2, IOType.INOUT).is_input
        assert Matrix("A", 2, 2, IOType.INOUT).is_output
        assert not Matrix("A", 2, 2, IOType.IN).is_output
