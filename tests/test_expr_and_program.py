"""Unit tests for the mathematical expression IR and Program container."""

import pytest

from repro.errors import DimensionError, LASemanticError
from repro.ir import (Add, Assign, Const, Div, Equation, ForLoop, IOType,
                      Inverse, Matrix, Mul, Neg, Program, Ref, Sqrt,
                      Sub, Transpose, Vector, flatten_add, ref)
from repro.ir.properties import Properties


@pytest.fixture
def operands():
    A = Matrix("A", 4, 6)
    B = Matrix("B", 6, 5)
    C = Matrix("C", 4, 5, IOType.OUT)
    x = Vector("x", 6)
    return A, B, C, x


class TestExpressions:
    def test_matmul_shape(self, operands):
        A, B, C, x = operands
        product = Mul(ref(A), ref(B))
        assert product.shape == (4, 5)

    def test_matmul_shape_mismatch(self, operands):
        A, B, C, x = operands
        with pytest.raises(DimensionError):
            Mul(ref(B), ref(A))

    def test_add_shape_mismatch(self, operands):
        A, B, _, _ = operands
        with pytest.raises(DimensionError):
            Add(ref(A), ref(B))

    def test_transpose_shape(self, operands):
        A, *_ = operands
        assert Transpose(ref(A)).shape == (6, 4)

    def test_scalar_scaling(self, operands):
        A, *_ = operands
        scaled = Mul(Const(2.0), ref(A))
        assert scaled.shape == A.shape
        assert scaled.is_scaling

    def test_inner_product_is_scalar(self, operands):
        *_, x = operands
        dot = Mul(Transpose(ref(x)), ref(x))
        assert dot.is_scalar

    def test_sqrt_requires_scalar(self, operands):
        A, *_ = operands
        with pytest.raises(DimensionError):
            Sqrt(ref(A))

    def test_division_requires_scalar_divisor(self, operands):
        A, *_ = operands
        with pytest.raises(DimensionError):
            Div(ref(A), ref(A))

    def test_inverse_requires_square(self, operands):
        A, *_ = operands
        with pytest.raises(DimensionError):
            Inverse(ref(A))

    def test_flatten_add_signs(self, operands):
        A, *_ = operands
        A2 = Matrix("A2", 4, 6)
        A3 = Matrix("A3", 4, 6)
        expr = Sub(Add(ref(A), ref(A2)), Neg(ref(A3)))
        terms = flatten_add(expr)
        assert [sign for sign, _ in terms] == [1, 1, 1]

    def test_walk_and_operands(self, operands):
        A, B, C, _ = operands
        expr = Add(Mul(ref(A), ref(B)), ref(C))
        assert {op.name for op in expr.operands()} == {"A", "B", "C"}
        assert not expr.contains_inverse()
        assert Inverse(ref(Matrix("S", 3, 3))).contains_inverse()


class TestProgram:
    def test_duplicate_declaration_rejected(self):
        prog = Program("p")
        prog.declare(Matrix("A", 2, 2))
        with pytest.raises(LASemanticError):
            prog.declare(Matrix("A", 2, 2))

    def test_overwrite_requires_declared_target_and_shape(self):
        prog = Program("p")
        prog.declare(Matrix("S", 3, 3, IOType.OUT))
        with pytest.raises(LASemanticError):
            prog.declare(Matrix("U", 2, 2, IOType.OUT, overwrites="S"))
        with pytest.raises(LASemanticError):
            prog.declare(Matrix("V", 3, 3, IOType.OUT, overwrites="missing"))

    def test_statement_with_undeclared_operand_rejected(self):
        prog = Program("p")
        A = Matrix("A", 2, 2, IOType.OUT)
        with pytest.raises(LASemanticError):
            prog.add(Assign(A.full_view(), ref(Matrix("B", 2, 2))))

    def test_write_to_input_rejected_by_validate(self):
        prog = Program("p")
        A = prog.declare(Matrix("A", 2, 2, IOType.IN))
        B = prog.declare(Matrix("B", 2, 2, IOType.IN))
        prog.statements.append(Assign(A.full_view(), ref(B)))
        with pytest.raises(LASemanticError):
            prog.validate()

    def test_read_before_write_rejected(self):
        prog = Program("p")
        A = prog.declare(Matrix("A", 2, 2, IOType.OUT))
        B = prog.declare(Matrix("B", 2, 2, IOType.OUT))
        prog.add(Assign(B.full_view(), ref(A)))
        with pytest.raises(LASemanticError):
            prog.validate()

    def test_storage_groups_follow_ow_chain(self):
        prog = Program("p")
        prog.declare(Matrix("S", 3, 3, IOType.OUT))
        prog.declare(Matrix("U", 3, 3, IOType.OUT, overwrites="S"))
        groups = prog.storage_groups()
        assert groups["U"] == "S"
        assert groups["S"] == "S"

    def test_for_loop_unrolling(self):
        prog = Program("p")
        A = prog.declare(Matrix("A", 2, 2, IOType.IN))
        B = prog.declare(Matrix("B", 2, 2, IOType.OUT))
        body = [Assign(B.full_view(), ref(A))]
        prog.statements.append(ForLoop("i", 0, 3, 1, body))
        assert len(prog.unrolled_statements()) == 3
        assert prog.is_basic()

    def test_hlac_detection(self):
        prog = Program("p")
        S = prog.declare(Matrix("S", 3, 3, IOType.IN,
                                properties=Properties.symmetric()))
        U = prog.declare(Matrix("U", 3, 3, IOType.OUT,
                                properties=Properties.upper_triangular()))
        prog.add(Equation(Mul(Transpose(ref(U)), ref(U)), ref(S)))
        assert not prog.is_basic()
        assert len(prog.hlacs()) == 1
