"""Lowering of canonical sBLAC operations to C-IR (Stage 2 back half).

Every canonical operation produced by :mod:`repro.lgen.normalize` is turned
into C-IR loops whose innermost steps are nu-BLAC-style vector operations
(broadcast multiply-accumulate, dot-product reduction, shuffle-based 4x4
transposes) or scalar code when vectorization is disabled or the access
pattern is not unit-stride.

Strategy selection follows the memory layout: SLinGen/LGen store operands
row-major, so the logical column dimension of a (non-transposed) view is
contiguous.  A matrix product is vectorized

* along ``j`` (columns of the destination) with broadcasts of A's elements
  when ``op(B)`` is unit-stride along ``j``  ("broadcast kernel"),
* along ``k`` (the reduction dimension) with a horizontal reduction when
  both ``op(A)`` and ``op(B)`` are unit-stride along ``k`` ("dot kernel"),
* along ``i`` when the destination is a contiguous column vector
  ("column kernel"),
* otherwise with scalar loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..cir.builder import CIRBuilder
from ..cir.nodes import (Affine, Assign, BinOp, CExpr, CStmt, FloatConst, For,
                         Load, ScalarVar, Store, UnOp, VBinOp, VBroadcast,
                         VecVar, VLoad, VReduceAdd, VStore, VZero)
from ..errors import LoweringError
from ..ir.expr import (Add, Const, Div, Expr, Mul, Neg, Ref, Sqrt, Sub,
                       Transpose)
from ..ir.operands import View
from .normalize import (CanonicalOp, MatMulOp, ScalarAssignOp, ScalarCoeff,
                        ScaleCopyOp)
from .nu_blacs import emit_scaled_row_copy, emit_transpose_4x4, leftover_mask

Index = Union[Affine, int, str]


@dataclass
class LoweringOptions:
    """Controls how sBLACs are lowered to C-IR."""

    vector_width: int = 4          # 1 disables vectorization
    use_shuffle_transpose: bool = True
    min_vector_length: int = 2     # do not vectorize dimensions shorter than this


# ---------------------------------------------------------------------------
# Shape / layout helpers
# ---------------------------------------------------------------------------


def op_shape(view: View, trans: bool) -> Tuple[int, int]:
    """Shape of ``op(view)`` where ``op`` optionally transposes."""
    return (view.cols, view.rows) if trans else (view.rows, view.cols)


def op_element(view: View, trans: bool, i: Index, j: Index) -> Tuple[Index, Index]:
    """View-relative (row, col) of element (i, j) of ``op(view)``."""
    return (j, i) if trans else (i, j)


def _buffer_cols(builder: CIRBuilder, view: View) -> int:
    return builder.buffer_for(view.operand).cols


def stride_along_cols(builder: CIRBuilder, view: View, trans: bool) -> int:
    """Memory stride when the column index of ``op(view)`` increases by 1."""
    return _buffer_cols(builder, view) if trans else 1


def stride_along_rows(builder: CIRBuilder, view: View, trans: bool) -> int:
    """Memory stride when the row index of ``op(view)`` increases by 1."""
    return 1 if trans else _buffer_cols(builder, view)


class Lowerer:
    """Lowers canonical operations into a C-IR statement list."""

    def __init__(self, builder: CIRBuilder, options: Optional[LoweringOptions] = None):
        self.builder = builder
        self.options = options or LoweringOptions()
        # Whether any op reached the decision ``use_shuffle_transpose``
        # steers; if none did, the flag's value cannot change the output.
        self.read_shuffle_transpose = False

    # -- public API -------------------------------------------------------------

    def lower(self, op: CanonicalOp, stmts: List[CStmt]) -> None:
        self._ensure_buffers(op)
        if isinstance(op, MatMulOp):
            self._lower_matmul(op, stmts)
        elif isinstance(op, ScaleCopyOp):
            self._lower_scale_copy(op, stmts)
        elif isinstance(op, ScalarAssignOp):
            self._lower_scalar_assign(op, stmts)
        else:  # pragma: no cover - defensive
            raise LoweringError(f"unknown canonical op {op!r}")

    # -- common helpers -----------------------------------------------------------

    def _ensure_buffers(self, op: CanonicalOp) -> None:
        """Register temp operands introduced by normalization as buffers."""
        views: List[View] = []
        if isinstance(op, MatMulOp):
            views = [op.dest, op.a, op.b]
            views += [f for f, _ in op.alpha.factors if isinstance(f, View)]
        elif isinstance(op, ScaleCopyOp):
            views = [op.dest, op.src]
            views += [f for f, _ in op.alpha.factors if isinstance(f, View)]
        elif isinstance(op, ScalarAssignOp):
            views = [op.dest] + op.expr.views()
        for view in views:
            if view.operand.name not in self.builder.program.operands:
                self.builder.register_temp_operand(view.operand)

    def _emit_coeff(self, coeff: ScalarCoeff,
                    stmts: List[CStmt]) -> Optional[ScalarVar]:
        """Materialize a scalar coefficient into a register (None if unit)."""
        if coeff.is_one:
            return None
        value: Optional[CExpr] = None
        for factor, reciprocal in coeff.factors:
            if isinstance(factor, View):
                buffer, index = self.builder.address(factor, 0, 0)
                factor_expr: CExpr = Load(buffer, index)
            else:
                factor_expr = FloatConst(float(factor))
            if reciprocal:
                numerator = value if value is not None else FloatConst(1.0)
                value = BinOp("div", numerator, factor_expr)
            else:
                value = factor_expr if value is None else \
                    BinOp("mul", value, factor_expr)
        if value is None:
            value = FloatConst(1.0)
        if coeff.sign < 0:
            value = UnOp("neg", value)
        reg = self.builder.scalar("alpha")
        stmts.append(Assign(reg, value))
        return reg

    def _broadcast(self, scalar: Optional[ScalarVar], width: int,
                   stmts: List[CStmt]) -> Optional[VecVar]:
        if scalar is None:
            return None
        reg = self.builder.vector(width, "valpha")
        stmts.append(Assign(reg, VBroadcast(scalar, width)))
        return reg

    def _load(self, view: View, row: Index, col: Index) -> Load:
        buffer, index = self.builder.address(view, row, col)
        return Load(buffer, index)

    def _vload(self, view: View, row: Index, col: Index, width: int,
               mask=None) -> VLoad:
        buffer, index = self.builder.address(view, row, col)
        return VLoad(buffer, index, width, mask)

    def _store(self, view: View, row: Index, col: Index, value: CExpr) -> Store:
        buffer, index = self.builder.address(view, row, col)
        return Store(buffer, index, value)

    def _vstore(self, view: View, row: Index, col: Index, value: CExpr,
                width: int, mask=None) -> VStore:
        buffer, index = self.builder.address(view, row, col)
        return VStore(buffer, index, value, width, mask)

    # -- matrix multiplication ------------------------------------------------------

    def _lower_matmul(self, op: MatMulOp, stmts: List[CStmt]) -> None:
        m, ka = op_shape(op.a, op.trans_a)
        kb, n = op_shape(op.b, op.trans_b)
        dm, dn = op.dest.shape
        if ka != kb or (dm, dn) != (m, n):
            raise LoweringError(
                f"inconsistent matmul shapes: dest {op.dest.shape}, "
                f"A {op_shape(op.a, op.trans_a)}, "
                f"B {op_shape(op.b, op.trans_b)}")
        k = ka
        width = self.options.vector_width

        if width > 1:
            b_cols_contig = stride_along_cols(self.builder, op.b, op.trans_b) == 1
            a_k_contig = stride_along_cols(self.builder, op.a, op.trans_a) == 1
            b_k_contig = stride_along_rows(self.builder, op.b, op.trans_b) == 1
            dest_rows_contig = stride_along_rows(self.builder, op.dest, False) == 1
            a_rows_contig = stride_along_rows(self.builder, op.a, op.trans_a) == 1
            if n >= self.options.min_vector_length and b_cols_contig:
                self._matmul_broadcast_j(op, m, n, k, width, stmts)
                return
            if k >= self.options.min_vector_length and a_k_contig and b_k_contig:
                self._matmul_dot_k(op, m, n, k, width, stmts)
                return
            if (n == 1 and m >= self.options.min_vector_length
                    and dest_rows_contig and a_rows_contig):
                self._matmul_broadcast_i(op, m, k, width, stmts)
                return
            if b_cols_contig and n >= 1:
                self._matmul_broadcast_j(op, m, n, k, width, stmts)
                return
        self._matmul_scalar(op, m, n, k, stmts)

    def _matmul_broadcast_j(self, op: MatMulOp, m: int, n: int, k: int,
                            width: int, stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        valpha = self._broadcast(alpha, width, stmts)
        i_var = self.builder.index_var("i")
        n_full = (n // width) * width

        def emit_block(body: List[CStmt], i: Index, j: Index, count: int) -> None:
            mask = leftover_mask(count, width)
            acc = self.builder.vector(width, "acc")
            body.append(Assign(acc, VZero(width)))
            k_var = self.builder.index_var("k")
            k_body: List[CStmt] = []
            a_reg = self.builder.scalar("a")
            a_row, a_col = op_element(op.a, op.trans_a, i, k_var)
            k_body.append(Assign(a_reg, self._load(op.a, a_row, a_col)))
            b_row, b_col = op_element(op.b, op.trans_b, k_var, j)
            k_body.append(Assign(acc, VBinOp(
                "add", acc,
                VBinOp("mul", VBroadcast(a_reg, width),
                       self._vload(op.b, b_row, b_col, width, mask), width),
                width)))
            body.append(For(k_var, 0, k, 1, k_body))
            contrib: CExpr = acc
            if valpha is not None:
                contrib = VBinOp("mul", valpha, contrib, width)
            if op.accumulate:
                existing = self._vload(op.dest, i, j, width, mask)
                contrib = VBinOp("add" if op.accumulate > 0 else "sub",
                                 existing, contrib, width)
            body.append(self._vstore(op.dest, i, j, contrib, width, mask))

        i_body: List[CStmt] = []
        if n_full:
            j_var = self.builder.index_var("j")
            j_body: List[CStmt] = []
            emit_block(j_body, i_var, j_var, width)
            i_body.append(For(j_var, 0, n_full, width, j_body))
        if n % width:
            emit_block(i_body, i_var, n_full, n % width)
        stmts.append(For(i_var, 0, m, 1, i_body))

    def _matmul_dot_k(self, op: MatMulOp, m: int, n: int, k: int, width: int,
                      stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        i_var = self.builder.index_var("i")
        j_var = self.builder.index_var("j")
        k_full = (k // width) * width

        body: List[CStmt] = []
        acc = self.builder.vector(width, "acc")
        body.append(Assign(acc, VZero(width)))
        if k_full:
            k_var = self.builder.index_var("k")
            k_body: List[CStmt] = []
            a_row, a_col = op_element(op.a, op.trans_a, i_var, k_var)
            b_row, b_col = op_element(op.b, op.trans_b, k_var, j_var)
            k_body.append(Assign(acc, VBinOp(
                "add", acc,
                VBinOp("mul", self._vload(op.a, a_row, a_col, width),
                       self._vload(op.b, b_row, b_col, width), width),
                width)))
            body.append(For(k_var, 0, k_full, width, k_body))
        if k % width:
            mask = leftover_mask(k % width, width)
            a_row, a_col = op_element(op.a, op.trans_a, i_var, k_full)
            b_row, b_col = op_element(op.b, op.trans_b, k_full, j_var)
            body.append(Assign(acc, VBinOp(
                "add", acc,
                VBinOp("mul", self._vload(op.a, a_row, a_col, width, mask),
                       self._vload(op.b, b_row, b_col, width, mask), width),
                width)))
        total = self.builder.scalar("dot")
        body.append(Assign(total, VReduceAdd(acc)))
        contrib: CExpr = total
        if alpha is not None:
            contrib = BinOp("mul", alpha, contrib)
        if op.accumulate:
            existing = self._load(op.dest, i_var, j_var)
            contrib = BinOp("add" if op.accumulate > 0 else "sub", existing,
                            contrib)
        body.append(self._store(op.dest, i_var, j_var, contrib))

        j_loop = For(j_var, 0, n, 1, body)
        stmts.append(For(i_var, 0, m, 1, [j_loop]))

    def _matmul_broadcast_i(self, op: MatMulOp, m: int, k: int, width: int,
                            stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        valpha = self._broadcast(alpha, width, stmts)
        m_full = (m // width) * width

        def emit_block(body: List[CStmt], i: Index, count: int) -> None:
            mask = leftover_mask(count, width)
            acc = self.builder.vector(width, "acc")
            body.append(Assign(acc, VZero(width)))
            k_var = self.builder.index_var("k")
            k_body: List[CStmt] = []
            b_reg = self.builder.scalar("b")
            b_row, b_col = op_element(op.b, op.trans_b, k_var, 0)
            k_body.append(Assign(b_reg, self._load(op.b, b_row, b_col)))
            a_row, a_col = op_element(op.a, op.trans_a, i, k_var)
            k_body.append(Assign(acc, VBinOp(
                "add", acc,
                VBinOp("mul", self._vload(op.a, a_row, a_col, width, mask),
                       VBroadcast(b_reg, width), width),
                width)))
            body.append(For(k_var, 0, k, 1, k_body))
            contrib: CExpr = acc
            if valpha is not None:
                contrib = VBinOp("mul", valpha, contrib, width)
            if op.accumulate:
                existing = self._vload(op.dest, i, 0, width, mask)
                contrib = VBinOp("add" if op.accumulate > 0 else "sub",
                                 existing, contrib, width)
            body.append(self._vstore(op.dest, i, 0, contrib, width, mask))

        if m_full:
            i_var = self.builder.index_var("i")
            i_body: List[CStmt] = []
            emit_block(i_body, i_var, width)
            stmts.append(For(i_var, 0, m_full, width, i_body))
        if m % width:
            emit_block(stmts, m_full, m % width)

    def _matmul_scalar(self, op: MatMulOp, m: int, n: int, k: int,
                       stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        i_var = self.builder.index_var("i")
        j_var = self.builder.index_var("j")
        k_var = self.builder.index_var("k")

        acc = self.builder.scalar("acc")
        body: List[CStmt] = [Assign(acc, FloatConst(0.0))]
        a_row, a_col = op_element(op.a, op.trans_a, i_var, k_var)
        b_row, b_col = op_element(op.b, op.trans_b, k_var, j_var)
        k_body = [Assign(acc, BinOp("add", acc,
                                    BinOp("mul",
                                          self._load(op.a, a_row, a_col),
                                          self._load(op.b, b_row, b_col))))]
        body.append(For(k_var, 0, k, 1, k_body))
        contrib: CExpr = acc
        if alpha is not None:
            contrib = BinOp("mul", alpha, contrib)
        if op.accumulate:
            existing = self._load(op.dest, i_var, j_var)
            contrib = BinOp("add" if op.accumulate > 0 else "sub", existing,
                            contrib)
        body.append(self._store(op.dest, i_var, j_var, contrib))

        stmts.append(For(i_var, 0, m, 1, [For(j_var, 0, n, 1, body)]))

    # -- scaled copies ------------------------------------------------------------

    def _lower_scale_copy(self, op: ScaleCopyOp, stmts: List[CStmt]) -> None:
        sm, sn = op_shape(op.src, op.trans)
        if (sm, sn) != op.dest.shape:
            raise LoweringError(
                f"inconsistent copy shapes: dest {op.dest.shape}, "
                f"src {op_shape(op.src, op.trans)}")
        m, n = op.dest.shape
        width = self.options.vector_width

        if op.trans and width == 4 and op.alpha.is_one \
                and op.accumulate == 0 and m >= 4 and n >= 4:
            self.read_shuffle_transpose = True
            if self.options.use_shuffle_transpose:
                self._transposed_copy_tiled(op, m, n, stmts)
                return

        if not op.trans and width > 1:
            src_cols_contig = stride_along_cols(self.builder, op.src, False) == 1
            dest_cols_contig = stride_along_cols(self.builder, op.dest, False) == 1
            if n >= self.options.min_vector_length and src_cols_contig \
                    and dest_cols_contig:
                self._copy_rowwise_vector(op, m, n, width, stmts)
                return
            src_rows_contig = stride_along_rows(self.builder, op.src, False) == 1
            dest_rows_contig = stride_along_rows(self.builder, op.dest, False) == 1
            if n == 1 and m >= self.options.min_vector_length \
                    and src_rows_contig and dest_rows_contig:
                self._copy_colwise_vector(op, m, width, stmts)
                return
        self._copy_scalar(op, m, n, stmts)

    def _copy_rowwise_vector(self, op: ScaleCopyOp, m: int, n: int, width: int,
                             stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        valpha = self._broadcast(alpha, width, stmts)
        i_var = self.builder.index_var("i")
        n_full = (n // width) * width
        i_body: List[CStmt] = []
        if n_full:
            j_var = self.builder.index_var("j")
            j_body: List[CStmt] = []
            emit_scaled_row_copy(self.builder, op.dest, i_var, j_var, op.src,
                                 i_var, j_var, width, None, valpha,
                                 op.accumulate, j_body)
            i_body.append(For(j_var, 0, n_full, width, j_body))
        if n % width:
            mask = leftover_mask(n % width, width)
            emit_scaled_row_copy(self.builder, op.dest, i_var, n_full, op.src,
                                 i_var, n_full, width, mask, valpha,
                                 op.accumulate, i_body)
        stmts.append(For(i_var, 0, m, 1, i_body))

    def _copy_colwise_vector(self, op: ScaleCopyOp, m: int, width: int,
                             stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        valpha = self._broadcast(alpha, width, stmts)
        m_full = (m // width) * width
        if m_full:
            i_var = self.builder.index_var("i")
            body: List[CStmt] = []
            emit_scaled_row_copy(self.builder, op.dest, i_var, 0, op.src,
                                 i_var, 0, width, None, valpha, op.accumulate,
                                 body)
            stmts.append(For(i_var, 0, m_full, width, body))
        if m % width:
            mask = leftover_mask(m % width, width)
            emit_scaled_row_copy(self.builder, op.dest, m_full, 0, op.src,
                                 m_full, 0, width, mask, valpha, op.accumulate,
                                 stmts)

    def _copy_scalar(self, op: ScaleCopyOp, m: int, n: int,
                     stmts: List[CStmt]) -> None:
        alpha = self._emit_coeff(op.alpha, stmts)
        i_var = self.builder.index_var("i")
        j_var = self.builder.index_var("j")
        src_row, src_col = op_element(op.src, op.trans, i_var, j_var)
        value: CExpr = self._load(op.src, src_row, src_col)
        if alpha is not None:
            value = BinOp("mul", alpha, value)
        if op.accumulate:
            existing = self._load(op.dest, i_var, j_var)
            value = BinOp("add" if op.accumulate > 0 else "sub", existing,
                          value)
        body = [self._store(op.dest, i_var, j_var, value)]
        if n == 1:
            stmts.append(For(i_var, 0, m, 1,
                             [For(j_var, 0, 1, 1, body)]))
        else:
            stmts.append(For(i_var, 0, m, 1, [For(j_var, 0, n, 1, body)]))

    def _transposed_copy_tiled(self, op: ScaleCopyOp, m: int, n: int,
                               stmts: List[CStmt]) -> None:
        """Transpose using the 4x4 shuffle codelet for full tiles."""
        tile = 4
        m_full = (m // tile) * tile
        n_full = (n // tile) * tile
        for r0 in range(0, m_full, tile):
            for c0 in range(0, n_full, tile):
                emit_transpose_4x4(self.builder, op.dest, r0, c0, op.src,
                                   c0, r0, stmts)
        # Leftover rows/columns fall back to scalar copies.
        for r in range(m):
            for c in range(n):
                if r < m_full and c < n_full:
                    continue
                stmts.append(self._store(op.dest, r, c,
                                         self._load(op.src, c, r)))

    # -- scalar statements ---------------------------------------------------------

    def _lower_scalar_assign(self, op: ScalarAssignOp, stmts: List[CStmt]) -> None:
        value = self._scalar_expr(op.expr, stmts)
        stmts.append(self._store(op.dest, 0, 0, value))

    def _scalar_expr(self, expr: Expr, stmts: List[CStmt]) -> CExpr:
        if isinstance(expr, Const):
            return FloatConst(float(expr.value))
        if isinstance(expr, Ref):
            if not expr.view.is_scalar:
                raise LoweringError(
                    f"non-scalar reference {expr!r} in scalar expression")
            return self._load(expr.view, 0, 0)
        if isinstance(expr, Transpose):
            return self._scalar_expr(expr.child, stmts)
        if isinstance(expr, Neg):
            return UnOp("neg", self._scalar_expr(expr.child, stmts))
        if isinstance(expr, Sqrt):
            return UnOp("sqrt", self._scalar_expr(expr.child, stmts))
        if isinstance(expr, Add):
            return BinOp("add", self._scalar_expr(expr.left, stmts),
                         self._scalar_expr(expr.right, stmts))
        if isinstance(expr, Sub):
            return BinOp("sub", self._scalar_expr(expr.left, stmts),
                         self._scalar_expr(expr.right, stmts))
        if isinstance(expr, Div):
            return BinOp("div", self._scalar_expr(expr.left, stmts),
                         self._scalar_expr(expr.right, stmts))
        if isinstance(expr, Mul):
            if expr.left.is_scalar and expr.right.is_scalar:
                return BinOp("mul", self._scalar_expr(expr.left, stmts),
                             self._scalar_expr(expr.right, stmts))
            return self._inline_dot(expr, stmts)
        raise LoweringError(f"unsupported scalar expression {expr!r}")

    def _vector_leaf(self, expr: Expr) -> Tuple[View, bool]:
        """Interpret an expression as a (possibly transposed) vector view."""
        if isinstance(expr, Ref):
            return expr.view, False
        if isinstance(expr, Transpose) and isinstance(expr.child, Ref):
            return expr.child.view, True
        raise LoweringError(
            f"expected a (transposed) vector reference, got {expr!r}")

    def _inline_dot(self, expr: Mul, stmts: List[CStmt]) -> CExpr:
        """Lower a scalar-valued product of two vectors (an inner product)."""
        if expr.left.cols == expr.right.rows and expr.left.rows == 1 \
                and expr.right.cols == 1:
            left_view, left_trans = self._vector_leaf(expr.left)
            right_view, right_trans = self._vector_leaf(expr.right)
        else:
            raise LoweringError(
                f"scalar expression contains a non-inner product {expr!r}")
        length = expr.left.cols
        width = self.options.vector_width

        def element(view: View, trans: bool, logical_is_row: bool,
                    idx: Index) -> Tuple[Index, Index]:
            # logical vector element `idx`; the view is 1 x k or k x 1
            if view.rows == 1:
                coords = (0, idx)
            else:
                coords = (idx, 0)
            return coords

        def contiguous(view: View) -> bool:
            if view.rows == 1:
                return True
            return _buffer_cols(self.builder, view) == 1

        if width > 1 and length >= width and contiguous(left_view) \
                and contiguous(right_view):
            acc = self.builder.vector(width, "acc")
            stmts.append(Assign(acc, VZero(width)))
            full = (length // width) * width
            if full:
                k_var = self.builder.index_var("k")
                lr, lc = element(left_view, left_trans, True, k_var)
                rr, rc = element(right_view, right_trans, False, k_var)
                body = [Assign(acc, VBinOp(
                    "add", acc,
                    VBinOp("mul", self._vload(left_view, lr, lc, width),
                           self._vload(right_view, rr, rc, width), width),
                    width))]
                stmts.append(For(k_var, 0, full, width, body))
            if length % width:
                mask = leftover_mask(length % width, width)
                lr, lc = element(left_view, left_trans, True, full)
                rr, rc = element(right_view, right_trans, False, full)
                stmts.append(Assign(acc, VBinOp(
                    "add", acc,
                    VBinOp("mul",
                           self._vload(left_view, lr, lc, width, mask),
                           self._vload(right_view, rr, rc, width, mask),
                           width),
                    width)))
            total = self.builder.scalar("dot")
            stmts.append(Assign(total, VReduceAdd(acc)))
            return total

        acc_s = self.builder.scalar("dot")
        stmts.append(Assign(acc_s, FloatConst(0.0)))
        k_var = self.builder.index_var("k")
        lr, lc = element(left_view, left_trans, True, k_var)
        rr, rc = element(right_view, right_trans, False, k_var)
        body = [Assign(acc_s, BinOp("add", acc_s,
                                    BinOp("mul",
                                          self._load(left_view, lr, lc),
                                          self._load(right_view, rr, rc))))]
        stmts.append(For(k_var, 0, length, 1, body))
        return acc_s
