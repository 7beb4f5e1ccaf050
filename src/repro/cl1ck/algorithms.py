"""Synthesis of loop-based algorithms for HLACs (Stage 1 back end).

For every recognized HLAC, this module produces one or more *algorithmic
variants*: sequences of sBLACs and auxiliary scalar computations on views of
the operands (a "basic linear algebra program" fragment, paper Sec. 3.1).
Blocked variants partition the operands with block size ``nu`` (the vector
width) so the resulting sBLACs are large enough to vectorize; the
vector-size diagonal blocks are expanded into unrolled codelets of scalar
statements and short row operations, exactly like the codelet synthesis of
Fig. 9/10 in the paper.  Scalar reciprocals are emitted in the
``tau = 1/alpha; row = tau * (...)`` form of rewrite rule R1 (Table 2).

Because all operand sizes are fixed, the outer FLAME-style loops are emitted
fully unrolled: each "iteration" contributes statements on concrete views.

The variants offered per operation:

=================  =========================================================
``cholesky_*``     ``blocked`` (left-looking), ``right-looking`` (only when
                   the right-hand side is writable), ``unblocked``
``trsm``           ``blocked`` (by row blocks), ``unblocked`` (row-wise)
``trtri``          ``blocked`` (left-looking), ``unblocked`` (column-wise)
``trsyl``          ``columnwise``, ``blocked`` (by column blocks)
``trlya``          ``columnwise``, ``gemv`` (hoists the cross-column update)
=================  =========================================================
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional

from ..errors import SynthesisError
from ..ir.expr import (Add, Const, Div, Expr, Mul, Neg, Ref, Sqrt, Sub,
                       Transpose, ref)
from ..ir.operands import Scratch, View
from ..ir.program import Assign, Program, Statement
from .operations import OperationInstance


class Synthesizer:
    """Expands recognized HLACs into basic-program statements.

    Parameters
    ----------
    program:
        The basic program under construction; temporaries are declared here.
    block_size:
        The blocking factor nu (normally the vector width).
    """

    #: Fallback counter so temporaries are uniquely named across synthesizer
    #: instances.  Stage-1 expansions are cached in the algorithm database and
    #: may be spliced into several candidate programs; per-instance counters
    #: would let unrelated temporaries collide on the same name (and thus the
    #: same C buffer).  Callers that need deterministic output (the kernel
    #: cache hashes it) pass the per-run counter of their AlgorithmDatabase
    #: instead of relying on this process-global one.
    _shared_counter = itertools.count()

    def __init__(self, program: Program, block_size: int = 4,
                 temp_prefix: str = "c1",
                 counter: Optional[Iterator[int]] = None):
        self.program = program
        self.block_size = max(1, block_size)
        self._counter = counter if counter is not None \
            else Synthesizer._shared_counter
        self._prefix = temp_prefix

    # -- public API -------------------------------------------------------------

    def variants_for(self, op: OperationInstance) -> List[str]:
        """Names of the algorithmic variants available for an operation."""
        if op.kind in ("cholesky_upper", "cholesky_lower"):
            variants = ["blocked", "unblocked"]
            if op.views["rhs"].operand.is_output:
                variants.insert(1, "right-looking")
            return variants
        if op.kind == "trsm":
            return ["blocked", "unblocked"]
        if op.kind == "trtri":
            return ["blocked", "unblocked"]
        if op.kind == "trsyl":
            return ["blocked", "columnwise"]
        if op.kind == "trlya":
            return ["gemv", "columnwise"]
        raise SynthesisError(f"unknown operation kind {op.kind!r}")

    def expand(self, op: OperationInstance,
               variant: Optional[str] = None) -> List[Statement]:
        """Expand one HLAC into basic-program statements."""
        variant = variant or self.variants_for(op)[0]
        if variant not in self.variants_for(op):
            raise SynthesisError(
                f"variant {variant!r} is not available for {op.kind}; "
                f"choose one of {self.variants_for(op)}")
        if op.kind == "cholesky_upper":
            return self._cholesky_upper(op, variant)
        if op.kind == "cholesky_lower":
            return self._cholesky_lower(op, variant)
        if op.kind == "trsm":
            return self._trsm(op, variant)
        if op.kind == "trtri":
            return self._trtri(op, variant)
        if op.kind == "trsyl":
            return self._trsyl(op, variant)
        if op.kind == "trlya":
            return self._trlya(op, variant)
        raise SynthesisError(f"unknown operation kind {op.kind!r}")

    # -- helpers ----------------------------------------------------------------

    def _temp(self, rows: int, cols: int) -> View:
        operand = Scratch(f"{self._prefix}_t{next(self._counter)}", rows, cols)
        self.program.declare(operand)
        return operand.full_view()

    def _tau(self) -> View:
        return self._temp(1, 1)

    @staticmethod
    def _blk(view: View, r0: int, r1: int, c0: int, c1: int) -> View:
        return view.sub(r0, c0, r1 - r0, c1 - c0)

    def _reciprocal(self, denominator: Expr,
                    stmts: List[Statement]) -> View:
        """Emit ``tau = 1 / denominator`` (rule R1) and return tau's view."""
        tau = self._tau()
        stmts.append(Assign(tau, Div(Const(1.0), denominator)))
        return tau

    # =================================================================
    # Cholesky
    # =================================================================

    def _chol_upper_unblocked(self, factor: View, source: View,
                              stmts: List[Statement]) -> None:
        """Unrolled codelet for ``U^T U = T`` on a small block.

        ``factor`` is the b x b destination block of U, ``source`` the b x b
        matrix to factor (already containing any Schur-complement update).
        Only the upper triangle of ``source`` is read.
        """
        b = factor.rows
        for r in range(b):
            diag_src: Expr = ref(source.sub(r, r, 1, 1))
            if r > 0:
                col = factor.sub(0, r, r, 1)
                diag_src = Sub(diag_src, Mul(Transpose(ref(col)), ref(col)))
            stmts.append(Assign(factor.sub(r, r, 1, 1), Sqrt(diag_src)))
            if r + 1 < b:
                tau = self._reciprocal(ref(factor.sub(r, r, 1, 1)), stmts)
                row_dest = factor.sub(r, r + 1, 1, b - r - 1)
                row_src = source.sub(r, r + 1, 1, b - r - 1)
                rhs: Expr = Mul(ref(tau), ref(row_src))
                if r > 0:
                    col = factor.sub(0, r, r, 1)
                    panel = factor.sub(0, r + 1, r, b - r - 1)
                    rhs = Sub(rhs, Mul(ref(tau),
                                       Mul(Transpose(ref(col)), ref(panel))))
                stmts.append(Assign(row_dest, rhs))

    def _chol_lower_unblocked(self, factor: View, source: View,
                              stmts: List[Statement]) -> None:
        """Unrolled codelet for ``L L^T = T`` on a small block."""
        b = factor.rows
        for r in range(b):
            for c in range(r):
                tau = self._reciprocal(ref(factor.sub(c, c, 1, 1)), stmts)
                value: Expr = Mul(ref(tau), ref(source.sub(r, c, 1, 1)))
                if c > 0:
                    row_r = factor.sub(r, 0, 1, c)
                    row_c = factor.sub(c, 0, 1, c)
                    value = Sub(value, Mul(ref(tau),
                                           Mul(ref(row_r),
                                               Transpose(ref(row_c)))))
                stmts.append(Assign(factor.sub(r, c, 1, 1), value))
            diag_src: Expr = ref(source.sub(r, r, 1, 1))
            if r > 0:
                row = factor.sub(r, 0, 1, r)
                diag_src = Sub(diag_src, Mul(ref(row), Transpose(ref(row))))
            stmts.append(Assign(factor.sub(r, r, 1, 1), Sqrt(diag_src)))

    def _chol_trsm_rows(self, diag: View, panel_dest: View, panel_src: View,
                        stmts: List[Statement]) -> None:
        """Solve ``diag^T * panel_dest = panel_src`` row by row (diag upper)."""
        b = diag.rows
        for r in range(b):
            tau = self._reciprocal(ref(diag.sub(r, r, 1, 1)), stmts)
            rhs: Expr = Mul(ref(tau), ref(panel_src.sub(r, 0, 1,
                                                        panel_src.cols)))
            if r > 0:
                col = diag.sub(0, r, r, 1)
                above = panel_dest.sub(0, 0, r, panel_dest.cols)
                rhs = Sub(rhs, Mul(ref(tau),
                                   Mul(Transpose(ref(col)), ref(above))))
            stmts.append(Assign(panel_dest.sub(r, 0, 1, panel_dest.cols), rhs))

    def _cholesky_upper(self, op: OperationInstance,
                        variant: str) -> List[Statement]:
        factor, source = op.views["factor"], op.views["rhs"]
        n = factor.rows
        nb = n if variant == "unblocked" else self.block_size
        stmts: List[Statement] = []
        for i in range(0, n, nb):
            b = min(nb, n - i)
            diag_dest = self._blk(factor, i, i + b, i, i + b)
            rest = n - i - b
            if variant == "right-looking":
                diag_src = self._blk(source, i, i + b, i, i + b)
                self._chol_upper_unblocked(diag_dest, diag_src, stmts)
                if rest:
                    panel_dest = self._blk(factor, i, i + b, i + b, n)
                    panel_src = self._blk(source, i, i + b, i + b, n)
                    self._chol_trsm_rows(diag_dest, panel_dest, panel_src,
                                         stmts)
                    trailing = self._blk(source, i + b, i + b + rest,
                                         i + b, n)
                    stmts.append(Assign(
                        trailing,
                        Sub(ref(trailing),
                            Mul(Transpose(ref(panel_dest)),
                                ref(panel_dest)))))
            else:
                diag_src = self._blk(source, i, i + b, i, i + b)
                if i > 0:
                    above = self._blk(factor, 0, i, i, i + b)
                    block_temp = self._temp(b, b)
                    stmts.append(Assign(
                        block_temp,
                        Sub(ref(diag_src),
                            Mul(Transpose(ref(above)), ref(above)))))
                    diag_src = block_temp
                self._chol_upper_unblocked(diag_dest, diag_src, stmts)
                if rest:
                    panel_src = self._blk(source, i, i + b, i + b, n)
                    if i > 0:
                        above_left = self._blk(factor, 0, i, i, i + b)
                        above_right = self._blk(factor, 0, i, i + b, n)
                        panel_temp = self._temp(b, rest)
                        stmts.append(Assign(
                            panel_temp,
                            Sub(ref(panel_src),
                                Mul(Transpose(ref(above_left)),
                                    ref(above_right)))))
                        panel_src = panel_temp
                    panel_dest = self._blk(factor, i, i + b, i + b, n)
                    self._chol_trsm_rows(diag_dest, panel_dest, panel_src,
                                         stmts)
        return stmts

    def _cholesky_lower(self, op: OperationInstance,
                        variant: str) -> List[Statement]:
        factor, source = op.views["factor"], op.views["rhs"]
        n = factor.rows
        nb = n if variant == "unblocked" else self.block_size
        stmts: List[Statement] = []
        for i in range(0, n, nb):
            b = min(nb, n - i)
            diag_dest = self._blk(factor, i, i + b, i, i + b)
            rest = n - i - b
            if variant == "right-looking":
                diag_src = self._blk(source, i, i + b, i, i + b)
                self._chol_lower_unblocked(diag_dest, diag_src, stmts)
                if rest:
                    panel_dest = self._blk(factor, i + b, n, i, i + b)
                    panel_src = self._blk(source, i + b, n, i, i + b)
                    self._chol_lower_panel(diag_dest, panel_dest, panel_src,
                                           stmts)
                    trailing = self._blk(source, i + b, n, i + b, n)
                    stmts.append(Assign(
                        trailing,
                        Sub(ref(trailing),
                            Mul(ref(panel_dest), Transpose(ref(panel_dest))))))
            else:
                diag_src = self._blk(source, i, i + b, i, i + b)
                if i > 0:
                    left = self._blk(factor, i, i + b, 0, i)
                    block_temp = self._temp(b, b)
                    stmts.append(Assign(
                        block_temp,
                        Sub(ref(diag_src), Mul(ref(left),
                                               Transpose(ref(left))))))
                    diag_src = block_temp
                self._chol_lower_unblocked(diag_dest, diag_src, stmts)
                if rest:
                    panel_src = self._blk(source, i + b, n, i, i + b)
                    if i > 0:
                        below_left = self._blk(factor, i + b, n, 0, i)
                        here_left = self._blk(factor, i, i + b, 0, i)
                        panel_temp = self._temp(rest, b)
                        stmts.append(Assign(
                            panel_temp,
                            Sub(ref(panel_src),
                                Mul(ref(below_left),
                                    Transpose(ref(here_left))))))
                        panel_src = panel_temp
                    panel_dest = self._blk(factor, i + b, n, i, i + b)
                    self._chol_lower_panel(diag_dest, panel_dest, panel_src,
                                           stmts)
        return stmts

    def _chol_lower_panel(self, diag: View, panel_dest: View, panel_src: View,
                          stmts: List[Statement]) -> None:
        """Solve ``panel_dest * diag^T = panel_src`` column by column."""
        b = diag.rows
        rows = panel_dest.rows
        for c in range(b):
            tau = self._reciprocal(ref(diag.sub(c, c, 1, 1)), stmts)
            rhs: Expr = Mul(ref(tau), ref(panel_src.sub(0, c, rows, 1)))
            if c > 0:
                left = panel_dest.sub(0, 0, rows, c)
                diag_row = diag.sub(c, 0, 1, c)
                rhs = Sub(rhs, Mul(ref(tau),
                                   Mul(ref(left), Transpose(ref(diag_row)))))
            stmts.append(Assign(panel_dest.sub(0, c, rows, 1), rhs))

    # =================================================================
    # Triangular solve:  op(T) * X = B
    # =================================================================

    def _trsm_coefficient_row(self, op: OperationInstance, r: int, c0: int,
                              c1: int) -> Expr:
        """Row segment ``A[r, c0:c1]`` of the effective coefficient matrix."""
        coeff = op.views["coefficient"]
        if op.flags.get("transposed"):
            return Transpose(ref(coeff.sub(c0, r, c1 - c0, 1)))
        return ref(coeff.sub(r, c0, 1, c1 - c0))

    def _trsm_diag(self, op: OperationInstance, r: int) -> Expr:
        return ref(op.views["coefficient"].sub(r, r, 1, 1))

    def _trsm_rows(self, op: OperationInstance, rows: range, rhs_view: View,
                   rhs_offset: int, stmts: List[Statement]) -> None:
        """Row-wise substitution for rows ``rows`` (global indices).

        ``rhs_view`` supplies the right-hand side rows with row ``r`` of the
        global system found at row ``r - rhs_offset`` of the view.  Rows of X
        outside ``rows`` (already computed) are folded into ``rhs_view`` by
        the caller for the blocked variant.
        """
        unknown = op.views["unknown"]
        n = unknown.cols
        lower = op.flags["uplo"] == "lower"
        lo, hi = min(rows), max(rows)
        for r in rows:
            tau = self._reciprocal(self._trsm_diag(op, r), stmts)
            src_row = rhs_view.sub(r - rhs_offset, 0, 1, n)
            value: Expr = Mul(ref(tau), ref(src_row))
            if lower and r > lo:
                coeff_row = self._trsm_coefficient_row(op, r, lo, r)
                computed = unknown.sub(lo, 0, r - lo, n)
                value = Sub(value, Mul(ref(tau), Mul(coeff_row,
                                                     ref(computed))))
            if not lower and r < hi:
                coeff_row = self._trsm_coefficient_row(op, r, r + 1, hi + 1)
                computed = unknown.sub(r + 1, 0, hi - r, n)
                value = Sub(value, Mul(ref(tau), Mul(coeff_row,
                                                     ref(computed))))
            stmts.append(Assign(unknown.sub(r, 0, 1, n), value))

    def _trsm(self, op: OperationInstance, variant: str) -> List[Statement]:
        unknown, rhs = op.views["unknown"], op.views["rhs"]
        m, n = unknown.shape
        lower = op.flags["uplo"] == "lower"
        stmts: List[Statement] = []
        if variant == "unblocked":
            rows = range(m) if lower else range(m - 1, -1, -1)
            self._trsm_rows(op, _ordered(rows, lower, 0, m), rhs, 0, stmts)
            return stmts

        nb = self.block_size
        blocks = list(range(0, m, nb))
        if not lower:
            blocks = blocks[::-1]
        for i in blocks:
            b = min(nb, m - i)
            block_rhs = rhs.sub(i, 0, b, n)
            if lower and i > 0:
                coeff_panel = self._trsm_coefficient_panel(op, i, i + b, 0, i)
                computed = unknown.sub(0, 0, i, n)
                temp = self._temp(b, n)
                stmts.append(Assign(temp, Sub(ref(block_rhs),
                                              Mul(coeff_panel,
                                                  ref(computed)))))
                block_rhs = temp
            if not lower and i + b < m:
                coeff_panel = self._trsm_coefficient_panel(op, i, i + b,
                                                           i + b, m)
                computed = unknown.sub(i + b, 0, m - i - b, n)
                temp = self._temp(b, n)
                stmts.append(Assign(temp, Sub(ref(block_rhs),
                                              Mul(coeff_panel,
                                                  ref(computed)))))
                block_rhs = temp
            rows = range(i, i + b) if lower else range(i + b - 1, i - 1, -1)
            self._trsm_rows(op, _ordered(rows, lower, i, i + b), block_rhs, i,
                            stmts)
        return stmts

    def _trsm_coefficient_panel(self, op: OperationInstance, r0: int, r1: int,
                                c0: int, c1: int) -> Expr:
        coeff = op.views["coefficient"]
        if op.flags.get("transposed"):
            return Transpose(ref(coeff.sub(c0, r0, c1 - c0, r1 - r0)))
        return ref(coeff.sub(r0, c0, r1 - r0, c1 - c0))

    # =================================================================
    # Triangular inverse:  X = T^{-1}
    # =================================================================

    def _trtri_coefficient(self, op: OperationInstance, r0: int, c0: int,
                           rows: int, cols: int) -> Expr:
        """Block ``[r0:r0+rows, c0:c0+cols]`` of the *effective* (possibly
        transposed) coefficient.  Reading the stored operand without
        honouring the transpose silently inverted the wrong matrix for
        ``X = inv(T')`` (a fuzzer-found wrong-code bug: the off-diagonal
        reads landed in the zero triangle)."""
        coeff = op.views["coefficient"]
        if op.flags.get("transposed"):
            return Transpose(ref(coeff.sub(c0, r0, cols, rows)))
        return ref(coeff.sub(r0, c0, rows, cols))

    def _trtri_unblocked(self, op: OperationInstance, r0: int, r1: int,
                         stmts: List[Statement]) -> None:
        coeff, unknown = op.views["coefficient"], op.views["unknown"]
        lower = op.flags["uplo"] == "lower"
        for j in range(r0, r1):
            tau = self._reciprocal(ref(coeff.sub(j, j, 1, 1)), stmts)
            stmts.append(Assign(unknown.sub(j, j, 1, 1), ref(tau)))
            if lower:
                for i in range(j + 1, r1):
                    tau_i = self._reciprocal(ref(coeff.sub(i, i, 1, 1)), stmts)
                    row = self._trtri_coefficient(op, i, j, 1, i - j)
                    col = unknown.sub(j, j, i - j, 1)
                    stmts.append(Assign(
                        unknown.sub(i, j, 1, 1),
                        Neg(Mul(ref(tau_i), Mul(row, ref(col))))))
            else:
                for i in range(j - 1, r0 - 1, -1):
                    tau_i = self._reciprocal(ref(coeff.sub(i, i, 1, 1)), stmts)
                    row = self._trtri_coefficient(op, i, i + 1, 1, j - i)
                    col = unknown.sub(i + 1, j, j - i, 1)
                    stmts.append(Assign(
                        unknown.sub(i, j, 1, 1),
                        Neg(Mul(ref(tau_i), Mul(row, ref(col))))))

    def _trtri(self, op: OperationInstance, variant: str) -> List[Statement]:
        coeff, unknown = op.views["coefficient"], op.views["unknown"]
        n = coeff.rows
        lower = op.flags["uplo"] == "lower"
        stmts: List[Statement] = []
        if variant == "unblocked" or not lower:
            # The blocked left-looking schema below is formulated for the
            # lower-triangular case; upper-triangular inverses use the
            # column-wise algorithm.
            self._trtri_unblocked(op, 0, n, stmts)
            return stmts
        nb = self.block_size
        for i in range(0, n, nb):
            b = min(nb, n - i)
            self._trtri_unblocked_block(op, i, i + b, stmts)
            if i > 0:
                below_left = self._trtri_coefficient(op, i, 0, b, i)
                x00 = unknown.sub(0, 0, i, i)
                x11 = unknown.sub(i, i, b, b)
                temp = self._temp(b, i)
                stmts.append(Assign(temp, Mul(below_left, ref(x00))))
                stmts.append(Assign(unknown.sub(i, 0, b, i),
                                    Neg(Mul(ref(x11), ref(temp)))))
        return stmts

    def _trtri_unblocked_block(self, op: OperationInstance, r0: int, r1: int,
                               stmts: List[Statement]) -> None:
        """Invert the diagonal block ``[r0:r1, r0:r1]`` in isolation."""
        self._trtri_unblocked(op, r0, r1, stmts)

    # =================================================================
    # Triangular Sylvester:  L X + X U = C
    # =================================================================

    def _trsyl(self, op: OperationInstance, variant: str) -> List[Statement]:
        left = op.views["coefficient_left"]
        right = op.views["coefficient_right"]
        unknown = op.views["unknown"]
        rhs = op.views["rhs"]
        m, n = unknown.shape
        stmts: List[Statement] = []
        nb = self.block_size if variant == "blocked" else 1
        for j0 in range(0, n, nb):
            bw = min(nb, n - j0)
            block_rhs: View = rhs.sub(0, j0, m, bw)
            if j0 > 0:
                computed = unknown.sub(0, 0, m, j0)
                coupling = right.sub(0, j0, j0, bw)
                temp = self._temp(m, bw)
                stmts.append(Assign(temp, Sub(ref(block_rhs),
                                              Mul(ref(computed),
                                                  ref(coupling)))))
                block_rhs = temp
            for c in range(bw):
                j = j0 + c
                for i in range(m):
                    value: Expr = ref(block_rhs.sub(i, c, 1, 1))
                    if c > 0:
                        row = unknown.sub(i, j0, 1, c)
                        col = right.sub(j0, j, c, 1)
                        value = Sub(value, Mul(ref(row), ref(col)))
                    if i > 0:
                        lrow = left.sub(i, 0, 1, i)
                        xcol = unknown.sub(0, j, i, 1)
                        value = Sub(value, Mul(ref(lrow), ref(xcol)))
                    denom = Add(ref(left.sub(i, i, 1, 1)),
                                ref(right.sub(j, j, 1, 1)))
                    stmts.append(Assign(unknown.sub(i, j, 1, 1),
                                        Div(value, denom)))
        return stmts

    # =================================================================
    # Triangular Lyapunov:  L X + X L^T = S  (X symmetric)
    # =================================================================

    def _trlya(self, op: OperationInstance, variant: str) -> List[Statement]:
        left = op.views["coefficient"]
        unknown = op.views["unknown"]
        rhs = op.views["rhs"]
        n = unknown.rows
        stmts: List[Statement] = []
        for j in range(n):
            hoisted: Optional[View] = None
            if variant == "gemv" and j > 0:
                # Contribution of the already-known columns 0..j-1 to the
                # whole column j:  v = L[j:n, 0:j] * X[0:j, j]
                hoisted = self._temp(n - j, 1)
                stmts.append(Assign(
                    hoisted,
                    Mul(ref(left.sub(j, 0, n - j, j)),
                        ref(unknown.sub(0, j, j, 1)))))
            for i in range(j, n):
                value: Expr = ref(rhs.sub(i, j, 1, 1))
                if variant == "gemv" and j > 0:
                    assert hoisted is not None
                    value = Sub(value, ref(hoisted.sub(i - j, 0, 1, 1)))
                    if i > j:
                        lrow = left.sub(i, j, 1, i - j)
                        xcol = unknown.sub(j, j, i - j, 1)
                        value = Sub(value, Mul(ref(lrow), ref(xcol)))
                else:
                    if i > 0:
                        lrow = left.sub(i, 0, 1, i)
                        xcol = unknown.sub(0, j, i, 1)
                        value = Sub(value, Mul(ref(lrow), ref(xcol)))
                if j > 0:
                    xrow = unknown.sub(i, 0, 1, j)
                    lrow_j = left.sub(j, 0, 1, j)
                    value = Sub(value, Mul(ref(xrow), Transpose(ref(lrow_j))))
                denom = Add(ref(left.sub(i, i, 1, 1)),
                            ref(left.sub(j, j, 1, 1)))
                stmts.append(Assign(unknown.sub(i, j, 1, 1),
                                    Div(value, denom)))
            if j + 1 < n:
                # Symmetric fill of row j: X[j, j+1:n] = X[j+1:n, j]^T
                stmts.append(Assign(
                    unknown.sub(j, j + 1, 1, n - j - 1),
                    Transpose(ref(unknown.sub(j + 1, j, n - j - 1, 1)))))
        return stmts


def _ordered(rows: range, lower: bool, start: int, stop: int) -> range:
    """Row processing order: forward for lower, backward for upper systems."""
    if lower:
        return range(start, stop)
    return range(stop - 1, start - 1, -1)
