"""The nu-BLACs: vector-size building blocks of LGen/SLinGen.

The LGen approach (paper Sec. 2.1) pre-implements, once per vector ISA, the
18 single operations on nu x nu matrices and nu-vectors ("nu-BLACs"); sBLACs
are tiled down to these.  This module provides

* :data:`NU_BLACS` -- the catalogue of the 18 operations (used by the
  documentation, by tests, and to label generated code), and
* the innermost C-IR emitters the tiled lowering uses for a vector-length
  unit of work: the shuffle-based 4x4 in-register transpose and scaled row
  copies.

Only the AVX double-precision instantiation (nu = 4) of the shuffle-based
transpose is provided, matching the paper's evaluation platform; all other
emitters are width-generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cir.builder import CIRBuilder
from ..cir.nodes import (Assign, CStmt, VBinOp, VecVar, VLoad, VPermute2f128,
                         VStore, VUnpack)
from ..ir.operands import View


@dataclass(frozen=True)
class NuBlac:
    """Descriptor of one nu-BLAC (a single operation on nu-sized operands)."""

    name: str
    signature: str
    description: str


#: The 18 nu-BLACs of LGen: all single operations (+, *, scalar *, ^T) on
#: nu x nu matrices and nu-vectors (paper Sec. 2.1).
NU_BLACS: Tuple[NuBlac, ...] = (
    NuBlac("mm_add", "C = A + B", "nu x nu matrix addition"),
    NuBlac("vv_add", "z = x + y", "nu-vector addition"),
    NuBlac("tv_add", "z^T = x^T + y^T", "transposed-vector addition"),
    NuBlac("ss_add", "gamma = alpha + beta", "scalar addition"),
    NuBlac("mm_mul", "C = A * B", "nu x nu matrix multiplication"),
    NuBlac("mv_mul", "y = A * x", "matrix times column vector"),
    NuBlac("vm_mul", "y^T = x^T * A", "row vector times matrix"),
    NuBlac("vv_outer", "A = x * y^T", "outer product"),
    NuBlac("vv_inner", "alpha = x^T * y", "inner (dot) product"),
    NuBlac("sm_mul", "B = alpha * A", "scalar times matrix"),
    NuBlac("sv_mul", "y = alpha * x", "scalar times vector"),
    NuBlac("st_mul", "y^T = alpha * x^T", "scalar times transposed vector"),
    NuBlac("ss_mul", "gamma = alpha * beta", "scalar multiplication"),
    NuBlac("m_trans", "B = A^T", "nu x nu matrix transposition"),
    NuBlac("v_trans", "y^T = x^T (re-layout)", "vector transposition"),
    NuBlac("mm_sub", "C = A - B", "nu x nu matrix subtraction"),
    NuBlac("vv_sub", "z = x - y", "nu-vector subtraction"),
    NuBlac("ss_sub", "gamma = alpha - beta", "scalar subtraction"),
)


# ---------------------------------------------------------------------------
# Innermost emitters
# ---------------------------------------------------------------------------


def leftover_mask(count: int, width: int) -> Optional[Tuple[bool, ...]]:
    """Mask loading/storing the first ``count`` of ``width`` lanes.

    Returns ``None`` (no mask needed) when ``count == width``.
    """
    if count >= width:
        return None
    return tuple(lane < count for lane in range(width))


def emit_transpose_4x4(builder: CIRBuilder, dest_view: View, dest_row: int,
                       dest_col: int, src_view: View, src_row: int,
                       src_col: int, stmts: List[CStmt]) -> None:
    """Transpose a full 4x4 tile in registers using AVX shuffles.

    This is the classic unpack/permute sequence: 4 loads, 4 unpacks,
    4 permute2f128, 4 stores -- no scalar memory traffic.  It implements the
    ``m_trans`` nu-BLAC for the AVX double-precision ISA (nu = 4).
    """
    rows = []
    for r in range(4):
        buffer, index = builder.address(src_view, src_row + r, src_col)
        reg = builder.vector(4, "tr")
        stmts.append(Assign(reg, VLoad(buffer, index, 4)))
        rows.append(reg)

    lo01 = builder.vector(4, "tr")
    hi01 = builder.vector(4, "tr")
    lo23 = builder.vector(4, "tr")
    hi23 = builder.vector(4, "tr")
    stmts.append(Assign(lo01, VUnpack(rows[0], rows[1], high=False)))
    stmts.append(Assign(hi01, VUnpack(rows[0], rows[1], high=True)))
    stmts.append(Assign(lo23, VUnpack(rows[2], rows[3], high=False)))
    stmts.append(Assign(hi23, VUnpack(rows[2], rows[3], high=True)))

    out = [builder.vector(4, "tr") for _ in range(4)]
    stmts.append(Assign(out[0], VPermute2f128(lo01, lo23, 0x20)))
    stmts.append(Assign(out[1], VPermute2f128(hi01, hi23, 0x20)))
    stmts.append(Assign(out[2], VPermute2f128(lo01, lo23, 0x31)))
    stmts.append(Assign(out[3], VPermute2f128(hi01, hi23, 0x31)))

    for r in range(4):
        buffer, index = builder.address(dest_view, dest_row + r, dest_col)
        stmts.append(VStore(buffer, index, out[r], 4))


def emit_scaled_row_copy(builder: CIRBuilder, dest_view: View, dest_row,
                         dest_col, src_view: View, src_row, src_col,
                         width: int, mask: Optional[Tuple[bool, ...]],
                         scale: Optional[VecVar], accumulate: int,
                         stmts: List[CStmt]) -> None:
    """Emit ``dest[row, col:col+width] (acc)= scale * src[row, col:col+width]``.

    ``accumulate`` follows the canonical-op convention: 0 assign, +1 add,
    -1 subtract.  ``scale`` of ``None`` means a unit coefficient.
    """
    src_buf, src_idx = builder.address(src_view, src_row, src_col)
    value: VBinOp | VLoad = VLoad(src_buf, src_idx, width, mask)
    if scale is not None:
        value = VBinOp("mul", scale, value, width)
    dest_buf, dest_idx = builder.address(dest_view, dest_row, dest_col)
    if accumulate:
        existing = VLoad(dest_buf, dest_idx, width, mask)
        op = "add" if accumulate > 0 else "sub"
        value = VBinOp(op, existing, value, width)
    stmts.append(VStore(dest_buf, dest_idx, value, width, mask))
