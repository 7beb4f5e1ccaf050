"""Unparsing of C-IR to single-source C code (scalar or vector intrinsics).

The output matches the paper's target: one self-contained C function,
optionally vectorized with intrinsics, with one pointer parameter per
storage group of the LA program.  Width-4 functions use 256-bit AVX
(``__m256d``/``_mm256_*``); width-2 functions use the 128-bit SSE2/AVX
subset (``__m128d``/``_mm_*``, masked accesses via the AVX
``_mm_maskload_pd``/``_mm_maskstore_pd``).  Horizontal reductions and
lane extraction use small ``static inline`` helpers emitted into the same
translation unit.  Other vector widths have no C mapping and are refused
up front (:meth:`Options.validate` rejects them before generation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cir.nodes import (Affine, Assign, BinOp, Buffer, CExpr, Comment, CStmt,
                         FloatConst, For, Function, If, Load, ScalarVar,
                         Store, UnOp, VBinOp, VBlend, VBroadcast, VecVar,
                         VExtract, VFma, VLoad, VPermute2f128, VReduceAdd,
                         VSet, VShufflePd, VStore, VUnpack, VZero,
                         walk_expressions)
from ..errors import BackendError

_HEADER_SCALAR = """\
#include <math.h>
#include <stddef.h>
"""

# GCC's <immintrin.h> preprocesses to ~60k lines (every AVX-512, AMX and
# VNNI header), and parsing them would dominate each kernel's compile.
# Under GCC the kernel includes only what its intrinsics use: <smmintrin.h>
# (SSE2 through SSE4.1) and <avxintrin.h>, plus <fmaintrin.h> when it fuses
# multiply-adds.  Those headers refuse direct inclusion unless
# <immintrin.h>'s guard is defined, so the guard is set around them.  Other
# compilers keep <immintrin.h>: clang's already skips headers of features
# that are not enabled.
_INCLUDES_VECTOR = """\
#include <math.h>
#include <stddef.h>
#if defined(__GNUC__) && !defined(__clang__)
#include <smmintrin.h>
#define _IMMINTRIN_H_INCLUDED
#include <avxintrin.h>
{fma}#undef _IMMINTRIN_H_INCLUDED
#else
#include <immintrin.h>
#endif
"""

_INCLUDE_FMA = "#include <fmaintrin.h>\n"

_HELPERS_AVX = """
static inline double repro_reduce_add_pd(__m256d v) {
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    __m128d sum2 = _mm_add_pd(lo, hi);
    __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
    return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

static inline double repro_extract_pd(__m256d v, int lane) {
    double tmp[4];
    _mm256_storeu_pd(tmp, v);
    return tmp[lane];
}
"""

_HELPERS_SSE = """
static inline double repro_reduce_add_pd(__m128d v) {
    __m128d swapped = _mm_unpackhi_pd(v, v);
    return _mm_cvtsd_f64(_mm_add_sd(v, swapped));
}

static inline double repro_extract_pd(__m128d v, int lane) {
    double tmp[2];
    _mm_storeu_pd(tmp, v);
    return tmp[lane];
}
"""


class CUnparser:
    """Turns a C-IR :class:`~repro.cir.nodes.Function` into C source text."""

    def __init__(self, function: Function, indent: str = "    "):
        self.function = function
        self.indent = indent
        self.vectorized = function.vector_width > 1
        if self.vectorized and function.vector_width not in (2, 4):
            # width-2 maps to 128-bit SSE2/AVX, width-4 to 256-bit AVX;
            # nothing else has a C intrinsic type (a fuzzer-found crash:
            # width 2 used to be emitted with 256-bit intrinsics)
            raise BackendError(
                f"the C backend has no vector type for width "
                f"{function.vector_width}; supported widths: 1, 2, 4")
        self.prefix = "_mm256" if function.vector_width == 4 else "_mm"
        self.vector_type = "__m256d" if function.vector_width == 4 \
            else "__m128d"
        self.mask_type = "__m256i" if function.vector_width == 4 \
            else "__m128i"
        self._mask_constants: Dict[Tuple[bool, ...], str] = {}
        # set while unparsing the body, which precedes the header
        self._uses_fma = False

    def _header(self) -> str:
        if not self.vectorized:
            return _HEADER_SCALAR
        includes = _INCLUDES_VECTOR.format(
            fma=_INCLUDE_FMA if self._uses_fma else "")
        return includes + (_HELPERS_AVX if self.function.vector_width == 4
                           else _HELPERS_SSE)

    # -- public API -------------------------------------------------------------

    def unparse(self) -> str:
        """Return the complete single-source C translation unit."""
        # The body goes first: it discovers the mask constants and the FMA
        # use that the prologue declares and includes.
        body_lines = self._unparse_body()
        lines: List[str] = []
        lines.append("/* Generated by SLinGen (reproduction of Spampinato et "
                     "al., CGO 2018). */")
        lines.append(self._header())
        lines.append(self._signature() + " {")
        for decl in self._mask_declarations():
            lines.append(self.indent + decl)
        for decl in self._temp_declarations():
            lines.append(self.indent + decl)
        for decl in self._register_declarations():
            lines.append(self.indent + decl)
        lines.extend(body_lines)
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- declarations -------------------------------------------------------------

    def _signature(self) -> str:
        params = []
        for buf in self.function.params:
            qualifier = "const " if buf.kind == "in" else ""
            params.append(f"{qualifier}double* restrict {buf.name}")
        if not params:
            params = ["void"]
        return f"void {self.function.name}({', '.join(params)})"

    def _temp_declarations(self) -> List[str]:
        return [f"double {buf.name}[{buf.size}];"
                for buf in self.function.temps]

    def _register_declarations(self) -> List[str]:
        scalars: Set[str] = set()
        vectors: Set[str] = set()

        def scan(stmts: List[CStmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, For):
                    scan(stmt.body)
                    continue
                if isinstance(stmt, If):
                    scan(stmt.then_body)
                    scan(stmt.else_body)
                    continue
                if isinstance(stmt, Assign):
                    if isinstance(stmt.dest, VecVar):
                        vectors.add(stmt.dest.name)
                    else:
                        scalars.add(stmt.dest.name)

        scan(self.function.body)
        decls = []
        if scalars:
            decls.append("double " + ", ".join(sorted(scalars)) + ";")
        if vectors:
            if not self.vectorized:
                raise BackendError("vector registers present in a scalar "
                                   "function")
            decls.append(f"{self.vector_type} "
                         + ", ".join(sorted(vectors)) + ";")
        return decls

    def _mask_name(self, mask: Tuple[bool, ...]) -> str:
        if mask not in self._mask_constants:
            self._mask_constants[mask] = f"mask{len(self._mask_constants)}"
        return self._mask_constants[mask]

    def _mask_declarations(self) -> List[str]:
        # Collect masks first (the body has already been unparsed when this is
        # called from `unparse`, so the dictionary is populated).
        decls = []
        for mask, name in self._mask_constants.items():
            words = ", ".join("-1" if keep else "0" for keep in reversed(mask))
            decls.append(f"const {self.mask_type} {name} = "
                         f"{self.prefix}_set_epi64x({words});")
        return decls

    # -- statements ----------------------------------------------------------------

    def _unparse_body(self) -> List[str]:
        return self._stmts(self.function.body, 1)

    def _stmts(self, stmts: List[CStmt], depth: int) -> List[str]:
        pad = self.indent * depth
        lines: List[str] = []
        for stmt in stmts:
            if isinstance(stmt, Comment):
                lines.append(f"{pad}/* {stmt.text} */")
            elif isinstance(stmt, Assign):
                lines.append(f"{pad}{stmt.dest.name} = "
                             f"{self._expr(stmt.value)};")
            elif isinstance(stmt, Store):
                lines.append(f"{pad}{stmt.buffer.name}[{self._affine(stmt.index)}]"
                             f" = {self._expr(stmt.value)};")
            elif isinstance(stmt, VStore):
                lines.append(pad + self._vstore(stmt))
            elif isinstance(stmt, For):
                lines.append(f"{pad}for (int {stmt.var} = {stmt.start}; "
                             f"{stmt.var} < {stmt.stop}; "
                             f"{stmt.var} += {stmt.step}) {{")
                lines.extend(self._stmts(stmt.body, depth + 1))
                lines.append(f"{pad}}}")
            elif isinstance(stmt, If):
                lines.append(f"{pad}if ({self._affine(stmt.lhs)} {stmt.op} "
                             f"{self._affine(stmt.rhs)}) {{")
                lines.extend(self._stmts(stmt.then_body, depth + 1))
                if stmt.else_body:
                    lines.append(f"{pad}}} else {{")
                    lines.extend(self._stmts(stmt.else_body, depth + 1))
                lines.append(f"{pad}}}")
            else:  # pragma: no cover - defensive
                raise BackendError(f"cannot unparse statement {stmt!r}")
        return lines

    def _vstore(self, stmt: VStore) -> str:
        address = f"&{stmt.buffer.name}[{self._affine(stmt.index)}]"
        value = self._expr(stmt.value)
        if stmt.mask is None:
            return f"{self.prefix}_storeu_pd({address}, {value});"
        mask = self._mask_name(stmt.mask)
        return f"{self.prefix}_maskstore_pd({address}, {mask}, {value});"

    # -- expressions --------------------------------------------------------------

    def _affine(self, affine: Affine) -> str:
        return str(affine)

    def _expr(self, expr: CExpr) -> str:
        if isinstance(expr, FloatConst):
            if expr.value == int(expr.value):
                return f"{expr.value:.1f}"
            return repr(expr.value)
        if isinstance(expr, (ScalarVar, VecVar)):
            return expr.name
        if isinstance(expr, Load):
            return f"{expr.buffer.name}[{self._affine(expr.index)}]"
        if isinstance(expr, VLoad):
            address = f"&{expr.buffer.name}[{self._affine(expr.index)}]"
            if expr.mask is None:
                return f"{self.prefix}_loadu_pd({address})"
            return (f"{self.prefix}_maskload_pd({address}, "
                    f"{self._mask_name(expr.mask)})")
        if isinstance(expr, VBroadcast):
            return f"{self.prefix}_set1_pd({self._expr(expr.value)})"
        if isinstance(expr, VSet):
            elements = ", ".join(self._expr(e)
                                 for e in reversed(expr.elements))
            return f"{self.prefix}_set_pd({elements})"
        if isinstance(expr, VZero):
            return f"{self.prefix}_setzero_pd()"
        if isinstance(expr, BinOp):
            symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
            if expr.op in symbol:
                return (f"({self._expr(expr.left)} {symbol[expr.op]} "
                        f"{self._expr(expr.right)})")
            func = {"max": "fmax", "min": "fmin"}[expr.op]
            return f"{func}({self._expr(expr.left)}, {self._expr(expr.right)})"
        if isinstance(expr, UnOp):
            if expr.op == "neg":
                return f"(-{self._expr(expr.operand)})"
            return f"sqrt({self._expr(expr.operand)})"
        if isinstance(expr, VBinOp):
            name = {"add": "add", "sub": "sub", "mul": "mul", "div": "div",
                    "max": "max", "min": "min"}[expr.op]
            return (f"{self.prefix}_{name}_pd({self._expr(expr.left)}, "
                    f"{self._expr(expr.right)})")
        if isinstance(expr, VFma):
            self._uses_fma = True
            return (f"{self.prefix}_fmadd_pd({self._expr(expr.a)}, "
                    f"{self._expr(expr.b)}, {self._expr(expr.c)})")
        if isinstance(expr, VReduceAdd):
            return f"repro_reduce_add_pd({self._expr(expr.vec)})"
        if isinstance(expr, VExtract):
            return f"repro_extract_pd({self._expr(expr.vec)}, {expr.lane})"
        if isinstance(expr, VBlend):
            return (f"{self.prefix}_blend_pd({self._expr(expr.a)}, "
                    f"{self._expr(expr.b)}, {expr.imm})")
        if isinstance(expr, VShufflePd):
            return (f"{self.prefix}_shuffle_pd({self._expr(expr.a)}, "
                    f"{self._expr(expr.b)}, {expr.imm})")
        if isinstance(expr, VPermute2f128):
            if self.function.vector_width != 4:
                raise BackendError(
                    "permute2f128 requires 256-bit vectors (width 4)")
            return (f"_mm256_permute2f128_pd({self._expr(expr.a)}, "
                    f"{self._expr(expr.b)}, {expr.imm})")
        if isinstance(expr, VUnpack):
            which = "unpackhi" if expr.high else "unpacklo"
            return (f"{self.prefix}_{which}_pd({self._expr(expr.a)}, "
                    f"{self._expr(expr.b)})")
        raise BackendError(f"cannot unparse expression {expr!r}")


def unparse_function(function: Function) -> str:
    """Unparse a C-IR function to C source (scalar or AVX depending on width)."""
    return CUnparser(function).unparse()
