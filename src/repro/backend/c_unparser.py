"""Unparsing of C-IR to single-source C code (scalar or vector intrinsics).

The output matches the paper's target: one self-contained C function,
optionally vectorized with intrinsics, with one pointer parameter per
storage group of the LA program and every temporary a local array.
Width-4 functions use 256-bit AVX
(``__m256d``/``_mm256_*``); width-2 functions use the 128-bit SSE2/AVX
subset (``__m128d``/``_mm_*``, masked accesses via the AVX
``_mm_maskload_pd``/``_mm_maskstore_pd``).  Horizontal reductions and
lane extraction use small ``static inline`` helpers emitted into the same
translation unit.  Other vector widths have no C mapping and are refused
up front (:meth:`Options.validate` rejects them before generation).

Under GCC the translation unit includes no header at all: a prelude
defines the vector types, exactly the intrinsics the function calls (the
definitions GCC's own intrinsic headers give them) and the libm
prototypes it needs.  Other compilers get ``<math.h>`` and
``<immintrin.h>`` in the prelude's ``#else`` branch.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, Tuple

from ..cir.nodes import (Affine, Assign, BinOp, CExpr, Comment, CStmt,
                         FloatConst, For, Function, Load, ScalarVar,
                         Store, UnOp, VBinOp, VBlend, VBroadcast, VecVar,
                         VExtract, VLoad, VPermute2f128, VReduceAdd, VSet,
                         VStore, VUnpack, VZero)
from ..analysis.defuse import classify_temps
from ..errors import BackendError

# GCC parses the system headers anew for every kernel: <immintrin.h>
# preprocesses to ~60k lines, and even <smmintrin.h> + <avxintrin.h> pull
# in <mm_malloc.h> -> <stdlib.h>, which costs about a third of a kernel's
# compile.  Under GCC the kernel therefore includes nothing.  A prelude
# declares what the code uses: the vector types, one definition per
# intrinsic the function calls -- copied from GCC's own avxintrin.h,
# emmintrin.h and smmintrin.h, each a vector-extension
# expression or a __builtin_ia32_* call, so the machine code is the one the
# headers give -- and the libm prototypes that replace <math.h>.  Other
# compilers (clang's builtins differ) take the #else branch and the
# standard headers.
_GCC_ONLY = "#if defined(__GNUC__) && !defined(__clang__)\n"

_TYPES_128 = """\
typedef double __v2df __attribute__ ((__vector_size__ (16)));
typedef long long __v2di __attribute__ ((__vector_size__ (16)));
typedef double __m128d __attribute__ ((__vector_size__ (16), __may_alias__));
typedef long long __m128i __attribute__ ((__vector_size__ (16), __may_alias__));
typedef double __m128d_u __attribute__ ((__vector_size__ (16), __may_alias__, __aligned__ (1)));
"""

_TYPES_256 = """\
typedef double __v4df __attribute__ ((__vector_size__ (32)));
typedef long long __v4di __attribute__ ((__vector_size__ (32)));
typedef double __m256d __attribute__ ((__vector_size__ (32), __may_alias__));
typedef long long __m256i __attribute__ ((__vector_size__ (32), __may_alias__));
typedef double __m256d_u __attribute__ ((__vector_size__ (32), __may_alias__, __aligned__ (1)));
"""


def _inline(ret: str, name: str, params: str, body: str) -> Tuple[str, str]:
    return name, (f"extern __inline {ret} __attribute__((__gnu_inline__, "
                  f"__always_inline__, __artificial__))\n"
                  f"{name} ({params}) {{ {body} }}\n")


def _macro(name: str, params: str, body: str) -> Tuple[str, str]:
    # immediate-operand intrinsics, as in GCC's non-__OPTIMIZE__ branch
    return name, f"#define {name}({params}) {body}\n"


def _binary(ret: str, name: str, body: str) -> Tuple[str, str]:
    return _inline(ret, name, f"{ret} __A, {ret} __B", body)


#: Every name the unparser can emit, in prelude order, with its definition
#: (GCC 12 spelling).  The prelude defines the ones a kernel uses.
_DEFINITIONS: Dict[str, str] = dict([
    # SSE2 (emmintrin.h), SSE4.1 (smmintrin.h) and AVX, 128-bit
    _inline("__m128d", "_mm_loadu_pd", "double const *__P",
            "return *(__m128d_u *)__P;"),
    _inline("void", "_mm_storeu_pd", "double *__P, __m128d __A",
            "*(__m128d_u *)__P = __A;"),
    _inline("__m128d", "_mm_maskload_pd", "double const *__P, __m128i __M",
            "return (__m128d) __builtin_ia32_maskloadpd "
            "((const __v2df *)__P, (__v2di)__M);"),
    _inline("void", "_mm_maskstore_pd",
            "double *__P, __m128i __M, __m128d __A",
            "__builtin_ia32_maskstorepd "
            "((__v2df *)__P, (__v2di)__M, (__v2df)__A);"),
    _inline("__m128d", "_mm_set1_pd", "double __F",
            "return __extension__ (__m128d){ __F, __F };"),
    _inline("__m128d", "_mm_set_pd", "double __W, double __X",
            "return __extension__ (__m128d){ __X, __W };"),
    _inline("__m128d", "_mm_setzero_pd", "void",
            "return __extension__ (__m128d){ 0.0, 0.0 };"),
    _inline("__m128i", "_mm_set_epi64x", "long long __q1, long long __q0",
            "return __extension__ (__m128i)(__v2di){ __q0, __q1 };"),
    _binary("__m128d", "_mm_add_pd",
            "return (__m128d) ((__v2df)__A + (__v2df)__B);"),
    _binary("__m128d", "_mm_sub_pd",
            "return (__m128d) ((__v2df)__A - (__v2df)__B);"),
    _binary("__m128d", "_mm_mul_pd",
            "return (__m128d) ((__v2df)__A * (__v2df)__B);"),
    _binary("__m128d", "_mm_div_pd",
            "return (__m128d) ((__v2df)__A / (__v2df)__B);"),
    _binary("__m128d", "_mm_max_pd",
            "return (__m128d)__builtin_ia32_maxpd ((__v2df)__A, (__v2df)__B);"),
    _binary("__m128d", "_mm_min_pd",
            "return (__m128d)__builtin_ia32_minpd ((__v2df)__A, (__v2df)__B);"),
    _binary("__m128d", "_mm_add_sd",
            "return (__m128d)__builtin_ia32_addsd ((__v2df)__A, (__v2df)__B);"),
    _binary("__m128d", "_mm_unpackhi_pd",
            "return (__m128d)__builtin_ia32_unpckhpd "
            "((__v2df)__A, (__v2df)__B);"),
    _binary("__m128d", "_mm_unpacklo_pd",
            "return (__m128d)__builtin_ia32_unpcklpd "
            "((__v2df)__A, (__v2df)__B);"),
    _inline("double", "_mm_cvtsd_f64", "__m128d __A",
            "return ((__v2df)__A)[0];"),
    _macro("_mm_blend_pd", "X, Y, M",
           "((__m128d) __builtin_ia32_blendpd ((__v2df)(__m128d)(X), "
           "(__v2df)(__m128d)(Y), (int)(M)))"),
    # AVX (avxintrin.h), 256-bit
    _inline("__m256d", "_mm256_loadu_pd", "double const *__P",
            "return *(__m256d_u *)__P;"),
    _inline("void", "_mm256_storeu_pd", "double *__P, __m256d __A",
            "*(__m256d_u *)__P = __A;"),
    _inline("__m256d", "_mm256_maskload_pd", "double const *__P, __m256i __M",
            "return (__m256d) __builtin_ia32_maskloadpd256 "
            "((const __v4df *)__P, (__v4di)__M);"),
    _inline("void", "_mm256_maskstore_pd",
            "double *__P, __m256i __M, __m256d __A",
            "__builtin_ia32_maskstorepd256 "
            "((__v4df *)__P, (__v4di)__M, (__v4df)__A);"),
    _inline("__m256d", "_mm256_set1_pd", "double __A",
            "return __extension__ (__m256d){ __A, __A, __A, __A };"),
    _inline("__m256d", "_mm256_set_pd",
            "double __A, double __B, double __C, double __D",
            "return __extension__ (__m256d){ __D, __C, __B, __A };"),
    _inline("__m256d", "_mm256_setzero_pd", "void",
            "return __extension__ (__m256d){ 0.0, 0.0, 0.0, 0.0 };"),
    _inline("__m256i", "_mm256_set_epi64x",
            "long long __A, long long __B, long long __C, long long __D",
            "return __extension__ (__m256i)(__v4di){ __D, __C, __B, __A };"),
    _binary("__m256d", "_mm256_add_pd",
            "return (__m256d) ((__v4df)__A + (__v4df)__B);"),
    _binary("__m256d", "_mm256_sub_pd",
            "return (__m256d) ((__v4df)__A - (__v4df)__B);"),
    _binary("__m256d", "_mm256_mul_pd",
            "return (__m256d) ((__v4df)__A * (__v4df)__B);"),
    _binary("__m256d", "_mm256_div_pd",
            "return (__m256d) ((__v4df)__A / (__v4df)__B);"),
    _binary("__m256d", "_mm256_max_pd",
            "return (__m256d) __builtin_ia32_maxpd256 "
            "((__v4df)__A, (__v4df)__B);"),
    _binary("__m256d", "_mm256_min_pd",
            "return (__m256d) __builtin_ia32_minpd256 "
            "((__v4df)__A, (__v4df)__B);"),
    _binary("__m256d", "_mm256_unpackhi_pd",
            "return (__m256d) __builtin_ia32_unpckhpd256 "
            "((__v4df)__A, (__v4df)__B);"),
    _binary("__m256d", "_mm256_unpacklo_pd",
            "return (__m256d) __builtin_ia32_unpcklpd256 "
            "((__v4df)__A, (__v4df)__B);"),
    _inline("__m128d", "_mm256_castpd256_pd128", "__m256d __A",
            "return (__m128d) __builtin_ia32_pd_pd256 ((__v4df)__A);"),
    _macro("_mm256_blend_pd", "X, Y, M",
           "((__m256d) __builtin_ia32_blendpd256 ((__v4df)(__m256d)(X), "
           "(__v4df)(__m256d)(Y), (int)(M)))"),
    _macro("_mm256_permute2f128_pd", "X, Y, C",
           "((__m256d) __builtin_ia32_vperm2f128_pd256 ((__v4df)(__m256d)(X), "
           "(__v4df)(__m256d)(Y), (int)(C)))"),
    _macro("_mm256_extractf128_pd", "X, N",
           "((__m128d) __builtin_ia32_vextractf128_pd256 "
           "((__v4df)(__m256d)(X), (int)(N)))"),
    # libm, instead of <math.h>
    ("sqrt", "double sqrt(double);\n"),
    ("fmax", "double fmax(double, double);\n"),
    ("fmin", "double fmin(double, double);\n"),
])

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


#: The intrinsics the helpers call; every vector kernel emits the helpers.
_HELPER_INTRINSICS = {
    4: frozenset(re.findall(r"\b(_mm\w+)\(", _HELPERS_AVX)),
    2: frozenset(re.findall(r"\b(_mm\w+)\(", _HELPERS_SSE)),
}


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
        # the intrinsics and libm functions the code calls, collected while
        # unparsing the body, which precedes the header
        self._used: Set[str] = set(
            _HELPER_INTRINSICS.get(function.vector_width, ()))

    def _call(self, name: str, *args: str) -> str:
        self._used.add(name)
        return f"{name}({', '.join(args)})"

    def _vcall(self, op: str, *args: str) -> str:
        return self._call(f"{self.prefix}_{op}", *args)

    def _header(self) -> str:
        prelude = [text for name, text in _DEFINITIONS.items()
                   if name in self._used]
        fallback = "#include <math.h>\n"
        helpers = ""
        if self.vectorized:
            types = _TYPES_128
            if self.function.vector_width == 4:
                types += _TYPES_256
            prelude.insert(0, types)
            fallback += "#include <immintrin.h>\n"
            helpers = (_HELPERS_AVX if self.function.vector_width == 4
                       else _HELPERS_SSE)
        return (_GCC_ONLY + "".join(prelude) + "#else\n" + fallback
                + "#endif\n" + helpers)

    # -- public API -------------------------------------------------------------

    def unparse(self) -> str:
        """Return the complete single-source C translation unit."""
        # A temp nothing reads is neither declared nor stored to.
        self._zeroed, self._unread = classify_temps(self.function)
        # The body and declarations go first: they discover the mask
        # constants and the intrinsics that the prelude defines.
        body_lines = self._unparse_body()
        decls = (self._mask_declarations() + self._temp_declarations()
                 + self._register_declarations())
        lines: List[str] = []
        lines.append("/* Generated by SLinGen (reproduction of Spampinato et "
                     "al., CGO 2018). */")
        lines.append(self._header())
        lines.append(self._signature() + " {")
        lines.extend(self.indent + decl for decl in decls)
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
        # The interpreter and the NumPy backend zero temps; C zeroes only
        # the ones that read an element before writing it.
        return [f"double {buf.name}[{buf.size}]"
                f"{' = {0}' if buf.name in self._zeroed else ''};"
                for buf in self.function.temps
                if buf.name not in self._unread]

    def _register_declarations(self) -> List[str]:
        scalars: Set[str] = set()
        vectors: Set[str] = set()
        for stmt in self.function.walk_statements():
            if isinstance(stmt, Assign):
                if isinstance(stmt.dest, VecVar):
                    vectors.add(stmt.dest.name)
                else:
                    scalars.add(stmt.dest.name)
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
                         f"{self._vcall('set_epi64x', words)};")
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
            elif isinstance(stmt, (Store, VStore)) \
                    and stmt.buffer.name in self._unread:
                continue
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
            else:  # pragma: no cover - defensive
                raise BackendError(f"cannot unparse statement {stmt!r}")
        return lines

    def _vstore(self, stmt: VStore) -> str:
        address = f"&{stmt.buffer.name}[{self._affine(stmt.index)}]"
        value = self._expr(stmt.value)
        if stmt.mask is None:
            return self._vcall("storeu_pd", address, value) + ";"
        mask = self._mask_name(stmt.mask)
        return self._vcall("maskstore_pd", address, mask, value) + ";"

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
                return self._vcall("loadu_pd", address)
            return self._vcall("maskload_pd", address,
                               self._mask_name(expr.mask))
        if isinstance(expr, VBroadcast):
            return self._vcall("set1_pd", self._expr(expr.value))
        if isinstance(expr, VSet):
            return self._vcall("set_pd", *(self._expr(e)
                                           for e in reversed(expr.elements)))
        if isinstance(expr, VZero):
            return self._vcall("setzero_pd")
        if isinstance(expr, BinOp):
            symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
            if expr.op in symbol:
                return (f"({self._expr(expr.left)} {symbol[expr.op]} "
                        f"{self._expr(expr.right)})")
            func = {"max": "fmax", "min": "fmin"}[expr.op]
            return self._call(func, self._expr(expr.left),
                              self._expr(expr.right))
        if isinstance(expr, UnOp):
            if expr.op == "neg":
                return f"(-{self._expr(expr.operand)})"
            return self._call("sqrt", self._expr(expr.operand))
        if isinstance(expr, VBinOp):
            name = {"add": "add", "sub": "sub", "mul": "mul", "div": "div",
                    "max": "max", "min": "min"}[expr.op]
            return self._vcall(f"{name}_pd", self._expr(expr.left),
                               self._expr(expr.right))
        if isinstance(expr, VReduceAdd):
            return f"repro_reduce_add_pd({self._expr(expr.vec)})"
        if isinstance(expr, VExtract):
            return f"repro_extract_pd({self._expr(expr.vec)}, {expr.lane})"
        if isinstance(expr, VBlend):
            return self._vcall("blend_pd", self._expr(expr.a),
                               self._expr(expr.b), str(expr.imm))
        if isinstance(expr, VPermute2f128):
            if self.function.vector_width != 4:
                raise BackendError(
                    "permute2f128 requires 256-bit vectors (width 4)")
            return self._call("_mm256_permute2f128_pd", self._expr(expr.a),
                              self._expr(expr.b), str(expr.imm))
        if isinstance(expr, VUnpack):
            which = "unpackhi" if expr.high else "unpacklo"
            return self._vcall(f"{which}_pd", self._expr(expr.a),
                               self._expr(expr.b))
        raise BackendError(f"cannot unparse expression {expr!r}")


def unparse_function(function: Function) -> str:
    """Unparse a C-IR function to C source (scalar or AVX depending on width)."""
    return CUnparser(function).unparse()
