"""Golden-snippet tests of the C unparser's masked and reduction paths.

The masked ``_mm256_maskload_pd``/``_mm256_maskstore_pd`` emission and the
horizontal-reduction/extraction helpers were previously covered only
indirectly (through end-to-end compile-and-run tests); these tests pin the
exact emitted C so a regression in mask-constant ordering or helper
plumbing is caught at the text level, with or without a C compiler.
"""

import pytest

from repro.backend import compiler_available, unparse_function
from repro.backend.c_unparser import CUnparser
from repro.cir.nodes import (Affine, Assign, Buffer, Function, ScalarVar,
                             Store, VecVar, VExtract, VFma, VLoad, VReduceAdd,
                             VStore)
from repro.errors import BackendError


def make_function(body, params=None, vector_width=4):
    if params is None:
        params = [Buffer("x", 1, 8, "in"), Buffer("y", 1, 8, "out")]
    return Function("golden_kernel", params=params, body=body,
                    vector_width=vector_width)


def function_body(code):
    """The kernel function of ``code``, without the prelude and helpers
    (the prelude defines each intrinsic the body calls)."""
    return code[code.index("\nvoid golden_kernel("):]


class TestMaskedAccessEmission:
    def test_maskload_uses_named_mask_constant(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        fn = make_function([
            Assign(VecVar("r"), VLoad(x, Affine.constant(4),
                                      mask=(True, True, False, False))),
            VStore(y, Affine.constant(0), VecVar("r")),
        ], params=[x, y])
        code = unparse_function(fn)
        assert "_mm256_maskload_pd(&x[4], mask0)" in code

    def test_maskstore_uses_named_mask_constant(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        fn = make_function([
            Assign(VecVar("r"), VLoad(x, Affine.constant(0))),
            VStore(y, Affine.constant(4), VecVar("r"),
                   mask=(True, False, False, False)),
        ], params=[x, y])
        code = unparse_function(fn)
        assert "_mm256_maskstore_pd(&y[4], mask0, r);" in code

    def test_mask_constant_lane_order_is_reversed(self):
        """``_mm256_set_epi64x`` takes lane 3 first: the (T, T, F, F) mask
        -- lanes 0 and 1 active -- must emit as (0, 0, -1, -1)."""
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        fn = make_function([
            Assign(VecVar("r"), VLoad(x, Affine.constant(0),
                                      mask=(True, True, False, False))),
            VStore(y, Affine.constant(0), VecVar("r")),
        ], params=[x, y])
        code = unparse_function(fn)
        assert ("const __m256i mask0 = "
                "_mm256_set_epi64x(0, 0, -1, -1);") in code

    def test_distinct_masks_get_distinct_constants(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        fn = make_function([
            Assign(VecVar("a"), VLoad(x, Affine.constant(0),
                                      mask=(True, False, False, False))),
            Assign(VecVar("b"), VLoad(x, Affine.constant(4),
                                      mask=(True, True, True, False))),
            VStore(y, Affine.constant(0), VecVar("a"),
                   mask=(True, False, False, False)),
            VStore(y, Affine.constant(4), VecVar("b"),
                   mask=(True, True, True, False)),
        ], params=[x, y])
        code = function_body(unparse_function(fn))
        assert "_mm256_set_epi64x(0, 0, 0, -1);" in code
        assert "_mm256_set_epi64x(0, -1, -1, -1);" in code
        # each mask declared once, reused by load and store
        assert code.count("_mm256_set_epi64x") == 2
        assert "mask0" in code and "mask1" in code

    def test_unmasked_accesses_use_loadu_storeu(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        fn = make_function([
            Assign(VecVar("r"), VLoad(x, Affine.constant(0))),
            VStore(y, Affine.constant(0), VecVar("r")),
        ], params=[x, y])
        code = function_body(unparse_function(fn))
        assert "_mm256_loadu_pd(&x[0])" in code
        assert "_mm256_storeu_pd(&y[0], r);" in code
        assert "maskload" not in code and "maskstore" not in code


class TestReductionEmission:
    def _reduction_function(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 1, "out")
        return make_function([
            Assign(VecVar("v"), VLoad(x, Affine.constant(0))),
            Assign(ScalarVar("s"), VReduceAdd(VecVar("v"))),
            Store(y, Affine.constant(0), ScalarVar("s")),
        ], params=[x, y])

    def test_reduce_add_emits_helper_and_call(self):
        code = unparse_function(self._reduction_function())
        # the static inline helper is part of the translation unit...
        assert "static inline double repro_reduce_add_pd(__m256d v)" in code
        assert "_mm256_extractf128_pd(v, 1)" in code
        assert "_mm_unpackhi_pd(sum2, sum2)" in code
        # ... and the reduction site calls it
        assert "s = repro_reduce_add_pd(v);" in code

    def test_extract_emits_helper_and_lane_call(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 1, "out")
        fn = make_function([
            Assign(VecVar("v"), VLoad(x, Affine.constant(0))),
            Store(y, Affine.constant(0), VExtract(VecVar("v"), 3)),
        ], params=[x, y])
        code = unparse_function(fn)
        assert "static inline double repro_extract_pd(__m256d v, int lane)" \
            in code
        assert "y[0] = repro_extract_pd(v, 3);" in code

    def test_scalar_function_omits_avx_header(self):
        from repro.cir.nodes import Load

        x = Buffer("x", 1, 2, "in")
        y = Buffer("y", 1, 1, "out")
        fn = make_function([
            Store(y, Affine.constant(0), Load(x, Affine.constant(1))),
        ], params=[x, y], vector_width=1)
        code = unparse_function(fn)
        assert "immintrin.h" not in code
        assert "repro_reduce_add_pd" not in code

    def test_vector_register_in_scalar_function_rejected(self):
        y = Buffer("y", 1, 4, "out")
        fn = make_function([
            Assign(VecVar("v"), VLoad(y, Affine.constant(0))),
            VStore(y, Affine.constant(0), VecVar("v")),
        ], params=[y], vector_width=1)
        with pytest.raises(BackendError):
            CUnparser(fn).unparse()


INLINE = ("extern __inline {} __attribute__((__gnu_inline__, "
          "__always_inline__, __artificial__))\n")

GOLDEN_GUARD = "#if defined(__GNUC__) && !defined(__clang__)\n"

GOLDEN_TYPES_128 = """\
typedef double __v2df __attribute__ ((__vector_size__ (16)));
typedef long long __v2di __attribute__ ((__vector_size__ (16)));
typedef double __m128d __attribute__ ((__vector_size__ (16), __may_alias__));
typedef long long __m128i __attribute__ ((__vector_size__ (16), __may_alias__));
typedef double __m128d_u __attribute__ ((__vector_size__ (16), __may_alias__, __aligned__ (1)));
"""

GOLDEN_TYPES_256 = """\
typedef double __v4df __attribute__ ((__vector_size__ (32)));
typedef long long __v4di __attribute__ ((__vector_size__ (32)));
typedef double __m256d __attribute__ ((__vector_size__ (32), __may_alias__));
typedef long long __m256i __attribute__ ((__vector_size__ (32), __may_alias__));
typedef double __m256d_u __attribute__ ((__vector_size__ (32), __may_alias__, __aligned__ (1)));
"""

GOLDEN_FALLBACK = """\
#else
#include <math.h>
#include <immintrin.h>
#endif
"""

GOLDEN_HEADER_AVX = (
    GOLDEN_GUARD + GOLDEN_TYPES_128 + GOLDEN_TYPES_256
    + INLINE.format("__m128d")
    + "_mm_add_pd (__m128d __A, __m128d __B) "
      "{ return (__m128d) ((__v2df)__A + (__v2df)__B); }\n"
    + INLINE.format("__m128d")
    + "_mm_add_sd (__m128d __A, __m128d __B) "
      "{ return (__m128d)__builtin_ia32_addsd ((__v2df)__A, (__v2df)__B); }\n"
    + INLINE.format("__m128d")
    + "_mm_unpackhi_pd (__m128d __A, __m128d __B) "
      "{ return (__m128d)__builtin_ia32_unpckhpd ((__v2df)__A, (__v2df)__B); }\n"
    + INLINE.format("double")
    + "_mm_cvtsd_f64 (__m128d __A) { return ((__v2df)__A)[0]; }\n"
    + INLINE.format("__m256d")
    + "_mm256_loadu_pd (double const *__P) { return *(__m256d_u *)__P; }\n"
    + INLINE.format("void")
    + "_mm256_storeu_pd (double *__P, __m256d __A) "
      "{ *(__m256d_u *)__P = __A; }\n"
    + INLINE.format("__m128d")
    + "_mm256_castpd256_pd128 (__m256d __A) "
      "{ return (__m128d) __builtin_ia32_pd_pd256 ((__v4df)__A); }\n"
    + "#define _mm256_extractf128_pd(X, N) ((__m128d) "
      "__builtin_ia32_vextractf128_pd256 ((__v4df)(__m256d)(X), (int)(N)))\n"
    + GOLDEN_FALLBACK + """
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
""")

GOLDEN_HEADER_SSE = (
    GOLDEN_GUARD + GOLDEN_TYPES_128
    + INLINE.format("__m128d")
    + "_mm_loadu_pd (double const *__P) { return *(__m128d_u *)__P; }\n"
    + INLINE.format("void")
    + "_mm_storeu_pd (double *__P, __m128d __A) "
      "{ *(__m128d_u *)__P = __A; }\n"
    + INLINE.format("__m128d")
    + "_mm_add_sd (__m128d __A, __m128d __B) "
      "{ return (__m128d)__builtin_ia32_addsd ((__v2df)__A, (__v2df)__B); }\n"
    + INLINE.format("__m128d")
    + "_mm_unpackhi_pd (__m128d __A, __m128d __B) "
      "{ return (__m128d)__builtin_ia32_unpckhpd ((__v2df)__A, (__v2df)__B); }\n"
    + INLINE.format("double")
    + "_mm_cvtsd_f64 (__m128d __A) { return ((__v2df)__A)[0]; }\n"
    + GOLDEN_FALLBACK + """
static inline double repro_reduce_add_pd(__m128d v) {
    __m128d swapped = _mm_unpackhi_pd(v, v);
    return _mm_cvtsd_f64(_mm_add_sd(v, swapped));
}

static inline double repro_extract_pd(__m128d v, int lane) {
    double tmp[2];
    _mm_storeu_pd(tmp, v);
    return tmp[lane];
}
""")

GOLDEN_HEADER_SCALAR = (GOLDEN_GUARD + "double sqrt(double);\n"
                        "#else\n#include <math.h>\n#endif\n")


class TestHeaderEmission:
    """The prelude is pinned as text: under GCC the types and exactly the
    intrinsics the code calls, anything else falls back to ``<math.h>``
    and ``<immintrin.h>``."""

    def _copy(self, vector_width, value):
        x = Buffer("x", 1, 4, "in")
        y = Buffer("y", 1, 4, "out")
        return make_function([
            Assign(VecVar("v"), VLoad(x, Affine.constant(0))),
            Assign(VecVar("r"), value),
            VStore(y, Affine.constant(0), VecVar("r")),
        ], params=[x, y], vector_width=vector_width)

    def _header(self, code):
        return code[code.index("\n") + 1:code.index("\nvoid golden_kernel(")]

    @pytest.mark.parametrize("width,golden", [(4, GOLDEN_HEADER_AVX),
                                              (2, GOLDEN_HEADER_SSE)],
                             ids=["avx", "sse"])
    def test_header_block_is_golden(self, width, golden):
        code = unparse_function(self._copy(width, VecVar("v")))
        assert self._header(code) == golden

    def test_scalar_header_declares_only_what_it_calls(self):
        from repro.cir.nodes import Load, UnOp

        x = Buffer("x", 1, 2, "in")
        y = Buffer("y", 1, 1, "out")
        fn = make_function([
            Store(y, Affine.constant(0), UnOp("sqrt", Load(x, Affine.constant(1)))),
        ], params=[x, y], vector_width=1)
        assert self._header(unparse_function(fn)) == GOLDEN_HEADER_SCALAR

    @pytest.mark.parametrize("width", [4, 2])
    def test_fma_adds_its_header_inside_the_guard(self, width):
        prefix = "_mm256" if width == 4 else "_mm"
        vector = "__m256d" if width == 4 else "__m128d"
        definition = (INLINE.format(vector) + f"{prefix}_fmadd_pd (")
        plain = unparse_function(self._copy(width, VecVar("v")))
        assert "fmadd" not in plain
        fma = VFma(VecVar("v"), VecVar("v"), VecVar("v"), width)
        code = unparse_function(self._copy(width, fma))
        assert code.count(definition) == 1
        # defined in the GCC branch, before the fallback
        assert code.index(GOLDEN_GUARD) < code.index(definition) \
            < code.index(GOLDEN_FALLBACK)
        assert f"r = {prefix}_fmadd_pd(v, v, v);" in code


@pytest.mark.skipif(not compiler_available(),
                    reason="needs a C compiler")
class TestGoldenSnippetsCompile:
    def test_masked_and_reduction_code_compiles_and_runs(self):
        import numpy as np

        from repro.backend import compile_kernel
        from repro.cir.interpreter import Interpreter

        x = Buffer("x", 1, 6, "in")
        y = Buffer("y", 1, 2, "out")
        mask = (True, True, False, False)
        fn = make_function([
            Assign(VecVar("v"), VLoad(x, Affine.constant(2), mask=mask)),
            Assign(ScalarVar("s"), VReduceAdd(VecVar("v"))),
            Store(y, Affine.constant(0), ScalarVar("s")),
            Store(y, Affine.constant(1), VExtract(VecVar("v"), 1)),
        ], params=[x, y])
        inputs = {"x": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}
        expected = Interpreter(fn).run(inputs)
        compiled = compile_kernel(unparse_function(fn), fn).run(inputs)
        np.testing.assert_allclose(compiled["y"], expected["y"], atol=0,
                                   rtol=0)
