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
        code = unparse_function(fn)
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
        code = unparse_function(fn)
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


GOLDEN_INCLUDES = """\
#include <math.h>
#include <stddef.h>
#if defined(__GNUC__) && !defined(__clang__)
#include <smmintrin.h>
#define _IMMINTRIN_H_INCLUDED
#include <avxintrin.h>
#undef _IMMINTRIN_H_INCLUDED
#else
#include <immintrin.h>
#endif
"""

GOLDEN_HEADER_AVX = GOLDEN_INCLUDES + """
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

GOLDEN_HEADER_SSE = GOLDEN_INCLUDES + """
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


class TestHeaderEmission:
    """The intrinsic includes are pinned as text: under GCC only the SSE4.1
    and AVX headers, anything else falls back to ``<immintrin.h>``."""

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

    @pytest.mark.parametrize("width", [4, 2])
    def test_fma_adds_its_header_inside_the_guard(self, width):
        fma = VFma(VecVar("v"), VecVar("v"), VecVar("v"), width)
        code = unparse_function(self._copy(width, fma))
        assert ("#include <avxintrin.h>\n#include <fmaintrin.h>\n"
                "#undef _IMMINTRIN_H_INCLUDED\n") in code
        prefix = "_mm256" if width == 4 else "_mm"
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
