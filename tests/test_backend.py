"""Tests for the C backends (unparser + compile-and-run)."""

import os
import re
import subprocess

import numpy as np
import pytest

from repro.applications import make_case
from repro.backend import (compile_kernel, compiler_available,
                           find_c_compiler, unparse_function)
from repro.cir import (Affine, Assign, Buffer, FloatConst, For, Function,
                       ScalarVar, Store, Load, BinOp, VBlend, VecVar, VFma,
                       VLoad, VStore)
from repro.cir.interpreter import Interpreter
from repro.slingen import Options, SLinGen


def _simple_scalar_function():
    a = Buffer("a", 1, 4, "in")
    out = Buffer("out", 1, 4, "out")
    acc = ScalarVar("acc")
    body = [For("i", 0, 4, 1,
                [Assign(acc, BinOp("mul", Load(a, Affine.var("i")),
                                   FloatConst(2.0))),
                 Store(out, Affine.var("i"), acc)])]
    return Function("scale2", [a, out], [], body, vector_width=1)


class TestUnparser:
    def test_scalar_function_text(self):
        code = unparse_function(_simple_scalar_function())
        assert "void scale2(const double* restrict a, double* restrict out)" \
            in code
        assert "for (int i = 0; i < 4; i += 1)" in code
        assert "#include <math.h>" in code
        assert "immintrin" not in code

    def test_vector_function_uses_intrinsics_and_masks(self):
        a = Buffer("a", 1, 6, "in")
        out = Buffer("out", 1, 6, "out")
        v = VecVar("v")
        mask = (True, True, False, False)
        body = [Assign(v, VLoad(a, Affine.constant(4), 4, mask)),
                VStore(out, Affine.constant(4), v, 4, mask),
                VStore(out, Affine.constant(0),
                       VBlend(VLoad(a, Affine.constant(0)),
                              VLoad(a, Affine.constant(0)), 0x3))]
        func = Function("vk", [a, out], [], body, vector_width=4)
        code = unparse_function(func)
        assert "_mm256_maskload_pd" in code
        assert "_mm256_maskstore_pd" in code
        assert "_mm256_blend_pd" in code
        assert "_mm256_set_epi64x" in code

    def test_generated_kernel_declares_temporaries(self):
        case = make_case("kf", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        assert "double lg_tmp" in generated.c_code or \
            "double c1_t" in generated.c_code

    def test_storage_groups_share_one_pointer(self):
        case = make_case("kf", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        signature = next(line for line in generated.c_code.splitlines()
                         if line.startswith("void "))
        # U overwrites M3: only the M3 pointer appears in the signature.
        assert "double* restrict M3" in signature
        assert "restrict U" not in signature


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestCompileAndRun:
    def test_compile_simple_kernel(self):
        func = _simple_scalar_function()
        code = unparse_function(func)
        kernel = compile_kernel(code, func)
        result = kernel.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[2.0, 4.0, 6.0, 8.0]])

    def test_compile_vectorized_generated_code(self):
        case = make_case("trsyl", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        inputs = case.make_inputs(2)
        outputs = generated.compile_and_run(inputs)
        expected = case.reference_outputs(inputs)
        np.testing.assert_allclose(outputs["X"], expected["X"], atol=1e-7)


def _cpu_has_fma():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return any(line.startswith("flags") and "fma" in line.split()
                       for line in handle)
    except OSError:
        return False


def _fma_function():
    a = Buffer("a", 1, 4, "in")
    b = Buffer("b", 1, 4, "in")
    out = Buffer("out", 1, 4, "inout")
    body = [VStore(out, Affine.constant(0),
                   VFma(VLoad(a, Affine.constant(0)),
                        VLoad(b, Affine.constant(0)),
                        VLoad(out, Affine.constant(0))))]
    return Function("fma4", [a, b, out], [], body, vector_width=4)


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestFusedMultiplyAdd:
    def test_vfma_function_compiles(self, tmp_path):
        func = _fma_function()
        kernel = compile_kernel(unparse_function(func), func,
                                keep_dir=str(tmp_path))
        if not _cpu_has_fma():
            pytest.skip("compiled, but this CPU has no FMA to run it on")
        inputs = {"a": np.array([[1.0, 2.0, 3.0, 4.0]]),
                  "b": np.array([[0.5, 0.25, 2.0, -1.0]]),
                  "out": np.array([[1.0, 1.0, 1.0, 1.0]])}
        expected = Interpreter(func).run(inputs)
        np.testing.assert_array_equal(kernel.run(inputs)["out"],
                                      expected["out"])


def _cc_is_gcc(compiler):
    macros = subprocess.run([compiler, "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True).stdout
    return "__GNUC__" in macros and "__clang__" not in macros


_GCC_INCLUDES = re.compile(r"#if defined\(__GNUC__\).*?#endif\n", re.S)


def _with_immintrin(code):
    """The same C with the full ``<immintrin.h>`` the unparser emitted
    before it trimmed the include to the headers the kernel uses."""
    replaced, count = _GCC_INCLUDES.subn("#include <immintrin.h>\n", code)
    assert count == 1
    return replaced


def _compiler_output(tmp_path, name, code, mode):
    source = tmp_path / f"{name}.c"
    source.write_text(code)
    output = tmp_path / f"{name}.{mode}"
    subprocess.run([find_c_compiler(), f"-{mode}", "-O2", "-std=c99",
                    "-fPIC", "-mavx", str(source), "-o", str(output)],
                   check=True, capture_output=True)
    return output.read_text()


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestTrimmedIntrinsicHeaders:
    @pytest.mark.parametrize("name,width", [("potrf", 4), ("trsyl", 2)])
    def test_assembly_identical_to_immintrin(self, tmp_path, name, width):
        case = make_case(name, 8 if name == "potrf" else 4)
        generated = SLinGen(Options(autotune=False, vector_width=width)
                            ).generate(case.program)
        assert generated.function.vector_width == width

        def assembly(tag, code):
            # .LFB/.LFE number the function among every declaration the
            # headers made, so only their digits may differ
            text = _compiler_output(tmp_path, tag, code, "S")
            return [re.sub(r"\.LF([BE])\d+", r".LF\1", line)
                    for line in text.splitlines()
                    if not line.lstrip().startswith(".file")]

        assert assembly("trimmed", generated.c_code) == \
            assembly("full", _with_immintrin(generated.c_code))

    def test_preprocessed_header_is_a_fraction_of_immintrin(self, tmp_path):
        if not _cc_is_gcc(find_c_compiler()):
            pytest.skip("the trimmed includes apply under GCC only")
        code = unparse_function(_fma_function())
        trimmed = _compiler_output(tmp_path, "trimmed", code, "E")
        full = _compiler_output(tmp_path, "full", _with_immintrin(code), "E")
        assert len(trimmed.splitlines()) * 4 < len(full.splitlines())


class TestFindCompiler:
    def test_cc_environment_variable_wins(self, tmp_path, monkeypatch):
        fake = tmp_path / "my-super-cc"
        fake.write_text("#!/bin/sh\nexit 0\n")
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        from repro.backend.compile import find_c_compiler
        assert find_c_compiler() == str(fake)

    def test_unusable_cc_falls_back_to_probing(self, monkeypatch):
        monkeypatch.setenv("CC", "/definitely/not/a/compiler")
        from repro.backend.compile import find_c_compiler
        found = find_c_compiler()
        # Falls back to cc/gcc/clang probing; never returns the bogus CC.
        assert found != "/definitely/not/a/compiler"

    def test_empty_cc_ignored(self, monkeypatch):
        monkeypatch.setenv("CC", "   ")
        from repro.backend.compile import find_c_compiler
        assert find_c_compiler() != "   "


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestObjectCache:
    def test_compile_kernel_reuses_cached_object(self, tmp_path):
        func = _simple_scalar_function()
        code = unparse_function(func)
        first = compile_kernel(code, func, cache_key="k" * 64,
                               cache_dir=str(tmp_path))
        assert first.library_path.startswith(str(tmp_path))
        # Second compile with the same key must reuse the same .so path.
        second = compile_kernel(code, func, cache_key="k" * 64,
                                cache_dir=str(tmp_path))
        assert second.library_path == first.library_path
        result = second.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[2.0, 4.0, 6.0, 8.0]])
        # Different key -> different cached object.
        third = compile_kernel(code, func, cache_key="x" * 64,
                               cache_dir=str(tmp_path))
        assert third.library_path != first.library_path

    def test_changed_source_under_same_key_recompiles(self, tmp_path):
        func = _simple_scalar_function()
        code = unparse_function(func)
        first = compile_kernel(code, func, cache_key="k" * 64,
                               cache_dir=str(tmp_path))
        changed = code.replace("2.0", "3.0")
        second = compile_kernel(changed, func, cache_key="k" * 64,
                                cache_dir=str(tmp_path))
        assert second.library_path != first.library_path
        assert len(list(tmp_path.glob("*.so"))) == 2
        result = second.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[3.0, 6.0, 9.0, 12.0]])
