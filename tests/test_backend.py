"""Tests for the C backends (unparser + compile-and-run)."""

import os
import re
import shutil
import subprocess
import tempfile

import numpy as np
import pytest

from repro.applications import make_case
from repro.api import make_request
from repro.backend import (CUnparser, compile_kernel, compiler_available,
                           find_c_compiler, unparse_function)
from repro.backend.compile import isa_flags, kernel_flags
from repro.cir import (Affine, Assign, Buffer, FloatConst, For, Function,
                       ScalarVar, Store, Load, BinOp, UnOp, VBlend, VecVar,
                       VFma, VLoad, VStore)
from repro.cir.interpreter import Interpreter
from repro.errors import BackendError
from repro.service.registry import workload_names
from repro.slingen import Options, SLinGen
from test_generated_c_golden import PAPER_SUITE


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


_GCC_PRELUDE = re.compile(r"#if defined\(__GNUC__\).*?#endif\n", re.S)


def _with_immintrin(code):
    """The same C with the standard headers in place of the prelude that
    defines its intrinsics under GCC."""
    replaced, count = _GCC_PRELUDE.subn(
        "#include <math.h>\n#include <immintrin.h>\n", code)
    assert count == 1
    return replaced


def _assembly(tmp_path, name, code, flags):
    """``gcc -S`` of ``code``, without the lines that name the source file
    or number the function among every declaration the headers made."""
    source = tmp_path / f"{name}.c"
    source.write_text(code)
    output = tmp_path / f"{name}.s"
    subprocess.run([find_c_compiler(), "-S", "-O2", "-std=c99", "-fPIC",
                    *flags, str(source), "-o", str(output)],
                   check=True, capture_output=True)
    return [re.sub(r"\.LF([BE])\d+", r".LF\1", line)
            for line in output.read_text().splitlines()
            if not line.lstrip().startswith(".file")]


def _every_intrinsic_function(width):
    """A function whose C calls every intrinsic (and libm function) the
    unparser emits at ``width``."""
    from repro.cir import (VBroadcast, VBinOp, VExtract, VPermute2f128,
                           VReduceAdd, VSet, VShufflePd, VUnpack, VZero)
    a = Buffer("a", 1, 8, "in")
    out = Buffer("out", 1, 8, "out")
    v, w = VecVar("v", width), VecVar("w", width)
    lanes = (True,) * (width - 1) + (False,)
    s = ScalarVar("s")
    body = [Assign(s, UnOp("sqrt", BinOp("max", Load(a, Affine.constant(0)),
                                           Load(a, Affine.constant(1))))),
            Assign(s, BinOp("min", s, Load(a, Affine.constant(2))))]
    if width > 1:
        body += [
            Assign(v, VLoad(a, Affine.constant(0), width, lanes)),
            Assign(w, VBinOp("add", VLoad(a, Affine.constant(0), width),
                             VBroadcast(s, width), width)),
            Assign(w, VBinOp("sub", w, VSet(tuple(
                Load(a, Affine.constant(i)) for i in range(width))), width)),
            Assign(w, VBinOp("mul", w, VZero(width), width)),
            Assign(w, VBinOp("div", w, v, width)),
            Assign(w, VBinOp("max", w, v, width)),
            Assign(w, VBinOp("min", w, v, width)),
            Assign(w, VBlend(w, v, 1, width)),
            Assign(w, VShufflePd(w, v, 1, width)),
            Assign(w, VUnpack(w, v, True, width)),
            Assign(w, VUnpack(w, v, False, width)),
            Assign(s, VReduceAdd(w)),
            Assign(s, BinOp("add", s, VExtract(v, 1))),
        ]
        if width == 4:
            body.append(Assign(w, VPermute2f128(w, v, 0x21)))
        body += [VStore(out, Affine.constant(0), w, width),
                 VStore(out, Affine.constant(4), v, width, lanes)]
    body.append(Store(out, Affine.constant(7), s))
    return Function(f"every{width}", [a, out], [], body, vector_width=width)


def _identity_cases():
    cases = [pytest.param(spec, 4, id=spec) for spec in PAPER_SUITE]
    return cases + [pytest.param("trsyl:4", 2, id="trsyl:4-width2"),
                    pytest.param("potrf:8", 1, id="potrf:8-scalar")]


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestHeaderFreePrelude:
    """Under GCC the emitted C includes no header; the prelude's
    definitions must compile to the code the standard headers give."""

    def _assert_same_assembly(self, tmp_path, function, code):
        flags = isa_flags(function)
        assert _assembly(tmp_path, "prelude", code, flags) == \
            _assembly(tmp_path, "headers", _with_immintrin(code), flags)

    @pytest.mark.parametrize("spec,width", _identity_cases())
    def test_assembly_identical_to_immintrin(self, tmp_path, spec, width):
        request = make_request(spec)
        options = Options(autotune=False, vectorize=width > 1,
                          vector_width=width)
        generated = SLinGen(options).generate(request.program)
        assert generated.function.vector_width == width
        self._assert_same_assembly(tmp_path, generated.function,
                                   generated.c_code)

    @pytest.mark.parametrize("width", [4, 2, 1])
    def test_every_intrinsic_identical_to_immintrin(self, tmp_path, width):
        function = _every_intrinsic_function(width)
        self._assert_same_assembly(tmp_path, function,
                                   unparse_function(function))

    def test_fma_identical_to_immintrin(self, tmp_path):
        function = _fma_function()
        self._assert_same_assembly(tmp_path, function,
                                   unparse_function(function))

    def test_every_definition_is_reachable(self):
        from repro.backend.c_unparser import _DEFINITIONS
        used = set()
        for function in [_every_intrinsic_function(w) for w in (4, 2, 1)] + [
                _fma_function(),
                Function("fma2", [], [], [Assign(VecVar("v", 2), VFma(
                    VecVar("v", 2), VecVar("v", 2), VecVar("v", 2), 2))],
                         vector_width=2)]:
            unparser = CUnparser(function)
            unparser.unparse()
            used |= unparser._used
        assert used == set(_DEFINITIONS)

    @pytest.mark.parametrize("width", [4, 2, 1])
    def test_gcc_includes_no_header(self, tmp_path, width):
        compiler = find_c_compiler()
        if not _cc_is_gcc(compiler):
            pytest.skip("the header-free prelude applies under GCC only")
        functions = [_every_intrinsic_function(width)]
        if width == 4:
            functions.append(_fma_function())
        for function in functions:
            source = tmp_path / f"{function.name}.c"
            source.write_text(unparse_function(function))
            result = subprocess.run(
                [compiler, "-H", "-fsyntax-only", "-std=c99", "-O2", "-Wall",
                 "-Wextra", "-Werror", *isa_flags(function), str(source)],
                capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            # -H prints one dotted line per header it opens
            assert [line for line in result.stderr.splitlines()
                    if line.startswith(".")] == []


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


def _libm_function(*ops):
    """A scalar function whose body applies each of ``ops`` (``sqrt``,
    ``max`` or ``min``), which the C spells as a libm call."""
    a = Buffer("a", 1, 2, "in")
    out = Buffer("out", 1, 2, "out")
    x, y = Load(a, Affine.constant(0)), Load(a, Affine.constant(1))
    body = [Store(out, Affine.constant(i),
                  UnOp(op, x) if op == "sqrt" else BinOp(op, x, y))
            for i, op in enumerate(ops)]
    return Function("libm_" + "_".join(ops), [a, out], [], body,
                    vector_width=1)


def _private_tmpdir(tmp_path, monkeypatch):
    """Point ``tempfile`` at a fresh directory and return it."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    return scratch


def _fake_compiler(tmp_path):
    """A ``$CC`` that records its arguments and fails."""
    log = tmp_path / "cc-args"
    fake = tmp_path / "fake-cc"
    fake.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexit 1\n')
    fake.chmod(0o755)
    return str(fake), log


class TestCompileFlags:
    def test_isa_flags_follow_the_cir(self):
        assert isa_flags(_simple_scalar_function()) == []
        assert isa_flags(_every_intrinsic_function(2)) == ["-mavx"]
        assert isa_flags(_fma_function()) == ["-mavx", "-mfma"]
        # the emitted C, given as a shortcut, does not change the answer
        for function in (_every_intrinsic_function(4), _fma_function()):
            assert isa_flags(function, unparse_function(function)) == \
                isa_flags(function)

    def test_fma_text_without_vfma_does_not_enable_fma(self, tmp_path,
                                                        monkeypatch):
        compiler, log = _fake_compiler(tmp_path)
        monkeypatch.setenv("CC", compiler)
        func = _every_intrinsic_function(4)
        code = unparse_function(func) + "/* _mm256_fmadd_pd(a, b, c) */\n"
        with pytest.raises(BackendError):
            compile_kernel(code, func)
        arguments = log.read_text().split()
        assert "-mavx" in arguments and "-mfma" not in arguments

    def test_failed_compiles_leave_no_scratch_directory(self, tmp_path,
                                                        monkeypatch):
        scratch = _private_tmpdir(tmp_path, monkeypatch)
        compiler, _ = _fake_compiler(tmp_path)
        monkeypatch.setenv("CC", compiler)
        func = _simple_scalar_function()
        for _ in range(3):
            with pytest.raises(BackendError):
                compile_kernel(unparse_function(func), func)
        assert list(scratch.glob("repro_cc_*")) == []

    @pytest.mark.skipif(not compiler_available(), reason="no C compiler")
    def test_successful_compiles_leave_no_scratch_directory(self, tmp_path,
                                                            monkeypatch):
        scratch = _private_tmpdir(tmp_path, monkeypatch)
        func = _simple_scalar_function()
        kernels = [compile_kernel(unparse_function(func), func)
                   for _ in range(3)]
        assert list(scratch.glob("repro_cc_*")) == []
        # the loaded libraries outlive their deleted files
        for kernel in kernels:
            result = kernel.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
            np.testing.assert_allclose(result["out"],
                                       [[2.0, 4.0, 6.0, 8.0]])

    @pytest.mark.parametrize("function,calls_libm", [
        pytest.param(_simple_scalar_function(), False, id="no-libm"),
        pytest.param(_libm_function("sqrt"), True, id="sqrt"),
        pytest.param(_libm_function("max"), True, id="fmax"),
        pytest.param(_libm_function("min"), True, id="fmin"),
    ])
    def test_link_recipe(self, tmp_path, monkeypatch, function, calls_libm):
        compiler, log = _fake_compiler(tmp_path)
        monkeypatch.setenv("CC", compiler)
        with pytest.raises(BackendError):
            compile_kernel(unparse_function(function), function)
        arguments = log.read_text().split()
        assert "-nostdlib" in arguments and "-pipe" in arguments
        assert "-lc" not in arguments
        assert ("-lm" in arguments) == calls_libm

    def test_c_text_shortcut_agrees_with_the_walk_on_every_registry_spec(
            self):
        for name in workload_names():
            for vectorize in (True, False):
                function = SLinGen(Options(vectorize=vectorize)).generate(
                    make_request(f"{name}:4").program).function
                assert kernel_flags(function, unparse_function(function)) \
                    == kernel_flags(function), (name, vectorize)


_LOADER = r"""
#include <dlfcn.h>
#include <stdio.h>

int main(int argc, char **argv) {
    for (int i = 1; i < argc; i++) {
        if (!dlopen(argv[i], RTLD_NOW | RTLD_LOCAL)) {
            fprintf(stderr, "%s\n", dlerror());
            return 1;
        }
    }
    return 0;
}
"""


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestLibcFreeLink:
    """Kernels link without libc and its start files, and with libm only
    when they call it."""

    def _library(self, tmp_path, name, function):
        workdir = tmp_path / name
        workdir.mkdir()
        return compile_kernel(unparse_function(function), function,
                              keep_dir=str(workdir)).library_path

    def _generated(self, spec):
        return SLinGen(Options()).generate(make_request(spec).program).function

    def test_kernels_load_in_a_process_without_libm(self, tmp_path):
        # built like the native benchmark driver: $CC with -ldl only
        loader = tmp_path / "loader"
        (tmp_path / "loader.c").write_text(_LOADER)
        subprocess.run([find_c_compiler(), str(tmp_path / "loader.c"),
                        "-o", str(loader), "-ldl"],
                       check=True, capture_output=True)
        libraries = [
            self._library(tmp_path, "potrf", self._generated("potrf:4")),
            self._library(tmp_path, "gemm", self._generated("gemm:4")),
            self._library(tmp_path, "maxmin", _libm_function("max", "min")),
        ]
        result = subprocess.run([str(loader), *libraries],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_no_start_files_are_linked(self, tmp_path):
        if shutil.which("nm") is None:
            pytest.skip("no nm")
        library = self._library(tmp_path, "potrf", self._generated("potrf:4"))
        symbols = subprocess.run(["nm", library], check=True,
                                 capture_output=True, text=True).stdout
        assert "potrf_4_kernel" in symbols
        assert "frame_dummy" not in symbols
        assert "register_tm_clones" not in symbols
