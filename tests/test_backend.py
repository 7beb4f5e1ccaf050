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
from repro.backend.compile import kernel_flags
from repro.cir import (Affine, Assign, Buffer, FloatConst, For, Function,
                       ScalarVar, Store, Load, BinOp, UnOp, VBlend, VecVar,
                       VLoad, VStore)
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


class TestSignatureContract:
    """The generated function takes exactly the LA program's storage
    groups; every temporary the pipeline invents is a local array."""

    @pytest.mark.parametrize("size", [4, 8])
    @pytest.mark.parametrize("name", workload_names())
    def test_params_are_the_storage_group_leaders(self, name, size):
        program = make_request(f"{name}:{size}").program
        function = SLinGen(Options(autotune=False)).generate_result(
            program).function
        leaders = list(dict.fromkeys(program.storage_groups().values()))
        assert [buf.name for buf in function.params] == leaders
        assert all(buf.kind == "temp" for buf in function.temps)

    def test_kf8_fits_the_native_drivers_pointer_limit(self):
        function = SLinGen(Options()).generate_result(
            make_request("kf:8").program).function
        assert len(function.params) == 19 <= 64


def _temp_read_before_write_function():
    """``y[0] = t[0] + t[1]`` after writing only ``t[0]``, and ``y[1] =
    u[0]`` after writing ``u[0]``: ``t`` needs its implicit zero, ``u``
    does not, and ``w`` is written but never read."""
    x = Buffer("x", 1, 2, "in")
    y = Buffer("y", 1, 2, "out")
    t = Buffer("t", 1, 2, "temp")
    u = Buffer("u", 1, 1, "temp")
    w = Buffer("w", 1, 1, "temp")
    body = [Store(w, Affine.constant(0), Load(x, Affine.constant(1))),
            Store(t, Affine.constant(0), Load(x, Affine.constant(0))),
            Store(y, Affine.constant(0),
                  BinOp("add", Load(t, Affine.constant(0)),
                        Load(t, Affine.constant(1)))),
            Store(u, Affine.constant(0), Load(x, Affine.constant(1))),
            Store(y, Affine.constant(1), Load(u, Affine.constant(0)))]
    return Function("zeroed_temp", [x, y], [t, u, w], body,
                    vector_width=1)


class TestTempInitialization:
    def test_only_temps_read_before_written_are_zeroed(self):
        code = unparse_function(_temp_read_before_write_function())
        assert "double t[2] = {0};" in code
        assert "double u[1];" in code

    def test_unread_temps_are_neither_declared_nor_stored(self):
        code = unparse_function(_temp_read_before_write_function())
        assert not re.search(r"\bw\b", code)

    @pytest.mark.skipif(not compiler_available(), reason="no C compiler")
    def test_c_interpreter_and_numpy_agree(self, monkeypatch):
        from repro.backend import compile as compile_module
        from repro.backend.numpy_backend import compile_numpy_kernel
        from repro.cir.interpreter import run_function

        # Fill every uninitialized local with a non-zero pattern, so a
        # temp declared without its initializer reads garbage, never a
        # lucky zero from the stack.
        flags = compile_module.kernel_flags
        monkeypatch.setattr(
            compile_module, "kernel_flags",
            lambda function, c_code=None: (
                flags(function, c_code)[0]
                + ["-ftrivial-auto-var-init=pattern"],
                flags(function, c_code)[1]))
        function = _temp_read_before_write_function()
        inputs = {"x": np.array([[3.0, 5.0]])}
        compiled = compile_kernel(unparse_function(function),
                                  function).run(inputs)["y"]
        np.testing.assert_array_equal(compiled, [[3.0, 5.0]])
        np.testing.assert_array_equal(
            run_function(function, inputs)["y"], compiled)
        np.testing.assert_array_equal(
            compile_numpy_kernel(function).run(inputs)["y"], compiled)


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
                           VReduceAdd, VSet, VUnpack, VZero)
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
        flags = kernel_flags(function)[0]
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

    def test_every_definition_is_reachable(self):
        from repro.backend.c_unparser import _DEFINITIONS
        used = set()
        for function in [_every_intrinsic_function(w) for w in (4, 2, 1)]:
            unparser = CUnparser(function)
            unparser.unparse()
            used |= unparser._used
        assert used == set(_DEFINITIONS)

    @pytest.mark.parametrize("width", [4, 2, 1])
    def test_gcc_includes_no_header(self, tmp_path, width):
        compiler = find_c_compiler()
        if not _cc_is_gcc(compiler):
            pytest.skip("the header-free prelude applies under GCC only")
        function = _every_intrinsic_function(width)
        source = tmp_path / f"{function.name}.c"
        source.write_text(unparse_function(function))
        result = subprocess.run(
            [compiler, "-H", "-fsyntax-only", "-std=c99", "-O2", "-Wall",
             "-Wextra", "-Werror", *kernel_flags(function)[0], str(source)],
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
    def test_instruction_set_flags_follow_the_vector_width(self):
        assert kernel_flags(_simple_scalar_function())[0] == []
        assert kernel_flags(_every_intrinsic_function(2))[0] == ["-mavx"]
        # the emitted C, given as a shortcut, does not change the answer
        function = _every_intrinsic_function(4)
        assert kernel_flags(function, unparse_function(function))[0] == \
            kernel_flags(function)[0] == ["-mavx"]

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
