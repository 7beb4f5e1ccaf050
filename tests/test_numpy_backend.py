"""Tests of the NumPy execution backend (C-IR -> Python/NumPy kernels).

Covers the translator's node semantics against the interpreter (the
reference), both emission modes, masked edge-of-buffer accesses, the
content-addressed source cache, the executor resolution used by the
service/bench layers, and the `numpy` tuning measurer.
"""

import json
import os

import numpy as np
import pytest

from repro.applications.cases import make_case
from repro.backend import (EXECUTORS, compiler_available, make_executor,
                           compile_numpy_kernel, translate_function)
from repro.backend.numpy_backend import (MODES, NumPyKernel, NumPyTranslator,
                                         _mangle)
from repro.cir.interpreter import Interpreter, InterpreterKernel
from repro.cir.nodes import (Affine, Assign, BinOp, Buffer, FloatConst, For,
                             Function, If, Load, ScalarVar, Store, UnOp,
                             VBinOp, VBlend, VBroadcast, VecVar, VExtract,
                             VLoad, VPermute2f128, VReduceAdd, VSet, VStore,
                             VUnpack, VZero)
from repro.errors import BackendError
from repro.slingen import Options, SLinGen


def generate(name: str, size: int, vectorize: bool = True):
    case = make_case(name, size)
    result = SLinGen(Options(vectorize=vectorize, annotate_code=False)) \
        .generate_result(case.program, nominal_flops=case.nominal_flops)
    return case, result


def assert_backends_match(function, inputs, atol=1e-12):
    expected = Interpreter(function).run(inputs)
    for mode in MODES:
        got = compile_numpy_kernel(function, mode=mode).run(inputs)
        assert set(got) == set(expected)
        for key in expected:
            np.testing.assert_allclose(got[key], expected[key], atol=atol,
                                       rtol=0, err_msg=f"{mode}:{key}")


# ---------------------------------------------------------------------------
# Node-level semantics (synthetic functions, both modes vs. interpreter)
# ---------------------------------------------------------------------------


class TestVectorNodeSemantics:
    def _run(self, body, x_vals=(1.0, -2.0, 3.5, 0.25, 7.0, -1.5, 2.0, 4.0)):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        fn = Function("node_kernel", params=[x, y], body=body,
                      vector_width=4)
        inputs = {"x": np.array([x_vals], dtype=np.float64)}
        expected = Interpreter(fn).run(inputs)
        for mode in MODES:
            got = compile_numpy_kernel(fn, mode=mode).run(inputs)
            np.testing.assert_allclose(got["y"], expected["y"], atol=0,
                                       rtol=0, err_msg=mode)
        return expected["y"]

    def _xy(self):
        x = Buffer("x", 1, 8, "in")
        y = Buffer("y", 1, 8, "out")
        return x, y

    def test_vload_vstore_roundtrip(self):
        x, y = self._xy()
        body = [VStore(y, Affine.constant(0),
                       VLoad(x, Affine.constant(4)))]
        fn = Function("node_kernel", params=[x, y], body=body,
                      vector_width=4)
        inputs = {"x": np.arange(8.0)}
        assert_backends_match(fn, inputs)

    def test_arith_fma_blend_shuffle_permute_unpack(self):
        x, y = self._xy()
        a = VecVar("a")
        b = VecVar("b")
        body = [
            Assign(a, VLoad(x, Affine.constant(0))),
            Assign(b, VLoad(x, Affine.constant(4))),
            Assign(VecVar("s"), VBinOp("add", a, b)),
            Assign(VecVar("m"), VBinOp("mul", a, b)),
            Assign(VecVar("mx"), VBinOp("max", a, b)),
            Assign(VecVar("mn"), VBinOp("min", a, b)),
            Assign(VecVar("bl"), VBlend(a, b, 0b0110)),
            Assign(VecVar("pm"), VPermute2f128(a, b, 0x21)),
            Assign(VecVar("up"), VUnpack(a, b, high=True)),
            VStore(y, Affine.constant(0), VBinOp("add", VecVar("s"),
                                                 VBinOp("mul", VecVar("bl"),
                                                        VecVar("m")))),
            VStore(y, Affine.constant(4), VBinOp("sub", VecVar("pm"),
                                                 VBinOp("div", VecVar("up"),
                                                        VecVar("mx")))),
        ]
        fn = Function("node_kernel", params=[x, y], body=body,
                      vector_width=4)
        inputs = {"x": np.array([1.0, -2.0, 3.5, 0.25, 7.0, -1.5, 2.0,
                                 4.0])}
        assert_backends_match(fn, inputs)

    def test_permute_zero_halves_and_duplication(self):
        x, y = self._xy()
        a = VecVar("a")
        body = [
            Assign(a, VLoad(x, Affine.constant(0))),
            # high half zeroed, low half = high half of a
            Assign(VecVar("p1"), VPermute2f128(a, a, 0x81)),
            # both halves = low half of a (lane duplication)
            Assign(VecVar("p2"), VPermute2f128(a, a, 0x00)),
            VStore(y, Affine.constant(0), VecVar("p1")),
            VStore(y, Affine.constant(4), VecVar("p2")),
        ]
        fn = Function("node_kernel", params=[x, y], body=body,
                      vector_width=4)
        assert_backends_match(fn, {"x": np.arange(1.0, 9.0)})

    def test_reduce_extract_broadcast_set_zero(self):
        x, y = self._xy()
        a = VecVar("a")
        body = [
            Assign(a, VLoad(x, Affine.constant(0))),
            Assign(ScalarVar("r"), VReduceAdd(a)),
            Assign(ScalarVar("e"), VExtract(a, 2)),
            Assign(VecVar("bc"), VBroadcast(BinOp("mul", ScalarVar("r"),
                                                  ScalarVar("e")))),
            Assign(VecVar("st"), VSet((ScalarVar("r"), ScalarVar("e"),
                                       FloatConst(2.5), Load(x,
                                       Affine.constant(7))))),
            VStore(y, Affine.constant(0), VBinOp("add", VecVar("bc"),
                                                 VZero())),
            VStore(y, Affine.constant(4), VecVar("st")),
        ]
        fn = Function("node_kernel", params=[x, y], body=body,
                      vector_width=4)
        assert_backends_match(fn, {"x": np.arange(1.0, 9.0)})

    def test_masked_load_store_at_buffer_edge(self):
        # A 1x6 buffer: a full 4-vector at index 4 would run off the end;
        # the masked forms only touch the active lanes (AVX semantics).
        x = Buffer("x", 1, 6, "in")
        y = Buffer("y", 1, 6, "out")
        mask = (True, True, False, False)
        body = [
            Assign(VecVar("a"), VLoad(x, Affine.constant(4), mask=mask)),
            VStore(y, Affine.constant(4), VecVar("a"), mask=mask),
            VStore(y, Affine.constant(0),
                   VLoad(x, Affine.constant(0))),
        ]
        fn = Function("node_kernel", params=[x, y], body=body,
                      vector_width=4)
        inputs = {"x": np.arange(1.0, 7.0)}
        expected = Interpreter(fn).run(inputs)
        for mode in MODES:
            got = compile_numpy_kernel(fn, mode=mode).run(inputs)
            np.testing.assert_allclose(got["y"], expected["y"], atol=0,
                                       rtol=0)

    def test_masked_store_aliasing_value_reads_before_writes(self):
        """AVX maskstore evaluates its source vector before writing any
        lane; an overlapping masked copy (store at i+1 of a load at i)
        must not observe its own earlier lane writes."""
        b = Buffer("b", 1, 8, "inout")
        mask = (True, True, True, False)
        body = [
            VStore(b, Affine.constant(1),
                   VLoad(b, Affine.constant(0), mask=mask), mask=mask),
        ]
        fn = Function("node_kernel", params=[b], body=body,
                      vector_width=4)
        inputs = {"b": np.arange(1.0, 9.0)}
        expected = Interpreter(fn).run(inputs)
        # the shifted lanes hold the *old* values 1, 2, 3 -- not a cascade
        np.testing.assert_array_equal(
            expected["b"][0], [1.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0])
        for mode in MODES:
            got = compile_numpy_kernel(fn, mode=mode).run(inputs)
            np.testing.assert_array_equal(got["b"], expected["b"],
                                          err_msg=mode)

    def test_scalar_ops_loops_and_conditionals(self):
        x = Buffer("x", 4, 4, "in")
        y = Buffer("y", 4, 4, "out")
        i, j = "i", "j"
        body = [
            For(i, 0, 4, 1, body=[
                For(j, 0, 4, 1, body=[
                    If(Affine.var(i), "<=", Affine.var(j), then_body=[
                        Store(y, Affine.var(i) * 4 + Affine.var(j),
                              UnOp("sqrt",
                                   BinOp("max",
                                         Load(x, Affine.var(i) * 4
                                              + Affine.var(j)),
                                         FloatConst(0.5)))),
                    ], else_body=[
                        Store(y, Affine.var(i) * 4 + Affine.var(j),
                              UnOp("neg",
                                   BinOp("div",
                                         Load(x, Affine.var(j) * 4
                                              + Affine.var(i)),
                                         FloatConst(2.0)))),
                    ]),
                ]),
            ]),
        ]
        fn = Function("node_kernel", params=[x, y], body=body)
        rng = np.random.default_rng(3)
        assert_backends_match(fn, {"x": rng.standard_normal((4, 4))})


# ---------------------------------------------------------------------------
# Translation artifacts
# ---------------------------------------------------------------------------


class TestTranslation:
    def test_mangling_handles_python_keywords(self):
        assert _mangle("lambda") == "v_lambda"
        assert _mangle("A") == "v_A"
        with pytest.raises(BackendError):
            _mangle("not an identifier")

    def test_gpr_lambda_output_translates(self):
        # The GPR application declares `Sca lambda <Out>` -- a Python
        # keyword as a buffer name.
        case, result = generate("gpr", 4)
        kernel = compile_numpy_kernel(result.function)
        outputs = kernel.run(case.make_inputs(seed=17))
        assert "lambda" in outputs

    def test_unrolled_source_shape(self):
        _, result = generate("potrf", 4)
        source = translate_function(result.function)
        assert f"def {result.function.name}(" in source
        assert ".tolist()" in source
        assert "_p_U[:] = v_U" in source        # writeback of the output
        assert "import numpy" not in source     # pure-Python inner loop

    def test_vectorized_source_shape(self):
        _, result = generate("gemm", 4)
        source = translate_function(result.function, mode="vectorized")
        assert "import numpy as np" in source
        assert ".copy()" in source              # anti-aliasing vector loads
        assert "_maskload(" in source           # masked edge accesses

    def test_unknown_mode_rejected(self):
        _, result = generate("potrf", 4)
        with pytest.raises(BackendError):
            translate_function(result.function, mode="simd")
        with pytest.raises(BackendError):
            compile_numpy_kernel(result.function, mode="simd")

    def test_sources_are_deterministic(self):
        _, result = generate("potrf", 4)
        assert translate_function(result.function) \
            == translate_function(result.function)

    def test_translator_rejects_unknown_statement(self):
        class Bogus:
            pass

        fn = Function("k", params=[Buffer("x", 1, 4, "out")],
                      body=[Bogus()])
        with pytest.raises(BackendError):
            NumPyTranslator(fn).translate()


# ---------------------------------------------------------------------------
# NumPyKernel contract
# ---------------------------------------------------------------------------


class TestNumPyKernel:
    def test_run_matches_interpreter_on_registry_kernels(self):
        for name, size in [("potrf", 4), ("gemm", 4), ("trsm", 4),
                           ("trsyl", 4), ("kf", 4), ("l1a", 4)]:
            case, result = generate(name, size)
            inputs = case.make_inputs(seed=17)
            assert_backends_match(result.function, inputs)

    def test_scalar_kernels_translate_too(self):
        case, result = generate("potrf", 4, vectorize=False)
        assert result.function.vector_width == 1
        assert_backends_match(result.function, case.make_inputs(seed=17))

    def test_inputs_are_not_mutated(self):
        case, result = generate("potrf", 4)
        inputs = case.make_inputs(seed=17)
        pristine = {k: v.copy() for k, v in inputs.items()}
        compile_numpy_kernel(result.function).run(inputs)
        for key in inputs:
            np.testing.assert_array_equal(inputs[key], pristine[key])

    def test_missing_input_raises(self):
        _, result = generate("potrf", 4)
        with pytest.raises(BackendError):
            compile_numpy_kernel(result.function).run({})

    def test_bad_shape_raises(self):
        _, result = generate("potrf", 4)
        with pytest.raises(BackendError):
            compile_numpy_kernel(result.function).run(
                {"S": np.eye(5)})

    def test_time_contract(self):
        case, result = generate("potrf", 4)
        kernel = compile_numpy_kernel(result.function)
        samples = kernel.time(case.make_inputs(seed=17), repeats=3,
                              warmup=1, inner=2)
        assert len(samples) == 3
        assert all(s > 0 for s in samples)

    def test_pristine_restore_rewrites_only_inout_buffers(self):
        from repro.timing import pristine_restore
        params = [Buffer("a", 1, 2, "in"), Buffer("b", 1, 2, "inout"),
                  Buffer("c", 1, 2, "out"), Buffer("t", 1, 2, "temp")]
        work = [np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                np.array([5.0, 6.0]), np.array([7.0, 8.0])]
        restore = pristine_restore(params, work)
        for array in work:
            array[:] = -1.0
        restore()
        assert [array.tolist() for array in work] == [
            [-1.0, -1.0], [3.0, 4.0], [-1.0, -1.0], [-1.0, -1.0]]

    def test_kernel_is_callable(self):
        case, result = generate("potrf", 4)
        kernel = compile_numpy_kernel(result.function)
        inputs = case.make_inputs(seed=17)
        np.testing.assert_array_equal(kernel(inputs)["U"],
                                      kernel.run(inputs)["U"])


# ---------------------------------------------------------------------------
# Content-addressed source cache
# ---------------------------------------------------------------------------


class TestSourceCache:
    def test_cache_key_persists_source(self, tmp_path):
        _, result = generate("potrf", 4)
        kernel = compile_numpy_kernel(result.function, cache_key="k1",
                                      cache_dir=str(tmp_path))
        assert kernel.source_path is not None
        assert os.path.exists(kernel.source_path)
        with open(kernel.source_path, encoding="utf-8") as handle:
            assert handle.read() == kernel.source

    def test_cached_source_is_authoritative(self, tmp_path):
        """A second call with the same key runs the *stored* source."""
        case, result = generate("potrf", 4)
        first = compile_numpy_kernel(result.function, cache_key="k1",
                                     cache_dir=str(tmp_path))
        doctored = first.source.replace(
            f"def {result.function.name}(",
            "SENTINEL = 1\n\n\ndef " + result.function.name + "(")
        with open(first.source_path, "w", encoding="utf-8") as handle:
            handle.write(doctored)
        second = compile_numpy_kernel(result.function, cache_key="k1",
                                      cache_dir=str(tmp_path))
        assert "SENTINEL" in second.source
        # ... and it still runs.
        second.run(case.make_inputs(seed=17))

    def test_corrupt_cached_source_is_dropped_and_regenerated(self,
                                                              tmp_path):
        case, result = generate("potrf", 4)
        first = compile_numpy_kernel(result.function, cache_key="k1",
                                     cache_dir=str(tmp_path))
        with open(first.source_path, "w", encoding="utf-8") as handle:
            handle.write("this is not python ((((")
        recovered = compile_numpy_kernel(result.function, cache_key="k1",
                                         cache_dir=str(tmp_path))
        assert recovered.source == first.source
        recovered.run(case.make_inputs(seed=17))
        # the regenerated source was re-published to the cache
        with open(first.source_path, encoding="utf-8") as handle:
            assert handle.read() == first.source

    def test_distinct_keys_distinct_files(self, tmp_path):
        _, result = generate("potrf", 4)
        a = compile_numpy_kernel(result.function, cache_key="a",
                                 cache_dir=str(tmp_path))
        b = compile_numpy_kernel(result.function, cache_key="b",
                                 cache_dir=str(tmp_path))
        assert a.source_path != b.source_path

    def test_modes_do_not_collide_in_cache(self, tmp_path):
        _, result = generate("potrf", 4)
        a = compile_numpy_kernel(result.function, cache_key="k",
                                 cache_dir=str(tmp_path))
        b = compile_numpy_kernel(result.function, cache_key="k",
                                 cache_dir=str(tmp_path),
                                 mode="vectorized")
        assert a.source_path != b.source_path
        assert a.source != b.source


# ---------------------------------------------------------------------------
# Executor resolution + layer integration
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_make_executor_backends(self):
        _, result = generate("potrf", 4)
        assert isinstance(make_executor(result.function, "numpy"),
                          NumPyKernel)
        assert isinstance(make_executor(result.function, "interpreter"),
                          InterpreterKernel)
        with pytest.raises(BackendError):
            make_executor(result.function, "fortran")

    def test_make_executor_auto(self):
        _, result = generate("potrf", 4)
        kernel = make_executor(result.function, "auto",
                               c_code=result.c_code)
        expected = "CompiledKernel" if compiler_available() \
            else "NumPyKernel"
        assert type(kernel).__name__ == expected

    def test_executors_constant_lists_backends(self):
        assert set(EXECUTORS) == {"compiled", "numpy", "numpy-vectorized",
                                  "interpreter"}

    def test_generation_result_run_numpy(self):
        case, result = generate("potrf", 4)
        inputs = case.make_inputs(seed=17)
        np.testing.assert_allclose(result.run_numpy(inputs)["U"],
                                   result.run(inputs)["U"], atol=1e-12,
                                   rtol=0)

    def test_service_response_kernel_without_compiler(self, tmp_path,
                                                      monkeypatch):
        from repro.service import DiskKernelStore, KernelService, \
            make_request
        import repro.backend as backend_pkg

        service = KernelService(store=DiskKernelStore(
            root=str(tmp_path / "kernels")))
        response = service.generate(make_request("potrf:4"))
        monkeypatch.setenv("REPRO_NUMPY_CACHE", str(tmp_path / "numpy"))
        monkeypatch.setattr(backend_pkg, "compiler_available",
                            lambda: False)
        kernel = response.kernel()          # auto, no $CC -> numpy
        assert isinstance(kernel, NumPyKernel)
        case = make_case("potrf", 4)
        outputs = kernel.run(case.make_inputs(seed=17))
        oracle = case.reference_outputs(case.make_inputs(seed=17))
        np.testing.assert_allclose(np.triu(outputs["U"]),
                                   np.triu(oracle["U"]), atol=1e-7)
        # content-addressed by the response key
        assert os.path.dirname(kernel.source_path) == str(
            tmp_path / "numpy")

    def test_interpreter_kernel_time(self):
        _, result = generate("potrf", 4)
        kernel = InterpreterKernel(result.function)
        case = make_case("potrf", 4)
        samples = kernel.time(case.make_inputs(seed=17), repeats=2,
                              warmup=1)
        assert len(samples) == 2 and all(s > 0 for s in samples)


class TestNumPyMeasurer:
    def test_measure_returns_seconds(self):
        from repro.tuning.measure import NumPyMeasurer

        _, result = generate("potrf", 4)
        measurement = NumPyMeasurer(repeats=3, warmup=1, inner=2) \
            .measure(result.function)
        assert measurement.backend == "numpy"
        assert measurement.unit == "seconds"
        assert measurement.score > 0
        assert len(measurement.samples) == 3

    def test_invalid_parameters_rejected(self):
        from repro.errors import MeasurementError
        from repro.tuning.measure import NumPyMeasurer

        with pytest.raises(MeasurementError):
            NumPyMeasurer(repeats=0)

    def test_listed_in_measurer_names(self):
        from repro.tuning.measure import measurer_names

        assert "numpy" in measurer_names()

    def test_tune_with_numpy_backend(self, tmp_path):
        from repro.tuning import Autotuner, TuningDB

        db = TuningDB(root=str(tmp_path))
        record = Autotuner(db=db, measurer="numpy", strategy="hill-climb",
                           budget=3).tune_case(make_case("potrf", 4))
        assert record.backend == "numpy"
        assert record.unit == "seconds"
        assert record.evaluations >= 1


# ---------------------------------------------------------------------------
# The crosscheck CLI (the CI differential job's entry point)
# ---------------------------------------------------------------------------


class TestBackendCLI:
    def test_crosscheck_agrees(self, capsys):
        from repro.backend.__main__ import main

        assert main(["crosscheck", "potrf:4", "gemm:4",
                     "--backends", "interpreter,numpy"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "DISAGREE" not in out

    def test_crosscheck_rejects_bad_backend(self):
        from repro.backend.__main__ import main

        assert main(["crosscheck", "potrf:4", "--backends",
                     "interpreter,fortran"]) == 2
        assert main(["crosscheck", "potrf:4", "--backends",
                     "numpy"]) == 2

    def test_crosscheck_flags_nan_against_a_number(self, monkeypatch,
                                                  capsys):
        import repro.backend.__main__ as backend_cli

        real_make_executor = backend_cli.make_executor

        class NanInFirstOutput:
            """A numpy kernel whose first output element reads NaN."""

            def __init__(self, kernel):
                self.kernel = kernel

            def run(self, inputs):
                outputs = dict(self.kernel.run(inputs))
                name = sorted(outputs)[0]
                outputs[name] = np.array(outputs[name], dtype=float)
                outputs[name].flat[0] = np.nan
                return outputs

        def make_executor(function, backend, c_code=None):
            kernel = real_make_executor(function, backend=backend,
                                        c_code=c_code)
            return NanInFirstOutput(kernel) if backend == "numpy" else kernel

        monkeypatch.setattr(backend_cli, "make_executor", make_executor)
        assert backend_cli.main(["crosscheck", "potrf:4", "--backends",
                                 "interpreter,numpy", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 1
        assert doc["workloads"][0]["ok"] is False
        assert doc["workloads"][0]["max_deviation"] == float("inf")

    def test_emit_numpy_source(self, capsys):
        from repro.backend.__main__ import main

        assert main(["emit", "potrf:4"]) == 0
        assert "def potrf_4_kernel(" in capsys.readouterr().out

    def test_emit_c_source(self, capsys):
        from repro.backend.__main__ import main

        assert main(["emit", "potrf:4", "--format", "c"]) == 0
        assert "void potrf_4_kernel(" in capsys.readouterr().out


class TestServiceRunCommand:
    def test_run_executes_workload(self, tmp_path, capsys):
        from repro.service.__main__ import main

        assert main(["--cache-dir", str(tmp_path), "run", "potrf:4",
                     "--backend", "numpy", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "NumPyKernel" in out and "ok" in out
