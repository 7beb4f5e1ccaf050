"""End-to-end tests of the SLinGen generator on the paper's computations."""

import numpy as np
import pytest

from repro import Options, SLinGen
from repro.applications import kf_case, make_case
from repro.backend import compiler_available
from repro.slingen import apply_rule_r1
from repro.la import parse_program


def _check(case, generated, seed=11, atol=1e-7):
    inputs = case.make_inputs(seed)
    outputs = generated.run(inputs)
    expected = case.reference_outputs(inputs)
    for key, mode in case.checked_outputs.items():
        got, want = outputs[key], expected[key]
        if mode == "lower":
            got, want = np.tril(got), np.tril(want)
        elif mode == "upper":
            got, want = np.triu(got), np.triu(want)
        np.testing.assert_allclose(got, want, atol=atol,
                                   err_msg=f"{case.name}: output {key}")


ALL_CASES = [("potrf", 11), ("trtri", 10), ("trsyl", 7), ("trlya", 7),
             ("gpr", 9), ("l1a", 12), ("kf", 7)]


class TestGeneratedCodeCorrectness:
    @pytest.mark.parametrize("name,n", ALL_CASES)
    @pytest.mark.parametrize("vectorize", [True, False])
    def test_all_cases_interpreted(self, name, n, vectorize):
        case = make_case(name, n)
        generated = SLinGen(Options(vectorize=vectorize, autotune=False)) \
            .generate(case.program, nominal_flops=case.nominal_flops)
        _check(case, generated)

    @pytest.mark.parametrize("name,n", [("potrf", 9), ("kf", 6)])
    def test_autotuned_code_is_correct(self, name, n):
        case = make_case(name, n)
        generated = SLinGen(Options(autotune=True, max_variants=6)) \
            .generate(case.program, nominal_flops=case.nominal_flops)
        assert len(generated.candidates) > 1
        _check(case, generated)

    def test_kf_rectangular_observation(self):
        case = kf_case(10, 4)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        _check(case, generated)

    def test_vector_width_two(self):
        case = make_case("potrf", 9)
        generated = SLinGen(Options(vector_width=2, autotune=False)) \
            .generate(case.program)
        _check(case, generated)

    def test_multiple_seeds(self):
        case = make_case("gpr", 8)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        for seed in range(3):
            _check(case, generated, seed=seed)


class TestGeneratedArtifacts:
    def test_summary_and_candidates(self):
        case = make_case("potrf", 12)
        generated = SLinGen(Options(autotune=True, max_variants=5)) \
            .generate(case.program, nominal_flops=case.nominal_flops)
        summary = generated.summary()
        assert summary["flops_per_cycle"] > 0
        assert summary["candidates_evaluated"] >= 2
        assert generated.database_stats()["signatures"] >= 1 \
            if callable(generated.database_stats) \
            else generated.database_stats["signatures"] >= 1

    def test_emitted_c_contains_intrinsics_when_vectorized(self):
        case = make_case("potrf", 8)
        generated = SLinGen(Options(vectorize=True, autotune=False)) \
            .generate(case.program)
        assert "_mm256_" in generated.c_code
        assert "void potrf_8_kernel" in generated.c_code

    def test_emitted_scalar_c_has_no_intrinsics(self):
        case = make_case("potrf", 8)
        generated = SLinGen(Options(vectorize=False, autotune=False)) \
            .generate(case.program)
        assert "_mm256_" not in generated.c_code
        assert "immintrin" not in generated.c_code

    def test_basic_program_has_no_hlacs(self):
        case = make_case("kf", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        assert generated.basic_program.is_basic()

    def test_load_store_analysis_reports_forwarding(self):
        case = make_case("potrf", 12)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        assert generated.pass_report.load_store.total >= 0


@pytest.mark.skipif(not compiler_available(),
                    reason="no C compiler on this system")
class TestCompiledC:
    @pytest.mark.parametrize("name,n,vectorize", [
        ("potrf", 10, True), ("potrf", 10, False), ("kf", 6, True),
        ("l1a", 9, True), ("trtri", 8, True),
    ])
    def test_compiled_kernel_matches_reference(self, name, n, vectorize):
        case = make_case(name, n)
        generated = SLinGen(Options(vectorize=vectorize, autotune=False)) \
            .generate(case.program)
        inputs = case.make_inputs(3)
        outputs = generated.compile_and_run(inputs)
        expected = case.reference_outputs(inputs)
        for key, mode in case.checked_outputs.items():
            got, want = outputs[key], expected[key]
            if mode == "lower":
                got, want = np.tril(got), np.tril(want)
            elif mode == "upper":
                got, want = np.triu(got), np.triu(want)
            np.testing.assert_allclose(got, want, atol=1e-7)

    def test_interpreter_and_compiled_c_agree(self):
        case = make_case("gpr", 8)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        inputs = case.make_inputs(9)
        interpreted = generated.run(inputs)
        compiled = generated.compile_and_run(inputs)
        for key in case.checked_outputs:
            np.testing.assert_allclose(interpreted[key], compiled[key],
                                       atol=1e-9)


class TestRewriteRules:
    def test_rule_r1_introduces_reciprocal(self):
        program = parse_program("""
        Vec b(6) <In>;
        Sca lam <In>;
        Vec x(6) <Out>;
        x = b / lam;
        """, {})
        report = apply_rule_r1(program)
        assert report.r1_applications == 1
        assert len(program.statements) == 2
        # the packed form still computes the right thing end to end
        generated = SLinGen(Options(autotune=False)).generate(program)
        rng = np.random.default_rng(0)
        b = rng.standard_normal((6, 1))
        out = generated.run({"b": b, "lam": np.array([[4.0]])})
        np.testing.assert_allclose(out["x"], b / 4.0, atol=1e-12)
