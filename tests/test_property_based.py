"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications import make_case
from repro.cir import Affine, run_function
from repro.cir.passes import PassOptions, run_pipeline
from repro.ir import IOType, Matrix, Mul, Program, Assign, Transpose, ref
from repro.lgen import LoweringOptions, lower_program
from repro.slingen import Options, SLinGen


class TestAffineProperties:
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-10, 10),
           st.integers(-10, 10))
    def test_affine_evaluation_is_linear(self, ci, cj, i, j):
        expr = Affine.var("i", ci) + Affine.var("j", cj)
        assert expr.evaluate({"i": i, "j": j}) == ci * i + cj * j

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-5, 5))
    def test_scaling_distributes(self, const, coef, factor):
        expr = Affine.var("i", coef) + const
        scaled = expr * factor
        assert scaled.evaluate({"i": 3}) == factor * expr.evaluate({"i": 3})

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_substitution_matches_evaluation(self, a, b):
        expr = Affine.var("i") * 2 + Affine.var("j") * 3 + 1
        assert expr.substitute({"i": a, "j": b}).value() == \
            expr.evaluate({"i": a, "j": b})


class TestLoweringInvariants:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10_000),
           width=st.sampled_from([1, 2, 4]))
    def test_pass_pipeline_preserves_results(self, n, seed, width):
        """Invariant: Stage-3 passes never change computed values."""
        prog = Program("prop")
        A = prog.declare(Matrix("A", n, n, IOType.IN))
        B = prog.declare(Matrix("B", n, n, IOType.IN))
        C = prog.declare(Matrix("C", n, n, IOType.OUT))
        prog.add(Assign(C.full_view(),
                        Mul(ref(A), Transpose(ref(B))) + ref(A)))
        prog.validate()
        rng = np.random.default_rng(seed)
        inputs = {"A": rng.standard_normal((n, n)),
                  "B": rng.standard_normal((n, n))}
        function = lower_program(prog, LoweringOptions(vector_width=width))
        before = run_function(function, inputs)
        run_pipeline(function, PassOptions())
        after = run_function(function, inputs)
        np.testing.assert_allclose(before["C"], after["C"], atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 10_000))
    def test_cholesky_factor_reconstructs_input(self, n, seed):
        """Invariant: U^T U = S for the generated Cholesky at any size."""
        case = make_case("potrf", n)
        generated = SLinGen(Options(autotune=False, annotate_code=False)) \
            .generate(case.program)
        inputs = case.make_inputs(seed)
        U = np.triu(generated.run(inputs)["U"])
        np.testing.assert_allclose(U.T @ U, inputs["S"], atol=1e-7)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 9), seed=st.integers(0, 10_000))
    def test_trtri_inverse_property(self, n, seed):
        """Invariant: L * X = I for the generated triangular inverse."""
        case = make_case("trtri", n)
        generated = SLinGen(Options(autotune=False, annotate_code=False)) \
            .generate(case.program)
        inputs = case.make_inputs(seed)
        X = np.tril(generated.run(inputs)["X"])
        np.testing.assert_allclose(inputs["L"] @ X, np.eye(n), atol=1e-7)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_lyapunov_residual_and_symmetry(self, n, seed):
        """Invariant: the trlya solution satisfies its equation and is
        symmetric."""
        case = make_case("trlya", n)
        generated = SLinGen(Options(autotune=False, annotate_code=False)) \
            .generate(case.program)
        inputs = case.make_inputs(seed)
        X = generated.run(inputs)["X"]
        L, S = inputs["L"], inputs["S"]
        np.testing.assert_allclose(L @ X + X @ L.T, S, atol=1e-6)
        np.testing.assert_allclose(X, X.T, atol=1e-8)
