"""Tests for the C-IR: affine expressions, interpreter semantics, passes."""

import dataclasses

import numpy as np
import pytest

from repro.cir import (Affine, Assign, BinOp, Buffer, Comment, FloatConst,
                       For, Function, If, Load, ScalarVar, Store,
                       UnOp, VBinOp, VBlend, VBroadcast, VecVar, VExtract,
                       VLoad, VPermute2f128, VReduceAdd, VSet, VStore, VUnpack,
                       VZero, run_function)
from repro.cir.passes import (PassOptions, eliminate_dead_code,
                              eliminate_redundant_loads,
                              forward_stores_to_loads, run_pipeline, simplify,
                              unroll_loops)
from repro.cir.transform import map_expression, transform_block
from repro.errors import CIRError, InterpreterError


class TestAffine:
    def test_algebra(self):
        expr = Affine.var("i") * 3 + 2 + Affine.var("j")
        assert expr.evaluate({"i": 4, "j": 5}) == 19
        assert (expr - Affine.var("j")).evaluate({"i": 1}) == 5

    def test_substitution_partial(self):
        expr = Affine.var("i") + Affine.var("j", 2)
        partial = expr.substitute({"i": 3})
        assert partial.evaluate({"j": 1}) == 5

    def test_constant_detection(self):
        assert Affine.constant(7).is_constant
        assert Affine.constant(7).value() == 7
        with pytest.raises(CIRError):
            Affine.var("i").value()

    def test_zero_coefficients_dropped(self):
        expr = Affine.var("i") - Affine.var("i")
        assert expr.is_constant

    def test_str_rendering(self):
        assert str(Affine.var("i", 2) + 3) == "2*i + 3"


def _make_function(body, params, temps=(), width=4):
    return Function("test_kernel", params=list(params), temps=list(temps),
                    body=body, vector_width=width)


class TestInterpreter:
    def test_scalar_loop_sums(self):
        a = Buffer("a", 1, 8, "in")
        out = Buffer("out", 1, 1, "out")
        acc = ScalarVar("acc")
        body = [
            Assign(acc, FloatConst(0.0)),
            For("i", 0, 8, 1,
                [Assign(acc, BinOp("add", acc, Load(a, Affine.var("i"))))]),
            Store(out, Affine.constant(0), acc),
        ]
        func = _make_function(body, [a, out], width=1)
        data = np.arange(8.0).reshape(1, 8)
        result = run_function(func, {"a": data})
        assert result["out"][0, 0] == pytest.approx(data.sum())

    def test_vector_ops_match_numpy(self):
        a = Buffer("a", 1, 4, "in")
        b = Buffer("b", 1, 4, "in")
        out = Buffer("out", 1, 4, "out")
        va, vb = VecVar("va"), VecVar("vb")
        body = [
            Assign(va, VLoad(a, Affine.constant(0))),
            Assign(vb, VLoad(b, Affine.constant(0))),
            VStore(out, Affine.constant(0),
                   VBinOp("add", VBinOp("mul", va, vb), va)),
        ]
        func = _make_function(body, [a, b, out])
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        y = np.array([[5.0, 6.0, 7.0, 8.0]])
        result = run_function(func, {"a": x, "b": y})
        np.testing.assert_allclose(result["out"], x * y + x)

    def test_masked_load_and_store(self):
        a = Buffer("a", 1, 4, "in")
        out = Buffer("out", 1, 4, "out")
        mask = (True, True, False, False)
        body = [VStore(out, Affine.constant(0),
                       VLoad(a, Affine.constant(0), 4, mask), 4, mask)]
        func = _make_function(body, [a, out])
        result = run_function(func, {"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[1.0, 2.0, 0.0, 0.0]])

    @pytest.mark.parametrize("imm", [0x0, 0x3, 0x5, 0xF])
    def test_blend_semantics(self, imm):
        a = Buffer("a", 1, 4, "in")
        b = Buffer("b", 1, 4, "in")
        out = Buffer("out", 1, 4, "out")
        body = [VStore(out, Affine.constant(0),
                       VBlend(VLoad(a, Affine.constant(0)),
                              VLoad(b, Affine.constant(0)), imm))]
        func = _make_function(body, [a, b, out])
        x = np.array([[0.0, 1.0, 2.0, 3.0]])
        y = np.array([[10.0, 11.0, 12.0, 13.0]])
        result = run_function(func, {"a": x, "b": y})
        expected = np.where([(imm >> lane) & 1 for lane in range(4)], y, x)
        np.testing.assert_allclose(result["out"], expected.reshape(1, 4))

    def test_transpose_shuffle_sequence(self):
        # unpacklo/hi + permute2f128 implement a 4x4 transpose; check one
        # output row against numpy.
        a = Buffer("a", 4, 4, "in")
        out = Buffer("out", 1, 4, "out")
        rows = [VecVar(f"r{i}") for i in range(4)]
        body = [Assign(rows[i], VLoad(a, Affine.constant(4 * i)))
                for i in range(4)]
        lo01 = VecVar("lo01")
        lo23 = VecVar("lo23")
        body += [Assign(lo01, VUnpack(rows[0], rows[1], high=False)),
                 Assign(lo23, VUnpack(rows[2], rows[3], high=False)),
                 VStore(out, Affine.constant(0),
                        VPermute2f128(lo01, lo23, 0x20))]
        func = _make_function(body, [a, out])
        data = np.arange(16.0).reshape(4, 4)
        result = run_function(func, {"a": data})
        np.testing.assert_allclose(result["out"].ravel(), data.T[0])

    def test_out_of_bounds_access_raises(self):
        a = Buffer("a", 1, 4, "in")
        out = Buffer("out", 1, 1, "out")
        body = [Store(out, Affine.constant(0), Load(a, Affine.constant(9)))]
        func = _make_function(body, [a, out], width=1)
        with pytest.raises(InterpreterError):
            run_function(func, {"a": np.zeros((1, 4))})

    def test_missing_input_raises(self):
        a = Buffer("a", 1, 4, "in")
        func = _make_function([], [a], width=1)
        with pytest.raises(InterpreterError):
            run_function(func, {})

    def test_sqrt_of_negative_is_nan(self):
        # C's sqrt() returns NaN for negative arguments; the interpreter
        # must match the compiled backend instead of raising.
        a = Buffer("a", 1, 1, "in")
        out = Buffer("out", 1, 1, "out")
        body = [Store(out, Affine.constant(0),
                      UnOp("sqrt", Load(a, Affine.constant(0))))]
        func = _make_function(body, [a, out], width=1)
        result = run_function(func, {"a": np.array([[-1.0]])})
        assert np.isnan(result["out"][0, 0])


class TestPasses:
    def _sum_kernel(self):
        a = Buffer("a", 1, 8, "in")
        out = Buffer("out", 1, 1, "out")
        acc = ScalarVar("acc")
        dead = ScalarVar("dead")
        body = [
            Assign(acc, FloatConst(0.0)),
            Assign(dead, FloatConst(42.0)),
            For("i", 0, 8, 1,
                [Assign(acc, BinOp("add", acc, Load(a, Affine.var("i"))))]),
            Store(out, Affine.constant(0), acc),
        ]
        return _make_function(body, [a, out], width=1), a, out

    def test_unroll_preserves_semantics(self):
        func, a, out = self._sum_kernel()
        data = np.arange(8.0).reshape(1, 8)
        before = run_function(func, {"a": data})
        func.body = unroll_loops(func.body, max_trip_count=8,
                                 max_body_statements=64)
        assert not any(isinstance(s, For) for s in func.body)
        after = run_function(func, {"a": data})
        np.testing.assert_allclose(before["out"], after["out"])

    def test_dce_removes_dead_assignment(self):
        func, *_ = self._sum_kernel()
        func.body = eliminate_dead_code(func.body)
        names = [s.dest.name for s in func.body if isinstance(s, Assign)]
        assert "dead" not in names
        assert "acc" in names

    def test_redundant_load_elimination(self):
        a = Buffer("a", 1, 4, "in")
        out = Buffer("out", 1, 2, "out")
        load = Load(a, Affine.constant(1))
        body = [Store(out, Affine.constant(0), BinOp("mul", load, load)),
                Store(out, Affine.constant(1), load)]
        func = _make_function(body, [a, out], width=1)
        data = np.array([[3.0, 5.0, 7.0, 9.0]])
        before = run_function(func, {"a": data})
        func.body = eliminate_redundant_loads(func.body)
        loads = [e for s in func.body
                 for e in __import__("repro.cir.nodes", fromlist=["x"])
                 .walk_expressions(s) if isinstance(e, Load)]
        assert len(loads) == 1
        after = run_function(func, {"a": data})
        np.testing.assert_allclose(before["out"], after["out"])

    def test_store_load_forwarding_full_register(self):
        buf = Buffer("t", 1, 4, "temp")
        out = Buffer("out", 1, 4, "out")
        v = VecVar("v")
        body = [Assign(v, VBroadcast(FloatConst(2.0))),
                VStore(buf, Affine.constant(0), v),
                VStore(out, Affine.constant(0),
                       VBinOp("add", VLoad(buf, Affine.constant(0)),
                              VZero()))]
        func = _make_function(body, [out], temps=[buf])
        rewritten, stats = forward_stores_to_loads(func.body)
        assert stats.forwarded_full == 1
        func.body = rewritten
        result = run_function(func, {})
        np.testing.assert_allclose(result["out"], [[2.0] * 4])

    def test_store_load_forwarding_blend(self):
        buf = Buffer("t", 1, 4, "temp")
        out = Buffer("out", 1, 4, "out")
        v1, v2 = VecVar("v1"), VecVar("v2")
        body = [
            Assign(v1, VBroadcast(FloatConst(1.0))),
            Assign(v2, VBroadcast(FloatConst(9.0))),
            VStore(buf, Affine.constant(0), v1, 4, (True, True, False, False)),
            VStore(buf, Affine.constant(0), v2, 4, (False, False, True, True)),
            VStore(out, Affine.constant(0), VLoad(buf, Affine.constant(0))),
        ]
        func = _make_function(body, [out], temps=[buf])
        rewritten, stats = forward_stores_to_loads(func.body)
        assert stats.forwarded_blend == 1
        func.body = rewritten
        result = run_function(func, {})
        np.testing.assert_allclose(result["out"], [[1.0, 1.0, 9.0, 9.0]])

    def test_simplify_removes_identities(self):
        out = Buffer("out", 1, 1, "out")
        body = [Store(out, Affine.constant(0),
                      BinOp("add", BinOp("mul", FloatConst(1.0),
                                         FloatConst(5.0)),
                            FloatConst(0.0)))]
        simplified = simplify(body)
        assert isinstance(simplified[0].value, FloatConst)
        assert simplified[0].value.value == 5.0

    def test_full_pipeline_preserves_semantics(self):
        func, a, out = self._sum_kernel()
        data = np.arange(8.0).reshape(1, 8)
        before = run_function(func, {"a": data})
        report = run_pipeline(func, PassOptions())
        after = run_function(func, {"a": data})
        np.testing.assert_allclose(before["out"], after["out"])
        assert report.statements_before > 0


class TestImmutableSharing:
    """C-IR is shared between pipeline phases instead of copied, so no
    statement may be rebound and transforms keep unchanged nodes."""

    @staticmethod
    def _statements():
        buf = Buffer("A", 4, 4, "inout")
        return [
            Assign(ScalarVar("s"), FloatConst(1.0)),
            Store(buf, Affine.constant(0), ScalarVar("s")),
            VStore(buf, Affine.constant(0), VecVar("v"),
                   mask=(True, False, False, False)),
            For("i", 0, 4, 1, [Assign(ScalarVar("t"), FloatConst(0.0))]),
            If(Affine.var("i"), "<", Affine.constant(2),
               [Comment("then")], [Comment("else")]),
            Comment("note"),
        ]

    def test_rebinding_any_statement_field_raises(self):
        statements = self._statements()
        assert {type(s).__name__ for s in statements} == {
            "Assign", "Store", "VStore", "For", "If", "Comment"}
        for stmt in statements:
            for field in dataclasses.fields(stmt):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(stmt, field.name, getattr(stmt, field.name))

    def test_identity_map_returns_the_same_tree(self):
        buf = Buffer("A", 4, 4, "in")
        v = VLoad(buf, Affine.constant(0))
        expr = VBinOp(
            "mul", VBlend(v, VBroadcast(Load(buf, Affine.var("i"))), 0b0101),
            VBinOp("add", VPermute2f128(v, VUnpack(v, VZero(), True), 0x21),
                   VSet((VExtract(v, 1), VReduceAdd(v), FloatConst(2.0),
                         UnOp("sqrt", BinOp("mul", ScalarVar("x"),
                                            FloatConst(3.0)))))))
        assert map_expression(expr, lambda node: node) is expr

    def test_transform_shares_unchanged_statements(self):
        buf = Buffer("A", 4, 4, "inout")
        fixed = Store(buf, Affine.constant(1), FloatConst(1.0))
        moving = Store(buf, Affine.var("i"), FloatConst(2.0))
        out = transform_block([fixed, moving], index_subst={"i": 3})
        assert out[0] is fixed
        assert out[1] == Store(buf, Affine.constant(3), FloatConst(2.0))
