"""Tests for the machine model (instruction mix, roofline) and the figure
series built on it."""

import numpy as np
import pytest

from repro.applications import make_case
from repro.backend import unparse_function
from repro.bench import hlac_sizes, run_series
from repro.machine import SANDY_BRIDGE, instruction_mix
from repro.slingen import Options, SLinGen
from repro.cir import (Affine, Assign, BinOp, Buffer, FloatConst, For,
                       Function, If, Load, ScalarVar, Store, UnOp, VBinOp,
                       VecVar, VLoad, VStore)


class TestInstructionMix:
    def test_loop_weighting_is_exact(self):
        a = Buffer("a", 1, 16, "in")
        out = Buffer("out", 1, 16, "out")
        v = VecVar("v")
        body = [For("i", 0, 16, 4,
                    [Assign(v, VBinOp("mul", VLoad(a, Affine.var("i")),
                                      VLoad(a, Affine.var("i")))),
                     VStore(out, Affine.var("i"), v)])]
        func = Function("k", [a, out], [], body, vector_width=4)
        mix = instruction_mix(func)
        assert mix.vector_mul == 4
        assert mix.vector_loads == 8
        assert mix.vector_stores == 4
        assert mix.flops == 4 * 4

    def test_peak_performance_of_machine(self):
        assert SANDY_BRIDGE.peak_flops_per_cycle == 8


def _mix_of(body):
    """Instruction mix of a hand-built function body."""
    return instruction_mix(Function("k", [], [], body, vector_width=4))


_L = Buffer("L", 4, 4, "inout")
_O = Buffer("O", 4, 4, "out")
_X, _Y, _Z = ScalarVar("x"), ScalarVar("y"), ScalarVar("z")
_RECIP = BinOp("div", FloatConst(1.0), _X)


class TestDivisionsChargedOnce:
    """A repeated division or square root is charged once per straight-line
    block while nothing it reads has changed, as the compiler computes it."""

    def test_repeat_on_the_same_register_is_free(self):
        mix = _mix_of([Assign(_Y, _RECIP), Assign(_Z, _RECIP),
                       Store(_O, Affine.constant(0), _RECIP)])
        assert mix.scalar_div == 1

    def test_reassigned_register_charges_again(self):
        mix = _mix_of([Assign(_Y, _RECIP), Assign(_Z, _RECIP),
                       Assign(_X, BinOp("add", _X, _Y)),
                       Assign(_Z, _RECIP)])
        assert mix.scalar_div == 2
        # the division that overwrites its own input is not reused either
        mix = _mix_of([Assign(_X, _RECIP), Assign(_Y, _RECIP)])
        assert mix.scalar_div == 2

    @pytest.mark.parametrize("stored, expected", [(_L, 2), (_O, 1)],
                             ids=["store-to-L", "store-elsewhere"])
    def test_store_to_a_loaded_buffer_charges_again(self, stored, expected):
        recip = BinOp("div", FloatConst(1.0), Load(_L, Affine.constant(0)))
        mix = _mix_of([Assign(_Y, recip), Assign(_Z, recip),
                       Store(stored, Affine.constant(5), _Y),
                       Assign(_Z, recip)])
        assert mix.scalar_div == expected
        assert mix.scalar_loads == 3  # loads are still charged per occurrence

    def test_loop_and_branch_bodies_are_blocks_of_their_own(self):
        mix = _mix_of([Assign(_Y, _RECIP),
                       For("i", 0, 8, 2, [Assign(_Z, _RECIP),
                                          Assign(_Y, _RECIP)]),
                       Assign(_Z, _RECIP)])
        assert mix.scalar_div == 1 + 4 + 1
        mix = _mix_of([If(Affine.constant(0), "<", Affine.constant(1),
                          [Assign(_Y, _RECIP), Assign(_Z, _RECIP)],
                          [Assign(_Z, _RECIP)])])
        assert mix.scalar_div == 0.5 + 0.5

    def test_sqrt_and_vector_division_follow_the_same_rule(self):
        root = UnOp("sqrt", _X)
        mix = _mix_of([Assign(_Y, root), Assign(_Z, root),
                       Assign(_X, _Y), Assign(_Z, root)])
        assert mix.scalar_sqrt == 2
        v, w = VecVar("v"), VecVar("w")
        quotient = VBinOp("div", VLoad(_L, Affine.constant(0)), v)
        mix = _mix_of([Assign(w, quotient), Assign(w, quotient),
                       VStore(_O, Affine.constant(0), quotient),
                       Assign(v, w), Assign(w, quotient)])
        assert mix.vector_div == 2

    @pytest.mark.parametrize("size", [4, 8])
    def test_trtri_no_longer_selects_block_size_two(self, size):
        case = make_case("trtri", size)
        result = SLinGen(Options()).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        assert "-b2" not in result.variant_label
        assert instruction_mix(result.function).scalar_div == size


class TestRoofline:
    def test_division_bound_at_small_sizes(self):
        case = make_case("potrf", 4)
        generated = SLinGen(Options(autotune=False)).generate(
            case.program, nominal_flops=case.nominal_flops)
        assert generated.performance.bottleneck == "divs/sqrt"

    def test_not_division_bound_at_larger_sizes(self):
        case = make_case("potrf", 64)
        generated = SLinGen(Options(autotune=False)).generate(
            case.program, nominal_flops=case.nominal_flops)
        assert generated.performance.bottleneck != "divs/sqrt"
        assert 0.5 < generated.performance.flops_per_cycle <= 8.0

    def test_shuffle_blend_rate_and_limits(self):
        case = make_case("trtri", 20)
        generated = SLinGen(Options(autotune=False)).generate(
            case.program, nominal_flops=case.nominal_flops)
        perf = generated.performance
        assert 0.0 <= perf.shuffle_blend_issue_rate < 1.0
        assert 0.0 < perf.perf_limit_shuffles <= 8.0
        assert 0.0 < perf.perf_limit_blends <= 8.0


class TestSeriesHarness:
    def test_series_shape_matches_paper(self):
        series = run_series("potrf", [8, 24],
                            options=Options(autotune=False,
                                            annotate_code=False),
                            validate=True)
        assert [p.size for p in series.points] == [8, 24]
        for point in series.points:
            assert point.correct is True
            assert 0 < point.flops_per_cycle \
                <= SANDY_BRIDGE.peak_flops_per_cycle
        header = series.format_table().splitlines()[1].split(None, 1)
        assert header == ["n", "slingen (model)"]

    def test_default_size_grids(self):
        assert all(size <= 124 for size in hlac_sizes())
        assert len(hlac_sizes()) >= 3
