"""The static verifier: passes, dataflow, gate wiring, CLI, witnesses."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import (gate_artifact, reset_stats, stats_snapshot,
                            verify_function, verify_program)
from repro.analysis import verifier as verifier_mod
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.defuse import (check_element_defuse,
                                   check_register_defuse, element_events)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.liveness import check_dead_registers, check_double_writes
from repro.analysis.structure import structurally_zero
from repro.analysis.witnesses import (WITNESSES, out_of_bounds_function,
                                      wrong_coefficient_program)
from repro.cir.nodes import (Affine, Assign as CAssign, BinOp, Buffer,
                             FloatConst, For, Function, Load, ScalarVar,
                             Store)
from repro.errors import AnalysisError, ConfigurationError
from repro.ir.expr import Add, Const, Div, Mul, Neg, Ref
from repro.ir.operands import IOType, Operand
from repro.ir.program import Assign, Program
from repro.ir.properties import Properties
from repro.pipeline.cache import PhaseCache
from repro.service.registry import build_case, parse_spec
from repro.slingen.generator import SLinGen
from repro.slingen.options import Options

def make_fn(body, params, temps=(), width=1, name="t"):
    return Function(name=name, params=list(params), temps=list(temps),
                    body=list(body), vector_width=width)


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_stats()
    yield
    reset_stats()


@pytest.fixture
def corrupting_pass(monkeypatch):
    """Append a C-IR pass that flags every function, simulating a
    generator bug the real passes would catch."""
    def always_fails(fn):
        return [Diagnostic("widths", "error", "injected failure", fn.name)]
    monkeypatch.setattr(
        verifier_mod, "FUNCTION_PASSES",
        verifier_mod.FUNCTION_PASSES + (("injected", always_fails),))


class TestCfgAndDataflow:
    def test_deep_block_chain_does_not_recurse(self):
        # Thousands of loops in a row nest no deeper than one: the walks
        # recurse per nesting level, not per loop.
        x = Buffer("x", 1, 1, "in")
        y = Buffer("y", 1, 1, "out")
        body = [For("i", 0, 1, 1,
                    [Store(y, Affine.constant(0),
                           Load(x, Affine.constant(0)))])
                for _ in range(2500)]
        assert check_register_defuse(make_fn(body, [x, y])) == []

    def test_register_use_before_def_is_error(self):
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([Store(y, Affine.constant(0), ScalarVar("t0"))], [y])
        diags = check_register_defuse(fn)
        assert any(d.severity == "error" and "t0" in d.message
                   for d in diags)

    def test_def_inside_zero_trip_loop_does_not_reach_use(self):
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([
            For("i", 0, 0, 1, [CAssign(ScalarVar("t0"), FloatConst(1.0))]),
            Store(y, Affine.constant(0), ScalarVar("t0")),
        ], [y])
        assert any(d.severity == "error" for d in check_register_defuse(fn))

    def test_defined_register_is_clean(self):
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([
            CAssign(ScalarVar("t0"), FloatConst(2.0)),
            Store(y, Affine.constant(0),
                  BinOp("mul", ScalarVar("t0"), ScalarVar("t0"))),
        ], [y])
        assert check_register_defuse(fn) == []

    def test_loop_read_before_body_assignment_is_error(self):
        # The first iteration reads t before anything assigned it; the
        # assignment at the end of the body only reaches later ones.
        y = Buffer("y", 4, 1, "out")
        t = ScalarVar("t")
        fn = make_fn([For("i", 0, 4, 1, [
            Store(y, Affine.var("i"), t),
            CAssign(t, FloatConst(1.0)),
        ])], [y])
        diags = check_register_defuse(fn)
        assert [(d.severity, d.message) for d in diags] == [
            ("error", "register 't' may be read before it is assigned")]

    def test_assignment_in_a_loop_that_runs_reaches_past_it(self):
        y = Buffer("y", 1, 1, "out")
        t = ScalarVar("t")
        fn = make_fn([For("i", 0, 2, 1, [CAssign(t, FloatConst(1.0))]),
                      Store(y, Affine.constant(0), t)], [y])
        assert check_register_defuse(fn) == []

    def test_value_carried_to_the_next_iteration_is_live(self):
        # t is assigned before the loop and again at the end of its body,
        # and read at the body's start: the back edge keeps both live.
        y = Buffer("y", 4, 1, "out")
        t = ScalarVar("t")
        fn = make_fn([CAssign(t, FloatConst(1.0)),
                      For("i", 0, 4, 1, [
                          Store(y, Affine.var("i"), t),
                          CAssign(t, BinOp("add", t, FloatConst(1.0))),
                      ])], [y])
        assert check_dead_registers(fn) == []
        assert check_register_defuse(fn) == []


class TestFunctionPasses:
    def test_bounds_flags_the_oob_witness(self):
        diags = [d for d in verify_function(out_of_bounds_function()).errors
                 if d.pass_name == "bounds"]
        assert len(diags) == 2
        assert any("x" in d.message for d in diags)
        assert any("y" in d.message for d in diags)

    def test_bounds_reports_a_nested_load_once(self):
        # The load sits two operators deep; each node of the value is
        # visited once, so the violation is one error, not one per
        # ancestor expression.
        from repro.analysis.bounds import check_bounds
        x = Buffer("x", 4, 1, "in")
        y = Buffer("y", 1, 1, "out")
        value = BinOp("add", BinOp("mul", Load(x, Affine.constant(9)),
                                   FloatConst(1.0)), FloatConst(2.0))
        fn = make_fn([Store(y, Affine.constant(0), value)], [x, y])
        errors = [d.message for d in check_bounds(fn)
                  if d.severity == "error"]
        assert len(errors) == 1 and errors[0].startswith("load x[9]"), errors

    def test_overflow_on_a_large_grid_is_an_error_at_a_corner(self):
        # 100 x 100 = 10000 index points; the interval is exact, so the
        # overflow is an error naming the corner that reaches it.
        from repro.analysis.bounds import check_bounds
        x = Buffer("x", 100, 100, "in")
        y = Buffer("y", 1, 1, "out")
        index = Affine.var("i", 101) + Affine.var("j")
        fn = make_fn([For("i", 0, 100, 1, [For("j", 0, 100, 1, [
            Store(y, Affine.constant(0), Load(x, index))])])], [x, y])
        diags = check_bounds(fn)
        assert [d.severity for d in diags] == ["error"]
        assert diags[0].message.endswith(
            "out of bounds at {i=99, j=99} -> index 10098"), diags[0].message

    def test_in_bounds_version_is_clean(self):
        x = Buffer("x", 4, 1, "in")
        y = Buffer("y", 4, 1, "out")
        fn = make_fn([For("i", 0, 4, 1,
                          [Store(y, Affine.var("i"),
                                 Load(x, Affine.var("i")))])], [x, y])
        assert verify_function(fn).ok

    def test_invalid_vector_width_is_error(self):
        fn = make_fn([], [Buffer("y", 1, 1, "out")], width=3)
        assert any(d.pass_name == "widths"
                   for d in verify_function(fn).errors)

    def test_stale_implicit_zero_read_warns(self):
        # t[0] is read, then written: the read observed the implicit
        # zero instead of the value that later defines it.
        t = Buffer("t", 1, 1, "temp")
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([
            Store(y, Affine.constant(0), Load(t, Affine.constant(0))),
            Store(t, Affine.constant(0), FloatConst(1.0)),
        ], [y], temps=[t])
        diags = check_element_defuse(fn)
        assert any(d.severity == "warn" for d in diags)
        assert not any(d.severity == "error" for d in diags)

    def test_never_written_temp_read_is_silent(self):
        # Reading a temp that nothing ever writes is the designed
        # implicit-zero idiom -- must not warn.
        t = Buffer("t", 1, 1, "temp")
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([Store(y, Affine.constant(0),
                            Load(t, Affine.constant(0)))],
                     [y], temps=[t])
        assert check_element_defuse(fn) == []

    def test_double_write_warns_once_per_pair(self):
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([
            Store(y, Affine.constant(0), FloatConst(1.0)),
            Store(y, Affine.constant(0), FloatConst(2.0)),
        ], [y])
        diags = check_double_writes(fn)
        assert len(diags) == 1 and diags[0].severity == "warn"

    def test_dead_register_store_warns(self):
        y = Buffer("y", 1, 1, "out")
        fn = make_fn([
            CAssign(ScalarVar("dead"), FloatConst(1.0)),
            Store(y, Affine.constant(0), FloatConst(0.0)),
        ], [y])
        assert any(d.severity == "warn" and "dead" in d.message
                   for d in check_dead_registers(fn))

    def test_truncated_walk_is_reported_and_silent(self):
        x = Buffer("x", 4, 1, "in")
        y = Buffer("y", 4, 1, "out")
        fn = make_fn([For("i", 0, 4, 1,
                          [Store(y, Affine.var("i"),
                                 Load(x, Affine.var("i")))])], [x, y])
        stream, status = element_events(fn, limit=3)
        list(stream)
        assert not status.complete
        # The full-default-limit passes still see this tiny function.
        assert check_element_defuse(fn) == []

    def test_walk_restricted_to_buffers_skips_loops_without_them(self):
        x = Buffer("x", 4, 1, "in")
        y = Buffer("y", 4, 1, "out")
        t = Buffer("t", 1, 1, "temp")
        fn = make_fn([For("i", 0, 4, 1,
                          [Store(y, Affine.var("i"),
                                 Load(x, Affine.var("i")))]),
                      Store(t, Affine.constant(0), Load(x, Affine.constant(0))),
                      Store(y, Affine.constant(0), Load(t, Affine.constant(0)))],
                     [x, y], temps=[t])
        stream, status = element_events(fn, limit=2, only={"t"})
        assert [(kind, name, at) for kind, name, at, _ in stream] == [
            ("write", "t", 0), ("read", "t", 0)]
        assert status.complete


def _classify_temps_by_full_walk(fn):
    """``classify_temps`` as the unrestricted element walk computes it."""
    temps = {buf.name for buf in fn.temps}
    stream, status = element_events(fn)
    written = {name: set() for name in temps}
    zeroed, read = set(), set()
    for kind, name, at, _stmt in stream:
        if name not in temps:
            continue
        if kind == "write":
            written[name].add(at)
        else:
            read.add(name)
            if at not in written[name]:
                zeroed.add(name)
    if not status.complete:
        return temps, set()
    return zeroed, temps - read


@pytest.mark.parametrize("size", [4, 8])
def test_classify_temps_matches_the_full_walk_on_the_registry(size):
    from repro.analysis.defuse import classify_temps
    from repro.service.registry import make_request, workload_names
    for name in workload_names():
        request = make_request(f"{name}:{size}")
        fn = SLinGen(request.options, phase_cache=PhaseCache()
                     ).generate_result(request.program).function
        assert classify_temps(fn) == _classify_temps_by_full_walk(fn), name


class TestStructurePasses:
    def test_structurally_zero_predicate(self):
        t = Program(name="p").declare(Operand(
            "T", 3, 3, IOType.IN, Properties.upper_triangular()))
        zero_ref = Ref(t.element(2, 0))       # below the diagonal
        live_ref = Ref(t.element(0, 2))
        assert structurally_zero(zero_ref)
        assert not structurally_zero(live_ref)
        assert structurally_zero(Const(0.0))
        assert structurally_zero(Mul(live_ref, zero_ref))
        assert structurally_zero(Neg(zero_ref))
        assert structurally_zero(Add(zero_ref, Const(0.0)))
        assert not structurally_zero(Add(zero_ref, live_ref))
        assert structurally_zero(Div(zero_ref, live_ref))
        assert not structurally_zero(Div(live_ref, zero_ref))

    def test_wrong_coefficient_witness_is_degenerate(self):
        report = verify_program(wrong_coefficient_program())
        assert not report.ok
        degenerate = [d for d in report.errors
                      if "structurally-zero expression" in d.message]
        assert len(degenerate) == 3     # every off-diagonal assignment
        assert any(d.severity == "warn" for d in report.warnings)

    def test_structural_division_by_zero_is_error(self):
        program = Program(name="divzero")
        t = program.declare(Operand("T", 2, 2, IOType.IN,
                                    Properties.upper_triangular()))
        y = program.declare(Operand("y", 2, 2, IOType.OUT, Properties()))
        program.add(Assign(y.element(0, 0),
                           Div(Ref(t.element(0, 1)), Ref(t.element(1, 0)))))
        report = verify_program(program)
        assert any("denominator" in d.message for d in report.errors)

    def test_clean_program_verifies(self):
        program = Program(name="clean")
        a = program.declare(Operand("A", 2, 2, IOType.IN, Properties()))
        y = program.declare(Operand("y", 2, 2, IOType.OUT, Properties()))
        for i in range(2):
            for j in range(2):
                program.add(Assign(y.element(i, j),
                                   Mul(Ref(a.element(i, j)), Const(2.0))))
        assert verify_program(program).ok


class TestGate:
    def test_invalid_mode_rejected_by_options(self):
        with pytest.raises(ConfigurationError):
            Options(analysis="loud").validate()

    def test_gate_artifact_strict_raises_and_counts(self):
        with pytest.raises(AnalysisError) as err:
            gate_artifact("stage1", wrong_coefficient_program(), "strict")
        assert "structurally-zero" in str(err.value)
        assert stats_snapshot()["strict_failures"] == 1
        assert stats_snapshot()["errors"] >= 3

    def test_gate_artifact_warn_counts_without_raising(self):
        gate_artifact("stage1", wrong_coefficient_program(), "warn")
        snap = stats_snapshot()
        assert snap["programs_checked"] == 1
        assert snap["errors"] >= 3 and snap["strict_failures"] == 0

    def test_strict_generation_passes_on_clean_kernel(self):
        case = build_case(parse_spec("potrf:4"))
        options = Options(autotune=False, analysis="strict")
        result = SLinGen(options,
                         phase_cache=PhaseCache()).generate_result(
            case.program)
        assert result.c_code
        snap = stats_snapshot()
        assert snap["functions_checked"] > 0 and snap["errors"] == 0

    def test_strict_blocks_bad_artifact_from_phase_cache(
            self, corrupting_pass):
        case = build_case(parse_spec("potrf:4"))
        cache = PhaseCache()
        with pytest.raises(AnalysisError):
            SLinGen(Options(autotune=False, analysis="strict"),
                    phase_cache=cache).generate_result(case.program)
        entries = cache.stats()["entries"]
        # The program-level phases pass; the first gated C-IR artifact
        # (lower) fails before cache.put, so nothing downstream lands.
        assert entries["lower"] == 0 and entries["optimize"] == 0
        assert stats_snapshot()["strict_failures"] >= 1

    def test_warn_mode_lets_bad_artifact_through_but_counts(
            self, corrupting_pass):
        case = build_case(parse_spec("potrf:4"))
        result = SLinGen(Options(autotune=False, analysis="warn"),
                         phase_cache=PhaseCache()).generate_result(
            case.program)
        assert result.c_code
        snap = stats_snapshot()
        assert snap["errors"] > 0 and snap["strict_failures"] == 0

    def test_gate_axis_feeds_no_keys(self):
        from repro.pipeline.keys import GATE_AXES, partition
        from repro.service.keys import cache_key, canonical_options
        assert partition()["gate"] == ("analysis",)
        case = build_case(parse_spec("potrf:4"))
        off = Options(autotune=False)
        strict = Options(autotune=False, analysis="strict")
        assert "analysis" not in canonical_options(off)
        assert cache_key(case.program, off) == cache_key(case.program,
                                                        strict)
        assert GATE_AXES == ("analysis",)


class TestServiceGate:
    def test_strict_service_blocks_kernel_store(self, corrupting_pass):
        from repro.service import KernelService, make_request
        from repro.service.store import MemoryKernelStore
        from repro.pipeline.cache import reset_shared_phase_cache
        reset_shared_phase_cache()
        store = MemoryKernelStore()
        service = KernelService(store=store, analysis="strict")
        with pytest.raises(AnalysisError):
            service.generate(make_request(
                "potrf:4", options=Options(autotune=False)))
        assert store.stats()["entries"] == 0       # nothing was served
        assert service.stats.snapshot()["analysis"]["strict_failures"] >= 1

    def test_strict_service_serves_clean_kernel_with_stats(self):
        from repro.service import KernelService, make_request
        from repro.service.store import MemoryKernelStore
        from repro.pipeline.cache import reset_shared_phase_cache
        reset_shared_phase_cache()
        service = KernelService(store=MemoryKernelStore(),
                                analysis="strict")
        response = service.generate(make_request(
            "potrf:4", options=Options(autotune=False)))
        assert response.result.c_code
        snap = service.stats.snapshot()
        assert snap["analysis"]["functions_checked"] > 0
        assert snap["analysis"]["strict_failures"] == 0

    def test_invalid_service_mode_rejected(self):
        from repro.service import KernelService
        from repro.service.store import MemoryKernelStore
        with pytest.raises(ConfigurationError):
            KernelService(store=MemoryKernelStore(), analysis="loud")


class TestOracleIntegration:
    def test_cegis_verifier_refutes_statically(self, corrupting_pass):
        from repro.cegis.verifier import find_counterexample
        case = build_case(parse_spec("potrf:4"))
        counterexample = find_counterexample(
            case.program, case.program, Options(autotune=False),
            budget=1, backends="numpy", phase_cache=PhaseCache())
        assert counterexample is not None
        assert counterexample.stage == "analysis"
        assert counterexample.error_type == "AnalysisError"
        assert "static refutation" in counterexample.describe()

    def test_fuzz_oracle_classifies_analysis_crash(self, corrupting_pass):
        from repro.fuzz.generate import sample_case
        from repro.fuzz.oracle import run_case
        result = run_case(sample_case(0), backends="numpy",
                          phase_cache=PhaseCache())
        assert result.status == "crash"
        assert result.stage == "analysis"
        assert result.error_type == "AnalysisError"


class TestCli:
    def test_check_registry_spec_exits_zero(self, capsys):
        assert analysis_main(["check", "potrf:4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1 and doc["ok"]
        assert doc["counts"]["errors"] == 0
        assert doc["targets"][0]["kind"] == "registry"

    def test_check_witnesses_exit_one(self, capsys):
        targets = ["witness:trtri_transposed_wrong_coeff",
                   "witness:oob_function"]
        assert analysis_main(["check", *targets, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"]
        assert doc["counts"]["errors"] >= 5
        assert all(t["kind"] == "witness" and not t["ok"]
                   for t in doc["targets"])

    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_each_witness_target_is_flagged(self, name, capsys):
        assert analysis_main(["check", f"witness:{name}", "--json"]) == 1
        (target,) = json.loads(capsys.readouterr().out)["targets"]
        assert target["label"] == f"witness:{name}"
        assert target["kind"] == "witness" and target["errors"]

    def test_unknown_witness_is_usage_error(self, capsys):
        assert analysis_main(["check", "witness:nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "nosuch" in err

    def test_lint_shows_warnings_but_exit_tracks_errors(self, capsys):
        assert analysis_main(["lint", "potrf:4"]) == 0
        out = capsys.readouterr().out
        assert "static analysis clean" in out

    def test_corpus_entry_target(self, capsys):
        corpus = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
        entries = sorted(name for name in os.listdir(corpus)
                         if name.endswith(".json"))
        assert analysis_main(
            ["check", os.path.join(corpus, entries[0]), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["targets"][0]["kind"] == "corpus"

    def test_bad_const_is_usage_error(self, capsys):
        assert analysis_main(["check", "x.la", "--const", "oops"]) == 2
        assert "error:" in capsys.readouterr().err
