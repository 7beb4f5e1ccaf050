"""Tests of the differential fuzzing subsystem (repro.fuzz)."""

import json

import numpy as np
import pytest

from repro.backend.__main__ import main as backend_main
from repro.cir.builder import sanitize_identifier
from repro.errors import FuzzError
from repro.fuzz import (FuzzCase, FuzzDecl, FuzzProgram, load_corpus,
                        load_entry, make_inputs, options_from_json,
                        options_to_json, reference_outputs, replay_entry,
                        run_case, sample_case, save_entry, shrink_case)
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.oracle import _mismatch_mask, max_deviation
from repro.slingen.options import Options


def _case(source_statements, decls, dims, options=None, input_seed=7):
    program = FuzzProgram(name="handmade", dims=dims, decls=decls,
                          statements=source_statements)
    return FuzzCase(program=program, options=options or Options(),
                    input_seed=input_seed)


class TestSpec:
    def test_case_json_round_trip(self):
        case = sample_case(3)
        clone = FuzzCase.loads(case.dumps())
        assert clone.to_json() == case.to_json()
        assert clone.program.source() == case.program.source()

    def test_options_round_trip_keeps_only_non_defaults(self):
        options = Options(vectorize=False, block_size=3,
                          stage1_variants={2: "variant2"})
        doc = options_to_json(options)
        assert set(doc) == {"vectorize", "block_size", "stage1_variants"}
        restored = options_from_json(json.loads(json.dumps(doc)))
        assert restored == options
        assert restored.stage1_variants == {2: "variant2"}

    def test_unknown_option_field_is_rejected(self):
        with pytest.raises(FuzzError):
            options_from_json({"no_such_option": 1})

    def test_declaration_rendering(self):
        decl = FuzzDecl(kind="Mat", name="U", rows="n0", cols="n0",
                        io="Out", annotations=["UpTri", "NS"],
                        overwrites="S")
        assert decl.render() == "Mat U(n0, n0) <Out, UpTri, NS, ow(S)>;"
        assert FuzzDecl(kind="Sca", name="t").render() == "Sca t <In>;"
        assert FuzzDecl(kind="Vec", name="x",
                        rows="n1").render() == "Vec x(n1) <In>;"


class TestGeneratorDeterminism:
    def test_same_seed_same_case(self):
        for seed in range(20):
            first = sample_case(seed)
            second = sample_case(seed)
            assert first.to_json() == second.to_json()

    def test_sampled_programs_parse(self):
        for seed in range(40):
            case = sample_case(seed)
            program = case.program.parse()   # must not raise
            assert program.outputs(), case.program.source()

    def test_seeds_cover_the_grammar(self):
        # across a modest seed range the sampler must exercise HLACs,
        # loops, structured operands, and scalar outputs
        sources = [sample_case(seed).program.source()
                   for seed in range(120)]
        blob = "\n".join(sources)
        assert "inv(" in blob
        assert "for (" in blob
        assert "UpSym" in blob and "LoTri" in blob
        assert "Sca" in blob
        assert "ow(" in blob
        assert "sqrt(" in blob


class TestInputs:
    def test_inputs_respect_declared_properties(self):
        source = """
        Mat S(n, n) <In, UpSym, PD>;
        Mat L(n, n) <In, LoTri, NS, UnitDiag>;
        Mat U(n, n) <In, UpTri, NS>;
        Mat G(n, n) <In>;
        Vec x(n) <In>;
        Sca t <In>;
        Mat C(n, n) <Out>;
        C = S + L + U + G + (t * (x * x'));
        """
        from repro.la import parse_program
        program = parse_program(source, {"n": 5}, name="inputs")
        inputs = make_inputs(program, seed=11)
        spd = inputs["S"]
        assert np.allclose(spd, spd.T)
        assert np.all(np.linalg.eigvalsh(spd) > 0)
        lower = inputs["L"]
        assert np.allclose(np.triu(lower, 1), 0)
        assert np.allclose(np.diag(lower), 1.0)    # UnitDiag
        upper = inputs["U"]
        assert np.allclose(np.tril(upper, -1), 0)
        assert np.all(np.abs(np.diag(upper)) >= 1.0)   # NS: dominant diag
        assert inputs["x"].shape == (5, 1)
        assert 0.5 <= abs(float(inputs["t"].item())) <= 1.5

    def test_inputs_are_deterministic(self):
        case = sample_case(5)
        program = case.program.parse()
        first = make_inputs(program, seed=3)
        second = make_inputs(program, seed=3)
        assert sorted(first) == sorted(second)
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])


class TestMismatchMask:
    def test_nan_agrees_with_nan_only(self):
        a = np.array([[np.nan, 1.0]])
        b = np.array([[np.nan, 1.0]])
        assert not _mismatch_mask(a, b, 1e-9).any()
        c = np.array([[0.0, 1.0]])
        assert _mismatch_mask(a, c, 1e-9).any()

    def test_relative_tolerance_scales_with_magnitude(self):
        a = np.array([[1e12]])
        b = np.array([[1e12 + 10.0]])    # 1e-11 relative
        assert not _mismatch_mask(a, b, 1e-9).any()
        assert _mismatch_mask(a, b, 1e-13).any()

    def test_small_absolute_differences_fail(self):
        a = np.array([[0.0]])
        b = np.array([[1e-6]])
        assert _mismatch_mask(a, b, 1e-9).any()

    def test_infinity_disagrees_with_finite(self):
        a = np.array([np.inf, 1.0])
        b = np.array([1.0, 1.0])
        assert _mismatch_mask(a, b, 1e-12).tolist() == [True, False]
        c = np.array([-np.inf, 1.0])
        assert _mismatch_mask(c, b, 1e-12).tolist() == [True, False]

    def test_opposite_infinities_disagree(self):
        a = np.array([-np.inf])
        b = np.array([np.inf])
        assert _mismatch_mask(a, b, 1e-12).all()
        assert _mismatch_mask(a, b, np.inf).all()

    def test_equal_infinities_and_nans_agree(self):
        a = np.array([np.inf, -np.inf, np.nan])
        assert not _mismatch_mask(a, a.copy(), 1e-12).any()

    def test_max_deviation_is_inf_for_infinity_vs_finite(self):
        assert max_deviation({"X": np.array([np.inf])},
                             {"X": np.array([1.0])}) == float("inf")
        assert max_deviation({"X": np.array([np.inf, 2.0])},
                             {"X": np.array([np.inf, 2.5])}) == 0.5


class TestOracle:
    def test_simple_case_is_ok(self):
        case = _case(["A1 = (A0 + A0);"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 4})
        result = run_case(case)
        assert result.status == "ok"
        assert result.reference_checked

    def test_syntax_error_is_a_reject(self):
        case = _case(["A1 = = A0;"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 3})
        result = run_case(case)
        assert result.status == "reject"
        assert result.stage == "parse"

    def test_invalid_vector_width_is_a_reject(self):
        case = _case(["A1 = A0;"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 3}, options=Options(vector_width=5))
        result = run_case(case)
        assert result.status == "reject"
        assert result.error_type == "ConfigurationError"

    def test_unsupported_hlac_is_a_reject(self):
        case = _case(["A1 = inv(A0);"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In", ["NS"]),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 3})
        result = run_case(case)
        assert result.status == "reject"
        assert result.error_type == "UnsupportedHLACError"

    def test_reference_catches_wrong_semantics(self):
        # reference evaluation of a potrf program must agree with the
        # generated kernel on the stored triangle and the zero remainder
        case = _case(["U' * U = S;"],
                     [FuzzDecl("Mat", "S", "n", "n", "In", ["UpSym", "PD"]),
                      FuzzDecl("Mat", "U", "n", "n", "Out",
                               ["UpTri", "NS"])],
                     {"n": 5})
        result = run_case(case)
        assert result.status == "ok"
        assert result.reference_checked

    def test_reference_models_ow_aliasing(self):
        # U overwrites S: the strict lower triangle of the shared buffer
        # keeps S's values after the factorization
        case = _case(["U' * U = S;"],
                     [FuzzDecl("Mat", "S", "n", "n", "In", ["UpSym", "PD"]),
                      FuzzDecl("Mat", "U", "n", "n", "Out",
                               ["UpTri", "NS"], overwrites="S")],
                     {"n": 4})
        result = run_case(case)
        assert result.status == "ok", result.describe()

        program = case.program.parse()
        inputs = make_inputs(program, case.input_seed)
        expected = reference_outputs(program, inputs)
        assert np.allclose(np.tril(expected["S"], -1),
                           np.tril(inputs["S"], -1))

    def test_sqrt_of_negative_agrees_as_nan_everywhere(self):
        case = _case(["s1 = sqrt(s0);"],
                     [FuzzDecl("Sca", "s0", io="In"),
                      FuzzDecl("Sca", "s1", io="Out")],
                     {"n": 1}, input_seed=0)
        # find a seed whose scalar draw is negative
        program = case.program.parse()
        for seed in range(20):
            if float(make_inputs(program, seed)["s0"].item()) < 0:
                case.input_seed = seed
                break
        else:
            pytest.fail("no negative scalar draw in 20 seeds")
        result = run_case(case)
        assert result.status == "ok", result.describe()


class TestShrinker:
    def test_shrinks_to_the_failing_core(self, monkeypatch):
        # deterministic fake oracle: the case "fails" iff statement
        # "A1 = (A0 + A0);" survives and n0 >= 3
        import repro.fuzz.shrink as shrink_mod
        from repro.fuzz.oracle import CaseResult

        def fake_oracle(case, **kwargs):
            failing = ("A1 = (A0 + A0);" in case.program.statements
                       and case.program.dims.get("n0", 0) >= 3)
            if failing:
                return CaseResult(status="crash", stage="generate",
                                  error_type="LoweringError", error="boom")
            return CaseResult(status="ok")

        monkeypatch.setattr(shrink_mod, "run_case", fake_oracle)
        case = _case(
            ["A1 = (A0 + A0);", "A2 = (A0 * A0);", "s0 = 2;"],
            [FuzzDecl("Mat", "A0", "n0", "n0", "In"),
             FuzzDecl("Mat", "A1", "n0", "n0", "Out"),
             FuzzDecl("Mat", "A2", "n0", "n0", "Out"),
             FuzzDecl("Mat", "A3", "n1", "n1", "In", ["LoTri", "NS"]),
             FuzzDecl("Sca", "s0", io="Out")],
            {"n0": 8, "n1": 5},
            options=Options(vectorize=False, block_size=7))
        outcome = shrink_case(case, fake_oracle(case))
        shrunk = outcome.case
        assert shrunk.program.statements == ["A1 = (A0 + A0);"]
        assert shrunk.program.dims == {"n0": 3}
        assert [d.name for d in shrunk.program.decls] == ["A0", "A1"]
        # options reset to defaults because the failure does not need them
        assert shrunk.options == Options()

    def test_passing_case_is_left_alone(self):
        case = _case(["A1 = A0;"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 2})
        outcome = shrink_case(case)
        assert outcome.attempts == 0
        assert outcome.case is case


class TestCorpus:
    def test_save_load_replay(self, tmp_path):
        case = _case(["A1 = (A0 * A0);"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 3})
        result = run_case(case)
        assert result.status == "ok"
        path = save_entry(case, result, note="round-trip test",
                          directory=str(tmp_path))
        entry = load_entry(path)
        assert entry.note == "round-trip test"
        assert entry.case.to_json() == case.to_json()
        entries = load_corpus(str(tmp_path))
        assert [e.entry_id for e in entries] == [entry.entry_id]
        replay = replay_entry(entry)
        assert replay.status == "ok"

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FuzzError):
            load_entry(str(path))


class TestCli:
    def test_run_small_budget_exits_zero(self, capsys):
        # seeds 0..4 are known-clean (and must stay clean)
        code = fuzz_main(["run", "--budget", "5", "--seed", "0",
                          "--backends", "interpreter,numpy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5 cases:" in out

    def test_replay_cli_on_saved_entry(self, tmp_path, capsys):
        case = _case(["A1 = A0;"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 2})
        save_entry(case, run_case(case), note="cli", directory=str(tmp_path))
        code = fuzz_main(["replay", "--corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay ok" in out

    def test_corpus_listing(self, tmp_path, capsys):
        code = fuzz_main(["corpus", "--corpus", str(tmp_path / "none")])
        assert code == 0
        assert "no corpus entries" in capsys.readouterr().out


class TestCrosscheckSeeds:
    def test_crosscheck_sweeps_multiple_seeds(self, capsys):
        code = backend_main(["crosscheck", "gemm:3", "--seeds", "3",
                             "--backends", "interpreter,numpy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 input seed(s)" in out

    def test_crosscheck_rejects_bad_seed_count(self, capsys):
        code = backend_main(["crosscheck", "gemm:3", "--seeds", "0"])
        assert code == 2


class TestSanitizeIdentifier:
    def test_identity_for_valid_names(self):
        assert sanitize_identifier("potrf_4_kernel") == "potrf_4_kernel"

    def test_dashes_and_leading_digits(self):
        assert sanitize_identifier("potrf-4_kernel") == "potrf_4_kernel"
        assert sanitize_identifier("2stage") == "k_2stage"
        assert sanitize_identifier("") == "k_"

    def test_python_and_c_keywords_are_prefixed(self):
        # 'for' passes isidentifier() but 'def for(...)' / 'void for(...)'
        # do not compile
        assert sanitize_identifier("for") == "k_for"
        assert sanitize_identifier("lambda") == "k_lambda"
        assert sanitize_identifier("double") == "k_double"
        assert sanitize_identifier("restrict") == "k_restrict"

    def test_keyword_function_name_still_compiles(self):
        case = _case(["A1 = A0;"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 2}, options=Options(function_name="while"))
        result = run_case(case)
        assert result.status == "ok", result.describe()

    def test_hyphenated_program_name_compiles(self):
        # the original fuzzer finding: a program named with a dash used
        # to emit a kernel the NumPy backend could not even compile
        case = _case(["A1 = (A0 + A0);"],
                     [FuzzDecl("Mat", "A0", "n", "n", "In"),
                      FuzzDecl("Mat", "A1", "n", "n", "Out")],
                     {"n": 3})
        case.program.name = "dash-name 2.0"
        result = run_case(case)
        assert result.status == "ok", result.describe()
