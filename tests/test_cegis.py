"""Tests for the CEGIS verified-optimization tier: rewrite-catalog laws
over the whole fuzz corpus, the fix bank, the verifier, the driver loop,
service/tuner wiring, and the client's jittered busy backoff."""

import dataclasses
import json
import os
import time

import pytest

from repro.cegis import (CegisOutcome, FixBank, FixRecord, apply_sequence,
                         catalog, default_fixbank_dir, find_counterexample,
                         fixbank_key, get_rewrite, known_ids,
                         optimize_program)
from repro.cegis.fixbank import FIXBANK_SCHEMA_VERSION
from repro.errors import CegisError, ConfigurationError, ReproError, \
    ServiceError
from repro.fuzz import load_corpus
from repro.service import (KernelService, MemoryKernelStore, ServiceClient,
                           canonical_program, make_request)
from repro.slingen import Options, SLinGen
from repro.tuning import Autotuner

#: Cheap deterministic backend pair for verification in tests -- no C
#: compiler involved, still a genuine differential check.
BACKENDS = "interpreter,numpy"


def _options():
    return Options(max_variants=2, annotate_code=False)


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_basics():
    """(entry_id, basic Program) for every corpus entry that generates.

    The corpus is the law-test universe: every minimized repro the fuzzer
    ever landed, i.e. exactly the programs that historically found bugs.
    """
    basics = []
    for entry in load_corpus():
        options = dataclasses.replace(entry.case.options,
                                      verified_rewrites=())
        try:
            result = SLinGen(options).generate_result(
                entry.case.program.parse())
        except ReproError:
            continue  # rejected programs have no basic program to rewrite
        if result.basic_program is not None:
            basics.append((entry.entry_id, result.basic_program))
    assert len(basics) >= 5, "law tests need a non-trivial corpus"
    return basics


@pytest.fixture(scope="module")
def potrf_outcome():
    """One real CEGIS run on potrf:4, shared across the wiring tests."""
    request = make_request("potrf:4")
    outcome = optimize_program(request.program, _options(), budget=2,
                               backends=BACKENDS, label="potrf:4")
    return request, outcome


# ---------------------------------------------------------------------------
# Rewrite catalog laws
# ---------------------------------------------------------------------------


class TestCatalogLaws:
    def test_ids_are_stable_and_unique(self):
        ids = known_ids()
        assert len(ids) == len(set(ids))
        assert all(rewrite.id == ids[i]
                   for i, rewrite in enumerate(catalog()))
        with pytest.raises(CegisError, match="unknown rewrite"):
            get_rewrite("no-such-rewrite")

    def test_transforms_are_pure_and_deterministic(self, corpus_basics):
        for rewrite in catalog():
            for entry_id, program in corpus_basics:
                before = canonical_program(program)
                first = rewrite.apply(program)
                assert canonical_program(program) == before, \
                    f"{rewrite.id} mutated its input on {entry_id}"
                second = rewrite.apply(program)
                assert (first is None) == (second is None), \
                    f"{rewrite.id} is nondeterministic on {entry_id}"
                if first is not None:
                    assert canonical_program(first) \
                        == canonical_program(second), \
                        f"{rewrite.id} is nondeterministic on {entry_id}"

    def test_transforms_are_idempotent_or_none(self, corpus_basics):
        for rewrite in catalog():
            for entry_id, program in corpus_basics:
                result = rewrite.apply(program)
                if result is None:
                    continue
                assert rewrite.apply(result) is None, \
                    f"{rewrite.id} is not idempotent on {entry_id}"

    def test_transforms_preserve_the_signature(self, corpus_basics):
        for rewrite in catalog():
            for entry_id, program in corpus_basics:
                result = rewrite.apply(program)
                if result is None:
                    continue
                for name, operand in program.operands.items():
                    twin = result.operands.get(name)
                    assert twin is not None, \
                        f"{rewrite.id} dropped {name} on {entry_id}"
                    assert (twin.rows, twin.cols, twin.io) \
                        == (operand.rows, operand.cols, operand.io)
                for name, operand in result.operands.items():
                    if name in program.operands:
                        continue
                    # anything new is an internal scalar temp, never a
                    # change to what the kernel takes or promises
                    assert operand.is_scalar and operand.scratch \
                        and not operand.is_input, \
                        f"{rewrite.id} added operand {name} on {entry_id}"

    def test_catalog_fires_on_the_corpus(self, corpus_basics):
        fired = {rewrite.id for rewrite in catalog()
                 for _, program in corpus_basics
                 if rewrite.apply(program) is not None}
        assert len(fired) >= 3, f"catalog barely fires: {sorted(fired)}"

    def test_apply_sequence_skips_inapplicable(self, corpus_basics):
        _, program = corpus_basics[0]
        assert apply_sequence((), program) is program
        with pytest.raises(CegisError):
            apply_sequence(("no-such-rewrite",), program)

    def test_options_validate_rejects_unknown_ids(self):
        with pytest.raises(ConfigurationError, match="no-such-rewrite"):
            Options(verified_rewrites=("no-such-rewrite",)).validate()
        options = Options(verified_rewrites=["fuse-scalar"]).validate()
        assert options.verified_rewrites == ("fuse-scalar",)


# ---------------------------------------------------------------------------
# Fix bank
# ---------------------------------------------------------------------------


def _record(key="00" * 32, accepted=("fuse-scalar",), refuted=()):
    return FixRecord(key=key, program_name="potrf", label="potrf:4",
                     seed=0, budget=2, backends=["interpreter", "numpy"],
                     tol=1e-9, ref_tol=1e-6, accepted=list(accepted),
                     refuted=[dict(entry) for entry in refuted])


class TestFixBank:
    def test_round_trip_and_stats(self, tmp_path):
        bank = FixBank(root=str(tmp_path))
        key = "ab" * 32
        assert bank.get(key) is None and key not in bank
        bank.put(key, _record(key))
        assert key in bank and len(bank) == 1
        record = bank.get(key)
        assert record.accepted == ["fuse-scalar"]
        assert record.created_at > 0
        assert bank.get(key).label == "potrf:4"     # hot-cache path
        stats = bank.stats()
        assert stats["entries"] == 1 and stats["hot_hits"] >= 1

    def test_survives_process_restart_simulation(self, tmp_path):
        key = "cd" * 32
        FixBank(root=str(tmp_path)).put(key, _record(key))
        again = FixBank(root=str(tmp_path))
        assert again.get(key).accepted == ["fuse-scalar"]

    def test_corrupt_record_quarantined_as_miss(self, tmp_path):
        bank = FixBank(root=str(tmp_path))
        key = "ef" * 32
        bank.put(key, _record(key))
        path = bank._record_path(key)
        bank = FixBank(root=str(tmp_path))          # cold hot-cache
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        assert bank.get(key) is None
        assert not os.path.exists(path), "corrupt record must be dropped"
        assert bank.corrupt_dropped == 1

    def test_schema_drift_is_a_miss(self, tmp_path):
        bank = FixBank(root=str(tmp_path))
        key = "12" * 32
        bank.put(key, _record(key))
        doc = _record(key).to_json()
        doc["schema"] = FIXBANK_SCHEMA_VERSION + 1
        with open(bank._record_path(key), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert FixBank(root=str(tmp_path)).get(key) is None

    def test_purge_and_records(self, tmp_path):
        bank = FixBank(root=str(tmp_path))
        for byte in ("aa", "bb"):
            bank.put(byte * 32, _record(byte * 32))
        assert {r.key for r in bank.records()} == {"aa" * 32, "bb" * 32}
        assert bank.purge() == 2 and len(bank) == 0

    def test_apply_drops_unknown_ids(self):
        record = _record(accepted=("fuse-scalar", "retired-rewrite"))
        options = record.apply(Options())
        assert options.verified_rewrites == ("fuse-scalar",)

    def test_verified_options(self, tmp_path):
        bank = FixBank(root=str(tmp_path))
        key = "34" * 32
        assert bank.verified_options(key, base=Options()) is None
        bank.put(key, _record(key))
        options = bank.verified_options(key, base=_options())
        assert options.verified_rewrites == ("fuse-scalar",)
        assert options.max_variants == 2            # base knobs survive

    def test_default_dir_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FIXBANK", str(tmp_path / "elsewhere"))
        assert default_fixbank_dir() == str(tmp_path / "elsewhere")

    def test_fixbank_key_matches_tuning_key_space(self):
        from repro.tuning.db import tuning_key
        request = make_request("potrf:4")
        assert fixbank_key(request.program) == tuning_key(request.program)
        assert fixbank_key(request.program) \
            != fixbank_key(request.program, vectorize=False)


# ---------------------------------------------------------------------------
# Verifier + loop
# ---------------------------------------------------------------------------


class TestVerifierAndLoop:
    def test_identity_candidate_survives(self):
        request = make_request("potrf:4")
        assert find_counterexample(request.program, request.program,
                                   _options(), budget=1,
                                   backends=BACKENDS) is None

    def test_interface_mismatch_is_a_setup_error(self):
        a = make_request("potrf:4")
        b = make_request("gemm:4")
        with pytest.raises(CegisError, match="different interfaces"):
            find_counterexample(a.program, b.program, _options(),
                                budget=0, backends=BACKENDS)

    def test_loop_accepts_and_refutes_on_potrf(self, potrf_outcome):
        _, outcome = potrf_outcome
        assert outcome.accepted, "potrf:4 must accept some rewrites"
        refuted_ids = [entry["id"] for entry in outcome.refuted]
        assert "tri-unit-diag" in refuted_ids, \
            "the unit-diagonal shortcut must be caught on a real Cholesky"
        (entry,) = [e for e in outcome.refuted
                    if e["id"] == "tri-unit-diag"]
        assert entry["seed"] >= 0, "refutation must carry a concrete input"
        assert set(outcome.accepted).isdisjoint(refuted_ids)

    def test_counterexample_replays_with_zero_budget(self, potrf_outcome):
        request, outcome = potrf_outcome
        (entry,) = [e for e in outcome.refuted
                    if e["id"] == "tri-unit-diag"]
        trial = dataclasses.replace(
            _options(), verified_rewrites=("tri-unit-diag",))
        counterexample = find_counterexample(
            request.program, request.program, _options(), options_b=trial,
            seeds=[int(entry["seed"])], budget=0, backends=BACKENDS)
        assert counterexample is not None
        assert counterexample.seed == int(entry["seed"])

    def test_cli_replay_reconstructs_trial_time_prefix(self, tmp_path,
                                                       potrf_outcome,
                                                       capsys):
        """``replay`` must compose each refuted rewrite with the accepted
        ids that preceded it in catalog order (what the loop actually
        tried), not the full final accepted set -- under the latter a
        first-in-catalog rewrite like tri-unit-diag can stop firing and
        the banked counterexample is falsely reported stale."""
        from repro.cegis.__main__ import main
        request, outcome = potrf_outcome
        bank = FixBank(root=str(tmp_path))
        bank.put(outcome.key, outcome.to_record())
        code = main(["--db", str(tmp_path), "replay", "potrf:4", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["stale"] == 0
        statuses = {r["rewrite"]: r["status"] for r in doc["results"]}
        assert statuses["tri-unit-diag"] == "refuted"

    def test_accepted_set_changes_and_preserves_the_kernel(self,
                                                           potrf_outcome):
        request, outcome = potrf_outcome
        base = _options()
        verified = dataclasses.replace(
            base, verified_rewrites=tuple(outcome.accepted))
        plain = SLinGen(base).generate_result(request.program)
        rewritten = SLinGen(verified).generate_result(request.program)
        assert canonical_program(plain.basic_program) \
            != canonical_program(rewritten.basic_program)
        # and by construction of the loop, outputs still agree
        assert find_counterexample(request.program, request.program, base,
                                   options_b=verified, budget=2,
                                   backends=BACKENDS) is None

    def test_outcome_banks_and_round_trips(self, tmp_path, potrf_outcome):
        request, outcome = potrf_outcome
        bank = FixBank(root=str(tmp_path))
        bank.put(outcome.key, outcome.to_record())
        record = FixBank(root=str(tmp_path)).get(outcome.key)
        assert record.accepted == list(outcome.accepted)
        assert record.counterexamples(), "refutation seeds must persist"
        assert record.apply(Options()).verified_rewrites \
            == tuple(outcome.accepted)
        assert outcome.key == fixbank_key(request.program)

    def test_outcome_summary_shape(self, potrf_outcome):
        _, outcome = potrf_outcome
        summary = outcome.summary()
        assert summary["label"] == "potrf:4"
        assert summary["accepted"] == list(outcome.accepted)
        assert isinstance(outcome, CegisOutcome)


# ---------------------------------------------------------------------------
# Service + tuner wiring
# ---------------------------------------------------------------------------


class TestVerifiedWiring:
    def test_service_applies_banked_rewrites(self, tmp_path, potrf_outcome):
        request, outcome = potrf_outcome
        bank = FixBank(root=str(tmp_path))
        bank.put(outcome.key, outcome.to_record())

        plain = KernelService(store=MemoryKernelStore(), executor="thread")
        verified = KernelService(store=MemoryKernelStore(),
                                 executor="thread", fix_bank=bank)
        base = plain.generate(make_request("potrf:4", options=_options()))
        response = verified.generate(make_request("potrf:4",
                                                  options=_options()))
        assert not base.verified
        assert response.verified
        assert response.key != base.key, \
            "verified generation must not collide with unverified"
        assert response.result.options.verified_rewrites \
            == tuple(outcome.accepted)
        assert verified.stats.snapshot()["verified"] == 1

    def test_service_without_record_is_unverified(self, tmp_path):
        bank = FixBank(root=str(tmp_path))
        service = KernelService(store=MemoryKernelStore(),
                                executor="thread", fix_bank=bank)
        response = service.generate(make_request("gemm:4",
                                                 options=_options()))
        assert not response.verified
        assert service.stats.snapshot()["verified"] == 0

    def test_verified_kernel_keeps_cegis_scalars_local(self, tmp_path):
        # recip-div declares cg_r* reciprocals in the basic program; a
        # verified kernel backs them with local arrays, so its signature
        # stays the LA interface.
        request = make_request("trsyl:4", options=_options())
        bank = FixBank(root=str(tmp_path))
        key = fixbank_key(request.program)
        bank.put(key, _record(key, accepted=("recip-div",)))
        service = KernelService(store=MemoryKernelStore(),
                                executor="thread", fix_bank=bank)
        response = service.generate(request)
        assert response.verified
        function = response.result.function
        leaders = set(request.program.storage_groups().values())
        assert [b.name for b in function.params] \
            == [n for n in request.program.operands if n in leaders]
        assert any(b.name.startswith("cg_r") for b in function.temps)
        assert "double cg_r0[1];" in response.result.c_code

    def test_tuner_composes_fix_records(self, tmp_path, potrf_outcome):
        request, outcome = potrf_outcome
        bank = FixBank(root=str(tmp_path))
        bank.put(outcome.key, outcome.to_record())
        tuner = Autotuner(measurer="interpreter", budget=1, fix_bank=bank)
        options = tuner.tuned_options(request.program, base=_options())
        assert options is not None
        assert options.verified_rewrites == tuple(outcome.accepted)


# ---------------------------------------------------------------------------
# Client backoff jitter
# ---------------------------------------------------------------------------


def _always_busy(monkeypatch, sleeps):
    def fake_send(self, method, path, data):
        return 503, "Service Unavailable", b'{"error": "server busy"}'
    monkeypatch.setattr(ServiceClient, "_send", fake_send)
    monkeypatch.setattr(time, "sleep", sleeps.append)


class TestClientJitter:
    def test_backoff_is_jittered_bounded_and_seedable(self, monkeypatch):
        sleeps: list = []
        _always_busy(monkeypatch, sleeps)
        client = ServiceClient("http://127.0.0.1:1", busy_retries=6,
                               busy_backoff_s=0.05, busy_backoff_cap_s=0.4,
                               jitter_seed=7)
        with pytest.raises(ServiceError, match="503"):
            client.generate(spec="potrf:4")
        assert len(sleeps) == 6, "one sleep per retry"
        assert sleeps[0] == pytest.approx(0.05), \
            "first backoff is the configured base"
        assert all(0.05 <= delay <= 0.4 for delay in sleeps[1:])
        assert len(set(sleeps)) > 1, "backoff must actually jitter"

        again: list = []
        _always_busy(monkeypatch, again)
        twin = ServiceClient("http://127.0.0.1:1", busy_retries=6,
                             busy_backoff_s=0.05, busy_backoff_cap_s=0.4,
                             jitter_seed=7)
        with pytest.raises(ServiceError):
            twin.generate(spec="potrf:4")
        assert again == sleeps, "same seed, same schedule"

        other: list = []
        _always_busy(monkeypatch, other)
        rival = ServiceClient("http://127.0.0.1:1", busy_retries=6,
                              busy_backoff_s=0.05, busy_backoff_cap_s=0.4,
                              jitter_seed=8)
        with pytest.raises(ServiceError):
            rival.generate(spec="potrf:4")
        assert other != sleeps, "different seeds decorrelate the herd"

    def test_unseeded_clients_decorrelate(self, monkeypatch):
        schedules = []
        for _ in range(2):
            sleeps: list = []
            _always_busy(monkeypatch, sleeps)
            client = ServiceClient("http://127.0.0.1:1", busy_retries=8,
                                   busy_backoff_s=0.05)
            with pytest.raises(ServiceError):
                client.generate(spec="potrf:4")
            schedules.append(tuple(sleeps))
        assert schedules[0] != schedules[1]
