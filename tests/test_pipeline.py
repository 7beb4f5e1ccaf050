"""Tests of the staged generation pipeline: phase keys, the artifact
cache, cross-variant reuse, and the public API facade.

The load-bearing properties:

* the phase/option-axis partition covers every ``Options`` field exactly
  once (a new field fails here until it is deliberately placed),
* a codegen sweep whose variants share a blocking factor builds Stage 1
  exactly once,
* cached generation is byte-identical to cold generation,
* the persistent layer quarantines corruption instead of raising, and
* the builder's memo survives concurrent access.
"""

import json
import os
import pickle
import threading

import pytest

from repro.errors import ConfigurationError
from repro.machine.microarch import default_machine
from repro.pipeline import keys
from repro.pipeline.cache import (PersistentPhaseStore, PhaseCache,
                                  PhaseTimings, reset_shared_phase_cache,
                                  shared_phase_cache)
from repro.pipeline.keys import (PHASE_AXES, PHASES, SEARCH_AXES,
                                 assert_partition_complete)
from repro.service.registry import build_case, parse_spec
from repro.slingen.generator import CandidateBuilder, SLinGen
from repro.slingen.options import Options


def make_case(spec="potrf:4"):
    return build_case(parse_spec(spec))


def sweep_variants(count=8):
    """``count`` codegen variants differing only in codegen axes (none
    overrides the blocking factor, so all share one Stage-1 artifact)."""
    from dataclasses import replace

    from repro.lgen.tiling import CodegenVariant

    base = CodegenVariant(vector_width=4)
    pool = [
        base,
        replace(base, unroll_trip_count=4, unroll_body_limit=32),
        replace(base, unroll_trip_count=16, unroll_body_limit=128),
        replace(base, use_shuffle_transpose=False),
        replace(base, scalar_replacement=False),
        replace(base, load_store_analysis=False),
        replace(base, unroll_trip_count=4, unroll_body_limit=32,
                scalar_replacement=False),
        replace(base, use_shuffle_transpose=False,
                load_store_analysis=False),
    ]
    assert len(pool) >= count and \
        all(v.block_size is None for v in pool)
    return pool[:count]


class TestKeyPartition:
    def test_partition_is_complete(self):
        # The real contract: every live Options field is assigned to
        # exactly one phase (or is search-control).
        assert_partition_complete()

    def test_missing_axis_is_detected(self, monkeypatch):
        trimmed = dict(PHASE_AXES)
        trimmed["lower"] = tuple(a for a in trimmed["lower"]
                                 if a != "vector_width")
        monkeypatch.setattr(keys, "PHASE_AXES", trimmed)
        with pytest.raises(ConfigurationError, match="unassigned"):
            assert_partition_complete()

    def test_duplicated_axis_is_detected(self, monkeypatch):
        doubled = dict(PHASE_AXES)
        doubled["optimize"] = doubled["optimize"] + ("vectorize",)
        monkeypatch.setattr(keys, "PHASE_AXES", doubled)
        with pytest.raises(ConfigurationError, match="more than one"):
            assert_partition_complete()

    def test_unknown_axis_is_detected(self, monkeypatch):
        monkeypatch.setattr(keys, "SEARCH_AXES",
                            SEARCH_AXES + ("no_such_option",))
        with pytest.raises(ConfigurationError, match="naming no"):
            assert_partition_complete()

    def test_keys_chain_and_separate(self):
        case = make_case()
        a = keys.stage1_key(case.program, 4, {})
        b = keys.stage1_key(case.program, 8, {})
        assert a != b                       # block size keys Stage 1
        ra = keys.rewrite_key(a, True, ())
        rb = keys.rewrite_key(b, True, ())
        assert ra != rb                     # parent key chains through
        assert keys.rewrite_key(a, False, ()) != ra
        la = keys.lower_key(ra, 4, True, "kernel", False)
        assert keys.lower_key(ra, 8, True, "kernel", False) != la
        oa = keys.optimize_key(la, True, 8, 64, True, True)
        assert keys.optimize_key(la, False, 8, 64, True, True) != oa


class TestPhaseCache:
    def test_hit_miss_and_stats(self):
        cache = PhaseCache()
        assert cache.get("stage1", "k") is None
        cache.put("stage1", "k", {"x": 1})
        assert cache.get("stage1", "k") == {"x": 1}
        stats = cache.stats()
        assert stats["phases"]["stage1"] == \
            {"hits": 1, "misses": 1, "puts": 1}
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.reset_stats()
        assert cache.stats()["misses"] == 0
        cache.clear()
        assert cache.get("stage1", "k") is None

    def test_artifacts_are_shared_not_copied(self):
        cache = PhaseCache()
        artifact = {"big": list(range(8))}
        cache.put("lower", "k", artifact)
        assert cache.get("lower", "k") is artifact

    def test_persistent_roundtrip_and_promotion(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path))
        warm = PhaseCache(persistent=store)
        warm.put("optimize", "a" * 64, {"payload": 7})
        # A fresh process (new hot layer, same directory) hits on disk.
        cold = PhaseCache(persistent=PersistentPhaseStore(str(tmp_path)))
        assert cold.get("optimize", "a" * 64) == {"payload": 7}
        assert cold.persistent.disk_hits == 1
        # Promoted to the hot layer: the second get never touches disk.
        assert cold.get("optimize", "a" * 64) == {"payload": 7}
        assert cold.persistent.reads == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path))
        key = "b" * 64
        store.put("stage1", key, {"ok": True})
        path = store._path("stage1", key)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("stage1", key) is None
        assert store.corrupt_dropped == 1
        assert not os.path.exists(path)     # quarantined, not left to rot
        # A non-pickle that *loads* but was torn mid-write also drops.
        with open(path, "wb") as handle:
            handle.write(pickle.dumps({"ok": True})[:-4])
        assert store.get("stage1", key) is None
        assert store.corrupt_dropped == 2

    def test_shared_cache_reads_environment(self, tmp_path, monkeypatch):
        reset_shared_phase_cache()
        monkeypatch.setenv("REPRO_PHASE_CACHE", str(tmp_path))
        try:
            cache = shared_phase_cache()
            assert cache is shared_phase_cache()    # one per process
            assert cache.persistent is not None
            assert cache.persistent.root == str(tmp_path)
        finally:
            reset_shared_phase_cache()

    def test_timings_accumulate(self):
        timings = PhaseTimings()
        timings.record("stage1", 0.25, hit=False)
        timings.record("stage1", 0.05, hit=True)
        doc = timings.as_dict()
        assert doc["stage1"]["calls"] == 2
        assert doc["stage1"]["hits"] == 1
        assert doc["stage1"]["seconds"] == pytest.approx(0.3)
        assert timings.total_seconds == pytest.approx(0.3)


class TestCrossVariantReuse:
    def test_sweep_builds_stage1_exactly_once(self):
        case = make_case()
        cache = PhaseCache()
        variants = sweep_variants(8)
        builder = CandidateBuilder(case.program,
                                   Options(vectorize=True,
                                           annotate_code=False),
                                   default_machine(), [{}], variants,
                                   nominal_flops=case.nominal_flops,
                                   phase_cache=cache)
        for point in builder.space().points():
            builder.candidate(point)
        phases = cache.stats()["phases"]
        assert phases["stage1"]["misses"] == 1
        assert phases["stage1"]["hits"] == len(variants) - 1
        # One rewrite too (same axes), and one optimize per variant.
        assert phases["rewrite"]["misses"] == 1
        assert phases["optimize"]["misses"] == len(variants)

    def test_builder_memo_is_thread_safe(self):
        case = make_case()
        builder = CandidateBuilder(case.program,
                                   Options(vectorize=True,
                                           annotate_code=False),
                                   default_machine(), [{}],
                                   sweep_variants(4),
                                   nominal_flops=case.nominal_flops,
                                   phase_cache=PhaseCache())
        points = list(builder.space().points())
        results = [[] for _ in range(4)]

        def sweep(bucket):
            for point in points:
                bucket.append(builder.candidate(point))

        threads = [threading.Thread(target=sweep, args=(bucket,))
                   for bucket in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread saw the same memoized candidate per point, and
        # each point was built exactly once.
        for bucket in results[1:]:
            for first, mine in zip(results[0], bucket):
                assert mine is first
        assert len(builder.built) == len(points)


#: Three registry workloads of different shapes (factorization, product,
#: triangular solve) -- cold and cached generation must agree on bytes.
CACHED_SPECS = ("potrf:4", "gemm:4", "trsm:4")


class TestCachedGenerationIsIdentical:
    @pytest.mark.parametrize("spec", CACHED_SPECS)
    def test_warm_c_is_byte_identical(self, spec):
        case = make_case(spec)
        cache = PhaseCache()
        generator = SLinGen(Options(vectorize=True, annotate_code=False),
                            phase_cache=cache)
        cold = generator.generate_result(case.program,
                                         nominal_flops=case.nominal_flops)
        warm = generator.generate_result(case.program,
                                         nominal_flops=case.nominal_flops)
        assert warm.c_code == cold.c_code
        assert warm.function.statement_count() == \
            cold.function.statement_count()
        # The warm pass was served entirely from the cache.
        stats = warm.phase_stats
        assert stats is not None
        for phase in PHASES:
            assert stats[phase]["hits"] == stats[phase]["calls"]

    def test_phase_timings_surface_in_summary(self):
        case = make_case()
        result = SLinGen(Options(vectorize=True, annotate_code=False),
                         phase_cache=PhaseCache()).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        phases = result.summary()["phases"]
        for phase in PHASES:
            assert set(phases[phase]) == {"calls", "hits", "seconds"}
            assert phases[phase]["calls"] >= 1

    def test_persistent_layer_survives_process_restart(self, tmp_path):
        case = make_case()
        options = Options(vectorize=True, annotate_code=False)
        first = SLinGen(options, phase_cache=PhaseCache(
            persistent=PersistentPhaseStore(str(tmp_path))))
        cold = first.generate_result(case.program,
                                     nominal_flops=case.nominal_flops)
        # "Restart": a fresh hot layer over the same directory.
        store = PersistentPhaseStore(str(tmp_path))
        second = SLinGen(options, phase_cache=PhaseCache(persistent=store))
        warm = second.generate_result(case.program,
                                      nominal_flops=case.nominal_flops)
        assert warm.c_code == cold.c_code
        assert store.disk_hits > 0


class _SnapshotCache(PhaseCache):
    """A phase cache that renders each artifact's IR as it is adopted."""

    def __init__(self):
        super().__init__()
        self.snapshots = []

    def put(self, phase, key, artifact):
        self.snapshots.append((phase, artifact, _render(phase, artifact)))
        super().put(phase, key, artifact)


def _render(phase, artifact):
    from repro.backend.c_unparser import CUnparser
    from repro.service.keys import canonical_program
    if phase == "stage1":
        return canonical_program(artifact.result.program)
    if phase == "rewrite":
        return canonical_program(artifact.program)
    return CUnparser(artifact.function).unparse()


class TestSharedArtifactsStayUnchanged:
    """Later phases share cached IR instead of copying it: building every
    candidate through one cache must leave each cached program and
    function reading exactly as it did when it was cached."""

    @pytest.mark.parametrize("spec", ("potrf:8", "kf:4"))
    def test_every_candidate_leaves_cached_ir_intact(self, spec):
        case = make_case(spec)
        cache = _SnapshotCache()
        options = Options(vectorize=True, max_variants=32)
        result = SLinGen(options, strategy="exhaustive", phase_cache=cache
                         ).generate_result(case.program,
                                           nominal_flops=case.nominal_flops)
        assert len(result.candidates) > 8
        phases = {phase for phase, _, _ in cache.snapshots}
        assert phases == set(PHASES)
        for phase, artifact, before in cache.snapshots:
            assert _render(phase, artifact) == before, phase


    def test_rewrite_rules_leave_the_stage1_program_intact(self):
        from repro.la import parse_program
        from repro.pipeline import phases
        from repro.service.keys import canonical_program
        program = parse_program("""
        Vec b(6) <In>;
        Sca lam <In>;
        Vec x(6) <Out>;
        x = b / lam;
        """, {})
        stage1 = phases.stage1(program, 4, {})
        basic = stage1.result.program
        before = canonical_program(basic)
        rewritten = phases.rewrite(stage1, True, ())
        assert rewritten.report.r1_applications == 1
        assert len(rewritten.program.statements) == 2
        assert canonical_program(basic) == before


class TestApiFacade:
    def test_every_public_name_resolves(self):
        import repro.api as api
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_generates(self):
        from repro.api import Options as ApiOptions
        from repro.api import SLinGen as ApiSLinGen
        case = make_case()
        result = ApiSLinGen(ApiOptions(vectorize=False)).generate_result(
            case.program)
        assert "void" in result.c_code


class TestPersistentStoreBound:
    """The persistent layer's size bound, GC, and purge path."""

    def _fill(self, store, count=10, size=800):
        for index in range(count):
            key = f"{index:02d}" * 20
            store.put("stage1", key, b"x" * size)
            # distinct mtimes so eviction order is deterministic
            path = store._path("stage1", key)
            os.utime(path, (index, index))
        return [f"{index:02d}" * 20 for index in range(count)]

    def test_parse_size(self):
        from repro.pipeline.cache import parse_size
        assert parse_size("512M") == 512 << 20
        assert parse_size("2g") == 2 << 30
        assert parse_size("1024") == 1024
        assert parse_size("0") is None and parse_size("") is None
        with pytest.raises(ConfigurationError):
            parse_size("lots")

    def test_overflowing_put_evicts_oldest_first(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=5000)
        keys_in_order = self._fill(store)
        stats = store.stats()
        assert stats["total_bytes"] <= 5000
        assert stats["evictions"] > 0
        assert store.get("stage1", keys_in_order[0]) is None   # oldest
        assert store.get("stage1", keys_in_order[-1]) is not None

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        self._fill(store)
        assert store.stats()["evictions"] == 0
        assert store.gc() == 0                      # no bound: no-op

    def test_purge_empties_and_counts(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        keys_in_order = self._fill(store, count=4)
        assert store.purge() == 4
        assert store.total_bytes() == 0
        assert all(store.get("stage1", key) is None
                   for key in keys_in_order)

    def test_corrupt_drop_updates_size_accounting(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        store.put("stage1", "ab" * 20, b"payload")
        total = store.total_bytes()
        path = store._path("stage1", "ab" * 20)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("stage1", "ab" * 20) is None
        assert store.stats()["corrupt_dropped"] == 1
        assert store.total_bytes() < total

    def test_purge_cli(self, tmp_path, capsys):
        from repro.pipeline.__main__ import main as pipeline_main
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        self._fill(store, count=3)
        code = pipeline_main(["purge", "--phase-cache", str(tmp_path),
                              "--yes", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == 3 and doc["bytes_after"] == 0
        assert pipeline_main(["purge"]) == 2        # no root configured
        capsys.readouterr()

    def test_gc_cli_requires_bound(self, tmp_path, monkeypatch, capsys):
        from repro.pipeline.__main__ import main as pipeline_main
        monkeypatch.delenv("REPRO_PHASE_CACHE_LIMIT", raising=False)
        assert pipeline_main(["purge", "--phase-cache", str(tmp_path),
                              "--gc"]) == 2
        capsys.readouterr()
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        self._fill(store)
        monkeypatch.setenv("REPRO_PHASE_CACHE_LIMIT", "5000")
        assert pipeline_main(["purge", "--phase-cache", str(tmp_path),
                              "--gc", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"] and doc["removed"] > 0
        assert doc["bytes_after"] <= 5000
