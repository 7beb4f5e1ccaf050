"""Tests for the kernel service: keys, store, service front-end, registry,
CLI, and the supporting satellite changes (Options.validate, CC handling)."""

import json
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.applications import make_case
from repro.errors import ConfigurationError, ServiceError
from repro.machine.microarch import HASWELL, default_machine
from repro.service import (DiskKernelStore, GenerationRequest, KernelService,
                           MemoryKernelStore, cache_key, canonical_program,
                           make_request, parse_spec, sweep_requests,
                           workload_names)
from repro.slingen import Options, SLinGen
from repro.slingen.generator import GenerationResult

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _options():
    return Options(max_variants=4, annotate_code=False)


def _result_for(spec="potrf:4", options=None):
    request = make_request(spec, options=options or _options())
    return SLinGen(request.options).generate_result(
        request.program, nominal_flops=request.nominal_flops)


def _rewrite_record(store, key, meta=None, payload=None):
    """Replace the metadata line and/or the payload of ``key``'s record."""
    path = store._store.path(key)
    with open(path, "rb") as handle:
        old_meta, _, old_payload = handle.read().partition(b"\n")
    with open(path, "wb") as handle:
        handle.write((meta or old_meta) + b"\n" + (payload or old_payload))


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


class TestKeys:
    def test_key_is_deterministic_in_process(self):
        a = make_request("potrf:8")
        b = make_request("potrf:8")
        key_a = cache_key(a.program, _options(), default_machine(),
                          nominal_flops=a.nominal_flops)
        key_b = cache_key(b.program, _options(), default_machine(),
                          nominal_flops=b.nominal_flops)
        assert key_a == key_b
        assert len(key_a) == 64

    def test_key_stable_across_processes(self):
        request = make_request("trtri:8")
        local = cache_key(request.program, _options(), default_machine(),
                          nominal_flops=request.nominal_flops)
        script = (
            "from repro.service import cache_key, make_request\n"
            "from repro.slingen import Options\n"
            "from repro.machine.microarch import default_machine\n"
            "r = make_request('trtri:8',"
            " options=Options(max_variants=4, annotate_code=False))\n"
            "print(cache_key(r.program, r.options, default_machine(),"
            " nominal_flops=r.nominal_flops))\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="99")
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert output.stdout.strip() == local

    def test_key_sensitive_to_each_component(self):
        request = make_request("potrf:8")
        base = cache_key(request.program, _options(), default_machine(),
                         nominal_flops=request.nominal_flops)
        other_program = make_request("potrf:12")
        assert cache_key(other_program.program, _options(), default_machine(),
                         nominal_flops=other_program.nominal_flops) != base
        assert cache_key(request.program, Options(vectorize=False),
                         default_machine(),
                         nominal_flops=request.nominal_flops) != base
        assert cache_key(request.program, _options(), HASWELL,
                         nominal_flops=request.nominal_flops) != base
        assert cache_key(request.program, _options(), default_machine(),
                         nominal_flops=None) != base

    def test_source_and_ir_agree(self):
        source = """
        Mat A(n, n) <In>;
        Vec x(n) <In>;
        Vec y(n) <Out>;
        y = A * x;
        """
        from repro.la import parse_program
        program = parse_program(source, {"n": 8}, name="gemv")
        from_ir = cache_key(program, _options())
        # Text requests are parsed before canonicalization; identical source
        # reaches the same canonical program apart from the default name.
        assert canonical_program(program).startswith("program(gemv)")
        assert from_ir == cache_key(program, _options())


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class TestDiskStore:
    def test_hit_after_miss_round_trip(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path))
        result = _result_for("potrf:4")
        assert store.get("0" * 64) is None
        store.put("0" * 64, result)
        loaded = store.get("0" * 64)
        assert loaded is not None
        assert loaded.c_code == result.c_code
        assert loaded.performance.cycles == result.performance.cycles
        assert loaded.variant_label == result.variant_label

    def test_persists_across_instances_and_runs_kernel(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path))
        result = _result_for("potrf:4")
        store.put("a" * 64, result)

        reopened = DiskKernelStore(root=str(tmp_path))
        loaded = reopened.get("a" * 64)
        assert loaded is not None
        case = make_case("potrf", 4)
        inputs = case.make_inputs(seed=3)
        outputs = loaded.run(inputs)
        expected = case.reference_outputs(inputs)
        assert np.allclose(np.triu(outputs["U"]), np.triu(expected["U"]),
                           atol=1e-7)

    def test_corrupted_payload_recovers_as_miss(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path), hot_capacity=0)
        key = "b" * 64
        store.put(key, _result_for("potrf:4"))
        _rewrite_record(store, key, payload=b"\x80\x04 this is not a pickle")
        assert store.get(key) is None
        assert store.stats()["corrupt_dropped"] == 1
        assert key not in store.keys()  # quarantined

    def test_foreign_pickle_is_quarantined(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path), hot_capacity=0)
        key = "a" * 64
        store.put(key, _result_for("potrf:4"))
        _rewrite_record(store, key, payload=pickle.dumps({"c_code": "x"}))
        assert store.get(key) is None
        assert store.stats()["corrupt_dropped"] == 1
        assert key not in store.keys()

    def test_corrupted_meta_recovers_as_miss(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path), hot_capacity=0)
        key = "c" * 64
        store.put(key, _result_for("potrf:4"))
        _rewrite_record(store, key, meta=b"{truncated")
        assert store.get(key) is None
        assert key not in store.keys()

    def test_lru_eviction_bound(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path), max_entries=3,
                                hot_capacity=0)
        result = _result_for("potrf:4")
        keys = [format(i, "064x") for i in range(5)]
        base = time.time() - 1000
        for i, key in enumerate(keys):
            store.put(key, result)
            # mtime resolution can be coarse; force a distinct access order
            # (in the past, so the entry being written stays newest).
            os.utime(store._store.path(key), (base + i, base + i))
        remaining = store.keys()
        assert len(remaining) <= 3
        assert keys[-1] in remaining       # newest survives
        assert keys[0] not in remaining    # oldest evicted
        assert store.stats()["evictions"] >= 2

    def test_max_bytes_eviction(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path), max_bytes=1,
                                hot_capacity=0)
        store.put("d" * 64, _result_for("potrf:4"))
        store.put("e" * 64, _result_for("potrf:4"))
        # Every put exceeds one byte, so at most the newest entry survives.
        assert len(store.keys()) <= 1

    def test_metadata_and_stats(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path))
        store.put("f" * 64, _result_for("potrf:4"), meta={"label": "potrf:4"})
        meta = store.metadata("f" * 64)
        assert meta["label"] == "potrf:4"
        assert meta["program"] == "potrf_4"
        assert meta["payload_bytes"] > 0
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_purge(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path))
        store.put("1" * 64, _result_for("potrf:4"))
        assert store.purge() == 1
        assert store.keys() == []


class TestMemoryStore:
    def test_round_trip_and_lru(self):
        store = MemoryKernelStore(max_entries=2)
        result = _result_for("potrf:4")
        store.put("a", result)
        store.put("b", result)
        assert store.get("a") is result    # refresh "a"
        store.put("c", result)             # evicts "b"
        assert store.get("b") is None
        assert store.get("a") is result
        assert store.get("c") is result
        assert store.evictions == 1


# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------


class TestKernelService:
    def test_second_generate_is_hit_without_stage_1_3(self, tmp_path):
        service = KernelService(store=DiskKernelStore(root=str(tmp_path)),
                                options=_options())
        request = make_request("potrf:12", options=_options())

        t0 = time.perf_counter()
        cold = service.generate(request)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = service.generate(request)
        warm_s = time.perf_counter() - t0

        assert not cold.cache_hit and warm.cache_hit
        assert service.stats.hits == 1 and service.stats.misses == 1
        assert warm.result.c_code == cold.result.c_code
        assert warm.result.performance.cycles == cold.result.performance.cycles
        # The warm path serves from the store without re-running Stage 1-3.
        assert cold_s >= 10 * warm_s, \
            f"warm path only {cold_s / warm_s:.1f}x faster"

    def test_hit_survives_process_restart_simulation(self, tmp_path):
        request = make_request("trtri:4", options=_options())
        first = KernelService(store=DiskKernelStore(root=str(tmp_path)),
                              options=_options())
        assert not first.generate(request).cache_hit
        # A fresh service over the same root models a new process.
        second = KernelService(store=DiskKernelStore(root=str(tmp_path)),
                               options=_options())
        response = second.generate(request)
        assert response.cache_hit

    def test_generate_many_matches_serial(self, tmp_path):
        specs = ["potrf:4", "potrf:8", "trtri:4", "trsyl:4", "gpr:4"]
        service = KernelService(store=DiskKernelStore(root=str(tmp_path)),
                                options=_options(), max_workers=4)
        requests = [make_request(s, options=_options()) for s in specs]
        parallel = service.generate_many(requests, parallel=True)

        for spec, response in zip(specs, parallel):
            serial = _result_for(spec)
            assert response.result.c_code == serial.c_code, spec
            assert response.result.performance.cycles \
                == serial.performance.cycles, spec
            assert response.result.variant_label == serial.variant_label, spec
        assert [r.label for r in parallel] == specs  # request order kept

    def test_generate_many_coalesces_duplicates(self):
        service = KernelService(store=MemoryKernelStore(),
                                options=_options())
        request = make_request("potrf:4", options=_options())
        responses = service.generate_many([request, request, request])
        assert len(responses) == 3
        assert service.stats.coalesced == 2
        assert len({r.result.c_code for r in responses}) == 1

    def test_accepts_bare_program(self):
        service = KernelService(store=MemoryKernelStore(),
                                options=_options())
        case = make_case("potrf", 4)
        response = service.generate(case.program)
        assert response.label == "potrf_4"

    def test_rejects_bad_executor(self):
        with pytest.raises(ServiceError):
            KernelService(store=MemoryKernelStore(), executor="fork-bomb")

    def test_warm_uses_registry(self, tmp_path):
        service = KernelService(store=DiskKernelStore(root=str(tmp_path)),
                                options=_options())
        summary = service.warm(["potrf:4", "trtri:4"])
        assert summary["warmed"] == 2 and summary["misses"] == 2
        summary = service.warm(["potrf:4", "trtri:4"])
        assert summary["hits"] == 2

    def test_generator_store_integration(self, tmp_path):
        """SLinGen itself can be pointed at a store (variant reuse layer)."""
        store = DiskKernelStore(root=str(tmp_path))
        generator = SLinGen(_options(), store=store)
        case = make_case("potrf", 4)
        first = generator.generate(case.program,
                                   nominal_flops=case.nominal_flops)
        assert len(store) == 1
        second = generator.generate(case.program,
                                    nominal_flops=case.nominal_flops)
        assert second.c_code == first.c_code
        stats = store.stats()
        assert stats["hot_hits"] + stats["disk_hits"] >= 1


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------


class TestHarnessIntegration:
    def test_run_series_with_service_matches_direct(self):
        from repro.bench import generator_options, run_series
        service = KernelService(store=MemoryKernelStore())
        sizes = [4, 8]
        with_service = run_series("potrf", sizes, service=service,
                                  options=generator_options(),
                                  baselines=[])
        direct = run_series("potrf", sizes, options=generator_options(),
                            baselines=[])
        assert [p.performance["slingen"] for p in with_service.points] \
            == [p.performance["slingen"] for p in direct.points]
        # Rerunning the series is now pure cache hits.
        before = service.stats.hits
        run_series("potrf", sizes, service=service,
                   options=generator_options(), baselines=[])
        assert service.stats.hits >= before + len(sizes)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_parse_spec_forms(self):
        assert parse_spec("potrf:12").size == 12
        spec = parse_spec("kf:8x4")
        assert (spec.name, spec.size, spec.k) == ("kf", 8, 4)
        assert spec.label == "kf:8x4"

    def test_parse_spec_errors(self):
        with pytest.raises(ServiceError):
            parse_spec("nonesuch:4")
        with pytest.raises(ServiceError):
            parse_spec("potrf")
        with pytest.raises(ServiceError):
            parse_spec("potrf:banana")

    def test_sweep_requests_expands_and_dedupes(self):
        requests = sweep_requests(["potrf", "potrf:4"])
        labels = [r.label for r in requests]
        assert len(labels) == len(set(labels))
        assert "potrf:4" in labels
        assert all(label.startswith("potrf:") for label in labels)

    def test_all_workloads_resolve(self):
        for name in workload_names():
            request = make_request(f"{name}:4")
            assert request.program is not None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def _run(self, tmp_path, *argv):
        from repro.service.__main__ import main
        return main(["--cache-dir", str(tmp_path)] + list(argv))

    def test_warm_query_ls_purge(self, tmp_path, capsys):
        assert self._run(tmp_path, "warm", "potrf:4") == 0
        out = capsys.readouterr().out
        assert "MISS" in out and "1 entries" not in out

        assert self._run(tmp_path, "query", "potrf:4") == 0
        assert "hit" in capsys.readouterr().out

        assert self._run(tmp_path, "query", "potrf:8") == 1  # miss
        capsys.readouterr()

        assert self._run(tmp_path, "ls") == 0
        assert "potrf:4" in capsys.readouterr().out

        assert self._run(tmp_path, "stats") == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1

        assert self._run(tmp_path, "purge", "--yes") == 0
        assert "purged 1" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "--cache-dir",
             str(tmp_path), "workloads"],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0
        assert "potrf" in result.stdout


# ---------------------------------------------------------------------------
# Satellites: Options.validate and GenerationResult purity
# ---------------------------------------------------------------------------


class TestOptionsValidate:
    def test_valid_options_pass_and_chain(self):
        options = Options()
        assert options.validate() is options

    @pytest.mark.parametrize("kwargs", [
        {"vector_width": 0},
        {"vector_width": -4},
        {"block_size": 0},
        {"max_variants": 0},
        {"unroll_trip_count": 0},
        {"unroll_body_limit": -1},
        {"function_name": "not a C name"},
    ])
    def test_invalid_options_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            Options(**kwargs).validate()

    def test_generate_rejects_invalid_options_early(self):
        case = make_case("potrf", 4)
        generator = SLinGen(Options(max_variants=0))
        with pytest.raises(ConfigurationError):
            generator.generate(case.program)


class TestGenerationResult:
    def test_result_pickles_and_still_runs(self):
        case = make_case("potrf", 4)
        result = SLinGen(_options()).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        clone = pickle.loads(pickle.dumps(result))
        assert isinstance(clone, GenerationResult)
        inputs = case.make_inputs(seed=11)
        assert np.allclose(
            np.triu(clone.run(inputs)["U"]),
            np.triu(result.run(inputs)["U"]))

    def test_generate_wraps_result(self):
        case = make_case("potrf", 4)
        generator = SLinGen(_options())
        generated = generator.generate(case.program,
                                       nominal_flops=case.nominal_flops)
        assert generated.program is case.program
        assert generated.summary()["program"] == "potrf_4"


class TestStatsAccounting:
    def test_mixed_batch_hit_latency_not_charged_generation_time(self):
        service = KernelService(store=MemoryKernelStore(), options=_options())
        warm_req = make_request("potrf:4", options=_options())
        service.generate(warm_req)                     # prime one entry
        cold_req = make_request("trlya:12", options=_options())
        responses = service.generate_many([warm_req, cold_req])
        hit, miss = responses
        assert hit.cache_hit and not miss.cache_hit
        # The hit resolved during the first store pass; its latency must not
        # include the miss's generation time.
        assert hit.latency_s < miss.latency_s / 10

    def test_errors_counter_increments_on_failure(self, monkeypatch):
        from repro.service import service as service_mod
        service = KernelService(store=MemoryKernelStore(), options=_options())

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic generation failure")

        monkeypatch.setattr(service_mod, "_generate_payload", boom)
        with pytest.raises(RuntimeError):
            service.generate(make_request("potrf:4", options=_options()))
        assert service.stats.errors == 1
        with pytest.raises(RuntimeError):
            service.generate_many(
                [make_request("trtri:4", options=_options())],
                parallel=False)
        assert service.stats.errors == 2


# ---------------------------------------------------------------------------
# Single-flight coalescing (concurrent generate() races)
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def _slow_counting_payload(self, monkeypatch, delay_s=0.05):
        """Instrument _generate_payload with a call counter and a delay
        wide enough that racing threads genuinely overlap."""
        import threading

        from repro.service import service as service_mod

        real = service_mod._generate_payload
        calls = []
        lock = threading.Lock()

        def counting(*args, **kwargs):
            with lock:
                calls.append(threading.get_ident())
            time.sleep(delay_s)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "_generate_payload", counting)
        return calls

    def test_hammering_one_key_generates_exactly_once(self, monkeypatch):
        import threading

        calls = self._slow_counting_payload(monkeypatch)
        service = KernelService(store=MemoryKernelStore(), options=_options())
        clients = 16
        barrier = threading.Barrier(clients)
        responses = [None] * clients

        def client(idx):
            request = make_request("potrf:4", options=_options())
            barrier.wait()
            responses[idx] = service.generate(request)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1
        assert service.stats.generations == 1
        # Every thread got the identical result object via the in-flight
        # future (not a reload), and followers are marked coalesced.
        leader_result = responses[0].result
        assert all(r.result is leader_result for r in responses)
        flags = sorted(r.coalesced for r in responses)
        assert flags == [False] + [True] * (clients - 1)
        assert all(not r.cache_hit for r in responses)
        snap = service.stats.snapshot()
        assert snap["requests"] == snap["hits"] + snap["misses"]
        assert snap["misses"] == snap["generations"] + snap["coalesced"]
        assert snap["coalesced"] == clients - 1

    def test_disabled_single_flight_duplicates_generations(self, monkeypatch):
        import threading

        calls = self._slow_counting_payload(monkeypatch)
        service = KernelService(store=MemoryKernelStore(), options=_options(),
                                single_flight=False)
        clients = 4
        barrier = threading.Barrier(clients)

        def client():
            request = make_request("potrf:4", options=_options())
            barrier.wait()
            service.generate(request)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All threads overlap inside the slow payload, so every one of them
        # misses and generates independently.
        assert len(calls) == clients
        assert service.stats.generations == clients

    def test_leader_failure_propagates_to_all_waiters(self, monkeypatch):
        import threading

        from repro.service import service as service_mod

        started = threading.Event()

        def boom(*args, **kwargs):
            started.set()
            time.sleep(0.05)
            raise RuntimeError("synthetic generation failure")

        monkeypatch.setattr(service_mod, "_generate_payload", boom)
        service = KernelService(store=MemoryKernelStore(), options=_options())
        clients = 6
        barrier = threading.Barrier(clients)
        outcomes = [None] * clients

        def client(idx):
            request = make_request("potrf:4", options=_options())
            barrier.wait()
            try:
                service.generate(request)
            except RuntimeError as exc:
                outcomes[idx] = str(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o == "synthetic generation failure" for o in outcomes)
        assert service.stats.errors == clients
        # The failed flight retired its key: a later request starts fresh.
        assert len(service._flight) == 0

    def test_sequential_requests_do_not_coalesce(self):
        service = KernelService(store=MemoryKernelStore(), options=_options())
        first = service.generate(make_request("potrf:4", options=_options()))
        second = service.generate(make_request("potrf:4", options=_options()))
        assert not first.coalesced and not first.cache_hit
        assert not second.coalesced and second.cache_hit


# ---------------------------------------------------------------------------
# Sharded disk store: one record file per kernel
# ---------------------------------------------------------------------------


class TestShardedStore:
    def test_layout_is_two_level_fanout(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path))
        result = _result_for("potrf:4")
        key = "ab" + "0" * 62
        store.put(key, result)
        assert os.path.isfile(tmp_path / "ab" / (key + ".kernel"))
        assert store.get(key) is not None

    def test_purge_spares_non_key_directories(self, tmp_path):
        foreign = tmp_path / "OLD_potrf"
        foreign.mkdir()
        (foreign / "meta.json").write_text("{}")
        store = DiskKernelStore(root=str(tmp_path))
        key = "ab" + "0" * 62
        store.put(key, _result_for("potrf:4"))
        assert store.purge() == 1
        assert store.keys() == []
        assert not (tmp_path / "ab" / (key + ".kernel")).exists()
        assert foreign.is_dir()

    def test_migration_ignores_uncommitted_debris(self, tmp_path):
        debris = tmp_path / ("cc" + "3" * 62)
        debris.mkdir()
        (debris / "payload.pkl").write_bytes(b"torn write, no meta")
        store = DiskKernelStore(root=str(tmp_path))
        assert store.keys() == []
        assert debris.exists()          # left in place, never listed

    def test_old_layout_entries_read_as_misses(self, tmp_path):
        # A directory-per-entry root from before the one-file records:
        # the entry is skipped by the scans, misses, regenerates next to
        # the old directory and survives a purge for the operator to
        # delete.
        key = "ab" + "5" * 62
        old = tmp_path / "ab" / key
        old.mkdir(parents=True)
        (old / "meta.json").write_text(json.dumps({"key": key}))
        (old / "payload.pkl").write_bytes(
            pickle.dumps(_result_for("potrf:4")))
        store = DiskKernelStore(root=str(tmp_path))
        assert store.keys() == []
        assert store.get(key) is None
        assert store.metadata(key) is None
        store.put(key, _result_for("potrf:4"))
        assert store.keys() == [key]
        assert store.get(key) is not None
        assert store.purge() == 1
        assert old.is_dir()
        assert store.stats()["corrupt_dropped"] == 0

    def test_corrupt_entry_recovers_under_sharded_layout(self, tmp_path):
        store = DiskKernelStore(root=str(tmp_path), hot_capacity=0)
        result = _result_for("potrf:4")
        key = "dd" + "4" * 62
        store.put(key, result)
        record = tmp_path / "dd" / (key + ".kernel")
        record.write_bytes(b"\x80corrupt")
        assert store.get(key) is None
        assert store.stats()["corrupt_dropped"] == 1
        assert not record.exists()                    # quarantined
        # The shard directory itself survives for its siblings.
        store.put(key, result)
        assert store.get(key) is not None

    def test_eviction_order_is_stable_under_frozen_mtimes(self, tmp_path):
        # On coarse-mtime filesystems (1 s resolution) same-second
        # entries all carry the same LRU stamp; eviction order must then
        # fall back to key order, not directory-listing order.
        store = DiskKernelStore(root=str(tmp_path), max_entries=None,
                                hot_capacity=0)
        result = _result_for("potrf:4")
        keys = ["cc" + "3" * 62, "aa" + "1" * 62, "bb" + "2" * 62]
        for key in keys:
            store.put(key, result)
        frozen = 1_700_000_000
        for key in keys:
            os.utime(store._store.path(key), (frozen, frozen))
        bounded = DiskKernelStore(root=str(tmp_path), max_entries=2,
                                  hot_capacity=0)
        newest = "ee" + "5" * 62
        bounded.put(newest, result)
        # the two lexicographically smallest keys are the deterministic
        # victims, in key order
        assert bounded.keys() == [keys[0], newest]
        assert bounded.stats()["evictions"] == 2
