"""Tests for the HTTP serving layer: a live ``ThreadingHTTPServer`` on an
ephemeral port, exercised through :class:`ServiceClient` and raw urllib."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import (KernelServer, KernelService, MemoryKernelStore,
                           ServiceClient)
from repro.slingen import Options


def _options():
    return Options(max_variants=4, annotate_code=False)


@pytest.fixture()
def server():
    service = KernelService(store=MemoryKernelStore(), options=_options())
    with KernelServer(service, port=0, quiet=True) as live:
        yield live


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=60.0)


class TestEndpoints:
    def test_healthz(self, client):
        doc = client.wait_healthy(timeout=10)
        assert doc["status"] == "ok"
        assert doc["uptime_s"] >= 0
        assert doc["max_inflight"] == 8

    def test_uptime_uses_the_monotonic_clock(self, server, client):
        # An NTP step of the wall clock must not make uptime jump or go
        # negative: started_at has to come from time.monotonic() (whose
        # epoch is boot-ish, far away from time.time()'s 1970 epoch).
        import time as time_mod
        assert abs(time_mod.monotonic() - server.started_at) < 3600
        assert abs(time_mod.time() - server.started_at) > 3600 * 24 * 365
        doc = client.healthz()
        assert 0 <= doc["uptime_s"] < 3600

    def test_generate_miss_then_hit(self, client):
        cold = client.generate(spec="potrf:4")
        assert not cold["cache_hit"]
        assert len(cold["key"]) == 64
        assert "potrf_4" in cold["c_code"]
        assert cold["performance"]["cycles"] > 0
        warm = client.generate(spec="potrf:4")
        assert warm["cache_hit"]
        assert warm["key"] == cold["key"]

    def test_generate_include_code_false(self, client):
        doc = client.generate(spec="potrf:4", include_code=False)
        assert "c_code" not in doc

    def test_generate_from_source(self, client):
        source = """
        Mat A(n, n) <In>;
        Vec x(n) <In>;
        Vec y(n) <Out>;
        y = A * x;
        """
        doc = client.generate(source=source, constants={"n": 4},
                              name="gemv4")
        assert doc["label"] == "gemv4"
        assert "gemv4_kernel" in doc["c_code"]

    def test_generate_scalar_distinct_key(self, client):
        vec = client.generate(spec="potrf:4")
        sca = client.generate(spec="potrf:4", scalar=True)
        assert vec["key"] != sca["key"]
        assert "_mm256" not in sca["c_code"]

    def test_run_numpy_backend_returns_declared_outputs(self, client):
        doc = client.run(spec="potrf:4", backend="numpy")
        assert doc["backend"] == "numpy"
        assert set(doc["outputs"]) == {"U"}
        U = np.asarray(doc["outputs"]["U"])
        assert U.shape == (4, 4)
        assert np.all(np.isfinite(U))

    @pytest.mark.parametrize("spec", ["trtri:4", "gpr:4", "kf:4"])
    def test_run_outputs_are_the_declared_outputs(self, client, spec):
        # Stage-1 temporaries are locals, so /run answers with every
        # writable parameter and that is exactly the LA interface's
        # Out/InOut operands (by storage group: kf's U shares M3).
        from repro.ir.operands import IOType
        from repro.service import make_request
        program = make_request(spec).program
        leaders = program.storage_groups()
        declared = {leaders[name] for name, op in program.operands.items()
                    if op.io in (IOType.OUT, IOType.INOUT)}
        doc = client.run(spec=spec, backend="numpy")
        assert set(doc["outputs"]) == declared

    def test_run_with_client_supplied_inputs(self, client):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        S = (A @ A.T + 4 * np.eye(4))
        doc = client.run(spec="potrf:4", backend="numpy",
                         inputs={"S": S.tolist()})
        U = np.triu(np.asarray(doc["outputs"]["U"]))
        np.testing.assert_allclose(U.T @ U, S, atol=1e-10)

    def test_run_interpreter_backend_agrees_with_numpy(self, client):
        via_numpy = client.run(spec="potrf:4", backend="numpy", seed=5)
        via_interp = client.run(spec="potrf:4", backend="interpreter",
                                seed=5)
        np.testing.assert_allclose(
            np.asarray(via_numpy["outputs"]["U"]),
            np.asarray(via_interp["outputs"]["U"]), atol=1e-12)

    def test_run_seed_zero_is_honored(self, client):
        # seed=0 is a valid seed, not "use the default".
        zero_a = client.run(spec="potrf:4", backend="numpy", seed=0)
        zero_b = client.run(spec="potrf:4", backend="numpy", seed=0)
        default = client.run(spec="potrf:4", backend="numpy")
        assert zero_a["outputs"] == zero_b["outputs"]
        assert zero_a["outputs"] != default["outputs"]

    def test_stats_endpoint_schema(self, client):
        client.generate(spec="potrf:4")
        doc = client.stats()
        assert doc["server"]["max_inflight"] == 8
        svc = doc["service"]
        assert svc["requests"] == svc["hits"] + svc["misses"]
        assert svc["misses"] == svc["generations"] + svc["coalesced"]
        assert doc["store"]["backend"] == "memory"
        # A single-process server exposes neither worker identity nor
        # cross-process lease counters.
        assert "worker" not in doc
        assert "leases" not in doc

    def test_stats_exposes_phase_cache_counters(self, client):
        cold = json.loads(json.dumps(client.stats()))["service"]
        client.generate(spec="potrf:4")
        warm = client.stats()["service"]
        for doc in (cold, warm):
            cache = doc["phase_cache"]
            for counter in ("hits", "misses", "puts"):
                assert isinstance(cache[counter], int)
                assert cache[counter] >= 0
            assert isinstance(cache["per_phase"], dict)
            for phase, counters in cache["per_phase"].items():
                assert counters["hits"] + counters["misses"] >= 0
        # The generation either ran the staged pipeline (puts grow) or
        # reused memoized phases (hits grow); the counters cannot both
        # stand still across a miss.
        moved = (warm["phase_cache"]["puts"] > cold["phase_cache"]["puts"]
                 or warm["phase_cache"]["hits"]
                 > cold["phase_cache"]["hits"])
        assert moved

    def test_stats_worker_and_lease_blocks(self, tmp_path):
        from repro.service import DiskKernelStore, LeaseManager
        store = DiskKernelStore(root=str(tmp_path / "cache"))
        service = KernelService(store=store, options=_options(),
                                leases=LeaseManager.for_store(store))
        with KernelServer(service, port=0, quiet=True,
                          worker_info={"index": 3, "pid": 4242}) as live:
            doc = live.stats_doc()
            assert doc["worker"] == {"index": 3, "pid": 4242}
            leases = doc["leases"]
            for counter in ("acquired", "adopted", "reaped",
                            "wait_timeouts", "released"):
                assert isinstance(leases[counter], int)
            assert leases["ttl_s"] > 0
            assert leases["root"].endswith(".leases")
            assert live.health_doc()["worker"]["index"] == 3
            json.dumps(doc)  # the whole document must stay JSON-able


class TestErrorPaths:
    def test_unknown_path_404(self, server):
        with pytest.raises(ServiceError, match="404"):
            ServiceClient(server.url)._request("GET", "/nope")

    def test_unknown_workload_400(self, client):
        with pytest.raises(ServiceError, match="unknown workload"):
            client.generate(spec="nosuch:4")

    def test_missing_program_400(self, client):
        with pytest.raises(ServiceError, match="exactly one"):
            client._request("POST", "/generate", {})

    def test_malformed_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/generate", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        assert "JSON" in json.loads(err.value.read())["error"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_invalid_content_length_rejected_not_hung(self, server, length):
        # A negative length must never reach rfile.read (read(-1) blocks
        # until EOF, pinning the handler thread); malformed ones must not
        # crash the handler.  Either way: a 400, then the socket closes.
        import socket

        raw = (f"POST /generate HTTP/1.1\r\nHost: t\r\n"
               f"Content-Length: {length}\r\n\r\n").encode()
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(raw)
            reply = sock.recv(65536)
        assert reply.split(b"\r\n", 1)[0].endswith(b"400 Bad Request")
        assert b"Content-Length" in reply or b"JSON" in reply

    def test_bad_input_shape_400(self, client):
        with pytest.raises(ServiceError, match="shape"):
            client.run(spec="potrf:4", inputs={"S": [[1.0, 2.0]]})

    def test_unknown_input_operand_400(self, client):
        with pytest.raises(ServiceError, match="unknown input operand"):
            client.run(spec="potrf:4", inputs={"Z": [[1.0]]})

    def test_unknown_backend_400(self, client):
        with pytest.raises(ServiceError, match="unknown execution backend"):
            client.run(spec="potrf:4", backend="fortran")

    def test_non_numeric_client_values_400_not_500(self, client):
        # Client-input conversion errors are 400s, not 500s.
        with pytest.raises(ServiceError, match="400"):
            client.generate(source="Vec y(n) <Out>; y = y;",
                            constants={"n": "four"})
        with pytest.raises(ServiceError, match="400"):
            client.run(spec="potrf:4", seed="soon")
        with pytest.raises(ServiceError, match="400"):
            client.run(spec="potrf:4",
                       inputs={"S": [[1.0, 2.0], [3.0]]})  # ragged


class TestAdmission:
    def test_saturated_admission_answers_503(self, server):
        # Deterministically exhaust every worker slot, then POST.
        for _ in range(server.max_inflight):
            assert server.admit()
        try:
            impatient = ServiceClient(server.url, busy_retries=0)
            with pytest.raises(ServiceError, match="503"):
                impatient.generate(spec="potrf:4")
            assert server.rejected >= 1
        finally:
            for _ in range(server.max_inflight):
                server.release()
        # Slots released: the same request now succeeds.
        doc = ServiceClient(server.url).generate(spec="potrf:4")
        assert doc["key"]

    def test_busy_retry_in_client(self, server):
        # Hold every slot briefly on a timer; a retrying client rides it out.
        for _ in range(server.max_inflight):
            assert server.admit()

        def free():
            time.sleep(0.2)
            for _ in range(server.max_inflight):
                server.release()

        threading.Thread(target=free, daemon=True).start()
        patient = ServiceClient(server.url, busy_retries=20,
                                busy_backoff_s=0.05)
        doc = patient.generate(spec="potrf:4")
        assert doc["key"]

    def test_rejected_post_keeps_keepalive_connection_framed(self, server):
        # A 503 must drain the unread body, or the next request on the
        # same HTTP/1.1 connection would be parsed mid-payload.
        import http.client

        body = json.dumps({"spec": "potrf:4"})
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            for _ in range(server.max_inflight):
                assert server.admit()
            try:
                conn.request("POST", "/generate", body=body,
                             headers=headers)
                reply = conn.getresponse()
                assert reply.status == 503
                reply.read()
            finally:
                for _ in range(server.max_inflight):
                    server.release()
            # Same socket: the retry must parse as a fresh request.
            conn.request("POST", "/generate", body=body, headers=headers)
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["key"]
        finally:
            conn.close()

    def test_healthz_not_gated_by_admission(self, server):
        for _ in range(server.max_inflight):
            assert server.admit()
        try:
            doc = ServiceClient(server.url).healthz()
            assert doc["status"] == "ok"
        finally:
            for _ in range(server.max_inflight):
                server.release()


class TestConcurrencyOverHTTP:
    def test_duplicate_posts_coalesce_to_one_generation(self, server):
        from concurrent import futures as cf

        client = ServiceClient(server.url)
        clients = 8
        barrier = threading.Barrier(clients)

        def one(_):
            barrier.wait()
            return client.generate(spec="trtri:8", include_code=False)

        with cf.ThreadPoolExecutor(max_workers=clients) as pool:
            answers = list(pool.map(one, range(clients)))
        assert server.service.stats.generations == 1
        keys = {doc["key"] for doc in answers}
        assert len(keys) == 1
        misses = sum(1 for d in answers if not d["cache_hit"])
        coalesced = sum(1 for d in answers if d["coalesced"])
        assert misses == 1 + coalesced  # one leader, rest coalesced or hits


class TestLifecycle:
    def test_shutdown_releases_port_and_refuses_after(self):
        service = KernelService(store=MemoryKernelStore(),
                                options=_options())
        server = KernelServer(service, port=0, quiet=True)
        server.start_background()
        url = server.url
        assert ServiceClient(url).wait_healthy(timeout=10)["status"] == "ok"
        server.shutdown()
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient(url, timeout=2).healthz()

    def test_rejects_nonpositive_max_inflight(self):
        with pytest.raises(ServiceError, match="max_inflight"):
            KernelServer(KernelService(store=MemoryKernelStore()),
                         port=0, max_inflight=0)
