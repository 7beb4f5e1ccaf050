"""Tests for the HTTP serving layer: a live ``ThreadingHTTPServer`` on an
ephemeral port, exercised through :class:`ServiceClient` and raw urllib."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.service.server as server_module
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
    with ServiceClient(server.url, timeout=60.0) as live:
        yield live


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


@pytest.fixture()
def connections(monkeypatch):
    """Counts the connections every server in the test accepts (one
    handler instance, hence one ``setup``, per connection)."""
    opened = []
    setup = server_module._Handler.setup

    def counting_setup(handler):
        opened.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(server_module._Handler, "setup", counting_setup)
    return opened


@pytest.fixture()
def connects(monkeypatch):
    """Counts the TCP connects every client in the test makes."""
    made = []
    connect = http.client.HTTPConnection.connect

    def counting_connect(conn):
        made.append(conn)
        connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        counting_connect)
    return made


def _new_server(port=0):
    service = KernelService(store=MemoryKernelStore(), options=_options())
    return KernelServer(service, port=port, quiet=True).start_background()


class TestKeepAlive:
    def test_posts_of_one_client_share_one_connection(self, server,
                                                      connections):
        client = ServiceClient(server.url)
        client.generate(spec="potrf:4", include_code=False)
        client.run(spec="potrf:4")
        client.generate(spec="potrf:4", include_code=False)
        assert len(connections) == 1
        client.close()

    def test_each_thread_of_a_shared_client_has_its_own_connection(
            self, server, connections):
        client = ServiceClient(server.url)
        client.generate(spec="potrf:4", include_code=False)
        threads = 3
        barrier = threading.Barrier(threads)
        local_ports = []

        def work():
            barrier.wait()
            for _ in range(2):
                client.generate(spec="potrf:4", include_code=False)
            local_ports.append(
                client._connection().sock.getsockname()[1])
            barrier.wait()  # every connection stays open until all ran

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert len(connections) == 1 + threads
        assert len(set(local_ports)) == threads
        client.close()

    def test_sequential_hits_on_one_connection_are_fast(self, server,
                                                        connections):
        # The reply goes out as two sends (headers, body); without
        # TCP_NODELAY on the server each hit waits ~40 ms for the
        # client's delayed ACK.
        client = ServiceClient(server.url)
        client.generate(spec="potrf:4", include_code=False)
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            assert client.generate(spec="potrf:4",
                                   include_code=False)["cache_hit"]
            latencies.append(time.perf_counter() - started)
        assert len(connections) == 1
        assert statistics.median(latencies) < 0.020
        client.close()

    def test_stats_and_healthz_take_a_fresh_connection_each(
            self, server, connections):
        client = ServiceClient(server.url)
        client.healthz()
        client.stats()
        client.stats()
        assert len(connections) == 3

    def test_stale_connection_to_a_restarted_server_is_retried_once(
            self, connections, connects):
        first = _new_server()
        port = first.port
        client = ServiceClient(first.url)
        client.generate(spec="potrf:4", include_code=False)
        first.shutdown()
        second = _new_server(port=port)
        before = len(connects)
        try:
            doc = client.generate(spec="potrf:4", include_code=False)
            assert doc["key"]
            # The kept connection was stale: one fresh connect, no more.
            assert len(connects) == before + 1
            assert len(connections) == 2
        finally:
            client.close()
            second.shutdown()

    def test_failed_fresh_connect_raises_without_retry(self, connects):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.generate(spec="potrf:4")
        assert len(connects) == 1

    def test_fresh_connection_dropped_by_the_peer_is_not_retried(
            self, connects):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()

            def drop():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)  # the request, left unanswered

            dropper = threading.Thread(target=drop, daemon=True)
            dropper.start()
            port = listener.getsockname()[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2)
            with pytest.raises(ServiceError, match="cannot reach"):
                client.generate(spec="potrf:4")
            dropper.join(timeout=10)
            assert not dropper.is_alive()
        assert len(connects) == 1

    def test_close_and_context_manager_release_connections(self, server):
        with ServiceClient(server.url) as client:
            client.generate(spec="potrf:4", include_code=False)
            conn = client._connection()
            assert conn.sock is not None
        assert conn.sock is None
        # Still usable: the next POST connects afresh.
        assert client.generate(spec="potrf:4", include_code=False)["key"]
        client.close()


class TestDrain:
    def test_shutdown_is_prompt_with_an_idle_kept_connection(self):
        server = _new_server()
        client = ServiceClient(server.url)
        client.generate(spec="potrf:4", include_code=False)
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 1.0
        with pytest.raises(ServiceError, match="cannot reach"):
            client.generate(spec="potrf:4", include_code=False)


@pytest.fixture()
def parses(monkeypatch):
    """Counts LA parses, from registry specs and raw source alike."""
    from repro.la.parser import Parser
    made = []
    parse = Parser.parse

    def counting_parse(parser):
        made.append(parser)
        return parse(parser)

    monkeypatch.setattr(Parser, "parse", counting_parse)
    return made


@pytest.fixture()
def executors(monkeypatch):
    """Counts the executors built, as (function name, backend) pairs."""
    import repro.backend as backend_module
    built = []
    make = backend_module.make_executor

    def counting_make(function, backend="auto", **kwargs):
        built.append((function.name, backend))
        return make(function, backend=backend, **kwargs)

    monkeypatch.setattr(backend_module, "make_executor", counting_make)
    return built


_GEMV = """
Mat A(n, n) <In>;
Vec x(n) <In>;
Vec y(n) <Out>;
y = A * x;
"""


def _case_inputs(spec, seed):
    """A case's seeded inputs as JSON lists, and its reference outputs."""
    from repro.service import build_case, parse_spec
    case = build_case(parse_spec(spec))
    inputs = case.make_inputs(seed)
    return ({name: value.tolist() for name, value in inputs.items()},
            case.reference_outputs(inputs), case.checked_outputs)


def _assert_matches_reference(outputs, expected, checked):
    for name, mode in checked.items():
        got, want = np.asarray(outputs[name]), expected[name]
        if mode == "lower":
            got, want = np.tril(got), np.tril(want)
        elif mode == "upper":
            got, want = np.triu(got), np.triu(want)
        np.testing.assert_allclose(got, want, atol=1e-7)


class TestHotPath:
    """A server keeps the request each body resolves to and the executor
    of each (key, backend); the service still answers every request."""

    def test_repeated_runs_parse_once_and_load_each_executor_once(
            self, server, client, parses, executors):
        inputs, expected, checked = _case_inputs("potrf:4", 3)
        parses.clear()  # building the reference case parsed once
        answers = [client.run(spec="potrf:4", backend=backend,
                              inputs=inputs)
                   for backend in ("numpy", "compiled") for _ in range(20)]
        assert len(parses) == 1
        assert sorted(executors) == [("potrf_4_kernel", "compiled"),
                                     ("potrf_4_kernel", "numpy")]
        assert sum(doc["cache_hit"] for doc in answers) == 39
        assert server.service.stats.requests == 40
        for doc in answers:
            assert doc["outputs"] == answers[0]["outputs"]
        _assert_matches_reference(answers[0]["outputs"], expected, checked)
        assert (len(server._requests), len(server._executors)) == (1, 2)

    def test_repeated_hits_compute_the_content_key_once(
            self, server, client, monkeypatch):
        from repro.service import cache_key as fresh_key
        from repro.service import keys as keys_mod
        calls = []
        monkeypatch.setattr(
            keys_mod, "cache_key",
            lambda *a, **k: calls.append(a) or fresh_key(*a, **k))
        answers = [client.generate(spec="potrf:4", include_code=False)
                   for _ in range(20)]
        answers += [client.run(spec="potrf:4", backend="numpy")
                    for _ in range(20)]
        assert len(calls) == 1
        assert sum(doc["cache_hit"] for doc in answers) == 39
        request, _ = server._requests.get(
            server_module._request_memo_key({"spec": "potrf:4"}))
        assert {doc["key"] for doc in answers} == {fresh_key(
            request.program, server.service.options, server.service.machine,
            nominal_flops=request.nominal_flops)}

    def test_mutating_a_memoized_requests_options_rekeys(self, server,
                                                         client):
        from repro.service import cache_key
        body = {"spec": "potrf:4", "scalar": True, "include_code": False}
        first = client.generate(**body)
        assert client.generate(**body)["cache_hit"]
        request, _ = server._requests.get(
            server_module._request_memo_key(body))
        request.options.unroll_trip_count = 4
        mutated = client.generate(**body)
        assert not mutated["cache_hit"] and mutated["key"] != first["key"]
        assert mutated["key"] == cache_key(
            request.program, request.options, server.service.machine,
            nominal_flops=request.nominal_flops)

    def test_a_tuning_record_written_after_a_hit_is_served(self, tmp_path):
        from repro.service import cache_key, make_request
        from repro.tuning import TuningDB, TuningRecord, tuning_key
        db = TuningDB(root=str(tmp_path / "tuning"))
        service = KernelService(store=MemoryKernelStore(), options=_options(),
                                tuning_db=db)
        with KernelServer(service, port=0, quiet=True) as live, \
                ServiceClient(live.url, timeout=60.0) as client:
            client.generate(spec="potrf:4", include_code=False)
            plain = client.run(spec="potrf:4", backend="numpy")
            assert plain["cache_hit"] and not plain["tuned"]
            program = make_request("potrf:4").program
            record = TuningRecord(
                key="", program_name=program.name, label="potrf:4",
                strategy="exhaustive", backend="model", unit="cycles",
                budget=1, seed=0, evaluations=1, best_label="v0",
                best_score=1.0, baseline_score=1.0,
                options={"unroll_trip_count": 4}, stage1_variants={})
            db.put(tuning_key(program, service.machine), record)
            tuned = client.run(spec="potrf:4", backend="numpy")
            assert tuned["tuned"] and tuned["key"] != plain["key"]
            assert tuned["key"] == cache_key(
                program, record.apply(_options()), service.machine,
                nominal_flops=make_request("potrf:4").nominal_flops)
            again = client.generate(spec="potrf:4", include_code=False)
            assert again["cache_hit"] and again["tuned"]
            assert again["key"] == tuned["key"]

    def test_bodies_differing_in_name_constants_or_scalar_stay_apart(
            self, server, client, parses):
        base = {"source": _GEMV, "constants": {"n": 4}, "name": "gemv_a"}
        bodies = [base, dict(base, name="gemv_b"),
                  dict(base, constants={"n": 5}), dict(base, scalar=True)]
        first = [client.generate(include_code=False, **body)
                 for body in bodies]
        again = [client.generate(include_code=False, **body)
                 for body in bodies]
        assert len(parses) == len(bodies)
        assert len({doc["key"] for doc in first}) == len(bodies)
        assert [doc["key"] for doc in again] == [doc["key"]
                                                 for doc in first]
        assert [doc["label"] for doc in again] == \
            ["gemv_a", "gemv_b", "gemv_a", "gemv_a"]
        assert len(server._requests) == len(bodies)

    def test_a_malformed_body_is_not_memoized(self, server, client,
                                              parses):
        body = {"source": "Mat A(n, n) <In>;\nA = ;", "constants": {"n": 4}}
        for _ in range(3):
            with pytest.raises(ServiceError, match="400"):
                client.generate(**body)
        assert len(parses) == 3
        assert len(server._requests) == 0

    @pytest.mark.parametrize("backend", ["numpy", "compiled"])
    def test_threads_sharing_executors_each_get_their_own_answers(
            self, server, backend):
        specs = ("potrf:8", "gemm:8")
        client = ServiceClient(server.url, timeout=60.0)
        for spec in specs:
            client.run(spec=spec, backend=backend)
        threads, rounds = 4, 25
        cases = {(thread, spec): _case_inputs(spec, 100 + thread)
                 for thread in range(threads) for spec in specs}
        answers = {key: [] for key in cases}
        barrier = threading.Barrier(threads)

        def work(thread):
            barrier.wait()
            for index in range(rounds):
                spec = specs[index % len(specs)]
                inputs = cases[thread, spec][0]
                answers[thread, spec].append(client.run(
                    spec=spec, backend=backend, inputs=inputs)["outputs"])

        workers = [threading.Thread(target=work, args=(thread,))
                   for thread in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
        client.close()
        assert sum(map(len, answers.values())) == threads * rounds
        for key, outputs in answers.items():
            _, expected, checked = cases[key]
            for doc in outputs:
                _assert_matches_reference(doc, expected, checked)
        assert len(server._executors) == len(specs)

    def test_an_omitted_operand_gets_the_seeded_synthesized_value(
            self, server, client):
        from repro.service import make_request
        from repro.tuning.measure import synthesize_inputs
        supplied = np.arange(16, dtype=np.float64).reshape(4, 4)
        doc = client.run(spec="gemm:4", backend="numpy", seed=5,
                         inputs={"A": supplied.tolist()})
        response = server.service.generate(make_request("gemm:4"))
        function = response.result.function
        expected_inputs = synthesize_inputs(function, seed=5)
        assert set(expected_inputs) == {"A", "B", "C"}
        expected_inputs["A"] = supplied
        expected = response.kernel("numpy").run(expected_inputs)
        np.testing.assert_array_equal(np.asarray(doc["outputs"]["C"]),
                                      expected["C"])
