"""The kernel-service HTTP daemon: generation and execution over JSON.

``python -m repro.service serve`` turns one :class:`KernelService` into a
long-running process speaking plain HTTP/JSON -- stdlib only
(``http.server.ThreadingHTTPServer``), so it runs anywhere the generator
does.  Endpoints:

``GET /healthz``
    Liveness: ``{"status": "ok", "uptime_s": ...}``; always served, even
    when the worker admission limit is saturated.
``GET /stats``
    ``{"server": ..., "service": ServiceStats.snapshot(), "store":
    store.stats()}``, plus ``"worker"`` in pool mode and ``"leases"``
    when the service takes cross-process leases.
``POST /generate``
    Body addresses a program either by registry spec (``{"spec":
    "potrf:4"}``) or by raw LA source (``{"source": "...", "constants":
    {"n": 8}, "name": ..., "nominal_flops": ...}``); optional ``"scalar":
    true`` generates without vectorization.  Answer carries the content
    key, hit/coalesced/tuned flags, the emitted C, and the performance
    estimate.
``POST /run``
    Same program addressing plus ``"backend"`` (``numpy`` default, or
    ``interpreter``/``compiled``), optional ``"inputs"`` (operand name ->
    nested lists; missing operands are synthesized from ``"seed"``).
    Executes the kernel and returns the outputs as nested lists.

Repeated requests skip the per-request preparation: each server keeps
the :class:`GenerationRequest` every distinct body resolves to, with its
:class:`~repro.service.keys.RequestKeys` (up to
:data:`REQUEST_MEMO_ENTRIES`, keyed by exactly the body fields that
address the program), and the loaded executor per content key and
backend (up to :data:`EXECUTOR_MEMO_ENTRIES`), both LRU under one lock.
A hit thus neither re-parses LA source nor reloads its kernel, and a
``/run`` that supplies every input operand synthesizes none.
``KernelService.generate`` still answers every request, so tuned and
verified lookups, the stats and the store's recency see each one.  Only
the keys are reused: the tuning-DB/fix-bank lookup key always (it
depends on the program, the machine and ``vectorize`` alone), and the
content key while the request's effective options compare equal to a
copy of those it was computed from -- a tuning record written since, or
new fix-bank rewrites, change the options and so re-key.  Nothing
outside the server sees a memoized request, so its program never
changes.  A content key names one kernel's code, so a kept executor
never serves another key's.

Concurrency: every connection is handled on its own thread; identical
concurrent ``/generate`` misses coalesce into one pipeline run via the
service's single-flight layer.  A bounded admission semaphore caps how
many POSTs generate/execute at once -- beyond it the daemon answers
``503 {"error": "server busy", ...}`` immediately instead of queueing
unboundedly, so a load spike degrades to fast retries, not to memory
exhaustion.  ``KernelServer.shutdown()`` (or SIGINT/SIGTERM under the
CLI) stops accepting connections, lets in-flight handlers finish, and
returns from :meth:`KernelServer.serve_forever`.

Connections are HTTP/1.1 keep-alive: one handler thread serves every
request a connection carries.  Once the accept loop stops, the drain
shuts the read side of every open connection, so an idle one ends at
once while an in-flight request still finishes and answers; a
connection left idle for :data:`IDLE_TIMEOUT_S` is closed, so an
abandoned one does not hold its thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..errors import ReproError, ServiceError
from ..ioutil import LruMap
from .keys import RequestKeys
from .service import GenerationRequest, KernelService, ServiceResponse

#: Largest accepted request body; a generation request is a few KB of LA
#: source at most, and /run inputs for paper-sized operands are well under
#: this.  Bounding it keeps a misbehaving client from ballooning the
#: process.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle (or stall mid-request)
#: before its handler thread closes it.
IDLE_TIMEOUT_S = 30.0

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177

#: Distinct program-addressing bodies whose resolved request (and its
#: keys) one server keeps, and executors it keeps loaded per (content
#: key, backend).
REQUEST_MEMO_ENTRIES = 256
EXECUTOR_MEMO_ENTRIES = 64

#: The body fields :func:`_request_from_body` reads; with ``scalar`` (read
#: by :func:`_effective_request_options`) they decide the request.
_REQUEST_FIELDS = ("spec", "source", "constants", "name", "nominal_flops")


def _request_memo_key(doc: Dict[str, object]) -> str:
    """The memo key of the request a body resolves to."""
    fields = [doc.get(field) for field in _REQUEST_FIELDS]
    fields.append(bool(doc.get("scalar")))
    return json.dumps(fields, sort_keys=True)


def _request_from_body(doc: Dict[str, object],
                       options) -> GenerationRequest:
    """Build a service request from a /generate or /run JSON body."""
    spec = doc.get("spec")
    source = doc.get("source")
    if (spec is None) == (source is None):
        raise ServiceError(
            "request body must name a program via exactly one of "
            "'spec' (registry workload, e.g. \"potrf:4\") or "
            "'source' (raw LA text)")
    if spec is not None:
        from .registry import make_request
        return make_request(str(spec), options=options)
    constants = doc.get("constants") or {}
    if not isinstance(constants, dict):
        raise ServiceError("'constants' must be an object of name -> int")
    nominal = doc.get("nominal_flops")
    try:
        sizes = {str(k): int(v) for k, v in constants.items()}
        flops = float(nominal) if nominal is not None else None
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad 'constants'/'nominal_flops' value: {exc}")
    return GenerationRequest.from_source(
        str(source), sizes,
        name=str(doc.get("name") or "la_program"),
        options=options, nominal_flops=flops)


def _effective_request_options(service: KernelService,
                               doc: Dict[str, object]):
    """Per-request option overrides (currently just ``scalar``)."""
    if doc.get("scalar"):
        import dataclasses
        return dataclasses.replace(service.options, vectorize=False)
    return None


def _response_doc(response: ServiceResponse,
                  include_code: bool = True) -> Dict[str, object]:
    perf = response.result.performance
    doc: Dict[str, object] = {
        "key": response.key,
        "label": response.label,
        "cache_hit": response.cache_hit,
        "coalesced": response.coalesced,
        "tuned": response.tuned,
        "verified": response.verified,
        "latency_s": response.latency_s,
        "variant": response.result.variant_label,
        "performance": {
            "cycles": perf.cycles,
            "flops_per_cycle": perf.flops_per_cycle,
            "bottleneck": perf.bottleneck,
        },
    }
    if include_code:
        doc["c_code"] = response.result.c_code
    return doc


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`KernelServer`.

    The server instance is reached through ``self.server.kernel_server``
    (one handler instance exists per connection, on its own thread).
    """

    server_version = "repro-kernel-service/1.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # Headers and body go out in two sends; with Nagle on, a kept-alive
    # connection holds the body until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    @property
    def kernel_server(self) -> "KernelServer":
        return self.server.kernel_server  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if not self.kernel_server.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, doc: Dict[str, object]) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body_length(self) -> Optional[int]:
        """The validated Content-Length, or None when the header is
        malformed or negative.  Never trust it blindly: a negative value
        fed to ``rfile.read`` would block until EOF, pinning the handler
        thread (and its admission slot) forever."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        return length if length >= 0 else None

    def _discard_body(self) -> None:
        """Drain an unprocessed request body so HTTP/1.1 keep-alive stays
        framed (a reply sent with body bytes still on the socket would make
        the next request on the connection parse mid-payload).  Oversized
        or unframeable bodies are not drained; the connection is closed
        instead."""
        length = self._body_length()
        if length is None or length > MAX_BODY_BYTES:
            self.close_connection = True
        elif length:
            self.rfile.read(length)

    def _read_json(self) -> Dict[str, object]:
        length = self._body_length()
        if length is None:
            self.close_connection = True
            raise ServiceError("invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        try:
            doc = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("request body is not valid JSON")
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.kernel_server.health_doc())
        elif path == "/stats":
            self._send_json(200, self.kernel_server.stats_doc())
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}",
                                  "endpoints": ["/healthz", "/stats",
                                                "/generate", "/run"]})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path not in ("/generate", "/run"):
            self._discard_body()
            self._send_json(404, {"error": f"no such endpoint: {path}",
                                  "endpoints": ["/healthz", "/stats",
                                                "/generate", "/run"]})
            return
        server = self.kernel_server
        if not server.admit():
            self._discard_body()
            self._send_json(503, {
                "error": "server busy",
                "max_inflight": server.max_inflight,
                "retry_after_s": 0.05,
            })
            return
        try:
            doc = self._read_json()
            if path == "/generate":
                answer = server.handle_generate(doc)
            else:
                answer = server.handle_run(doc)
            self._send_json(200, answer)
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            server.release()


class _HTTPServer(ThreadingHTTPServer):
    """Tracks its open connections so the drain can end idle ones.

    Handler threads are non-daemon and :meth:`server_close` joins them,
    so the graceful-shutdown promise (in-flight requests finish) is real
    rather than racing process exit."""

    daemon_threads = False

    def __init__(self, *args, **kwargs) -> None:
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        # Called once the accept loop has stopped.  A handler blocked
        # reading the next request sees EOF and ends; one mid-request
        # still writes its answer.  The lock keeps a handler from closing
        # a socket (and freeing its descriptor) under the loop.
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        super().server_close()


class KernelServer:
    """A :class:`KernelService` wrapped in a threaded HTTP daemon.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    which is what the tests and the in-process example use.
    ``max_inflight`` bounds concurrently *admitted* POST work; GETs
    (health, stats) are never gated so monitoring keeps working under
    load.

    ``listen_socket`` adopts an already-bound, already-listening socket
    instead of binding one -- the pre-forked worker pool
    (:mod:`repro.service.pool`) binds once in the parent and every
    worker process serves the inherited socket, so the kernel balances
    accepted connections across workers.  ``worker_info`` (e.g.
    ``{"index": 2, "pid": 4242}``) is stamped into ``/healthz`` and
    ``/stats`` answers so a client can tell which pool member answered.
    """

    def __init__(self, service: Optional[KernelService] = None,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 max_inflight: int = 8, quiet: bool = False,
                 listen_socket=None,
                 worker_info: Optional[Dict[str, object]] = None):
        if max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.service = service if service is not None else KernelService()
        self.max_inflight = max_inflight
        self.quiet = quiet
        self.worker_info = dict(worker_info) if worker_info else None
        # Monotonic clock: uptime must not jump (or go negative) when NTP
        # steps the wall clock.
        self.started_at = time.monotonic()
        self.rejected = 0
        self._admission = threading.BoundedSemaphore(max_inflight)
        self._reject_lock = threading.Lock()
        self._requests: LruMap[Tuple[GenerationRequest, RequestKeys]] = \
            LruMap(REQUEST_MEMO_ENTRIES)
        self._executors: LruMap[object] = LruMap(EXECUTOR_MEMO_ENTRIES)
        self._memo_lock = threading.Lock()
        if listen_socket is not None:
            # Adopt: construct without binding, swap the socket in, and
            # fill the fields server_bind would have set.  getfqdn is
            # deliberately avoided (it can stall on DNS in a worker).
            address = listen_socket.getsockname()
            self.httpd = _HTTPServer(
                address[:2], _Handler, bind_and_activate=False)
            self.httpd.socket.close()
            self.httpd.socket = listen_socket
            self.httpd.server_address = address[:2]
            self.httpd.server_name = str(address[0])
            self.httpd.server_port = int(address[1])
        else:
            self.httpd = _HTTPServer((host, port), _Handler)
        self.httpd.kernel_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- addressing ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- admission -----------------------------------------------------------

    def admit(self) -> bool:
        """Try to take one worker slot; False answers 503."""
        if self._admission.acquire(blocking=False):
            return True
        with self._reject_lock:
            self.rejected += 1
        return False

    def release(self) -> None:
        self._admission.release()

    # -- endpoint bodies -----------------------------------------------------

    def health_doc(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "status": "ok",
            "uptime_s": time.monotonic() - self.started_at,
            "max_inflight": self.max_inflight}
        if self.worker_info is not None:
            doc["worker"] = self.worker_info
        return doc

    def stats_doc(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "server": {
                "uptime_s": time.monotonic() - self.started_at,
                "max_inflight": self.max_inflight,
                "rejected": self.rejected,
            },
            "service": self.service.stats.snapshot(),
        }
        if self.worker_info is not None:
            # Pre-forked pool: counters above are *this worker's*.  The
            # kernel balances accepted connections and ServiceClient
            # opens a fresh one per GET, so repeated GETs sample the
            # pool; sum per-pid samples for pool totals.
            doc["worker"] = self.worker_info
        leases = getattr(self.service, "leases", None)
        if leases is not None:
            doc["leases"] = leases.stats()
        doc["store"] = self.service.store.stats()
        return doc

    def handle_generate(self, doc: Dict[str, object]) -> Dict[str, object]:
        response = self._generate(doc)
        return _response_doc(
            response, include_code=bool(doc.get("include_code", True)))

    def handle_run(self, doc: Dict[str, object]) -> Dict[str, object]:
        backend = str(doc.get("backend") or "numpy")
        response = self._generate(doc)
        kernel = self._executor(response, backend)
        function = response.result.function
        inputs = self._materialize_inputs(function, doc)
        outputs = kernel.run(inputs)
        answer = _response_doc(response, include_code=False)
        answer["backend"] = backend
        answer["outputs"] = {name: np.asarray(value).tolist()
                             for name, value in sorted(outputs.items())}
        return answer

    def _generate(self, doc: Dict[str, object]) -> ServiceResponse:
        """Answer the body's program through the service.  The request a
        body resolves to, with its keys, is memoized once the service has
        answered it, so a malformed or failing body is resolved afresh
        every time."""
        memo_key = _request_memo_key(doc)
        with self._memo_lock:
            memo = self._requests.get(memo_key)
        if memo is not None:
            return self.service.generate(*memo)
        request = _request_from_body(
            doc, _effective_request_options(self.service, doc))
        keys = self.service.request_keys(request)
        response = self.service.generate(request, keys)
        with self._memo_lock:
            self._requests.insert(memo_key, (request, keys))
        return response

    def _executor(self, response: ServiceResponse, backend: str):
        """The response's kernel on ``backend``, loaded once per content
        key.  The interpreter keeps per-run state on itself, so it is
        never shared between requests."""
        if backend == "interpreter":
            return response.kernel(backend)
        memo_key = f"{response.key}/{backend}"
        with self._memo_lock:
            kernel = self._executors.get(memo_key)
        if kernel is None:
            kernel = response.kernel(backend)
            with self._memo_lock:
                self._executors.insert(memo_key, kernel)
        return kernel

    def _materialize_inputs(self, function, doc: Dict[str, object]
                            ) -> Dict[str, np.ndarray]:
        """The kernel's input arrays: client-supplied where given,
        synthesized (seeded, numerically well-posed) otherwise."""
        from ..tuning.measure import synthesize_inputs
        raw_seed = doc.get("seed")
        try:
            seed = 17 if raw_seed is None else int(raw_seed)
        except (TypeError, ValueError):
            raise ServiceError(f"bad 'seed' value {raw_seed!r}")
        supplied = doc.get("inputs") or {}
        if not isinstance(supplied, dict):
            raise ServiceError("'inputs' must be an object of "
                               "operand name -> nested lists")
        shapes = {buf.name: (buf.rows, buf.cols) for buf in function.params
                  if buf.kind in ("in", "inout")}
        inputs = ({} if supplied.keys() >= shapes.keys()
                  else synthesize_inputs(function, seed=seed))
        for name, value in supplied.items():
            if name not in shapes:
                raise ServiceError(
                    f"unknown input operand {name!r}; expected one of "
                    f"{', '.join(sorted(shapes))}")
            try:
                array = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ServiceError(f"input {name!r} is not a numeric "
                                   f"array: {exc}")
            if array.shape != shapes[name]:
                raise ServiceError(
                    f"input {name!r} has shape {array.shape}, expected "
                    f"{shapes[name]}")
            inputs[name] = array
        return inputs

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` is called (blocking)."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()

    def start_background(self) -> "KernelServer":
        """Serve on a daemon thread (for tests and in-process embedding)."""
        if self._thread is not None:
            raise ServiceError("server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever,
            name=f"kernel-server:{self.port}", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the accept loop and close idle connections; in-flight
        handlers run to completion."""
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "KernelServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
