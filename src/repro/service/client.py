"""Stdlib HTTP client for the kernel-service daemon.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over ``http.client`` -- no dependencies
beyond the standard library, so any Python process (a build system, a
notebook, a load generator) can request kernels from a running daemon:

    >>> with ServiceClient("http://127.0.0.1:8177") as client:
    ...     client.wait_healthy()
    ...     doc = client.generate(spec="potrf:4")
    ...     out = client.run(spec="potrf:4", backend="numpy")
    >>> doc["cache_hit"], doc["key"][:12], len(doc["c_code"])
    >>> out["outputs"]["U"]          # nested lists, row-major

The work routes (``POST /generate``, ``POST /run``) keep one HTTP/1.1
connection per calling thread, so a request pays no TCP connect and no
fresh server handler thread; under a worker pool they stay on the
worker that accepted the connection.  Both routes are content-addressed
and idempotent, so a request that finds its *reused* connection stale
(the daemon restarted, closed it idle, or its worker died) is sent once
more on a fresh connection; a fresh connection that fails raises.
``GET /healthz`` and ``GET /stats`` open a fresh connection per call, so
repeated calls sample every worker of a pool.  :meth:`ServiceClient.close`
(or leaving a ``with`` block) closes the kept connections.

Server-reported errors (HTTP 4xx/5xx with a JSON ``{"error": ...}`` body)
raise :class:`~repro.errors.ServiceError` carrying the status code and the
daemon's message; a ``503 server busy`` is retried ``busy_retries`` times
with decorrelated-jitter backoff before giving up, so a briefly
saturated daemon looks slow, not broken -- and a herd of clients that
all hit 503 together does not re-stampede it in lockstep.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
import weakref
from typing import Dict, Optional, Tuple

from ..errors import ServiceError

#: How a kept connection fails when its peer went away between requests
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE = (ConnectionResetError, BrokenPipeError)


class _Connection(http.client.HTTPConnection):
    """A connection that closes its socket when dropped unclosed: by a
    thread that has ended, or with a client nobody closed."""

    def __del__(self) -> None:
        self.close()


class ServiceClient:
    """A thin JSON client bound to one daemon base URL."""

    def __init__(self, base_url: str, timeout: float = 120.0,
                 busy_retries: int = 12, busy_backoff_s: float = 0.05,
                 busy_backoff_cap_s: float = 1.0,
                 jitter_seed: Optional[int] = None):
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(f"kernel server URL must be "
                               f"http://host[:port], got {base_url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self._prefix = parts.path
        self.timeout = timeout
        self.busy_retries = busy_retries
        self.busy_backoff_s = busy_backoff_s
        self.busy_backoff_cap_s = busy_backoff_cap_s
        # Decorrelated jitter (seedable so tests can pin the schedule):
        # each 503 sleeps uniform(base, 3 * previous_sleep), capped.
        self._rng = random.Random(jitter_seed)
        # Each thread's kept connection; the set lets close() reach them
        # all and forgets those of threads that have ended.
        self._local = threading.local()
        self._kept: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._kept_lock = threading.Lock()

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        attempts = self.busy_retries + 1
        delay = self.busy_backoff_s
        for attempt in range(attempts):
            status, reason, payload = self._send(method, path, data)
            if status < 400:
                return json.loads(payload.decode("utf-8"))
            if status == 503 and attempt + 1 < attempts:
                time.sleep(delay)
                delay = min(self.busy_backoff_cap_s,
                            self._rng.uniform(self.busy_backoff_s,
                                              3.0 * delay))
                continue
            raise ServiceError(
                f"{method} {path} failed with HTTP {status}: "
                f"{self._error_detail(payload, reason)}")
        raise ServiceError(f"{method} {path}: retries exhausted"
                           )  # pragma: no cover - loop always returns/raises

    def _send(self, method: str, path: str, data: Optional[bytes]
              ) -> Tuple[int, str, bytes]:
        """One exchange: POSTs on this thread's kept connection (resent
        once on a fresh one if it was reused and went stale), GETs on a
        fresh connection closed after the answer."""
        keep = method == "POST"
        conn = self._connection() if keep else self._connect()
        retry = keep and conn.sock is not None
        headers = {"Content-Type": "application/json"}
        if not keep:
            headers["Connection"] = "close"
        try:
            while True:
                try:
                    conn.request(method, self._prefix + path, body=data,
                                 headers=headers)
                    with conn.getresponse() as reply:
                        return reply.status, reply.reason, reply.read()
                except _STALE:
                    conn.close()
                    if not retry:
                        raise
                    retry = False
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServiceError(f"cannot reach kernel server at "
                               f"{self.base_url}: {exc}") from exc
        finally:
            if not keep:
                conn.close()

    def _connect(self) -> _Connection:
        return _Connection(*self._address, timeout=self.timeout)

    def _connection(self) -> _Connection:
        """This thread's kept connection (it connects on first use and
        again after a close)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            with self._kept_lock:
                self._kept.add(conn)
        return conn

    def close(self) -> None:
        """Close every thread's kept connection; a later request opens a
        fresh one.  A request in flight on another thread fails."""
        with self._kept_lock:
            kept = list(self._kept)
        for conn in kept:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _error_detail(payload: bytes, reason: str) -> str:
        try:
            doc = json.loads(payload.decode("utf-8"))
            return str(doc.get("error", doc))
        except Exception:
            return reason or "unknown error"

    # -- monitoring ----------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/stats")

    def wait_healthy(self, timeout: float = 10.0,
                     interval: float = 0.05) -> Dict[str, object]:
        """Poll ``/healthz`` until the daemon answers (or raise)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    # -- work ----------------------------------------------------------------

    def generate(self, spec: Optional[str] = None,
                 source: Optional[str] = None,
                 constants: Optional[Dict[str, int]] = None,
                 name: Optional[str] = None,
                 nominal_flops: Optional[float] = None,
                 scalar: bool = False,
                 include_code: bool = True) -> Dict[str, object]:
        """``POST /generate``: generate (or cache-hit) one kernel."""
        return self._request("POST", "/generate", self._body(
            spec, source, constants, name, nominal_flops, scalar,
            include_code=include_code))

    def run(self, spec: Optional[str] = None,
            source: Optional[str] = None,
            constants: Optional[Dict[str, int]] = None,
            name: Optional[str] = None,
            nominal_flops: Optional[float] = None,
            scalar: bool = False,
            backend: str = "numpy",
            inputs: Optional[Dict[str, object]] = None,
            seed: Optional[int] = None) -> Dict[str, object]:
        """``POST /run``: generate (or hit) and execute one kernel.

        ``inputs`` maps operand names to nested lists (or anything
        ``np.asarray`` accepts on the server); omitted operands are
        synthesized deterministically from ``seed``.
        """
        body = self._body(spec, source, constants, name, nominal_flops,
                          scalar)
        body["backend"] = backend
        if inputs is not None:
            body["inputs"] = inputs
        if seed is not None:
            body["seed"] = seed
        return self._request("POST", "/run", body)

    @staticmethod
    def _body(spec, source, constants, name, nominal_flops, scalar,
              **extra) -> Dict[str, object]:
        body: Dict[str, object] = dict(extra)
        if spec is not None:
            body["spec"] = spec
        if source is not None:
            body["source"] = source
        if constants is not None:
            body["constants"] = constants
        if name is not None:
            body["name"] = name
        if nominal_flops is not None:
            body["nominal_flops"] = nominal_flops
        if scalar:
            body["scalar"] = True
        return body
