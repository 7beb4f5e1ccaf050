"""The pre-forked worker pool: N processes, one listening socket.

``ThreadingHTTPServer`` gives the daemon request-level concurrency but
one process and one GIL: the pure-Python generation pipeline serializes.
:class:`WorkerPool` removes that cap the classic pre-fork way -- the
parent binds and listens once, forks ``workers`` child processes, and
every child runs the complete :class:`~repro.service.server.KernelServer`
handler stack, ``accept``-ing from the *inherited* socket.  The kernel
hands each new connection to exactly one blocked worker, so load spreads
across processes with no userspace balancer, no extra port, and no
change to the wire protocol.  It balances connections, not requests:
:class:`~repro.service.client.ServiceClient` keeps one connection per
thread for its POSTs, which stay on one worker, and opens a fresh one
per GET, so repeated ``/stats`` calls sample every worker.

Each worker builds its own :class:`~repro.service.service.KernelService`
**after** the fork (``service_factory``), so no locks, stats, or hot
caches are shared through fork; what workers share is the content-
addressed disk store -- and its cross-process single-flight layer
(:mod:`repro.service.leases`), which keeps a stampede on one cold key at
exactly one generation across the whole pool.

Lifecycle, run by the parent's monitor loop:

* a worker that dies unexpectedly (OOM kill, segfault, bug) is reaped
  and a replacement is forked within one poll interval -- the pool heals
  itself and ``restarts`` counts the incidents;
* ``shutdown()`` (SIGTERM/SIGINT under the CLI) drains gracefully:
  every worker gets SIGTERM, stops accepting, closes its idle
  kept-alive connections, finishes its in-flight requests (handler
  threads are joined), and exits 0; workers still alive after
  ``grace_s`` are SIGKILLed so a wedged handler cannot block shutdown
  forever.

Workers are forked (``multiprocessing`` ``"fork"`` context): the
listening socket and the warm module state are inherited for free.  On
platforms without ``fork`` the pool refuses to start -- use a single
in-process :class:`KernelServer` there.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Callable, Dict, List, Optional

from ..errors import ServiceError
from .server import DEFAULT_HOST, DEFAULT_PORT, KernelServer
from .service import KernelService


def _worker_main(listen_socket: "socket.socket", index: int,
                 service_factory: Callable[[], KernelService],
                 max_inflight: int, quiet: bool) -> None:
    """Body of one worker process: serve the inherited socket until
    SIGTERM, drain, and exit 0."""
    service = service_factory()
    server = KernelServer(service, max_inflight=max_inflight, quiet=quiet,
                          listen_socket=listen_socket,
                          worker_info={"index": index, "pid": os.getpid()})

    def _stop(signum, frame):
        # shutdown() blocks until the accept loop exits; it must not run
        # on the signal-handling (main) thread, which serve_forever owns.
        threading.Thread(target=server.httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    server.serve_forever()


class WorkerPool:
    """A listening socket shared by ``workers`` pre-forked daemon
    processes (see the module docstring).

    ``service_factory`` is called once *inside each worker* to build its
    service; make it construct a :class:`DiskKernelStore` (shared root)
    plus a :class:`~repro.service.leases.LeaseManager` so the pool keeps
    the one-generation-per-key guarantee across processes.
    """

    def __init__(self, service_factory: Callable[[], KernelService],
                 workers: int = 2, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT, max_inflight: int = 8,
                 quiet: bool = False, grace_s: float = 10.0,
                 backlog: int = 128):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:
            raise ServiceError(
                "the pre-forked worker pool needs the 'fork' start "
                "method; run a single in-process KernelServer instead")
        self.service_factory = service_factory
        self.workers = workers
        self.max_inflight = max_inflight
        self.quiet = quiet
        self.grace_s = grace_s
        self.restarts = 0
        self.started_at = time.monotonic()
        self._draining = threading.Event()
        self._finished = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._final_summary: Optional[Dict[str, object]] = None
        self._monitor: Optional[threading.Thread] = None
        self._procs: List[Optional[multiprocessing.Process]] = \
            [None] * workers
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
            self._sock.listen(backlog)
            # Every worker's select() wakes on a new connection but only
            # one accept() wins it; a blocking accept() would park the
            # losers until the next connection, deaf to shutdown.
            # Non-blocking, the losers' accept() fails and they go back
            # to select() (socketserver ignores the OSError).
            self._sock.setblocking(False)
        except OSError as exc:
            self._sock.close()
            raise ServiceError(f"cannot listen on {host}:{port}: {exc}")

    # -- addressing ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._sock.getsockname()[0]

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int) -> "multiprocessing.Process":
        proc = self._mp.Process(
            target=_worker_main,
            args=(self._sock, index, self.service_factory,
                  self.max_inflight, self.quiet),
            name=f"kernel-worker-{index}", daemon=False)
        proc.start()
        return proc

    def start(self) -> "WorkerPool":
        """Fork the workers and the monitor thread; returns immediately
        (the parent keeps running -- call :meth:`wait` to block)."""
        if self._monitor is not None:
            raise ServiceError("worker pool is already running")
        for index in range(self.workers):
            self._procs[index] = self._spawn(index)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="kernel-pool-monitor",
            daemon=True)
        self._monitor.start()
        return self

    def _monitor_loop(self, poll_interval_s: float = 0.1) -> None:
        """Reap dead workers and fork replacements until shutdown."""
        while not self._draining.is_set():
            for index, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                proc.join(timeout=0)
                if self._draining.is_set():
                    break
                self.restarts += 1
                self._procs[index] = self._spawn(index)
            self._draining.wait(poll_interval_s)

    def worker_pids(self) -> List[int]:
        """PIDs of the currently live workers."""
        return [proc.pid for proc in self._procs
                if proc is not None and proc.is_alive()
                and proc.pid is not None]

    def wait(self) -> None:
        """Block until a :meth:`shutdown` (e.g. from a signal handler's
        thread) has completed the drain (CLI serve loop)."""
        self._finished.wait()

    def shutdown(self) -> Dict[str, object]:
        """Graceful drain: SIGTERM every worker, join within the grace
        budget, SIGKILL stragglers, close the socket.  Idempotent and
        safe to call from several threads: late callers block until the
        first drain finishes and get the same summary."""
        with self._shutdown_lock:
            if self._final_summary is not None:
                return self._final_summary
            self._draining.set()
            for proc in self._procs:
                if proc is not None and proc.is_alive():
                    try:
                        os.kill(proc.pid, signal.SIGTERM)
                    except (OSError, TypeError):
                        pass
            deadline = time.monotonic() + self.grace_s
            killed = 0
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5)
                    killed += 1
            if self._monitor is not None:
                self._monitor.join(timeout=5)
                self._monitor = None
            self._sock.close()
            self._final_summary = self._summary(killed=killed)
            self._finished.set()
            return self._final_summary

    def _summary(self, killed: int = 0) -> Dict[str, object]:
        exit_codes = [proc.exitcode for proc in self._procs
                      if proc is not None]
        return {"workers": self.workers, "restarts": self.restarts,
                "killed": killed, "exit_codes": exit_codes,
                "uptime_s": time.monotonic() - self.started_at}

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
