"""Kernel generation as a service.

SLinGen is meant to be invoked once per (program, size, machine) and reused
forever.  This package supplies the serving layer that makes that true in
practice:

* :mod:`~repro.service.keys` -- canonical, version-stamped content keys
  over (LA program, generator options, machine model),
* :mod:`~repro.service.store` -- a persistent, content-addressed kernel
  store behind an abstract ``KernelStore``; the disk backend keeps one
  file per kernel in the shared :class:`~repro.ioutil.ShardedStore`
  (atomic writes, corruption-tolerant reads, access-LRU bounds, an
  in-memory hot layer),
* :mod:`~repro.service.service` -- ``KernelService``: cache-first
  generation with parallel batch misses and hit/miss/latency stats,
* :mod:`~repro.service.registry` -- named workloads ("potrf:12",
  "kf:8x4") mapping the paper's benchmark cases onto service requests,
* :mod:`~repro.service.server` / :mod:`~repro.service.client` -- the
  HTTP serving daemon (``python -m repro.service serve``) and its
  stdlib JSON client,
* :mod:`~repro.service.leases` -- cross-process single-flight: per-key
  lockfile leases with owner/expiry stamps and stale-lease reaping,
* :mod:`~repro.service.pool` -- the pre-forked multi-process worker pool
  behind one listening socket (``serve --workers N``),
* ``python -m repro.service`` -- CLI to warm, query, inspect, purge,
  and serve the cache.
"""

from .client import ServiceClient
from .keys import (KEY_SCHEMA_VERSION, cache_key, canonical_options,
                   canonical_program, machine_fingerprint,
                   request_fingerprint)
from .leases import Lease, LeaseManager
from .pool import WorkerPool
from .registry import (WorkloadSpec, build_case, default_sizes, make_request,
                       parse_spec, sweep_requests, workload_names)
from .server import KernelServer
from .service import (GenerationRequest, KernelService, ServiceResponse,
                      ServiceStats)
from .store import (DiskKernelStore, KernelStore, MemoryKernelStore,
                    default_cache_dir)

__all__ = [
    "KEY_SCHEMA_VERSION", "cache_key", "canonical_options",
    "canonical_program", "machine_fingerprint", "request_fingerprint",
    "WorkloadSpec", "build_case", "default_sizes", "make_request",
    "parse_spec", "sweep_requests", "workload_names",
    "GenerationRequest", "KernelService", "ServiceResponse", "ServiceStats",
    "KernelServer", "ServiceClient",
    "Lease", "LeaseManager", "WorkerPool",
    "DiskKernelStore", "KernelStore", "MemoryKernelStore",
    "default_cache_dir",
]
