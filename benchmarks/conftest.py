"""Shared fixtures for the benchmark suite (one target per paper figure/table).

Each benchmark regenerates one figure/table of the paper's evaluation and
writes the resulting table to ``results/<name>.txt`` (for the figures,
the modeled flops/cycle of the generated code vs. problem size), in
addition to the pytest-benchmark timing of the generator itself.
"""

import math
import os

from _bootstrap import ensure_repro_importable

import pytest

RESULTS_DIR = os.path.join(ensure_repro_importable(), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def kernel_service(tmp_path_factory):
    """One shared kernel service for the whole benchmark session.

    Every figure/table routes generation through this service, so sizes
    repeated across figures (and options repeated across ablations) are
    cache hits instead of full pipeline re-runs.  The cache lives in a
    session-temporary directory; point ``REPRO_KERNEL_CACHE`` somewhere
    persistent to keep kernels across benchmark sessions.
    """
    from repro.service import DiskKernelStore, KernelService

    root = os.environ.get("REPRO_KERNEL_CACHE", "").strip() \
        or str(tmp_path_factory.mktemp("kernel-cache"))
    service = KernelService(store=DiskKernelStore(root=root))
    yield service
    snapshot = service.stats.snapshot()
    print(f"\n[kernel-service] {snapshot['requests']} requests, "
          f"{snapshot['hits']} hits, {snapshot['misses']} generated, "
          f"hit rate {snapshot['hit_rate']:.0%}")


def write_series(results_dir: str, name: str, text: str) -> None:
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def check_modeled_series(series, sizes) -> None:
    """A figure series covers ``sizes`` with a finite, positive f/c each."""
    assert [point.size for point in series.points] == list(sizes)
    for point in series.points:
        assert math.isfinite(point.flops_per_cycle), point
        assert point.flops_per_cycle > 0, point
