"""Benchmark harness shared by the scripts in ``benchmarks/``."""

from ..service.registry import (application_sizes, full_sizes_requested,
                                hlac_sizes)
from .harness import (Series, SeriesPoint, generator_options,
                      kf28_observation_sizes, measure_slingen, run_series)

__all__ = [
    "Series", "SeriesPoint", "application_sizes", "full_sizes_requested",
    "generator_options", "hlac_sizes", "kf28_observation_sizes",
    "measure_slingen", "run_series",
]
