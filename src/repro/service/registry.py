"""Named-workload registry: request the paper's computations by name.

The applications layer (:mod:`repro.applications.cases`) defines the
benchmark computations as factories over a size parameter.  The registry
gives them stable, CLI-friendly addresses -- ``"potrf:12"``,
``"kf:8x4"`` -- and turns them into service requests, so the cache can be
warmed, queried, and purged without writing any LA source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..applications.cases import (APPLICATION_CASES, HLAC_CASES,
                                  BenchmarkCase, all_case_names, make_case)
from ..errors import ServiceError
from ..slingen.options import Options
from .service import GenerationRequest


@dataclass(frozen=True)
class WorkloadSpec:
    """One concrete workload: a named case at a fixed size (and, for the
    Kalman filter, an optional observation count ``k``)."""

    name: str
    size: int
    k: Optional[int] = None

    @property
    def label(self) -> str:
        if self.k is not None:
            return f"{self.name}:{self.size}x{self.k}"
        return f"{self.name}:{self.size}"


def workload_names() -> List[str]:
    """Every case name the registry can serve."""
    return all_case_names()


def parse_spec(text: str) -> WorkloadSpec:
    """Parse ``"name:size"`` or ``"name:sizexk"`` into a spec."""
    name, sep, tail = text.partition(":")
    name = name.strip()
    if name not in workload_names():
        raise ServiceError(
            f"unknown workload {name!r}; known: {', '.join(workload_names())}")
    if not sep or not tail.strip():
        raise ServiceError(
            f"workload {text!r} is missing a size (use e.g. {name!r}:8)")
    tail = tail.strip()
    try:
        if "x" in tail:
            size_text, k_text = tail.split("x", 1)
            return WorkloadSpec(name, int(size_text), int(k_text))
        return WorkloadSpec(name, int(tail))
    except ValueError:
        raise ServiceError(f"bad size in workload spec {text!r}")


def build_case(spec: WorkloadSpec) -> BenchmarkCase:
    """Instantiate the benchmark case a spec names."""
    return make_case(spec.name, spec.size, spec.k)


def full_sizes_requested() -> bool:
    return os.environ.get("REPRO_FULL_SIZES", "0") not in ("", "0", "false")


def hlac_sizes() -> List[int]:
    """Sizes of the x-axis of Fig. 14 (reduced grid by default)."""
    if full_sizes_requested():
        return [4, 28, 52, 76, 100, 124]
    return [4, 12, 24, 36]


def application_sizes() -> List[int]:
    """Sizes of the x-axis of Fig. 15 (reduced grid by default)."""
    if full_sizes_requested():
        return [4, 12, 20, 28, 36, 44, 52]
    return [4, 12, 20, 28]


def default_sizes(name: str) -> List[int]:
    """The size sweep a bare workload name expands to (the same reduced
    grids the benchmark figures use; ``REPRO_FULL_SIZES=1`` widens them)."""
    if name in HLAC_CASES:
        return hlac_sizes()
    if name in APPLICATION_CASES or name == "kf-28":
        return application_sizes()
    raise ServiceError(f"unknown workload {name!r}")


def make_request(spec: "WorkloadSpec | str",
                 options: Optional[Options] = None) -> GenerationRequest:
    """Turn a spec (or its text form) into a service request."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    case = build_case(spec)
    request = GenerationRequest.from_case(case, options=options)
    request.label = spec.label
    return request


def sweep_requests(specs: Optional[Sequence[str]] = None,
                   options: Optional[Options] = None
                   ) -> List[GenerationRequest]:
    """Expand spec strings into requests.

    Each entry may be a sized spec (``"potrf:12"``) or a bare name
    (``"potrf"``), which expands to that case's default size sweep.  With no
    argument, every registered workload is expanded -- the full warm set.
    """
    texts = list(specs) if specs else workload_names()
    requests: List[GenerationRequest] = []
    seen: Dict[str, bool] = {}
    for text in texts:
        if ":" in text:
            expanded = [parse_spec(text)]
        else:
            if text not in workload_names():
                raise ServiceError(
                    f"unknown workload {text!r}; "
                    f"known: {', '.join(workload_names())}")
            expanded = [WorkloadSpec(text, size)
                        for size in default_sizes(text)]
        for spec in expanded:
            if spec.label in seen:
                continue
            seen[spec.label] = True
            requests.append(make_request(spec, options=options))
    return requests
