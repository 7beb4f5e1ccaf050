"""The declarative benchmark manifest: one matrix, named suites.

A :class:`ManifestEntry` names one measurement -- a workload spec from
the service registry (``"potrf:4"``), an execution backend, and a
generation *mode* (``untuned`` = default options, ``tuned`` = TuningDB
winners applied, ``verified`` = banked CEGIS rewrites applied) -- plus
its repeat policy.  A :class:`Manifest` is an ordered list of entries
under a name; :func:`suite` builds the three built-in ones:

``smoke``
    The CI matrix (and exactly the historical ``BENCH_seed.json`` /
    ``bench_numpy_backend`` grid): potrf and gemm at n = 4, 8 on every
    execution tier, untuned.  Seconds, not minutes.
``figures``
    The paper's Fig. 14/15 kernels at the reduced size grid on the
    portable NumPy backend -- the series every perf PR is judged with.
``full``
    ``figures`` crossed with every backend and all three modes.

Entries identify trajectory records: :attr:`ManifestEntry.entry_id`
(``"potrf:4/numpy/untuned"``) is the join key between a manifest, the
runner's records, and the baseline statistics of the gate.  Custom
matrices load from JSON (:func:`load_manifest`), so a one-off experiment
gets trajectory + gate treatment without touching this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..backend import EXECUTORS
from ..errors import PerfError

#: Generation modes an entry may request (the tuned/verified axes resolve
#: through the TuningDB / FixBank exactly like ``--tuned``/``--verified``
#: service requests do).
MODES = ("untuned", "tuned", "verified")

#: Default repeat policy: samples per entry (the runner's robust median
#: rejects outliers, so a moderate count is enough on quiet machines).
DEFAULT_REPEATS = 7

#: The pseudo-backend measuring warm-phase-cache *generation* (not
#: kernel execution): the entry times a full candidate build served
#: entirely from a pre-warmed :class:`~repro.pipeline.cache.PhaseCache`.
#: It pairs only with the ``warm`` pseudo-mode.
PIPELINE_BACKEND = "pipeline"
PIPELINE_MODE = "warm"


@dataclass(frozen=True)
class ManifestEntry:
    """One cell of the benchmark matrix."""

    kernel: str                 # registry workload spec, e.g. "potrf:4"
    backend: str                # execution backend (repro.backend.EXECUTORS)
    mode: str = "untuned"       # untuned | tuned | verified
    repeats: int = DEFAULT_REPEATS

    def __post_init__(self) -> None:
        if self.backend == PIPELINE_BACKEND or self.mode == PIPELINE_MODE:
            # The generation-speed pseudo-entry: backend and mode only
            # pair with each other (there is no "tuned pipeline" or
            # "warm numpy" cell in the matrix).
            if (self.backend, self.mode) != (PIPELINE_BACKEND,
                                             PIPELINE_MODE):
                raise PerfError(
                    f"manifest entry {self.kernel!r}: backend "
                    f"{PIPELINE_BACKEND!r} and mode {PIPELINE_MODE!r} "
                    f"only combine with each other, got "
                    f"{self.backend!r}/{self.mode!r}")
        elif self.backend not in EXECUTORS:
            raise PerfError(
                f"manifest entry {self.kernel!r}: unknown backend "
                f"{self.backend!r}; known: {', '.join(EXECUTORS)}")
        elif self.mode not in MODES:
            raise PerfError(
                f"manifest entry {self.kernel!r}: unknown mode "
                f"{self.mode!r}; known: {', '.join(MODES)}")
        if self.repeats < 1:
            raise PerfError(
                f"manifest entry {self.kernel!r}: repeats must be >= 1")

    @property
    def entry_id(self) -> str:
        """The stable join key between manifests, records, and baselines."""
        return f"{self.kernel}/{self.backend}/{self.mode}"

    def to_json(self) -> Dict[str, object]:
        return {"kernel": self.kernel, "backend": self.backend,
                "mode": self.mode, "repeats": self.repeats}

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "ManifestEntry":
        if not isinstance(doc, dict) or "kernel" not in doc \
                or "backend" not in doc:
            raise PerfError(f"bad manifest entry: {doc!r:.120}")
        return cls(kernel=str(doc["kernel"]), backend=str(doc["backend"]),
                   mode=str(doc.get("mode", "untuned")),
                   repeats=int(doc.get("repeats", DEFAULT_REPEATS)))


@dataclass
class Manifest:
    """An ordered, duplicate-free list of entries under a name."""

    name: str
    entries: List[ManifestEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: Dict[str, bool] = {}
        for entry in self.entries:
            if entry.entry_id in seen:
                raise PerfError(
                    f"manifest {self.name!r}: duplicate entry "
                    f"{entry.entry_id!r}")
            seen[entry.entry_id] = True

    def entry_ids(self) -> List[str]:
        return [entry.entry_id for entry in self.entries]

    def to_json(self) -> Dict[str, object]:
        return {"name": self.name,
                "entries": [entry.to_json() for entry in self.entries]}


# ---------------------------------------------------------------------------
# Built-in suites
# ---------------------------------------------------------------------------

#: The smoke grid is deliberately the historical ``bench_numpy_backend``
#: matrix, so migrated ``BENCH_seed.json`` records land on these entry ids.
SMOKE_KERNELS = ("potrf", "gemm")
SMOKE_SIZES = (4, 8)
SMOKE_BACKENDS = ("interpreter", "numpy", "compiled")

#: Fig. 14 HLACs + Fig. 15 applications at the reduced benchmark grid.
FIGURE_HLACS = ("potrf", "gemm", "trsm", "trsyl", "trlya", "trtri")
FIGURE_HLAC_SIZES = (4, 12)
FIGURE_APPS = ("kf:4x4", "gpr:4", "l1a:4")


def _smoke_entries() -> List[ManifestEntry]:
    entries = [ManifestEntry(kernel=f"{kernel}:{size}", backend=backend)
               for kernel in SMOKE_KERNELS for size in SMOKE_SIZES
               for backend in SMOKE_BACKENDS]
    # Generation speed is tracked alongside execution speed: the warm
    # phase-cache candidate build must stay fast, or tuning/fuzz/CEGIS
    # iteration all quietly regress.
    entries.append(ManifestEntry(kernel="potrf:8",
                                 backend=PIPELINE_BACKEND,
                                 mode=PIPELINE_MODE))
    return entries


def _figure_specs() -> List[str]:
    specs = [f"{kernel}:{size}" for kernel in FIGURE_HLACS
             for size in FIGURE_HLAC_SIZES]
    specs.extend(FIGURE_APPS)
    return specs


def _figures_entries() -> List[ManifestEntry]:
    return [ManifestEntry(kernel=spec, backend="numpy")
            for spec in _figure_specs()]


def _full_entries() -> List[ManifestEntry]:
    return [ManifestEntry(kernel=spec, backend=backend, mode=mode)
            for spec in _figure_specs()
            for backend in ("interpreter", "numpy", "compiled")
            for mode in MODES]


_SUITES = {
    "smoke": _smoke_entries,
    "figures": _figures_entries,
    "full": _full_entries,
}


def suite_names() -> List[str]:
    return sorted(_SUITES)


def suite(name: str) -> Manifest:
    """The named built-in suite as a manifest."""
    try:
        builder = _SUITES[name]
    except KeyError:
        raise PerfError(f"unknown suite {name!r}; "
                        f"known: {', '.join(suite_names())}")
    return Manifest(name=name, entries=builder())


def load_manifest(path: str) -> Manifest:
    """A manifest from a JSON file: ``{"name": ..., "entries": [...]}``
    (or a bare entry list, named after the file)."""
    import os
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise PerfError(f"cannot load manifest {path!r}: {exc}")
    if isinstance(doc, list):
        doc = {"name": os.path.splitext(os.path.basename(path))[0],
               "entries": doc}
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise PerfError(f"manifest {path!r} must be an object with an "
                        f"'entries' list (or a bare entry list)")
    entries = [ManifestEntry.from_json(entry) for entry in doc["entries"]]
    return Manifest(name=str(doc.get("name") or "manifest"), entries=entries)


def resolve(name_or_path: Optional[str], manifest_path: Optional[str] = None
            ) -> Manifest:
    """The manifest a CLI invocation names: an explicit ``--manifest`` file
    wins, then a suite name, then the ``smoke`` default."""
    if manifest_path:
        return load_manifest(manifest_path)
    return suite(name_or_path or "smoke")
