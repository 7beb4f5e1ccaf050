"""The persistent tuning database: what won, where, and by how much.

A :class:`TuningRecord` captures the outcome of one empirical search --
the winning options, the pinned Stage-1 choices, the full trial log, and
the measurement backend that produced the scores.  Records are keyed by
:func:`tuning_key`, the same canonical content hashing as
:mod:`repro.service.keys` restricted to *(program, machine, vectorize)*:
tuned-best settings are a property of what is computed, on which machine
model, and within which search space (scalar vs. vector) -- independent
of the knobs being tuned, which live in the record, not the key.

**Record-composition rules.**  A record never *replaces* a caller's
options wholesale; :meth:`TuningRecord.apply` composes it over the
request's base options under three rules:

1. **Only searched knobs transfer.**  Exactly the fields named in
   :data:`TUNED_OPTION_FIELDS` may be overridden; request-identity
   fields (``function_name``, ``annotate_code``, ...) always come from
   the caller.
2. **Capabilities compose by conjunction, widths by minimum.**  Boolean
   optimization toggles apply as ``record AND base`` and the vector
   width as ``min(record, base)`` -- a record can switch an optimization
   *off* relative to what the caller allowed, but can never force one
   the caller disabled (e.g. emit AVX intrinsics for a
   ``vectorize=False`` request).
3. **Applying a record ends the search.**  The result pins the record's
   Stage-1 variant choices and sets ``autotune=False``: the tuned
   options *are* the search outcome, so the model-driven search must not
   second-guess them (and generation stays a pure function of the
   effective options, which is what the kernel cache keys on).

:class:`TuningDB` is a JSON codec over :class:`repro.ioutil.ShardedStore`:
one document per record under ``<root>/<key[:2]>/<key>.json``, written
atomically, read corruption-tolerantly (an undecodable record is
quarantined and reported as a miss, so tuning degrades to re-tuning,
never to an exception).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type, TypeVar, Union

from ..errors import TuningDBError
from ..ioutil import ShardedStore, cache_root
from ..ir.program import Program
from ..machine.microarch import MicroArchitecture
from ..service.keys import canonical_program, machine_fingerprint
from ..slingen.options import Options

#: A record type of :class:`RecordStore` (see there for what it needs).
_R = TypeVar("_R")

#: Bump whenever record contents change incompatibly; old records are then
#: quarantined on read and the kernels simply re-tune.
TUNING_SCHEMA_VERSION = 1

#: Option fields a tuning record is allowed to override on apply.  Request
#: identity fields (``function_name``, ``annotate_code``, ...) always come
#: from the caller's base options.
TUNED_OPTION_FIELDS = (
    "vectorize", "vector_width", "block_size", "unroll_trip_count",
    "unroll_body_limit", "use_shuffle_transpose", "load_store_analysis",
    "scalar_replacement",
)


def default_tuning_dir() -> str:
    """Root of the persistent tuning database.

    Overridable via ``REPRO_TUNING_DB``; defaults to
    ``~/.cache/repro-slingen/tuning`` (next to the kernel and object
    caches).
    """
    return cache_root("REPRO_TUNING_DB", "tuning")


def tuning_key(program: Union[Program, str],
               machine: Optional[MicroArchitecture] = None,
               constants: Optional[Dict[str, int]] = None,
               vectorize: bool = True) -> str:
    """SHA-256 content key of one *(program, machine, vectorize?)* tuning
    target.

    Uses the same canonical serialization as the kernel-service cache keys
    (:mod:`repro.service.keys`), minus the searched options: a tuning
    record must be found *before* the generation options are decided,
    since it is what decides them.  ``vectorize`` is the one base option
    that *does* key the record -- it selects a disjoint search space
    (scalar vs. AVX variants), so scalar and vectorized tuning runs must
    not clobber each other's winners.
    """
    if isinstance(program, str):
        from ..la import parse_program
        program = parse_program(program, constants or {})
    if machine is None:
        from ..machine.microarch import default_machine
        machine = default_machine()
    doc = {
        "schema": TUNING_SCHEMA_VERSION,
        "program": canonical_program(program),
        "machine": machine_fingerprint(machine),
        "vectorize": bool(vectorize),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class TuningRecord:
    """The persisted outcome of one empirical tuning run."""

    key: str
    program_name: str
    label: str                      # registry-style label, e.g. "potrf:4"
    strategy: str
    backend: str                    # measurer name
    unit: str                       # score unit of the backend
    budget: int
    seed: int
    evaluations: int
    best_label: str                 # winning candidate label
    best_score: float
    baseline_score: float           # score of the default configuration
    options: Dict[str, object]      # tuned values for TUNED_OPTION_FIELDS
    stage1_variants: Dict[int, str]
    trials: List[Dict[str, object]] = field(default_factory=list)
    created_at: float = 0.0
    schema: int = TUNING_SCHEMA_VERSION

    @property
    def improvement(self) -> float:
        """Baseline/best score ratio (>= 1 when tuning helped)."""
        if self.best_score <= 0:
            return 1.0
        return self.baseline_score / self.best_score

    def apply(self, base: Options) -> Options:
        """The tuned generation options: ``base`` with the searched knobs
        replaced by the record's winners, the Stage-1 choices pinned, and
        the model-driven autotuner disabled (there is nothing left to
        search).

        Capability toggles compose with ``base`` by conjunction and the
        vector width never exceeds the request's -- a record can only
        switch an optimization *off* relative to what the caller allowed,
        never force one the caller disabled (e.g. emit AVX intrinsics for
        a ``vectorize=False`` request).
        """
        overrides = {name: self.options[name]
                     for name in TUNED_OPTION_FIELDS if name in self.options}
        for toggle in ("vectorize", "use_shuffle_transpose",
                       "load_store_analysis", "scalar_replacement"):
            if toggle in overrides:
                overrides[toggle] = (bool(overrides[toggle])
                                     and getattr(base, toggle))
        if "vector_width" in overrides:
            overrides["vector_width"] = min(int(overrides["vector_width"]),
                                            base.vector_width)
        return dataclasses.replace(
            base, autotune=False,
            stage1_variants=dict(self.stage1_variants), **overrides)

    def to_json(self) -> Dict[str, object]:
        doc = dataclasses.asdict(self)
        # JSON objects have string keys; restored by from_json.
        doc["stage1_variants"] = {str(k): v
                                  for k, v in self.stage1_variants.items()}
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "TuningRecord":
        if not isinstance(doc, dict) \
                or doc.get("schema") != TUNING_SCHEMA_VERSION:
            raise ValueError(f"unsupported tuning record: {doc!r:.80}")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in doc.items() if k in known}
        kwargs["stage1_variants"] = {
            int(k): str(v)
            for k, v in dict(kwargs.get("stage1_variants") or {}).items()}
        return cls(**kwargs)


class RecordStore(ShardedStore[_R]):
    """The JSON codec shared by :class:`TuningDB` and
    :class:`repro.cegis.fixbank.FixBank`: dataclass records with
    ``key``/``created_at``, ``to_json``/``from_json`` and ``apply``.  The
    hot layer keeps the last 128 records, so a service consulting the
    store on every request pays no disk read + JSON parse per hit."""

    backend = ""

    def __init__(self, root: str, record_cls: Type[_R],
                 error: Type[Exception], what: str):
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            raise error(f"cannot create {what} root {root!r}: {exc}")
        super().__init__(
            root, ".json",
            encode=lambda record: json.dumps(
                record.to_json(), indent=2, sort_keys=True).encode("utf-8"),
            decode=lambda data: record_cls.from_json(json.loads(data)))

    _record_path = ShardedStore.path

    def put(self, key: str, record: _R, ns: str = "") -> None:
        record.key = key
        if not record.created_at:
            record.created_at = time.time()
        super().put(key, record, ns)

    def applied(self, key: str, base: Options) -> Optional[Options]:
        """The record for ``key`` applied over ``base``, or None."""
        record = self.get(key)
        return None if record is None else record.apply(base)

    def stats(self) -> Dict[str, object]:
        return {"backend": self.backend, "root": self.root,
                "entries": len(self),
                **self.counters("hits", "hot_hits", "misses",
                                "corrupt_dropped")}


class TuningDB(RecordStore[TuningRecord]):
    """Persistent key -> :class:`TuningRecord` store (see module docs)."""

    backend = "tuning-db"

    def __init__(self, root: Optional[str] = None):
        super().__init__(os.path.abspath(root or default_tuning_dir()),
                         TuningRecord, TuningDBError, "tuning database")

    #: The tuned options for a key applied over ``base``, or None.
    best_options = RecordStore.applied
