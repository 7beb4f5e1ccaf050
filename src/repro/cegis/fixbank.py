"""The fix bank: which unsound rewrites survived verification, where.

A :class:`FixRecord` captures the outcome of one CEGIS run -- the
accepted rewrite ids (in catalog order, which is application order), the
refuted candidates with the input seed that split them from the
baseline, and the verification budget that acceptance is conditional on.
Records are keyed by :func:`fixbank_key`, the exact *(program, machine,
vectorize)* content hash of :func:`repro.tuning.db.tuning_key`: a
verified rewrite set is a property of what is computed and on which
machine model, independent of the remaining generation knobs, which the
caller supplies at apply time.

**Acceptance is instance-specific.**  ``accepted`` means "a budgeted
counterexample search over this concrete (program, sizes, options,
machine) tuple found no divergence", not "equivalent for all programs"
-- that is the whole point of keeping the rewrites out of the sound
Stage-2 tier.  :meth:`FixRecord.apply` therefore only ever sets
``Options.verified_rewrites``; it never touches searched or identity
fields, so a fix record composes cleanly before or after a tuning
record.

:class:`FixBank` is the tuning database's JSON
:class:`~repro.tuning.db.RecordStore` over
:class:`repro.ioutil.ShardedStore`: one document per record under
``<root>/<key[:2]>/<key>.json``, written atomically, read
corruption-tolerantly (an undecodable record is quarantined and reported
as a miss, so verification degrades to re-verifying, never to an
exception).  The root honours ``REPRO_FIXBANK``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..errors import CegisError
from ..ioutil import cache_root
from ..ir.program import Program
from ..machine.microarch import MicroArchitecture
from ..slingen.options import Options
from ..tuning.db import RecordStore, tuning_key

#: Bump whenever record contents change incompatibly; old records are
#: then quarantined on read and the programs simply re-verify.
FIXBANK_SCHEMA_VERSION = 1


def default_fixbank_dir() -> str:
    """Root of the persistent fix bank.

    Overridable via ``REPRO_FIXBANK``; defaults to
    ``~/.cache/repro-slingen/fixbank`` (next to the kernel, object and
    tuning caches).
    """
    return cache_root("REPRO_FIXBANK", "fixbank")


def fixbank_key(program: Union[Program, str],
                machine: Optional[MicroArchitecture] = None,
                constants: Optional[Dict[str, int]] = None,
                vectorize: bool = True) -> str:
    """SHA-256 content key of one verification target.

    Deliberately *identical* to :func:`repro.tuning.db.tuning_key`: both
    databases answer "what did a prior search conclude about this
    (program, machine, vectorize) tuple", and sharing the hash lets
    operators correlate tuning and fix records for the same kernel by
    key.  The two stores live under different roots, so the shared key
    space cannot collide on disk.
    """
    return tuning_key(program, machine=machine, constants=constants,
                      vectorize=vectorize)


@dataclass
class FixRecord:
    """The persisted outcome of one CEGIS verification run."""

    key: str
    program_name: str
    label: str                      # registry-style label, e.g. "potrf:8"
    seed: int                       # base input-seed of the search
    budget: int                     # input draws per candidate
    backends: List[str]             # backends the verifier resolved
    tol: float                      # cross-backend tolerance
    ref_tol: float                  # LA-reference tolerance
    accepted: List[str]             # rewrite ids, in application order
    refuted: List[Dict[str, object]] = field(default_factory=list)
    inapplicable: List[str] = field(default_factory=list)
    created_at: float = 0.0
    schema: int = FIXBANK_SCHEMA_VERSION

    def apply(self, base: Options) -> Options:
        """``base`` with the banked rewrites enabled.

        Ids that are no longer in the catalog (a removed or renamed
        rewrite after an upgrade) are dropped silently: the record
        degrades to the subset that is still meaningful rather than
        failing generation.
        """
        from .rewrites import known_ids
        known = set(known_ids())
        kept = tuple(rid for rid in self.accepted if rid in known)
        return dataclasses.replace(base, verified_rewrites=kept)

    def counterexamples(self) -> List[Dict[str, object]]:
        """The refutations that carry a concrete counterexample input."""
        return [entry for entry in self.refuted if "seed" in entry]

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "FixRecord":
        if not isinstance(doc, dict) \
                or doc.get("schema") != FIXBANK_SCHEMA_VERSION:
            raise ValueError(f"unsupported fix record: {doc!r:.80}")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in doc.items() if k in known}
        kwargs["accepted"] = [str(rid) for rid in kwargs.get("accepted", [])]
        return cls(**kwargs)


class FixBank(RecordStore[FixRecord]):
    """Persistent key -> :class:`FixRecord` store (see module docs)."""

    backend = "fixbank"

    def __init__(self, root: Optional[str] = None):
        super().__init__(os.path.abspath(root or default_fixbank_dir()),
                         FixRecord, CegisError, "fix-bank")

    #: The banked rewrites for a key applied over ``base``, or None.
    verified_options = RecordStore.applied
