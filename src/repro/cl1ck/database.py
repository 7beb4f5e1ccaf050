"""Algorithm database (Stage 1a of the paper's Fig. 6).

SLinGen stores information about the algorithms synthesized for HLACs so
that later occurrences of the same functionality (same operation kind,
sizes and flags) do not trigger a new synthesis.  The database maps an
operation *signature* to the available variants and caches concrete
expansions when the exact same operand views recur.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.program import Statement
from .operations import OperationInstance


@dataclass
class DatabaseEntry:
    """What the database remembers about one operation signature."""

    kind: str
    variants: List[str]
    hits: int = 0
    syntheses: int = 0


class AlgorithmDatabase:
    """Caches synthesized algorithms keyed by operation signature."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple, DatabaseEntry] = {}
        self._expansions: Dict[Tuple, List[Statement]] = {}
        #: Temporary-name counter shared by every synthesizer of one
        #: generation run.  Cached expansions are spliced into several
        #: candidate programs, so temps must be unique database-wide; scoping
        #: the counter here (rather than process-globally) makes generated
        #: code a pure function of the request -- a requirement of the
        #: content-addressed kernel cache.
        self.temp_counter = itertools.count()

    def entry_for(self, op: OperationInstance,
                  variants: List[str]) -> DatabaseEntry:
        """Fetch (or create) the entry for an operation signature."""
        key = op.signature()
        if key not in self._entries:
            self._entries[key] = DatabaseEntry(kind=op.kind,
                                               variants=list(variants))
        return self._entries[key]

    def _expansion_key(self, op: OperationInstance, variant: str,
                       block_size: int) -> Tuple:
        identity = tuple(sorted(
            (role, id(view.operand), view.row_off, view.col_off, view.rows,
             view.cols) for role, view in op.views.items()))
        return (op.signature(), identity, variant, block_size)

    def lookup(self, op: OperationInstance, variant: str,
               block_size: int) -> Optional[List[Statement]]:
        """Return a cached expansion for identical operand views, if any."""
        key = self._expansion_key(op, variant, block_size)
        cached = self._expansions.get(key)
        if cached is not None:
            self._entries[op.signature()].hits += 1
        return cached

    def store(self, op: OperationInstance, variant: str, block_size: int,
              statements: List[Statement]) -> None:
        key = self._expansion_key(op, variant, block_size)
        self._expansions[key] = statements
        entry = self._entries.get(op.signature())
        if entry is not None:
            entry.syntheses += 1

    def stats(self) -> Dict[str, int]:
        return {
            "signatures": len(self._entries),
            "cached_expansions": len(self._expansions),
            "hits": sum(e.hits for e in self._entries.values()),
            "syntheses": sum(e.syntheses for e in self._entries.values()),
        }
