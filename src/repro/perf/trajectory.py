"""The append-only performance trajectory (``BENCH_trajectory.jsonl``).

One JSON record per line, one line per *(run, manifest entry)*; a run is
the set of lines sharing a ``run_id``, and a record is keyed by
``(commit, entry)`` -- the trajectory is the repository's complete
timing history, committed alongside the code it measures.

Append-only discipline is what makes the history trustworthy: appends go
through a single ``O_APPEND`` file descriptor with exactly one
``os.write`` per line (concurrent writers interleave whole lines, never
bytes -- the same guarantee the fix bank gets from ``os.replace``), and
nothing in this module ever rewrites or truncates the file.  Reads are
corruption-tolerant in the TuningDB style: an undecodable line (torn
final append after a crash, merge-conflict garbage, hand-edited bytes)
is counted and skipped, never raised through -- the trajectory degrades
to the decodable subset instead of taking the gate down with it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import PerfError

#: Bump on any incompatible record-shape change; the loader keeps
#: unversioned/foreign lines out of analysis but reports them.
TRAJECTORY_SCHEMA_VERSION = 1

#: The committed trajectory's canonical location (repo root).
DEFAULT_TRAJECTORY = "BENCH_trajectory.jsonl"

#: Keys every trajectory record carries (see ``runner.py`` for their
#: production and ``docs/benchmarks.md`` for the full schema).
REQUIRED_KEYS = ("schema", "run_id", "commit", "ts", "suite", "entry",
                 "kernel", "backend", "mode", "repeats", "median_seconds",
                 "env")


def default_trajectory_path() -> str:
    """``$REPRO_TRAJECTORY`` when set, else ``BENCH_trajectory.jsonl`` in
    the current directory (the repository root in normal use)."""
    env = os.environ.get("REPRO_TRAJECTORY", "").strip()
    return env or DEFAULT_TRAJECTORY


def record_is_valid(record: object) -> bool:
    """Structural validity of one decoded line: a dict of the current
    schema with every required key present and a numeric median."""
    if not isinstance(record, dict):
        return False
    if record.get("schema") != TRAJECTORY_SCHEMA_VERSION:
        return False
    for key in REQUIRED_KEYS:
        if key not in record:
            return False
    return isinstance(record["median_seconds"], (int, float))


class TrajectoryStore:
    """Append-only JSONL record store (see module docs)."""

    def __init__(self, path: Optional[str] = None):
        self.path = path or default_trajectory_path()
        self.dropped = 0        # undecodable or invalid lines, last load()

    # -- writes --------------------------------------------------------------

    def append(self, records: Iterable[Dict[str, object]]) -> int:
        """Append records, one line each, each line one atomic write.

        Returns the number of lines written.  Records are validated
        before anything is written -- a malformed record must not poison
        the committed history."""
        lines: List[bytes] = []
        for record in records:
            if not record_is_valid(record):
                raise PerfError(
                    f"refusing to append structurally invalid record: "
                    f"{json.dumps(record, default=str)[:120]}")
            blob = json.dumps(record, sort_keys=True,
                              separators=(",", ":"))
            if "\n" in blob:    # pragma: no cover - json never emits one
                raise PerfError("record serialized with an embedded newline")
            lines.append(blob.encode("utf-8") + b"\n")
        if not lines:
            return 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            for line in lines:
                os.write(fd, line)
        finally:
            os.close(fd)
        return len(lines)

    # -- reads ---------------------------------------------------------------

    def load(self) -> List[Dict[str, object]]:
        """Every decodable, valid record in file order.

        Missing file = empty history.  Undecodable or invalid lines are
        skipped and counted in :attr:`dropped`."""
        self.dropped = 0
        records: List[Dict[str, object]] = []
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return records
        except OSError as exc:
            raise PerfError(f"cannot read trajectory {self.path!r}: {exc}")
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.dropped += 1
                continue
            if not record_is_valid(record):
                self.dropped += 1
                continue
            records.append(record)
        return records

    def runs(self) -> List[Tuple[str, List[Dict[str, object]]]]:
        """Records grouped into runs, ordered by first appearance in the
        file (append order *is* chronological order)."""
        grouped: Dict[str, List[Dict[str, object]]] = {}
        order: List[str] = []
        for record in self.load():
            run_id = str(record["run_id"])
            if run_id not in grouped:
                grouped[run_id] = []
                order.append(run_id)
            grouped[run_id].append(record)
        return [(run_id, grouped[run_id]) for run_id in order]

    def latest_run(self) -> Optional[Tuple[str, List[Dict[str, object]]]]:
        runs = self.runs()
        return runs[-1] if runs else None

    def stats(self) -> Dict[str, object]:
        records = self.load()
        return {
            "path": self.path,
            "records": len(records),
            "runs": len({r["run_id"] for r in records}),
            "entries": len({r["entry"] for r in records}),
            "dropped": self.dropped,
        }

