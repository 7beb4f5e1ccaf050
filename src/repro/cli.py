"""Shared command-line conventions for every ``python -m repro.*`` tool.

All eight entry points (service, tuning, cegis, backend, fuzz, perf,
pipeline, analysis -- plus the docs maintenance commands) follow one
contract,
implemented here so it cannot drift per subsystem:

**Exit codes.**

* :data:`EXIT_OK` (0) -- the command ran and whatever it checks holds
  (kernels agree, no regression, records present, docs current).
* :data:`EXIT_FAILURE` (1) -- the command ran but its check failed:
  a backend divergence, a timing regression, a missing tuning record,
  a stale generated file, an aborted confirmation prompt.  Scripts and
  CI branch on this.
* :data:`EXIT_USAGE` (2) -- the request itself was invalid and nothing
  was checked: argparse rejected the arguments, or the tool raised a
  :class:`~repro.errors.ReproError` (unknown workload spec, unknown
  backend, unparsable input).  Emitted via :func:`fail` so the message
  shape (``error: ...`` on stderr) is uniform.

**JSON output.**  Every subcommand accepts ``--json``.  Report-style
commands take it as a bare flag (:func:`add_json_flag`; the document
goes to stdout and replaces the human-readable table).  Long-running
run-style commands (``fuzz run``, ``perf run``) instead take
``--json FILE`` -- they stream human progress while running and write
the machine-readable summary to FILE (``-`` for stdout) at the end.
Documents are rendered by :func:`print_json` (two-space indent, sorted
keys, trailing newline) so diffs and golden files are stable.

**Store override names.**  The persistent-state override is spelled the
same way everywhere: ``--store`` for the kernel store (service),
``--db`` for record databases (tuning; cegis, where the historical
``--bank`` remains an alias), ``--trajectory`` for the perf history
file, and ``$REPRO_PHASE_CACHE``/``--phase-cache`` for the pipeline's
artifact cache.  Each tool also honors its ``REPRO_*`` environment
variable; the flag wins.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .ioutil import ShardedStore

#: The command ran and its check holds.
EXIT_OK = 0
#: The command ran but its check failed (regression, divergence, ...).
EXIT_FAILURE = 1
#: The request was invalid (argparse errors and :class:`ReproError`).
EXIT_USAGE = 2


def add_json_flag(parser: argparse.ArgumentParser,
                  help: str = "emit a machine-readable JSON document "
                              "instead of the human-readable output"
                  ) -> None:
    """The canonical bare ``--json`` flag (dest ``as_json``)."""
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help=help)


def print_json(doc: object) -> None:
    """Render one machine-readable document the canonical way."""
    print(json.dumps(doc, indent=2, sort_keys=True))


def fail(exc: BaseException) -> int:
    """Report an invalid request uniformly and return :data:`EXIT_USAGE`."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def confirm(prompt: str, assume_yes: bool = False) -> bool:
    """The shared destructive-action gate (``purge --yes`` semantics).

    Returns True when the action may proceed.  Callers print
    ``aborted`` and return :data:`EXIT_FAILURE` on refusal.
    """
    if assume_yes:
        return True
    reply = input(f"{prompt} [y/N] ")
    return reply.strip().lower() in ("y", "yes")


def purge_records(store: ShardedStore[Any], noun: str,
                  args: argparse.Namespace) -> int:
    """The ``purge [--yes] [--json]`` command of a record database."""
    if not confirm(f"purge every {noun} under {store.root}?",
                   assume_yes=args.yes):
        print("aborted")
        return EXIT_FAILURE
    removed = store.purge()
    if args.as_json:
        print_json({"purged": removed})
    else:
        print(f"purged {removed} record(s)")
    return EXIT_OK
