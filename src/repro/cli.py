"""Shared command-line scaffold for every ``python -m repro.*`` tool.

All nine entry points (service, pipeline, analysis, tuning, cegis,
backend, fuzz, perf and docs) follow one contract, implemented here so
it cannot drift per subsystem.

**Dispatch.**  Each tool builds its own argparse parser and registers
one handler per subcommand with ``set_defaults(handler=...)``; its
``main(argv)`` is one call to :func:`run`.  That parses the arguments,
builds the tool's shared resource with ``setup(args)`` (the
``KernelService``, ``TuningDB``, ``FixBank`` or ``TrajectoryStore``),
calls ``handler(resource, args)`` -- ``handler(args)`` for tools without
a setup -- and reports a :class:`~repro.errors.ReproError` as an invalid
request.

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
  backend, unparsable input).  :func:`run` prints it as one
  ``error: ...`` line on stderr, so the message shape is uniform.

**JSON output.**  Every subcommand accepts ``--json``.  Report-style
commands take it as a bare flag (:func:`add_json_flag`; the document
goes to stdout and replaces the human-readable table).  Long-running
run-style commands (``fuzz run``, ``perf run``) instead take
``--json FILE`` -- they stream human progress while running and write
the machine-readable summary to FILE at the end
(:func:`write_json_file`).  ``--json -`` writes it to stdout, and then
the document is all of stdout: the human output goes to stderr
(:func:`human_output`).  Documents are rendered by
:func:`print_json` (two-space indent, sorted keys, trailing newline) so
diffs and golden files are stable.

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
import contextlib
import json
import sys
from typing import (Any, Callable, ContextManager, List, Optional, Sequence,
                    Tuple)

from .errors import ReproError
from .ioutil import ShardedStore
from .slingen.options import Options

#: The command ran and its check holds.
EXIT_OK = 0
#: The command ran but its check failed (regression, divergence, ...).
EXIT_FAILURE = 1
#: The request was invalid (argparse errors and :class:`ReproError`).
EXIT_USAGE = 2


def run(parser: argparse.ArgumentParser,
        argv: Optional[Sequence[str]] = None,
        setup: Optional[Callable[[argparse.Namespace], Any]] = None) -> int:
    """Parse ``argv`` and return the exit code of the subcommand's
    handler (see the module documentation)."""
    args = parser.parse_args(argv)
    try:
        if setup is None:
            return args.handler(args)
        return args.handler(setup(args), args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def add_json_flag(parser: argparse.ArgumentParser,
                  help: str = "emit a machine-readable JSON document "
                              "instead of the human-readable output"
                  ) -> None:
    """The canonical bare ``--json`` flag (dest ``as_json``)."""
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help=help)


def human_output(json_path: Optional[str]) -> ContextManager[Any]:
    """Wraps a run-style command's human output: stderr under
    ``--json -``, where stdout is the document alone."""
    if json_path == "-":
        return contextlib.redirect_stdout(sys.stderr)
    return contextlib.nullcontext()


def write_json_file(path: Optional[str], doc: object, note: str) -> None:
    """Write the ``--json FILE`` document, if FILE was given, then print
    ``note``; FILE ``-`` prints the document alone."""
    if path == "-":
        print_json(doc)
    elif path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(note)


def print_json(doc: object) -> None:
    """Render one machine-readable document the canonical way."""
    print(json.dumps(doc, indent=2, sort_keys=True))


def add_generation_flags(parser: argparse.ArgumentParser) -> None:
    """The generation flags :func:`generation_options` reads back."""
    parser.add_argument("--scalar", action="store_true",
                        help="generate scalar (non-vectorized) kernels")
    parser.add_argument("--no-autotune", action="store_true",
                        help="skip the autotuning search")
    parser.add_argument("--max-variants", type=int, default=6,
                        help="candidate implementations the autotuning "
                             "search may evaluate (default: 6)")


def generation_options(args: argparse.Namespace) -> Options:
    """The options :func:`add_generation_flags` selected."""
    return Options(vectorize=not args.scalar,
                   autotune=not args.no_autotune,
                   max_variants=args.max_variants,
                   annotate_code=False)


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


def report_records(store: ShardedStore[Any], args: argparse.Namespace, *,
                   noun: str, store_name: str, root_key: str, schema: int,
                   key: Callable[..., str],
                   to_json: Callable[[Any, Optional[str]], dict],
                   line: Callable[[Any], str]) -> int:
    """The ``report [SPEC ...] [--scalar] [--json]`` command of a record
    database: every record, or each requested spec's record under
    ``key(program, vectorize=...)``; exit 1 when one is missing."""
    found: List[Tuple[Optional[str], Any]] = []
    missing: List[str] = []
    if args.specs:
        from .service.registry import build_case, parse_spec
        for text in args.specs:
            case = build_case(parse_spec(text))
            record = store.get(key(case.program, vectorize=not args.scalar))
            if record is None:
                missing.append(text)
            else:
                found.append((text, record))
    else:
        found = [(None, record) for record in
                 sorted(store.records(), key=lambda r: r.label)]

    if args.as_json:
        print_json({
            "schema": schema,
            root_key: store.root,
            "requested": list(args.specs) or None,
            "missing": missing,
            "records": [to_json(record, spec) for spec, record in found],
        })
    else:
        for text in missing:
            print(f"{text}: no {noun}")
        for _, record in found:
            print(line(record))
        if not args.specs:
            print(f"{len(found)} record(s) in {store.root}" if found
                  else f"{store_name} is empty")
    return EXIT_FAILURE if missing else EXIT_OK
