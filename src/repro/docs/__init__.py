"""Documentation tooling: the generated CLI reference and a link checker.

The prose under ``docs/`` is written by hand; the CLI reference
(``docs/cli.md``) is **generated** from the argparse parsers of every
``python -m repro.*`` entry point, so it cannot drift from the code.
:func:`render_cli_reference` produces the exact file contents;
``python -m repro.docs cli-ref`` writes it (or, with ``--check``, verifies
the committed copy is current -- a tier-1 test and a CI job both do).

:func:`check_links` walks the repository's Markdown for relative links and
reports any whose target file does not exist; external URLs and links that
resolve outside the repository (e.g. the CI badge's ``../../actions/...``,
which is a GitHub-site path, not a file) are ignored.  It also holds
claims to their evidence: every backticked ``results/...`` path (a
benchmark artifact a document cites) must exist under the repository
root.

Rendering is deterministic: argparse wraps help text to the terminal
width and interpolates cache-directory defaults from the environment, so
both are pinned (fixed ``COLUMNS``, canonical ``~/.cache`` paths) while
the parsers are built and formatted.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import os
import re
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import ReproError

#: Terminal width the reference is rendered at (argparse wraps to it).
RENDER_COLUMNS = "80"

#: Environment pinned while building parsers: help strings interpolate
#: these cache locations, which must not leak the build machine's $HOME.
_CANONICAL_ENV = {
    "COLUMNS": RENDER_COLUMNS,
    "REPRO_KERNEL_CACHE": "~/.cache/repro-slingen/kernels",
    "REPRO_TUNING_DB": "~/.cache/repro-slingen/tuning",
    "REPRO_FIXBANK": "~/.cache/repro-slingen/fixbank",
    "REPRO_TRAJECTORY": "BENCH_trajectory.jsonl",
    "REPRO_PHASE_CACHE": "~/.cache/repro-slingen/phases",
}

HEADER = (
    "# CLI reference\n"
    "\n"
    "<!-- AUTO-GENERATED by `python -m repro.docs cli-ref`.\n"
    "     Do not edit by hand: re-run the command after changing any\n"
    "     argparse parser.  CI and tests/test_docs.py check freshness. -->\n"
    "\n"
    "Every command below runs from a fresh checkout with\n"
    "`PYTHONPATH=src` and only NumPy/SciPy installed.  This file is\n"
    "rendered from the argparse parsers themselves, so the synopses and\n"
    "defaults here are exactly what `--help` prints.\n"
    "\n"
    "All tools share one contract (defined in `repro.cli`): exit 0 when\n"
    "the command ran and its check holds, exit 1 when the check failed\n"
    "(a divergence, a regression, a missing record, a stale file), and\n"
    "exit 2 when the request itself was invalid (bad arguments or an\n"
    "unknown workload/backend).  Every subcommand accepts `--json`:\n"
    "report-style commands take it as a bare flag replacing the table on\n"
    "stdout; the long-running `fuzz run` and `perf run` take\n"
    "`--json FILE` and write their summary at the end.  With `--json -`\n"
    "the summary is all of stdout: their human-readable output then goes\n"
    "to stderr.\n")


#: The ``python -m repro.<tool>`` entry points, in presentation order.
_TOOLS = ("service", "pipeline", "analysis", "tuning", "cegis", "backend",
          "fuzz", "perf", "docs")


@contextlib.contextmanager
def _stable_render_env() -> Iterator[None]:
    saved = {name: os.environ.get(name) for name in _CANONICAL_ENV}
    os.environ.update(_CANONICAL_ENV)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _subparsers(parser: argparse.ArgumentParser
                ) -> "Dict[str, argparse.ArgumentParser]":
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _block(title: str, help_text: str, level: int) -> str:
    return (f"{'#' * level} `{title}`\n\n"
            f"```text\n{help_text.rstrip()}\n```\n")


def render_cli_reference() -> str:
    """The full, deterministic contents of ``docs/cli.md``."""
    with _stable_render_env():
        parts = [HEADER]
        for tool in _TOOLS:
            prog = f"python -m repro.{tool}"
            parser = importlib.import_module(
                f"repro.{tool}.__main__")._build_parser()
            parts.append(_block(prog, parser.format_help(), level=2))
            for name, sub in _subparsers(parser).items():
                parts.append(_block(f"{prog} {name}", sub.format_help(),
                                    level=3))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Relative-link checking
# ---------------------------------------------------------------------------

#: Markdown inline links / images: ``[text](target)`` or ``![alt](target)``.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not repository files.
_EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

#: A cited benchmark artifact: a backticked path under ``results/``
#: (``*`` globs allowed), resolved against the repository root.
_RESULTS_RE = re.compile(r"`(results/[^`\s]*)`")


def default_doc_paths(repo_root: str) -> List[str]:
    """The Markdown files the link checker covers by default:
    ``README.md``, ``CHANGES.md`` and everything directly under
    ``docs/``."""
    paths = []
    for name in ("README.md", "CHANGES.md"):
        path = os.path.join(repo_root, name)
        if os.path.exists(path):
            paths.append(path)
    docs_dir = os.path.join(repo_root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                paths.append(os.path.join(docs_dir, name))
    return paths


def check_links(paths: Sequence[str],
                repo_root: str) -> "List[Tuple[str, str]]":
    """Broken relative links and missing cited results, as
    ``(markdown file, target)`` pairs.

    A link is checked when it is relative and resolves to a path inside
    ``repo_root``; anything with a URL scheme, a bare ``#anchor``, or a
    target escaping the repository is out of scope.  A backticked
    ``results/...`` path is checked against ``repo_root`` whatever file
    cites it.  An unreadable file in ``paths`` raises
    :class:`~repro.errors.ReproError`.
    """
    repo_root = os.path.abspath(repo_root)
    broken: List[Tuple[str, str]] = []
    for path in paths:
        base = os.path.dirname(os.path.abspath(path))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if _EXTERNAL_RE.match(target) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = os.path.abspath(os.path.join(base, file_part))
            if not (resolved == repo_root
                    or resolved.startswith(repo_root + os.sep)):
                continue        # GitHub-site path (e.g. the CI badge)
            if not os.path.exists(resolved):
                broken.append((os.path.relpath(path, repo_root), target))
        for match in _RESULTS_RE.finditer(text):
            cited = match.group(1)
            if not glob.glob(os.path.join(repo_root, cited)):
                broken.append((os.path.relpath(path, repo_root), cited))
    return broken
