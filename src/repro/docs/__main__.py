"""Documentation maintenance commands.

Usage (``PYTHONPATH=src python -m repro.docs <command>``)::

    cli-ref   [--check] [--output FILE]
        Regenerate docs/cli.md from the argparse parsers of every
        ``python -m repro.*`` entry point.  With ``--check``, verify the
        committed file is current instead (exit 1 when stale) -- CI and
        the tier-1 suite both run this.

    linkcheck [FILE ...]
        Verify every relative Markdown link in the given files (default:
        README.md, CHANGES.md and docs/*.md) points at an existing file,
        and that every backticked ``results/...`` path they cite exists.
        Exits 1 listing each broken link or missing result.

Both commands are pure stdlib and run anywhere the package imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .. import cli
from ..cli import EXIT_FAILURE, EXIT_OK, add_json_flag, print_json
from . import check_links, default_doc_paths, render_cli_reference

DEFAULT_OUTPUT = os.path.join("docs", "cli.md")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.docs",
        description="Generate the CLI reference and check documentation "
                    "links.")
    sub = parser.add_subparsers(dest="command", required=True)

    ref = sub.add_parser("cli-ref",
                         help="write (or verify) the generated CLI "
                              "reference")
    ref.set_defaults(handler=_cmd_cli_ref)
    ref.add_argument("--output", default=DEFAULT_OUTPUT, metavar="FILE",
                     help=f"target file (default: {DEFAULT_OUTPUT})")
    ref.add_argument("--check", action="store_true",
                     help="verify FILE matches the parsers instead of "
                          "writing; exit 1 when stale")
    add_json_flag(ref)

    links = sub.add_parser("linkcheck",
                           help="verify relative links and cited results/ "
                                "files in Markdown files")
    links.set_defaults(handler=_cmd_linkcheck)
    links.add_argument("paths", nargs="*", metavar="FILE",
                       help="Markdown files to check (default: README.md, "
                            "CHANGES.md and docs/*.md under the current "
                            "directory)")
    links.add_argument("--root", default=".", metavar="DIR",
                       help="repository root links must stay inside "
                            "(default: current directory)")
    add_json_flag(links)
    return parser


def _cmd_cli_ref(args: argparse.Namespace) -> int:
    rendered = render_cli_reference()
    lines = len(rendered.splitlines())
    if args.check:
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                committed = handle.read()
        except OSError as exc:
            print(f"cli-ref: cannot read {args.output}: {exc}",
                  file=sys.stderr)
            return EXIT_FAILURE
        current = committed == rendered
        if args.as_json:
            print_json({"output": args.output, "current": current,
                        "lines": lines})
            return EXIT_OK if current else EXIT_FAILURE
        if not current:
            print(f"cli-ref: {args.output} is stale; regenerate with "
                  f"`python -m repro.docs cli-ref`", file=sys.stderr)
            return EXIT_FAILURE
        print(f"cli-ref: {args.output} is current ({lines} lines)")
        return EXIT_OK
    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    if args.as_json:
        print_json({"output": args.output, "written": True, "lines": lines})
    else:
        print(f"cli-ref: wrote {args.output} ({lines} lines)")
    return EXIT_OK


def _cmd_linkcheck(args: argparse.Namespace) -> int:
    root = os.path.abspath(args.root)
    paths = args.paths or default_doc_paths(root)
    if not paths:
        print("linkcheck: no Markdown files found", file=sys.stderr)
        return EXIT_FAILURE
    broken = check_links(paths, repo_root=root)
    if args.as_json:
        print_json({"files": len(paths),
                    "broken": [{"file": path, "target": target}
                               for path, target in broken]})
        return EXIT_FAILURE if broken else EXIT_OK
    for path, target in broken:
        print(f"linkcheck: {path}: missing target -> {target}",
              file=sys.stderr)
    if broken:
        return EXIT_FAILURE
    print(f"linkcheck: {len(paths)} files ok")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    return cli.run(_build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
