"""Tests for the documentation tooling: the generated CLI reference stays
in sync with the argparse parsers, every relative link resolves, and every
Markdown file a docstring cites exists."""

import ast
import glob
import os
import re

from repro.docs import check_links, default_doc_paths, render_cli_reference
from repro.docs.__main__ import main as docs_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_MD = os.path.join(REPO_ROOT, "docs", "cli.md")


class TestCliReference:
    def test_rendering_is_deterministic(self):
        assert render_cli_reference() == render_cli_reference()

    def test_rendering_is_environment_independent(self, monkeypatch):
        baseline = render_cli_reference()
        # Cache-dir defaults are interpolated into help strings; rendering
        # must pin them so the committed file never leaks a machine's $HOME.
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "/tmp/elsewhere/kernels")
        monkeypatch.setenv("REPRO_TUNING_DB", "/tmp/elsewhere/tuning")
        monkeypatch.setenv("COLUMNS", "203")
        assert render_cli_reference() == baseline

    def test_committed_cli_md_is_in_sync(self):
        with open(CLI_MD, "r", encoding="utf-8") as handle:
            committed = handle.read()
        assert committed == render_cli_reference(), (
            "docs/cli.md is stale; regenerate with "
            "`PYTHONPATH=src python -m repro.docs cli-ref`")

    def test_every_entry_point_is_documented(self):
        rendered = render_cli_reference()
        for prog in ("python -m repro.service", "python -m repro.tuning",
                     "python -m repro.backend", "python -m repro.docs"):
            assert f"## `{prog}`" in rendered
        # Spot-check subcommand sections, including this PR's daemon.
        for sub in ("repro.service serve", "repro.service warm",
                    "repro.tuning tune", "repro.backend crosscheck",
                    "repro.docs cli-ref"):
            assert f"### `python -m {sub}`" in rendered

    def test_check_mode_detects_staleness(self, tmp_path, capsys):
        target = tmp_path / "cli.md"
        assert docs_main(["cli-ref", "--output", str(target)]) == 0
        assert docs_main(["cli-ref", "--output", str(target),
                          "--check"]) == 0
        target.write_text(target.read_text() + "\ndrift\n")
        assert docs_main(["cli-ref", "--output", str(target),
                          "--check"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_check_mode_fails_on_missing_file(self, tmp_path):
        assert docs_main(["cli-ref", "--check", "--output",
                          str(tmp_path / "absent.md")]) == 1


class TestLinkCheck:
    def test_repo_markdown_has_no_broken_relative_links(self):
        paths = default_doc_paths(REPO_ROOT)
        assert any(p.endswith("README.md") for p in paths)
        assert any(os.sep + "docs" + os.sep in p for p in paths)
        assert check_links(paths, repo_root=REPO_ROOT) == []

    def test_docs_tree_is_complete(self):
        names = {os.path.basename(p) for p in default_doc_paths(REPO_ROOT)}
        assert {"architecture.md", "pipeline.md", "backends.md",
                "serving.md", "reproducing.md", "cli.md"} <= names

    def test_broken_link_is_reported(self, tmp_path):
        md = tmp_path / "doc.md"
        md.write_text("see [here](missing.md) and [ok](doc.md) and "
                      "[web](https://example.com) and [anchor](#sec)\n")
        broken = check_links([str(md)], repo_root=str(tmp_path))
        assert broken == [("doc.md", "missing.md")]

    def test_links_escaping_the_repo_are_ignored(self, tmp_path):
        md = tmp_path / "doc.md"
        md.write_text("[badge](../../actions/workflows/ci.yml)\n")
        assert check_links([str(md)], repo_root=str(tmp_path)) == []

    def test_anchored_relative_links_resolve_on_the_file(self, tmp_path):
        (tmp_path / "other.md").write_text("# x\n")
        md = tmp_path / "doc.md"
        md.write_text("[sec](other.md#section)\n[gone](gone.md#x)\n")
        broken = check_links([str(md)], repo_root=str(tmp_path))
        assert broken == [("doc.md", "gone.md#x")]

    def test_cited_results_must_exist(self, tmp_path):
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "fig14_potrf.txt").write_text("table\n")
        (tmp_path / "docs").mkdir()
        md = tmp_path / "docs" / "claims.md"
        md.write_text("Measured in `results/fig14_potrf.txt`, "
                      "`results/fig14_*.txt` and `results/`; the speedup "
                      "is in `results/verified_opt.txt`.\n")
        broken = check_links([str(md)], repo_root=str(tmp_path))
        assert broken == [(os.path.join("docs", "claims.md"),
                           "results/verified_opt.txt")]

    def test_changes_log_is_checked_by_default(self):
        paths = default_doc_paths(REPO_ROOT)
        assert os.path.join(REPO_ROOT, "CHANGES.md") in paths

    def test_linkcheck_cli(self, tmp_path, capsys):
        md = tmp_path / "doc.md"
        md.write_text("[gone](missing.md)\n")
        assert docs_main(["linkcheck", str(md), "--root",
                          str(tmp_path)]) == 1
        assert "missing.md" in capsys.readouterr().err
        md.write_text("all good\n")
        assert docs_main(["linkcheck", str(md), "--root",
                          str(tmp_path)]) == 0


class TestFigureTables:
    def test_every_figure_column_is_labelled_as_the_model(self):
        """No committed Fig. 14/15 table presents an estimate as a
        measurement: each column is the size or a ``(model)`` series."""
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "results",
                                              "fig1[45]_*.txt")))
        assert len(paths) == 8
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                header = handle.read().splitlines()[1]
            columns = re.split(r"\s{2,}", header.strip())
            assert columns[0] == "n", path
            for column in columns[1:]:
                assert column.endswith("(model)"), (path, column)


def _docstrings(path):
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node)
            if docstring:
                yield docstring


class TestDocstringCitations:
    def test_every_cited_markdown_file_exists(self):
        """A docstring that names ``docs/x.md`` (or a bare ``x.md``, found
        at the repository root or under ``docs/``) names a file that is
        there."""
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "**", "*.py"),
                                 recursive=True)
                       + glob.glob(os.path.join(REPO_ROOT, "benchmarks",
                                                "*.py")))
        assert paths
        missing = []
        for path in paths:
            for docstring in _docstrings(path):
                for cited in re.findall(r"[\w./-]+\.md\b", docstring):
                    roots = ([REPO_ROOT] if "/" in cited
                             else [REPO_ROOT, os.path.join(REPO_ROOT, "docs")])
                    if not any(os.path.isfile(os.path.join(root, cited))
                               for root in roots):
                        missing.append(
                            (os.path.relpath(path, REPO_ROOT), cited))
        assert missing == []
