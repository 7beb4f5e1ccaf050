"""The shared command contract (``repro.cli``) of all nine
``python -m repro.<tool>`` entry points."""

import importlib
import json

import pytest

#: One invalid request per tool (``{tmp}`` is the test's tmp_path): each
#: must exit 2 with a single ``error: ...`` line on stderr.
INVALID_REQUESTS = {
    "service": ["--store", "{tmp}", "query", "nosuch:4"],
    "pipeline": ["profile", "nosuch:4"],
    "analysis": ["check", "nosuch:4"],
    "tuning": ["--db", "{tmp}", "report", "nosuch:4"],
    "cegis": ["--db", "{tmp}", "report", "nosuch:4"],
    "backend": ["emit", "nosuch:4"],
    "fuzz": ["replay", "{tmp}/missing.json"],
    "perf": ["--trajectory", "{tmp}/t.jsonl", "run",
             "--manifest", "{tmp}/missing.json"],
    "docs": ["linkcheck", "{tmp}/missing.md"],
}


def tool_main(tool):
    return importlib.import_module(f"repro.{tool}.__main__").main


@pytest.mark.parametrize("tool", sorted(INVALID_REQUESTS))
def test_help_exits_zero(tool, capsys):
    with pytest.raises(SystemExit) as exc:
        tool_main(tool)(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: python -m repro.{tool} ")


@pytest.mark.parametrize("tool", sorted(INVALID_REQUESTS))
def test_invalid_request_exits_two_with_one_error_line(tool, tmp_path,
                                                       capsys):
    argv = [arg.format(tmp=tmp_path) for arg in INVALID_REQUESTS[tool]]
    assert tool_main(tool)(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("tool, argv", [
    ("fuzz", ["run", "--budget", "2", "--json", "-"]),
    ("perf", ["--trajectory", "{tmp}/t.jsonl", "run",
              "--manifest", "{tmp}/m.json", "--json", "-"]),
])
def test_json_dash_makes_stdout_one_document(tool, argv, tmp_path, capsys):
    (tmp_path / "m.json").write_text(json.dumps([
        {"kernel": "potrf:4", "backend": "interpreter", "repeats": 2}]))
    assert tool_main(tool)([arg.format(tmp=tmp_path) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["schema"] == 1
    assert captured.err         # the human output moved to stderr
