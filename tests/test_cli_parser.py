"""The command line's parsers: each command wires only itself, and the text
they print is byte for byte what one full parser tree printed.

``tests/data/cli-text.json`` holds what ``icrm`` printed for each argument
list below when every command still went through one full parser tree. Only
a deliberate change to that text calls for recording it again, with
``PYTHONPATH=src python3 tests/test_cli_parser.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from icrm import IcrmClassifier, cli
from icrm.cli import EXIT_OK, EXIT_USAGE
from icrm.synth import synthetic_dataset

DATA = Path(__file__).parent / "data" / "cli-text.json"
COLUMNS = "80"  # argparse wraps help to the terminal width

CASES = [
    [], ["--help"], ["-h", "classify"], ["bogus"], ["-x", "classify"],
    ["ingest"], ["ingest", "-h"],
    ["classify"], ["classify", "a"], ["classify", "a", "b", "--bogus"],
    ["classify", "--help"], ["classify", "-h"],
    ["eval", "--help"], ["eval", "static"], ["eval", "static", "icrm"],
    ["eval", "static", "bogus", "--data", "x"],
    ["report"], ["report", "a", "b"], ["report", "--help"],
]


def _capture(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture
def recorded(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    return {tuple(case["argv"]): case for case in json.loads(DATA.read_text("utf-8"))}


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) or "no-args" for a in CASES])
def test_text_and_exit_code_match_the_recording(recorded, argv):
    assert _capture(argv) == recorded[tuple(argv)]



def _refuse_wiring(*args):
    raise AssertionError("a command that was not named was wired")


def _wire_only(monkeypatch, keep: str) -> None:
    for name, (help_line, _) in list(cli._COMMANDS.items()):
        if name != keep:
            monkeypatch.setitem(cli._COMMANDS, name, (help_line, _refuse_wiring))


def test_classify_wires_only_classify(tmp_path, monkeypatch, capsys):
    data = synthetic_dataset(n_ham=20, n_spam=20, seed=5)
    clf = IcrmClassifier()
    clf.train(data.ham + data.spam)
    clf.save(tmp_path / "state.json")
    (tmp_path / "msg.txt").write_text("Subject: hello\nsome words", encoding="utf-8")
    _wire_only(monkeypatch, "classify")
    assert cli.main(["classify", str(tmp_path / "state.json"),
                     str(tmp_path / "msg.txt")]) == EXIT_OK
    label, _ = capsys.readouterr().out.split()
    assert label in ("ham", "spam")


def test_eval_help_wires_only_eval(monkeypatch, capsys):
    _wire_only(monkeypatch, "eval")
    assert cli.main(["eval", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: icrm eval ")


def test_every_call_builds_its_parsers_afresh(monkeypatch, capsys):
    """No parser outlives a call: a named command is wired once per call,
    and anything else wires the whole tree once per call."""
    wired = []
    for name, (help_line, wire) in list(cli._COMMANDS.items()):
        def spy(parser, name=name, wire=wire):
            wired.append(name)
            wire(parser)
        monkeypatch.setitem(cli._COMMANDS, name, (help_line, spy))
    for _ in range(2):
        assert cli.main(["report", "--help"]) == EXIT_OK
    assert wired == ["report", "report"]
    wired.clear()
    for _ in range(2):
        assert cli.main(["--help"]) == EXIT_OK
    assert wired == 2 * list(cli._COMMANDS)


def test_handler_is_looked_up_when_the_command_runs(monkeypatch):
    monkeypatch.setattr(cli, "cmd_report", lambda args: 7 if args.path == "p" else 0)
    assert cli.main(["report", "p"]) == 7


@pytest.mark.parametrize("argv, code, stream, start", [
    (["classify", "--help"], EXIT_OK, "out", "usage: icrm classify "),
    (["report"], EXIT_USAGE, "err", "icrm: config error: the following arguments"),
    (["--help"], EXIT_OK, "out", "usage: icrm [-h] "),
    ([], EXIT_USAGE, "err", "icrm: config error: the following arguments"),
])
def test_no_argv_reads_sys_argv(monkeypatch, capsys, argv, code, stream, start):
    """``main()``, as the console script calls it, parses ``sys.argv[1:]``
    on the one-command path and on the full tree alike."""
    monkeypatch.setattr(sys, "argv", ["icrm", *argv])
    assert cli.main() == code
    assert getattr(capsys.readouterr(), stream).startswith(start)


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    DATA.write_text(json.dumps([_capture(argv) for argv in CASES], indent=1) + "\n",
                    encoding="utf-8")
