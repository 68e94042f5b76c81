"""The console entry point, run as the ``icrm`` script runs it.

Each refusal starts a fresh interpreter on ``python -m icrm.cli`` and
checks the documented exit code (1 for usage, 2 for data), exactly one
line on stderr and no traceback. The inputs are a short synthetic corpus
and damaged copies of what the library writes, built once per module.
The same corpus trains the states whose load -> save must give back the
file's bytes, and the state the ``classify`` command reads.
"""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from icrm.cli import EXIT_DATA, EXIT_USAGE
from icrm.corpus import read_canonical, write_canonical
from icrm.model import IcrmClassifier, IcrmConfig
from icrm.synth import synthetic_dataset

from model_reference import edit_state, state_file, v2_populations_at_version_3

_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("console")
    corpus = root / "short.jsonl"
    write_canonical(synthetic_dataset(200, 200, seed=3), corpus)
    # the first timestamp as 20000102, which 3.11's date.fromisoformat reads
    first, rest = corpus.read_text(encoding="utf-8").split("\n", 1)
    first = re.sub(r'"timestamp": "[0-9-]*"', '"timestamp": "20000102"', first, count=1)
    assert '"timestamp": "20000102"' in first
    (root / "compact-date.jsonl").write_text(f"{first}\n{rest}", encoding="utf-8")
    # initial ham populations whose sum E + R overflows a float
    (root / "huge-populations.conf").write_text("e0_ham = 1e308\nr0_ham = 1.7e308\n")
    # an integer literal longer than Python converts (4,300 digits)
    (root / "long-int.json").write_text(
        '{"format": "icrm-state", "version": 2, "seed": %s}\n' % ("9" * 5000)
    )
    # finite populations whose sum E + R is not, and a feature that is the
    # number 7: Repertoire refuses both rows, so they are written by hand
    clf = IcrmClassifier()
    empty = state_file(3, {}, clf.config, clf.rng)
    clf.train(read_canonical(corpus).ham[:20])
    trained = state_file(3, dict(clf.repertoire), clf.config, clf.rng)
    (root / "huge-state.json").write_bytes(edit_state(
        header=lambda s: s.update(features=["cheap"]),
        block=lambda raw: struct.pack("<2d", 1e308, 1e308))(empty))
    (root / "int-features.json").write_bytes(edit_state(
        header=lambda s: s.update(features=[7]),
        block=lambda raw: struct.pack("<2d", 6.0, 5.0))(empty))
    # a generator state holding 1.5, which numpy would read as 1
    (root / "rng-float.json").write_bytes(edit_state(
        header=lambda s: s["rng_state"]["state"].update(state=1.5))(empty))
    # version 3 files whose block does not hold 16 bytes for each feature
    for name, edit in (("truncated-body", edit_state(block=lambda raw: raw[:-1])),
                       ("extra-byte", edit_state(block=lambda raw: raw + b"\x00")),
                       ("no-body", edit_state(block=lambda raw: b"")),
                       ("v2-populations", v2_populations_at_version_3)):
        (root / f"{name}.state").write_bytes(edit(trained))
    (root / "features-object.state").write_bytes(edit_state(
        header=lambda s: s.update(features=dict.fromkeys(s["features"], 1)))(trained))
    # a record holding an id and none of the other fields
    (root / "fieldless.jsonl").write_text('{"id": "a"}\n', encoding="utf-8")
    (root / "msg.txt").write_text("Subject: cheap pills offer\nmeeting agenda for monday\n")
    return root


_EVAL = ["eval", "static", "both", "--data", "short.jsonl"]

# (exit code, argv, a text the stderr line must hold)
_REFUSALS = [
    (EXIT_USAGE, [], "required: command"),
    (EXIT_USAGE, ["bogus"], "invalid choice: 'bogus'"),
    (EXIT_USAGE, ["classify"], "required: state_file, message_file"),
    (EXIT_USAGE, ["ingest", "missing-dir", "refused.jsonl", "--limit", "0"],
     "limit must be >= 1, got 0"),
    (EXIT_USAGE, [*_EVAL, "--window", "50", "--out", "refused"], "does not read --window"),
    (EXIT_USAGE, [*_EVAL, "--runs", "1", "--out", "refused"], "needs runs >= 2, got 1"),
    (EXIT_USAGE, ["eval", "static", "nb", "--data", "short.jsonl",
                  "--test-size", str(10**400), "--out", "refused"], "test_size must be <="),
    (EXIT_USAGE, ["eval", "dynamic", "icrm", "--data", "short.jsonl",
                  "--proliferation", "1e308", "--out", "refused"], "proliferation must be <="),
    (EXIT_USAGE, ["eval", "dynamic", "icrm", "--data", "short.jsonl",
                  "--config", "huge-populations.conf", "--out", "refused"], "e0_ham must be <="),
    (EXIT_DATA, ["eval", "dynamic", "both", "--data", "short.jsonl", "--out", "refused"],
     "holds 1 window(s)"),
    (EXIT_DATA, ["eval", "static", "nb", "--data", "compact-date.jsonl", "--out", "refused"],
     "compact-date.jsonl: line 1: bad timestamp"),
    (EXIT_DATA, ["eval", "static", "icrm", "--data", "fieldless.jsonl", "--out", "refused"],
     "fieldless.jsonl: line 1: missing field"),
    (EXIT_DATA, ["classify", "long-int.json", "msg.txt"],
     "cannot read icrm-state file long-int.json"),
    (EXIT_DATA, ["classify", "huge-state.json", "msg.txt"], "sum past the largest float"),
    (EXIT_DATA, ["classify", "int-features.json", "msg.txt"],
     "features must be a list of strings"),
    (EXIT_DATA, ["classify", "rng-float.json", "msg.txt"],
     "rng_state does not read back unchanged"),
    (EXIT_DATA, ["classify", "truncated-body.state", "msg.txt"],
     "truncated-body.state: ValueError('populations hold 3007 bytes, not 16 for each of 188 features"),
    (EXIT_DATA, ["classify", "extra-byte.state", "msg.txt"],
     "extra-byte.state: ValueError('populations hold 3009 bytes, not 16 for each of 188 features"),
    (EXIT_DATA, ["classify", "no-body.state", "msg.txt"],
     "no-body.state: ValueError('populations hold 0 bytes, not 16 for each of 188 features"),
    (EXIT_DATA, ["classify", "v2-populations.state", "msg.txt"],
     "v2-populations.state: ValueError('populations hold 0 bytes, not 16 for each of 188 features"),
    (EXIT_DATA, ["classify", "features-object.state", "msg.txt"],
     "features-object.state: ValueError('features must be a list of strings')"),
    # a refusal that quotes a line break still prints one line
    (EXIT_DATA, ["report", "a\nb"], "not a report directory"),
]


def _case_id(argv: list[str]) -> str:
    return " ".join(argv).replace(str(10**400), "10**400").replace("\n", "\\n") or "no-args"


def _icrm(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``icrm *argv`` in a fresh interpreter, RuntimeWarnings as errors."""
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, "-m", "icrm.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "code, argv, named", _REFUSALS, ids=[_case_id(argv) for _, argv, _ in _REFUSALS]
)
def test_a_refusal_exits_with_its_code_and_one_stderr_line(inputs, code, argv, named):
    out = _icrm(argv, inputs)
    err = out.stderr
    assert out.returncode == code, err
    assert err.endswith("\n") and len(err.splitlines()) == 1, err
    assert err.startswith("icrm: ") and "Traceback" not in err, err
    assert named in err, err


# the first line classify prints for a message: its label and score
_VERDICT_LINE = re.compile(r"(ham|spam) -?[0-9.]+")

_MODELS = {
    "default": IcrmClassifier,
    "forgetting": lambda: IcrmClassifier(IcrmConfig(death_rate=0.02)),
    "random-sampler": lambda: IcrmClassifier(IcrmConfig(feature_sampler="random")),
}


@pytest.mark.parametrize("model", list(_MODELS))
def test_a_loaded_state_saves_back_byte_for_byte_and_classifies_alike(
    inputs, tmp_path, model
):
    """Train on the corpus, save, load, save again: the two files are the
    same bytes, and the loaded model labels the corpus as the trained one
    does. The classify command reads each state."""
    dataset = read_canonical(inputs / "short.jsonl")
    messages = dataset.ham + dataset.spam
    trained = _MODELS[model]()
    trained.train(messages)
    state, again = tmp_path / "state.json", tmp_path / "again.json"
    trained.save(state)
    loaded = type(trained).load(state)
    loaded.save(again)
    assert again.read_bytes() == state.read_bytes()
    assert [loaded.classify(m) for m in messages] == [trained.classify(m) for m in messages]
    out = _icrm(["classify", str(state), "msg.txt", "--explain"], inputs)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert _VERDICT_LINE.fullmatch(out.stdout.splitlines()[0]), out.stdout


def test_several_messages_print_what_each_alone_prints_first(inputs, tmp_path):
    """``classify STATE msg empty`` begins with what ``classify STATE msg``
    prints, through one load; an empty message prints ``spam 0.000000``."""
    clf = IcrmClassifier()
    dataset = read_canonical(inputs / "short.jsonl")
    clf.train(dataset.ham + dataset.spam)
    clf.save(tmp_path / "state.json")
    (tmp_path / "msg.txt").write_bytes((inputs / "msg.txt").read_bytes())
    (tmp_path / "empty.txt").write_text("")
    printed = {}
    for name, messages in (("msg", ["msg.txt"]), ("empty", ["empty.txt"]),
                           ("both", ["msg.txt", "empty.txt"])):
        out = _icrm(["classify", "state.json", *messages, "--explain"], tmp_path)
        assert out.returncode == 0 and out.stderr == "", out.stderr
        assert _VERDICT_LINE.fullmatch(out.stdout.splitlines()[0]), out.stdout
        printed[name] = out.stdout
    assert printed["both"].startswith(printed["msg"])
    assert printed["both"].splitlines()[-1] == "spam 0.000000" == printed["empty"].strip()


@pytest.mark.parametrize("settings", [
    # first-seen test features at a subnormal norm: classify takes the exact sum
    ["--e0-test", "5e-324", "--r0-test", "0"],
    ["--death-rate", "0.02"],
], ids=["subnormal-first-seen", "forgetting"])
def test_a_dynamic_icrm_run_and_its_report_exit_0(inputs, tmp_path, settings):
    out = _icrm(["eval", "dynamic", "icrm", *settings, "--window", "50",
                 "--data", str(inputs / "short.jsonl"), "--out", "run"], tmp_path)
    assert out.returncode == 0, out.stderr
    report = _icrm(["report", "run"], tmp_path)
    assert report.returncode == 0 and report.stderr == "", report.stderr
    assert "dynamic_icrm_summary.csv" in report.stdout
