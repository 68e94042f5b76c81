"""End-to-end CLI behaviour: commands, files, exit codes, determinism."""

import csv
import functools
import hashlib
import inspect
import io
import json
import re
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from icrm import cli, ranges
from icrm.cli import DEFAULTS, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from icrm.corpus import HAM, SPAM, read_canonical, read_message_file, write_canonical
from icrm.evaluation import EvalError, check_settings, eval_dynamic, eval_static
from icrm.model import IcrmClassifier, IcrmConfig, SnapshotError
from icrm.synth import synthetic_dataset
from icrm.textprep import preprocess

from conftest import make_message
from model_reference import edit_state, state_file, v2_populations_at_version_3


@pytest.fixture(scope="module")
def canonical_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    ds = synthetic_dataset(n_ham=400, n_spam=400, seed=13)
    write_canonical(ds, path)
    return path


def _write_enron_tree(root):
    for label, count in ((HAM, 5), (SPAM, 4)):
        d = root / label
        d.mkdir(parents=True)
        for i in range(count):
            (d / f"{i:04d}.2002-03-{10 + i:02d}.x.{label}.txt").write_text(
                f"Subject: {label} message {i}\nsome body words here", encoding="utf-8"
            )


def _refuse_reading(monkeypatch, path):
    """Make ``Path.read_text`` raise ``PermissionError`` for ``path`` only."""
    real_read_text = Path.read_text

    def read_text(self, *args, **kwargs):
        if self == path:
            raise PermissionError(13, "Permission denied", str(self))
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)


class TestIngest:
    def test_ingest_writes_canonical(self, tmp_path, capsys):
        _write_enron_tree(tmp_path / "tree")
        out = tmp_path / "corpus.jsonl"
        code = main(["ingest", str(tmp_path / "tree"), str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "ham: 5" in printed and "spam: 4" in printed and "rejected: 0" in printed
        ds = read_canonical(out)
        assert (len(ds.ham), len(ds.spam)) == (5, 4)

    def test_limit_flag(self, tmp_path, capsys):
        _write_enron_tree(tmp_path / "tree")
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(tmp_path / "tree"), str(out), "--limit", "2"]) == EXIT_OK
        ds = read_canonical(out)
        assert (len(ds.ham), len(ds.spam)) == (2, 2)

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_limit_below_one_is_usage_error(self, tmp_path, capsys, limit):
        # no tree exists: the limit is refused before the tree is read
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(tmp_path / "tree"), str(out), "--limit", limit]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"icrm: config error: limit must be >= 1, got {limit}\n"
        assert not out.exists()

    def test_config_keys_ingest_does_not_read_are_never_checked(self, tmp_path, capsys):
        """A config file's ``limit`` is read, and the settings beside it that
        only ``eval`` reads are left unmerged, out of range as they are."""
        _write_enron_tree(tmp_path / "tree")
        conf = tmp_path / "ingest.conf"
        conf.write_text("limit = 1\nruns = 0\nwindow = 0\n", encoding="utf-8")
        outs = {}
        for name, extra in (("flag", ["--limit", "1"]), ("file", ["--config", str(conf)])):
            outs[name] = tmp_path / f"{name}.jsonl"
            code = main(["ingest", str(tmp_path / "tree"), str(outs[name]), *extra])
            assert code == EXIT_OK, capsys.readouterr().err
        assert outs["file"].read_bytes() == outs["flag"].read_bytes()
        ds = read_canonical(outs["file"])
        assert (len(ds.ham), len(ds.spam)) == (1, 1)

    def test_missing_class_dir_is_data_error(self, tmp_path, capsys):
        (tmp_path / "tree" / HAM).mkdir(parents=True)
        code = main(["ingest", str(tmp_path / "tree"), str(tmp_path / "out.jsonl")])
        assert code == EXIT_DATA
        assert "spam" in capsys.readouterr().err

    def test_unreadable_message_file_is_data_error(self, tmp_path, capsys, monkeypatch):
        _write_enron_tree(tmp_path / "tree")
        unreadable = tmp_path / "tree" / SPAM / "0002.2002-03-12.x.spam.txt"
        _refuse_reading(monkeypatch, unreadable)
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(tmp_path / "tree"), str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("icrm: error: cannot read message file ")
        assert err.count("\n") == 1 and str(unreadable) in err
        assert not out.exists()

    def test_unlistable_class_directory_is_data_error(self, tmp_path, capsys, monkeypatch):
        _write_enron_tree(tmp_path / "tree")
        real_iterdir = Path.iterdir

        def iterdir(self):
            if self.name == HAM:
                raise PermissionError(13, "Permission denied", str(self))
            return real_iterdir(self)

        monkeypatch.setattr(Path, "iterdir", iterdir)
        assert main(["ingest", str(tmp_path / "tree"), str(tmp_path / "o.jsonl")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "tree" / HAM) in err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        _write_enron_tree(tmp_path / "tree")
        out = tmp_path / "missing-dir" / "out.jsonl"
        assert main(["ingest", str(tmp_path / "tree"), str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("icrm: config error: ") and err.count("\n") == 1
        assert str(out) in err


class TestEval:
    def test_static_both_writes_reports(self, tmp_path, canonical_file, capsys):
        out = tmp_path / "reports"
        code = main([
            "eval", "static", "both", "--data", str(canonical_file),
            "--runs", "3", "--out", str(out), "--seed", "7",
        ])
        assert code == EXIT_OK
        for name in (
            "static_icrm.csv", "static_icrm_summary.csv",
            "static_nb.csv", "static_nb_summary.csv", "static_ttest.csv",
        ):
            assert (out / name).exists(), name
        header = (out / "static_icrm.csv").read_text().splitlines()[0]
        assert header == "run,f_score,accuracy,precision,recall,pct_fp,pct_fn"
        assert (out / "static_icrm.csv").read_text().count("\n") == 4
        printed = capsys.readouterr().out
        assert "paired t-test" in printed
        assert "F-score" in printed

    def test_dynamic_window_rows(self, tmp_path, canonical_file):
        out = tmp_path / "dynrep"
        code = main([
            "eval", "dynamic", "icrm", "--data", str(canonical_file),
            "--window", "100", "--shift", "50", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "dynamic_icrm.csv").read_text().splitlines()
        assert lines[0] == "window_start,f_score,accuracy,pct_fp,pct_fn"
        stream = 2 * (400 - 100)
        assert len(lines) - 1 == (stream - 100) // 50 + 1
        summary = (out / "dynamic_icrm_summary.csv").read_text().splitlines()
        fp_row = [l for l in summary if l.startswith("pct_fp,")][0]
        assert len(fp_row.split(",")) == 5  # slope and r_squared filled

    @pytest.mark.parametrize("args", [
        ["static", "icrm", "--runs", "2"],
        ["static", "icrm", "--runs", "2", "--death-rate", "0.02"],
        ["dynamic", "icrm", "--window", "100", "--shift", "50"],
        ["dynamic", "icrm", "--window", "100", "--shift", "50", "--death-rate", "0.02"],
    ], ids=["static", "static-forgetting", "dynamic", "dynamic-forgetting"])
    def test_byte_identical_reruns(self, tmp_path, canonical_file, args):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "eval", *args, "--data", str(canonical_file),
                "--out", str(out), "--seed", "5",
            ]) == EXIT_OK
            outs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert outs[0] and outs[0] == outs[1]

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "eval", "static", "icrm", "--data", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_DATA

    def test_config_file_and_flag_precedence(self, tmp_path, canonical_file):
        cfg = tmp_path / "settings.conf"
        cfg.write_text("runs = 2\nseed = 11\n# comment\n", encoding="utf-8")
        out = tmp_path / "viacfg"
        assert main([
            "eval", "static", "icrm", "--data", str(canonical_file),
            "--config", str(cfg), "--out", str(out),
        ]) == EXIT_OK
        assert (out / "static_icrm.csv").read_text().count("\n") == 3  # header + 2 runs
        out2 = tmp_path / "flagwins"
        assert main([
            "eval", "static", "icrm", "--data", str(canonical_file),
            "--config", str(cfg), "--runs", "3", "--out", str(out2),
        ]) == EXIT_OK
        assert (out2 / "static_icrm.csv").read_text().count("\n") == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path, canonical_file, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("frobnicate = 3\n", encoding="utf-8")
        code = main([
            "eval", "static", "icrm", "--data", str(canonical_file),
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("mode, flags, config", [
        ("static", ["--e0-ham", "20"], None),
        ("static", ["--runs", "0"], None),
        ("static", ["--runs", "-1"], None),
        ("static", ["--window", "0"], None),
        ("static", ["--shift", "0"], None),
        ("static", ["--shift", "-5"], None),
        ("static", [], "runs = 0"),
        ("static", [], "proliferation = nan"),
        ("static", [], "proliferation = inf"),
        ("static", [], "e0_spam = inf"),
        ("static", ["--test-size", "0"], None),
        ("static", ["--test-size", "-3"], None),
        ("static", ["--train-per-class", "0"], None),
        ("static", ["--n-a", "0"], None),
        ("static", ["--n", "3"], None),
        ("static", ["--spam-ratio", "0"], None),
        ("static", ["--spam-ratio", "1"], None),
        ("static", ["--spam-ratio", "1.5"], None),
        ("static", ["--spam-ratio", "nan"], None),
        ("static", [], "spam_ratio = nan"),
        ("static", [], "test_size = 0"),
        ("static", ["--seed", "-1"], None),
        ("dynamic", ["--window", "0"], None),
        ("dynamic", ["--shift", "0"], None),
        ("static", ["--r0-spam", "-1"], None),
        ("static", ["--e0-ham", "-0.5"], None),
        ("dynamic", ["--r0-test", "-1e-300"], None),
        ("static", [], "r0_test = -2"),
        ("static", [], "jobs = 2"),
        ("static", [], "death_rate = 2"),
        ("static", [], "feature_sampler = bogus"),
        ("dynamic", ["--proliferation", "1e308"], None),
        ("dynamic", [], "e0_ham = 1e308\nr0_ham = 1.7e308"),
        ("static", ["--n-a", "1001"], None),
        ("static", ["--n", "1002"], None),
        ("static", ["--e0-test", "1000001"], None),
        ("static", ["--train-per-class", "1000000001"], None),
        ("dynamic", ["--train-per-class", "1000000001"], None),
    ], ids=[
        "e0-ham-20", "runs-0", "runs-negative", "window-0", "shift-0", "shift-negative",
        "config-runs-0", "config-proliferation-nan", "config-proliferation-inf",
        "config-e0-spam-inf", "test-size-0", "test-size-negative",
        "train-per-class-0", "n-a-0", "n-3", "spam-ratio-0",
        "spam-ratio-1", "spam-ratio-1.5", "spam-ratio-nan", "config-spam-ratio-nan",
        "config-test-size-0", "seed-negative", "dynamic-window-0", "dynamic-shift-0",
        "r0-spam-negative", "e0-ham-negative", "dynamic-r0-test-negative",
        "config-r0-test-negative", "config-jobs-2", "config-death-rate-2",
        "config-feature-sampler-bogus", "dynamic-proliferation-1e308",
        "dynamic-config-ham-populations-near-float-max", "n-a-1001", "n-1002",
        "e0-test-above-10**6", "train-per-class-above-10**9",
        "dynamic-train-per-class-above-10**9",
    ])
    def test_invalid_model_config_reported_before_compute(
        self, tmp_path, canonical_file, mode, flags, config
    ):
        if config is not None:
            (tmp_path / "bad.conf").write_text(config + "\n", encoding="utf-8")
            flags = flags + ["--config", str(tmp_path / "bad.conf")]
        code = main([
            "eval", mode, "icrm", "--data", str(canonical_file),
            *flags, "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make_out", [
        pytest.param(lambda tmp: tmp / "taken", id="existing-file"),
        pytest.param(lambda tmp: tmp / "taken" / "sub", id="below-a-file"),
        pytest.param(
            lambda tmp: (tmp / "o" / "static_icrm.csv").mkdir(parents=True) or tmp / "o",
            id="report-path-is-a-directory",
        ),
    ])
    def test_unwritable_out_is_usage_error_before_compute(
        self, tmp_path, canonical_file, capsys, monkeypatch, make_out
    ):
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        out = make_out(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("the protocol ran before the output check")

        monkeypatch.setitem(cli._PROTOCOLS, "static", refuse)
        code = main(["eval", "static", "icrm", "--data", str(canonical_file),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("icrm: config error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_report_write_error_is_usage_error(
        self, tmp_path, canonical_file, capsys, monkeypatch
    ):
        def refuse_write(report, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setitem(cli._PROTOCOLS, "static", lambda *a, **k: None)
        monkeypatch.setattr(cli, "write_runs_csv", refuse_write)
        out = tmp_path / "o"
        code = main(["eval", "static", "icrm", "--data", str(canonical_file),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"icrm: config error: cannot write {out}") and err.count("\n") == 1

    @pytest.mark.parametrize("line", [
        "runs 3", "frobnicate = 3", "runs = three", "balance = maybe",
    ], ids=["no-equals", "unknown-key", "bad-int", "bad-bool"])
    def test_config_error_names_file_and_line(self, tmp_path, canonical_file, capsys, line):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(f"# settings\n{line}\n", encoding="utf-8")
        code = main(["eval", "static", "icrm", "--data", str(canonical_file),
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"icrm: config error: {cfg}: line 2: ") and err.count("\n") == 1

    def test_usage_error_exit_code(self, capsys):
        assert main(["eval", "nonsense", "icrm", "--data", "x"]) == EXIT_USAGE


class _ProtocolReached(Exception):
    pass


def _checking_protocol(dataset, factory, **protocol_settings):
    check_settings(protocol_settings)
    raise _ProtocolReached


_CONFIG_VALUES = (
    st.text(max_size=12)
    | st.integers(-10**6, 10**6).map(str)
    | st.floats().map(repr)
    | st.sampled_from(sorted(cli._BOOL_STRINGS) + ["first-last", "random", "0.5"])
)


@given(key=st.sampled_from(sorted(set(DEFAULTS) - {"out", "stopwords"})),
       value=_CONFIG_VALUES)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_config_line_gives_config_error_or_valid_settings(
    tmp_path, capsys, monkeypatch, key, value
):
    """One ``key = <any text>`` line: a one-line config error, or settings
    that pass both the model's and the protocol's own checks."""
    data = tmp_path / "data.jsonl"
    if not data.exists():
        write_canonical(synthetic_dataset(n_ham=3, n_spam=3, seed=1), data)
    cfg = tmp_path / "fuzz.conf"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    monkeypatch.setitem(cli._PROTOCOLS, "static", _checking_protocol)
    capsys.readouterr()
    try:
        code = main(["eval", "static", "icrm", "--data", str(data),
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
    except _ProtocolReached:
        return
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert err.startswith("icrm: config error: ") and err.count("\n") == 1, err


def _set_first(value: float):
    """A block edit that sets the first population to ``value``."""
    return lambda raw: struct.pack("<d", value) + raw[8:]


# edits to the header keys versions 2 and 3 share
_HEADER_EDITS = [
    ("missing-config", lambda s: s.pop("config")),
    ("odd-n", lambda s: s["config"].update(n=3)),
    ("unknown-config-key", lambda s: s["config"].update(bogus=1)),
    ("unknown-sampler", lambda s: s.update(sampler="bogus")),
    ("sampler-in-config", lambda s: s["config"].update(feature_sampler="first-last")),
    ("rng-state", lambda s: s.update(rng_state={"a": 1})),
    ("rng-state-1.5", lambda s: s["rng_state"]["state"].update(state=1.5)),
    ("float-n", lambda s: s["config"].update(n=50.0)),
    ("float-n_a", lambda s: s["config"].update(n_a=10.0)),
    ("huge-int-e0", lambda s: s["config"].update(e0_test=10**400)),
    ("proliferation-1e308", lambda s: s["config"].update(proliferation=1e308)),
    ("ham-populations-near-float-max",
     lambda s: s["config"].update(e0_ham=1e308, r0_ham=1.7e308)),
    ("n_a-10**6", lambda s: s["config"].update(n_a=10**6)),
    ("features-not-a-list", lambda s: s.update(features=dict.fromkeys(s["features"], 1))),
    ("features-none", lambda s: s.update(features=None)),
    ("no-features", lambda s: s.pop("features")),
    ("non-string-feature", lambda s: s["features"].__setitem__(0, 7)),
    ("repeated-feature", lambda s: s["features"].__setitem__(1, s["features"][0])),
]

# edits to the population bytes versions 2 and 3 share
_BLOCK_EDITS = [
    ("truncated-body", lambda raw: raw[:-1]),
    ("8-bytes-short", lambda raw: raw[:-8]),
    ("8-bytes-long", lambda raw: raw + bytes(8)),
    ("one-extra-byte", lambda raw: raw + b"\x00"),
    ("header-with-no-body", lambda raw: b""),
    ("nan", _set_first(float("nan"))),
    ("inf", _set_first(float("inf"))),
    ("negative", _set_first(-1.0)),
]

_DAMAGES = ([(name, edit_state(header=edit)) for name, edit in _HEADER_EDITS]
            + [(name, edit_state(block=edit)) for name, edit in _BLOCK_EDITS])

# damages to the text only one version encodes
_ENCODED = [
    (1, "population-x",
     edit_state(header=lambda s: s["repertoire"].update(alpha=["x", 1.0]))),
    (1, "population-negative",
     edit_state(header=lambda s: s["repertoire"].update(alpha=[-1.0, 1.0]))),
    (1, "population-nan",
     edit_state(header=lambda s: s["repertoire"].update(alpha=[1.0, float("nan")]))),
    (1, "population-not-a-pair",
     edit_state(header=lambda s: s["repertoire"].update(alpha=[1.0]))),
    (2, "truncated-base64",
     edit_state(header=lambda s: s.update(populations=s["populations"][:-1]))),
    (2, "extra-padding",
     edit_state(header=lambda s: s.update(populations=s["populations"] + "="))),
    # 48 bytes fill 16 base64 quads exactly, and decoding lets a "=" after them pass
    (2, "padding-after-last-quad", edit_state(
        header=lambda s: s.update(features=s["features"][:3],
                                  populations=s["populations"] + "="),
        block=lambda raw: raw[:48])),
    (2, "outside-alphabet",
     edit_state(header=lambda s: s.update(populations="-" + s["populations"][1:]))),
    (3, "extra-line-feed", edit_state(block=lambda raw: raw + b"\n")),
    (3, "header-with-no-line-feed", lambda raw: raw.partition(b"\n")[0]),
    (3, "populations-key", v2_populations_at_version_3),
]


def _assert_malformed(snapshot: Path, tmp_path: Path, capsys) -> None:
    """Loading ``snapshot`` is a ``SnapshotError`` naming it, and
    ``classify`` exits 2 with one line that says the file is malformed."""
    with pytest.raises(SnapshotError, match=re.escape(str(snapshot))):
        IcrmClassifier.load(snapshot)
    msg = tmp_path / "m.txt"
    msg.write_text("Subject: x\nhello", encoding="utf-8")
    assert main(["classify", str(snapshot), str(msg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"icrm: error: malformed state file {snapshot}: ")
    assert err.count("\n") == 1


def _resaved(path: Path, version: int) -> bytes:
    """The state saved at ``path`` as ``version`` wrote it."""
    clf = IcrmClassifier.load(path)
    return state_file(version, dict(clf.repertoire), clf.config, clf.rng)


class TestClassify:
    @pytest.fixture()
    def snapshot(self, tmp_path, disjoint_corpus):
        clf = IcrmClassifier(IcrmConfig(seed=3))
        clf.train(disjoint_corpus.ham[:60] + disjoint_corpus.spam[:60])
        path = tmp_path / "state.json"
        clf.save(path)
        return path

    def test_empty_message_is_spam_zero(self, tmp_path, snapshot, capsys):
        msg = tmp_path / "empty.txt"
        msg.write_text("Subject:\n", encoding="utf-8")
        assert main(["classify", str(snapshot), str(msg)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "spam 0.000000"

    def test_ham_vocabulary_message(self, tmp_path, snapshot, capsys, disjoint_corpus):
        msg = tmp_path / "hammy.txt"
        body = disjoint_corpus.ham[70].body
        msg.write_text(f"Subject: hello\n{body}", encoding="utf-8")
        assert main(["classify", str(snapshot), str(msg)]) == EXIT_OK
        label, score = capsys.readouterr().out.strip().split()
        assert label == "ham"
        assert float(score) > 0

    def test_explain_lists_features(self, tmp_path, snapshot, capsys, disjoint_corpus):
        msg = tmp_path / "m.txt"
        msg.write_text(f"Subject: x\n{disjoint_corpus.spam[70].body}", encoding="utf-8")
        assert main(["classify", str(snapshot), str(msg), "--explain"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 1
        feature, value = lines[1].split()
        float(value)

    @pytest.mark.parametrize("version, damage", [
        *[pytest.param(version, damage, id=f"v{version}-{name}")
          for name, damage in _DAMAGES for version in (2, 3)],
        *[pytest.param(version, damage, id=f"v{version}-{name}")
          for version, name, damage in _ENCODED],
    ])
    def test_malformed_snapshot_is_data_error(
        self, tmp_path, snapshot, capsys, version, damage
    ):
        snapshot.write_bytes(damage(_resaved(snapshot, version)))
        _assert_malformed(snapshot, tmp_path, capsys)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", None])
    def test_version_must_be_an_accepted_int(self, snapshot, version):
        snapshot.write_bytes(edit_state(header=lambda s: s.update(version=version))(
            _resaved(snapshot, 2)))
        with pytest.raises(SnapshotError, match=re.escape(f"{snapshot}: unsupported")):
            IcrmClassifier.load(snapshot)

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_header_line_at_another_version_is_refused(self, snapshot, version):
        """Only version 3 is a header line and a block; a file whose first
        line holds version 1 or 2 is read as one JSON value, which a header
        line and its block are not."""
        snapshot.write_bytes(edit_state(header=lambda s: s.update(version=version))(
            snapshot.read_bytes()))
        text = f"cannot read icrm-state file {snapshot}: "
        with pytest.raises(SnapshotError, match=f"^{re.escape(text)}"):
            IcrmClassifier.load(snapshot)

    @pytest.mark.parametrize("edit, shown", [
        pytest.param(lambda s: s.update(version=4), "4", id="4"),
        pytest.param(lambda s: s.update(version=3.0), "3.0", id="3.0"),
        pytest.param(lambda s: s.update(version="3"), "'3'", id="str-3"),
        pytest.param(lambda s: s.update(version=True), "True", id="true"),
        pytest.param(lambda s: s.update(version=None), "None", id="null"),
        pytest.param(lambda s: s.pop("version"), "None", id="absent"),
    ])
    def test_a_header_line_at_an_unsupported_version_is_refused_by_its_version(
        self, tmp_path, snapshot, capsys, edit, shown
    ):
        """A header line of the format decides the version: at any version
        but 1, 2 or 3 the file is refused by that version, and its block is
        never decoded as text."""
        snapshot.write_bytes(edit_state(header=edit)(snapshot.read_bytes()))
        text = f"{snapshot}: unsupported icrm-state version {shown}"
        with pytest.raises(SnapshotError, match=f"^{re.escape(text)}$"):
            IcrmClassifier.load(snapshot)
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        assert main(["classify", str(snapshot), str(msg)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"icrm: error: {text}\n")

    def test_a_config_key_classify_does_not_read_must_still_parse(
        self, tmp_path, snapshot, capsys
    ):
        conf = tmp_path / "other.conf"
        conf.write_text("seed = abc\n", encoding="utf-8")
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        assert main(["classify", str(snapshot), str(msg), "--config", str(conf)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"icrm: config error: {conf}: line 1: bad value 'abc' for 'seed'\n")

    def test_config_keys_classify_does_not_read_are_never_checked(
        self, tmp_path, snapshot, capsys, disjoint_corpus
    ):
        """Out-of-range model settings in the config file neither refuse the
        command nor reach the loaded state: the verdicts are the ones printed
        without the file."""
        conf = tmp_path / "other.conf"
        conf.write_text("death_rate = 2\nn = 3\n", encoding="utf-8")
        msg = tmp_path / "m.txt"
        msg.write_text(f"Subject: x\n{disjoint_corpus.spam[70].body}", encoding="utf-8")
        printed = []
        for extra in ([], ["--config", str(conf)]):
            code = main(["classify", str(snapshot), str(msg), "--explain", *extra])
            captured = capsys.readouterr()
            assert (code, captured.err) == (EXIT_OK, "")
            printed.append(captured.out)
        assert printed[0] == printed[1]
        assert len(printed[0].splitlines()) > 4  # n = 3 would explain three features

    def test_deeply_nested_snapshot_is_data_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[" * 100_000, encoding="utf-8")
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        assert main(["classify", str(state), str(msg)]) == EXIT_DATA
        assert str(state) in capsys.readouterr().err

    def test_unreadable_message_file_is_data_error(
        self, tmp_path, snapshot, capsys, monkeypatch
    ):
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        _refuse_reading(monkeypatch, msg)
        assert main(["classify", str(snapshot), str(msg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"icrm: error: cannot read message file {msg}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("explain", [[], ["--explain"]], ids=["plain", "explain"])
    def test_several_messages_are_one_stream_through_one_load(
        self, tmp_path, snapshot, capsys, disjoint_corpus, explain
    ):
        """``classify STATE a b a`` prints what one load followed by
        ``verdict(a)``, ``verdict(b)`` and ``verdict(a)`` gives, block after
        block: the second ``a`` sees the adaptation of the first two."""
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(f"Subject: x\n{disjoint_corpus.spam[70].body}", encoding="utf-8")
        b.write_text(f"Subject: y\n{disjoint_corpus.ham[70].body}", encoding="utf-8")
        assert main(["classify", str(snapshot), str(a), str(b), str(a), *explain]) == EXIT_OK
        clf = IcrmClassifier.load(snapshot)
        blocks = []
        for path in (a, b, a):
            subject, body = read_message_file(path)
            verdict = clf.verdict(make_message(subject=subject, body=body))
            lines = [f"{verdict.label} {verdict.score:.6f}\n"]
            if explain:
                lines += [f"  {f} {score:+.6f}\n" for f, score in verdict.per_feature]
            blocks.append("".join(lines))
        assert capsys.readouterr().out == "".join(blocks)
        assert blocks[0] != blocks[2]

    def test_an_unreadable_later_message_prints_nothing(
        self, tmp_path, snapshot, capsys, monkeypatch
    ):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for msg in (a, b):
            msg.write_text("Subject: x\nhello", encoding="utf-8")
        _refuse_reading(monkeypatch, b)
        assert main(["classify", str(snapshot), str(a), str(b)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"icrm: error: cannot read message file {b}: ")
        assert captured.err.count("\n") == 1

    def test_missing_snapshot_is_data_error(self, tmp_path, capsys):
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        assert main(["classify", str(tmp_path / "none.json"), str(msg)]) == EXIT_DATA


class TestReport:
    def test_rerenders_summaries(self, tmp_path, canonical_file, capsys):
        out = tmp_path / "rep"
        main([
            "eval", "static", "both", "--data", str(canonical_file),
            "--runs", "2", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "static_icrm_summary.csv" in printed
        assert "f_score" in printed
        assert "static_ttest.csv" in printed

    def test_rerenders_dynamic_drift(self, tmp_path, canonical_file, capsys):
        out = tmp_path / "dynrep"
        main([
            "eval", "dynamic", "icrm", "--data", str(canonical_file),
            "--window", "100", "--shift", "50", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        with open(out / "dynamic_icrm_summary.csv", encoding="utf-8") as fh:
            fp = next(row for row in csv.DictReader(fh) if row["metric"] == "pct_fp")
        assert (
            f"  pct_fp       {fp['mean']} +/- {fp['sd']}"
            f"  slope {fp['slope']} R2 {fp['r_squared']}"
        ) in printed

    def test_missing_dir_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "missing")]) == EXIT_DATA


def _keyword_defaults(func):
    return {
        name: p.default
        for name, p in inspect.signature(func).parameters.items()
        if p.default is not p.empty
    }


def test_settings_surface(capsys):
    """Library defaults are config keys and eval flags; the flags stay fixed."""
    assert main(["eval", "--help"]) == EXIT_OK
    options = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    sources = [
        {f.name: f.default for f in fields(IcrmConfig)},
        _keyword_defaults(eval_static),
        _keyword_defaults(eval_dynamic),
    ]
    for source in sources:
        for key, default in source.items():
            assert "--" + key.replace("_", "-") in options, key
            assert key in DEFAULTS and DEFAULTS[key] == default, key
    assert sources[0]["seed"] == sources[1]["seed"] == sources[2]["seed"] == 42
    assert sources[1]["train_per_class"] == sources[2]["train_per_class"] == 100
    assert options == {
        "--balance", "--config", "--data", "--death-rate", "--e0-ham",
        "--e0-spam", "--e0-test", "--feature-sampler", "--help", "--n", "--n-a", "--no-balance", "--no-shuffle-test", "--out",
        "--proliferation", "--r0-ham", "--r0-spam", "--r0-test", "--runs",
        "--seed", "--shift", "--shuffle-test", "--spam-ratio", "--stopwords",
        "--test-size", "--train-per-class", "--window",
    }
    for command, want in (
        ("ingest", {"--config", "--help", "--limit"}),
        ("classify", {"--config", "--explain", "--help", "--stopwords"}),
        ("report", {"--help"}),
    ):
        assert main([command, "--help"]) == EXIT_OK
        assert set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) == want, command


_ICRM_ONLY = [
    ["--n-a", "1"], ["--e0-ham", "1"], ["--r0-ham", "20"], ["--e0-spam", "9"],
    ["--r0-spam", "1"], ["--e0-test", "9"], ["--r0-test", "1"],
    ["--proliferation", "0.5"], ["--death-rate", "0.5"], ["--feature-sampler", "random"],
]
_REFUSED = (
    [("ingest", f) for f in (["--seed", "9"], ["--out", "x"], ["--stopwords", "x"])]
    + [("classify", f) for f in (["--seed", "9"], ["--out", "x"])]
    + [("report", f) for f in (["--seed", "9"], ["--out", "x"], ["--stopwords", "x"],
                               ["--config", "x"])]
    + [(f"eval static {model}", f)
       for model in ("icrm", "nb", "both") for f in (["--window", "100"], ["--shift", "20"])]
    + [(f"eval dynamic {model}", f)
       for model in ("icrm", "nb", "both")
       for f in (["--runs", "3"], ["--test-size", "50"], ["--spam-ratio", "0.3"],
                 ["--balance"], ["--no-balance"], ["--shuffle-test"],
                 ["--no-shuffle-test"])]
    + [(f"eval {mode} nb", f) for mode in ("static", "dynamic") for f in _ICRM_ONLY]
    # the dynamic protocol's seed reaches the classifier alone, and NB draws nothing
    + [("eval dynamic nb", ["--seed", "9"])]
)


@pytest.mark.parametrize("command, flag", _REFUSED,
                         ids=[f"{c.replace(' ', '-')}{f[0]}" for c, f in _REFUSED])
def test_flag_a_command_does_not_read_is_refused(
    tmp_path, canonical_file, capsys, monkeypatch, command, flag
):
    """A flag the run would ignore exits 1 naming it, before any input is
    read or any output is written."""
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was read before the flag check")

    monkeypatch.setattr(cli, "read_canonical", refuse)
    out = tmp_path / "o"
    name, *rest = command.split()
    positional = {
        "ingest": [str(tmp_path / "tree"), str(out)],
        "classify": [str(tmp_path / "state.json"), str(tmp_path / "m.txt")],
        "report": [str(out)],
        "eval": [*rest, "--data", str(canonical_file), "--out", str(out)],
    }[name]
    assert main([name, *positional, *flag]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("icrm: config error: ") and err.count("\n") == 1, err
    assert flag[0] in err
    assert not out.exists()


def test_an_unread_flag_is_refused_before_the_config_file_is_read(
    tmp_path, canonical_file, capsys
):
    conf = tmp_path / "bad.conf"
    conf.write_text("seed = abc\n", encoding="utf-8")
    code = main(["eval", "static", "nb", "--data", str(canonical_file), "--window", "100",
                 "--config", str(conf), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "icrm: config error: eval static nb does not read --window\n")


@pytest.mark.parametrize("flags, config", [
    (["--runs", "1"], None), ([], "runs = 1"),
], ids=["flag", "config"])
def test_static_both_with_one_run_is_refused(
    tmp_path, canonical_file, capsys, monkeypatch, flags, config
):
    """The paired t-test of ``both`` needs two runs; one run exits 1 before
    the corpus is read or any output is written."""
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was read before the runs check")

    monkeypatch.setattr(cli, "read_canonical", refuse)
    if config is not None:
        (tmp_path / "one.conf").write_text(config + "\n", encoding="utf-8")
        flags = flags + ["--config", str(tmp_path / "one.conf")]
    out = tmp_path / "o"
    code = main(["eval", "static", "both", "--data", str(canonical_file),
                 "--out", str(out), *flags])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("icrm: config error: ") and err.count("\n") == 1, err
    assert "runs >= 2, got 1" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def edge_corpus(tmp_path_factory):
    """60 messages per class: 10 + 10 train and a 100-message dynamic stream."""
    path = tmp_path_factory.mktemp("edge") / "edge.jsonl"
    write_canonical(synthetic_dataset(n_ham=60, n_spam=60, seed=3), path)
    return path


_EDGE_STREAM = 100
_EDGE_CASES = (
    [("static", model, ["--runs", str(runs), "--test-size", "20"],
      1 if model == "both" and runs == 1 else 0)
     for runs in (1, 2) for model in ("icrm", "nb", "both")]
    + [("dynamic", model, ["--window", str(window), "--shift", str(shift)],
        0 if len(range(0, _EDGE_STREAM - window + 1, shift)) >= 2 else 2)
       for window in (_EDGE_STREAM - 1, _EDGE_STREAM, _EDGE_STREAM + 1)
       for shift in (1, 10) for model in ("icrm", "nb", "both")]
)


@pytest.mark.parametrize(
    "mode, model, flags, want", _EDGE_CASES,
    ids=[f"{mode}-{model}{''.join(flags)}" for mode, model, flags, _ in _EDGE_CASES],
)
def test_eval_near_its_edges(tmp_path, edge_corpus, capsys, mode, model, flags, want):
    """Fewest runs and windows: an exit code, and one stderr line when not 0."""
    code = main(["eval", mode, model, "--data", str(edge_corpus),
                 "--train-per-class", "10", "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert code == want, err
    if code:
        assert err.startswith("icrm: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """200 messages per class; the shared vocabulary keeps ICRM and NB apart."""
    path = tmp_path_factory.mktemp("short") / "short.jsonl"
    write_canonical(synthetic_dataset(n_ham=200, n_spam=200, shared_vocab=120, seed=3), path)
    return path


@pytest.mark.parametrize("mode, flags, alone", [
    ("static", ["--runs", "2", "--train-per-class", "50"], ("icrm", "nb")),
    ("dynamic", ["--window", "100"], ("icrm", "nb")),
    ("dynamic", ["--window", "100", "--death-rate", "0.02"], ("icrm",)),
], ids=["static", "dynamic", "forgetting-dynamic"])
def test_each_model_alone_writes_the_csvs_it_writes_beside_the_other(
    tmp_path, short_corpus, capsys, mode, flags, alone
):
    """Neither model's results depend on the message memo the two share."""
    for model in ("both", *alone):
        code = main(["eval", mode, model, *flags, "--data", str(short_corpus),
                     "--out", str(tmp_path / model)])
        assert code == EXIT_OK, capsys.readouterr().err
    both = {path.name: path.read_bytes() for path in (tmp_path / "both").glob("*.csv")}
    for model in alone:
        written = {path.name: path.read_bytes() for path in (tmp_path / model).glob("*.csv")}
        assert sorted(written) == [f"{mode}_{model}.csv", f"{mode}_{model}_summary.csv"]
        assert written == {name: both[name] for name in written}
    assert both[f"{mode}_icrm.csv"] != both[f"{mode}_nb.csv"]


@pytest.mark.parametrize("flags", [
    ["static", "nb", "--runs", "2"],
    ["static", "both", "--runs", "2"],
    ["dynamic", "both", "--window", "100"],
], ids=["static-nb", "static-both", "dynamic-both"])
def test_no_line_eval_prints_ends_in_whitespace(tmp_path, short_corpus, capsys, flags):
    code = main(["eval", *flags, "--train-per-class", "50", "--data", str(short_corpus),
                 "--out", str(tmp_path / "o")])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert [line for line in printed.splitlines() if line != line.rstrip()] == []


@pytest.mark.parametrize("flags", [
    ["dynamic", "both", "--window", "5000"], ["static", "both", "--runs", "50"],
], ids=["dynamic-window-5000", "static-runs-50"])
def test_a_refused_eval_removes_the_out_directories_it_made(
    tmp_path, short_corpus, capsys, flags
):
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "made" / "out", tmp_path / "kept", tmp_path / "kept" / "out"):
        code = main(["eval", *flags, "--data", str(short_corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert err.startswith("icrm: error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "made").exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert not any((tmp_path / "kept").iterdir())


def test_a_refused_eval_keeps_the_reports_it_wrote(
    tmp_path, short_corpus, capsys, monkeypatch
):
    """The second model's refusal leaves the first model's reports, and the
    directories that hold them, in place."""
    calls = []

    @functools.wraps(eval_static)  # the parser reads the protocol's keywords
    def refuse_second(dataset, factory, **settings):
        calls.append(factory)
        if len(calls) == 2:
            raise EvalError("the second model is refused")
        return eval_static(dataset, factory, **settings)

    monkeypatch.setitem(cli._PROTOCOLS, "static", refuse_second)
    out = tmp_path / "made" / "out"
    code = main(["eval", "static", "both", "--runs", "2", "--train-per-class", "50",
                 "--data", str(short_corpus), "--out", str(out)])
    assert code == EXIT_DATA, capsys.readouterr().err
    assert len(calls) == 2
    assert sorted(path.name for path in out.iterdir()) == [
        "static_icrm.csv", "static_icrm_summary.csv",
    ]


@pytest.mark.parametrize("mode, model", [
    ("static", "icrm"), ("static", "nb"), ("static", "both"),
    ("dynamic", "icrm"), ("dynamic", "both"),
])
def test_seed_is_read_where_something_draws_from_it(mode, model):
    """Static runs shuffle and balance with the seed; ICRM draws from it."""
    assert "seed" in cli._run_settings(mode, model)


_FORGETTING = Path(__file__).parent / "data" / "forgetting-digests.json"


def test_forgetting_variant_outputs_keep_their_recorded_bytes(tmp_path, capsys):
    """Death rate 0.02 on a corpus large enough that rows die: every CSV of
    ``eval dynamic both`` and ``eval static icrm``, and a trained state
    file, hash to what the decay that tested every row after every message
    wrote (see the data file)."""
    ds = synthetic_dataset(n_ham=1000, n_spam=1000, vocab_per_class=5000, seed=3)
    data = tmp_path / "forget.jsonl"
    write_canonical(ds, data)
    for out, args in (("dynamic", ["dynamic", "both"]),
                      ("static", ["static", "icrm", "--runs", "3"])):
        code = main(["eval", *args, "--death-rate", "0.02", "--data", str(data),
                     "--out", str(tmp_path / out)])
        assert code == EXIT_OK, capsys.readouterr().err
    clf = IcrmClassifier(IcrmConfig(death_rate=0.02))
    clf.train(ds.ham + ds.spam)
    # the ham rows died during the spam block, so the digest covers the clear
    assert (0.0, 0.0) in clf.repertoire.values()
    clf.save(tmp_path / "state.json")
    (tmp_path / "state-v2.json").write_bytes(
        state_file(2, dict(clf.repertoire), clf.config, clf.rng))
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*.csv")) + sorted(tmp_path.glob("state*.json"))
    }
    assert written == json.loads(_FORGETTING.read_text(encoding="utf-8"))["sha256"]


_RANDOM_SAMPLER = Path(__file__).parent / "data" / "random-sampler-digests.json"


def test_random_sampler_outputs_keep_their_recorded_bytes(tmp_path, capsys):
    """The random sampler is an ``IcrmConfig`` setting, yet its reports and
    state file hash to what the sampler passed beside the config wrote (see
    the data file); the state keeps it as the top-level ``sampler``."""
    ds = synthetic_dataset(n_ham=300, n_spam=300, vocab_per_class=300, shared_vocab=300,
                           words_per_message=(60, 120), seed=5)
    data = tmp_path / "random.jsonl"
    write_canonical(ds, data)
    assert main(["eval", "static", "icrm", "--feature-sampler", "random", "--runs", "2",
                 "--data", str(data), "--out", str(tmp_path / "static")]) == EXIT_OK
    clf = IcrmClassifier(IcrmConfig(feature_sampler="random"))
    clf.train(ds.ham + ds.spam)
    first_last = IcrmClassifier()
    first_last.train(ds.ham + ds.spam)
    assert clf.repertoire != first_last.repertoire  # the messages were sampled
    state = tmp_path / "state.json"
    clf.save(state)
    body = json.loads(state.read_bytes().partition(b"\n")[0])
    assert body["sampler"] == "random" and "feature_sampler" not in body["config"]
    again = tmp_path / "again.json"
    IcrmClassifier.load(state).save(again)
    assert again.read_bytes() == state.read_bytes()
    (tmp_path / "state-v2.json").write_bytes(
        state_file(2, dict(clf.repertoire), clf.config, clf.rng))
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*.csv")) + sorted(tmp_path.glob("state*.json"))
    }
    assert written == json.loads(_RANDOM_SAMPLER.read_text(encoding="utf-8"))["sha256"]


_BALANCED = Path(__file__).parent / "data" / "balanced-digests.json"


def test_balanced_counting_outputs_keep_their_recorded_bytes(tmp_path, capsys):
    """Skewed test blocks, balanced by default: every CSV of ``eval static``
    with ham the majority, with spam the majority and with a shuffled test
    stream hashes to what down-sampling (label, verdict) records wrote (see
    the data file). Both models err on both classes here, so which
    messages the balancing keeps shows in the metrics."""
    ds = synthetic_dataset(n_ham=500, n_spam=500, vocab_per_class=300, shared_vocab=300,
                           words_per_message=(4, 16), seed=9)
    data = tmp_path / "skewed.jsonl"
    write_canonical(ds, data)
    for out, args in (("ratio-0.3", ["both", "--spam-ratio", "0.3"]),
                      ("ratio-0.7", ["both", "--spam-ratio", "0.7"]),
                      ("shuffled-0.3", ["icrm", "--spam-ratio", "0.3", "--shuffle-test"])):
        code = main(["eval", "static", *args, "--runs", "3", "--data", str(data),
                     "--out", str(tmp_path / out)])
        assert code == EXIT_OK, capsys.readouterr().err
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*.csv"))
    }
    assert written == json.loads(_BALANCED.read_text(encoding="utf-8"))["sha256"]


_DEFAULT_PATH = Path(__file__).parent / "data" / "default-digests.json"


def _default_path_digests(root: Path) -> dict[str, str]:
    """SHA-256 of what the default settings write under ``root``: the CSVs of
    ``eval static both --runs 3`` and ``eval dynamic both`` on a corpus whose
    every message fills the 50-feature cap, the same runs at ``--n-a 3`` on
    a corpus of mixed lengths, a trained state file, and ``classify
    --explain`` on two message files."""
    full = synthetic_dataset(n_ham=400, n_spam=400, shared_vocab=120,
                             words_per_message=(80, 200), seed=7)
    mixed = synthetic_dataset(n_ham=400, n_spam=400, shared_vocab=120,
                              words_per_message=(5, 120), seed=8)
    for name, ds, flags in (("cap", full, []), ("n-a-3", mixed, ["--n-a", "3"])):
        data = root / f"{name}.jsonl"
        write_canonical(ds, data)
        for mode, extra in (("static", ["--runs", "3"]), ("dynamic", [])):
            code = main(["eval", mode, "both", *flags, *extra, "--data", str(data),
                         "--out", str(root / f"{mode}-{name}")])
            assert code == EXIT_OK
    clf = IcrmClassifier()
    clf.train(full.ham + full.spam)
    state = root / "state.json"
    clf.save(state)
    (root / "state-v2.json").write_bytes(
        state_file(2, dict(clf.repertoire), clf.config, clf.rng))
    spam = full.spam[-1]
    messages = {
        "corpus-msg.txt": f"Subject: {spam.subject}\n{spam.body}",
        "text-msg.txt": "Subject: Cheap pills, offer!\nMeeting agenda for Monday: "
                        "(hamw001) bothw017... spamw150?\n",
    }
    for name, text in messages.items():
        (root / name).write_text(text, encoding="utf-8")
        explained = root / f"classify-{name}"
        with open(explained, "w", encoding="utf-8") as out, redirect_stdout(out):
            assert main(["classify", str(state), str(root / name), "--explain"]) == EXIT_OK
    paths = (sorted(root.glob("*/*.csv")) + sorted(root.glob("state*.json"))
             + sorted(root.glob("classify-*")))
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
    }


def test_default_path_outputs_keep_their_recorded_bytes(tmp_path, capsys):
    """Reports, state and explanations of the default settings hash to what
    the code before the cached slot template, pair-loss table and one-pass
    stemmer wrote (see the data file). Every message of the first corpus
    samples 50 features; the second holds odd samples, whose odd slot
    counts at ``n_a`` 3 leave a trailing slot alone."""
    written = _default_path_digests(tmp_path)
    assert capsys.readouterr().err == ""
    sizes = {}
    for name in ("cap", "n-a-3"):
        ds = read_canonical(tmp_path / f"{name}.jsonl")
        sizes[name] = {len(preprocess(m)) for m in ds.ham + ds.spam}
    assert sizes["cap"] == {50}
    assert 50 in sizes["n-a-3"] and any(size % 2 for size in sizes["n-a-3"])
    assert len(written) == 4 * 5 + 2 + 2
    assert written == json.loads(_DEFAULT_PATH.read_text(encoding="utf-8"))["sha256"]


_UNREAD = [
    ("static icrm", "window = 0"),
    ("static icrm", "shift = -5"),
    ("static nb", "window = 0"),
    ("static nb", "death_rate = 2"),
    ("static nb", "feature_sampler = bogus"),
    ("dynamic icrm", "runs = 0"),
    ("dynamic icrm", "test_size = 3\nspam_ratio = 0.1"),
    ("dynamic nb", "e0_ham = 20\nseed = -1"),
]


@pytest.mark.parametrize("command, config", _UNREAD, ids=[
    f"{c.replace(' ', '-')}-{f.split()[0]}" for c, f in _UNREAD
])
def test_config_keys_a_run_does_not_read_are_never_checked(
    tmp_path, edge_corpus, capsys, command, config
):
    """A config file may hold settings for other runs: the ones this run does
    not read keep their defaults, so out-of-range values there refuse
    nothing and change no report byte."""
    (tmp_path / "other.conf").write_text(config + "\n", encoding="utf-8")
    sizes = {"static": ["--runs", "2", "--test-size", "20"],
             "dynamic": ["--window", "50"]}[command.split()[0]]
    for out, extra in (("plain", []), ("with-file", ["--config", str(tmp_path / "other.conf")])):
        code = main(["eval", *command.split(), "--data", str(edge_corpus),
                     "--train-per-class", "10", *sizes, *extra,
                     "--out", str(tmp_path / out)])
        assert code == EXIT_OK, capsys.readouterr().err
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "with-file").iterdir())
    for name in plain:
        assert (tmp_path / "with-file" / name).read_bytes() == (
            tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("flags", [
    ["--test-size", "3", "--spam-ratio", "0.1"],
    ["--test-size", "1", "--balance"],
], ids=["default-balance", "explicit-balance"])
def test_balanced_one_class_block_is_refused_before_the_corpus_is_read(
    tmp_path, capsys, monkeypatch, flags
):
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was read before the settings check")

    monkeypatch.setattr(cli, "read_canonical", refuse)
    out = tmp_path / "o"
    code = main(["eval", "static", "nb", "--data", str(tmp_path / "unread.jsonl"),
                 *flags, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("icrm: config error: ") and err.count("\n") == 1, err
    assert "test_size" in err and "spam_ratio" in err
    assert not out.exists()


def test_test_size_beyond_float_range_is_refused(tmp_path, capsys, monkeypatch):
    """A test block's spam share is a float, so a test_size no float holds
    exits 1 with one line naming it, not an OverflowError traceback."""
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was read before the settings check")

    monkeypatch.setattr(cli, "read_canonical", refuse)
    out = tmp_path / "o"
    code = main(["eval", "static", "nb", "--data", str(tmp_path / "unread.jsonl"),
                 "--test-size", str(10**400), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("icrm: config error: test_size ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_unbalanced_one_class_block_runs(tmp_path, edge_corpus, capsys):
    out = tmp_path / "o"
    code = main(["eval", "static", "nb", "--data", str(edge_corpus), "--runs", "2",
                 "--train-per-class", "10", "--test-size", "3", "--spam-ratio", "0.1",
                 "--no-balance", "--out", str(out)])
    assert code == EXIT_OK, capsys.readouterr().err
    rows = (out / "static_nb.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3 and all(row.split(",")[2] == "1.000000" for row in rows[1:])


# A setting read under another name in one signature.
_ALIASES = {"limit_per_class": "limit", "sampler": "feature_sampler"}


def _declared_defaults():
    """(place, setting, default) for each parameter or ``IcrmConfig`` field
    of the library that declares a ``cli.DEFAULTS`` setting with a default.
    ``synthetic_dataset`` is left out: its ``seed`` draws a corpus, not a run."""
    from icrm import corpus, evaluation, model, nbayes, porter, textprep

    for module in (corpus, evaluation, model, nbayes, porter, textprep):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [getattr(m, "__func__", m) for m in vars(obj).values()
                            if callable(getattr(m, "__func__", m))]
            for member in members:
                try:
                    params = inspect.signature(member).parameters.values()
                except (TypeError, ValueError):
                    continue
                for p in params:
                    key = _ALIASES.get(p.name, p.name)
                    if key in DEFAULTS and p.default is not p.empty:
                        yield f"{module.__name__}.{member.__qualname__}", key, p.default


def test_each_setting_has_one_default():
    """Every signature or config field that declares a setting gives it the
    default the command line gives it."""
    declared = list(_declared_defaults())
    for place, key, default in declared:
        assert (type(default), default) == (type(DEFAULTS[key]), DEFAULTS[key]), (place, key)
    # only the report directory is the command line's own
    assert {key for _, key, _ in declared} == set(DEFAULTS) - {"out"}
    assert ("icrm.model.IcrmConfig", "feature_sampler", "first-last") in declared


def test_each_setting_has_one_range_row_that_holds_its_default():
    """One table declares every setting but the command line's two paths,
    and every default passes its row."""
    assert set(ranges.RANGES) == set(DEFAULTS) - {"out", "stopwords"}
    for key in ranges.RANGES:
        assert ranges.check_range(ranges.RANGES, key, DEFAULTS[key]) == DEFAULTS[key], key


def _readme_settings_rows():
    """(names, defaults) cells of each row of README's Settings table."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = line.strip("|").split("|")
            yield re.findall(r"`(\w+)`", cells[0]), cells[3].strip().split(", ")


def test_readme_settings_table_matches_the_defaults():
    """README's Settings table names every setting once, and each numeric
    default it gives is the command line's."""
    rows = list(_readme_settings_rows())
    names = [name for row_names, _ in rows for name in row_names]
    assert sorted(names) == sorted(DEFAULTS)
    for row_names, defaults in rows:
        assert len(defaults) == len(row_names), row_names
        for name, text in zip(row_names, defaults):
            if re.fullmatch(r"[0-9.]+", text):
                assert float(text) == DEFAULTS[name], name
                assert type(DEFAULTS[name]) in (int, float), name


# -- the command line under generated input ---------------------------------

# Settings a fuzzed run may set; stopwords and out name files, so they stay
# out and no example reads or writes outside its own directory.
_FUZZ_KEYS = [key for key in DEFAULTS if key not in ("stopwords", "out")]
_UNKNOWN_KEYS = ["jobs", "frobnicate", "n-a", "Runs", "feature sampler"]
_EDGE_VALUES = [
    "nan", "-nan", "inf", "-inf", "-0.0", "0", "-1", "2.5", "5e-324", "2.2e-308",
    "1e308", "1.7e308", "1e309", str(10**400), str(-(10**400)), "0x10", "1_0", "",
    "yes", "none", "random", "first-last",
]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=6)
_WILD = st.one_of(
    st.sampled_from(_EDGE_VALUES), st.integers().map(str), st.floats().map(repr), _TEXT,
)
# In-range values often enough that runs get past the checks; a tiny corpus
# needs small counts, and its messages keep n small whatever n is.
_SANE = {
    **dict.fromkeys(["runs", "shift"], st.integers(1, 4)),
    "train_per_class": st.integers(1, 40), "test_size": st.integers(1, 40),
    "window": st.integers(1, 60), "seed": st.integers(0, 2**70), "n": st.integers(0, 60),
    "spam_ratio": st.floats(0, 1), "death_rate": st.floats(0, 1),
    **dict.fromkeys(
        ["e0_ham", "r0_ham", "e0_spam", "r0_spam", "e0_test", "r0_test", "proliferation"],
        st.floats(0, 2e6),
    ),
    "feature_sampler": st.sampled_from(["first-last", "random"]),
    **dict.fromkeys(["shuffle_test", "balance"], st.sampled_from(["yes", "no"])),
    "limit": st.integers(-2, 12),
}
# n_a sizes every message's slot array, so it is never drawn unbounded: at
# most 1,500 slots per feature, and a message here has at most 12 features
_N_A = st.one_of(*[st.integers(-5, 1500).map(str)] * 4, st.floats().map(repr),
                 st.sampled_from(["nan", "inf", "", "2.5", "x"]))


def _fuzz_value(key: str):
    if key == "n_a":
        return _N_A
    if key in _SANE:
        return st.one_of(*[_SANE[key].map(str)] * 6, _WILD)
    return _WILD


def _settings(keys):
    """(key, value) pairs: mostly known keys with their values, some unknown."""
    known = st.sampled_from(keys).flatmap(lambda k: st.tuples(st.just(k), _fuzz_value(k)))
    unknown = st.tuples(st.sampled_from(_UNKNOWN_KEYS), _WILD)
    return st.lists(st.one_of(*[known] * 6, unknown), max_size=3)


def _flag_args(pairs) -> list[str]:
    """``--key=value``; a bare ``--key`` for the value "" or "yes", and
    ``--no-key`` for "no", as the switches take them."""
    bare = {"": "--", "yes": "--", "no": "--no-"}
    return [bare[value] + key.replace("_", "-") if value in bare
            else f"--{key.replace('_', '-')}={value}" for key, value in pairs]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A corpus of 30 short messages per class and a 9-message Enron-spam tree."""
    root = tmp_path_factory.mktemp("fuzz")
    write_canonical(synthetic_dataset(n_ham=30, n_spam=30, vocab_per_class=40,
                                      words_per_message=(3, 12), seed=4),
                    root / "tiny.jsonl")
    _write_enron_tree(root / "tree")
    return root


def _run_fuzzed(root: Path, make_argv, lines: list[str]) -> None:
    """Run ``make_argv(directory)`` in a fresh directory, with ``lines`` as its
    config file: exit 0, 1 or 2, and a nonzero exit prints exactly one stderr
    line, never a traceback."""
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        config = Path(tmp) / "fuzz.conf"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = make_argv(Path(tmp)) + ["--config", str(config)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (argv, lines, code)
    if code == EXIT_OK:
        assert err == "", (argv, lines, err)
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, lines, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"], ids=["lf", "cr", "u2028"])
@pytest.mark.parametrize("command", ["report", "eval", "classify"])
def test_a_refusal_quoting_a_line_break_is_one_line(tmp_path, capsys, command, brk):
    """A path holding a character ``str.splitlines`` breaks at is refused
    on one stderr line, the character escaped as ``repr`` escapes it."""
    path = str(tmp_path / f"no{brk}such")
    message = tmp_path / "msg.txt"
    message.write_text("Subject: cheap pills\nagenda", encoding="utf-8")
    argv = {"report": ["report", path],
            "eval": ["eval", "static", "icrm", "--data", path, "--out", str(tmp_path)],
            "classify": ["classify", path, str(message)]}[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_USAGE, EXIT_DATA)
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    assert repr(brk)[1:-1] in err


# a config file's defaults that let a run on the tiny corpus finish
_SMALL_RUN = ["train_per_class = 5", "runs = 2", "test_size = 10", "window = 20"]


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["static", "dynamic"]),
    model_kind=st.sampled_from(["icrm", "nb", "both"]),
    flags=_settings(_FUZZ_KEYS),
    lines=st.lists(st.one_of(*[_settings(_FUZZ_KEYS).map(
        lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs))] * 4, _TEXT), max_size=2),
)
@example(mode="dynamic", model_kind="icrm", flags=[("proliferation", "1e308")], lines=[])
@example(mode="dynamic", model_kind="icrm", flags=[],
         lines=["e0_ham = 1e308", "r0_ham = 1.7e308"])
@example(mode="static", model_kind="nb", flags=[("test_size", str(10**400))], lines=[])
@example(mode="static", model_kind="both", flags=[("train_per_class", "40")], lines=[])
@example(mode="static", model_kind="icrm", flags=[("limit", "\n")], lines=[])
def test_eval_exits_cleanly_on_any_settings(fuzz_inputs, mode, model_kind, flags, lines):
    """Huge integers, NaN, infinities, -0.0, subnormals, non-numbers and
    unknown keys, as flags or config lines: each run exits 0, 1 or 2, with one
    stderr line when it refuses, and raises no warning."""
    data = str(fuzz_inputs / "tiny.jsonl")
    _run_fuzzed(fuzz_inputs, lambda tmp: ["eval", mode, model_kind, "--data", data,
                                          *_flag_args(flags), "--out", str(tmp / "out")],
                _SMALL_RUN + lines)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(flags=_settings(["limit"]), lines=st.lists(_settings(_FUZZ_KEYS).map(
    lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs)), max_size=2))
def test_ingest_exits_cleanly_on_any_settings(fuzz_inputs, flags, lines):
    tree = str(fuzz_inputs / "tree")
    _run_fuzzed(fuzz_inputs, lambda tmp: ["ingest", tree, str(tmp / "out.jsonl"),
                                          *_flag_args(flags)], lines)
