"""End-to-end CLI behaviour: commands, files, exit codes, determinism."""

import csv
import inspect
import json
import re
from dataclasses import fields

import pytest

from icrm import cli
from icrm.cli import DEFAULTS, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from icrm.corpus import HAM, SPAM, read_canonical, write_canonical
from icrm.evaluation import eval_dynamic, eval_static
from icrm.model import IcrmClassifier, IcrmConfig, SnapshotError
from icrm.synth import synthetic_dataset


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

    def test_missing_class_dir_is_data_error(self, tmp_path, capsys):
        (tmp_path / "tree" / HAM).mkdir(parents=True)
        code = main(["ingest", str(tmp_path / "tree"), str(tmp_path / "out.jsonl")])
        assert code == EXIT_DATA
        assert "spam" in capsys.readouterr().err

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

    def test_byte_identical_reruns(self, tmp_path, canonical_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "eval", "static", "icrm", "--data", str(canonical_file),
                "--runs", "2", "--out", str(out), "--seed", "5",
            ]) == EXIT_OK
            outs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("flags, config", [
        (["--e0-ham", "20"], None),
        (["--runs", "0"], None),
        (["--runs", "-1"], None),
        (["--window", "0"], None),
        (["--shift", "0"], None),
        (["--shift", "-5"], None),
        ([], "runs = 0"),
        ([], "proliferation = nan"),
        ([], "proliferation = inf"),
        ([], "e0_spam = inf"),
        (["--test-size", "0"], None),
        (["--test-size", "-3"], None),
        (["--train-per-class", "0"], None),
        (["--jobs", "0"], None),
        (["--jobs", "-1"], None),
        (["--spam-ratio", "0"], None),
        (["--spam-ratio", "1"], None),
        (["--spam-ratio", "1.5"], None),
        (["--spam-ratio", "nan"], None),
        ([], "spam_ratio = nan"),
        ([], "test_size = 0"),
        (["--seed", "-1"], None),
    ], ids=[
        "e0-ham-20", "runs-0", "runs-negative", "window-0", "shift-0", "shift-negative",
        "config-runs-0", "config-proliferation-nan", "config-proliferation-inf",
        "config-e0-spam-inf", "test-size-0", "test-size-negative",
        "train-per-class-0", "jobs-0", "jobs-negative", "spam-ratio-0",
        "spam-ratio-1", "spam-ratio-1.5", "spam-ratio-nan", "config-spam-ratio-nan",
        "config-test-size-0", "seed-negative",
    ])
    def test_invalid_model_config_reported_before_compute(
        self, tmp_path, canonical_file, flags, config
    ):
        if config is not None:
            (tmp_path / "bad.conf").write_text(config + "\n", encoding="utf-8")
            flags = flags + ["--config", str(tmp_path / "bad.conf")]
        code = main([
            "eval", "static", "icrm", "--data", str(canonical_file),
            *flags, "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make_out", [
        pytest.param(lambda tmp: tmp / "taken", id="existing-file"),
        pytest.param(lambda tmp: tmp / "taken" / "sub", id="below-a-file"),
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

    def test_usage_error_exit_code(self, capsys):
        assert main(["eval", "nonsense", "icrm", "--data", "x"]) == EXIT_USAGE


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

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda s: s.pop("config"), id="missing-config"),
        pytest.param(lambda s: s["config"].update(n=3), id="odd-n"),
        pytest.param(lambda s: s["config"].update(bogus=1), id="unknown-config-key"),
        pytest.param(lambda s: s.update(sampler="bogus"), id="unknown-sampler"),
        pytest.param(lambda s: s["repertoire"].update(alpha=["x", 1.0]), id="population-x"),
        pytest.param(lambda s: s["repertoire"].update(alpha=[-1.0, 1.0]),
                     id="population-negative"),
        pytest.param(lambda s: s["repertoire"].update(alpha=[1.0, float("nan")]),
                     id="population-nan"),
        pytest.param(lambda s: s.update(rng_state={"a": 1}), id="rng-state"),
        pytest.param(lambda s: s["config"].update(n=50.0), id="float-n"),
        pytest.param(lambda s: s["config"].update(n_a=10.0), id="float-n_a"),
        pytest.param(lambda s: s["config"].update(e0_test=10**400), id="huge-int-e0"),
    ])
    def test_malformed_snapshot_is_data_error(self, tmp_path, snapshot, capsys, mutate):
        state = json.loads(snapshot.read_text(encoding="utf-8"))
        mutate(state)
        snapshot.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(SnapshotError):
            IcrmClassifier.load(snapshot)
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        assert main(["classify", str(snapshot), str(msg)]) == EXIT_DATA
        assert "malformed state file" in capsys.readouterr().err

    def test_deeply_nested_snapshot_is_data_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[" * 100_000, encoding="utf-8")
        msg = tmp_path / "m.txt"
        msg.write_text("Subject: x\nhello", encoding="utf-8")
        assert main(["classify", str(state), str(msg)]) == EXIT_DATA
        assert str(state) in capsys.readouterr().err

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
        "--e0-spam", "--e0-test", "--feature-sampler", "--help", "--jobs",
        "--n", "--n-a", "--no-balance", "--no-shuffle-test", "--out",
        "--proliferation", "--r0-ham", "--r0-spam", "--r0-test", "--runs",
        "--seed", "--shift", "--shuffle-test", "--spam-ratio", "--stopwords",
        "--test-size", "--train-per-class", "--window",
    }
