"""Malformed inputs (canonical records, report, state, settings files) fail typed."""

import functools
import json
import os
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from icrm.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from icrm.corpus import LABELS, CanonicalFormatError, Dataset, read_canonical
from icrm.model import IcrmClassifier, IcrmConfig, SnapshotError
from icrm.nbayes import ModelError, NaiveBayesClassifier
from icrm.synth import synthetic_dataset

from conftest import make_message

_GOOD = {
    "id": "m1", "timestamp": "2001-02-03", "label": "ham",
    "subject": "hello", "body": "meeting agenda",
}


def _write_lines(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return path


def test_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, icrm; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


class TestCanonicalFieldTypes:
    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"subject": None, "body": 5}, "subject, body"),
            ({"id": 7}, "id"),
            ({"body": ["a", "b"]}, "body"),
            ({"timestamp": 20010203}, "timestamp"),
        ],
        ids=["null-subject-int-body", "int-id", "list-body", "int-timestamp"],
    )
    def test_non_string_field_names_line_and_field(self, tmp_path, changes, named):
        path = _write_lines(
            tmp_path / "bad.jsonl", [_GOOD, {**_GOOD, "id": "m2", **changes}]
        )
        with pytest.raises(CanonicalFormatError, match=f"line 2: field\\(s\\) {named} "):
            read_canonical(path)

    def test_eval_exits_with_data_error(self, tmp_path, capsys):
        path = _write_lines(tmp_path / "bad.jsonl", [dict(_GOOD, subject=None, body=5)])
        code = main(["eval", "static", "icrm", "--data", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "line 1" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_RECORD = st.fixed_dictionaries(
    {},
    optional={
        "id": st.text(max_size=6) | _JSON,
        "timestamp": st.dates().map(date.isoformat) | _JSON,
        "label": st.sampled_from(LABELS) | _JSON,
        "subject": st.text() | _JSON,
        "body": st.text() | _JSON,
    },
) | st.dictionaries(st.text(max_size=8), _JSON, max_size=6)


@given(records=st.lists(_RECORD, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_any_json_object_lines_give_typed_error_or_dataset(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_lines(Path(tmp) / "data.jsonl", records)
        try:
            dataset = read_canonical(path)
        except CanonicalFormatError:
            return
    assert isinstance(dataset, Dataset)
    messages = dataset.ham + dataset.spam
    assert len(messages) == len(records)
    for msg in messages:
        assert all(isinstance(v, str) for v in (msg.id, msg.subject, msg.body))


class TestReportFiles:
    def _report_dir(self, tmp_path, summary=None, ttest=None):
        out = tmp_path / "rep"
        out.mkdir()
        if summary is not None:
            (out / "static_icrm_summary.csv").write_text(summary, encoding="utf-8")
        if ttest is not None:
            (out / "static_ttest.csv").write_text(ttest, encoding="utf-8")
        return out

    def test_well_formed_files_render(self, tmp_path, capsys):
        out = self._report_dir(
            tmp_path,
            summary="metric,mean,sd,slope,r_squared\nf_score,0.9,0.01,,\n",
            ttest="metric,t,p\nf_score,2.5,0.04\n",
        )
        assert main(["report", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "  f_score      0.9 +/- 0.01\n" in printed
        assert "  f_score      t = +2.500  p = 0.040\n" in printed

    @pytest.mark.parametrize(
        "summary, named",
        [
            ("metric,mean,sd,r_squared\nf_score,0.9,0.01,\n", "slope"),
            ("metric,mean,sd,slope,r_squared\nf_score,0.9\n", "sd, slope, r_squared"),
        ],
        ids=["no-slope-column", "short-row"],
    )
    def test_summary_missing_column_is_data_error(self, tmp_path, capsys, summary, named):
        out = self._report_dir(tmp_path, summary=summary)
        assert main(["report", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "static_icrm_summary.csv" in err
        assert f"missing column {named}" in err

    @pytest.mark.parametrize(
        "ttest, named",
        [
            ("metric,p\nf_score,0.04\n", "missing column t"),
            ("metric,t\nf_score,2.5\n", "missing column p"),
            ("metric,t,p\nf_score,abc,0.04\n", "column t is not a number"),
            ("metric,t,p\nf_score,2.5,\n", "column p is not a number"),
        ],
        ids=["no-t-column", "no-p-column", "text-t", "empty-p"],
    )
    def test_ttest_bad_column_is_data_error(self, tmp_path, capsys, ttest, named):
        out = self._report_dir(tmp_path, ttest=ttest)
        assert main(["report", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "static_ttest.csv" in err
        assert named in err

    def test_undecodable_file_is_data_error(self, tmp_path):
        out = self._report_dir(tmp_path)
        (out / "static_ttest.csv").write_bytes(b"metric,t,p\n\xff\xfe,1,2\n")
        assert main(["report", str(out)]) == EXIT_DATA


@pytest.mark.parametrize("case", ["config", "stopwords", "state", "nb-model", "corpus"])
def test_non_utf8_file_is_typed_error_naming_it(tmp_path, capsys, case):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(json.dumps(_GOOD).encode() + b"\n\xff\n")  # 0xff on line 2
    if case == "nb-model":
        with pytest.raises(ModelError, match="bad.txt"):
            NaiveBayesClassifier.load(bad)
        return
    good = _write_lines(tmp_path / "good.jsonl", [_GOOD, dict(_GOOD, id="m2")])
    msg = tmp_path / "m.txt"
    msg.write_text("Subject: x\nhello", encoding="utf-8")
    out = tmp_path / "out"
    eval_data = ["eval", "static", "icrm", "--out", str(out), "--data"]
    argv, code = {
        "config": (eval_data + [str(good), "--config", str(bad)], EXIT_USAGE),
        "stopwords": (eval_data + [str(good), "--stopwords", str(bad)], EXIT_USAGE),
        "state": (["classify", str(bad), str(msg)], EXIT_DATA),
        "corpus": (eval_data + [str(bad)], EXIT_DATA),
    }[case]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err
    assert not out.exists()
    if case == "corpus":
        assert "line 2: not UTF-8" in err


# -- any value under any key of a real saved state ---------------------------


def _json_values(max_int=None):
    ints = st.integers(max_value=max_int)
    # integral floats (50.0) are drawn on purpose: they pass range checks
    scalars = (st.none() | st.booleans() | ints | ints.map(float) | st.floats()
               | st.text(max_size=6))
    # scalars on their own as often as containers
    return scalars | st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


# Sample caps and slot counts stay small: a valid state with a huge n_a
# allocates n * n_a slots for every message.
_SMALL = ("n", "n_a")
_VALUES, _SMALL_VALUES = _json_values(), _json_values(max_int=64)


def _near(key, old):
    """Numbers one step from a saved number: as a float, negated, text, huge."""
    if isinstance(old, bool) or not isinstance(old, (int, float)):
        return st.nothing()
    near = [float(old), -old, str(old)]
    huge = [old * 2**70, int(old) * 10**400]  # the second is beyond any float
    return st.sampled_from(near if key in _SMALL else near + huge)


def _replace_one(data, doc) -> None:
    """Replace the value under one key or list index, at any depth, of ``doc``."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        values = _SMALL_VALUES if key in _SMALL else _VALUES
        node[key] = data.draw(_near(key, child) | values)
        return


@functools.cache
def _saved(kind: str) -> str:
    """The text of a state file saved after training on a small corpus."""
    ds = synthetic_dataset(n_ham=30, n_spam=30, vocab_per_class=60, seed=4)
    clf = IcrmClassifier(IcrmConfig(seed=2)) if kind == "icrm" else NaiveBayesClassifier()
    clf.train(ds.ham + ds.spam)
    with tempfile.TemporaryDirectory() as tmp:
        clf.save(Path(tmp) / "state.json")
        return (Path(tmp) / "state.json").read_text(encoding="utf-8")


# 120 distinct stems (synthetic words stem to themselves): more than any
# sample cap the states hold, so sampling slices the stem list.
_LONG = make_message(body=" ".join(
    [f"hamw{i:03d}" for i in range(60)] + [f"spamw{i:03d}" for i in range(60)]
))


@pytest.mark.parametrize("kind, load, error", [
    ("icrm", IcrmClassifier.load, SnapshotError),
    ("nb", NaiveBayesClassifier.load, ModelError),
])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_value_under_any_key_gives_typed_error_or_classifier(kind, load, error, data):
    doc = json.loads(_saved(kind))
    _replace_one(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            clf = load(path)
        except error:
            return
    try:
        label = clf.classify(_LONG)
    except ModelError:
        assert kind == "nb"  # a loaded model without documents of one class
        return
    assert label in LABELS
