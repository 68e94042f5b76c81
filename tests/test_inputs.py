"""Malformed inputs (canonical records, report, state, settings files) fail typed."""

import csv
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icrm.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from icrm.corpus import LABELS, CanonicalFormatError, Dataset, read_canonical, write_canonical
from icrm.model import IcrmClassifier, IcrmConfig, SnapshotError
from icrm.synth import synthetic_dataset

from conftest import make_message
from model_reference import edit_state, state_file

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


def _python(*argv):
    """Run a fresh interpreter that imports the package from this tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True
    )


def test_import_leaves_scipy_out():
    out = _python("-c", "import sys, icrm; print('scipy' in sys.modules)")
    assert out.stdout.strip() == "False", out.stderr


def test_static_comparison_runs_without_scipy(tmp_path):
    # a shared vocabulary keeps the classifiers apart, so p is a real tail
    data = tmp_path / "smoke.jsonl"
    write_canonical(synthetic_dataset(400, 400, shared_vocab=120, seed=3), data)
    args = ["eval", "static", "both", "--data", str(data), "--runs", "2", "--out"]
    assert main([*args, str(tmp_path / "with")]) == EXIT_OK
    blocked = (
        "import sys; sys.modules['scipy'] = None; from icrm.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    out = _python("-c", blocked, *args, str(tmp_path / "without"))
    assert out.returncode == EXIT_OK, out.stderr
    ttest = (tmp_path / "without" / "static_ttest.csv").read_bytes()
    assert ttest == (tmp_path / "with" / "static_ttest.csv").read_bytes()
    assert all(0.0 < float(row.split(b",")[2]) < 1.0 for row in ttest.splitlines()[1:])


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
        assert f"{path}: line 1: " in capsys.readouterr().err


def test_a_line_holding_a_json_array_is_not_a_record(tmp_path):
    path = _write_lines(tmp_path / "bad.jsonl", [_GOOD, [_GOOD]])
    with pytest.raises(CanonicalFormatError,
                       match=f"^{re.escape(str(path))}: line 2: record is not an object$"):
        read_canonical(path)


def test_blank_lines_between_records_read_as_the_file_without_them(tmp_path):
    records = [_GOOD, dict(_GOOD, id="m2", label="spam"), dict(_GOOD, id="m3")]
    plain = _write_lines(tmp_path / "plain.jsonl", records)
    lines = plain.read_text(encoding="utf-8").splitlines(keepends=True)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + lines[0] + "  \t\n\n" + lines[1] + "\r\n" + lines[2] + " \n",
                      encoding="utf-8", newline="")
    want = read_canonical(plain, name="d")
    assert len(want.ham) == 2 and len(want.spam) == 1
    assert read_canonical(spaced, name="d") == want


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
        except CanonicalFormatError as exc:
            assert str(exc).startswith(f"{path}: line ")
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

    def test_a_directory_without_report_files_is_data_error(self, tmp_path, capsys):
        out = self._report_dir(tmp_path)
        (out / "notes.csv").write_text("metric,t,p\n", encoding="utf-8")
        assert main(["report", str(out)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"icrm: error: no report files under {out}\n"

    def test_a_field_the_csv_module_refuses_is_data_error(self, tmp_path, capsys):
        field = "9" * (csv.field_size_limit() + 1)
        out = self._report_dir(tmp_path, summary=self._HEADER + f"f_score,{field},0,,\n")
        assert main(["report", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        path = out / "static_icrm_summary.csv"
        assert err.startswith(f"icrm: error: cannot read report file {path}: field larger ")
        assert err.count("\n") == 1

    def test_undecodable_file_is_data_error(self, tmp_path):
        out = self._report_dir(tmp_path)
        (out / "static_ttest.csv").write_bytes(b"metric,t,p\n\xff\xfe,1,2\n")
        assert main(["report", str(out)]) == EXIT_DATA

    _HEADER = "metric,mean,sd,slope,r_squared\n"

    @pytest.mark.parametrize(
        "summary, named",
        [
            ("foo,bar\n", "missing column metric, mean, sd, slope, r_squared"),
            ("", "empty report file"),
            ("\n", "missing column metric"),
            (_HEADER, "no rows below the header"),
            (_HEADER + "f_score,abc,,,\n", "column mean is not a number: 'abc'"),
            (_HEADER + "f_score,,0.01,,\n", "column mean is not a number: ''"),
            (_HEADER + "f_score,0.9,,,\n", "column sd is not a number: ''"),
            (_HEADER + "f_score,0.9,x,,\n", "column sd is not a number: 'x'"),
            (_HEADER + "pct_fp,0.9,0.01,up,0.5\n", "column slope is not a number"),
            (_HEADER + "pct_fp,0.9,0.01,0.1,high\n", "column r_squared is not a number"),
        ],
        ids=["foreign-header", "empty-file", "blank-header", "no-rows", "text-mean",
             "empty-mean", "empty-sd", "text-sd", "text-slope", "text-r-squared"],
    )
    def test_broken_summary_is_data_error(self, tmp_path, capsys, summary, named):
        out = self._report_dir(tmp_path, summary=summary)
        assert main(["report", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("icrm: error: ") and err.count("\n") == 1, err
        assert "static_icrm_summary.csv" in err
        assert named in err

    @pytest.mark.parametrize(
        "ttest, named",
        [("", "empty report file"), ("metric,t,p\n", "no rows below the header")],
        ids=["empty-file", "no-rows"],
    )
    def test_ttest_without_rows_is_data_error(self, tmp_path, capsys, ttest, named):
        out = self._report_dir(tmp_path, ttest=ttest)
        assert main(["report", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("icrm: error: ") and err.count("\n") == 1, err
        assert "static_ttest.csv" in err and named in err

    def test_numbers_print_as_written(self, tmp_path, capsys):
        # a dynamic summary: the drift rows carry a slope and R2, and every
        # value prints as its raw string
        out = self._report_dir(
            tmp_path,
            summary=self._HEADER + "f_score,0.900000,0.010000,,\n"
            "pct_fp,1.5e-3,nan,-0.250000,0.810000\n",
        )
        assert main(["report", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "static_icrm_summary.csv\n"
            "  f_score      0.900000 +/- 0.010000\n"
            "  pct_fp       1.5e-3 +/- nan  slope -0.250000 R2 0.810000\n"
        )


@pytest.mark.parametrize("case", ["config", "stopwords", "state", "corpus"])
def test_non_utf8_file_is_typed_error_naming_it(tmp_path, capsys, case):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(json.dumps(_GOOD).encode() + b"\n\xff\n")  # 0xff on line 2
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


@pytest.mark.parametrize("version", [pytest.param(3, id="icrm"), pytest.param(2, id="icrm-v2")])
def test_an_integer_literal_too_long_to_convert_is_typed_error(tmp_path, capsys, version):
    """JSON decoding refuses an integer of more than 4,300 digits with a plain
    ValueError; a state file holding one, in a version 3 header line or a
    version 2 document, is a ``SnapshotError`` naming the file, and
    ``classify`` exits 2 with one line."""
    path = tmp_path / "state.json"
    path.write_bytes(_saved(version).replace(b"{", b'{"seed": ' + b"9" * 5000 + b", ", 1))
    with pytest.raises(SnapshotError,
                       match=f"^cannot read icrm-state file {re.escape(str(path))}: "):
        IcrmClassifier.load(path)
    msg = tmp_path / "m.txt"
    msg.write_text("Subject: x\nhello", encoding="utf-8")
    assert main(["classify", str(path), str(msg)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"icrm: error: cannot read icrm-state file {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("version", [1, 2, 3])
def test_a_state_whose_populations_sum_past_the_largest_float_is_refused(
    tmp_path, capsys, version
):
    """Each population is finite, but binding divides by E + R: a row whose
    sum overflows is the loader's typed error naming the file and the row,
    and ``classify`` exits 2 with one line and no numpy warning."""
    half = sys.float_info.max / 2
    rows = {"cheap": (3.0, 1.0), "pills": (1e308, 1e308), "agenda": (half, half)}
    path = tmp_path / "huge-state.json"
    path.write_bytes(state_file(version, rows, IcrmConfig(), np.random.default_rng(0)))
    with pytest.raises(SnapshotError, match=re.escape(
        f"malformed state file {path}: ValueError(\"populations of 'pills' sum "
        "past the largest float: 1e+308 + 1e+308\")"
    )):
        IcrmClassifier.load(path)
    msg = tmp_path / "m.txt"
    msg.write_text("Subject: cheap pills\nagenda", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", str(path), str(msg)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "'pills'" in captured.err
    # the largest sums that stay finite load and classify without a warning
    del rows["pills"]
    path.write_bytes(state_file(version, rows, IcrmConfig(), np.random.default_rng(0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", str(path), str(msg)]) == EXIT_OK
    assert capsys.readouterr().out.split()[0] in LABELS


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
    """Values one step from a saved one. A string is cut short or padded,
    which is how base64 goes wrong; a number is made a float, negated, text
    or huge."""
    if isinstance(old, str):
        return st.sampled_from([old[:-1], old[:-4], old + "=", old + "A", old[1:]])
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
def _saved(version: int) -> bytes:
    """The bytes of a state file of ``version`` after training on a small
    corpus."""
    ds = synthetic_dataset(n_ham=30, n_spam=30, vocab_per_class=60, seed=4)
    clf = IcrmClassifier(IcrmConfig(seed=2))
    clf.train(ds.ham + ds.spam)
    return state_file(version, dict(clf.repertoire), clf.config, clf.rng)


# 120 distinct stems (synthetic words stem to themselves): more than any
# sample cap the states hold, so sampling slices the stem list.
_LONG = make_message(body=" ".join(
    [f"hamw{i:03d}" for i in range(60)] + [f"spamw{i:03d}" for i in range(60)]
))


@pytest.mark.parametrize("version", [pytest.param(3, id="icrm"), pytest.param(2, id="icrm-v2"),
                                     pytest.param(1, id="icrm-v1")])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_value_under_any_key_gives_typed_error_or_classifier(version, data):
    """A value replaced in a version 3 header line, which keeps its block,
    or in a version 2 or 1 document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_bytes(edit_state(header=lambda doc: _replace_one(data, doc))(_saved(version)))
        try:
            clf = IcrmClassifier.load(path)
        except SnapshotError:
            return
    assert clf.classify(_LONG) in LABELS
