"""Malformed canonical records and report files fail with typed errors."""

import json
import os
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from icrm.cli import EXIT_DATA, EXIT_OK, main
from icrm.corpus import LABELS, CanonicalFormatError, Dataset, read_canonical

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
