"""Ingestion, canonical round-trips, and split arithmetic."""

import json
import re
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from icrm import corpus
from icrm.corpus import (
    CanonicalFormatError,
    Dataset,
    HAM,
    IngestError,
    SPAM,
    SplitError,
    ingest_enron_dir,
    make_split,
    merge_by_ratio,
    read_canonical,
    split_subject,
    write_canonical,
)
from icrm.synth import synthetic_dataset

from conftest import make_message


def _write_enron_tree(root, ham_files, spam_files):
    for label, files in ((HAM, ham_files), (SPAM, spam_files)):
        d = root / label
        d.mkdir(parents=True)
        for name, text in files:
            (d / name).write_text(text, encoding="utf-8")


class TestIngest:
    def test_ordering_and_truncation(self, tmp_path):
        files = [
            ("0003.1999-12-12.x.ham.txt", "Subject: third\nbody three"),
            ("0001.1999-12-10.x.ham.txt", "Subject: first\nbody one"),
            ("0002.1999-12-11.x.ham.txt", "Subject: second\nbody two"),
        ]
        _write_enron_tree(tmp_path, files, [("0001.2000-01-01.x.spam.txt", "Subject: s\nb")])
        result = ingest_enron_dir(tmp_path, limit_per_class=2)
        stamps = [m.timestamp for m in result.dataset.ham]
        assert stamps == [date(1999, 12, 10), date(1999, 12, 11)]
        assert result.dataset.ham[0].subject == "first"
        assert result.dataset.ham[0].body == "body one"

    def test_empty_class_is_fine(self, tmp_path):
        _write_enron_tree(tmp_path, [("0001.1999-12-10.x.ham.txt", "hi")], [])
        result = ingest_enron_dir(tmp_path)
        assert len(result.dataset.spam) == 0
        assert result.rejected == 0

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        # tmp_path holds no class directories: the limit is checked first
        with pytest.raises(ValueError, match="limit must be >= 1"):
            ingest_enron_dir(tmp_path, limit_per_class=limit)

    @pytest.mark.parametrize("limit", [2.5, "3", True])
    def test_limit_of_another_type_rejected_before_any_file_is_read(
        self, tmp_path, monkeypatch, limit
    ):
        _write_enron_tree(tmp_path, [("0001.1999-12-10.x.ham.txt", "hi")],
                          [("0001.2000-01-01.x.spam.txt", "Subject: s\nb")])

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(corpus, "read_message_file", unread)
        with pytest.raises(ValueError, match="^limit must be an integer, got "):
            ingest_enron_dir(tmp_path, limit)

    def test_missing_class_dir_names_it(self, tmp_path):
        (tmp_path / HAM).mkdir()
        with pytest.raises(IngestError, match="spam"):
            ingest_enron_dir(tmp_path)

    def test_bad_filename_date_counts_as_rejected(self, tmp_path):
        files = [
            ("0001.1999-12-10.x.ham.txt", "ok"),
            ("nodate.txt", "bad"),
            ("0002.1999-13-40.x.ham.txt", "bad date"),
        ]
        _write_enron_tree(tmp_path, files, [])
        result = ingest_enron_dir(tmp_path)
        assert len(result.dataset.ham) == 1
        assert result.rejected == 2

    def test_a_directory_named_like_a_message_is_skipped(self, tmp_path):
        """Neither read nor counted as rejected."""
        _write_enron_tree(tmp_path, [("0001.1999-12-10.x.ham.txt", "ok")], [])
        (tmp_path / HAM / "0002.1999-12-11.x.ham.txt").mkdir()
        result = ingest_enron_dir(tmp_path)
        assert [m.body for m in result.dataset.ham] == ["ok"]
        assert result.rejected == 0

    def test_subject_split(self):
        assert split_subject("Subject: hello there\nbody") == ("hello there", "body")
        assert split_subject("no subject line") == ("", "no subject line")

    def test_timestamps_nondecreasing(self, tmp_path):
        files = [(f"{i:04d}.2001-0{1 + i % 9}-15.x.ham.txt", "t") for i in range(12)]
        _write_enron_tree(tmp_path, files, [])
        ds = ingest_enron_dir(tmp_path).dataset
        stamps = [m.timestamp for m in ds.ham]
        assert stamps == sorted(stamps)


def test_by_label_names_a_label_it_does_not_hold():
    ds = Dataset("d", ham=[make_message(HAM)], spam=[make_message(SPAM)])
    assert (ds.by_label(HAM), ds.by_label(SPAM)) == (ds.ham, ds.spam)
    with pytest.raises(ValueError, match="^unknown label 'junk'$"):
        ds.by_label("junk")


class TestCanonical:
    def test_round_trip(self, tmp_path):
        ds = synthetic_dataset(n_ham=20, n_spam=15, seed=3)
        path = tmp_path / "corpus.jsonl"
        write_canonical(ds, path)
        again = read_canonical(path, name=ds.name)
        assert again == ds

    def test_ingest_write_read_round_trip(self, tmp_path):
        files_ham = [
            (f"{i:04d}.1999-12-{10 + i:02d}.x.ham.txt", f"Subject: h{i}\nham body {i}")
            for i in range(4)
        ]
        files_spam = [
            (f"{i:04d}.2000-01-{10 + i:02d}.y.spam.txt", f"Subject: s{i}\nspam body {i}")
            for i in range(3)
        ]
        _write_enron_tree(tmp_path / "tree", files_ham, files_spam)
        ds = ingest_enron_dir(tmp_path / "tree").dataset
        path = tmp_path / "rt.jsonl"
        write_canonical(ds, path)
        assert read_canonical(path, name=ds.name) == ds

    def test_two_valid_lines(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(
            '{"id": "a", "timestamp": "2001-01-01", "label": "ham", "subject": "s", "body": "b"}\n'
            '{"id": "b", "timestamp": "2001-01-02", "label": "spam", "subject": "s", "body": "b"}\n',
            encoding="utf-8",
        )
        ds = read_canonical(path)
        assert (len(ds.ham), len(ds.spam)) == (1, 1)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "timestamp": "2001-01-01", "subject": "s", "body": "b"}\n',
            encoding="utf-8",
        )
        with pytest.raises(CanonicalFormatError, match="line 1.*label") as exc:
            read_canonical(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")

    def test_duplicate_id(self, tmp_path):
        record = '{"id": "a", "timestamp": "2001-01-01", "label": "ham", "subject": "", "body": ""}\n'
        path = tmp_path / "dup.jsonl"
        path.write_text(record + record, encoding="utf-8")
        with pytest.raises(CanonicalFormatError, match="line 2.*duplicate"):
            read_canonical(path)

    def test_invalid_json_and_label_and_date(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(CanonicalFormatError, match="line 1"):
            read_canonical(path)
        path.write_text(
            '{"id": "a", "timestamp": "2001-01-01", "label": "eggs", "subject": "", "body": ""}\n',
            encoding="utf-8",
        )
        with pytest.raises(CanonicalFormatError, match="label"):
            read_canonical(path)
        path.write_text(
            '{"id": "a", "timestamp": "01/02/2001", "label": "ham", "subject": "", "body": ""}\n',
            encoding="utf-8",
        )
        with pytest.raises(CanonicalFormatError, match="timestamp"):
            read_canonical(path)

    # 3.11's date.fromisoformat reads the first two, and 3.10's refuses them
    @pytest.mark.parametrize("stamp", [
        "20000102", "2000-W01-1", "2000-002", "2000-01-02T00:00", "2000-1-2",
        " 2000-01-02", "2000-01-02 ", "2000-01-02\n", "\uff12000-01-02", "",
    ])
    def test_a_timestamp_not_written_yyyy_mm_dd_is_refused(self, tmp_path, stamp):
        path = tmp_path / "stamp.jsonl"
        record = {"id": "a", "timestamp": stamp, "label": "ham", "subject": "", "body": ""}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CanonicalFormatError,
                           match=f"line 1: bad timestamp {re.escape(repr(stamp))}$"):
            read_canonical(path)

    @pytest.mark.parametrize("stamp", ["2000-01-02", "0999-12-31", "0001-01-01"])
    def test_a_yyyy_mm_dd_timestamp_reads_and_writes_back(self, tmp_path, stamp):
        path = tmp_path / "stamp.jsonl"
        record = {"body": "", "id": "a", "label": "ham", "subject": "", "timestamp": stamp}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        ds = read_canonical(path)
        assert ds.ham[0].timestamp == date.fromisoformat(stamp)
        write_canonical(ds, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_deeply_nested_line_is_format_error(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(CanonicalFormatError, match="line 1: invalid JSON"):
            read_canonical(path)

    def test_embedded_newlines_survive(self, tmp_path):
        ds = Dataset(name="t", ham=[make_message(body="line one\nline two")], spam=[])
        path = tmp_path / "nl.jsonl"
        write_canonical(ds, path)
        with open(path, encoding="utf-8") as lines:
            assert sum(1 for _ in lines) == 1
        assert read_canonical(path).ham[0].body == "line one\nline two"


class TestMergeByRatio:
    def test_strict_alternation_at_half(self):
        ham = [make_message(HAM, mid=f"h{i}", day=i + 1) for i in range(3)]
        spam = [make_message(SPAM, mid=f"s{i}", day=i + 1) for i in range(3)]
        merged = merge_by_ratio(ham, spam)
        assert [m.label for m in merged] == [HAM, SPAM] * 3

    def test_proportional_prefixes(self):
        ham = [make_message(HAM, mid=f"h{i}") for i in range(140)]
        spam = [make_message(SPAM, mid=f"s{i}") for i in range(60)]
        merged = merge_by_ratio(ham, spam)
        # every prefix carries its share of spam, within one message
        for i in range(1, 201):
            expected = i * 60 / 200
            got = sum(1 for m in merged[:i] if m.label == SPAM)
            assert abs(got - expected) < 1.0 + 1e-9

    def test_preserves_class_order(self):
        ham = [make_message(HAM, mid=f"h{i}", day=i + 1) for i in range(5)]
        spam = [make_message(SPAM, mid=f"s{i}", day=i + 1) for i in range(10)]
        merged = merge_by_ratio(ham, spam)
        assert [m.id for m in merged if m.label == HAM] == [m.id for m in ham]
        assert [m.id for m in merged if m.label == SPAM] == [m.id for m in spam]


@given(n_ham=st.integers(0, 300), n_spam=st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_merge_by_ratio_rule(n_ham, n_spam):
    ham = [make_message(HAM, mid=f"h{i}") for i in range(n_ham)]
    spam = [make_message(SPAM, mid=f"s{i}") for i in range(n_spam)]
    merged = merge_by_ratio(ham, spam)
    total = n_ham + n_spam
    assert len(merged) == total
    spam_so_far = 0
    for i, msg in enumerate(merged, start=1):
        spam_so_far += msg.label == SPAM
        assert spam_so_far == i * n_spam // total
    assert [m for m in merged if m.label == HAM] == ham
    assert [m for m in merged if m.label == SPAM] == spam


class TestMakeSplit:
    def test_default_protocol_block(self, protocol_corpus):
        split = make_split(protocol_corpus, 100, 200, 0.5, offset=0)
        assert len(split.train) == 200
        assert len(split.test) == 200
        assert sum(1 for m in split.test if m.label == SPAM) == 100
        # test block follows the training block in per-class order
        train_ids = {m.id for m in split.train}
        assert protocol_corpus.ham[100].id in {m.id for m in split.test}
        assert not train_ids & {m.id for m in split.test}

    def test_ratio_arithmetic(self, protocol_corpus):
        split = make_split(protocol_corpus, 100, 200, 0.3)
        assert sum(1 for m in split.test if m.label == SPAM) == 60
        assert sum(1 for m in split.test if m.label == HAM) == 140

    def test_offset_advances(self, protocol_corpus):
        s0 = make_split(protocol_corpus, 100, 200, 0.5, offset=0)
        s1 = make_split(protocol_corpus, 100, 200, 0.5, offset=100)
        assert s1.train[0].id not in {m.id for m in s0.train}

    def test_insufficient_reports_counts(self):
        tiny = synthetic_dataset(n_ham=50, n_spam=50, seed=1)
        with pytest.raises(SplitError, match="need 150.*have 50"):
            make_split(tiny, 100, 100, 0.5)

    def test_deterministic(self, protocol_corpus):
        a = make_split(protocol_corpus, 100, 200, 0.5, offset=300)
        b = make_split(protocol_corpus, 100, 200, 0.5, offset=300)
        assert a == b

    def test_bad_ratio(self, protocol_corpus):
        with pytest.raises(SplitError):
            make_split(protocol_corpus, 100, 200, 0.0)

    @pytest.mark.parametrize("name, value, text", [
        ("train_per_class", -5, "must be >= 0"),
        ("train_per_class", 10.5, "must be an integer"),
        ("train_per_class", True, "must be an integer"),
        ("train_per_class", "10", "must be an integer"),
        ("test_size", -4, "must be >= 0"),
        ("test_size", 20.0, "must be an integer"),
        ("test_size", None, "must be an integer"),
        ("offset", -20, "must be >= 0"),
        ("offset", 1.0, "must be an integer"),
        ("offset", False, "must be an integer"),
        ("test_size", 10**400, "must be <= 1000000000"),
        ("train_per_class", 10**9 + 1, "must be <= 1000000000"),
        pytest.param("offset", 10**5000, "must be <= 1000000000", id="offset-5001-digits"),
    ])
    def test_a_count_that_is_not_an_int_of_at_least_0_is_a_split_error(
        self, name, value, text
    ):
        data = synthetic_dataset(n_ham=50, n_spam=50, seed=1)
        counts = {"train_per_class": 10, "test_size": 20, "offset": 0, name: value}
        with pytest.raises(SplitError, match=f"^{name} {text}, got "):
            make_split(data, **counts)

    def test_counts_of_0_are_valid(self):
        data = synthetic_dataset(n_ham=50, n_spam=50, seed=1)
        assert make_split(data, 0, 0) == corpus.Split(train=[], test=[])
        split = make_split(data, 10, 0, offset=0)
        assert (len(split.train), split.test) == (20, [])

    @pytest.mark.parametrize("ratio", ["0.5", None, True, float("nan")])
    def test_ratio_that_is_not_a_number_is_a_split_error(self, protocol_corpus, ratio):
        with pytest.raises(SplitError, match="^spam_ratio must be a finite number"):
            make_split(protocol_corpus, 100, 200, ratio)
