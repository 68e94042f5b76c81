"""Corpus ingestion, canonical interchange format, and split construction.

Two sources are supported: the preprocessed Enron-spam directory layout
(``<root>/ham/*.txt`` and ``<root>/spam/*.txt`` with dates embedded in the
filenames as ``NNNN.YYYY-MM-DD.<tag>.txt``) and a canonical JSON-lines
format produced by :func:`write_canonical`, one record per line with
fields id/timestamp/label/subject/body, every field a string. The
timestamp is a day written exactly ``YYYY-MM-DD``; any other spelling
``date.fromisoformat`` might accept, such as ``20000102``, is refused.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from datetime import date
from operator import itemgetter
from pathlib import Path

from .ranges import RANGES, check_range

HAM = "ham"
SPAM = "spam"
LABELS = (HAM, SPAM)

_FILENAME_DATE = re.compile(r"^\d+\.(\d{4}-\d{2}-\d{2})\.")


class CorpusError(Exception):
    """Base class for corpus-level data errors."""


class IngestError(CorpusError):
    pass


class CanonicalFormatError(CorpusError):
    pass


class SplitError(CorpusError):
    pass


@dataclass(frozen=True)
class Message:
    """One e-mail record at day precision."""

    id: str
    timestamp: date
    label: str
    subject: str
    body: str


def training_label(msg: Message) -> str:
    """``msg``'s label, which training needs to be ham or spam; any other
    label is a ValueError."""
    if msg.label not in LABELS:
        raise ValueError(
            f"cannot train on a {msg.label!r} message: labels are {HAM}, {SPAM}"
        )
    return msg.label


# The canonical record layout: one JSON field per Message field.
_FIELDS = tuple(f.name for f in fields(Message))
_field_values = itemgetter(*_FIELDS)


@dataclass
class Dataset:
    """Per-class message lists, each sorted by (timestamp, id)."""

    name: str
    ham: list[Message] = field(default_factory=list)
    spam: list[Message] = field(default_factory=list)

    def by_label(self, label: str) -> list[Message]:
        if label == HAM:
            return self.ham
        if label == SPAM:
            return self.spam
        raise ValueError(f"unknown label {label!r}")


@dataclass
class IngestResult:
    dataset: Dataset
    rejected: int  # files skipped because the filename date did not parse


@dataclass
class Split:
    train: list[Message]
    test: list[Message]


def _sort_key(msg: Message):
    return (msg.timestamp, msg.id)


def ingest_enron_dir(path, limit_per_class: int = 1500) -> IngestResult:
    """Load an Enron-spam style directory tree.

    Each class list is sorted by timestamp (ties broken by id) and
    truncated to the first ``limit_per_class`` messages, an int >= 1 (its
    ``limit`` row in :mod:`icrm.ranges`; a ValueError before the tree is read).
    Files whose name carries no parseable date are counted as rejected, not
    fatal; a directory or file that cannot be read raises a :class:`CorpusError`.
    """
    check_range(RANGES, "limit", limit_per_class)
    root = Path(path)
    per_class: dict[str, list[Message]] = {}
    rejected = 0
    for label in LABELS:
        class_dir = root / label
        if not class_dir.is_dir():
            raise IngestError(f"missing class directory {label!r} under {root}")
        try:
            files = sorted(class_dir.iterdir())
        except OSError as exc:
            raise IngestError(f"cannot list class directory {class_dir}: {exc}") from None
        messages = []
        for file in files:
            if not file.is_file():
                continue
            m = _FILENAME_DATE.match(file.name)
            if m is None:
                rejected += 1
                continue
            try:
                stamp = date.fromisoformat(m.group(1))
            except ValueError:
                rejected += 1
                continue
            subject, body = read_message_file(file)
            messages.append(
                Message(
                    id=f"{label}/{file.name}",
                    timestamp=stamp,
                    label=label,
                    subject=subject,
                    body=body,
                )
            )
        messages.sort(key=_sort_key)
        per_class[label] = messages[:limit_per_class]
    dataset = Dataset(name=root.name, ham=per_class[HAM], spam=per_class[SPAM])
    return IngestResult(dataset=dataset, rejected=rejected)


def read_message_file(path) -> tuple[str, str]:
    """The (subject, body) of one e-mail file, decoded leniently.

    Undecodable bytes become U+FFFD; a file that cannot be read raises a
    :class:`CorpusError` naming it.
    """
    try:
        text = Path(path).read_text("utf-8", errors="replace")
    except OSError as exc:
        raise CorpusError(f"cannot read message file {path}: {exc}") from None
    return split_subject(text)


def split_subject(text: str) -> tuple[str, str]:
    """First line is the subject when it starts with 'Subject:'."""
    head, sep, rest = text.partition("\n")
    if head.startswith("Subject:"):
        return head[len("Subject:"):].strip(), rest if sep else ""
    return "", text


def write_canonical(dataset: Dataset, path) -> None:
    """Write one JSON record per line, ham first then spam, class order."""
    with open(path, "w", encoding="utf-8") as fh:
        for msg in list(dataset.ham) + list(dataset.spam):
            record = {name: getattr(msg, name) for name in _FIELDS}
            fh.write(json.dumps(
                record, sort_keys=True, ensure_ascii=False, default=date.isoformat
            ))
            fh.write("\n")


def _parse_record(raw: bytes, seen: set[str]) -> Message | None:
    """The message on one canonical line, None for a blank line; adds its id
    to ``seen``. Raises ValueError saying why the line is not a record."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 ({exc})") from None
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    missing = [k for k in _FIELDS if k not in record]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    not_text = [k for k in _FIELDS if not isinstance(record[k], str)]
    if not_text:
        raise ValueError(f"field(s) {', '.join(not_text)} must be strings")
    if record["label"] not in LABELS:
        raise ValueError(f"unknown label {record['label']!r}")
    text = record["timestamp"]
    try:
        stamp = date.fromisoformat(text)
    except ValueError:
        stamp = None
    if stamp is None or stamp.isoformat() != text:  # 3.11 also reads 20000102
        raise ValueError(f"bad timestamp {text!r}")
    record["timestamp"] = stamp
    if record["id"] in seen:
        raise ValueError(f"duplicate id {record['id']!r}")
    seen.add(record["id"])
    return Message(*_field_values(record))


def read_canonical(path, name: str | None = None) -> Dataset:
    """Read a canonical file back into a Dataset.

    Raises CanonicalFormatError, naming the file and the offending line,
    for any line :func:`_parse_record` refuses.
    """
    by_label: dict[str, list[Message]] = {HAM: [], SPAM: []}
    seen: set[str] = set()
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CanonicalFormatError(f"cannot read dataset: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                msg = _parse_record(raw, seen)
            except ValueError as exc:
                raise CanonicalFormatError(f"{path}: line {lineno}: {exc}") from None
            if msg is not None:
                by_label[msg.label].append(msg)
    return Dataset(
        name=name or Path(path).stem,
        ham=sorted(by_label[HAM], key=_sort_key),
        spam=sorted(by_label[SPAM], key=_sort_key),
    )


def merge_by_ratio(ham: list[Message], spam: list[Message]) -> list[Message]:
    """Deterministic proportional interleave of two ordered class lists.

    Spam messages are placed at positions where the cumulative spam quota
    ``floor((i+1) * n_spam / total)`` increments; at 50% spam this is
    strict alternation starting with ham. Over ``range(total)`` the quota
    rises exactly ``n_spam`` times, so neither list runs out early.
    """
    total = len(ham) + len(spam)
    n_spam = len(spam)
    hams, spams = iter(ham), iter(spam)
    return [
        next(spams) if (i + 1) * n_spam // total > i * n_spam // total else next(hams)
        for i in range(total)
    ]


def block_counts(test_size: int, spam_ratio: float) -> tuple[int, int]:
    """The (ham, spam) counts of a test block: spam_ratio * test_size spam,
    rounded half up."""
    n_spam = int(spam_ratio * test_size + 0.5)
    return test_size - n_spam, n_spam


# make_split's counts. Each may be 0 (eval_dynamic asks for no test block);
# none past 10**9, which no corpus class holds and below which the test
# block's spam count, a float product, is exact.
_SPLIT_COUNTS = dict.fromkeys(("train_per_class", "test_size", "offset"),
                              (int, [(">=", 0), ("<=", 10**9)]))


def make_split(
    dataset: Dataset,
    train_per_class: int,
    test_size: int,
    spam_ratio: float = 0.5,
    offset: int = 0,
) -> Split:
    """Build a train/test split following per-class timestamp order.

    Training takes ``train_per_class`` messages from each class starting
    at per-class index ``offset``; the test block takes the next messages
    so that round(spam_ratio * test_size) of them are spam. Both streams
    are merged with :func:`merge_by_ratio`. A ``spam_ratio`` its row in
    :mod:`icrm.ranges` refuses, a count that is not an int from 0 to
    10**9, or too short a corpus, is a :class:`SplitError`.
    """
    try:
        check_range(RANGES, "spam_ratio", spam_ratio)
        for name, count in zip(_SPLIT_COUNTS, (train_per_class, test_size, offset)):
            check_range(_SPLIT_COUNTS, name, count)
    except ValueError as exc:
        raise SplitError(str(exc)) from None
    cut = offset + train_per_class
    train, test = [], []
    for label, n_test in zip((HAM, SPAM), block_counts(test_size, spam_ratio)):
        messages = dataset.by_label(label)
        if len(messages) < cut + n_test:
            raise SplitError(
                f"class {label!r}: need {cut + n_test} messages at offset {offset}, "
                f"have {len(messages)}"
            )
        train.append(messages[offset:cut])
        test.append(messages[cut : cut + n_test])
    return Split(train=merge_by_ratio(*train), test=merge_by_ratio(*test))
