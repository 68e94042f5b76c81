"""Corpus ingestion, canonical interchange format, and split construction.

Two sources are supported: the preprocessed Enron-spam directory layout
(``<root>/ham/*.txt`` and ``<root>/spam/*.txt`` with dates embedded in the
filenames as ``NNNN.YYYY-MM-DD.<tag>.txt``) and a canonical JSON-lines
format produced by :func:`write_canonical`, one record per line with
fields id/timestamp/label/subject/body.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

HAM = "ham"
SPAM = "spam"
LABELS = (HAM, SPAM)

_FILENAME_DATE = re.compile(r"^\d+\.(\d{4}-\d{2}-\d{2})\.")
_CANONICAL_FIELDS = ("id", "timestamp", "label", "subject", "body")
_TEXT_FIELDS = ("id", "timestamp", "subject", "body")


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
    spam_ratio: float


def _sort_key(msg: Message):
    return (msg.timestamp, msg.id)


def ingest_enron_dir(path, limit_per_class: int = 1500) -> IngestResult:
    """Load an Enron-spam style directory tree.

    Each class list is sorted by timestamp (ties broken by id) and
    truncated to the first ``limit_per_class`` messages. Files whose name
    carries no parseable date are counted as rejected, not fatal.
    """
    root = Path(path)
    per_class: dict[str, list[Message]] = {}
    rejected = 0
    for label in LABELS:
        class_dir = root / label
        if not class_dir.is_dir():
            raise IngestError(f"missing class directory {label!r} under {root}")
        messages = []
        for file in sorted(class_dir.iterdir()):
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
            subject, body = split_subject(file.read_text("utf-8", errors="replace"))
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
            record = {
                "id": msg.id,
                "timestamp": msg.timestamp.isoformat(),
                "label": msg.label,
                "subject": msg.subject,
                "body": msg.body,
            }
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_canonical(path, name: str | None = None) -> Dataset:
    """Read a canonical file back into a Dataset.

    Raises CanonicalFormatError naming the offending line for text that is
    not UTF-8, malformed records, non-string fields, unknown labels, bad
    dates, or duplicate ids.
    """
    ham: list[Message] = []
    spam: list[Message] = []
    seen: set[str] = set()
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CanonicalFormatError(f"cannot read dataset: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CanonicalFormatError(
                    f"{path}: line {lineno}: not UTF-8 ({exc})"
                ) from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CanonicalFormatError(f"line {lineno}: invalid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise CanonicalFormatError(f"line {lineno}: record is not an object")
            missing = [k for k in _CANONICAL_FIELDS if k not in record]
            if missing:
                raise CanonicalFormatError(
                    f"line {lineno}: missing field(s) {', '.join(missing)}"
                )
            not_text = [k for k in _TEXT_FIELDS if not isinstance(record[k], str)]
            if not_text:
                raise CanonicalFormatError(
                    f"line {lineno}: field(s) {', '.join(not_text)} must be strings"
                )
            if record["label"] not in LABELS:
                raise CanonicalFormatError(
                    f"line {lineno}: unknown label {record['label']!r}"
                )
            try:
                stamp = date.fromisoformat(record["timestamp"])
            except ValueError:
                raise CanonicalFormatError(
                    f"line {lineno}: bad timestamp {record['timestamp']!r}"
                ) from None
            if record["id"] in seen:
                raise CanonicalFormatError(
                    f"line {lineno}: duplicate id {record['id']!r}"
                )
            seen.add(record["id"])
            msg = Message(
                id=record["id"],
                timestamp=stamp,
                label=record["label"],
                subject=record["subject"],
                body=record["body"],
            )
            (ham if msg.label == HAM else spam).append(msg)
    ham.sort(key=_sort_key)
    spam.sort(key=_sort_key)
    return Dataset(name=name or Path(path).stem, ham=ham, spam=spam)


def merge_by_ratio(ham: list[Message], spam: list[Message]) -> list[Message]:
    """Deterministic proportional interleave of two ordered class lists.

    Spam messages are placed at positions where the cumulative spam quota
    ``floor((i+1) * n_spam / total)`` increments; at 50% spam this is
    strict alternation starting with ham.
    """
    total = len(ham) + len(spam)
    n_spam = len(spam)
    out: list[Message] = []
    hi = si = 0
    for i in range(total):
        spam_turn = (i + 1) * n_spam // total > i * n_spam // total
        if spam_turn and si < len(spam):
            out.append(spam[si])
            si += 1
        elif hi < len(ham):
            out.append(ham[hi])
            hi += 1
        else:
            out.append(spam[si])
            si += 1
    return out


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


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
    are merged with :func:`merge_by_ratio`.
    """
    if not 0.0 < spam_ratio < 1.0:
        raise SplitError(f"spam_ratio must be in (0, 1), got {spam_ratio}")
    n_spam_test = _round_half_up(spam_ratio * test_size)
    n_ham_test = test_size - n_spam_test
    needs = {
        HAM: offset + train_per_class + n_ham_test,
        SPAM: offset + train_per_class + n_spam_test,
    }
    for label, needed in needs.items():
        available = len(dataset.by_label(label))
        if available < needed:
            raise SplitError(
                f"class {label!r}: need {needed} messages at offset {offset}, "
                f"have {available}"
            )
    train_ham = dataset.ham[offset : offset + train_per_class]
    train_spam = dataset.spam[offset : offset + train_per_class]
    test_ham = dataset.ham[offset + train_per_class : offset + train_per_class + n_ham_test]
    test_spam = dataset.spam[offset + train_per_class : offset + train_per_class + n_spam_test]
    return Split(
        train=merge_by_ratio(train_ham, train_spam),
        test=merge_by_ratio(test_ham, test_spam),
        spam_ratio=spam_ratio,
    )
