"""Multinomial Naive Bayes with Boolean attributes over the same features.

The baseline shares the exact preprocessing pipeline (first/last unique
stems, same cap) so comparisons isolate the classification rule. Each
feature counts at most once per training document; estimates are add-one
smoothed over the training vocabulary and the posterior is evaluated in
log space with two-class normalization. A message is spam when
P(spam | features) > 0.5, strictly.

Every log term the posterior can add depends only on the trained counts,
so a model builds its scoring tables once, when it is made (by
:func:`nb_train`, by :meth:`NaiveBayesClassifier.load` or directly): per
class the log prior, ``log((1 + c) / denom)`` for each feature the class
has seen, and ``log(1 / denom)`` for any other feature. The log of each
distinct count is taken once and shared by every feature with that count:
it is the same float a log per feature gives. The counts are read-only,
so the tables cannot go stale, and :func:`nb_posterior` is one table
lookup per feature per class, adding the same floats in the same order as
evaluating the smoothed estimates message by message.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .corpus import HAM, SPAM, LABELS, Message
from .files import read_state, write_state
from .textprep import SAMPLE_CAP, check_sample_cap, preprocess


class ModelError(Exception):
    """Raised when classifying with an untrained or unreadable model."""


# Per class: log prior, log smoothed likelihood of each feature the class
# has seen, and that of any other feature (None when no training document
# held a feature, so there is nothing to smooth over).
_ClassTable = tuple[float, dict[str, float], float | None]


@dataclass(frozen=True)
class NbModel:
    """Per-class document counts and Boolean feature counts, read-only.

    ``vocabulary`` is the union of the features either class has seen.
    ``tables`` holds one :data:`_ClassTable` per label, in ``LABELS``
    order, or None unless both classes have training documents.
    """

    doc_count: Mapping[str, int]
    feature_doc_count: Mapping[str, Mapping[str, int]]
    tables: tuple[_ClassTable, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        doc_count = MappingProxyType(dict(self.doc_count))
        feature_doc_count = MappingProxyType({
            label: MappingProxyType(dict(counts))
            for label, counts in self.feature_doc_count.items()
        })
        object.__setattr__(self, "doc_count", doc_count)
        object.__setattr__(self, "feature_doc_count", feature_doc_count)
        object.__setattr__(self, "tables", self._score_tables())

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset().union(*self.feature_doc_count.values())

    def _score_tables(self) -> tuple[_ClassTable, ...] | None:
        if any(self.doc_count.get(label, 0) <= 0 for label in LABELS):
            return None
        total_docs = sum(self.doc_count.values())
        vocab_size = len(self.vocabulary)
        tables = []
        for label in LABELS:
            counts = self.feature_doc_count[label]
            denom = vocab_size + sum(counts.values())
            log_prior = math.log(self.doc_count[label] / total_docs)
            if denom == 0:  # degenerate: no features ever seen in training
                tables.append((log_prior, {}, None))
                continue
            # counts take few distinct values: one log per value, the same float
            logs = {c: math.log((1 + c) / denom) for c in set(counts.values())}
            seen = dict(zip(counts, map(logs.__getitem__, counts.values())))
            tables.append((log_prior, seen, math.log(1 / denom)))
        return tuple(tables)

    def __reduce__(self):
        # read-only views do not pickle: rebuild from plain copies
        return type(self), (
            dict(self.doc_count),
            {label: dict(counts) for label, counts in self.feature_doc_count.items()},
        )


def nb_train(
    messages: Iterable[Message],
    n: int = SAMPLE_CAP,
    stopwords: frozenset[str] | None = None,
) -> NbModel:
    """Accumulate Boolean per-document feature counts from labeled messages."""
    doc_count = {HAM: 0, SPAM: 0}
    feature_doc_count = {HAM: Counter(), SPAM: Counter()}
    for msg in messages:
        counts = feature_doc_count.get(msg.label)
        if counts is None:
            raise ValueError(
                f"cannot train on a {msg.label!r} message: labels are {HAM}, {SPAM}"
            )
        doc_count[msg.label] += 1
        # the sample is already distinct per message; a new feature joins
        # the counts in first-seen order, as a dict.get loop would add it
        counts.update(preprocess(msg, n, stopwords))
    return NbModel(doc_count, feature_doc_count)


def nb_posterior(model: NbModel, sample: Iterable[str]) -> float:
    """P(spam | sample) with add-one smoothing, computed in log space.

    Features outside the training vocabulary still contribute their
    smoothed probability. An empty sample reduces to the class priors.
    ``sample`` is iterated once, so it may be an iterator.
    """
    if model.tables is None:
        raise ModelError("model must contain training documents for both classes")
    (lh, seen_h, unseen_h), (ls, seen_s, unseen_s) = model.tables  # LABELS order
    # the vocabulary size is shared, so either both classes smooth or neither
    if unseen_h is not None:
        for feature in sample:
            lh += seen_h.get(feature, unseen_h)
            ls += seen_s.get(feature, unseen_s)
    # P(spam|x) = exp(ls) / (exp(ls) + exp(lh)), computed stably.
    diff = lh - ls
    if diff > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(diff))


def nb_classify(
    model: NbModel,
    msg: Message,
    n: int = SAMPLE_CAP,
    stopwords: frozenset[str] | None = None,
) -> str:
    """Spam iff the posterior strictly exceeds 0.5 (ties go to ham)."""
    sample = preprocess(msg, n, stopwords)
    return SPAM if nb_posterior(model, sample) > 0.5 else HAM


class NaiveBayesClassifier:
    """Train-once wrapper; classification never mutates the model."""

    def __init__(self, n: int = SAMPLE_CAP, stopwords: frozenset[str] | None = None):
        check_sample_cap(n)
        self.n = n
        self.stopwords = stopwords
        self.model: NbModel | None = None

    def train(self, messages: Iterable[Message]) -> None:
        self.model = nb_train(messages, self.n, self.stopwords)

    def classify(self, msg: Message) -> str:
        if self.model is None:
            raise ModelError("classifier has not been trained")
        return nb_classify(self.model, msg, self.n, self.stopwords)

    # -- persistence (same versioned convention as the ICRM snapshot) ---

    _FORMAT = "icrm-nbmodel"
    _VERSION = 1

    def save(self, path) -> None:
        if self.model is None:
            raise ModelError("nothing to save: classifier has not been trained")
        write_state(path, self._FORMAT, self._VERSION, {
            "n": self.n,
            "doc_count": dict(self.model.doc_count),
            "feature_doc_count": {
                label: dict(counts)
                for label, counts in self.model.feature_doc_count.items()
            },
            "vocabulary": sorted(self.model.vocabulary),
        })

    @classmethod
    def load(cls, path, stopwords: frozenset[str] | None = None) -> "NaiveBayesClassifier":
        _, state = read_state(path, cls._FORMAT, {cls._VERSION}, ModelError)
        try:
            clf = cls(n=state["n"], stopwords=stopwords)
            doc_count = _per_label(state["doc_count"], _count)
            feature_doc_count = _per_label(
                state["feature_doc_count"],
                lambda counts: {f: _count(c) for f, c in counts.items()},
            )
            for label, counts in feature_doc_count.items():
                if not all(1 <= c <= doc_count[label] for c in counts.values()):
                    raise ValueError(
                        f"{label} feature counts must be in [1, doc_count "
                        f"{doc_count[label]}]"
                    )
            clf.model = NbModel(doc_count, feature_doc_count)
            # the vocabulary is saved for readers of the file; the model derives it
            if state["vocabulary"] != sorted(clf.model.vocabulary):
                raise ValueError(
                    "vocabulary must be the sorted union of the features counted"
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed model file {path}: {exc!r}") from None
        return clf


def _per_label(value: dict, convert) -> dict:
    """``convert`` applied to each entry of a mapping keyed by exactly the labels."""
    if set(value) != set(LABELS):
        raise ValueError(f"expected one entry per label {LABELS}, got {sorted(value)}")
    return {label: convert(value[label]) for label in LABELS}


def _count(value) -> int:
    # the bound keeps every smoothed likelihood ratio far above float underflow
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"counts must be integers in [0, 2**63), got {value!r}")
    return value
