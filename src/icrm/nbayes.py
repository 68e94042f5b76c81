"""Multinomial Naive Bayes with Boolean attributes over the same features.

The baseline shares the exact preprocessing pipeline (first/last unique
stems, same cap) so comparisons isolate the classification rule. Each
feature counts at most once per training document; estimates are add-one
smoothed over the training vocabulary and the posterior is evaluated in
log space with two-class normalization. A message is spam when
P(spam | features) > 0.5, strictly.

Every log term the posterior can add depends only on the trained counts,
so a model builds its scoring table once, when it is made (by
:func:`nb_train` or directly). The table maps each vocabulary feature to
``complex(log P(f|ham), log P(f|spam))``, where each class's
``log((1 + c) / denom)`` is taken once per distinct count ``c`` and shared
by every feature with that count (the same float a log per feature
gives); beside it are one complex log prior and one complex term for a
feature outside the vocabulary, the ``c = 0`` term.
Complex addition is two independent float additions, so
:func:`nb_posterior`, one table lookup and one complex addition per
feature, adds the same floats in the same order as evaluating the
smoothed estimates class by class. The counts are read-only, so the
table cannot go stale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterable, Mapping

from .corpus import HAM, SPAM, LABELS, Message, training_label
from .ranges import RANGES, check_range
from .textprep import SAMPLE_CAP, check_features, preprocess


class ModelError(Exception):
    """Raised when classifying with an untrained model."""


# The log prior, each vocabulary feature's log smoothed likelihood and that
# of any other feature, each as complex(ham, spam); the last is None when no
# training document held a feature, so there is nothing to smooth over.
_Tables = tuple[complex, dict[str, complex], complex | None]


@dataclass(frozen=True)
class NbModel:
    """Per-class document counts and Boolean feature counts, read-only.

    Both mappings are keyed by exactly the two labels. A document count is
    an int in [0, 2**63), a bound that keeps every smoothed likelihood
    ratio far above float underflow, and a feature count an int in
    [1, its class's document count], and each feature a ``str``; any other
    count or feature is a ValueError when the model is made, so every model
    is one that training could give.
    ``vocabulary`` is the union of the features either class has seen.
    ``tables`` holds the model's :data:`_Tables`, or None unless both
    classes have training documents. Both are derived once, from the counts.
    """

    doc_count: Mapping[str, int]
    feature_doc_count: Mapping[str, Mapping[str, int]]
    vocabulary: frozenset[str] = field(init=False, repr=False, compare=False)
    tables: _Tables | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the tables read plain dicts: a read-only view's .get is a method call
        docs = {label: _count(n) for label, n in _per_label(self.doc_count)}
        counts = {label: dict(c) for label, c in _per_label(self.feature_doc_count)}
        distinct = {k: _distinct_counts(k, c, docs[k]) for k, c in counts.items()}
        vocab = frozenset().union(*counts.values())
        check_features(vocab)
        object.__setattr__(self, "doc_count", MappingProxyType(docs))
        object.__setattr__(self, "feature_doc_count", MappingProxyType({
            label: MappingProxyType(c) for label, c in counts.items()
        }))
        object.__setattr__(self, "vocabulary", vocab)
        object.__setattr__(self, "tables", _score_tables(docs, counts, distinct, vocab))


def _score_tables(
    doc_count: dict[str, int],
    feature_doc_count: dict[str, dict[str, int]],
    distinct: dict[str, set[int]],
    vocab: frozenset[str],
) -> _Tables | None:
    if 0 in doc_count.values():
        return None
    total_docs = sum(doc_count.values())
    prior = complex(*(math.log(doc_count[label] / total_docs) for label in LABELS))
    if not vocab:  # degenerate: no features ever seen in training
        return prior, {}, None
    logs, unseen = [], []
    for label in LABELS:
        counts = feature_doc_count[label]
        denom = len(vocab) + sum(counts.values())
        # counts take few distinct values: one log per value, the same float
        log_of = {c: math.log((1 + c) / denom) for c in {0, *distinct[label]}}
        logs.append(map(log_of.__getitem__, map(counts.get, vocab, repeat(0))))
        unseen.append(log_of[0])
    return prior, dict(zip(vocab, map(complex, *logs))), complex(*unseen)


def nb_train(
    messages: Iterable[Message],
    n: int = SAMPLE_CAP,
    stopwords: frozenset[str] | None = None,
) -> NbModel:
    """Accumulate Boolean per-document feature counts from labeled messages."""
    by_label = {HAM: [], SPAM: []}
    for msg in messages:
        by_label[training_label(msg)].append(msg)
    # each sample is already distinct; a feature joins its class's counts in
    # first-seen order, as a dict.get loop would add it
    return NbModel(
        {label: len(group) for label, group in by_label.items()},
        {
            label: Counter(chain.from_iterable(
                preprocess(msg, n, stopwords) for msg in group
            ))
            for label, group in by_label.items()
        },
    )


def nb_posterior(model: NbModel, sample: Iterable[str]) -> float:
    """P(spam | sample) with add-one smoothing, computed in log space.

    Features outside the training vocabulary still contribute their
    smoothed probability. An empty sample reduces to the class priors.
    ``sample`` is iterated once, so it may be an iterator.
    """
    if model.tables is None:
        raise ModelError("model must contain training documents for both classes")
    # real parts are ham's log terms, imaginary parts spam's (LABELS order)
    acc, table, unseen = model.tables
    if unseen is not None:  # None: no vocabulary, so features add nothing
        get = table.get
        for feature in sample:
            acc += get(feature, unseen)
    # P(spam|x) = exp(ls) / (exp(ls) + exp(lh)) for lh + ls*j = acc, computed stably.
    diff = acc.real - acc.imag
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
        check_range(RANGES, "n", n)
        self.n = n
        self.stopwords = stopwords
        self.model: NbModel | None = None

    def train(self, messages: Iterable[Message]) -> None:
        self.model = nb_train(messages, self.n, self.stopwords)

    def classify(self, msg: Message) -> str:
        if self.model is None:
            raise ModelError("classifier has not been trained")
        return nb_classify(self.model, msg, self.n, self.stopwords)


def _per_label(value: Mapping) -> list[tuple[str, object]]:
    """The entries of a mapping keyed by exactly the labels, in label order."""
    if set(value) != set(LABELS):
        raise ValueError(f"expected one entry per label {LABELS}, got {sorted(value)}")
    return [(label, value[label]) for label in LABELS]


def _distinct_counts(label: str, counts: dict[str, int], doc_count: int) -> set[int]:
    """The distinct values of ``label``'s feature counts, each an int in
    [1, doc_count]; any other count is a ValueError."""
    if set(map(type, counts.values())) - {int}:  # a float or a bool, say
        _count(next(c for c in counts.values() if type(c) is not int))
    distinct = {*counts.values()}
    # a count outside [0, 2**63) is the least or the greatest
    if distinct and not 1 <= _count(min(distinct)) <= _count(max(distinct)) <= doc_count:
        raise ValueError(f"{label} feature counts must be in [1, doc_count {doc_count}]")
    return distinct


def _count(value) -> int:
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"counts must be integers in [0, 2**63), got {value!r}")
    return value
