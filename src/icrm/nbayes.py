"""Multinomial Naive Bayes with Boolean attributes over the same features.

The baseline shares the exact preprocessing pipeline (first/last unique
stems, same cap) so comparisons isolate the classification rule. Each
feature counts at most once per training document; estimates are add-one
smoothed over the training vocabulary and the posterior is evaluated in
log space with two-class normalization. A message is spam when
P(spam | features) > 0.5, strictly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import HAM, SPAM, LABELS, Message
from .files import read_state, write_state
from .textprep import SAMPLE_CAP, check_sample_cap, preprocess


class ModelError(Exception):
    """Raised when classifying with an untrained or unreadable model."""


@dataclass
class NbModel:
    doc_count: dict[str, int] = field(default_factory=lambda: {HAM: 0, SPAM: 0})
    feature_doc_count: dict[str, dict[str, int]] = field(
        default_factory=lambda: {HAM: {}, SPAM: {}}
    )
    vocabulary: set[str] = field(default_factory=set)


def nb_train(
    messages: Iterable[Message],
    n: int = SAMPLE_CAP,
    stopwords: frozenset[str] | None = None,
) -> NbModel:
    """Accumulate Boolean per-document feature counts from labeled messages."""
    model = NbModel()
    for msg in messages:
        sample = preprocess(msg, n, stopwords)
        model.doc_count[msg.label] += 1
        counts = model.feature_doc_count[msg.label]
        for feature in sample:  # sample is already distinct per message
            counts[feature] = counts.get(feature, 0) + 1
            model.vocabulary.add(feature)
    return model


def nb_posterior(model: NbModel, sample: Iterable[str]) -> float:
    """P(spam | sample) with add-one smoothing, computed in log space.

    Features outside the training vocabulary still contribute their
    smoothed probability. An empty sample reduces to the class priors.
    """
    if any(model.doc_count[label] <= 0 for label in LABELS):
        raise ModelError("model must contain training documents for both classes")
    total_docs = sum(model.doc_count.values())
    vocab_size = len(model.vocabulary)
    log_like = {}
    for label in LABELS:
        counts = model.feature_doc_count[label]
        denom = vocab_size + sum(counts.values())
        ll = math.log(model.doc_count[label] / total_docs)
        for feature in sample:
            if denom == 0:
                continue  # degenerate: no features ever seen in training
            ll += math.log((1 + counts.get(feature, 0)) / denom)
        log_like[label] = ll
    # P(spam|x) = exp(ls) / (exp(ls) + exp(lh)), computed stably.
    diff = log_like[HAM] - log_like[SPAM]
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
            "doc_count": self.model.doc_count,
            "feature_doc_count": self.model.feature_doc_count,
            "vocabulary": sorted(self.model.vocabulary),
        })

    @classmethod
    def load(cls, path, stopwords: frozenset[str] | None = None) -> "NaiveBayesClassifier":
        state = read_state(path, cls._FORMAT, cls._VERSION, ModelError)
        try:
            words = state["vocabulary"]
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise ValueError("vocabulary must be a list of strings")
            clf = cls(n=state["n"], stopwords=stopwords)
            clf.model = NbModel(
                doc_count=_per_label(state["doc_count"], _count),
                feature_doc_count=_per_label(
                    state["feature_doc_count"],
                    lambda counts: {f: _count(c) for f, c in counts.items()},
                ),
                vocabulary=set(words),
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
