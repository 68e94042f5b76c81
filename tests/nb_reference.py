"""Naive Bayes training and posterior as plain per-feature loops.

``nb_posterior`` is ``icrm.nbayes.nb_posterior`` as it was before the
model built its scoring tables: every call re-sums each class's feature
counts and takes one ``math.log`` per sampled feature, one class after
the other. The complex-table posterior must reproduce it bit for bit.
``nb_train`` counts with one ``dict.get`` per feature, message by
message, as the package did before it counted each class with one
``collections.Counter``; the package's counts, in key order, must equal
its counts. ``score_tables`` keeps the per-class layout the package
used before its complex table: per class the log prior, one
``math.log`` per counted feature and the term of any other feature. The
real (ham) and imaginary (spam) part of every complex term the package
builds must equal the matching float of it. Test-only; never imported by
the package.
"""

from __future__ import annotations

import math
from typing import Iterable

from icrm.corpus import HAM, SPAM, LABELS, Message
from icrm.nbayes import ModelError, NbModel
from icrm.textprep import SAMPLE_CAP, preprocess


def nb_train(
    messages: Iterable[Message],
    n: int = SAMPLE_CAP,
    stopwords: frozenset[str] | None = None,
) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Per-class document counts and Boolean feature counts, as plain dicts."""
    doc_count = {HAM: 0, SPAM: 0}
    feature_doc_count = {HAM: {}, SPAM: {}}
    for msg in messages:
        sample = preprocess(msg, n, stopwords)
        doc_count[msg.label] += 1
        counts = feature_doc_count[msg.label]
        for feature in sample:  # sample is already distinct per message
            counts[feature] = counts.get(feature, 0) + 1
    return doc_count, feature_doc_count


def score_tables(model: NbModel):
    """Per class, in LABELS order: log prior, seen-feature logs, unseen log."""
    if any(model.doc_count.get(label, 0) <= 0 for label in LABELS):
        return None
    total_docs = sum(model.doc_count.values())
    vocab_size = len(model.vocabulary)
    tables = []
    for label in LABELS:
        counts = model.feature_doc_count[label]
        denom = vocab_size + sum(counts.values())
        log_prior = math.log(model.doc_count[label] / total_docs)
        if denom == 0:  # degenerate: no features ever seen in training
            tables.append((log_prior, {}, None))
            continue
        seen = {f: math.log((1 + c) / denom) for f, c in counts.items()}
        tables.append((log_prior, seen, math.log(1 / denom)))
    return tuple(tables)


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
