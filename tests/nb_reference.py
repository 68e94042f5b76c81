"""The Naive Bayes posterior as a per-message loop over the counts.

This is ``icrm.nbayes.nb_posterior`` as it was before the model built its
scoring tables: every call re-sums each class's feature counts and takes
one ``math.log`` per sampled feature. The table posterior must reproduce
it bit for bit. Test-only; never imported by the package.
"""

from __future__ import annotations

import math
from typing import Iterable

from icrm.corpus import HAM, SPAM, LABELS
from icrm.nbayes import ModelError, NbModel


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
