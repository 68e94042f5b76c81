"""Message pre-processing: tokenize, filter, stem, and sample features.

An incoming message is reduced to the ordered list of distinct stems its
virtual antigen-presenting cell will expose: whitespace tokens are
stripped of surrounding punctuation and lowercased, short tokens and
stopwords are discarded, the survivors are Porter-stemmed, and when more
than ``n`` distinct stems remain only the first and last ``n/2`` are kept
(message openings and signatures carry the most signal).

That first-last sample depends only on the message, ``n`` and the
stopwords, so a message remembers the last one computed for it, keyed by
``(n, stopwords)``: the evaluation protocols show each message to both
classifiers and to several runs, and only the first call tokenizes and
stems it. The key's ``stopwords`` is the argument exactly as the caller
gave it, None included. One test, run before any setting is checked,
answers a call from the memo: the first-last sampler, the memo's own
``n`` (an ``int``), and stopwords that are the memo's own object. A hit
re-checks nothing: the memo's settings passed every check when it was
stored. Any other call checks its settings first, and stores a memo only
when its stopwords are None or a ``frozenset``, which cannot change after
the call; an equal set that is another object computes the same sample
again. The memo is an attribute outside the dataclass fields, so a
message's equality, hash, repr and canonical record do not see it. The
``random`` sampler draws from the caller's generator and recomputes on
every call.

A feature is a ``str`` wherever state holds one: :func:`check_features`
is the one test the repertoire and the Naive Bayes counts apply.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from typing import Iterable

from .porter import stem
from .ranges import RANGES, SAMPLERS, check_range

__all__ = ["tokenize", "preprocess", "stem", "parse_stopwords", "default_stopwords"]

SAMPLE_CAP = 50  # reference cap on distinct stems per message

_MIN_TOKEN_LEN = 3
# message attribute: (n, stopwords as the caller gave them, sample tuple)
_MEMO = "_first_last_sample"


def parse_stopwords(text: str) -> frozenset[str]:
    """One stopword per line, surrounding whitespace stripped, blanks skipped."""
    return frozenset(word for line in text.split("\n") if (word := line.strip()))


@cache
def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (SMART English list)."""
    text = resources.files("icrm.data").joinpath("stopwords.txt").read_text("utf-8")
    return parse_stopwords(text)


# What str.strip takes off a token's ends before any per-character loop.
_ASCII_EDGES = "".join(ch for ch in map(chr, range(128)) if not ch.isalnum())


def _clean(token: str) -> str:
    """Strip leading/trailing characters that are not alphanumeric."""
    start = 0
    end = len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def tokenize(subject: str, body: str) -> list[str]:
    """Split subject then body into cleaned tokens of length >= 3.

    The text is lowercased once and split on ``str.split`` whitespace;
    each token loses its leading and trailing characters that are not
    ``isalnum``. Lowercasing before the split gives the same tokens as
    lowercasing each one: no character's lowercase form adds or removes
    whitespace, and a final sigma's context ends at whitespace. Markup
    is not treated specially: ``<table>`` survives as ``table`` while
    ``<br>`` dies on the length filter. Order and duplicates are
    preserved.

    ASCII punctuation is stripped first, at C speed. The per-character
    loop runs only on a token that still has an end that is not
    ``isalnum``, which only a non-ASCII character can be.
    """
    tokens = []
    for token in f"{subject} {body}".lower().split():
        if not token.isalnum():
            token = token.strip(_ASCII_EDGES)
            if not (token[:1].isalnum() and token[-1:].isalnum()):
                token = _clean(token)
        if len(token) >= _MIN_TOKEN_LEN:
            tokens.append(token)
    return tokens


def preprocess(
    msg,
    n: int = SAMPLE_CAP,
    stopwords: frozenset[str] | None = None,
    sampler: str = SAMPLERS[0],
    rng=None,
) -> list[str]:
    """Reduce a message to its feature sample (<= n distinct stems).

    Stopwords are removed before stemming; uniqueness is computed over
    stems with the first occurrence kept. When more than ``n`` distinct
    stems are present, the default sampler unites the first ``n/2`` and
    last ``n/2`` (so the sample can be shorter than ``n`` if the two
    windows share stems). The "random" sampler instead draws ``n`` stems
    uniformly without replacement, preserving document order; it exists
    for ablation runs and requires a generator.

    A first-last sample is remembered on ``msg``; a later call with the
    same ``n`` and the same stopwords object returns a new list copied
    from it.
    """
    memo = getattr(msg, _MEMO, None)
    # a hit re-checks nothing: the memo's settings were checked when stored
    if (memo is not None and sampler == "first-last" and type(n) is int
            and n == memo[0] and memo[1] is stopwords):
        return list(memo[2])
    check_range(RANGES, "n", n)
    check_range(RANGES, "feature_sampler", sampler)
    unique = _distinct_stems(msg, default_stopwords() if stopwords is None else stopwords)
    if sampler == "random":
        if len(unique) <= n:
            return unique
        if rng is None:
            raise ValueError("random sampling requires a generator")
        picked = rng.choice(len(unique), size=n, replace=False)
        return [unique[i] for i in sorted(int(i) for i in picked)]
    if len(unique) > n:
        half = n // 2
        unique = list(dict.fromkeys(unique[:half] + unique[-half:]))
    # a mutable set could change after this call, so it keys no memo
    if stopwords is None or type(stopwords) is frozenset:
        object.__setattr__(msg, _MEMO, (n, stopwords, tuple(unique)))
    return unique


def check_features(features: Iterable) -> None:
    """Refuse, with a ValueError, features of which one is not a ``str``."""
    try:
        "".join(features)  # one C pass, a TypeError at the first item not a str
    except TypeError:
        raise ValueError("features must be a list of strings") from None


def _distinct_stems(msg, stopwords) -> list[str]:
    """The message's stems in document order, first occurrence kept.

    Tokens are deduplicated before stemming: a stem first appears where
    its first token first appears, so stemming each distinct token once
    gives the same list.
    """
    stems = [
        stem(token)
        for token in dict.fromkeys(tokenize(msg.subject, msg.body))
        if token not in stopwords
    ]
    return list(dict.fromkeys(stems))
