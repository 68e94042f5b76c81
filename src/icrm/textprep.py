"""Message pre-processing: tokenize, filter, stem, and sample features.

An incoming message is reduced to the ordered list of distinct stems its
virtual antigen-presenting cell will expose: whitespace tokens are
stripped of surrounding punctuation and lowercased, short tokens and
stopwords are discarded, the survivors are Porter-stemmed, and when more
than ``n`` distinct stems remain only the first and last ``n/2`` are kept
(message openings and signatures carry the most signal).
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .porter import stem

__all__ = ["tokenize", "preprocess", "stem", "parse_stopwords", "default_stopwords"]

SAMPLE_CAP = 50                      # reference cap on distinct stems per message
SAMPLERS = ("first-last", "random")  # feature selection rules, default first

_MIN_TOKEN_LEN = 3


def parse_stopwords(text: str) -> frozenset[str]:
    """One stopword per line, surrounding whitespace stripped, blanks skipped."""
    return frozenset(word for line in text.split("\n") if (word := line.strip()))


@cache
def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (SMART English list)."""
    text = resources.files("icrm.data").joinpath("stopwords.txt").read_text("utf-8")
    return parse_stopwords(text)


def check_sample_cap(n: int) -> None:
    """The first/last sampler halves the cap, so it must be an even int >= 2."""
    if type(n) is not int or n < 2 or n % 2:
        raise ValueError(f"sample cap must be an even integer >= 2, got {n!r}")


def _clean(raw: str) -> str:
    """Lowercase and strip leading/trailing non-alphanumeric characters."""
    token = raw.lower()
    start = 0
    end = len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def tokenize(subject: str, body: str) -> list[str]:
    """Split subject then body into cleaned tokens of length >= 3.

    Markup is not treated specially: ``<table>`` survives as ``table``
    while ``<br>`` dies on the length filter. Order and duplicates are
    preserved.
    """
    tokens = []
    for raw in f"{subject} {body}".split():
        token = _clean(raw)
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
    """
    check_sample_cap(n)
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    if stopwords is None:
        stopwords = default_stopwords()
    stems = [
        stem(token)
        for token in tokenize(msg.subject, msg.body)
        if token not in stopwords
    ]
    unique = list(dict.fromkeys(stems))
    if len(unique) <= n:
        return unique
    if sampler == "random":
        if rng is None:
            raise ValueError("random sampling requires a generator")
        picked = rng.choice(len(unique), size=n, replace=False)
        return [unique[i] for i in sorted(int(i) for i in picked)]
    half = n // 2
    return list(dict.fromkeys(unique[:half] + unique[-half:]))
