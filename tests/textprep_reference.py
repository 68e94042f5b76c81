"""Token-at-a-time front end, kept as the oracle for ``icrm.textprep``.

This is the tokenizer and stem listing that the one-split tokenizer and
the stem-each-distinct-token-once listing replaced: every whitespace
token is lowercased on its own and cleaned by a per-character loop, and
every surviving token, repeats included, is stemmed before repeated stems
are dropped. ``sample`` applies either sampler's rule to that listing,
with no memo. ``icrm.textprep`` must give the same lists for any text.
Test-only; never imported by the package.
"""

from __future__ import annotations

from icrm.porter import stem


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
    tokens = []
    for raw in f"{subject} {body}".split():
        token = _clean(raw)
        if len(token) >= 3:
            tokens.append(token)
    return tokens


def distinct_stems(subject: str, body: str, stopwords) -> list[str]:
    stems = [stem(token) for token in tokenize(subject, body) if token not in stopwords]
    return list(dict.fromkeys(stems))


def sample(subject: str, body: str, n: int, stopwords, sampler: str = "first-last",
           rng=None) -> list[str]:
    """At most ``n`` distinct stems: the first and last ``n // 2``, or ``n``
    drawn from ``rng`` without replacement and kept in document order."""
    unique = distinct_stems(subject, body, stopwords)
    if len(unique) <= n:
        return unique
    if sampler == "random":
        picked = rng.choice(len(unique), size=n, replace=False)
        return [unique[i] for i in sorted(int(i) for i in picked)]
    half = n // 2
    return list(dict.fromkeys(unique[:half] + unique[-half:]))
