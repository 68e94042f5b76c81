"""Porter suffix-stripping stemmer (classic 1980 rule set, steps 1a-5b).

Words are analysed as [C](VC)^m[V] where C/V are maximal consonant/vowel
runs; m is the "measure" that gates most rules.  Steps 1a, 2, 3 and 4 are
(suffix, replacement) tables sorted longest suffix first, each gated by a
minimum measure of the remaining stem (none, > 0, > 0, > 1).  Within a
step only the longest matching suffix is considered; if its condition
fails, the step performs no change.  Steps 1b, 1c, 5a and 5b carry their
own conditions.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel when preceded by a consonant ("syzygy"),
        # a consonant otherwise ("toy", leading "y").
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences: one per vowel-run followed by a consonant-run."""
    m = 0
    prev_cons = True
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # Final consonant-vowel-consonant where the last consonant is not w, x, y.
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _is_consonant(word, n - 3)
        and not _is_consonant(word, n - 2)
        and _is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return stem + "ee"
        return word
    stripped = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    # Cleanup pass after removing -ed/-ing.
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _longest_first(rules) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(rules, key=lambda rule: len(rule[0]), reverse=True))


_STEP1A = _longest_first([("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")])

_STEP2 = _longest_first([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _longest_first([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = _longest_first((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
))


def _replace_suffix(word: str, rules, min_measure: int) -> str:
    """Replace the longest suffix in ``rules`` if its stem's measure > min_measure.

    ``rules`` is sorted longest suffix first, so the first match is the
    only candidate. ``min_measure`` -1 means no condition; -ion (step 4)
    also needs a stem ending in s or t.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if (min_measure < 0 or _measure(stem) > min_measure) and (
                suffix != "ion" or stem.endswith(("s", "t"))
            ):
                return stem + replacement
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if (
        _measure(word) > 1
        and _ends_double_consonant(word)
        and word.endswith("l")
    ):
        return word[:-1]
    return word


_cache: dict[str, str] = {}


def stem(word: str) -> str:
    """Stem a lowercase word; words of length <= 2 are returned unchanged."""
    cached = _cache.get(word)
    if cached is not None:
        return cached
    result = word
    if len(word) > 2:
        result = _step1c(_step1b(_replace_suffix(word, _STEP1A, -1)))
        result = _replace_suffix(result, _STEP2, 0)
        result = _replace_suffix(result, _STEP3, 0)
        result = _step5b(_step5a(_replace_suffix(result, _STEP4, 1)))
    if len(_cache) < 1 << 20:
        _cache[word] = result
    return result
