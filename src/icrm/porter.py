"""Porter suffix-stripping stemmer (classic 1980 rule set, steps 1a-5b).

Words are analysed as [C](VC)^m[V] where C/V are maximal consonant/vowel
runs; m is the "measure" that gates most rules.  Steps 1a, 2, 3 and 4 are
(suffix, replacement) tables, each gated by a minimum measure of the
remaining stem (none, > 0, > 0, > 1).  Within a step only the longest
matching suffix is considered; if its condition fails, the step performs
no change.  Steps 1b, 1c, 5a and 5b carry their own conditions.

A word the memo has not seen runs every step in one function.  Each step
first asks ``str.endswith`` whether the word ends in any of its suffixes,
which rejects most words at C speed; a table then looks the word's ending
up in per-length dicts, longest first.  A step only acts on a word ending
in one of its suffixes, and a word that no step acts on keeps its last
letter, so a word whose last letter ends no suffix of any step
(``_TOUCHED``, derived from the tables) is returned unchanged at once.
"""

from __future__ import annotations

import re
from typing import NamedTuple

_VOWELS = frozenset("aeiou")
# Without a y every letter's class is fixed, so one VC pair is one match.
_VC = re.compile("[aeiou][^aeiou]")
_VOWEL = re.compile("[aeiou]")


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
    if "y" not in stem:
        return len(_VC.findall(stem))
    m = 0
    prev_cons = True
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _contains_vowel(stem: str) -> bool:
    if "y" not in stem:
        return _VOWEL.search(stem) is not None
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
    """Strip -eed, -ed or -ing from a word ending in "ed" or "ing"."""
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


class _Step(NamedTuple):
    """One suffix table: every suffix for a single ``endswith`` rejection,
    then the (suffix -> replacement) dicts keyed by suffix length, longest
    first."""

    suffixes: tuple[str, ...]
    by_length: tuple[tuple[int, dict[str, str]], ...]


def _step(rules) -> _Step:
    by_length: dict[int, dict[str, str]] = {}
    for suffix, replacement in rules:
        by_length.setdefault(len(suffix), {})[suffix] = replacement
    return _Step(
        tuple(suffix for suffix, _ in rules),
        tuple(sorted(by_length.items(), reverse=True)),
    )


_STEP1A = _step([("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")])

_STEP2 = _step([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _step([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = _step([(suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)])


# The endings steps 1b, 1c, 5a and 5b act on ("eed" ends in "ed").
_STEP1B = ("ed", "ing")
_STEP1C = "y"
_STEP5A = "e"
_STEP5B = "ll"

# Every last letter that some step acts on; a word ending in any other
# letter is its own stem.
_TOUCHED = frozenset(
    suffix[-1]
    for suffix in (*_STEP1A.suffixes, *_STEP2.suffixes, *_STEP3.suffixes,
                   *_STEP4.suffixes, *_STEP1B, _STEP1C, _STEP5A, _STEP5B)
)


def _replace_suffix(word: str, step: _Step, min_measure: int) -> str:
    """Replace the longest suffix in ``step`` if its stem's measure > min_measure.

    The word ends in one of the step's suffixes; only the longest
    matching one is a candidate. ``min_measure`` -1 means no condition;
    -ion (step 4) also needs a stem ending in s or t.
    """
    for length, replacements in step.by_length:
        suffix = word[-length:]
        replacement = replacements.get(suffix)
        if replacement is not None:
            stem = word[:-length]
            if (min_measure < 0 or _measure(stem) > min_measure) and (
                suffix != "ion" or stem.endswith(("s", "t"))
            ):
                return stem + replacement
            return word
    return word


def _apply_rules(word: str) -> str:
    """Steps 1a to 5b on a word of length > 2, each skipped unless the word
    ends in one of its suffixes."""
    if word[-1] not in _TOUCHED:
        return word
    if word.endswith(_STEP1A.suffixes):
        word = _replace_suffix(word, _STEP1A, -1)
    if word.endswith(_STEP1B):
        word = _step1b(word)
    if word.endswith(_STEP1C) and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"
    if word.endswith(_STEP2.suffixes):
        word = _replace_suffix(word, _STEP2, 0)
    if word.endswith(_STEP3.suffixes):
        word = _replace_suffix(word, _STEP3, 0)
    if word.endswith(_STEP4.suffixes):
        word = _replace_suffix(word, _STEP4, 1)
    if word.endswith(_STEP5A):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem
    # a double consonant ending in l is "ll"
    if word.endswith(_STEP5B) and _measure(word) > 1:
        word = word[:-1]
    return word


_cache: dict[str, str] = {}


def stem(word: str) -> str:
    """Stem a lowercase word; words of length <= 2 are returned unchanged."""
    cached = _cache.get(word)
    if cached is not None:
        return cached
    result = _apply_rules(word) if len(word) > 2 else word
    if len(_cache) < 1 << 20:
        _cache[word] = result
    return result
