"""Stemmer checks: rule examples, shipped reference pairs, dual-route agreement."""

from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from icrm.porter import stem

from porter_reference import reference_stem


# Per-rule behaviour, full pipeline outputs.
RULE_CASES = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("bled", "bled"),
    ("sing", "sing"),
    ("motoring", "motor"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("rational", "ration"),
    ("running", "run"),
    ("runner", "runner"),
    ("runs", "run"),
    ("agreement", "agreement"),
    ("replacement", "replac"),
    ("oscillate", "oscil"),
    ("controll", "control"),
    ("roll", "roll"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("probate", "probat"),
    ("syzygy", "syzygi"),
    ("toy", "toi"),
    ("dies", "di"),
]


@pytest.mark.parametrize("word,expected", RULE_CASES)
def test_rule_cases(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    for word in ("a", "is", "as", "by", "go"):
        assert stem(word) == word


def _load_pairs():
    text = resources.files("icrm.data").joinpath("porter-pairs.txt").read_text("utf-8")
    return [tuple(line.split()) for line in text.splitlines() if line]


def test_shipped_pairs_size():
    assert len(_load_pairs()) >= 1000


def test_shipped_pairs_all_agree():
    pairs = _load_pairs()
    mismatched = [(w, stem(w), out) for w, out in pairs if stem(w) != out]
    assert mismatched == []


def test_independent_implementation_agrees_on_pairs():
    # Two structurally different transcriptions of the rule set must match.
    pairs = _load_pairs()
    mismatched = [
        (w, stem(w), reference_stem(w)) for w, _ in pairs if stem(w) != reference_stem(w)
    ]
    assert mismatched == []


def test_independent_implementation_agrees_on_fresh_forms():
    bases = [
        "walk", "move", "carry", "happy", "deny", "suppli", "grate", "probe",
        "control", "refer", "zip", "box", "fix", "index", "tax", "mix",
    ]
    suffixes = [
        "", "s", "es", "ed", "ing", "er", "ly", "ness", "ment", "ation",
        "ative", "ization", "fulness", "ousli", "iviti", "ical", "icate", "ible",
    ]
    for base in bases:
        for suffix in suffixes:
            word = base + suffix
            assert stem(word) == reference_stem(word), word


# Every suffix of the step 1a-4 tables, written out independently of the
# package's own tables, plus the step 1b/1c/5 endings they interact with.
TABLE_SUFFIXES = [
    "sses", "ies", "ss", "s",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "sion", "tion", "ou", "ism", "ate", "iti", "ous",
    "ive", "ize",
    "eed", "ed", "ing", "y", "e", "ll",
]
# Vowels, y, the consonants the tables mention, w and x (which end no
# consonant-vowel-consonant stem), and a digit.
RULE_ALPHABET = "aeiouy" + "".join(
    sorted(set("".join(TABLE_SUFFIXES)) - set("aeiouy"))
) + "wx1"


@given(word=st.text(alphabet=RULE_ALPHABET, max_size=16))
@settings(max_examples=1000, deadline=None)
def test_independent_implementation_agrees_on_random_words(word):
    assert stem(word) == reference_stem(word)


@given(
    base=st.text(alphabet=RULE_ALPHABET, max_size=8),
    suffix=st.sampled_from(TABLE_SUFFIXES),
)
@settings(max_examples=1000, deadline=None)
def test_independent_implementation_agrees_on_suffixed_words(base, suffix):
    word = base + suffix
    assert stem(word) == reference_stem(word)


def test_deterministic():
    assert stem("organization") == stem("organization")
