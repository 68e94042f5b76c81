"""Tokenizer and feature-sampling behaviour."""

import dataclasses
import pickle
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icrm import textprep
from icrm.corpus import Dataset, write_canonical
from icrm.textprep import SAMPLERS, default_stopwords, preprocess, tokenize
from icrm.porter import stem

import textprep_reference
from conftest import make_message


class TestTokenize:
    def test_empty(self):
        assert tokenize("", "") == []

    def test_lowercase_order_duplicates(self):
        assert tokenize("Hello", "world WORLD") == ["hello", "world", "world"]

    def test_strips_surrounding_punctuation(self):
        assert tokenize("Buy <cheap> viagra!!", "") == ["buy", "cheap", "viagra"]

    def test_markup_treated_as_words(self):
        # <br> dies on the length filter, <table> survives without brackets
        assert tokenize("", "<br> <table>") == ["table"]

    def test_short_tokens_dropped(self):
        assert tokenize("an ox it", "to be or not") == ["not"]

    def test_subject_precedes_body(self):
        assert tokenize("first", "second") == ["first", "second"]

    def test_inner_punctuation_kept(self):
        assert tokenize("", "don't e-mail") == ["don't", "e-mail"]


class TestPreprocess:
    def test_below_cap_keeps_all(self):
        msg = make_message(body="alpha beta gamma delta")
        assert preprocess(msg, n=50) == ["alpha", "beta", "gamma", "delta"]

    def test_first_last_rule(self):
        # 100 distinct stems, cap 50: first 25 plus last 25 survive
        words = [f"wordx{i:03d}" for i in range(100)]
        msg = make_message(body=" ".join(words))
        sample = preprocess(msg, n=50)
        assert sample == [stem(w) for w in words[:25] + words[75:]]

    def test_uniqueness_over_stems(self):
        msg = make_message(body="running runner runs")
        assert preprocess(msg, n=50) == ["run", "runner"]

    def test_stopwords_removed_before_stemming(self):
        msg = make_message(body="doing nothing useful walking")
        # 'doing', 'nothing', 'useful' are stopwords; only 'walking' survives
        assert preprocess(msg, n=50) == ["walk"]

    def test_odd_cap_rejected(self):
        with pytest.raises(ValueError):
            preprocess(make_message(body="alpha"), n=7)

    def test_custom_stopword_set(self):
        msg = make_message(body="alpha beta")
        assert preprocess(msg, n=50, stopwords=frozenset({"alpha"})) == ["beta"]

    def test_idempotent_and_deterministic(self):
        msg = make_message(subject="Offers galore", body="click here buy buying now!")
        assert preprocess(msg, n=50) == preprocess(msg, n=50)

    def test_random_sampler_ablation_mode(self):
        import numpy as np

        words = [f"wordx{i:03d}" for i in range(30)]
        msg = make_message(body=" ".join(words))
        sample = preprocess(msg, n=10, sampler="random", rng=np.random.default_rng(3))
        assert len(sample) == 10
        assert set(sample) <= {stem(w) for w in words}
        # document order is preserved within the draw
        positions = [stem(w) for w in words]
        assert sample == sorted(sample, key=positions.index)
        # deterministic under a fixed generator seed
        again = preprocess(msg, n=10, sampler="random", rng=np.random.default_rng(3))
        assert sample == again
        # below the cap no draw happens at all
        short = make_message(body="alpha beta gamma")
        assert preprocess(short, n=10, sampler="random", rng=None) == [
            "alpha", "beta", "gamma",
        ]

    def test_random_sampler_requires_rng(self):
        words = " ".join(f"wordx{i:03d}" for i in range(30))
        with pytest.raises(ValueError):
            preprocess(make_message(body=words), n=10, sampler="random")
        with pytest.raises(ValueError):
            preprocess(make_message(body=words), n=10, sampler="bogus")


words_strategy = st.lists(
    st.text(alphabet=string.ascii_letters + "<>!.,'-", min_size=1, max_size=12),
    max_size=60,
)


@given(subject=words_strategy, body=words_strategy, n=st.sampled_from([2, 4, 10, 50]))
@settings(max_examples=150, deadline=None)
def test_sample_invariants(subject, body, n):
    msg = make_message(subject=" ".join(subject), body=" ".join(body))
    sample = preprocess(msg, n=n)
    assert len(sample) <= n
    assert len(set(sample)) == len(sample)


@given(body=words_strategy)
@settings(max_examples=100, deadline=None)
def test_no_short_or_stopword_tokens_feed_samples(body):
    # Rebuild the pre-stemming token stream: every sampled stem must come
    # from a token of length >= 3 that is not a stopword.
    msg = make_message(body=" ".join(body))
    stopwords = default_stopwords()
    allowed = {
        stem(t) for t in tokenize(msg.subject, msg.body) if t not in stopwords
    }
    assert set(preprocess(msg, n=50)) <= allowed


# -- the per-message sample memo ------------------------------------------

_VOCAB = [f"wordx{i:03d}" for i in range(80)] + ["the", "about", "running", "runs"]
_CUSTOM_STOPWORDS = frozenset(_VOCAB[::3])


@given(
    words=st.lists(st.sampled_from(_VOCAB), max_size=150),
    calls=st.lists(
        st.tuples(
            st.sampled_from([2, 10, 50]),
            st.sampled_from(["default", "custom", "plain"]),
            st.sampled_from(SAMPLERS),
        ),
        min_size=1,
        max_size=10,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_memo_matches_memo_free_oracle(words, calls, seed):
    msg = make_message(subject=" ".join(words[:5]), body=" ".join(words[5:]))
    plain = set(_VOCAB[1::4])  # a mutable set, grown after every use by a word of msg
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    for step, (n, which, sampler) in enumerate(calls):
        stopwords = {"default": None, "custom": _CUSTOM_STOPWORDS, "plain": plain}[which]
        got = preprocess(msg, n, stopwords, sampler=sampler, rng=rng)
        full = default_stopwords() if stopwords is None else stopwords
        want = textprep_reference.sample(msg.subject, msg.body, n, full, sampler, oracle_rng)
        assert got == want
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        got.append("mutated")  # a caller's list is its own
        got.reverse()
        if which == "plain":
            plain.add(next((w for w in words if w not in plain), "none"))


def _count_tokenize(monkeypatch):
    calls = []
    real = textprep.tokenize

    def counted(subject, body):
        calls.append(subject)
        return real(subject, body)

    monkeypatch.setattr(textprep, "tokenize", counted)
    return calls


def test_memo_tokenizes_once_per_setting(monkeypatch):
    calls = _count_tokenize(monkeypatch)
    msg = make_message(body=" ".join(_VOCAB))
    first = preprocess(msg, n=10)
    assert preprocess(msg, n=10) == first
    assert len(calls) == 1
    preprocess(msg, n=50)  # a new setting replaces the memo ...
    preprocess(msg, n=10)  # ... so the old one is computed again
    assert len(calls) == 3
    preprocess(msg, n=10, sampler="random", rng=np.random.default_rng(0))
    assert len(calls) == 4  # the random sampler never reads the memo


def test_the_memo_is_keyed_by_the_stopwords_object(monkeypatch):
    """None hits None and the shipped frozenset hits itself; an equal
    frozenset computes once, then hits itself; a mutable set computes on
    every call and stores no memo, so a change after its call is seen."""
    calls = _count_tokenize(monkeypatch)
    msg = make_message(body=" ".join(_VOCAB))
    first = preprocess(msg, n=10)
    assert preprocess(msg, n=10, stopwords=None) == first
    assert len(calls) == 1
    shipped = default_stopwords()
    assert preprocess(msg, n=10, stopwords=shipped) == first
    assert preprocess(msg, n=10, stopwords=shipped) == first
    assert len(calls) == 2
    equal = frozenset(sorted(shipped))  # frozenset(shipped) is shipped itself
    assert equal == shipped and equal is not shipped
    assert preprocess(msg, n=10, stopwords=equal) == first
    assert preprocess(msg, n=10, stopwords=equal) == first
    assert len(calls) == 3
    plain = set(shipped)
    assert preprocess(msg, n=10, stopwords=plain) == first
    assert preprocess(msg, n=10, stopwords=plain) == first
    assert len(calls) == 5
    assert preprocess(msg, n=10, stopwords=equal) == first  # plain stored nothing
    assert len(calls) == 5
    plain.add("wordx000")
    assert preprocess(msg, n=10, stopwords=plain) == textprep_reference.sample(
        msg.subject, msg.body, 10, plain)
    assert len(calls) == 6
    other = frozenset({"wordx001"})
    assert preprocess(msg, n=10, stopwords=other) == textprep_reference.sample(
        msg.subject, msg.body, 10, other)
    assert len(calls) == 7


def test_equal_messages_do_not_share_a_memo(monkeypatch):
    calls = _count_tokenize(monkeypatch)
    a = make_message(body="alpha beta gamma")
    b = make_message(body="alpha beta gamma")
    assert a == b and a is not b
    preprocess(a, n=10)
    preprocess(a, n=10)
    preprocess(b, n=10)
    assert len(calls) == 2


def test_invalid_settings_raise_with_a_memo():
    msg = make_message(body=" ".join(_VOCAB))
    preprocess(msg, n=10)
    for bad in (7, 0, 10.0, True):
        with pytest.raises(ValueError):
            preprocess(msg, n=bad)
    with pytest.raises(ValueError):
        preprocess(msg, n=10, sampler="bogus")
    with pytest.raises(ValueError):
        preprocess(msg, n=10, sampler="random")  # no generator


def test_a_cap_above_1000_is_refused_with_or_without_a_memo():
    """The cap's row in ``icrm.ranges.RANGES`` bounds it at 1000 for every
    caller, the memo's own check included; the refusal names the setting."""
    msg = make_message(body=" ".join(_VOCAB))
    with pytest.raises(ValueError, match="^n must be <= 1000, got 1002$"):
        preprocess(msg, n=1002)
    preprocess(msg, n=10)  # now the message holds a memo
    with pytest.raises(ValueError, match="^n must be <= 1000, got 1002$"):
        preprocess(msg, n=1002)
    with pytest.raises(ValueError, match="^feature_sampler must be one of "):
        preprocess(msg, n=10, sampler="bogus")


def test_memo_leaves_value_semantics_alone(tmp_path):
    msg = make_message(subject="cheap offer", body=" ".join(_VOCAB))
    twin = dataclasses.replace(msg)
    before = (repr(msg), hash(msg), dataclasses.asdict(msg))
    write_canonical(Dataset("d", ham=[msg]), tmp_path / "before.jsonl")
    sample = preprocess(msg, n=10)
    assert msg == twin
    assert (repr(msg), hash(msg), dataclasses.asdict(msg)) == before
    write_canonical(Dataset("d", ham=[msg]), tmp_path / "after.jsonl")
    assert (tmp_path / "after.jsonl").read_bytes() == (tmp_path / "before.jsonl").read_bytes()
    copy = pickle.loads(pickle.dumps(msg))
    assert copy == msg
    assert preprocess(copy, n=10) == sample
    assert preprocess(copy, n=50) == preprocess(twin, n=50)


# -- the one-split front end against the token-at-a-time reference -------

# Characters at the edges of the tokenizer contract: whitespace that only
# str.split knows (information separators, NEL, line separator,
# ideographic space), "_", Greek capital sigma (lowercased by context),
# dotted capital I (lowercased to two characters), combining marks, and
# numerics that are alphanumeric without being ASCII digits.
_EDGE_CHARS = (
    "\x1c\x1d\x1e\x1f\x85\u2028\u3000 \t_'.-<>!"
    "\u03a3\u03c3\u03c2\u0391\u0130\u0131\u0301\u0307\u00b2\u0663\u00bdaZy"
)
_CHARS = st.one_of(st.characters(), st.sampled_from(_EDGE_CHARS))
_REPEATS = [
    "Runs", "running", "RUN", "ΣΑΣ", "σας", "the", "About", "x²y", "__init__",
    "e\u0301te\u0301", "İstanbul", "٣٣٣",
]
_TEXT = st.one_of(
    st.text(_CHARS, max_size=60),
    st.lists(st.text(_CHARS, min_size=1, max_size=8), max_size=30).map(" ".join),
    st.lists(st.sampled_from(_REPEATS), max_size=30).map(" ".join),
)

PINNED = [
    pytest.param("alpha\x1cbeta\x1dgamma", "delta\x1eepsilon\x1fzeta", id="info-separators"),
    pytest.param("one\x85two", "three\u2028four\u3000five", id="nel-ls-ideographic"),
    pytest.param("__init__", "snake_case ___ _abc_ a_b", id="underscore"),
    pytest.param("ΣΑΣ", "ΟΔΟΣ. ΣΑΣ's (ΣΑΣ) ΑΣΑ", id="final-sigma"),
    pytest.param("İstanbul İİİ", "e\u0301te\u0301 \u0301\u0301abc\u0301 caf\u0301", id="dotted-i-combining"),
    pytest.param("x²y ²²²", "٣٣٣ abc٣ ½½½ Ⅻ", id="numerics"),
]


@pytest.mark.parametrize("subject, body", PINNED)
def test_front_end_matches_reference_on_edges(subject, body):
    stopwords = default_stopwords()
    assert tokenize(subject, body) == textprep_reference.tokenize(subject, body)
    assert textprep._distinct_stems(make_message(subject=subject, body=body), stopwords) == (
        textprep_reference.distinct_stems(subject, body, stopwords)
    )
    for n in (2, 4, 50):
        assert preprocess(make_message(subject=subject, body=body), n=n) == (
            textprep_reference.sample(subject, body, n, stopwords)
        )


def test_edge_tokens():
    assert tokenize("a\x1cbcd\u3000efg", "hij\x85klm\u2028nop") == [
        "bcd", "efg", "hij", "klm", "nop",
    ]
    assert tokenize("__init__", "_abc_ snake_case") == ["init", "abc", "snake_case"]
    assert tokenize("ΣΑΣ", "ΣΑΣ.") == ["σας", "σας"]
    assert tokenize("", "İİİ x²y ٣٣٣") == ["i\u0307i\u0307i", "x²y", "٣٣٣"]


@given(subject=_TEXT, body=_TEXT)
@settings(max_examples=400, deadline=None)
def test_front_end_matches_reference(subject, body):
    stopwords = default_stopwords()
    assert tokenize(subject, body) == textprep_reference.tokenize(subject, body)
    assert textprep._distinct_stems(make_message(subject=subject, body=body), stopwords) == (
        textprep_reference.distinct_stems(subject, body, stopwords)
    )


@given(
    subject=_TEXT, body=_TEXT, n=st.sampled_from([2, 4, 10, 50]), every=st.integers(1, 4)
)
@settings(max_examples=300, deadline=None)
def test_preprocess_matches_reference(subject, body, n, every):
    # stopwords drawn from the message itself, so some tokens always drop
    stopwords = frozenset(textprep_reference.tokenize(subject, body)[::every])
    msg = make_message(subject=subject, body=body)
    want = textprep_reference.sample(subject, body, n, stopwords)
    assert preprocess(msg, n=n, stopwords=stopwords) == want
    assert preprocess(msg, n=n, stopwords=stopwords) == want  # from the memo
