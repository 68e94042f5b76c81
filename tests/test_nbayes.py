"""Naive Bayes baseline: counting, posterior oracle agreement, decision rule."""

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import event, example, given, settings, strategies as st

from icrm.corpus import HAM, SPAM
from icrm.nbayes import (
    ModelError,
    NaiveBayesClassifier,
    NbModel,
    nb_classify,
    nb_posterior,
    nb_train,
)
from icrm.textprep import preprocess

import nb_reference
from conftest import make_message


def _model(ham_docs, spam_docs):
    """Build a model from lists of feature lists (already preprocessed)."""
    doc_count = {HAM: 0, SPAM: 0}
    feature_doc_count = {HAM: {}, SPAM: {}}
    for label, docs in ((HAM, ham_docs), (SPAM, spam_docs)):
        for doc in docs:
            doc_count[label] += 1
            counts = feature_doc_count[label]
            for f in set(doc):
                counts[f] = counts.get(f, 0) + 1
    return NbModel(doc_count, feature_doc_count)


# Ham documents draw from words 0-4 and spam documents from words 3-7, so
# 0-2 are seen by ham only, 5-7 by spam only; word 8 is never trained on.
_WORDS = [f"nbw{i:03d}" for i in range(9)]
_HAM_DOCS = st.lists(st.lists(st.sampled_from(_WORDS[:5]), max_size=5),
                     min_size=1, max_size=8)
_SPAM_DOCS = st.lists(st.lists(st.sampled_from(_WORDS[3:8]), max_size=5),
                      min_size=1, max_size=8)
_SAMPLE = st.lists(st.sampled_from(_WORDS), max_size=8)


def _posterior_oracle(model, sample):
    """Direct-space evaluation of the decision ratio in exact arithmetic."""
    total = sum(model.doc_count.values())
    scores = {}
    for label in (HAM, SPAM):
        counts = model.feature_doc_count[label]
        denom = len(model.vocabulary) + sum(counts.values())
        prob = Fraction(model.doc_count[label], total)
        for f in sample:
            prob *= Fraction(1 + counts.get(f, 0), denom)
        scores[label] = prob
    return scores[SPAM] / (scores[SPAM] + scores[HAM])


class TestTraining:
    def test_single_ham_document(self):
        model = nb_train([make_message(HAM, body="alpha beta")])
        assert model.doc_count == {HAM: 1, SPAM: 0}
        assert model.feature_doc_count[HAM] == {"alpha": 1, "beta": 1}

    def test_boolean_attributes_count_once(self):
        model = nb_train([make_message(HAM, body="alpha alpha alpha")])
        assert model.feature_doc_count[HAM]["alpha"] == 1

    def test_disjoint_vocabulary_union(self, disjoint_corpus):
        msgs = disjoint_corpus.ham[:100] + disjoint_corpus.spam[:100]
        model = nb_train(msgs)
        ham_features = set(model.feature_doc_count[HAM])
        spam_features = set(model.feature_doc_count[SPAM])
        assert not ham_features & spam_features
        assert model.vocabulary == ham_features | spam_features

    def test_order_invariance(self, disjoint_corpus):
        msgs = disjoint_corpus.ham[:20] + disjoint_corpus.spam[:20]
        forward = nb_train(msgs)
        backward = nb_train(list(reversed(msgs)))
        assert forward == backward

    def test_unknown_label_is_value_error(self):
        msgs = [make_message(HAM, body="alpha"), make_message("junk", body="beta")]
        with pytest.raises(ValueError, match="'junk'"):
            nb_train(msgs)
        with pytest.raises(ValueError, match="'junk'"):
            NaiveBayesClassifier().train(msgs)


def _hex_columns(model):
    """The model's tables as one column per class, each float by ``float.hex``.

    A column is the class's log prior, the term of every feature in the
    table (sorted) and the unseen term: the real parts for ham, the
    imaginary parts for spam.
    """
    prior, table, unseen = model.tables
    return [
        (part(prior).hex(), [(f, part(x).hex()) for f, x in sorted(table.items())],
         None if unseen is None else part(unseen).hex())
        for part in (attrgetter("real"), attrgetter("imag"))
    ]


def _hex_reference_columns(model):
    """``nb_reference.score_tables`` in the same columns, over the vocabulary.

    A vocabulary feature a class has not seen takes that class's unseen term.
    """
    return [
        (prior.hex(), [(f, seen.get(f, unseen).hex()) for f in sorted(model.vocabulary)],
         None if unseen is None else unseen.hex())
        for prior, seen, unseen in nb_reference.score_tables(model)
    ]


# Training sets of (label, body): in the first every class's counts are
# distinct (word i of a class is in i + 1 of its documents, first seen in
# descending order), in the second every count is the same, and the third
# holds no feature (denom == 0).
_TRAINING_SETS = {
    "distinct-counts": [
        (label, " ".join(_WORDS[first + i] for i in reversed(range(j, 5))))
        for label, first in ((HAM, 0), (SPAM, 4))
        for j in range(5)
    ],
    "equal-counts": [(HAM, "nbw000 nbw001 nbw002")] * 3 + [(SPAM, "nbw002 nbw003")] * 3,
    "featureless": [(HAM, ""), (SPAM, ""), (SPAM, "the")],
}


@pytest.mark.parametrize("name", sorted(_TRAINING_SETS))
def test_training_matches_reference_bit_for_bit(name):
    messages = [
        make_message(label, body=body, mid=f"{label}-{i}")
        for i, (label, body) in enumerate(_TRAINING_SETS[name])
    ]
    model = nb_train(messages)
    doc_count, feature_doc_count = nb_reference.nb_train(messages)
    assert dict(model.doc_count) == doc_count
    for label in (HAM, SPAM):
        assert list(model.feature_doc_count[label].items()) == list(
            feature_doc_count[label].items()
        )
    counts = [list(c.values()) for c in feature_doc_count.values()]
    if name == "distinct-counts":
        assert all(len(set(c)) == len(c) == 5 for c in counts)
    elif name == "equal-counts":
        assert {x for c in counts for x in c} == {3}
    else:
        assert counts == [[], []]
        assert model.tables[1:] == ({}, None)  # nothing to smooth: no unseen term
    assert _hex_columns(model) == _hex_reference_columns(model)


class TestPosterior:
    def test_symmetric_model_gives_half(self):
        model = _model([["a"], ["b"]], [["a"], ["b"]])
        assert nb_posterior(model, ["a", "b"]) == pytest.approx(0.5, abs=1e-12)

    def test_spam_only_features_dominate(self):
        model = _model([["a"], ["a"]], [["b"], ["b"]])
        assert nb_posterior(model, ["b"]) > 0.5

    def test_toy_oracle_agreement(self):
        model = _model([["a"], ["a"]], [["b"], ["b"]])
        got = nb_posterior(model, ["a"])
        want = float(_posterior_oracle(model, ["a"]))
        assert got == pytest.approx(want, abs=1e-12)
        assert want == 0.25  # hand arithmetic: (1/4) / (1/4 + 3/4)

    def test_unseen_feature_contributes_smoothed_probability(self):
        model = _model([["a"], ["a"]], [["b"]])
        got = nb_posterior(model, ["zzz"])
        want = float(_posterior_oracle(model, ["zzz"]))
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_sample_reduces_to_priors(self):
        model = _model([["a"]] * 3, [["b"]])
        assert nb_posterior(model, []) == pytest.approx(0.25, abs=1e-12)

    def test_untrained_model_rejected(self):
        with pytest.raises(ModelError):
            nb_posterior(_model([["a"]], []), ["a"])

    @pytest.mark.parametrize("size, low, high", [
        (126, 690.0, 700.0),  # exp(diff) is finite: a tiny positive posterior
        (127, 700.0, 709.0),  # exp(diff) is still finite, but the branch cuts
        (150, 800.0, 900.0),  # exp(diff) would overflow
    ])
    def test_ham_log_odds_above_700_give_exactly_zero(self, size, low, high):
        """Each ham feature is in every one of 1,000 ham documents and in no
        spam document, whose one document holds 20,000 other features; each
        adds about 5.5 to the ham log-odds ``diff``."""
        ham = {f"h{i:03d}": 1000 for i in range(150)}
        spam = {f"s{i:05d}": 1 for i in range(20_000)}
        model = NbModel({HAM: 1000, SPAM: 1}, {HAM: ham, SPAM: spam})
        sample = list(ham)[:size]
        prior, table, _ = model.tables
        diff = prior.real - prior.imag + sum(table[f].real - table[f].imag for f in sample)
        assert low < diff < high
        want = nb_reference.nb_posterior(model, sample)
        assert nb_posterior(model, sample) == want
        assert (want == 0.0) is (diff > 700.0)

    @given(
        ham_docs=st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=5),
            min_size=1, max_size=6,
        ),
        spam_docs=st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=5),
            min_size=1, max_size=6,
        ),
        sample=st.lists(st.sampled_from("abcdez"), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_posterior_properties(self, ham_docs, spam_docs, sample):
        model = _model(ham_docs, spam_docs)
        p_spam = nb_posterior(model, sample)
        assert 0.0 < p_spam < 1.0
        # two-class complement via the mirrored model
        mirrored = NbModel(
            doc_count={HAM: model.doc_count[SPAM], SPAM: model.doc_count[HAM]},
            feature_doc_count={
                HAM: model.feature_doc_count[SPAM],
                SPAM: model.feature_doc_count[HAM],
            },
        )
        assert p_spam + nb_posterior(mirrored, sample) == pytest.approx(1.0, abs=1e-12)
        # log-space result agrees with exact direct-space evaluation
        assert p_spam == pytest.approx(
            float(_posterior_oracle(model, sample)), abs=1e-9
        )


class TestScoringTables:
    """The table posterior against the per-message loop it replaced."""

    @given(ham_docs=_HAM_DOCS, spam_docs=_SPAM_DOCS, sample=_SAMPLE)
    @example(ham_docs=[[]], spam_docs=[[], []], sample=["nbw000"])  # denom == 0
    @settings(max_examples=300, deadline=None)
    def test_helper_model_matches_reference_bit_for_bit(self, ham_docs, spam_docs, sample):
        model = _model(ham_docs, spam_docs)
        want = nb_reference.nb_posterior(model, sample)
        assert nb_posterior(model, sample) == want
        assert nb_posterior(model, iter(sample)) == want
        assert nb_posterior(model, (feature for feature in sample)) == want

    @given(ham_docs=_HAM_DOCS, spam_docs=_SPAM_DOCS, sample=_SAMPLE)
    @example(ham_docs=[[]], spam_docs=[[], []], sample=["nbw000"])  # denom == 0
    @settings(max_examples=150, deadline=None)
    def test_trained_model_matches_reference_bit_for_bit(self, ham_docs, spam_docs, sample):
        messages = [
            make_message(label, body=" ".join(doc))
            for label, docs in ((HAM, ham_docs), (SPAM, spam_docs))
            for doc in docs
        ]
        model = nb_train(messages)
        features = preprocess(make_message(body=" ".join(sample)))
        want = nb_reference.nb_posterior(model, features)
        assert nb_posterior(model, features) == want
        assert nb_posterior(model, iter(features)) == want

    @given(
        ham_docs=_HAM_DOCS,
        spam_docs=_SPAM_DOCS,
        ham_only=st.lists(st.sampled_from(_WORDS[:3]), min_size=1, max_size=3),
        spam_only=st.lists(st.sampled_from(_WORDS[5:8]), min_size=1, max_size=3),
        unseen=st.lists(st.sampled_from([_WORDS[8], "nbw999", ""]), min_size=1, max_size=3),
        repeats=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_kind_of_feature_matches_reference_bit_for_bit(
        self, ham_docs, spam_docs, ham_only, spam_only, unseen, repeats, data
    ):
        # the one-class features are trained on, so each is seen by its class only
        model = _model(ham_docs + [ham_only], spam_docs + [spam_only])
        assert not set(ham_only) & set(model.feature_doc_count[SPAM])
        assert not set(spam_only) & set(model.feature_doc_count[HAM])
        assert not set(unseen) & model.vocabulary
        sample = data.draw(st.permutations((ham_only + spam_only + unseen) * repeats))
        want = nb_reference.nb_posterior(model, sample)
        assert nb_posterior(model, sample) == want
        assert nb_posterior(model, iter(sample)) == want
        assert nb_posterior(model, (feature for feature in sample)) == want

    def test_iterator_sample_is_read_once_for_both_classes(self):
        model = _model([["a"], ["a"]], [["b"], ["b"]])
        want = nb_posterior(model, ["b", "b"])
        assert want == pytest.approx(0.9, abs=1e-12)
        assert nb_posterior(model, iter(["b", "b"])) == want
        assert nb_posterior(model, (f for f in "bb")) == want

    def test_counts_are_read_only_copies(self):
        doc_count = {HAM: 1, SPAM: 1}
        feature_doc_count = {HAM: {"a": 1}, SPAM: {"b": 1}}
        model = NbModel(doc_count, feature_doc_count)
        before = nb_posterior(model, ["a", "c"])
        doc_count[HAM] = 5
        feature_doc_count[HAM]["c"] = 1
        assert model.doc_count == {HAM: 1, SPAM: 1}
        assert model.vocabulary == {"a", "b"}
        assert nb_posterior(model, ["a", "c"]) == before
        with pytest.raises(TypeError):
            model.feature_doc_count[HAM]["a"] = 7
        with pytest.raises(TypeError):
            model.doc_count[SPAM] = 7
        with pytest.raises(FrozenInstanceError):
            model.doc_count = {HAM: 3, SPAM: 3}


class TestClassify:
    def test_tie_goes_to_ham(self):
        model = _model([["a"]], [["a"]])
        assert nb_classify(model, make_message(HAM, body="alpha")) == HAM

    def test_empty_sample_equal_priors_is_ham(self):
        model = _model([["a"]], [["b"]])
        assert nb_classify(model, make_message(HAM, body="")) == HAM

    def test_spam_vocabulary_message(self, disjoint_corpus):
        clf = NaiveBayesClassifier()
        clf.train(disjoint_corpus.ham[:50] + disjoint_corpus.spam[:50])
        assert clf.classify(disjoint_corpus.spam[60]) == SPAM
        assert clf.classify(disjoint_corpus.ham[60]) == HAM

    def test_untrained_classifier_rejected(self):
        with pytest.raises(ModelError):
            NaiveBayesClassifier().classify(make_message(HAM, body="alpha"))

    def test_a_cap_above_1000_is_refused(self):
        """The classifier reads the cap's one range row."""
        with pytest.raises(ValueError, match="^n must be <= 1000, got 1002$"):
            NaiveBayesClassifier(n=1002)

    @pytest.mark.parametrize("n, text", [
        pytest.param(3, "n must be a multiple of 2, got 3", id="odd-n"),
        pytest.param(50.0, "n must be an integer, got 50.0", id="float-n"),
        pytest.param(True, "n must be an integer, got True", id="bool-n"),
        pytest.param("50", "n must be an integer, got '50'", id="string-n"),
        pytest.param(None, "n must be an integer, got None", id="missing-n"),
        pytest.param(0, "n must be >= 2, got 0", id="n-below-2"),
    ])
    def test_a_cap_outside_its_range_is_refused(self, n, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            NaiveBayesClassifier(n=n)


class TestCountsCheckThemselves:
    """``NbModel`` refuses, when it is made, every count training could not
    give, so any model it accepts builds the reference's tables."""

    # counts of each kind a caller could hold, about half of them plain
    # small ones
    _COUNTS = st.one_of(
        st.integers(1, 3),
        st.integers(-1, 4),
        st.sampled_from([2**63 - 1, 2**63, 1.0, 2.5, True, False, None, "1"]),
    )
    _FEATURE_COUNTS = st.dictionaries(st.text(max_size=3), _COUNTS, max_size=4)

    @staticmethod
    def _valid(doc_count, feature_doc_count) -> bool:
        def count(c):
            return type(c) is int and 0 <= c < 2**63
        return all(map(count, doc_count.values())) and all(
            count(c) and 1 <= c <= doc_count[label]
            for label, counts in feature_doc_count.items() for c in counts.values()
        )

    @staticmethod
    def _has_reference_tables(model) -> bool:
        if model.tables is None:
            return nb_reference.score_tables(model) is None
        return _hex_columns(model) == _hex_reference_columns(model)

    @given(doc_count=st.fixed_dictionaries({HAM: _COUNTS, SPAM: _COUNTS}),
           feature_doc_count=st.fixed_dictionaries(
               {HAM: _FEATURE_COUNTS, SPAM: _FEATURE_COUNTS}))
    @settings(max_examples=500, deadline=None)
    @example(doc_count={HAM: 2**63 - 1, SPAM: 2**63 - 1},
             feature_doc_count={HAM: {"a": 2**63 - 1}, SPAM: {"": 1}})
    def test_any_counts_it_accepts_build_the_reference_tables(
        self, doc_count, feature_doc_count
    ):
        try:
            model = NbModel(doc_count, feature_doc_count)
        except ValueError:
            event("refused")
            assert not self._valid(doc_count, feature_doc_count)
            return
        event("accepted")
        assert self._valid(doc_count, feature_doc_count)
        assert self._has_reference_tables(model)

    @pytest.mark.parametrize("mutate, text", [
        pytest.param(lambda s: s["feature_doc_count"][SPAM].update(beta=0),
                     "spam feature counts must be in [1, doc_count 1]", id="zero-count"),
        pytest.param(lambda s: s["feature_doc_count"][HAM].update(alpha=2),
                     "ham feature counts must be in [1, doc_count 1]",
                     id="count-above-doc-count"),
        pytest.param(lambda s: s["feature_doc_count"][HAM].update(alpha=1.0),
                     "counts must be integers in [0, 2**63), got 1.0", id="float-count"),
        pytest.param(lambda s: s["feature_doc_count"][SPAM].update(beta=True),
                     "counts must be integers in [0, 2**63), got True", id="bool-count"),
        pytest.param(lambda s: s["feature_doc_count"][SPAM].update(beta=-1),
                     "counts must be integers in [0, 2**63), got -1", id="negative-count"),
        pytest.param(lambda s: s["doc_count"].update(ham=-1),
                     "counts must be integers in [0, 2**63), got -1",
                     id="negative-doc-count"),
        pytest.param(lambda s: s["doc_count"].update(ham=2**63),
                     f"counts must be integers in [0, 2**63), got {2**63}",
                     id="doc-count-too-large"),
        pytest.param(lambda s: s["doc_count"].update(other=1),
                     "expected one entry per label ('ham', 'spam'), got "
                     "['ham', 'other', 'spam']", id="third-label"),
        pytest.param(lambda s: s["feature_doc_count"].update(other={}),
                     "expected one entry per label ('ham', 'spam'), got "
                     "['ham', 'other', 'spam']", id="third-label-of-features"),
        pytest.param(lambda s: s["feature_doc_count"][HAM].update(alpha="x"),
                     "counts must be integers in [0, 2**63), got 'x'", id="count-x"),
        pytest.param(lambda s: s["feature_doc_count"][SPAM].update(beta=None),
                     "counts must be integers in [0, 2**63), got None", id="none-count"),
        pytest.param(lambda s: s["feature_doc_count"][HAM].update(alpha=2**63),
                     f"counts must be integers in [0, 2**63), got {2**63}",
                     id="count-too-large"),
        pytest.param(lambda s: s["doc_count"].update(ham=10**400),
                     f"counts must be integers in [0, 2**63), got {10**400}",
                     id="huge-count"),
        pytest.param(lambda s: s["doc_count"].update(spam=0),
                     "spam feature counts must be in [1, doc_count 0]",
                     id="count-without-documents"),
        pytest.param(lambda s: s.update(doc_count=[1, 2]),
                     "expected one entry per label ('ham', 'spam'), got [1, 2]",
                     id="doc-count-list"),
        pytest.param(lambda s: s["doc_count"].pop(SPAM),
                     "expected one entry per label ('ham', 'spam'), got ['ham']",
                     id="doc-count-missing-class"),
        pytest.param(lambda s: s["feature_doc_count"].pop(HAM),
                     "expected one entry per label ('ham', 'spam'), got ['spam']",
                     id="features-missing-class"),
    ])
    def test_a_count_is_refused_when_made_with_its_text(self, mutate, text):
        counts = {"doc_count": {HAM: 1, SPAM: 1},
                  "feature_doc_count": {HAM: {"alpha": 1, "gamma": 1}, SPAM: {"beta": 1}}}
        NbModel(**counts)
        mutate(counts)
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            NbModel(**counts)

    @pytest.mark.parametrize("feature", [7, 1.5, True, None])
    def test_a_feature_that_is_not_a_string_is_refused_when_made(self, feature):
        with pytest.raises(ValueError, match="^features must be a list of strings$"):
            NbModel({HAM: 1, SPAM: 1}, {HAM: {feature: 1}, SPAM: {"b": 1}})

    @given(features=st.lists(st.text(max_size=3) | st.integers(), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_any_features_it_accepts_build_the_reference_tables(self, features):
        """A model is made exactly when every feature is a string, and then
        it builds the reference's tables."""
        feature_doc_count = {HAM: dict.fromkeys(features[::2], 1),
                             SPAM: dict.fromkeys(features[1::2], 1)}
        try:
            model = NbModel({HAM: 1, SPAM: 1}, feature_doc_count)
        except ValueError:
            event("refused")
            assert not all(type(f) is str for f in features)
            return
        event("accepted")
        assert all(type(f) is str for f in features)
        assert self._has_reference_tables(model)
