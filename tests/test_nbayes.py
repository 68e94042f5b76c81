"""Naive Bayes baseline: counting, posterior oracle agreement, decision rule."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icrm.corpus import HAM, SPAM
from icrm.nbayes import (
    ModelError,
    NaiveBayesClassifier,
    NbModel,
    nb_classify,
    nb_posterior,
    nb_train,
)

from conftest import make_message


def _model(ham_docs, spam_docs):
    """Build a model from lists of feature lists (already preprocessed)."""
    model = NbModel()
    for label, docs in ((HAM, ham_docs), (SPAM, spam_docs)):
        for doc in docs:
            model.doc_count[label] += 1
            for f in set(doc):
                model.feature_doc_count[label][f] = (
                    model.feature_doc_count[label].get(f, 0) + 1
                )
                model.vocabulary.add(f)
    return model


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
            vocabulary=model.vocabulary,
        )
        assert p_spam + nb_posterior(mirrored, sample) == pytest.approx(1.0, abs=1e-12)
        # log-space result agrees with exact direct-space evaluation
        assert p_spam == pytest.approx(
            float(_posterior_oracle(model, sample)), abs=1e-9
        )


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


class TestPersistence:
    def test_round_trip(self, tmp_path, disjoint_corpus):
        clf = NaiveBayesClassifier()
        clf.train(disjoint_corpus.ham[:30] + disjoint_corpus.spam[:30])
        path = tmp_path / "nb.json"
        clf.save(path)
        again = NaiveBayesClassifier.load(path)
        assert again.model == clf.model
        probe = disjoint_corpus.ham[30:40] + disjoint_corpus.spam[30:40]
        assert [again.classify(m) for m in probe] == [clf.classify(m) for m in probe]

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda s: s.pop("n"), id="missing-n"),
        pytest.param(lambda s: s.update(n=3), id="odd-n"),
        pytest.param(lambda s: s["feature_doc_count"][HAM].update(alpha="x"), id="count-x"),
        pytest.param(lambda s: s["feature_doc_count"][SPAM].update(beta=-1),
                     id="negative-count"),
        pytest.param(lambda s: s.update(doc_count=[1, 2]), id="doc-count-list"),
        pytest.param(lambda s: s["doc_count"].pop(SPAM), id="doc-count-missing-class"),
        pytest.param(lambda s: s.update(n=50.0), id="float-n"),
        pytest.param(lambda s: s.update(vocabulary="abc"), id="vocabulary-string"),
        pytest.param(lambda s: s.update(vocabulary=["alpha", 7]), id="vocabulary-int"),
        pytest.param(lambda s: s["doc_count"].update(ham=2.5), id="float-count"),
        pytest.param(lambda s: s["doc_count"].update(ham=10**400), id="huge-count"),
    ])
    def test_malformed_file_is_model_error(self, tmp_path, mutate):
        clf = NaiveBayesClassifier()
        clf.model = _model([["alpha", "gamma"]], [["beta"]])
        path = tmp_path / "nb.json"
        clf.save(path)
        state = json.loads(path.read_text(encoding="utf-8"))
        mutate(state)
        path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(ModelError):
            NaiveBayesClassifier.load(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "icrm-state", "version": 1}', encoding="utf-8")
        with pytest.raises(ModelError):
            NaiveBayesClassifier.load(path)
