"""The array bind/interact kernel against the scalar reference, bit for bit.

Every comparison is ``==`` on floats: the kernel makes the same generator
calls in the same order and sums each feature's gains in slot order, so
there is no rounding difference to tolerate.
"""

import numpy as np
import pytest

import icrm.model
import model_reference as ref
from icrm.corpus import HAM, SPAM
from icrm.model import (
    BIND_E,
    BIND_EMPTY,
    BIND_R,
    IcrmClassifier,
    IcrmConfig,
    SlotArray,
    TEST,
    build_slot_array,
    interact,
    process_message,
)
from icrm.synth import synthetic_dataset

from conftest import make_message


def _random_repertoire(rng, n_features):
    """Populations from 0 to 30; about one feature in five is extinct."""
    rep = {}
    for i in range(n_features):
        if rng.random() < 0.2:
            rep[f"w{i}"] = (0.0, 0.0)
        else:
            rep[f"w{i}"] = (float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
    return rep


@pytest.mark.parametrize("death_rate", [0.0, 0.05])
@pytest.mark.parametrize("n_a", [1, 3, 10])
def test_bind_and_interact_match_reference(n_a, death_rate):
    cfg = IcrmConfig(n_a=n_a, proliferation=0.37, death_rate=death_rate)
    rng = np.random.default_rng(1000 * n_a + int(death_rate * 100))
    for _ in range(300):
        rep = _random_repertoire(rng, int(rng.integers(1, 40)))
        k = int(rng.integers(0, len(rep) + 1))
        sample = [f"w{i}" for i in rng.permutation(len(rep))[:k]]
        seed = int(rng.integers(2**32))

        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = build_slot_array(sample, rep, cfg, fast_rng)
        expected = ref.build_slot_array(sample, rep, cfg, ref_rng)
        assert fast.features == expected.features
        assert fast.bound.tolist() == expected.bound
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

        fast_rep, ref_rep = dict(rep), dict(rep)
        interact(fast_rep, fast, cfg)
        ref.interact(ref_rep, expected, cfg)
        assert fast_rep == ref_rep
        assert list(fast_rep) == list(ref_rep)


def test_one_feature_sample_matches_reference():
    cfg = IcrmConfig(n_a=7)
    for seed in range(50):
        rep = {"only": (6.0, 5.0)}
        fast = build_slot_array(["only"], rep, cfg, np.random.default_rng(seed))
        expected = ref.build_slot_array(["only"], rep, cfg, np.random.default_rng(seed))
        assert fast.bound.tolist() == expected.bound
        fast_rep, ref_rep = dict(rep), dict(rep)
        interact(fast_rep, fast, cfg)
        ref.interact(ref_rep, expected, cfg)
        assert fast_rep == ref_rep


def test_repeated_sample_features_match_reference():
    cfg = IcrmConfig(n_a=3)
    rep = {"a": (2.0, 1.0), "b": (0.0, 0.0), "c": (1.0, 4.0)}
    sample = ["a", "b", "a", "c", "a"]
    fast = build_slot_array(sample, rep, cfg, np.random.default_rng(5))
    expected = ref.build_slot_array(sample, rep, cfg, np.random.default_rng(5))
    assert fast.features == expected.features
    assert fast.bound.tolist() == expected.bound


@pytest.mark.parametrize("death_rate", [0.0, 0.3])
def test_hand_built_slot_arrays_match_reference(death_rate):
    # repeated features, odd lengths and every binding code, as the
    # interaction-law tests build them
    rng = np.random.default_rng(77)
    for _ in range(2000):
        rep = _random_repertoire(rng, int(rng.integers(1, 6)))
        names = list(rep)
        n_slots = int(rng.integers(0, 15))
        features = [names[int(rng.integers(len(names)))] for _ in range(n_slots)]
        bound = [int(rng.integers(0, 3)) for _ in range(n_slots)]
        cfg = IcrmConfig(
            proliferation=float(rng.uniform(0.001, 3.0)), death_rate=death_rate
        )
        fast_rep, ref_rep = dict(rep), dict(rep)
        interact(fast_rep, SlotArray(features, bound), cfg)
        ref.interact(ref_rep, ref.SlotArray(features, bound), cfg)
        assert fast_rep == ref_rep


def test_hand_built_slot_array_round_trips():
    features = ["f", "g", "f", "h", "g"]
    bound = [BIND_E, BIND_R, BIND_EMPTY, BIND_E, BIND_E]
    slots = SlotArray(features, bound)
    assert slots.keys == ["f", "g", "h"]
    assert slots.index.tolist() == [0, 1, 0, 2, 1]
    assert slots.features == features
    assert slots.bound.tolist() == bound
    assert len(slots) == 5
    assert slots == SlotArray(list(features), list(bound))
    with pytest.raises(ValueError):
        SlotArray(["f", "g"], [BIND_E])
    with pytest.raises(ValueError):
        SlotArray(["f"], [3])


def _classify_all(seed, sampler, death_rate, patch):
    data = synthetic_dataset(
        n_ham=120, n_spam=120, vocab_per_class=60, shared_vocab=40, seed=3,
        words_per_message=(20, 120),
    )
    with pytest.MonkeyPatch.context() as mp:
        if patch:
            mp.setattr(icrm.model, "build_slot_array", ref.build_slot_array)
            mp.setattr(icrm.model, "interact", ref.interact)
        clf = IcrmClassifier(
            IcrmConfig(seed=seed, death_rate=death_rate), sampler=sampler
        )
        train = [m for pair in zip(data.ham[:80], data.spam[:80]) for m in pair]
        clf.train(train)
        scores = [clf.verdict(m).score for m in data.ham[80:] + data.spam[80:]]
    return clf.repertoire, scores


@pytest.mark.parametrize(
    "sampler, death_rate", [("first-last", 0.0), ("first-last", 0.01), ("random", 0.0)]
)
def test_classifier_matches_reference(sampler, death_rate):
    fast_rep, fast_scores = _classify_all(9, sampler, death_rate, patch=False)
    ref_rep, ref_scores = _classify_all(9, sampler, death_rate, patch=True)
    assert fast_scores == ref_scores
    assert fast_rep == ref_rep


def test_process_message_calls_bind_and_interact_once(monkeypatch):
    calls = {"build_slot_array": 0, "interact": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        icrm.model, "build_slot_array", counted("build_slot_array", build_slot_array)
    )
    monkeypatch.setattr(icrm.model, "interact", counted("interact", interact))
    rng = np.random.default_rng(0)
    rep = {}
    messages = [
        make_message(HAM, body="meeting agenda notes"),
        make_message(SPAM, body=""),
        make_message(SPAM, body="cheap pills offer now"),
    ]
    for count, msg in enumerate(messages, start=1):
        process_message(rep, msg, TEST, IcrmConfig(), rng)
        assert calls == {"build_slot_array": count, "interact": count}
