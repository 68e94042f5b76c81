"""The array bind/interact kernel against the scalar reference, bit for bit.

Every comparison is ``==`` on floats: the kernel makes the same generator
calls in the same order and sums each feature's gains in slot order, so
there is no rounding difference to tolerate. Where the sign of a zero
matters, floats are compared by ``float.hex``.
"""

import copy
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import icrm.model
import model_reference as ref
from icrm.corpus import HAM, SPAM
from icrm.model import (
    BIND_E,
    BIND_EMPTY,
    BIND_R,
    _INITIAL_ROWS,
    _ZERO_CLAMP,
    IcrmClassifier,
    IcrmConfig,
    Repertoire,
    TEST,
    build_slot_array,
    decay,
    init_features,
    _SLOT_TEMPLATES,
    _pair_loss,
    _proliferates,
    _slot_template,
    interact,
    process_message,
    score_feature,
)
from icrm.synth import synthetic_dataset
from icrm.textprep import preprocess

from conftest import make_message
from slots import bind, hand_slots, slot_features


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
        fast_rep, ref_rep = Repertoire(rep), dict(rep)
        fast = bind(sample, fast_rep, cfg, fast_rng)
        expected = ref.build_slot_array(sample, ref_rep, cfg, ref_rng)
        assert slot_features(fast) == expected.features
        assert fast.bound.tolist() == expected.bound
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

        interact(fast, cfg)
        ref.interact(ref_rep, expected, cfg)
        assert fast_rep == ref_rep
        assert list(fast_rep) == list(ref_rep)


def test_one_feature_sample_matches_reference():
    cfg = IcrmConfig(n_a=7)
    for seed in range(50):
        rep = {"only": (6.0, 5.0)}
        fast_rep, ref_rep = Repertoire(rep), dict(rep)
        fast = bind(["only"], fast_rep, cfg, np.random.default_rng(seed))
        expected = ref.build_slot_array(["only"], ref_rep, cfg, np.random.default_rng(seed))
        assert fast.bound.tolist() == expected.bound
        interact(fast, cfg)
        ref.interact(ref_rep, expected, cfg)
        assert fast_rep == ref_rep


def test_a_sample_with_a_repeated_feature_is_refused():
    """Interaction writes each feature's gains to its row once, so a repeated
    feature is refused before the generator draws or the repertoire changes."""
    cfg = IcrmConfig(n_a=3)
    rep = Repertoire({"a": (2.0, 1.0), "b": (0.0, 0.0), "c": (1.0, 4.0)})
    before = _bits(rep)
    rng = np.random.default_rng(5)
    untouched = rng.bit_generator.state
    with pytest.raises(ValueError, match="distinct"):
        bind(["a", "b", "a", "c", "a"], rep, cfg, rng)
    assert rng.bit_generator.state == untouched
    assert _bits(rep) == before


@given(n=st.integers(0, 600), n_a=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_shuffled_slot_template_is_the_permutation_floor_divided(n, n_a, seed):
    """Shuffling the template makes the swaps of permutation(n * n_a) and
    leaves the generator where permutation leaves it."""
    shuffled, permuted = np.random.default_rng(seed), np.random.default_rng(seed)
    index = _slot_template(n, n_a).copy()
    shuffled.shuffle(index)
    assert index.tolist() == (permuted.permutation(n * n_a) // n_a).tolist()
    assert shuffled.bit_generator.state == permuted.bit_generator.state


@given(
    positions=st.lists(st.integers(0, 59), max_size=60, unique=True),
    n_a=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(positions=[2, 0, 1], n_a=3, seed=0)
@settings(max_examples=200, deadline=None)
def test_slots_of_a_sample_follow_the_permutation(positions, n_a, seed):
    """A sample of distinct features, in any order, lays its slots out as
    permutation(total) // n_a picks sample positions, then draws."""
    sample = [f"w{i}" for i in positions]
    rep = Repertoire({f"w{i}": (6.0, 5.0) for i in range(60)})
    rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
    slots = bind(sample, rep, IcrmConfig(n_a=n_a), rng)
    order = expected.permutation(len(sample) * n_a) // n_a
    expected.random(len(order))
    assert slot_features(slots) == [sample[i] for i in order.tolist()]
    assert rng.bit_generator.state == expected.bit_generator.state


def test_cached_tables_are_read_only():
    _SLOT_TEMPLATES.clear()
    template = _slot_template(4, 3)
    assert template.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    with pytest.raises(ValueError):
        template[0] = 1
    # a shorter sample reads a prefix of the same cached template
    assert _slot_template(2, 3).tolist() == [0, 0, 0, 1, 1, 1]
    assert np.shares_memory(_slot_template(2, 3), template)
    with pytest.raises(ValueError):
        _slot_template(2, 3)[0] = 1
    loss = _pair_loss(0.02)
    assert _pair_loss(0.02) is loss
    with pytest.raises(ValueError):
        loss[0, 0] = 1.0
    assert template.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("proliferation", [5e-324, 0.02, 1.5])
def test_pair_loss_row_at_each_pair_key_is_its_negated_gains(proliferation):
    """Interaction reads a slot pair's two uint8 codes as one uint16 key."""
    loss = _pair_loss(proliferation)
    for a in (BIND_E, BIND_R, BIND_EMPTY):
        for b in (BIND_E, BIND_R, BIND_EMPTY):
            key = np.array([a, b], dtype=np.uint8).view(np.uint16)[0]
            gains = np.array([_proliferates(a, b), _proliferates(b, a)], dtype=np.float64)
            want = -proliferation * gains
            assert [x.hex() for x in loss[key].tolist()] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("n_slots", [1, 2, 7, 8, 13, 14])
@pytest.mark.parametrize("death_rate", [0.0, 0.3])
def test_interact_reads_uint8_codes_on_odd_and_even_totals(n_slots, death_rate):
    """interact reads each pair of uint8 codes as one uint16 key, padding an
    odd total with an empty slot: for even and odd slot totals and every
    binding code it leaves the reference's populations and the codes as
    they were."""
    rng = np.random.default_rng(n_slots)
    cfg = IcrmConfig(proliferation=0.37, death_rate=death_rate)
    for _ in range(200):
        rep = _random_repertoire(rng, 4)
        names = list(rep)
        features = [names[int(rng.integers(len(names)))] for _ in range(n_slots)]
        bound = [int(rng.integers(0, 3)) for _ in range(n_slots)]
        fast_rep, ref_rep = Repertoire(rep), dict(rep)
        slots = hand_slots(fast_rep, features, bound)
        assert slots.bound.dtype == np.uint8
        interact(slots, cfg)
        ref.interact(ref_rep, ref.SlotArray(features, bound), cfg)
        assert _bits(fast_rep) == _bits(ref_rep)
        assert slots.bound.dtype == np.uint8 and slots.bound.tolist() == bound


@pytest.mark.parametrize(
    "bound_on, sample, twin",
    [
        # the same features, inserted in the other order
        ({"x": (6.0, 0.0), "y": (0.0, 6.0)}, ["x", "y"],
         {"y": (0.0, 6.0), "x": (6.0, 0.0)}),
        # fewer rows: x's row where the slots were bound is unused here
        ({"w": (1.0, 1.0), "x": (6.0, 0.0)}, ["x"], {"x": (6.0, 0.0)}),
    ],
)
def test_interact_changes_only_the_repertoire_the_slots_are_bound_to(
    bound_on, sample, twin
):
    # x binds only effectors and y only regulators, so every slot pair
    # credits a gain to one of them
    cfg = IcrmConfig(n_a=3, proliferation=0.5)
    rep, other = Repertoire(bound_on), Repertoire(twin)
    slots = bind(sample, rep, cfg, np.random.default_rng(0))
    ref_rep = dict(bound_on)
    assert interact(slots, cfg) is rep
    ref.interact(ref_rep, ref.SlotArray(slot_features(slots), slots.bound.tolist()), cfg)
    assert rep == ref_rep and rep != bound_on
    assert other == twin and list(other) == list(twin)


@pytest.mark.parametrize("extinct", [False, True], ids=["live", "masked"])
def test_binding_codes_are_uint8_on_both_paths(extinct):
    rep = Repertoire({"a": (2.0, 1.0), "b": (0.0, 0.0) if extinct else (1.0, 4.0)})
    slots = bind(["a", "b"], rep, IcrmConfig(n_a=5), np.random.default_rng(3))
    assert slots.bound.dtype == np.uint8 and len(slots) == 10
    assert (BIND_EMPTY in slots.bound.tolist()) == extinct


class _FixedDraws:
    """A generator stand-in that leaves slots in template order (shuffle and
    permutation change nothing) and draws the given numbers."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.float64)

    def shuffle(self, x):
        pass

    def permutation(self, n):
        return np.arange(n)

    def random(self, n):
        return self.draws[:n]


def test_a_draw_equal_to_the_effector_share_binds_a_regulator():
    """A draw below E / (E + R) binds an effector; one equal to it, as the
    reference's ``draw < e / mass`` has it, a regulator."""
    start = {"a": (1.0, 3.0), "b": (1.0, 1.0)}  # effector shares 0.25 and 0.5
    draws = [0.25, np.nextafter(0.25, 0.0), 0.5, np.nextafter(0.5, 0.0)]
    cfg = IcrmConfig(n_a=2)
    slots = bind(["a", "b"], Repertoire(start), cfg, _FixedDraws(draws))
    expected = ref.build_slot_array(["a", "b"], dict(start), cfg, _FixedDraws(draws))
    assert slots.bound.tolist() == expected.bound == [BIND_R, BIND_E, BIND_R, BIND_E]


def test_slot_template_cache_holds_one_template_per_n_a():
    """The cache keeps no more slots per n_a than the longest sample has."""
    _SLOT_TEMPLATES.clear()
    for n in (5, 50, 7, 0, 20):
        for n_a in (1, 3, 10):
            assert _slot_template(n, n_a).tolist() == np.repeat(np.arange(n), n_a).tolist()
    assert {n_a: len(t) for n_a, t in _SLOT_TEMPLATES.items()} == {1: 50, 3: 150, 10: 500}


def test_interleaved_classifiers_end_as_each_does_alone():
    """The slot templates and pair-loss tables are shared by every classifier:
    two classifiers of different n_a and proliferation, fed in turn, end
    with the repertoires each ends with when it runs alone."""
    data = synthetic_dataset(n_ham=80, n_spam=80, shared_vocab=40,
                             words_per_message=(10, 90), seed=21)
    train = [m for pair in zip(data.ham[:40], data.spam[:40]) for m in pair]
    stream = [m for pair in zip(data.ham[40:], data.spam[40:]) for m in pair]

    def configs():
        return [IcrmConfig(n_a=3, proliferation=0.05, seed=1),
                IcrmConfig(n_a=10, proliferation=0.02, seed=2)]

    _SLOT_TEMPLATES.clear()
    _pair_loss.cache_clear()
    alone = []
    for cfg in configs():
        clf = IcrmClassifier(cfg)
        clf.train(train)
        verdicts = [clf.verdict(m) for m in stream]
        alone.append((_bits(clf.repertoire), verdicts))
    _SLOT_TEMPLATES.clear()
    _pair_loss.cache_clear()
    together = [IcrmClassifier(cfg) for cfg in configs()]
    verdicts = [[], []]
    for msg in train:
        for clf in together:
            clf.train([msg])
    for msg in stream:
        for clf, out in zip(together, verdicts):
            out.append(clf.verdict(msg))
    assert [(_bits(clf.repertoire), out) for clf, out in zip(together, verdicts)] == alone
    assert alone[0][0] != alone[1][0]


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
        fast_rep, ref_rep = Repertoire(rep), dict(rep)
        interact(hand_slots(fast_rep, features, bound), cfg)
        ref.interact(ref_rep, ref.SlotArray(features, bound), cfg)
        assert fast_rep == ref_rep


@pytest.mark.parametrize(
    "sampler, death_rate",
    [("first-last", 0.0), ("first-last", 0.01), ("random", 0.0), ("random", 0.02)],
)
def test_classifier_matches_reference(sampler, death_rate):
    data = synthetic_dataset(
        n_ham=120, n_spam=120, vocab_per_class=60, shared_vocab=40, seed=3,
        words_per_message=(20, 120),
    )
    train = [m for pair in zip(data.ham[:80], data.spam[:80]) for m in pair]
    test = data.ham[80:] + data.spam[80:]
    cfg = IcrmConfig(seed=9, death_rate=death_rate, feature_sampler=sampler)

    clf = IcrmClassifier(cfg)
    clf.train(train)
    fast_scores = [clf.verdict(m).score for m in test]

    ref_rep, rng = {}, np.random.default_rng(cfg.seed)
    for m in train:
        ref.process_message(ref_rep, m, True, cfg, rng)
    ref_scores = [ref.process_message(ref_rep, m, False, cfg, rng).score for m in test]
    assert fast_scores == ref_scores
    assert clf.repertoire == ref_rep


@pytest.mark.parametrize("sampler", ["first-last", "random"])
@pytest.mark.parametrize("death_rate", [0.0, 0.05])
def test_train_leaves_what_training_process_message_leaves(sampler, death_rate):
    """``train`` skips scoring; its repertoire and random stream must not
    tell. The random sampler also draws from the stream in preprocess."""
    data = synthetic_dataset(
        n_ham=60, n_spam=60, vocab_per_class=60, shared_vocab=40, seed=5,
        words_per_message=(20, 120),
    )
    train = [m for pair in zip(data.ham[:40], data.spam[:40]) for m in pair]
    test = data.ham[40:] + data.spam[40:]
    cfg = IcrmConfig(seed=7, death_rate=death_rate, feature_sampler=sampler)
    bulk = IcrmClassifier(cfg)
    bulk.train(train)
    single = IcrmClassifier(cfg)
    for m in train:
        process_message(single.repertoire, m, True, cfg, single.rng, single.stopwords)
    assert list(bulk.repertoire.rows.items()) == list(single.repertoire.rows.items())
    assert _bits(bulk.repertoire) == _bits(single.repertoire)
    assert bulk.rng.bit_generator.state == single.rng.bit_generator.state
    assert [bulk.verdict(m) for m in test] == [single.verdict(m) for m in test]


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
    rep = Repertoire()
    messages = [
        make_message(HAM, body="meeting agenda notes"),
        make_message(SPAM, body=""),
        make_message(SPAM, body="cheap pills offer now"),
    ]
    for count, msg in enumerate(messages, start=1):
        process_message(rep, msg, False, IcrmConfig(), rng)
        assert calls == {"build_slot_array": count, "interact": count}


@pytest.mark.parametrize("death_rate", [0.0, 0.02, 0.5])
def test_a_verdict_scores_the_rows_as_the_repertoire_holds_them_after_the_message(death_rate):
    """Scoring reads the pairs interaction wrote, or the rows again after
    decay has scaled them: each score is score_feature of the row as the
    repertoire holds it once the message is done, bit for bit."""
    cfg = IcrmConfig(death_rate=death_rate, seed=3)
    clf = IcrmClassifier(cfg)
    clf.train([make_message(HAM, body="meeting agenda notes monday"),
               make_message(SPAM, body="cheap pills offer now")])
    for body in ("cheap meeting pills", "agenda offer fresh words", "notes"):
        verdict = clf.verdict(make_message(body=body))
        rep = clf.repertoire
        want = [(f, score_feature(*rep[f]).hex()) for f, _ in verdict.per_feature]
        assert [(f, s.hex()) for f, s in verdict.per_feature] == want


@pytest.mark.parametrize("read", ["verdict", "classify"])
def test_a_row_that_dies_in_decay_scores_zero(read):
    """A regulator-only row binds regulators alone, gains nothing and dies in
    its own message's decay: read after decay it scores +0.0 (spam); the
    pair interaction wrote would score +1 (ham)."""
    cfg = IcrmConfig(death_rate=0.5)
    msg = make_message(body="pills")
    (feature,) = preprocess(msg, cfg.n)
    clf = IcrmClassifier(cfg)
    clf.repertoire = Repertoire({feature: (0.0, 1.5e-12)})
    if read == "verdict":
        verdict = clf.verdict(msg)
        assert verdict.per_feature == [(feature, 0.0)] and verdict.label == SPAM
    else:
        assert clf.classify(msg) == SPAM
    assert clf.repertoire[feature] == (0.0, 0.0)


@pytest.mark.parametrize("n_a, death_rate", [(10, 0.0), (3, 0.02), (1, 0.5)])
def test_samples_with_and_without_extinct_features_match_reference(n_a, death_rate):
    """One message stream in which some samples hold an extinct feature,
    -0.0 in E, R or both included, and the others do not."""
    start = {f"live{i}": (float(i % 7 + 1), float(i % 5 + 1)) for i in range(30)}
    start.update({f"gone{i}": (0.0, 0.0) for i in range(8)})
    start.update({"negzero0": (-0.0, 0.0), "negzero1": (0.0, -0.0),
                  "negzero2": (-0.0, -0.0)})
    words = list(start) + [f"novel{i}" for i in range(20)]
    cfg = IcrmConfig(n_a=n_a, seed=5, death_rate=death_rate)
    fast_rep, ref_rep = Repertoire(start), dict(start)
    fast_rng, ref_rng = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    draw = np.random.default_rng(11)
    with_extinct = []
    for k in range(150):
        label = (HAM, SPAM)[k % 2]
        body = " ".join(draw.choice(words, size=int(draw.integers(1, 25))).tolist())
        msg = make_message(label, body=body)
        train = k % 3 == 0
        sample = preprocess(msg, cfg.n, None)
        with_extinct.append(any(ref_rep.get(f) == (0.0, 0.0) for f in sample))
        fast = process_message(fast_rep, msg, train, cfg, fast_rng)
        slow = ref.process_message(ref_rep, msg, train, cfg, ref_rng)
        assert [(f, s.hex()) for f, s in fast.per_feature] == [
            (f, s.hex()) for f, s in slow.per_feature
        ]
        assert (fast.score, fast.label) == (slow.score, slow.label)
        assert _bits(fast_rep) == _bits(ref_rep)
    assert True in with_extinct and False in with_extinct


# One pair near the scale of real populations on which np.hypot, on glibc,
# lands one ulp away from math.hypot: a score through np.hypot would differ.
_HYPOT_SPLIT = (13.5, 21.25)

_POPULATION = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, 1e-310, _ZERO_CLAMP, np.nextafter(_ZERO_CLAMP, 0.0),
        np.nextafter(_ZERO_CLAMP, 1.0), 2 * _ZERO_CLAMP, 1e300, *_HYPOT_SPLIT,
    ]),
    st.floats(min_value=0.0, max_value=50.0),
)


@given(
    pops=st.lists(st.tuples(_POPULATION, _POPULATION), min_size=1, max_size=12),
    proliferation=st.sampled_from([5e-324, 0.02, 1.5]),
    death_rate=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
@example(pops=[_HYPOT_SPLIT], proliferation=5e-324, death_rate=0.0, seed=0)
@example(pops=[(0.0, -0.0), (-0.0, 0.0), _HYPOT_SPLIT], proliferation=0.02,
         death_rate=0.0, seed=1)
@settings(max_examples=300, deadline=None)
def test_message_scores_equal_score_feature(pops, proliferation, death_rate, seed):
    """Each per-feature score is score_feature of the feature's populations
    after the message, to the bit (-0.0 and 0.0 told apart)."""
    start = {f"feat{i}": (float(e), float(r)) for i, (e, r) in enumerate(pops)}
    rep = Repertoire(start)
    cfg = IcrmConfig(proliferation=proliferation, death_rate=death_rate)
    msg = make_message(HAM, body=" ".join(start))
    verdict = process_message(rep, msg, False, cfg, np.random.default_rng(seed))
    assert [f for f, _ in verdict.per_feature] == list(start)
    assert [(f, s.hex()) for f, s in verdict.per_feature] == [
        (f, score_feature(*rep[f]).hex()) for f in start
    ]
    assert verdict.score == math.fsum(score_feature(*rep[f]) for f in start)


# -- the array repertoire against the dict it replaced ----------------------


def _bits(rep) -> list[tuple[str, str, str]]:
    """Every entry in order, populations as hex so that -0.0 != 0.0."""
    return [(f, float(e).hex(), float(r).hex()) for f, (e, r) in rep.items()]


@pytest.mark.parametrize("death_rate", [0.02, 0.3])
def test_array_repertoire_matches_dict_reference(tmp_path, death_rate):
    data = synthetic_dataset(shared_vocab=60, seed=5)
    train = [m for pair in zip(data.ham[:100], data.spam[:100]) for m in pair]
    stream = [m for pair in zip(data.ham[100:], data.spam[100:]) for m in pair]
    cfg = IcrmConfig(seed=13, death_rate=death_rate)
    clf = IcrmClassifier(cfg)
    rep, rng = {}, np.random.default_rng(cfg.seed)

    fast = [process_message(clf.repertoire, m, True, cfg, clf.rng).per_feature
            for m in train]
    fast += [clf.verdict(m).per_feature for m in stream[:200]]
    slow = [ref.process_message(rep, m, True, cfg, rng).per_feature for m in train]
    slow += [ref.process_message(rep, m, False, cfg, rng).per_feature
             for m in stream[:200]]
    assert fast == slow
    assert _bits(clf.repertoire) == _bits(rep)
    if death_rate == 0.3:  # the clamp has run on real data
        assert (0.0, 0.0) in clf.repertoire.values()

    # the version 3 state file the dict classifier writes, byte for byte
    clf.save(tmp_path / "array.state")
    assert (tmp_path / "array.state").read_bytes() == ref.state_file(3, rep, cfg, rng)
    # versions 3 and 2 keep the rows in first-sight order
    (tmp_path / "dict-v2.json").write_bytes(ref.state_file(2, rep, cfg, rng))
    for name in ("array.state", "dict-v2.json"):
        assert _bits(IcrmClassifier.load(tmp_path / name).repertoire) == _bits(rep)

    # and a version 1 state written the dict way resumes on the same path
    (tmp_path / "dict.json").write_bytes(ref.state_file(1, rep, cfg, rng))
    resumed = IcrmClassifier.load(tmp_path / "dict.json")
    assert [resumed.verdict(m).score for m in stream[200:]] == [
        ref.process_message(rep, m, False, cfg, rng).score for m in stream[200:]
    ]
    # version 1 lists features sorted, so a repertoire loaded from it is in that order
    assert _bits(resumed.repertoire) == sorted(_bits(rep))


_EDGES = {
    "one-side-low": (5e-13, 3.0),
    "both-low": (5e-13, 9e-13),
    "at-clamp": (_ZERO_CLAMP, _ZERO_CLAMP),
    "lands-on-clamp": (2 * _ZERO_CLAMP, 2 * _ZERO_CLAMP),  # x 0.5 is exact
    "one-lands-on-clamp": (2 * _ZERO_CLAMP, 1e-13),
    "subnormal-pair": (5e-324, 1e-310),
    "subnormal-live": (5e-324, 3.0),
    "neg-zero-live": (-0.0, 3.0),
    "neg-zero-pair": (-0.0, -0.0),
    "neg-zero-low": (-0.0, 1e-13),
    "extinct": (0.0, 0.0),
    "plain": (6.0, 12.0),
}


@pytest.mark.parametrize("death_rate", [0.0, 0.02, 0.5])
@pytest.mark.parametrize(
    "features, bound",
    [
        ([], []),
        (["neg-zero-live"], [BIND_R]),  # a lone regulator gains nothing
        (["neg-zero-pair", "neg-zero-pair"], [BIND_E, BIND_E]),
        (["extinct", "plain", "subnormal-live"], [BIND_EMPTY, BIND_E, BIND_E]),
        (["neg-zero-live", "both-low"], [BIND_E, BIND_R]),
    ],
)
def test_decay_edges_match_reference(features, bound, death_rate):
    cfg = IcrmConfig(proliferation=0.25, death_rate=death_rate)
    cols, rep = Repertoire(_EDGES), dict(_EDGES)
    for _ in range(3):
        interact(hand_slots(cols, features, bound), cfg)
        ref.interact(rep, ref.SlotArray(features, bound), cfg)
        assert _bits(cols) == _bits(rep)


@st.composite
def _forgetting_runs(draw):
    """A death rate, a starting repertoire and steps of add, interact and
    decay, with populations that straddle the clamp after one multiply."""
    rate = draw(st.sampled_from([0.02, 0.5]))
    edge = _ZERO_CLAMP / (1.0 - rate)
    value = st.one_of(
        st.sampled_from([
            0.0, -0.0, 5e-324, 1e-310, np.nextafter(edge, 0.0), edge,
            np.nextafter(edge, 1.0), 3e-12, 1e-11, 6.0,
        ]),
        st.floats(min_value=0.0, max_value=30.0),
    )
    start = draw(st.sampled_from(["empty", "rows", "doubling", "loaded"]))
    rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=12))
    step = st.one_of(
        st.tuples(st.just("add"), st.integers(0, 4), st.lists(st.integers(0, 99), max_size=3),
                  st.sampled_from([HAM, SPAM, TEST])),
        st.tuples(st.just("interact"), st.lists(
            st.tuples(st.integers(0, 99), st.sampled_from([BIND_E, BIND_R, BIND_EMPTY])),
            max_size=12,
        )),
        st.tuples(st.just("decay"), st.sampled_from([1, 7, 60])),
    )
    # first-seen spam rows may start below the clamp: the bound must let the test run
    e0_spam, r0_spam = draw(st.sampled_from([(6.0, 5.0), (1e-13, 0.0)]))
    cfg = IcrmConfig(
        proliferation=draw(st.sampled_from([5e-324, 0.02, 1.5])), death_rate=rate,
        e0_spam=e0_spam, r0_spam=r0_spam,
    )
    return cfg, start, rows, draw(st.lists(step, max_size=12))


def _start_repertoire(start: str, rows: list) -> dict:
    if start == "empty":
        return {}
    if start == "doubling":  # the first add step of 3 or more rows doubles it
        rows = (rows * _INITIAL_ROWS)[: _INITIAL_ROWS - 2]
    rep = {f"w{i}": (float(e), float(r)) for i, (e, r) in enumerate(rows)}
    if start == "loaded":
        rep["neg-zero-pair"] = (-0.0, -0.0)
    return rep


def _assert_same_bytes(cols: Repertoire, rep: dict) -> None:
    assert list(cols) == list(rep)
    want = np.array(list(rep.values()), np.float64).reshape(-1, 2)
    assert cols.populations.tobytes() == want.tobytes()


@given(case=_forgetting_runs())
@settings(max_examples=200, deadline=None)
def test_decay_steps_match_the_per_feature_loop(case):
    """After every add, interact and decay the populations are the loop's
    bytes, -0.0 and subnormals included, whether or not the bound lets
    decay skip its test for dead rows."""
    cfg, start, rows, steps = case
    rep = _start_repertoire(start, rows)
    cols = Repertoire(rep)
    if start == "loaded":
        with tempfile.TemporaryDirectory() as tmp:
            clf = IcrmClassifier(cfg)
            clf.repertoire = cols
            clf.save(Path(tmp) / "state.json")
            cols = IcrmClassifier.load(Path(tmp) / "state.json").repertoire
    _assert_same_bytes(cols, rep)
    idle = ref.SlotArray([], [])
    fresh = 0
    for step in steps:
        kind, *args = step
        names = list(rep)
        if kind == "add":
            new, old, stage = args
            sample = [names[i % len(names)] for i in old if names]
            sample += [f"new{fresh + i}" for i in range(new)]
            fresh += new
            init_features(cols, sample, stage, cfg)
            ref.init_features(rep, sample, stage, cfg)
        elif kind == "interact":
            slots = [(names[i % len(names)], b) for i, b in args[0] if names]
            features, bound = [f for f, _ in slots], [b for _, b in slots]
            interact(hand_slots(cols, features, bound), cfg)
            ref.interact(rep, ref.SlotArray(features, bound), cfg)
        else:
            for _ in range(args[0]):
                decay(cols, cfg)
                ref.interact(rep, idle, cfg)  # no gains: the loop's decay alone
                _assert_same_bytes(cols, rep)
        _assert_same_bytes(cols, rep)
    if start == "doubling" and len(cols) > _INITIAL_ROWS:
        assert len(cols._cells) == 2 * _INITIAL_ROWS
    with pytest.raises(ValueError, match="read-only"):
        cols.populations[:] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cols.populations *= 0.5


def test_edge_populations_round_trip_through_a_state_file(tmp_path):
    # -0.0, subnormals and the values at the clamp keep every bit
    clf = IcrmClassifier()
    clf.repertoire = Repertoire(_EDGES)
    clf.save(tmp_path / "edges.json")
    loaded = IcrmClassifier.load(tmp_path / "edges.json")
    assert _bits(loaded.repertoire) == _bits(_EDGES)
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "edges.json").read_bytes()


_V1_FIXTURE = Path(__file__).parent / "data" / "icrm-state-v1.json"


def test_version_1_fixture_loads_like_its_version_3_resave(tmp_path):
    """A version 1 state, written by the version 1 ``save`` after training on
    ``synthetic_dataset(30, 30, seed=4)`` with seed 2, resaved as version 3."""
    assert json.loads(_V1_FIXTURE.read_text(encoding="utf-8"))["version"] == 1
    old = IcrmClassifier.load(_V1_FIXTURE)
    old.save(tmp_path / "v3.state")
    new = IcrmClassifier.load(tmp_path / "v3.state")
    header = (tmp_path / "v3.state").read_bytes().partition(b"\n")[0]
    assert json.loads(header)["version"] == 3
    assert _bits(new.repertoire) == _bits(old.repertoire)
    assert new.rng.bit_generator.state == old.rng.bit_generator.state
    data = synthetic_dataset(30, 30, seed=4)
    probe = data.ham[:10] + data.spam[:10] + [make_message(HAM, body="unseen words")]
    assert [new.verdict(m) for m in probe] == [old.verdict(m) for m in probe]
    # and the verdicts' updates left both repertoires alike
    assert _bits(new.repertoire) == _bits(old.repertoire)


def test_first_seen_features_across_a_capacity_doubling():
    cfg = IcrmConfig(seed=2, death_rate=0.02)
    known = {f"old{i}": (float(i % 7), float(i % 5)) for i in range(_INITIAL_ROWS - 3)}
    cols, rep = Repertoire(known), dict(known)
    msg = make_message(
        HAM, body="old1 old2 " + " ".join(f"novel{i}" for i in range(12))
    )
    fast = process_message(cols, msg, True, cfg, np.random.default_rng(4))
    slow = ref.process_message(rep, msg, True, cfg, np.random.default_rng(4))
    assert len(cols._cells) == 2 * _INITIAL_ROWS
    assert len(cols) == _INITIAL_ROWS + 9
    assert fast == slow
    assert _bits(cols) == _bits(rep)


def test_int_populations_save_as_floats(tmp_path):
    ints = IcrmClassifier(IcrmConfig(e0_ham=6, r0_ham=12, death_rate=0))
    floats = IcrmClassifier(IcrmConfig(e0_ham=6.0, r0_ham=12.0, death_rate=0.0))
    for clf in (ints, floats):
        clf.train([make_message(HAM, body="meeting agenda notes")])
    ints.save(tmp_path / "ints.json")
    floats.save(tmp_path / "floats.json")
    assert (tmp_path / "ints.json").read_bytes() == (tmp_path / "floats.json").read_bytes()
    assert type(ints.config.e0_ham) is float


# -- classify's numpy-summed label against the verdict's exact one ------------

# 40 features, each a synthetic word that stems to itself
_WORDS = [f"feat{i}" for i in range(40)]


def _from_one_state(tmp_path, death_rate):
    """Two classifiers loaded from one saved state. Its populations are a few
    times the decay clamp, so at death rate 0.02 rows that go unseen for
    some 60 messages are cleared to (+0.0, +0.0) while ``_floor`` stays a
    normal float, and the numpy sum reads extinct rows."""
    cfg = IcrmConfig(
        e0_ham=1e-12, r0_ham=3e-12, e0_spam=3e-12, r0_spam=1e-12,
        e0_test=3e-12, r0_test=1e-12, proliferation=1e-13,
        death_rate=death_rate, seed=3,
    )
    clf = IcrmClassifier(cfg)
    clf.train(make_message(label, body=" ".join(_WORDS[i::4]))
              for i, label in enumerate([HAM, SPAM, HAM, SPAM]))
    path = tmp_path / f"state-{death_rate}.json"
    clf.save(path)
    return IcrmClassifier.load(path), IcrmClassifier.load(path)


def _label_stream(a, b, bodies):
    """Stream each body through ``a.classify`` and ``b.verdict``, with
    warnings as errors; the pairs of labels."""
    labels = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, body in enumerate(bodies):
            msg = make_message(HAM, body=body, day=i + 1)
            labels.append((a.classify(msg), b.verdict(msg).label))
    return labels


def _same_state(a, b) -> bool:
    return (np.array_equal(a.repertoire.populations.view(np.uint64),
                           b.repertoire.populations.view(np.uint64))
            and list(a.repertoire.rows) == list(b.repertoire.rows)
            and a.rng.bit_generator.state == b.rng.bit_generator.state)


@pytest.mark.parametrize("death_rate", [0.0, 0.02])
@given(messages=st.lists(st.lists(st.integers(0, len(_WORDS) - 1), max_size=12),
                         min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_classify_gives_the_verdicts_label_and_leaves_its_state(death_rate, messages):
    """From one saved state, a.classify(m) and b.verdict(m).label agree on
    every message, and leave bit-identical populations and generators."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b = _from_one_state(Path(tmp), death_rate)
    bodies = [" ".join(_WORDS[i] for i in words) for words in messages]
    labels = _label_stream(a, b, bodies)
    assert [fast for fast, _ in labels] == [exact for _, exact in labels]
    assert _same_state(a, b)


def test_the_equivalence_stream_meets_extinct_rows_and_both_sums(tmp_path, monkeypatch):
    """A stream like those the property above draws reaches extinct rows at
    death rate 0.02 with ``_floor`` still normal, and classify takes labels
    from both the numpy sum and the exact sum."""
    exact_calls = []
    exact_scores = icrm.model._exact_scores
    monkeypatch.setattr(icrm.model, "_exact_scores",
                        lambda pops: exact_calls.append(1) or exact_scores(pops))
    a, b = _from_one_state(tmp_path, 0.02)
    # every word, then only the first ten until the others die out; then the
    # dead words alone (their scores are all +0.0) and an empty message
    bodies = [" ".join(_WORDS[j] for j in range(i % 3, 40, 3)) for i in range(30)]
    bodies += [" ".join(_WORDS[:10])] * 150 + [" ".join(_WORDS[10:]), ""]
    labels = _label_stream(a, b, bodies)
    assert [fast for fast, _ in labels] == [exact for _, exact in labels]
    assert _same_state(a, b)
    pops = a.repertoire.populations
    assert ((pops[:, 0] == 0.0) & (pops[:, 1] == 0.0)).any()
    assert a.repertoire._floor >= sys.float_info.min
    # b.verdict ran the exact scorer once per message; a.classify not always
    assert len(bodies) < len(exact_calls) < 2 * len(bodies)


def test_the_floor_stays_normal_on_a_long_forgetting_stream():
    """Multiplied by 0.98 per decay, the bound on max(E, R) would fall below
    the smallest normal float after some 35,150 messages; clearing sets it
    back to the clamp, so classify keeps its numpy sum."""
    rep = Repertoire({"feat0": (1.0, 2.0)})
    cfg = IcrmConfig(death_rate=0.02)
    for _ in range(40_000):
        decay(rep, cfg)
    assert rep._floor >= sys.float_info.min


def test_a_loaded_extinct_row_leaves_the_floor_normal(tmp_path, monkeypatch):
    """A state holding a (0.0, 0.0) row loads with a bound of 0.0; after one
    forgetting classify the bound is normal again, and the next message's
    label comes from the numpy sum."""
    exact_calls = []
    exact_scores = icrm.model._exact_scores
    monkeypatch.setattr(icrm.model, "_exact_scores",
                        lambda pops: exact_calls.append(1) or exact_scores(pops))
    rows = {"feat0": (0.0, 0.0), "feat1": (1.0, 2.0)}
    path = tmp_path / "extinct.json"
    cfg = IcrmConfig(death_rate=0.02)
    path.write_bytes(ref.state_file(1, rows, cfg, np.random.default_rng(0)))
    clf = IcrmClassifier.load(path)
    assert clf.repertoire._floor == 0.0
    clf.classify(make_message(HAM, body="feat1"))
    assert clf.repertoire._floor >= sys.float_info.min
    exact_calls.clear()
    assert clf.classify(make_message(HAM, body="feat1", day=2)) == HAM
    assert not exact_calls


# beside the next float up, 2**-32 away, this scores 2**-32 / hypot = 7.85e-17
_X = 2.0**21 - 2.0**-31


@pytest.mark.parametrize("rows, label", [
    # scores +1, 7.85e-17 and -1: numpy sums them to 0.0, math.fsum to +7.85e-17
    pytest.param([(0.0, 1.0), (_X, np.nextafter(_X, math.inf)), (1.0, 0.0)], HAM,
                 id="residue-beyond-numpy"),
    # mirror pairs sum to exactly 0, which numpy reads as +1.1e-16
    pytest.param([(1.0, 2.0), (1.0, 3.0), (2.0, 1.0), (3.0, 1.0)], SPAM,
                 id="mirror-pairs"),
])
def test_a_sum_within_the_bound_takes_the_exact_label(rows, label):
    pops = np.array(rows)
    e, r = pops[:, 0], pops[:, 1]
    approx = ((r - e) / np.hypot(r, e)).sum()
    cells = pops.view(np.complex128).ravel()  # each row as one complex E + iR
    exact = icrm.model._exact_scores(cells)[1]
    # by the rule that a sum <= 0 is spam, the numpy sum alone reads the other label
    assert (SPAM if approx <= 0.0 else HAM) != label == (SPAM if exact <= 0.0 else HAM)
    assert icrm.model._label(cells, floor=1.0) == label


def _agree_without_warnings(clf, bodies):
    """classify on ``clf`` gives verdict's labels on a copy of it, warnings
    as errors, and leaves the copy's state; the labels."""
    twin = copy.deepcopy(clf)
    labels = _label_stream(clf, twin, bodies)
    assert [fast for fast, _ in labels] == [exact for _, exact in labels]
    assert _same_state(clf, twin)
    return [fast for fast, _ in labels]


def test_an_empty_sample_is_spam_through_classify():
    clf = IcrmClassifier()
    clf.train([make_message(HAM, body="meeting agenda"), make_message(SPAM, body="pills")])
    assert _agree_without_warnings(clf, ["", "the and of", "meeting", ""]) == [
        SPAM, SPAM, HAM, SPAM]


def test_subnormal_norms_take_the_exact_sum(monkeypatch):
    """First-seen test features at (5e-324, +0.0) have a subnormal norm. There a
    hypot one ulp high, within what the bound allows of a normal norm, moves a
    score from -1 to -0.5: a sum trusted without the ``_floor`` test reads
    ham for a message whose exact sum is 0.632 - 1."""
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda x, y: np.nextafter(hypot(x, y), math.inf))
    clf = IcrmClassifier(IcrmConfig(e0_test=5e-324, r0_test=0.0, n_a=1,
                                    proliferation=5e-324, seed=1))
    clf.repertoire = Repertoire({"feat0": (1.0, 3.0)})  # scores 0.632
    labels = _agree_without_warnings(clf, [f"feat0 fresh{i}" for i in range(8)])
    assert clf.repertoire._floor < sys.float_info.min
    assert SPAM in labels


def test_populations_near_the_largest_float_classify_without_overflow(tmp_path):
    """E = R = 8.9e307 loads (E + R is finite), and neither binding nor the
    numpy sum overflows. The mirror pairs beside it sum to exactly 0 (gains
    of 5e-324 leave them as they are), which numpy reads as +1.1e-16."""
    rows = {"feat0": (8.9e307, 8.9e307), "feat1": (1.0, 2.0), "feat2": (1.0, 3.0),
            "feat3": (2.0, 1.0), "feat4": (3.0, 1.0)}
    cfg = IcrmConfig(proliferation=5e-324)
    path = tmp_path / "huge.json"
    path.write_bytes(ref.state_file(1, rows, cfg, np.random.default_rng(0)))
    clf = IcrmClassifier.load(path)
    assert _agree_without_warnings(clf, ["feat0", "feat0 feat1 feat2 feat3 feat4"]) == [
        SPAM, SPAM]
    assert _bits(clf.repertoire) == _bits(rows)
