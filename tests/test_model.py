"""Cross-regulation dynamics: binding, interaction laws, scoring, persistence."""

import itertools
import math
import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icrm import ranges
from icrm.corpus import HAM, SPAM, training_label
from icrm.model import (
    BIND_E,
    BIND_EMPTY,
    BIND_R,
    IcrmClassifier,
    IcrmConfig,
    Repertoire,
    SnapshotError,
    TEST,
    build_slot_array,
    init_features,
    interact,
    present_message,
    process_message,
    _exact_scores,
    score_feature,
)
from icrm.nbayes import nb_train
from icrm.ranges import check_range

from conftest import make_message
from slots import bind, hand_slots, slot_features


class TestScoreFeature:
    def test_ham_initialisation_value(self):
        assert score_feature(6.0, 12.0) == pytest.approx(6.0 / math.sqrt(180.0), abs=1e-12)

    def test_symmetry_zero(self):
        assert score_feature(5.0, 5.0) == 0.0

    def test_boundary(self):
        assert score_feature(6.0, 0.0) == -1.0
        assert score_feature(0.0, 6.0) == 1.0

    def test_both_zero_convention(self):
        assert score_feature(0.0, 0.0) == 0.0

    @given(
        e=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        r=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_and_antisymmetry(self, e, r):
        s = score_feature(e, r)
        assert -1.0 <= s <= 1.0
        assert score_feature(r, e) == pytest.approx(-s, abs=1e-12)


class TestConfig:
    def test_defaults_validate(self):
        IcrmConfig()  # checked when made

    def test_ordering_constraints(self):
        with pytest.raises(ValueError):
            IcrmConfig(e0_ham=12.0, r0_ham=6.0)
        with pytest.raises(ValueError):
            IcrmConfig(e0_spam=4.0, r0_spam=5.0)
        with pytest.raises(ValueError):
            IcrmConfig(e0_test=4.0, r0_test=5.0)

    def test_shape_constraints(self):
        with pytest.raises(ValueError):
            IcrmConfig(n=7)
        with pytest.raises(ValueError):
            IcrmConfig(n_a=0)
        with pytest.raises(ValueError):
            IcrmConfig(death_rate=1.0)

    def test_initial_populations_not_negative(self):
        # the bound a loaded state holds its populations to: 0 and -0.0 pass
        for name in ("e0_ham", "r0_spam", "r0_test"):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                IcrmConfig(**{name: -1.0})
        IcrmConfig(e0_ham=0, r0_spam=-0.0, r0_test=0.0)

    def test_initial_populations_by_stage(self):
        cfg = IcrmConfig()
        assert cfg.initial_populations(HAM) == (6.0, 12.0)
        assert cfg.initial_populations(SPAM) == (6.0, 5.0)
        assert cfg.initial_populations(TEST) == (6.0, 5.0)
        cfg = IcrmConfig(e0_ham=1, r0_ham=2, e0_spam=4, r0_spam=3, e0_test=6, r0_test=5)
        assert [cfg.initial_populations(s) for s in (HAM, SPAM, TEST)] == [
            (1.0, 2.0), (4.0, 3.0), (6.0, 5.0)]
        for stage in ("train_ham", "train_spam", "eggs", "HAM", None):
            with pytest.raises(KeyError, match=f"^{re.escape(repr(stage))}$"):
                cfg.initial_populations(stage)

    @pytest.mark.parametrize("stage, e0, r0, order", [
        ("ham", 12.0, 6.0, "<"), ("ham", 6.0, 6.0, "<"),
        ("spam", 5.0, 6.0, ">"), ("spam", 6.0, 6.0, ">"),
        ("test", 5.0, 6.0, ">"), ("test", 6.0, 6.0, ">"),
    ])
    def test_initial_populations_keep_their_stage_order(self, stage, e0, r0, order):
        text = f"{stage} initialisation requires E0 {order} R0"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            IcrmConfig(**{f"e0_{stage}": e0, f"r0_{stage}": r0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(IcrmConfig) if isinstance(f.default, float)]
    )
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            IcrmConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("n", 1002), ("n_a", 1001), ("e0_spam", 1e6 + 1), ("r0_ham", 1.7e308),
        ("proliferation", 1e308), ("proliferation", 10**400 // 10**100),
    ])
    def test_upper_bounds(self, name, value):
        """Bounds that keep populations finite and a message's slots few."""
        with pytest.raises(ValueError, match=f"^{name} must be <= "):
            IcrmConfig(**{name: value})

    def test_a_classifier_config_cannot_change_after_its_check(self):
        """A value set after the check would never be checked: a negative
        proliferation drove populations below zero and saved a state that
        loading refuses."""
        clf = IcrmClassifier(IcrmConfig(seed=3))
        with pytest.raises(FrozenInstanceError):
            clf.config.proliferation = -50.0
        with pytest.raises(FrozenInstanceError):
            clf.config.n = 7
        assert clf.config == IcrmConfig(seed=3)

    def test_the_bounds_themselves_pass(self):
        cfg = IcrmConfig(n=1000, n_a=1000, e0_ham=0, r0_ham=10**6, e0_test=1e6,
                         r0_test=0.0, proliferation=10**6, death_rate=0.999)
        assert (cfg.r0_ham, cfg.proliferation) == (1e6, 1e6)
        assert type(cfg.r0_ham) is float


@pytest.mark.parametrize("value, message", [
    (math.nan, "must be a finite number, got nan"),
    (True, "must be a finite number, got True"),
    (10**400, "must be a finite number"),
    ("1", "must be a finite number, got '1'"),
    (-1, "must be >= 0, got -1"),
    (2, "must be < 1, got 2"),
])
def test_check_range_refuses_with_the_setting_named(value, message):
    rows = {"rate": (float, [(">=", 0), ("<", 1)])}
    with pytest.raises(ValueError, match="^rate " + re.escape(message)):
        check_range(rows, "rate", value)


def test_an_integer_too_long_to_print_is_named_by_its_digit_count():
    """Beyond ``sys.get_int_max_str_digits`` (4,300) an integer has no repr;
    the refusal gives its digit count and names the setting."""
    with pytest.raises(ValueError, match="^n must be <= 1000, got an integer of 5,001 digits$"):
        IcrmConfig(n=10**5000)
    rows = {"pick": (str, [("one of", ("a", "b"))]), "rate": (float, [(">=", 0)])}
    with pytest.raises(ValueError, match="^pick must be a string, got a negative integer "
                                         "of 4,400 digits$"):
        check_range(rows, "pick", -(10**4399))
    with pytest.raises(ValueError, match="^rate must be a finite number, got an integer "):
        check_range(rows, "rate", 10**6000)
    # exact on both sides of each power of ten, where the float log can round
    for k in range(4301, 4400):
        assert ranges._shown(10**k - 1) == f"an integer of {k:,} digits"
        assert ranges._shown(10**k) == f"an integer of {k + 1:,} digits"
    assert ranges._shown(10**4299) == repr(10**4299)  # 4,300 digits still print


def test_check_range_types_are_exact_and_floats_come_back_as_floats():
    rows = {"count": (int, [(">=", 1)]), "flag": (bool | None, []),
            "pick": (str, [("one of", ("a", "b"))]), "rate": (float, [(">=", 0)])}
    assert check_range(rows, "rate", 0) == 0.0 and type(check_range(rows, "rate", 0)) is float
    assert math.copysign(1.0, check_range(rows, "rate", -0.0)) == -1.0  # -0.0 >= 0
    assert check_range(rows, "count", 3) == 3
    assert check_range(rows, "flag", None) is None
    for name, value in (("count", True), ("count", 3.0), ("flag", 0), ("pick", "c")):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            check_range(rows, name, value)
    # NaN fails every limit, not only the float type check
    assert not any(meets(math.nan, bound) for meets, bound in zip(
        ranges._LIMITS.values(), (0.0, 0.0, 1.0, 1.0, (0.0,), 2)))


class TestInitFeatures:
    def test_mode_table(self):
        cfg = IcrmConfig()
        rep = Repertoire()
        init_features(rep, ["f1"], HAM, cfg)
        init_features(rep, ["f2"], SPAM, cfg)
        init_features(rep, ["f3"], TEST, cfg)
        assert rep == {"f1": (6.0, 12.0), "f2": (6.0, 5.0), "f3": (6.0, 5.0)}

    def test_existing_untouched(self):
        cfg = IcrmConfig()
        rep = Repertoire({"f": (40.0, 3.0)})
        for stage in (HAM, SPAM, TEST):
            init_features(rep, ["f"], stage, cfg)
            assert rep["f"] == (40.0, 3.0)


def _state(rep: Repertoire):
    """Rows in order, populations as hex (so -0.0 != 0.0), and the bound."""
    pops = [(e.hex(), r.hex()) for e, r in rep.values()]
    return list(rep.rows.items()), pops, rep._floor


class TestAddReturnsRows:
    def test_rows_in_order_for_known_first_seen_and_repeated_features(self):
        rep = Repertoire({"known": (1.0, 2.0), "other": (3.0, 4.0)})
        got = rep.add(["new", "other", "known", "new", "next"], (6.0, 5.0))
        given = ("new", "other", "known", "new", "next")
        assert got.tolist() == [rep.rows[f] for f in given]
        # one new row per first-seen feature, in first-sight order
        assert list(rep.rows.items()) == [
            ("known", 0), ("other", 1), ("new", 2), ("next", 3)]
        assert got.tolist() == [2, 1, 0, 2, 3]
        assert rep["new"] == rep["next"] == (6.0, 5.0)
        assert rep["known"] == (1.0, 2.0)

    def test_known_features_alone_change_nothing(self):
        rep = Repertoire({"known": (1.0, 2.0), "other": (3.0, 4.0)})
        before = _state(rep)
        assert rep.add(["other", "known", "other"], (6.0, 5.0)).tolist() == [1, 0, 1]
        assert rep.add([], (6.0, 5.0)).tolist() == []
        assert _state(rep) == before

    def test_init_features_returns_the_rows_bind_reads(self):
        rep = Repertoire({"known": (1.0, 2.0)})
        cfg = IcrmConfig(n_a=3)
        rows = init_features(rep, ["fresh", "known"], SPAM, cfg)
        assert rows.tolist() == [1, 0]
        passed, looked_up = np.random.default_rng(5), np.random.default_rng(5)
        slots = build_slot_array(["fresh", "known"], rep, cfg, passed, rows)
        again = bind(["fresh", "known"], rep, cfg, looked_up)
        assert slots.rows is rows and again.rows.tolist() == rows.tolist()
        assert slots.bound.tolist() == again.bound.tolist()
        # the carried pairs are the rows' populations at binding
        assert slots.pops.tolist() == [complex(*rep["fresh"]), complex(*rep["known"])]

    @pytest.mark.parametrize("features, pair, text", [
        (["known", "new"], (math.nan, 1.0), "finite and >= 0"),
        (["known", "new"], (1.0, -2.0), "finite and >= 0"),
        (["known", "new"], (1e308, 1e308), "sum past the largest float"),
        (["known", "new", 7], (6.0, 5.0), "features must be a list of strings"),
    ])
    def test_a_refused_add_leaves_repertoire_and_generator_unchanged(
        self, features, pair, text
    ):
        rep = Repertoire({"known": (1.0, 2.0)})
        rng = np.random.default_rng(11)
        before, drawn = _state(rep), rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(text)):
            # the order present_message keeps: rows first, then bind and draw
            build_slot_array(features, rep, IcrmConfig(), rng, rep.add(features, pair))
        assert _state(rep) == before
        assert rng.bit_generator.state == drawn


def test_a_feature_is_in_the_repertoire_once_it_has_a_row():
    rep = Repertoire({"known": (1.0, 2.0)})
    assert "known" in rep
    assert "new" not in rep and 7 not in rep
    rep.add(["new"], (6.0, 5.0))
    assert "new" in rep


def test_repr_shows_the_rows_in_order_as_a_dict():
    assert repr(Repertoire()) == "Repertoire({})"
    rep = Repertoire({"b": (1.0, 2.5), "a": (0.0, 3.0)})
    assert repr(rep) == "Repertoire({'b': (1.0, 2.5), 'a': (0.0, 3.0)})"


class TestBuildSlotArray:
    def test_size_contract(self):
        cfg = IcrmConfig()
        rng = np.random.default_rng(0)
        slots = bind(["f"], Repertoire({"f": (6.0, 5.0)}), cfg, rng)
        assert len(slots) == 10
        assert set(slot_features(slots)) == {"f"}

    def test_each_feature_gets_na_slots(self):
        cfg = IcrmConfig(n_a=4)
        rng = np.random.default_rng(1)
        slots = bind(
            ["a", "b", "c"], Repertoire({k: (1.0, 1.0) for k in "abc"}), cfg, rng
        )
        assert len(slots) == 12
        assert slot_features(slots).count("a") == 4
        assert slot_features(slots).count("b") == 4

    def test_pure_effector_population_binds_all_effector(self):
        cfg = IcrmConfig()
        rng = np.random.default_rng(2)
        slots = bind(["f"], Repertoire({"f": (6.0, 0.0)}), cfg, rng)
        assert all(b == BIND_E for b in slots.bound)

    def test_extinct_population_leaves_slots_empty(self):
        cfg = IcrmConfig()
        rng = np.random.default_rng(3)
        slots = bind(["f"], Repertoire({"f": (0.0, 0.0)}), cfg, rng)
        assert all(b == BIND_EMPTY for b in slots.bound)

    def test_binding_rate_matches_population_ratio(self):
        # 1000 messages x 10 slots = 10000 seeded draws at a 50/50 population
        cfg = IcrmConfig()
        rng = np.random.default_rng(4)
        effector_slots = 0
        for _ in range(1000):
            slots = bind(["f"], Repertoire({"f": (5.0, 5.0)}), cfg, rng)
            effector_slots += sum(1 for b in slots.bound if b == BIND_E)
        assert abs(effector_slots / 10000 - 0.5) < 0.02

    def test_shuffle_is_seed_deterministic(self):
        cfg = IcrmConfig()
        rep = Repertoire({"a": (3.0, 3.0), "b": (3.0, 3.0)})
        s1 = bind(["a", "b"], rep, cfg, np.random.default_rng(7))
        s2 = bind(["a", "b"], rep, cfg, np.random.default_rng(7))
        assert slot_features(s1) == slot_features(s2)
        assert np.array_equal(s1.bound, s2.bound)


def _cfg(p=1.0, r=0.0):
    return IcrmConfig(proliferation=p, death_rate=r)


class TestInteract:
    def test_effector_pair_both_proliferate(self):
        rep = Repertoire({"f": (1.0, 0.0), "g": (1.0, 0.0)})
        interact(hand_slots(rep, ["f", "g"], [BIND_E, BIND_E]), _cfg(p=1.0))
        assert rep == {"f": (2.0, 0.0), "g": (2.0, 0.0)}

    def test_mixed_pair_only_regulator_proliferates(self):
        rep = Repertoire({"f": (1.0, 0.0), "g": (0.0, 1.0)})
        interact(hand_slots(rep, ["f", "g"], [BIND_E, BIND_R]), _cfg(p=1.0))
        assert rep == {"f": (1.0, 0.0), "g": (0.0, 2.0)}

    def test_regulator_pair_no_change(self):
        rep = Repertoire({"f": (0.0, 1.0), "g": (0.0, 1.0)})
        interact(hand_slots(rep, ["f", "g"], [BIND_R, BIND_R]), _cfg(p=1.0))
        assert rep == {"f": (0.0, 1.0), "g": (0.0, 1.0)}

    def test_lone_effector_proliferates(self):
        rep = Repertoire({"f": (1.0, 0.0)})
        interact(hand_slots(rep, ["f"], [BIND_E]), _cfg(p=1.0))
        assert rep["f"] == (2.0, 0.0)

    def test_effector_with_empty_partner_proliferates(self):
        rep = Repertoire({"f": (1.0, 0.0), "g": (0.0, 0.0)})
        interact(hand_slots(rep, ["f", "g"], [BIND_E, BIND_EMPTY]), _cfg(p=1.0))
        assert rep["f"] == (2.0, 0.0)

    def test_lone_regulator_persists(self):
        rep = Repertoire({"f": (0.0, 1.0)})
        interact(hand_slots(rep, ["f"], [BIND_R]), _cfg(p=1.0))
        assert rep["f"] == (0.0, 1.0)

    def test_same_feature_effector_pair_gains_twice(self):
        rep = Repertoire({"f": (1.0, 0.0)})
        interact(hand_slots(rep, ["f", "f"], [BIND_E, BIND_E]), _cfg(p=1.0))
        assert rep["f"] == (3.0, 0.0)

    def test_deltas_applied_synchronously(self):
        # regulator proliferation reads pre-interaction populations only;
        # the effector gained in pair one must not affect pair two
        rep = Repertoire({"f": (1.0, 1.0), "g": (1.0, 1.0)})
        slots = hand_slots(rep, ["f", "f", "f", "g"], [BIND_E, BIND_E, BIND_E, BIND_R])
        interact(slots, _cfg(p=1.0))
        assert rep == {"f": (3.0, 1.0), "g": (1.0, 2.0)}

    def test_decay_on_empty_slot_array(self):
        rep = Repertoire({"f": (10.0, 10.0)})
        interact(hand_slots(rep, [], []), _cfg(p=1.0, r=0.02))
        assert rep["f"] == pytest.approx((9.8, 9.8), abs=1e-15)

    def test_decay_hits_every_feature(self):
        rep = Repertoire({"f": (10.0, 0.0), "g": (4.0, 2.0)})
        interact(hand_slots(rep, ["f"], [BIND_E]), _cfg(p=1.0, r=0.5))
        assert rep["f"] == pytest.approx((5.5, 0.0))  # (10 + 1) * 0.5
        assert rep["g"] == pytest.approx((2.0, 1.0))

    def test_tiny_populations_clamp_to_zero(self):
        rep = Repertoire({"f": (1e-12, 1e-12)})
        interact(hand_slots(rep, [], []), _cfg(p=1.0, r=0.5))
        assert rep["f"] == (0.0, 0.0)

    def test_randomized_invariants(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n_features = int(rng.integers(1, 6))
            features = [f"w{i}" for i in range(n_features)]
            rep = Repertoire({
                f: (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
                for f in features
            })
            before = dict(rep)
            n_slots = int(rng.integers(0, 13))
            slots = hand_slots(
                rep,
                [features[int(rng.integers(0, n_features))] for _ in range(n_slots)],
                [int(rng.integers(0, 3)) for _ in range(n_slots)],
            )
            p = float(rng.uniform(0.01, 2.0))
            interact(slots, _cfg(p=p, r=0.0))
            groups = (n_slots + 1) // 2
            grown = sum(e + r for e, r in rep.values()) - sum(
                e + r for e, r in before.values()
            )
            assert -1e-9 <= grown <= 2 * groups * p + 1e-9
            for f in features:
                assert rep[f][0] >= before[f][0] >= 0.0
                assert rep[f][1] >= before[f][1] >= 0.0


class TestProcessMessage:
    def test_empty_message_is_spam_with_zero_score(self):
        cfg = IcrmConfig()
        verdict = process_message(
            Repertoire(), make_message(SPAM, subject="", body=""), False, cfg,
            np.random.default_rng(0),
        )
        assert verdict.score == 0.0
        assert verdict.label == SPAM
        assert verdict.per_feature == []

    def test_empty_message_still_ticks_decay(self):
        cfg = IcrmConfig(death_rate=0.02)
        rep = Repertoire({"f": (10.0, 10.0)})
        process_message(
            rep, make_message(SPAM, body=""), False, cfg, np.random.default_rng(0)
        )
        assert rep["f"] == pytest.approx((9.8, 9.8))

    def test_novel_features_read_as_spam(self):
        cfg = IcrmConfig()
        verdict = process_message(
            Repertoire(), make_message(SPAM, body="zanzibar quixotic jumble vortex"),
            False, cfg, np.random.default_rng(1),
        )
        assert verdict.label == SPAM
        assert verdict.score < 0.0

    def test_ham_trained_feature_classifies_ham(self):
        # 50 ham exposures: the regulator population must dominate
        clf = IcrmClassifier(IcrmConfig(seed=5))
        clf.train(
            make_message(HAM, body="meeting agenda", day=day) for day in range(1, 51)
        )
        verdict = clf.verdict(make_message(HAM, body="meeting agenda"))
        assert verdict.label == HAM
        e, r = clf.repertoire["meet"]
        assert r > e

    def test_unknown_label_is_value_error(self):
        msg = make_message("junk", body="alpha")
        with pytest.raises(ValueError, match="'junk'"):
            IcrmClassifier().train([msg])

    def test_verdict_consistency_invariants(self, disjoint_corpus):
        clf = IcrmClassifier(IcrmConfig(seed=3))
        for msg in disjoint_corpus.ham[:20] + disjoint_corpus.spam[:20]:
            verdict = process_message(clf.repertoire, msg, True, clf.config, clf.rng)
            assert verdict.score == pytest.approx(
                math.fsum(s for _, s in verdict.per_feature)
            )
            assert (verdict.label == SPAM) == (verdict.score <= 0.0)

    def test_determinism(self, disjoint_corpus):
        def run():
            clf = IcrmClassifier(IcrmConfig(seed=17))
            msgs = disjoint_corpus.ham[:30] + disjoint_corpus.spam[:30]
            clf.train(msgs)
            return (
                [clf.classify(m) for m in disjoint_corpus.ham[30:40]],
                clf.repertoire,
            )

        labels_a, rep_a = run()
        labels_b, rep_b = run()
        assert labels_a == labels_b
        assert rep_a == rep_b


class TestSnapshot:
    def test_round_trip_bit_identical_classifications(self, tmp_path, disjoint_corpus):
        clf = IcrmClassifier(IcrmConfig(seed=23))
        clf.train(disjoint_corpus.ham[:10] + disjoint_corpus.spam[:10])
        path = tmp_path / "state.json"
        clf.save(path)
        restored = IcrmClassifier.load(path)
        probe = disjoint_corpus.ham[10:20] + disjoint_corpus.spam[10:20]
        assert [clf.verdict(m).score for m in probe] == [
            restored.verdict(m).score for m in probe
        ]
        assert clf.repertoire == restored.repertoire

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
        with pytest.raises(SnapshotError):
            IcrmClassifier.load(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{{{{", encoding="utf-8")
        with pytest.raises(SnapshotError):
            IcrmClassifier.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            IcrmClassifier.load(tmp_path / "missing.json")

    def test_resume_equals_uninterrupted(self, tmp_path, protocol_corpus):
        msgs = [
            m
            for pair in zip(protocol_corpus.ham[:200], protocol_corpus.spam[:200])
            for m in pair
        ]
        straight = IcrmClassifier(IcrmConfig(seed=31))
        straight.train(msgs)

        first = IcrmClassifier(IcrmConfig(seed=31))
        first.train(msgs[:200])
        path = tmp_path / "mid.json"
        first.save(path)
        resumed = IcrmClassifier.load(path)
        resumed.train(msgs[200:])

        probe = protocol_corpus.ham[200:220] + protocol_corpus.spam[200:220]
        assert [straight.verdict(m).score for m in probe] == [
            resumed.verdict(m).score for m in probe
        ]


# populations at the edges a row may hold: signed zeros, subnormals, the
# least normal float and numbers near the largest
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 7e307, 1e308]


def test_exact_scores_are_score_feature_bit_for_bit():
    rows = [(e, r) for e, r in itertools.product(_EDGES, repeat=2)
            if math.isfinite(e + r)]
    # each row as one complex E + iR, as the kernel carries them
    scores, total = _exact_scores(np.array(rows).view(np.complex128).ravel())
    want = [score_feature(e, r) for e, r in rows]
    assert [s.hex() for s in scores] == [w.hex() for w in want]
    assert total.hex() == math.fsum(want).hex()
    zeros = [s.hex() for s, (e, r) in zip(scores, rows) if e == r == 0.0]
    assert zeros == ["0x0.0p+0"] * 4  # (±0.0, ±0.0) scores +0.0


def test_training_refuses_a_label_other_than_ham_or_spam_with_one_message():
    """ICRM's training calls, the message cycle itself and Naive Bayes
    training refuse an unknown label with the text of the one check they
    share, and train on nothing."""
    msg = make_message("eggs", body="alpha beta gamma")
    text = "cannot train on a 'eggs' message: labels are ham, spam"
    # the random sampler draws when a message has more than n features, so a
    # refusal after sampling would show in the generator's state
    clf = IcrmClassifier(IcrmConfig(n=2, feature_sampler="random"))
    cycle = (clf.repertoire, msg, True, clf.config, clf.rng)
    for train in (lambda: training_label(msg), lambda: nb_train([msg]),
                  lambda: clf.train([msg]), lambda: process_message(*cycle),
                  lambda: present_message(*cycle)):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            train()
    assert len(clf.repertoire) == 0
    fresh = IcrmClassifier(clf.config)
    assert clf.rng.bit_generator.state == fresh.rng.bit_generator.state
    # a message that does not train may carry any label
    assert clf.verdict(msg).per_feature == fresh.verdict(msg).per_feature
