"""Metrics, regression, t-test, and both evaluation protocols."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats
from scipy.special import betainc

from icrm import evaluation
from icrm.corpus import HAM, SPAM
from icrm.evaluation import (
    ConfusionCounts,
    EvalError,
    IcrmFactory,
    NbFactory,
    counts_from_records,
    eval_dynamic,
    eval_static,
    linear_fit,
    metrics_from_counts,
    paired_t_test,
)
from icrm.model import IcrmConfig
from icrm.synth import synthetic_dataset

from conftest import (
    AllHamFactory,
    CoinFlipFactory,
    PerfectFactory,
    QuotaDegradingFactory,
)


class _RandomVerdicts:
    """Untrained verdicts drawn from ham, spam and a third label; keeps
    each (truth, verdict) pair in stream order."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.records = []

    def train(self, msgs):
        pass

    def classify(self, msg):
        verdict = (HAM, SPAM, "junk")[int(self.rng.integers(3))]
        self.records.append((msg.label, verdict))
        return verdict


class UncalledFactory:
    """A factory whose use fails the test: nothing may be trained."""

    name = "uncalled"

    def __call__(self, run_seed):
        raise AssertionError("a classifier was built")


def _metrics_oracle(tp, tn, fp, fn):
    """Recompute the footnote formulas in exact rational arithmetic."""
    def ratio(num, den):
        return Fraction(num, den) if den else Fraction(0)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f_score = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else Fraction(0)
    )
    return {
        "precision": precision,
        "recall": recall,
        "f_score": f_score,
        "accuracy": ratio(tp + tn, tp + tn + fp + fn),
        "pct_fp": ratio(fp, fp + tn),
        "pct_fn": ratio(fn, fn + tp),
    }


class TestMetrics:
    def test_worked_example(self):
        m = metrics_from_counts(ConfusionCounts(tp=90, tn=95, fp=5, fn=10))
        assert m.precision == pytest.approx(90 / 95)
        assert m.recall == pytest.approx(0.9)
        assert m.f_score == pytest.approx(0.923, abs=5e-4)
        assert m.accuracy == pytest.approx(0.925)

    def test_only_true_negatives(self):
        m = metrics_from_counts(ConfusionCounts(tn=7))
        assert m.accuracy == 1.0
        assert m.f_score == 0.0

    def test_all_zero_no_division_fault(self):
        m = metrics_from_counts(ConfusionCounts())
        assert m.accuracy == 0.0
        assert m.precision == 0.0

    def test_against_rational_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 200, size=4))
            got = metrics_from_counts(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            want = _metrics_oracle(tp, tn, fp, fn)
            for name, exact in want.items():
                assert getattr(got, name) == pytest.approx(float(exact), abs=1e-15)

    def test_counts_from_records(self):
        records = [(SPAM, SPAM), (SPAM, HAM), (HAM, SPAM), (HAM, HAM), (HAM, HAM)]
        c = counts_from_records(records)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 2)
        assert c.total == len(records)


def _normal_equations(y):
    """Independent least-squares route via the normal equations."""
    x = np.arange(len(y), dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.array([[len(x), x.sum()], [x.sum(), (x * x).sum()]])
    b = np.array([y.sum(), (x * y).sum()])
    intercept, slope = np.linalg.solve(A, b)
    residuals = y - (intercept + slope * x)
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1 - (residuals**2).sum() / ss_tot if ss_tot else 0.0
    return slope, intercept, r2


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([1, 2, 3, 4])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_convention(self):
        fit = linear_fit([5, 5, 5])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert fit.intercept == 5.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            linear_fit([1.0])

    def test_against_normal_equations(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            length = int(rng.integers(2, 300))
            y = rng.normal(size=length) * rng.uniform(0.1, 10)
            fit = linear_fit(y)
            slope, intercept, r2 = _normal_equations(y)
            assert fit.slope == pytest.approx(slope, abs=1e-10)
            assert fit.intercept == pytest.approx(intercept, abs=1e-10)
            assert fit.r_squared == pytest.approx(r2, abs=1e-10)


class TestPairedTTest:
    def test_identical_series(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_constant_nonzero_difference(self):
        t, p = paired_t_test([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        assert math.isinf(t) and t > 0
        assert p == 0.0

    def test_classic_paired_example(self):
        # Frozen reference: the classic extra-sleep differences, df = 9.
        a = [1.2, 2.4, 1.3, 1.3, 0.0, 1.0, 1.8, 0.8, 4.6, 1.4]
        b = [0.0] * 10
        t, p = paired_t_test(a, b)
        assert t == pytest.approx(4.0621, abs=1e-3)
        assert p == pytest.approx(0.00283, abs=1e-3)

    def test_integer_constructed_t(self):
        # mean 1, sample sd 1, n 9: t is exactly 3.0 with df 8
        a = [2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        t, p = paired_t_test(a, [0.0] * 9)
        assert t == pytest.approx(3.0, abs=1e-12)
        assert p == pytest.approx(0.017072, abs=1e-3)

    def test_against_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n)
            t, p = paired_t_test(a, b)
            ref = scipy_stats.ttest_rel(a, b)
            assert t == pytest.approx(ref.statistic, abs=1e-9)
            assert p == pytest.approx(ref.pvalue, abs=1e-9)

    def test_nan_series_gives_nan_p(self):
        # a clamp written as max(0.0, 1 - A) would report NaN as p = 0
        t, p = paired_t_test([1.0, math.nan, 3.0, 2.5], [0.0] * 4)
        assert math.isnan(t) and math.isnan(p)
        for df in (1, 2, 3, 4):
            assert math.isnan(evaluation._t_two_tailed_p(math.nan, df))
            assert math.isnan(betainc(df / 2.0, 0.5, math.nan))

    def test_report_digits_match_betainc(self):
        # the p the report prints, against the incomplete beta form it replaced
        grid = [*np.linspace(0.0, 12.0, 241), 15.0, 20.0, 50.0, 100.0, 1e3, 1e4, 1e6]
        for df in range(1, 100):
            for t in grid:
                ref = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
                p = evaluation._t_two_tailed_p(t, df)
                assert evaluation._fmt(p) == evaluation._fmt(ref), (t, df)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])


@settings(max_examples=2000, deadline=None)
@given(
    t=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    df=st.integers(min_value=1, max_value=999),
)
def test_t_tail_matches_betainc(t, df):
    p = evaluation._t_two_tailed_p(t, df)
    # I_x(df/2, 1/2) at x = df/(df+t^2) is ill-conditioned as x -> 1, where
    # rounding x alone moves it by ~1e-8 at df 999; there the symmetric form
    # 1 - I_{1-x}(1/2, df/2) is the accurate reference
    t2 = t * t
    if t2 >= df:
        ref = float(betainc(df / 2.0, 0.5, df / (df + t2)))
    else:
        ref = 1.0 - float(betainc(0.5, df / 2.0, t2 / (df + t2)))
    assert 0.0 <= p <= 1.0
    assert abs(p - ref) <= 1e-9


@pytest.mark.parametrize("protocol, settings, named", [
    (eval_static, {"runs": 0}, "runs"),
    (eval_static, {"train_per_class": 0}, "train_per_class"),
    (eval_static, {"test_size": 0}, "test_size"),
    (eval_static, {"spam_ratio": 1.5}, "spam_ratio"),
    (eval_static, {"spam_ratio": math.nan}, "spam_ratio"),
    (eval_dynamic, {"shift": 0}, "shift"),
    (eval_dynamic, {"window": -5}, "window"),
    (eval_dynamic, {"window": 0}, "window"),
    (eval_dynamic, {"train_per_class": -3}, "train_per_class"),
    (eval_static, {"runs": 2.5}, "runs"),
    (eval_static, {"test_size": 20.0}, "test_size"),
    (eval_dynamic, {"window": "200"}, "window"),
    (eval_static, {"test_size": 10**400}, "test_size"),
    (eval_static, {"shuffle_test": 1}, "shuffle_test"),
    (eval_static, {"balance": "yes"}, "balance"),
    (eval_static, {"seed": -1}, "seed"),
    (eval_dynamic, {"seed": True}, "seed"),
], ids=[
    "static-runs-0", "static-train-per-class-0", "static-test-size-0",
    "static-spam-ratio-1.5", "static-spam-ratio-nan",
    "dynamic-shift-0", "dynamic-window-negative", "dynamic-window-0",
    "dynamic-train-per-class-negative", "static-runs-float", "static-test-size-float",
    "dynamic-window-str", "static-test-size-huge", "static-shuffle-test-int",
    "static-balance-str", "static-seed-negative", "dynamic-seed-bool",
])
def test_protocols_reject_out_of_range_settings(protocol_corpus, protocol, settings, named):
    with pytest.raises(ValueError, match=f"^{named} must be"):
        protocol(protocol_corpus, AllHamFactory(), **settings)


@pytest.mark.parametrize("settings", [
    {"test_size": 3, "spam_ratio": 0.1},                   # 0 spam, balanced by default
    {"test_size": 3, "spam_ratio": 0.9},                   # 0 ham
    {"test_size": 1, "spam_ratio": 0.5, "balance": True},  # 1 spam, 0 ham
    {"test_size": 3, "spam_ratio": 0.1, "balance": True},
], ids=["ratio-0.1-default", "ratio-0.9-default", "size-1-balanced", "ratio-0.1-balanced"])
def test_balanced_counting_of_a_one_class_block_is_refused(protocol_corpus, settings):
    """Balancing down-samples to the minority class, so a test block that
    holds no message of one class would count nothing: refused before any
    classifier is built."""
    with pytest.raises(ValueError, match="test_size .* spam_ratio"):
        eval_static(protocol_corpus, UncalledFactory(), runs=2, **settings)
    with pytest.raises(ValueError, match="test_size .* spam_ratio"):
        evaluation.check_settings({"balance": None, **settings})


def test_unbalanced_one_class_block_still_runs(protocol_corpus):
    """Without balancing, a block of three ham is counted as it is."""
    report = eval_static(
        protocol_corpus, AllHamFactory(), runs=2, test_size=3, spam_ratio=0.1,
        balance=False,
    )
    assert report.series("accuracy") == [1.0, 1.0]
    assert report.series("f_score") == [0.0, 0.0]


class TestEvalStatic:
    def test_perfect_stub(self, protocol_corpus):
        report = eval_static(protocol_corpus, PerfectFactory(), runs=10)
        assert report.mean("f_score") == 1.0
        assert report.mean("accuracy") == 1.0
        assert report.sd("accuracy") == 0.0
        assert len(report.metrics) == 10

    def test_coin_flip_stub(self, protocol_corpus):
        report = eval_static(protocol_corpus, CoinFlipFactory(), runs=10)
        assert report.mean("accuracy") == pytest.approx(0.5, abs=0.05)

    def test_insufficient_corpus_fails_before_running(self):
        tiny = synthetic_dataset(n_ham=150, n_spam=150, seed=2)
        with pytest.raises(EvalError, match="^corpus too small for 10 runs"):
            eval_static(tiny, UncalledFactory(), runs=10)

    def test_bit_reproducible(self, disjoint_corpus):
        r1 = eval_static(disjoint_corpus, IcrmFactory(), runs=2, seed=9)
        r2 = eval_static(disjoint_corpus, IcrmFactory(), runs=2, seed=9)
        assert r1 == r2

    def test_shuffle_flag_changes_stream_not_determinism(self, disjoint_corpus):
        a = eval_static(
            disjoint_corpus, IcrmFactory(), runs=2, seed=9, shuffle_test=True
        )
        b = eval_static(
            disjoint_corpus, IcrmFactory(), runs=2, seed=9, shuffle_test=True
        )
        assert a == b

    def test_ratio_balancing_subsample(self, protocol_corpus):
        # At 70% spam the 140-message majority is reduced to 60 for counting.
        counted = []

        class _CountingStub:
            def train(self, msgs):
                pass

            def classify(self, msg):
                counted.append(msg)
                return msg.label

        class _Factory:
            name = "counting"

            def __call__(self, seed):
                return _CountingStub()

        report = eval_static(
            protocol_corpus, _Factory(), runs=1, spam_ratio=0.7, balance=True
        )
        assert len(counted) == 200  # every test message is classified once
        assert report.mean("accuracy") == 1.0

    def test_balanced_counts_size(self, protocol_corpus):
        # An all-ham stub at 70% spam: balanced counting sees 60 + 60 messages,
        # so accuracy is exactly the ham half.
        report = eval_static(
            protocol_corpus, AllHamFactory(), runs=1, spam_ratio=0.7, balance=True
        )
        assert report.mean("accuracy") == pytest.approx(0.5)
        assert report.mean("pct_fn") == 1.0
        assert report.mean("pct_fp") == 0.0


class TestEvalDynamic:
    def test_window_count_formula(self, protocol_corpus):
        report = eval_dynamic(
            protocol_corpus, AllHamFactory(), train_per_class=100, window=200, shift=10
        )
        stream = 2800
        assert len(report.metrics) == (stream - 200) // 10 + 1 == 261
        assert report.window_starts[0] == 0
        assert report.window_starts[-1] == 2600

    def test_all_ham_stub_rates_and_flat_drift(self, protocol_corpus):
        report = eval_dynamic(protocol_corpus, AllHamFactory(), window=200, shift=10)
        assert all(m.pct_fn == 1.0 for m in report.metrics)
        assert all(m.pct_fp == 0.0 for m in report.metrics)
        assert report.drift_fn.slope == 0.0
        assert report.drift_fn.r_squared == 0.0
        assert report.drift_fp.slope == 0.0

    def test_planted_degradation_slope_recovered(self, protocol_corpus):
        # per-message error rate climbing 0.0005 per window index (shift 10)
        factory = QuotaDegradingFactory(base=0.05, slope=0.0005 / 10)
        report = eval_dynamic(protocol_corpus, factory, window=200, shift=10)
        # errors land on both classes; the combined error proportion per
        # window tracks the planted line, split between fp and fn
        combined = [0.5 * (m.pct_fp + m.pct_fn) for m in report.metrics]
        fit = linear_fit(combined)
        assert fit.slope == pytest.approx(0.0005, rel=0.05)

    def test_window_larger_than_stream(self):
        tiny = synthetic_dataset(n_ham=120, n_spam=120, seed=4)
        with pytest.raises(EvalError):
            eval_dynamic(tiny, AllHamFactory(), train_per_class=100, window=200)

    @pytest.mark.parametrize("window, shift", [
        (100, 1), (101, 1), (200, 10), (90, 20),
    ], ids=["one-window", "window-over-stream", "window-far-over-stream",
            "shift-past-second-window"])
    def test_fewer_than_two_windows_fail_before_training(self, window, shift):
        # 50 + 50 messages follow the 10 + 10 training messages
        tiny = synthetic_dataset(n_ham=60, n_spam=60, seed=4)
        with pytest.raises(
            EvalError, match=f"^validation stream of 100 messages .* {window} at shift {shift};"
        ):
            eval_dynamic(tiny, UncalledFactory(), train_per_class=10,
                         window=window, shift=shift)

    @pytest.mark.parametrize("window, shift", [
        (10, 3), (7, 5), (1, 1), (50, 7), (99, 1),
    ])
    def test_window_counts_equal_counts_over_each_span(self, window, shift):
        """Each window's metrics are those of its records counted alone, with
        a verdict that is neither ham nor spam among them. (10, 3) and
        (99, 1) end their last window on the stream's last message."""
        tiny = synthetic_dataset(n_ham=60, n_spam=60, seed=4)
        stub = _RandomVerdicts(seed=window * 1000 + shift)
        stream = 100
        report = eval_dynamic(tiny, lambda _: stub, train_per_class=10,
                              window=window, shift=shift)
        records = stub.records
        assert len(records) == stream
        assert {p for _, p in records} == {HAM, SPAM, "junk"}
        starts = list(range(0, stream - window + 1, shift))
        assert report.window_starts == starts
        assert report.metrics == [
            metrics_from_counts(counts_from_records(records[s : s + window]))
            for s in starts
        ]

    def test_insufficient_training(self):
        tiny = synthetic_dataset(n_ham=50, n_spam=50, seed=4)
        with pytest.raises(EvalError):
            eval_dynamic(tiny, AllHamFactory(), train_per_class=100)

    def test_icrm_learns_online_nb_frozen(self, disjoint_corpus):
        factory = IcrmFactory(IcrmConfig())
        clf = factory(1)
        clf.train(disjoint_corpus.ham[:10] + disjoint_corpus.spam[:10])
        before = {k: v for k, v in clf.repertoire.items()}
        clf.classify(disjoint_corpus.ham[20])
        assert clf.repertoire != before  # populations moved: online learning

        nb = NbFactory()(1)
        nb.train(disjoint_corpus.ham[:10] + disjoint_corpus.spam[:10])
        model_before = nb.model
        nb.classify(disjoint_corpus.ham[20])
        assert nb.model == model_before


def test_protocols_reuse_memoized_messages():
    """Reports on a dataset whose messages hold samples equal fresh ones."""
    def corpus():
        return synthetic_dataset(n_ham=300, n_spam=300, shared_vocab=60, seed=21)

    shared = corpus()
    custom = frozenset(f"hamw{i:03d}" for i in range(0, 200, 3)) | {"bothw007"}
    settings = [(50, None), (10, None), (50, custom), (50, None)]

    def reports(dataset, n, stopwords):
        out = []
        for kind in ("icrm", "nb"):
            factory = evaluation.make_factory(kind, IcrmConfig(n=n), stopwords)
            out.append(eval_static(dataset, factory, runs=2, train_per_class=50,
                                   test_size=100, seed=3))
            out.append(eval_dynamic(dataset, factory, train_per_class=50,
                                    window=100, shift=25, seed=3))
        return out

    for n, stopwords in settings:
        assert reports(shared, n, stopwords) == reports(corpus(), n, stopwords)
