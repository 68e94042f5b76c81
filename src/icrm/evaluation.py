"""Evaluation protocols and statistics.

Two harnesses are provided. The static protocol repeats train/test blocks
that advance through the corpus in timestamp order and reports mean and
standard deviation per metric over the runs. The dynamic protocol trains
once, classifies the remaining stream exactly once in order (the
cross-regulation classifier keeps learning online, Naive Bayes stays
frozen), and computes metrics over a sliding window together with
least-squares drift slopes for the false-positive and false-negative
proportions.

Spam counts as the positive class throughout; both protocols count with
the same running (tp, tn, fp, fn) totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import SPAM, Dataset, SplitError, block_counts, make_split, merge_by_ratio
from .model import IcrmClassifier, IcrmConfig
from .nbayes import NaiveBayesClassifier
from .ranges import RANGES, check_range
from .textprep import SAMPLE_CAP

METRIC_FIELDS = ("f_score", "accuracy", "precision", "recall", "pct_fp", "pct_fn")
_WINDOW_FIELDS = ("f_score", "accuracy", "pct_fp", "pct_fn")
TRAIN_PER_CLASS = 100  # messages of each class a classifier trains on


class EvalError(Exception):
    pass


def check_settings(settings: Mapping[str, object]) -> None:
    """Raise ValueError naming the first setting its :data:`RANGES` row refuses
    (other keys are not checked), or a balanced test block of one class."""
    for key, value in settings.items():
        if key in RANGES:
            check_range(RANGES, key, value)
    if {"test_size", "spam_ratio", "balance"} <= settings.keys():
        size, ratio = settings["test_size"], settings["spam_ratio"]
        ham, spam = block_counts(size, ratio)
        if _balancing(settings["balance"], ratio) and not ham * spam:
            raise ValueError(f"balanced counting needs both classes, but test_size "
                             f"{size} at spam_ratio {ratio} gives {ham} ham and "
                             f"{spam} spam")


def _balancing(balance: bool | None, spam_ratio: float) -> bool:
    """Whether counting is balanced: as set, or by default off a 0.5 ratio."""
    return spam_ratio != 0.5 if balance is None else balance


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class RunMetrics:
    f_score: float
    accuracy: float
    precision: float
    recall: float
    pct_fp: float
    pct_fn: float


@dataclass
class DriftSummary:
    slope: float        # per window index in dynamic reports
    intercept: float
    r_squared: float


@dataclass
class EvalReport:
    mode: str                       # "static" or "dynamic"
    classifier: str
    metrics: list[RunMetrics]
    window_starts: list[int] | None = None
    drift_fp: DriftSummary | None = None
    drift_fn: DriftSummary | None = None

    def series(self, metric: str) -> list[float]:
        return [getattr(m, metric) for m in self.metrics]

    def mean(self, metric: str) -> float:
        return _mean(self.series(metric))

    def sd(self, metric: str) -> float:
        return _sd(self.series(metric))


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _sd(values: Sequence[float]) -> float:
    """Sample standard deviation; 0 for a single observation."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics_from_counts(c: ConfusionCounts) -> RunMetrics:
    """Standard confusion-matrix metrics; zero denominators yield 0."""
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    f_score = _ratio(2 * precision * recall, precision + recall)
    return RunMetrics(
        f_score=f_score,
        accuracy=_ratio(c.tp + c.tn, c.total),
        precision=precision,
        recall=recall,
        pct_fp=_ratio(c.fp, c.fp + c.tn),
        pct_fn=_ratio(c.fn, c.fn + c.tp),
    )


def _totals(truth: np.ndarray, said: np.ndarray) -> np.ndarray:
    """Row i: the (tp, tn, fp, fn) totals over the first i (spam, called spam) pairs."""
    totals = np.zeros((len(truth) + 1, 4), np.int64)
    outcomes = [truth & said, ~truth & ~said, ~truth & said, truth & ~said]  # one-hot
    np.cumsum(np.stack(outcomes, 1), 0, out=totals[1:])
    return totals


def counts_from_records(records: Iterable[tuple[str, str]]) -> ConfusionCounts:
    """Tally (true_label, predicted_label) pairs; spam is positive."""
    spam = np.array([(t == SPAM, p == SPAM) for t, p in records], bool).reshape(-1, 2)
    return ConfusionCounts(*_totals(spam[:, 0], spam[:, 1])[-1].tolist())


def _classified(clf, stream: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Whether each message is spam, and whether ``clf`` calls it spam, in order."""
    truth = np.array([msg.label == SPAM for msg in stream], bool)
    said = np.array([clf.classify(msg) == SPAM for msg in stream], bool)
    return truth, said


# -- regression and paired comparison ----------------------------------


def linear_fit(y: Sequence[float]) -> DriftSummary:
    """Ordinary least squares of y against x = 0, 1, 2, ..."""
    if len(y) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(y)}")
    xs = np.arange(len(y), dtype=float)
    ys = np.asarray(y, dtype=float)
    mx = xs.mean()
    my = ys.mean()
    sxx = float(((xs - mx) ** 2).sum())
    ss_tot = float(((ys - my) ** 2).sum())
    if ss_tot == 0.0:
        # Constant series: slope 0 and, by convention, no explained variance.
        return DriftSummary(slope=0.0, intercept=float(my), r_squared=0.0)
    slope = float(((xs - mx) * (ys - my)).sum() / sxx)
    intercept = float(my - slope * mx)
    ss_res = float(((ys - (intercept + slope * xs)) ** 2).sum())
    return DriftSummary(slope=slope, intercept=intercept, r_squared=1.0 - ss_res / ss_tot)


def _t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer df >= 1; NaN passes through.

    p = 1 - A(t|df), where A is the finite cosine series in
    theta = atan(|t| / sqrt(df)) of Abramowitz & Stegun, Handbook of
    Mathematical Functions, 26.7.3 (odd df) and 26.7.4 (even df).
    """
    theta = math.atan(abs(t) / math.sqrt(df))
    cos = math.cos(theta)
    odd = df % 2
    term = cos if odd else 1.0
    series = 0.0
    for k in range(2 + odd, df + 1, 2):
        series += term
        term *= (k - 1) / k * cos * cos
    if odd:
        a = 2.0 / math.pi * (theta + math.sin(theta) * series)
    else:
        a = math.sin(theta) * series
    p = 1.0 - a
    # rounding can take A past 1 at large |t|; a NaN p fails the test and stays
    return 0.0 if p < 0.0 else p


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-tailed paired t-test; returns (t, p) with df = n - 1.

    The p-value is the Student t tail in closed form for the integer df
    (``_t_two_tailed_p``). Identical series give (0, 1); a constant
    nonzero difference gives an infinite t and p = 0.
    """
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return (0.0, 1.0)
        return (math.copysign(math.inf, mean), 0.0)
    t = mean / (sd / math.sqrt(n))
    return (t, _t_two_tailed_p(t, n - 1))


# -- classifier factories: one fresh classifier per run seed -----------


@dataclass
class IcrmFactory:
    config: IcrmConfig = field(default_factory=IcrmConfig)
    stopwords: frozenset[str] | None = None

    name = "icrm"

    def __call__(self, run_seed: int) -> IcrmClassifier:
        return IcrmClassifier(replace(self.config, seed=run_seed), self.stopwords)


@dataclass
class NbFactory:
    n: int = SAMPLE_CAP
    stopwords: frozenset[str] | None = None

    name = "nb"

    def __call__(self, run_seed: int) -> NaiveBayesClassifier:
        return NaiveBayesClassifier(self.n, self.stopwords)


def make_factory(kind: str, config: IcrmConfig, stopwords=None):
    if kind == "icrm":
        return IcrmFactory(config, stopwords)
    if kind == "nb":
        # the baseline always uses the deterministic first/last selection
        return NbFactory(config.n, stopwords)
    raise ValueError(f"unknown classifier kind {kind!r}")


# -- static protocol -----------------------------------------------------


def _balanced(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Positions left when the majority true class is down-sampled to the minority's."""
    minority, majority = sorted((np.flatnonzero(~truth), np.flatnonzero(truth)), key=len)
    chosen = rng.choice(len(majority), size=len(minority), replace=False)
    return np.concatenate([minority, majority[chosen]])


def eval_static(
    dataset: Dataset,
    factory,
    runs: int = 10,
    train_per_class: int = TRAIN_PER_CLASS,
    test_size: int = 200,
    spam_ratio: float = 0.5,
    shuffle_test: bool = False,
    seed: int = IcrmConfig.seed,
    balance: bool | None = None,
) -> EvalReport:
    """Repeated train/test blocks advancing by train_per_class per run.

    Run k trains a fresh classifier (seed + k) on per-class messages
    [k*tpc, (k+1)*tpc) and tests it on the following block at the
    requested spam ratio. ``balance`` (default: on for ratios other than
    0.5) restores a balanced evaluation set by seeded down-sampling of the
    majority class before counting; it refuses a test block that would
    hold no message of one class. The runs execute in order, in this
    process.
    """
    check_settings(locals())  # each parameter that RANGES names
    balance = _balancing(balance, spam_ratio)
    # Every split is made before any run executes, so a corpus that cannot
    # cover the schedule fails first.
    try:
        splits = [
            make_split(dataset, train_per_class, test_size, spam_ratio,
                       offset=k * train_per_class)
            for k in range(runs)
        ]
    except SplitError as exc:
        raise EvalError(f"corpus too small for {runs} runs: {exc}") from None
    metrics = []
    for k, split in enumerate(splits):
        run_seed = seed + k
        clf = factory(run_seed)
        clf.train(split.train)
        stream = split.test
        if shuffle_test:
            perm = np.random.default_rng([run_seed, 1]).permutation(len(stream))
            stream = [stream[int(i)] for i in perm]
        truth, said = _classified(clf, stream)
        if balance:
            keep = _balanced(truth, np.random.default_rng([run_seed, 2]))
            truth, said = truth[keep], said[keep]
        counts = ConfusionCounts(*_totals(truth, said)[-1].tolist())
        metrics.append(metrics_from_counts(counts))
    return EvalReport(
        mode="static", classifier=getattr(factory, "name", "?"), metrics=metrics
    )


# -- dynamic protocol ----------------------------------------------------


def eval_dynamic(
    dataset: Dataset,
    factory,
    train_per_class: int = TRAIN_PER_CLASS,
    window: int = 200,
    shift: int = 10,
    seed: int = IcrmConfig.seed,
) -> EvalReport:
    """Train once, then slide a metrics window over the remaining stream.

    Every validation message is classified exactly once, in order. Running
    totals of tp, tn, fp and fn are kept over the classified stream, and
    each window [s, s + window) takes its counts as the difference of the
    totals at its two ends, the integers ``counts_from_records`` would give
    for the span. Drift slopes for pct_fp and pct_fn are least-squares
    fits against the window index 0, 1, 2, ..., so a stream holding fewer
    than two windows is refused before the classifier trains.
    """
    check_settings(locals())  # each parameter that RANGES names
    try:
        train = make_split(dataset, train_per_class, 0).train
    except SplitError as exc:
        raise EvalError(f"corpus too small to train: {exc}") from None
    stream = merge_by_ratio(
        dataset.ham[train_per_class:], dataset.spam[train_per_class:]
    )
    starts = list(range(0, len(stream) - window + 1, shift))
    if len(starts) < 2:
        raise EvalError(
            f"validation stream of {len(stream)} messages holds {len(starts)} "
            f"window(s) of {window} at shift {shift}; at least 2 are needed"
        )
    clf = factory(seed)
    clf.train(train)
    totals = _totals(*_classified(clf, stream))
    ends = np.array(starts)
    metrics = [
        metrics_from_counts(ConfusionCounts(*counts))
        for counts in (totals[ends + window] - totals[ends]).tolist()
    ]
    report = EvalReport(
        mode="dynamic",
        classifier=getattr(factory, "name", "?"),
        metrics=metrics,
        window_starts=starts,
    )
    report.drift_fp = linear_fit(report.series("pct_fp"))
    report.drift_fn = linear_fit(report.series("pct_fn"))
    return report


# -- report emission -----------------------------------------------------


# The header rows of a summary and a t-test CSV, which ``icrm report`` reads.
SUMMARY_COLUMNS = ("metric", "mean", "sd", "slope", "r_squared")
TTEST_COLUMNS = ("metric", "t", "p")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_csv(path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in (header, *rows):
            fh.write(",".join(row) + "\n")


def write_runs_csv(report: EvalReport, path) -> None:
    """Per-run (static) or per-window (dynamic) machine-readable series."""
    if report.mode == "static":
        index, names, keys = "run", METRIC_FIELDS, range(len(report.metrics))
    else:
        index, names, keys = "window_start", _WINDOW_FIELDS, report.window_starts
    rows = (
        (str(k), *(_fmt(getattr(m, name)) for name in names))
        for k, m in zip(keys, report.metrics)
    )
    _write_csv(path, (index, *names), rows)


def write_summary_csv(report: EvalReport, path) -> None:
    """Means and deviations per metric, plus drift slopes in dynamic mode."""
    drift = {"pct_fp": report.drift_fp, "pct_fn": report.drift_fn}
    rows = []
    for name in METRIC_FIELDS:
        summary = drift.get(name) if report.mode == "dynamic" else None
        fit = (_fmt(summary.slope), _fmt(summary.r_squared)) if summary else ("", "")
        rows.append((name, _fmt(report.mean(name)), _fmt(report.sd(name)), *fit))
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_ttest_csv(rows: list[tuple[str, float, float]], path) -> None:
    _write_csv(path, TTEST_COLUMNS, ((n, _fmt(t), _fmt(p)) for n, t, p in rows))


def compare_reports(a: EvalReport, b: EvalReport) -> list[tuple[str, float, float]]:
    """Paired t-tests of the per-run F-score and accuracy series."""
    rows = []
    for name in ("f_score", "accuracy"):
        t, p = paired_t_test(a.series(name), b.series(name))
        rows.append((name, t, p))
    return rows


_DISPLAY = {
    "f_score": "F-score",
    "accuracy": "Accuracy",
    "precision": "Precision",
    "recall": "Recall",
    "pct_fp": "%FP",
    "pct_fn": "%FN",
}


def format_summary_table(reports: list[EvalReport], dataset_name: str = "") -> str:
    """Human-readable mean +/- sd table, one column per classifier."""
    mode = reports[0].mode
    count = len(reports[0].metrics)
    unit = "runs" if mode == "static" else "windows"
    lines = [f"{mode} evaluation of {dataset_name or 'dataset'} ({count} {unit})"]
    header = f"{'metric':<12}" + "".join(f"{r.classifier:<20}" for r in reports)
    lines.append(header)
    for name in METRIC_FIELDS:
        row = f"{_DISPLAY[name]:<12}"
        for r in reports:
            row += f"{r.mean(name):.2f} +/- {r.sd(name):.2f}    "
        lines.append(row.rstrip())
    if mode == "dynamic":
        for name, attr in (("pct_fp", "drift_fp"), ("pct_fn", "drift_fn")):
            row = f"{'slope ' + _DISPLAY[name]:<12}"
            for r in reports:
                d = getattr(r, attr)
                row += f"{d.slope:+.6f} (R2 {d.r_squared:.2f})    "
            lines.append(row.rstrip())
    return "\n".join(lines)


def format_ttest_block(rows: list[tuple[str, float, float]], a: str, b: str) -> str:
    parts = [f"paired t-test {a} vs {b}:"]
    for name, t, p in rows:
        parts.append(f"  {_DISPLAY[name]:<10} t = {t:+.3f}  p = {p:.3f}")
    return "\n".join(parts)
