"""Evaluation protocols and statistics.

Two harnesses are provided. The static protocol repeats train/test blocks
that advance through the corpus in timestamp order and reports mean and
standard deviation per metric over the runs. The dynamic protocol trains
once, classifies the remaining stream exactly once in order (the
cross-regulation classifier keeps learning online, Naive Bayes stays
frozen), and computes metrics over a sliding window together with
least-squares drift slopes for the false-positive and false-negative
proportions.

Spam counts as the positive class throughout.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .corpus import HAM, SPAM, Dataset, make_split, merge_by_ratio
from .model import IcrmClassifier, IcrmConfig
from .nbayes import NaiveBayesClassifier
from .textprep import SAMPLE_CAP, SAMPLERS

METRIC_FIELDS = ("f_score", "accuracy", "precision", "recall", "pct_fp", "pct_fn")
_WINDOW_FIELDS = ("f_score", "accuracy", "pct_fp", "pct_fn")


class EvalError(Exception):
    pass


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


def counts_from_records(records: Iterable[tuple[str, str]]) -> ConfusionCounts:
    """Tally (true_label, predicted_label) pairs; spam is positive."""
    c = ConfusionCounts()
    for truth, predicted in records:
        if truth == SPAM:
            if predicted == SPAM:
                c.tp += 1
            else:
                c.fn += 1
        else:
            if predicted == SPAM:
                c.fp += 1
            else:
                c.tn += 1
    return c


# -- regression and paired comparison ----------------------------------


def _ols(x: Sequence[float], y: Sequence[float]) -> DriftSummary:
    xs = np.asarray(x, dtype=float)
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


def linear_fit(y: Sequence[float]) -> DriftSummary:
    """Ordinary least squares of y against x = 0, 1, 2, ..."""
    if len(y) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(y)}")
    return _ols(range(len(y)), y)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-tailed paired t-test; returns (t, p) with df = n - 1.

    The p-value comes from the Student t distribution via the regularized
    incomplete beta function. Identical series give (0, 1); a constant
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
    # scipy.special costs more to import than the rest of the package, and
    # only the t-test needs it
    from scipy.special import betainc

    t = mean / (sd / math.sqrt(n))
    df = n - 1
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return (t, p)


# -- classifier factories (picklable, for parallel runs) ----------------


@dataclass
class IcrmFactory:
    config: IcrmConfig = field(default_factory=IcrmConfig)
    stopwords: frozenset[str] | None = None
    sampler: str = SAMPLERS[0]

    name = "icrm"

    def __call__(self, run_seed: int) -> IcrmClassifier:
        return IcrmClassifier(
            replace(self.config, seed=run_seed), self.stopwords, self.sampler
        )


@dataclass
class NbFactory:
    n: int = SAMPLE_CAP
    stopwords: frozenset[str] | None = None

    name = "nb"

    def __call__(self, run_seed: int) -> NaiveBayesClassifier:
        return NaiveBayesClassifier(self.n, self.stopwords)


def make_factory(kind: str, config: IcrmConfig, stopwords=None, sampler=SAMPLERS[0]):
    if kind == "icrm":
        return IcrmFactory(config, stopwords, sampler)
    if kind == "nb":
        # the baseline always uses the deterministic first/last selection
        return NbFactory(config.n, stopwords)
    raise ValueError(f"unknown classifier kind {kind!r}")


# -- static protocol -----------------------------------------------------


def _balanced_records(
    records: list[tuple[str, str]], rng: np.random.Generator
) -> list[tuple[str, str]]:
    """Down-sample the majority true class to the minority count."""
    ham_idx = [i for i, (truth, _) in enumerate(records) if truth == HAM]
    spam_idx = [i for i, (truth, _) in enumerate(records) if truth == SPAM]
    if len(ham_idx) == len(spam_idx):
        return records
    minority, majority = sorted((ham_idx, spam_idx), key=len)
    chosen = rng.choice(len(majority), size=len(minority), replace=False)
    keep = sorted(minority + [majority[int(i)] for i in chosen])
    return [records[i] for i in keep]


def _static_run(
    dataset: Dataset, factory, k: int, *, train_per_class: int, test_size: int,
    spam_ratio: float, shuffle_test: bool, balance: bool, seed: int,
) -> RunMetrics:
    split = make_split(
        dataset, train_per_class, test_size, spam_ratio, offset=k * train_per_class
    )
    run_seed = seed + k
    clf = factory(run_seed)
    clf.train(split.train)
    stream = split.test
    if shuffle_test:
        perm = np.random.default_rng([run_seed, 1]).permutation(len(stream))
        stream = [stream[int(i)] for i in perm]
    records = [(msg.label, clf.classify(msg)) for msg in stream]
    if balance:
        records = _balanced_records(records, np.random.default_rng([run_seed, 2]))
    return metrics_from_counts(counts_from_records(records))


def eval_static(
    dataset: Dataset,
    factory,
    runs: int = 10,
    train_per_class: int = 100,
    test_size: int = 200,
    spam_ratio: float = 0.5,
    shuffle_test: bool = False,
    seed: int = 42,
    balance: bool | None = None,
    jobs: int = 1,
) -> EvalReport:
    """Repeated train/test blocks advancing by train_per_class per run.

    Run k trains on per-class messages [k*tpc, (k+1)*tpc) and tests on the
    following block at the requested spam ratio. ``balance`` (default: on
    for ratios other than 0.5) restores a balanced evaluation set by
    seeded down-sampling of the majority class before counting.
    """
    if balance is None:
        balance = spam_ratio != 0.5
    # Fail before any run executes if the corpus cannot cover the schedule.
    try:
        make_split(
            dataset, train_per_class, test_size, spam_ratio,
            offset=(runs - 1) * train_per_class,
        )
    except Exception as exc:
        raise EvalError(f"corpus too small for {runs} runs: {exc}") from None
    run = partial(
        _static_run, dataset, factory, train_per_class=train_per_class,
        test_size=test_size, spam_ratio=spam_ratio, shuffle_test=shuffle_test,
        balance=balance, seed=seed,
    )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            metrics = list(pool.map(run, range(runs)))
    else:
        metrics = list(map(run, range(runs)))
    return EvalReport(
        mode="static", classifier=getattr(factory, "name", "?"), metrics=metrics
    )


# -- dynamic protocol ----------------------------------------------------


def eval_dynamic(
    dataset: Dataset,
    factory,
    train_per_class: int = 100,
    window: int = 200,
    shift: int = 10,
    seed: int = 42,
) -> EvalReport:
    """Train once, then slide a metrics window over the remaining stream.

    Every validation message is classified exactly once, in order; window
    metrics are recomputed over each span [s, s + window). Drift slopes
    for pct_fp and pct_fn are least-squares fits against the window index
    0, 1, 2, ...
    """
    for label in (HAM, SPAM):
        if len(dataset.by_label(label)) < train_per_class:
            raise EvalError(
                f"class {label!r}: need {train_per_class} training messages, "
                f"have {len(dataset.by_label(label))}"
            )
    clf = factory(seed)
    clf.train(
        merge_by_ratio(dataset.ham[:train_per_class], dataset.spam[:train_per_class])
    )
    stream = merge_by_ratio(
        dataset.ham[train_per_class:], dataset.spam[train_per_class:]
    )
    if window > len(stream):
        raise EvalError(
            f"window {window} exceeds validation stream length {len(stream)}"
        )
    records = [(msg.label, clf.classify(msg)) for msg in stream]
    starts = list(range(0, len(records) - window + 1, shift))
    metrics = [
        metrics_from_counts(counts_from_records(records[s : s + window]))
        for s in starts
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
    _write_csv(path, ("metric", "mean", "sd", "slope", "r_squared"), rows)


def write_ttest_csv(rows: list[tuple[str, float, float]], path) -> None:
    _write_csv(path, ("metric", "t", "p"), ((n, _fmt(t), _fmt(p)) for n, t, p in rows))


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
