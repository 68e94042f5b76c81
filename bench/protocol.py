"""One measured pass of the evaluation protocols, in a fresh interpreter.

    python3 bench/protocol.py --src SRC --corpus FILE --work DIR
        [--death-rate R] [--trace | --setup-only] --spawned T MESSAGE_FILE...

``--spawned`` is the parent's ``time.perf_counter()`` just before it
started this process (the clock is system-wide), so set-up counts
interpreter start-up, ``import icrm``, the stopword list and reading the
corpus: everything a user of ``icrm eval`` waits for before the first
message. The pass then runs, in order:

1. ``eval_static`` for icrm, then nb (10 runs, paper defaults);
2. ``eval_dynamic`` for icrm, then nb (window 200, shift 10), timing every
   icrm ``classify`` call;
3. ``save`` of the dynamic icrm state, then the in-process command
   ``icrm classify STATE MESSAGE`` on every held-out message;
4. the report CSVs of ``icrm eval``, hashed.

It checks every verdict and output on the way and prints one JSON object
with raw times, times scaled by the speed probe (see ``calibration.py``),
exact counts and the checks' tally. With ``--trace`` the probe is off and
the object also holds the per-layer metrics of ``tracing.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path

from calibration import Probe

RUNS = 10
TRAIN_PER_CLASS = 100
WINDOW = 200
SHIFT = 10
LABELS = ("ham", "spam")


class Tally:
    """Operations attempted and failed: messages, calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class CheckedFactory:
    """Classifier factory that counts messages and checks every label.

    With ``latencies`` set, each ``classify`` call is timed into it as
    ``(seconds, probe mark)``, with speed samples held off for the length
    of the call.
    """

    def __init__(self, factory, tally: Tally, probe: Probe,
                 latencies: list | None = None):
        self.factory = factory
        self.name = factory.name
        self.tally = tally
        self.probe = probe
        self.latencies = latencies
        self.messages = 0
        self.last = None

    def __call__(self, run_seed: int):
        self.last = _CheckedClassifier(self.factory(run_seed), self)
        return self.last


class _CheckedClassifier:
    def __init__(self, inner, owner: CheckedFactory):
        self.inner = inner
        self.owner = owner

    def train(self, messages) -> None:
        self.owner.messages += len(messages)
        self.inner.train(messages)

    def classify(self, msg) -> str:
        owner = self.owner
        if owner.latencies is None:
            label = self.inner.classify(msg)
        else:
            probe = owner.probe
            with probe.held():
                mark, t0 = probe.mark(), probe.clock()
                label = self.inner.classify(msg)
                owner.latencies.append((probe.clock() - t0, mark))
        owner.messages += 1
        owner.tally.check(label in LABELS, f"verdict {label!r} for {msg.id}")
        return label


def percentile_beyond(samples: list[float], beyond: int) -> float:
    """The sorted sample with exactly ``beyond`` samples above it."""
    ordered = sorted(samples)
    return ordered[len(ordered) - beyond - 1]


def _hash_dir(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        digest.update(file.name.encode())
        digest.update(b"\0")
        digest.update(file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def setup(src: Path, corpus_path: Path, tracer=None):
    """What a user waits for before the first message: import and read."""
    sys.path.insert(0, str(src))
    import icrm  # noqa: F401
    from icrm import corpus
    from icrm.textprep import default_stopwords

    if tracer is not None:
        tracer.install()
    default_stopwords()
    return corpus.read_canonical(corpus_path)


def _write_reports(evaluation, reports: Path, static: tuple, dynamic: tuple) -> str:
    """Write the CSVs ``icrm eval ... both`` writes and return their hash."""
    reports.mkdir(parents=True, exist_ok=True)
    for old in reports.iterdir():
        old.unlink()
    for mode, pair in (("static", static), ("dynamic", dynamic)):
        for report in pair:
            stem = f"{mode}_{report.classifier}"
            evaluation.write_runs_csv(report, reports / f"{stem}.csv")
            evaluation.write_summary_csv(report, reports / f"{stem}_summary.csv")
        evaluation.write_ttest_csv(
            evaluation.compare_reports(*pair), reports / f"{mode}_ttest.csv"
        )
    return _hash_dir(reports)


def run_pass(src: Path, corpus_path: Path, messages: list[Path], work: Path,
             spawned: float, probe: Probe, death_rate: float = 0.0,
             tracer=None, runs: int = RUNS) -> dict:
    """Run the protocol steps once and return timings, counts and checks.

    ``probe`` must already run, unless ``tracer`` is given; then no scaled
    times are reported.
    """
    dataset = setup(src, corpus_path, tracer)
    setup_end, setup_mark = probe.clock(), probe.mark()
    work.mkdir(parents=True, exist_ok=True)
    from icrm import cli, evaluation
    from icrm.model import IcrmConfig

    tally = Tally()
    cfg = IcrmConfig(death_rate=death_rate)
    latencies: list[tuple[float, int]] = []

    def factory(kind, timed=None):
        return CheckedFactory(evaluation.make_factory(kind, cfg), tally, probe, timed)

    icrm_static, nb_static = factory("icrm"), factory("nb")
    icrm_dynamic, nb_dynamic = factory("icrm", latencies), factory("nb")

    clock, marks = [], []

    def boundary():
        clock.append(probe.clock())
        marks.append(probe.mark())

    boundary()
    static_icrm = evaluation.eval_static(dataset, icrm_static, runs=runs)
    boundary()
    static_nb = evaluation.eval_static(dataset, nb_static, runs=runs)
    boundary()
    dynamic_icrm = evaluation.eval_dynamic(dataset, icrm_dynamic, window=WINDOW, shift=SHIFT)
    boundary()
    dynamic_nb = evaluation.eval_dynamic(dataset, nb_dynamic, window=WINDOW, shift=SHIFT)
    boundary()

    icrm_clf = icrm_dynamic.last.inner
    state = work / "state.json"
    icrm_clf.save(state)
    commands: list[tuple[float, int]] = []
    verdicts = []
    for message in messages:
        out = io.StringIO()
        mark = probe.mark()
        probe.sample()  # the commands are short: one speed sample each
        with probe.held(), contextlib.redirect_stdout(out):
            t0 = probe.clock()
            code = cli.main(["classify", str(state), str(message)])
            commands.append((probe.clock() - t0, mark))
        tally.check(code == 0, f"classify {message.name} exited {code}")
        first = out.getvalue().partition("\n")[0]
        label, _, score = first.partition(" ")
        try:
            finite = math.isfinite(float(score))
        except ValueError:
            finite = False
        tally.check(label in LABELS and finite, f"classify {message.name} printed {first!r}")
        verdicts.append(f"{message.name} {first}")
    csv_sha256 = _write_reports(
        evaluation, work / "reports", (static_icrm, static_nb), (dynamic_icrm, dynamic_nb)
    )

    stream = len(dataset.ham) + len(dataset.spam) - 2 * TRAIN_PER_CLASS
    tally.check(len(latencies) == stream, f"{len(latencies)} timed verdicts, expected {stream}")
    for report in (static_icrm, static_nb):
        tally.check(len(report.metrics) == runs, f"static {report.classifier}: runs")
    for report in (dynamic_icrm, dynamic_nb):
        tally.check(len(report.metrics) == (stream - WINDOW) // SHIFT + 1,
                    f"dynamic {report.classifier}: windows")
    for report in (static_icrm, static_nb, dynamic_icrm, dynamic_nb):
        tally.check(
            all(0.0 <= m.f_score <= 1.0 and math.isfinite(m.accuracy) for m in report.metrics),
            f"{report.mode} {report.classifier}: metric out of range",
        )
    tally.check(
        all(math.isfinite(e) and math.isfinite(r) and e >= 0.0 and r >= 0.0
            for e, r in icrm_clf.repertoire.values()),
        "repertoire holds a negative or non-finite population",
    )
    icrm_messages = icrm_static.messages + icrm_dynamic.messages
    nb_messages = nb_static.messages + nb_dynamic.messages
    # every message, every protocol call and every classify command
    tally.attempted += icrm_messages + nb_messages + 4 + len(messages)

    # static icrm, static nb, dynamic icrm, dynamic nb
    section = [b - a for a, b in zip(clock, clock[1:])]
    raw = {
        "setup_s": setup_end - spawned,
        "static_s": section[0] + section[1],
        "dynamic_s": section[2] + section[3],
        "icrm_s": section[0] + section[2],
        "nb_s": section[1] + section[3],
        "verdict_p50_s": percentile_beyond([t for t, _ in latencies], stream // 2),
        "verdict_p99_s": percentile_beyond([t for t, _ in latencies], stream // 100),
        "classify_cmd_s": percentile_beyond([t for t, _ in commands], len(commands) // 2),
    }
    result = {
        "raw": raw,
        "icrm_messages": icrm_messages,
        "nb_messages": nb_messages,
        "verdict_samples": len(latencies),
        "classify_samples": len(commands),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "icrm_f_score": static_icrm.mean("f_score"),
        "nb_f_score": static_nb.mean("f_score"),
        "counts": {
            "icrm_messages": icrm_messages,
            "nb_messages": nb_messages,
            "repertoire_size": len(icrm_clf.repertoire),
            "snapshot_bytes": state.stat().st_size,
            "nb_vocabulary_size": len(nb_dynamic.last.inner.model.vocabulary),
            "verdicts_sha256": hashlib.sha256("\n".join(verdicts).encode()).hexdigest(),
        },
        "csv_sha256": csv_sha256,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "wall_s": probe.clock() - spawned,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(work / "spans.npz", result["counts"])
        return result

    scale = [probe.scale(a, b) for a, b in zip(marks, marks[1:])]
    # Each verdict and command is scaled by the probes around it; over
    # runs, their percentiles spread less this way than scaled per section.
    verdicts = [t * probe.scale(m, m) for t, m in latencies]
    result["scaled"] = {
        "setup_s": raw["setup_s"] * probe.scale(0, setup_mark),
        "static_s": section[0] * scale[0] + section[1] * scale[1],
        "dynamic_s": section[2] * scale[2] + section[3] * scale[3],
        "icrm_s": section[0] * scale[0] + section[2] * scale[2],
        "nb_s": section[1] * scale[1] + section[3] * scale[3],
        "verdict_p50_s": percentile_beyond(verdicts, stream // 2),
        "verdict_p99_s": percentile_beyond(verdicts, stream // 100),
        "classify_cmd_s": percentile_beyond(
            [t * probe.scale(m, m) for t, m in commands], len(commands) // 2),
    }
    result["probe_samples"] = probe.mark()
    result["probe_median_s"] = statistics.median(probe.durations)
    return result


def main(argv=None) -> int:
    probe = Probe()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--spawned", required=True, type=float)
    parser.add_argument("--death-rate", type=float, default=0.0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("messages", nargs="*", type=Path)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        probe.start()
    try:
        if args.setup_only:
            setup(args.src, args.corpus)
            raw = probe.clock() - args.spawned
            result = {"raw": {"setup_s": raw},
                      "scaled": {"setup_s": raw * probe.scale(0, probe.mark())}}
        else:
            result = run_pass(args.src, args.corpus, args.messages, args.work,
                              args.spawned, probe, args.death_rate, tracer)
    finally:
        probe.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
