"""The icrm benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree of the package (``src/icrm``). It
writes the workload's corpus and held-out messages from the seed, then
measures passes of the evaluation protocols (see ``protocol.py``), each in
a fresh interpreter, one after another, until the next pass would end
after ``--seconds``. The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics, each the median over the passes;
* ``--trace 1``: one untraced and one traced pass, and the per-layer
  metrics of the traced one (see ``tracing.py``).

The line before it holds the details: the environment, every pass's raw
numbers, the exact counts and the report-CSV hash. Scratch files live
under ``.bench_work/`` in the current directory and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Each run must end within 180 s; a pass that has not ended by then is
# stopped and counted as failed.
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "static_s": "s",
    "dynamic_s": "s",
    "icrm_msg_per_s": "msg/s",
    "nb_msg_per_s": "msg/s",
    "icrm_verdict_p50_ms": "ms",
    "icrm_verdict_p99_ms": "ms",
    "classify_cmd_ms": "ms",
    "peak_rss_mib": "MiB",
    "icrm_f_score": "1",
    "nb_f_score": "1",
    "ok_frac": "1",
}


class PassFailed(Exception):
    pass


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(passes: list[dict], setups: list[float], attempted: int,
               failed: int) -> dict:
    """Each end-to-end metric: the median over the passes of one run."""
    def median(key):
        return statistics.median(p["scaled"][key] for p in passes)

    def rate(count, key):
        return statistics.median(p[count] / p["scaled"][key] for p in passes)

    values = {
        "setup_s": statistics.median(setups),
        "static_s": median("static_s"),
        "dynamic_s": median("dynamic_s"),
        "icrm_msg_per_s": rate("icrm_messages", "icrm_s"),
        "nb_msg_per_s": rate("nb_messages", "nb_s"),
        "icrm_verdict_p50_ms": 1e3 * median("verdict_p50_s"),
        "icrm_verdict_p99_ms": 1e3 * median("verdict_p99_s"),
        "classify_cmd_ms": 1e3 * median("classify_cmd_s"),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "icrm_f_score": statistics.median(p["icrm_f_score"] for p in passes),
        "nb_f_score": statistics.median(p["nb_f_score"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


class Runner:
    """Starts passes of ``protocol.py`` and collects their results."""

    def __init__(self, src: Path, corpus: Path, messages: list[Path],
                 work: Path, death_rate: float, started: float, spans: Path):
        self.src = src
        self.spans = spans
        self.corpus = corpus
        self.messages = messages
        self.work = work
        self.death_rate = death_rate
        self.started = started
        self.count = 0
        self.last_work = work

    def run(self, *flags: str) -> dict:
        self.count += 1
        work = self.last_work = self.work / f"pass-{self.count}"
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise PassFailed("no time left for another pass")
        command = [
            sys.executable, str(HERE / "protocol.py"),
            "--src", str(self.src), "--corpus", str(self.corpus),
            "--work", str(work), "--death-rate", repr(self.death_rate),
            *flags, "--spawned",
        ]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                command + [repr(spawned)] + [str(m) for m in self.messages],
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise PassFailed("pass did not end before the deadline") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    passes, failures, problems = [], 0, []
    begin = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - begin + last <= seconds:
        t0 = time.perf_counter()
        try:
            result = runner.run()
        except PassFailed as exc:
            failures += 1
            problems.append(str(exc))
            if failures >= 3 or time.perf_counter() - runner.started > DEADLINE_S / 2:
                break
            continue
        last = time.perf_counter() - t0
        passes.append(result)
    setups = [p["scaled"]["setup_s"] for p in passes]
    while passes and len(setups) < MIN_SETUP_SAMPLES:
        try:
            result = runner.run("--setup-only")
        except PassFailed as exc:
            failures += 1
            problems.append(str(exc))
            break
        setups.append(result["scaled"]["setup_s"])
    attempted = failures + sum(p["attempted"] for p in passes)
    failed = failures + sum(p["failed"] for p in passes)
    hashes = sorted({p["csv_sha256"] for p in passes})
    counts = [json.dumps(p["counts"], sort_keys=True) for p in passes]
    attempted += 1
    if len(hashes) > 1 or len(set(counts)) > 1:
        failed += 1
        problems.append("passes of one seed disagree on their outputs")
    for p in passes:
        problems.extend(p["problems"])
    details = {
        "passes": len(passes),
        "setup_samples": setups,
        "per_pass_raw": [p["raw"] for p in passes],
        "per_pass_scaled": [p["scaled"] for p in passes],
        "probe_samples": [p["probe_samples"] for p in passes],
        "probe_median_s": [p["probe_median_s"] for p in passes],
        "verdict_samples": passes[0]["verdict_samples"] if passes else 0,
        "classify_samples": passes[0]["classify_samples"] if passes else 0,
        "counts": passes[0]["counts"] if passes else {},
        "csv_sha256": hashes,
        "problems": problems[:20],
    }
    if not passes:
        return {}, details
    metrics = end_to_end(passes, setups, attempted, failed)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    return summary, details


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    plain = runner.run()
    traced = runner.run("--trace")
    attempted = plain["attempted"] + traced["attempted"] + 1
    failed = plain["failed"] + traced["failed"]
    same = (plain["csv_sha256"] == traced["csv_sha256"]
            and plain["counts"] == traced["counts"])
    if not same:
        failed += 1
    shutil.move(runner.last_work / "spans.npz", runner.spans)
    layers = traced["layers"]
    layers["trace.overhead_s"] = {
        "value": traced["wall_s"] - plain["wall_s"], "unit": "s"
    }
    details = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "counts": traced["counts"],
        "csv_sha256": [plain["csv_sha256"], traced["csv_sha256"]],
        "tracing_changed_outputs": not same,
        "problems": (plain["problems"] + traced["problems"])[:20],
    }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": layers}
    return summary, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "icrm" / "__init__.py").is_file():
        print(f"bench: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import icrm  # also compiles the package's bytecode before any pass
    if Path(icrm.__file__).resolve().parent != (src / "icrm").resolve():
        print(f"bench: icrm imports from {icrm.__file__}, not {src}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload]
    steal_before = _steal_ticks()
    try:
        corpus, messages = workloads.write_inputs(
            workload, args.seed, src / "icrm" / "data", work / "inputs"
        )
        runner = Runner(src, corpus, messages, work, workload.death_rate, started,
                        root / ".bench_work" / f"spans-{args.workload}.npz")
        try:
            if args.trace:
                summary, details = measure_traced(runner)
            else:
                summary, details = measure(runner, args.seconds)
        except PassFailed as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal_after = _steal_ticks()
    env = environment()
    env["steal_ticks"] = (None if steal_before is None or steal_after is None
                          else steal_after - steal_before)
    details.update(workload=args.workload, seed=args.seed, environment=env,
                   run_s=time.perf_counter() - started)
    print(json.dumps(details))
    if not summary:
        print("bench: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
