"""Tests of the benchmark's own code: inputs, passes, tracing, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import protocol
import tracing
import workloads
from calibration import Probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "icrm" / "data"


def _inputs(tmp_path: Path, name: str, seed: int, per_class: int = 40):
    out = tmp_path / f"{name}-{seed}"
    corpus, messages = workloads.write_inputs(
        workloads.WORKLOADS[name], seed, DATA, out, per_class
    )
    return corpus.read_bytes(), [m.read_bytes() for m in messages]


@pytest.mark.parametrize("name", ["paper-synth", "natural-mail"])
def test_same_seed_gives_same_bytes(tmp_path, name):
    first = _inputs(tmp_path / "a", name, 3)
    assert first == _inputs(tmp_path / "b", name, 3)
    other = _inputs(tmp_path / "c", name, 4)
    assert other[0] != first[0]
    assert other[1] != first[1]


def test_natural_corpus_is_canonical(tmp_path):
    corpus, _ = workloads.write_inputs(
        workloads.WORKLOADS["natural-mail"], 1, DATA, tmp_path, per_class=50
    )
    records = [json.loads(line) for line in corpus.read_text("utf-8").splitlines()]
    assert [r["label"] for r in records] == ["ham"] * 50 + ["spam"] * 50
    assert len({r["id"] for r in records}) == 100
    assert all(r["subject"] and r["timestamp"] for r in records)


def test_percentile_leaves_the_stated_count_beyond():
    samples = [float(i) for i in range(2800)]
    p99 = protocol.percentile_beyond(samples, 28)
    assert sum(s > p99 for s in samples) == 28


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer._traced("inner", lambda: time.sleep(0.002))

    def body():
        inner()
        inner()

    tracer._traced("outer", body)()
    own = tracer.self_times()
    duration = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert tracer.parent.tolist() == [-1, 0, 0]
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])
    assert sum(own) == pytest.approx(duration[0])


def _pass(tmp_path, corpus, messages, tracer=None):
    probe = Probe()
    if tracer is None:
        probe.start()
    try:
        return protocol.run_pass(SRC, corpus, messages, tmp_path, time.perf_counter(),
                                 probe, death_rate=0.02, tracer=tracer, runs=2)
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()  # leave the package as the next test expects it


def test_tracing_changes_no_output_and_counts_repeat(tmp_path):
    corpus, messages = workloads.write_inputs(
        workloads.WORKLOADS["natural-forgetting"], 5, DATA, tmp_path / "in", 300
    )
    messages = messages[:4]
    plain = _pass(tmp_path / "plain", corpus, messages)
    traced = [_pass(tmp_path / f"traced{i}", corpus, messages, tracing.Tracer())
              for i in range(2)]
    for result in [plain] + traced:
        assert result["failed"] == 0, result["problems"]
        assert result["csv_sha256"] == plain["csv_sha256"]
        assert result["counts"] == plain["counts"]
    counts = {name: m["value"] for name, m in traced[0]["layers"].items()
              if m["unit"] != "s"}
    assert counts == {name: m["value"] for name, m in traced[1]["layers"].items()
                      if m["unit"] != "s"}
    # per model: two static runs of 400 messages and a dynamic pass over
    # all 600 (200 to train, 400 to classify); then the classify commands
    assert counts["textprep.preprocess.calls"] == 2 * (2 * 400 + 600) + len(messages)
    assert counts["model.interact.calls"] == 2 * 400 + 600 + len(messages)
    assert counts["model.repertoire.size"] == plain["counts"]["repertoire_size"]
    assert 0.0 < counts["porter.stem.hit_ratio"] < 1.0
    assert (tmp_path / "traced0" / "spans.npz").is_file()


def test_run_refuses_a_tree_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper-synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
