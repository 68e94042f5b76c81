"""Spans around the public functions of each icrm layer, for the traced run.

:meth:`Tracer.install` rebinds the module (or class) attributes through
which callers reach each public function, so the program itself is not
changed: ``icrm.textprep.stem`` is the name ``preprocess`` looks up,
``icrm.model.build_slot_array`` the one ``process_message`` looks up, and
so on. Every call keeps a span in memory (name, start, end, parent span
and request id, the id of the message being processed) in flat arrays;
:meth:`Tracer.layer_metrics` writes them out and turns them into the
per-layer metrics, with self time being a span's duration minus that of
its child spans. Counts that depend only on the inputs (calls, tokens,
slots, first-seen features, distinct stems) are taken at the same
boundaries, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module or class, attribute) for every rebound call site.
CALL_SITES = (
    ("corpus.read_canonical", "icrm.corpus", "read_canonical"),
    ("corpus.make_split", "icrm.evaluation", "make_split"),
    ("corpus.merge_by_ratio", "icrm.evaluation", "merge_by_ratio"),
    ("corpus.merge_by_ratio", "icrm.corpus", "merge_by_ratio"),
    ("textprep.tokenize", "icrm.textprep", "tokenize"),
    ("textprep.preprocess", "icrm.model", "preprocess"),
    ("textprep.preprocess", "icrm.nbayes", "preprocess"),
    ("porter.stem", "icrm.textprep", "stem"),
    ("model.process_message", "icrm.model", "process_message"),
    ("model.init_features", "icrm.model", "init_features"),
    ("model.build_slot_array", "icrm.model", "build_slot_array"),
    ("model.interact", "icrm.model", "interact"),
    ("model.save", "icrm.model.IcrmClassifier", "save"),
    ("model.load", "icrm.model.IcrmClassifier", "load"),
    ("nbayes.nb_train", "icrm.nbayes", "nb_train"),
    ("nbayes.nb_classify", "icrm.nbayes", "nb_classify"),
    ("nbayes.nb_posterior", "icrm.nbayes", "nb_posterior"),
    ("evaluation.eval_static", "icrm.evaluation", "eval_static"),
    ("evaluation.eval_dynamic", "icrm.evaluation", "eval_dynamic"),
    ("evaluation.counts_from_records", "icrm.evaluation", "counts_from_records"),
    ("evaluation.metrics_from_counts", "icrm.evaluation", "metrics_from_counts"),
    ("evaluation.linear_fit", "icrm.evaluation", "linear_fit"),
    ("cli.main", "icrm.cli", "main"),
    ("cli.classify", "icrm.cli", "cmd_classify"),
)

# Spans whose own arguments name the message, by argument position.
_MESSAGE_ARG = {
    "textprep.preprocess": 0,
    "model.process_message": 1,
    "nbayes.nb_classify": 1,
}

_METRICS_PARTS = (
    "evaluation.counts_from_records",
    "evaluation.metrics_from_counts",
    "evaluation.linear_fit",
)


def _resolve(path: str):
    """The module or class named by a dotted path under ``icrm``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = []
        self._request_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.tokens = 0
        self.slots = 0
        self.first_seen = 0
        self.read_bytes = 0
        self.stem_words: set[str] = set()
        self.message_ids: set[str] = set()

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _request_id(self, request: str) -> int:
        rid = self._request_ids.get(request)
        if rid is None:
            rid = self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        return rid

    def _observe(self, name: str, args, result, before) -> None:
        if name == "porter.stem":
            self.stem_words.add(args[0])
        elif name == "textprep.tokenize":
            self.tokens += len(result)
        elif name == "textprep.preprocess":
            self.message_ids.add(args[0].id)
        elif name == "model.build_slot_array":
            self.slots += len(result)
        elif name == "model.init_features":
            self.first_seen += len(args[0]) - before
        elif name == "corpus.read_canonical":
            self.read_bytes += os.path.getsize(args[0])

    def _traced(self, name: str, fn):
        nid = self._name_id(name)
        message_arg = _MESSAGE_ARG.get(name)
        stack = self._stack
        starts, ends = self.start, self.end
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            if message_arg is not None:
                rid = self._request_id(args[message_arg].id)
            else:
                rid = self.request[parent] if parent >= 0 else -1
            self.span_name.append(nid)
            self.parent.append(parent)
            self.request.append(rid)
            starts.append(0.0)
            ends.append(0.0)
            before = len(args[0]) if name == "model.init_features" else None
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            self._observe(name, args, result, before)
            return result

        return traced

    def install(self) -> None:
        """Rebind every call site in ``CALL_SITES`` to a traced wrapper."""
        for name, owner_path, attr in CALL_SITES:
            owner = _resolve(owner_path)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._traced(name, original.__func__))
            else:
                wrapped = self._traced(name, original)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        return duration - children

    def write(self, path: Path) -> None:
        """Save the spans as arrays: name, start, end, parent, request."""
        np.savez(
            path,
            names=np.array(self.names),
            requests=np.array(self.requests),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )

    def layer_metrics(self, path: Path | None = None, counts: dict | None = None) -> dict:
        """Per-layer metrics from the spans, written to ``path`` first."""
        if path is not None:
            self.write(path)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self.self_times(), minlength=k)
        calls = np.bincount(names, minlength=k)

        def get(array_, name):
            nid = self._name_ids.get(name)
            return 0 if nid is None else array_[nid].item()

        stem_calls = get(calls, "porter.stem")
        preprocess_calls = get(calls, "textprep.preprocess")
        counts = counts or {}
        values = {
            "corpus.read_canonical.s": (get(total, "corpus.read_canonical"), "s"),
            "corpus.read_canonical.bytes": (self.read_bytes, "B"),
            "corpus.make_split.s": (get(total, "corpus.make_split"), "s"),
            "corpus.merge_by_ratio.s": (get(total, "corpus.merge_by_ratio"), "s"),
            "textprep.tokenize.s": (get(total, "textprep.tokenize"), "s"),
            "textprep.tokenize.calls": (get(calls, "textprep.tokenize"), "count"),
            "textprep.tokenize.tokens": (self.tokens, "count"),
            "textprep.preprocess.s": (get(total, "textprep.preprocess"), "s"),
            "textprep.preprocess.self_s": (get(own, "textprep.preprocess"), "s"),
            "textprep.preprocess.calls": (preprocess_calls, "count"),
            "textprep.preprocess.repeat_ratio": (
                preprocess_calls / max(1, len(self.message_ids)), "1"),
            "porter.stem.s": (get(total, "porter.stem"), "s"),
            "porter.stem.calls": (stem_calls, "count"),
            "porter.stem.distinct": (len(self.stem_words), "count"),
            "porter.stem.hit_ratio": (
                1.0 - len(self.stem_words) / max(1, stem_calls), "1"),
            "model.init_features.s": (get(total, "model.init_features"), "s"),
            "model.init_features.first_seen": (self.first_seen, "count"),
            "model.build_slot_array.s": (get(total, "model.build_slot_array"), "s"),
            "model.build_slot_array.calls": (get(calls, "model.build_slot_array"), "count"),
            "model.build_slot_array.slots": (self.slots, "count"),
            "model.interact.s": (get(total, "model.interact"), "s"),
            "model.interact.calls": (get(calls, "model.interact"), "count"),
            "model.repertoire.size": (counts.get("repertoire_size", 0), "count"),
            "model.process_message.s": (get(total, "model.process_message"), "s"),
            "model.process_message.self_s": (get(own, "model.process_message"), "s"),
            "model.save.s": (get(total, "model.save"), "s"),
            "model.load.s": (get(total, "model.load"), "s"),
            "model.snapshot.bytes": (counts.get("snapshot_bytes", 0), "B"),
            "nbayes.nb_train.s": (get(total, "nbayes.nb_train"), "s"),
            "nbayes.nb_posterior.s": (get(total, "nbayes.nb_posterior"), "s"),
            "nbayes.nb_posterior.calls": (get(calls, "nbayes.nb_posterior"), "count"),
            "nbayes.vocabulary.size": (counts.get("nb_vocabulary_size", 0), "count"),
            "evaluation.eval_static.s": (get(total, "evaluation.eval_static"), "s"),
            "evaluation.eval_dynamic.s": (get(total, "evaluation.eval_dynamic"), "s"),
            "evaluation.metrics.s": (sum(get(total, n) for n in _METRICS_PARTS), "s"),
            "cli.classify.s": (get(total, "cli.classify"), "s"),
            "trace.spans": (len(self.start), "count"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}
