"""Seeded inputs for the benchmark workloads.

Every workload is a two-class corpus of 1500 ham and 1500 spam messages,
written as canonical JSON lines, plus a handful of held-out message files
for the ``icrm classify`` command. The same seed gives the same bytes.

* ``paper-synth``: the reference corpus of the package's own generator
  (520 coded words that stem to themselves). Every message exceeds the
  sample cap, so classifier time is bind and interact over 500 slots; the
  stem memo stays hot and the Naive Bayes vocabulary stays tiny.
* ``natural-mail``: English words from the pinned Porter pairs, drawn with
  Zipf frequencies, mixed with stopwords, capitals and punctuation.
  Lognormal lengths give many short messages and a long tail. The spam
  vocabulary drifts through the stream and every spam carries
  Poisson-many random "hash-buster" tokens, so the stem memo keeps
  missing and the feature space keeps growing.
* ``natural-forgetting``: the natural-mail corpus run with the forgetting
  variant of the classifier (``death_rate = 0.02``), the only workload on
  which decay runs.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

PER_CLASS = 1500
HELD_OUT_PER_CLASS = 10
_START = date(2000, 1, 1)
_PUNCTUATION = ",.;:!?"
_VOCABULARY_SEED = 20081205


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str          # "paper-synth" or "natural"
    death_rate: float    # classifier setting the workload runs with


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-synth", "paper-synth", 0.0),
        Workload("natural-mail", "natural", 0.0),
        Workload("natural-forgetting", "natural", 0.02),
    )
}


def _substream(seed: int, tag: int) -> int:
    """An integer seed for an independent stream derived from (seed, tag)."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


# -- paper-synth ---------------------------------------------------------


def _paper_synth(per_class: int, seed: int) -> list[dict]:
    from icrm.synth import synthetic_dataset

    ds = synthetic_dataset(
        per_class, per_class, vocab_per_class=200, shared_vocab=120,
        words_per_message=(60, 200), seed=seed,
    )
    return [
        {"id": m.id, "timestamp": m.timestamp.isoformat(), "label": m.label,
         "subject": m.subject, "body": m.body}
        for m in ds.ham + ds.spam
    ]


# -- natural -------------------------------------------------------------


def _word_list(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.split()[0] for line in fh if line.strip()]


class _Zipf:
    """Draws from a fixed word ranking with weight 1 / rank**s."""

    def __init__(self, words: list[str], s: float = 1.1):
        self.words = words
        weights = 1.0 / np.arange(1, len(words) + 1) ** s
        self.cdf = np.cumsum(weights) / weights.sum()

    def ranks(self, rng: np.random.Generator, k: int) -> np.ndarray:
        idx = np.searchsorted(self.cdf, rng.random(k), side="right")
        return np.minimum(idx, len(self.words) - 1)


def _natural(per_class: int, seed: int, data_dir: Path) -> list[dict]:
    words = [w for w in _word_list(data_dir / "porter-pairs.txt") if w.isalpha()]
    stop = sorted(_word_list(data_dir / "stopwords.txt"))
    # Which words are shared, ham or spam, and their ranks, are part of the
    # workload, not of the seed: the seed varies the messages drawn from
    # them, so the classifiers' accuracy varies little from seed to seed.
    order = np.random.default_rng(_VOCABULARY_SEED).permutation(len(words))
    perm = [words[int(i)] for i in order]
    rng = np.random.default_rng(seed)
    shared = _Zipf(perm[:1500])
    own = {"ham": _Zipf(perm[1500:4000]), "spam": _Zipf(perm[4000:])}
    spam_words = len(own["spam"].words)
    records = []
    for label in ("ham", "spam"):
        for i in range(per_class):
            length = int(np.clip(rng.lognormal(np.log(45.0), 0.8), 4, 1500))
            source = rng.random(length)
            tokens = []
            shared_ranks = shared.ranks(rng, length)
            own_ranks = own[label].ranks(rng, length)
            stop_idx = rng.integers(0, len(stop), size=length)
            # Spam drifts: the head of its ranking slides through its pool.
            offset = (i * spam_words) // (2 * per_class) if label == "spam" else 0
            for j in range(length):
                if source[j] < 0.35:
                    tokens.append(stop[int(stop_idx[j])])
                elif source[j] < 0.50:
                    tokens.append(shared.words[int(shared_ranks[j])])
                else:
                    pool = own[label].words
                    tokens.append(pool[(int(own_ranks[j]) + offset) % len(pool)])
            if label == "spam":
                for _ in range(int(rng.poisson(4.0))):
                    size = int(rng.integers(6, 11))
                    letters = rng.integers(0, 26, size=size)
                    junk = "".join(string.ascii_lowercase[int(c)] for c in letters)
                    tokens.insert(int(rng.integers(0, len(tokens) + 1)), junk)
            decor = rng.random((len(tokens), 2))
            marks = rng.integers(0, len(_PUNCTUATION), size=len(tokens))
            for j, token in enumerate(tokens):
                if decor[j, 0] < 0.1:
                    token = token.capitalize()
                if decor[j, 1] < 0.08:
                    token += _PUNCTUATION[int(marks[j])]
                tokens[j] = token
            cut = min(len(tokens), int(rng.integers(3, 9)))
            records.append({
                "id": f"{label}-{i:05d}",
                "timestamp": (_START + timedelta(days=i)).isoformat(),
                "label": label,
                "subject": " ".join(tokens[:cut]),
                "body": " ".join(tokens[cut:]),
            })
    return records


# -- files ---------------------------------------------------------------


def corpus_records(workload: Workload, seed: int, data_dir: Path,
                   per_class: int = PER_CLASS) -> list[dict]:
    """The canonical records of a workload's corpus, ham first."""
    if workload.corpus == "paper-synth":
        return _paper_synth(per_class, seed)
    return _natural(per_class, seed, data_dir)


def write_inputs(workload: Workload, seed: int, data_dir: Path, out_dir: Path,
                 per_class: int = PER_CLASS) -> tuple[Path, list[Path]]:
    """Write the corpus and the held-out message files; return their paths.

    The held-out messages come from the same generator on a separate
    stream, so they share the corpus vocabulary but are not in it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = out_dir / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8", newline="\n") as fh:
        for record in corpus_records(workload, seed, data_dir, per_class):
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
    held_out = corpus_records(
        workload, _substream(seed, 1), data_dir, HELD_OUT_PER_CLASS
    )
    messages = []
    for record in held_out:
        path = out_dir / f"{record['id']}.txt"
        path.write_text(
            f"Subject: {record['subject']}\n{record['body']}\n", encoding="utf-8"
        )
        messages.append(path)
    return corpus, messages
