"""Scalar bind and interact, kept as the oracle for the array kernel.

These are the per-slot loops that ``icrm.model.build_slot_array`` and
``icrm.model.interact`` replaced, with the list-backed ``SlotArray`` they
were written against, and the per-message cycle and state files as they
were over a plain dict repertoire. The kernel must reproduce them bit for
bit: same slot layout, same bindings, same float in every repertoire
entry, same bytes in a saved state. ``save`` writes version 3 only;
``state_file`` writes versions 1, 2 and 3 as they were written, and
``edit_state`` damages them, so the tests know a state file's layout only
here and in ``state_reference``. Test-only; never imported by the package.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from icrm.corpus import HAM, SPAM, Message, training_label
from icrm.model import (
    BIND_E, BIND_EMPTY, BIND_R, TEST, _ZERO_CLAMP, IcrmConfig, Verdict, score_feature,
)
from icrm.textprep import preprocess

# The repertoire the loops were written against: feature -> (E, R).
Repertoire = dict[str, tuple[float, float]]


@dataclass
class SlotArray:
    """Per-message antigen presentation: parallel feature/binding lists."""

    features: list[str]
    bound: list[int]

    def __len__(self) -> int:
        return len(self.features)


def build_slot_array(
    sample: list[str], rep: Repertoire, cfg: IcrmConfig, rng: np.random.Generator
) -> SlotArray:
    """Lay out n_a slots per sampled feature and bind cells to them.

    Slot positions are a uniform permutation of the feature multiset; each
    slot for feature f binds an effector with probability E_f/(E_f+R_f),
    a regulator otherwise, and stays empty when both populations are zero.
    """
    total = len(sample) * cfg.n_a
    if total == 0:
        return SlotArray([], [])
    order = rng.permutation(total)
    draws = rng.random(total)
    features = [None] * total
    bound = [BIND_EMPTY] * total
    for pos in range(total):
        feature = sample[int(order[pos]) // cfg.n_a]
        features[pos] = feature
        e, r = rep[feature]
        mass = e + r
        if mass > 0.0:
            bound[pos] = BIND_E if draws[pos] < e / mass else BIND_R
    return SlotArray(features, bound)


def interact(rep: Repertoire, slots: SlotArray, cfg: IcrmConfig) -> Repertoire:
    """Run one interaction pass and apply decay.

    Slots are paired consecutively, a trailing slot is handled alone, and
    all deltas are computed against pre-interaction populations before
    being applied, so pair processing order is irrelevant. With a nonzero
    death rate every repertoire feature then decays by (1 - rate).
    """
    p = cfg.proliferation
    delta_e: dict[str, float] = {}
    delta_r: dict[str, float] = {}
    n = len(slots)
    for i in range(0, n, 2):
        group = [(slots.features[i], slots.bound[i])]
        if i + 1 < n:
            group.append((slots.features[i + 1], slots.bound[i + 1]))
        effectors = [f for f, b in group if b == BIND_E]
        regulators = [f for f, b in group if b == BIND_R]
        if effectors and not regulators:
            for f in effectors:
                delta_e[f] = delta_e.get(f, 0.0) + p
        elif effectors and regulators:
            for f in regulators:
                delta_r[f] = delta_r.get(f, 0.0) + p
        # regulators alone (or empty pairs): no change
    for f, d in delta_e.items():
        e, r = rep[f]
        rep[f] = (e + d, r)
    for f, d in delta_r.items():
        e, r = rep[f]
        rep[f] = (e, r + d)
    rate = cfg.death_rate
    if rate > 0.0:
        keep = 1.0 - rate
        for f, (e, r) in rep.items():
            e *= keep
            r *= keep
            if e < _ZERO_CLAMP and r < _ZERO_CLAMP:
                e = r = 0.0
            rep[f] = (e, r)
    return rep


def init_features(rep: Repertoire, sample, stage: str, cfg: IcrmConfig) -> Repertoire:
    """Insert first-seen features at the stage's initial populations."""
    initial = cfg.initial_populations(stage)
    for feature in sample:
        if feature not in rep:
            rep[feature] = initial
    return rep


def process_message(
    rep: Repertoire,
    msg: Message,
    train: bool,
    cfg: IcrmConfig,
    rng: np.random.Generator,
    stopwords: frozenset[str] | None = None,
) -> Verdict:
    """Preprocess, initialise at the stage (the training label if ``train``,
    TEST otherwise), bind, interact and score, all on the dict."""
    stage = training_label(msg) if train else TEST
    sampler = cfg.feature_sampler
    sample = preprocess(
        msg, cfg.n, stopwords, sampler=sampler,
        rng=rng if sampler == "random" else None,
    )
    init_features(rep, sample, stage, cfg)
    slots = build_slot_array(sample, rep, cfg, rng)
    interact(rep, slots, cfg)
    per_feature = [(f, score_feature(*rep[f])) for f in sample]
    score = math.fsum(s for _, s in per_feature)
    return Verdict(
        score=score, per_feature=per_feature, label=SPAM if score <= 0.0 else HAM,
    )


def _settings(cfg: IcrmConfig) -> tuple[dict, str]:
    """The state file's ``config`` (every setting but the sampler) and ``sampler``."""
    config = asdict(cfg)
    return config, config.pop("feature_sampler")


def state_file(version: int, rep: Repertoire, cfg: IcrmConfig,
               rng: np.random.Generator) -> bytes:
    """The state file of a dict repertoire as ``version`` wrote it.

    Version 3 is its header on one ASCII line, keys sorted, then the (E, R)
    pairs packed one by one as little-endian doubles, in insertion order.
    Versions 1 and 2 are one JSON object, keys sorted, and nothing after
    it: version 1 maps each feature to its pair, and version 2 lists the
    features and holds the packed pairs as base64 ``populations``.
    """
    config, sampler = _settings(cfg)
    state = {"format": "icrm-state", "version": version, "config": config,
             "sampler": sampler, "rng_state": rng.bit_generator.state}
    packed = b"".join(struct.pack("<dd", e, r) for e, r in rep.values())
    if version == 1:
        state["repertoire"] = {f: [e, r] for f, (e, r) in rep.items()}
    else:
        state["features"] = list(rep)
    if version == 2:
        state["populations"] = base64.b64encode(packed).decode("ascii")
    text = json.dumps(state, sort_keys=True).encode("ascii")
    return text + b"\n" + packed if version == 3 else text


def edit_state(header=lambda state: None, block=lambda old: old):
    """An edit of a state file's bytes. ``block`` gives the new population
    bytes from the old: those after version 3's header line, or those
    version 2's base64 ``populations`` decode to. Then ``header`` edits the
    JSON object in place: version 3's header line, written back in its own
    key order, or the whole version 1 or 2 document, written back with its
    keys sorted, as those versions wrote it."""
    def edit(raw: bytes) -> bytes:
        line, newline, old = raw.partition(b"\n")
        state = json.loads(line)
        if newline:
            header(state)
            return json.dumps(state).encode("ascii") + b"\n" + block(old)
        if "populations" in state:
            new = block(base64.b64decode(state["populations"]))
            state["populations"] = base64.b64encode(new).decode("ascii")
        header(state)
        return json.dumps(state, sort_keys=True).encode("ascii")
    return edit


def v2_populations_at_version_3(raw: bytes) -> bytes:
    """A version 3 header holding its block as version 2's base64
    ``populations`` key, and no block after it."""
    line, _, block = raw.partition(b"\n")
    state = json.loads(line)
    state["populations"] = base64.b64encode(block).decode("ascii")
    return json.dumps(state).encode("ascii")
