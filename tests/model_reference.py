"""Scalar bind and interact, kept as the oracle for the array kernel.

These are the per-slot loops that ``icrm.model.build_slot_array`` and
``icrm.model.interact`` replaced, with the list-backed ``SlotArray`` they
were written against. The kernel must reproduce them bit for bit: same
slot layout, same bindings, same float in every repertoire entry.
Test-only; never imported by the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from icrm.model import BIND_E, BIND_EMPTY, BIND_R, _ZERO_CLAMP, IcrmConfig, Repertoire


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
