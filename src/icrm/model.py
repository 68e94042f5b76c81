"""Cross-regulation classifier core.

Every feature (stemmed word) owns two virtual cell populations: effectors
(E), whose dominance marks the feature as spam-like, and regulators (R),
whose dominance marks it as ham-like. Each message presents its sampled
features on an array of binding slots (``n_a`` slots per feature, shuffled
uniformly); adjacent slot pairs then interact:

* a pair of bound effectors proliferates (both sides, also a lone
  effector next to an empty slot),
* an effector co-bound with a regulator makes only the regulator
  proliferate,
* regulators alone persist unchanged.

Binding and interaction are one array pass per message: each slot holds
an index into the message's distinct features, pairs are a reshape of the
binding codes, and each feature's gains are summed with ``np.bincount`` in
slot order. The pass draws the same random numbers in the same order as
the per-slot loops in ``tests/model_reference.py`` and is bit-identical to
them.

Populations only grow unless a per-message death rate is configured, in
which case every known feature decays multiplicatively after each
message. A message's verdict is the sum of per-feature scores
``(R - E) / sqrt(R^2 + E^2)`` over its sample, read after the message's
own interaction pass; a non-positive sum means spam.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import HAM, SPAM, Message
from .files import read_state, write_state
from .textprep import SAMPLE_CAP, SAMPLERS, check_sample_cap, preprocess

# Slot binding codes.
BIND_E = 0
BIND_R = 1
BIND_EMPTY = 2

# Processing modes.
TRAIN_HAM = "train_ham"
TRAIN_SPAM = "train_spam"
TEST = "test"

# Populations this close to zero (after decay) are clamped out entirely.
_ZERO_CLAMP = 1e-12

# Fixed additive amount a proliferating cell gains per slot-pair event.
# Calibrated so that binding noise on a fresh feature (population ~11 cells
# over 10 slots) cannot flip the initial E/R ordering before reinforcement
# locks it in; large increments destroy the per-feature separation.
DEFAULT_PROLIFERATION = 0.02


class SnapshotError(Exception):
    """Raised for unreadable, foreign, or wrong-version state files."""


@dataclass
class IcrmConfig:
    """Model parameters; defaults follow the reference configuration."""

    n: int = SAMPLE_CAP         # max distinct features sampled per message
    n_a: int = 10               # binding slots per sampled feature
    e0_ham: float = 6.0         # initial populations for first-seen features,
    r0_ham: float = 12.0        # by stage: ham training biases regulators,
    e0_spam: float = 6.0        # spam training and testing bias effectors
    r0_spam: float = 5.0
    e0_test: float = 6.0
    r0_test: float = 5.0
    proliferation: float = DEFAULT_PROLIFERATION
    death_rate: float = 0.0     # per-message decay; 0 disables forgetting
    seed: int = 42

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (  # NaN fails too
                isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        check_sample_cap(self.n)
        if self.n_a < 1:
            raise ValueError(f"n_a must be >= 1, got {self.n_a}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.e0_ham < self.r0_ham:
            raise ValueError("ham initialisation requires E0 < R0")
        if not self.e0_spam > self.r0_spam:
            raise ValueError("spam initialisation requires E0 > R0")
        if not self.e0_test > self.r0_test:
            raise ValueError("test initialisation requires E0 > R0")
        if self.proliferation <= 0:
            raise ValueError("proliferation must be positive")
        if not 0.0 <= self.death_rate < 1.0:
            raise ValueError("death_rate must be in [0, 1)")

    def initial_populations(self, mode: str) -> tuple[float, float]:
        if mode == TRAIN_HAM:
            return (self.e0_ham, self.r0_ham)
        if mode == TRAIN_SPAM:
            return (self.e0_spam, self.r0_spam)
        if mode == TEST:
            return (self.e0_test, self.r0_test)
        raise ValueError(f"unknown mode {mode!r}")


# The repertoire is the classifier's entire mutable state: feature -> (E, R).
Repertoire = dict[str, tuple[float, float]]


class SlotArray:
    """Per-message antigen presentation, in slot order.

    ``keys`` are the message's distinct features, ``index`` gives each
    slot's position in ``keys`` and ``bound`` each slot's binding code.
    ``SlotArray(features, bound)`` builds one from parallel per-slot
    sequences; ``features`` spells the slots out again on first read.
    """

    def __init__(self, features: Sequence[str], bound: Sequence[int]):
        keys, index = _intern(features)
        bound = np.asarray(bound, dtype=np.int64)
        if bound.shape != index.shape:
            raise ValueError(f"{len(index)} slot features but {bound.size} bindings")
        if not np.isin(bound, (BIND_E, BIND_R, BIND_EMPTY)).all():
            raise ValueError(f"unknown binding code in {bound.tolist()}")
        self.keys, self.index, self.bound = keys, index, bound

    @classmethod
    def from_index(
        cls, keys: list[str], index: np.ndarray, bound: np.ndarray
    ) -> "SlotArray":
        """Wrap arrays the kernel built, without interning or checks again."""
        slots = cls.__new__(cls)
        slots.keys, slots.index, slots.bound = keys, index, bound
        return slots

    @cached_property
    def features(self) -> list[str]:
        keys = self.keys
        return [keys[i] for i in self.index.tolist()]

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SlotArray):
            return NotImplemented
        return self.features == other.features and np.array_equal(
            self.bound, other.bound
        )

    def __repr__(self) -> str:
        return f"SlotArray({self.features!r}, {self.bound.tolist()!r})"


def _intern(features: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Distinct features in first-seen order, and each position's index."""
    keys = list(dict.fromkeys(features))
    if len(keys) == len(features):
        return keys, np.arange(len(keys))
    ids = {f: i for i, f in enumerate(keys)}
    return keys, np.array([ids[f] for f in features], dtype=np.int64)


@dataclass
class Verdict:
    score: float
    per_feature: list[tuple[str, float]]
    label: str


def score_feature(e: float, r: float) -> float:
    """Normalized population imbalance in [-1, 1]; <= 0 reads as spam-like."""
    if e == 0.0 and r == 0.0:
        return 0.0
    # hypot keeps the quotient stable for subnormal and huge populations
    return (r - e) / math.hypot(r, e)


def init_features(
    rep: Repertoire, sample: Iterable[str], mode: str, cfg: IcrmConfig
) -> Repertoire:
    """Insert first-seen features at the stage's initial populations.

    Features already in the repertoire keep their populations: memory
    persists across messages and stages.
    """
    initial = cfg.initial_populations(mode)
    for feature in sample:
        if feature not in rep:
            rep[feature] = initial
    return rep


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
    keys, sample_index = _intern(sample)
    pops = np.fromiter(
        chain.from_iterable(map(rep.__getitem__, keys)), np.float64, 2 * len(keys)
    ).reshape(-1, 2)
    mass = pops[:, 0] + pops[:, 1]
    live = mass > 0.0
    p_effector = np.divide(pops[:, 0], mass, out=np.zeros(len(keys)), where=live)
    index = sample_index[order // cfg.n_a]
    bound = np.where(draws < p_effector[index], BIND_E, BIND_R)
    bound[~live[index]] = BIND_EMPTY
    return SlotArray.from_index(keys, index, bound)


def _proliferates(code: int, partner: int) -> bool:
    """Whether a slot bound ``code`` gains a cell next to one bound ``partner``."""
    if code == BIND_E:
        return partner != BIND_R
    if code == BIND_R:
        return partner == BIND_E
    return False


# Row 3 * a + b, over the three binding codes: 1.0 for each slot of an
# (a, b) pair that proliferates.
_PAIR_GAINS = np.array(
    [[_proliferates(a, b), _proliferates(b, a)] for a in range(3) for b in range(3)],
    dtype=np.float64,
)


def interact(rep: Repertoire, slots: SlotArray, cfg: IcrmConfig) -> Repertoire:
    """Run one interaction pass and apply decay.

    Slots are paired consecutively, a trailing slot is handled alone, and
    all deltas are computed against pre-interaction populations before
    being applied, so pair processing order is irrelevant. With a nonzero
    death rate every repertoire feature then decays by (1 - rate).
    """
    total = len(slots)
    if total:
        bound = slots.bound
        if total % 2:
            bound = np.append(bound, BIND_EMPTY)
        pairs = bound.reshape(-1, 2)
        gains = _PAIR_GAINS[3 * pairs[:, 0] + pairs[:, 1]].ravel()[:total]
        # row i of deltas holds feature i's (E, R) gain; bincount adds the
        # weights in slot order, as a running sum per feature would
        deltas = np.bincount(
            2 * slots.index + (slots.bound == BIND_R),
            weights=gains * cfg.proliferation,
            minlength=2 * len(slots.keys),
        ).reshape(-1, 2)
        for f, (de, dr) in zip(slots.keys, deltas.tolist()):
            if de or dr:
                # a side that gained nothing keeps its value untouched, as
                # in the per-slot loop (no -0.0 -> 0.0, no int -> float)
                e, r = rep[f]
                rep[f] = (e + de if de else e, r + dr if dr else r)
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


def process_message(
    rep: Repertoire,
    msg: Message,
    mode: str,
    cfg: IcrmConfig,
    rng: np.random.Generator,
    stopwords: frozenset[str] | None = None,
    sampler: str = SAMPLERS[0],
) -> Verdict:
    """Run the full per-message cycle and return the verdict.

    The same cycle runs in every stage (only first-seen initial values
    differ): preprocess, initialise new features, bind, interact, then
    score the sampled features from post-interaction populations. An
    empty sample scores 0 and is therefore spam.
    """
    if mode == TRAIN_HAM and msg.label != HAM:
        raise ValueError(f"training mode {mode} on a {msg.label} message")
    if mode == TRAIN_SPAM and msg.label != SPAM:
        raise ValueError(f"training mode {mode} on a {msg.label} message")
    sample = preprocess(
        msg, cfg.n, stopwords, sampler=sampler,
        rng=rng if sampler == "random" else None,
    )
    init_features(rep, sample, mode, cfg)
    slots = build_slot_array(sample, rep, cfg, rng)
    interact(rep, slots, cfg)
    per_feature = [(f, score_feature(*rep[f])) for f in sample]
    score = math.fsum(s for _, s in per_feature)
    return Verdict(
        score=score,
        per_feature=per_feature,
        label=SPAM if score <= 0.0 else HAM,
    )


_TRAIN_MODE = {HAM: TRAIN_HAM, SPAM: TRAIN_SPAM}


class IcrmClassifier:
    """Stateful online classifier: a repertoire plus its random stream.

    Instances are single-writer; snapshots are only meaningful between
    messages. Classification continues to update populations, which is
    how the model adapts to drifting content.
    """

    def __init__(
        self,
        config: IcrmConfig | None = None,
        stopwords: frozenset[str] | None = None,
        sampler: str = SAMPLERS[0],
    ):
        self.config = config or IcrmConfig()
        self.config.validate()
        if sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}")
        self.stopwords = stopwords
        self.sampler = sampler
        self.repertoire: Repertoire = {}
        self.rng = np.random.default_rng(self.config.seed)

    def train_message(self, msg: Message) -> Verdict:
        return process_message(
            self.repertoire, msg, _TRAIN_MODE[msg.label], self.config,
            self.rng, self.stopwords, self.sampler,
        )

    def train(self, messages: Iterable[Message]) -> None:
        for msg in messages:
            self.train_message(msg)

    def verdict(self, msg: Message) -> Verdict:
        return process_message(
            self.repertoire, msg, TEST, self.config, self.rng,
            self.stopwords, self.sampler,
        )

    def classify(self, msg: Message) -> str:
        return self.verdict(msg).label

    # -- persistence ---------------------------------------------------

    _FORMAT = "icrm-state"
    _VERSION = 1

    def save(self, path) -> None:
        """Write a lossless, versioned JSON snapshot of the full state."""
        write_state(path, self._FORMAT, self._VERSION, {
            "config": asdict(self.config),
            "sampler": self.sampler,
            "rng_state": self.rng.bit_generator.state,
            "repertoire": {f: [e, r] for f, (e, r) in self.repertoire.items()},
        })

    @classmethod
    def load(cls, path, stopwords: frozenset[str] | None = None) -> "IcrmClassifier":
        state = read_state(path, cls._FORMAT, cls._VERSION, SnapshotError)
        try:
            clf = cls(
                IcrmConfig(**state["config"]),
                stopwords=stopwords,
                sampler=state.get("sampler", SAMPLERS[0]),
            )
            clf.repertoire = rep = {}
            for f, (e, r) in state["repertoire"].items():
                e, r = float(e), float(r)
                if not (0.0 <= e < math.inf and 0.0 <= r < math.inf):  # NaN fails too
                    raise ValueError(f"populations must be finite and >= 0: {e}, {r}")
                rep[f] = (e, r)
            clf.rng.bit_generator.state = state["rng_state"]
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed state file {path}: {exc!r}") from None
        return clf
