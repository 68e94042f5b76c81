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
an index into the message's distinct features. The slots are laid out by
shuffling a copy of a cached, read-only template that holds each sample
position ``n_a`` times, ``np.repeat(np.arange(n), n_a)``; one template per
``n_a``, whose prefixes serve shorter samples. The swaps of
``Generator.permutation(total)``, which shuffles ``np.arange(total)``,
depend only on the length, so the shuffled template is that permutation
floor-divided by ``n_a`` and leaves the generator in the same state. When
no sampled feature is extinct, binding is one comparison of the draws with
E / (E + R); a sample holding an extinct feature, whose slots stay empty,
takes a masked path. Each slot's gain is looked up by the binding codes of
its pair, in a table of negated gains cached per proliferation amount, and
summed per feature with ``np.bincount`` in slot order. The sums are of negated
gains, and interaction subtracts them: x - (-d) is x + d exactly, and a
side that gained nothing has a sum of +0.0, which leaves every x, -0.0
included, as it was. The pass draws the same random numbers in the same
order as the per-slot loops in ``tests/model_reference.py`` and is
bit-identical to them.

The repertoire stores a feature -> row dict and one float64 array whose
two columns are E and R, doubling its capacity when full. A message's rows
are looked up once, when it is bound, and carried to interaction and
scoring; each step gathers or scatters the populations of those rows.
Those rows belong to the repertoire that bound the slots: any other
repertoire the slots are applied to looks their features up again.

Populations only grow unless a per-message death rate is configured, in
which case every known feature decays multiplicatively after each
message: one in-place multiply of the rows, then features whose two
populations both fell below ``_ZERO_CLAMP`` are cleared to (+0.0, +0.0).
Dead rows are found by one comparison over the contiguous (E, R) pairs,
whose two flags per row read as one uint16, and cleared by one masked
write through a complex view of the same memory. The repertoire keeps a
lower bound on max(E, R) over its rows: loading sets it to the minimum
over the loaded rows, appending lowers it to the new rows' larger initial
population, interaction leaves it (gains only add) and decay multiplies
it by the same factor. Rounding is monotone, so while the bound stays at
or above the clamp no row can have died and the test is skipped. Each
element gets the same IEEE product the per-feature loop computed, so
populations stay bit-identical to it.

A message's verdict is the sum of per-feature scores
``(R - E) / sqrt(R^2 + E^2)`` over its sample, read after the message's
own interaction pass; a non-positive sum means spam. A message's scores
come from one gather of its rows into Python floats and one comprehension
that divides by ``math.hypot`` (``np.hypot`` can be an ulp off it), so
each is the float :func:`score_feature` gives; a (0, 0) feature, whose
norm is zero, goes to :func:`score_feature` itself and scores +0.0.

Scoring reads the populations and changes nothing, so
:meth:`IcrmClassifier.train` runs only :func:`present_message`, the part
of the cycle before scoring; :meth:`IcrmClassifier.train_message` still
runs the whole cycle and returns the training verdict. Both leave the
same repertoire and the same random stream.

Each setting's type and limits are one row of :data:`RANGES`, which
:func:`check_range` reads. A population starts at most at 10**6 and gains
at most n_a * proliferation <= 10**9 per message, so it stays finite for
any stream under 10**299 messages; a message binds n * n_a <= 10**6 slots.
"""

from __future__ import annotations

import base64
import math
import operator
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Sequence, get_args

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

# Rows an empty repertoire has room for before its columns first double.
_INITIAL_ROWS = 256

# Fixed additive amount a proliferating cell gains per slot-pair event.
# Calibrated so that binding noise on a fresh feature (population ~11 cells
# over 10 slots) cannot flip the initial E/R ordering before reinforcement
# locks it in; large increments destroy the per-feature separation.
DEFAULT_PROLIFERATION = 0.02


class SnapshotError(Exception):
    """Raised for unreadable, foreign, or wrong-version state files."""


RANGES = {  # each setting's type and (op, bound) limits; see the module docstring
    "n": (int, [("<=", 1000)]),  # and an even int >= 2: check_sample_cap
    "n_a": (int, [(">=", 1), ("<=", 1000)]),
    **dict.fromkeys(("e0_ham", "r0_ham", "e0_spam", "r0_spam", "e0_test", "r0_test"),
                    (float, [(">=", 0), ("<=", 10**6)])),  # cell counts; -0.0 passes
    "proliferation": (float, [(">", 0), ("<=", 10**6)]),
    "death_rate": (float, [(">=", 0), ("<", 1)]),
    "seed": (int, [(">=", 0)]),
    "feature_sampler": (str, [("one of", SAMPLERS)]),
}
_LIMITS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
           "one of": lambda value, choices: value in choices}
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", bool | None: "true, false or None"}


def check_range(ranges: Mapping[str, tuple], name: str, value):
    """``value`` (as a float for a float setting, which takes any int or float
    a float holds: NaN and infinities fail) if it has the exact type and meets
    the limits of ``name``'s row in ``ranges``, else a ValueError naming it."""
    kind, limits = ranges[name]
    kinds = (int, float) if kind is float else get_args(kind) or (kind,)
    if type(value) not in kinds or kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    for op, bound in limits:
        if not _LIMITS[op](value, bound):
            raise ValueError(f"{name} must be {op} {bound!r}, got {value!r}")
    return float(value) if kind is float else value


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
    feature_sampler: str = SAMPLERS[0]  # first-last, or random for ablation

    def validate(self) -> None:
        for f in fields(self):  # by RANGES; an int for a float becomes a float
            setattr(self, f.name, check_range(RANGES, f.name, getattr(self, f.name)))
        check_sample_cap(self.n)
        if not self.e0_ham < self.r0_ham:
            raise ValueError("ham initialisation requires E0 < R0")
        if not self.e0_spam > self.r0_spam:
            raise ValueError("spam initialisation requires E0 > R0")
        if not self.e0_test > self.r0_test:
            raise ValueError("test initialisation requires E0 > R0")

    def initial_populations(self, mode: str) -> tuple[float, float]:
        if mode == TRAIN_HAM:
            return (self.e0_ham, self.r0_ham)
        if mode == TRAIN_SPAM:
            return (self.e0_spam, self.r0_spam)
        if mode == TEST:
            return (self.e0_test, self.r0_test)
        raise ValueError(f"unknown mode {mode!r}")


class Repertoire(Mapping):
    """The classifier's entire mutable state: feature -> (E, R).

    ``rows`` maps each feature to its row of ``populations``, a read-only
    view of shape (features, 2) whose columns are E and R; only the model's
    steps write the rows, which keeps the bound on max(E, R) that
    :func:`decay` reads a true one. Rows are handed out in
    insertion order and never move, so iteration follows first sight.
    Reading a feature gives a tuple of Python floats; :meth:`add` appends
    rows for new features. A state file of version 2 keeps the rows in
    this order; one of version 1 listed features sorted, so a repertoire
    loaded from it iterates in sorted order.
    """

    def __init__(self, populations: Mapping[str, tuple[float, float]] | None = None):
        populations = populations or {}
        self._fill(populations, list(populations.values()))

    @classmethod
    def from_rows(cls, features: Iterable[str], pops) -> "Repertoire":
        """Feature i of ``features`` (all distinct) at row i of ``pops``, (E, R) pairs."""
        rep = cls.__new__(cls)
        rep._fill(features, pops)
        return rep

    def _fill(self, features: Iterable[str], pops) -> None:
        pops = np.asarray(pops, dtype=np.float64).reshape(-1, 2)
        self.rows: dict[str, int] = dict(zip(features, range(len(pops)), strict=True))
        if len(self.rows) != len(pops):
            raise ValueError("repeated feature")
        self._pops = np.empty((max(len(pops), _INITIAL_ROWS), 2))
        self._pops[: len(pops)] = pops
        # a lower bound on max(E, R) over the rows; see decay
        self._floor = float(np.maximum(pops[:, 0], pops[:, 1]).min(initial=math.inf))

    @property
    def populations(self) -> np.ndarray:
        """A read-only view of the used rows: column 0 is E, column 1 is R."""
        view = self._pops[: len(self.rows)]
        view.flags.writeable = False
        return view

    def add(self, features: Iterable[str], pops: tuple[float, float]) -> None:
        """Append a row set to ``pops`` for each feature not yet present."""
        rows = self.rows
        start = end = len(rows)
        for feature in features:
            if feature not in rows:
                rows[feature] = end
                end += 1
        if end == start:
            return
        if end > len(self._pops):
            grown = np.empty((max(end, 2 * len(self._pops)), 2))
            grown[:start] = self._pops[:start]
            self._pops = grown
        self._pops[start:end] = pops
        self._floor = min(self._floor, max(pops))

    def find(self, features: Sequence[str]) -> np.ndarray:
        """The rows of ``features``; a feature never seen is a KeyError."""
        return np.fromiter(map(self.rows.__getitem__, features), np.intp, len(features))

    def __getitem__(self, feature: str) -> tuple[float, float]:
        e, r = self._pops[self.rows[feature]].tolist()
        return (e, r)

    def __contains__(self, feature) -> bool:
        return feature in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Repertoire({dict(self.items())!r})"


class SlotArray:
    """Per-message antigen presentation, in slot order.

    ``keys`` are the message's distinct features, ``index`` gives each
    slot's position in ``keys`` and ``bound`` each slot's binding code.
    ``rows`` are the keys' rows in ``repertoire``, the :class:`Repertoire`
    that ``build_slot_array`` bound the slots to; ``interact`` uses them
    for that repertoire only.
    ``SlotArray(features, bound)`` builds one from parallel per-slot
    sequences, bound to no repertoire; ``features`` spells the slots out
    again on first read.
    """

    def __init__(self, features: Sequence[str], bound: Sequence[int]):
        keys, index = _intern(features)
        if index is None:
            index = np.arange(len(keys))
        bound = np.asarray(bound)
        if bound.shape != index.shape:
            raise ValueError(f"{len(index)} slot features but {bound.size} bindings")
        # integer codes only, though an empty list arrives as a float array
        integral = bound.dtype.kind in "iu" or not bound.size
        if not (integral and np.isin(bound, (BIND_E, BIND_R, BIND_EMPTY)).all()):
            raise ValueError(f"unknown binding code in {bound.tolist()}")
        self.keys, self.index, self.bound = keys, index, bound.astype(np.int64)
        self.rows = self.repertoire = None

    @classmethod
    def from_index(
        cls, keys: list[str], index: np.ndarray, bound: np.ndarray,
        rows: np.ndarray, repertoire: Repertoire,
    ) -> "SlotArray":
        """Wrap arrays the kernel built, without interning or checks again."""
        slots = cls.__new__(cls)
        slots.keys, slots.index, slots.bound = keys, index, bound
        slots.rows, slots.repertoire = rows, repertoire
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


def _intern(features: Sequence[str]) -> tuple[list[str], np.ndarray | None]:
    """Distinct features in first-seen order, and each position's index.

    The index is None when the features are already distinct: position i
    is then key i.
    """
    if len(set(features)) == len(features):
        return list(features), None
    keys = list(dict.fromkeys(features))
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
    persists across messages and stages. New features get their rows in
    one append.
    """
    rep.add(sample, cfg.initial_populations(mode))
    return rep


def build_slot_array(
    sample: list[str], rep: Repertoire, cfg: IcrmConfig,
    rng: np.random.Generator,
) -> SlotArray:
    """Lay out n_a slots per sampled feature and bind cells to them.

    Slot positions are a uniform permutation of the feature multiset; each
    slot for feature f binds an effector with probability E_f/(E_f+R_f),
    a regulator otherwise, and stays empty when both populations are zero.
    """
    # each slot's position in sample, in the order rng.permutation(total) // n_a
    # would give (see the module docstring)
    index = _slot_template(len(sample), cfg.n_a).copy()
    rng.shuffle(index)
    draws = rng.random(len(index))
    keys, sample_index = _intern(sample)
    rows = rep.find(keys)
    pops = rep._pops.take(rows, 0)
    e = pops[:, 0]
    mass = e + pops[:, 1]
    if sample_index is not None:
        index = sample_index[index]
    if np.count_nonzero(mass) == len(keys):
        # no extinct feature: a draw below E / (E + R) binds an effector
        bound = (draws >= (e / mass)[index]).astype(np.int64)
    else:
        live = mass > 0.0
        p_effector = np.divide(e, mass, out=np.zeros(len(keys)), where=live)
        bound = np.where(draws < p_effector[index], BIND_E, BIND_R)
        bound[~live[index]] = BIND_EMPTY
    return SlotArray.from_index(keys, index, bound, rows, rep)


# n_a -> the read-only slot template of the longest sample seen at that n_a
_SLOT_TEMPLATES: dict[int, np.ndarray] = {}


def _slot_template(n: int, n_a: int) -> np.ndarray:
    """Sample positions 0 to n - 1, each ``n_a`` times in a row; read-only.

    A shorter sample's template is a prefix of a longer one's, so one
    template per ``n_a`` serves every sample length, and the cache holds
    no more slots per ``n_a`` than the longest message has.
    """
    total = n * n_a
    template = _SLOT_TEMPLATES.get(n_a)
    if template is None or len(template) < total:
        template = np.repeat(np.arange(n), n_a)
        template.flags.writeable = False
        _SLOT_TEMPLATES[n_a] = template
    return template[:total]


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


@lru_cache(maxsize=256)
def _pair_loss(proliferation: float) -> np.ndarray:
    """``_PAIR_GAINS`` times -proliferation: each slot's negated gain; read-only."""
    loss = _PAIR_GAINS * -proliferation
    loss.flags.writeable = False
    return loss


def interact(rep: Repertoire, slots: SlotArray, cfg: IcrmConfig) -> Repertoire:
    """Run one interaction pass and apply decay.

    Slots are paired consecutively, a trailing slot is handled alone, and
    all deltas are computed against pre-interaction populations before
    being applied, so pair processing order is irrelevant. Then
    :func:`decay` runs.
    """
    total = len(slots)
    if total:
        bound = slots.bound
        if total % 2:
            bound = np.append(bound, BIND_EMPTY)
        # each slot's gain, negated, looked up by its pair's two codes
        slot_loss = _pair_loss(cfg.proliferation).take(
            3 * bound[::2] + bound[1::2], 0
        ).ravel()[:total]
        # bincount sums each feature's losses in slot order, as a running sum
        # would: row i of loss is minus feature i's (E, R) gain. An empty slot
        # loses -0.0, which changes no sum, so its target (the next feature's
        # E side, or one past the end) does not matter
        width = 2 * len(slots.keys)
        loss = np.bincount(
            2 * slots.index + slots.bound, weights=slot_loss, minlength=width
        )[:width].reshape(-1, 2)
        rows = slots.rows if slots.repertoire is rep else rep.find(slots.keys)
        # x - (-d) is x + d, rounding being symmetric in sign, and a side that
        # gained nothing keeps its bits: x - (+0.0) is x, also for x = -0.0
        pops = rep._pops
        pops[rows] = pops.take(rows, 0) - loss
    return decay(rep, cfg)


def decay(rep: Repertoire, cfg: IcrmConfig) -> Repertoire:
    """Shrink every population by (1 - death rate), if that rate is nonzero.

    One in-place multiply covers every row. A feature whose E and R both
    end below ``_ZERO_CLAMP`` is then cleared to (+0.0, +0.0): one pair
    test over the contiguous rows, one masked write. Both are skipped
    while the repertoire's bound on max(E, R), multiplied by the same
    factor, is at or above the clamp (see the module docstring).
    """
    rate = cfg.death_rate
    if rate > 0.0:
        keep = 1.0 - rate
        pops = rep._pops[: len(rep.rows)]
        pops *= keep
        rep._floor *= keep
        if not rep._floor >= _ZERO_CLAMP:  # a NaN bound tests too
            flat = pops.reshape(-1)
            # a row's two flags as one uint16: 0x0101 where both are set
            dead = (flat < _ZERO_CLAMP).view(np.uint16) == 0x0101
            np.putmask(flat.view(np.complex128), dead, 0)
    return rep


def present_message(
    rep: Repertoire,
    msg: Message,
    mode: str,
    cfg: IcrmConfig,
    rng: np.random.Generator,
    stopwords: frozenset[str] | None = None,
) -> SlotArray:
    """Run the per-message cycle up to scoring and return the bound slots.

    Preprocess (by ``cfg.feature_sampler``), initialise new features, bind,
    then interact (with decay). The slots' keys are the message's sample.
    """
    if mode == TRAIN_HAM and msg.label != HAM:
        raise ValueError(f"training mode {mode} on a {msg.label} message")
    if mode == TRAIN_SPAM and msg.label != SPAM:
        raise ValueError(f"training mode {mode} on a {msg.label} message")
    sample = preprocess(msg, cfg.n, stopwords, cfg.feature_sampler, rng)
    init_features(rep, sample, mode, cfg)
    slots = build_slot_array(sample, rep, cfg, rng)
    interact(rep, slots, cfg)
    return slots


def process_message(
    rep: Repertoire,
    msg: Message,
    mode: str,
    cfg: IcrmConfig,
    rng: np.random.Generator,
    stopwords: frozenset[str] | None = None,
) -> Verdict:
    """Run the full per-message cycle and return the verdict.

    The same cycle runs in every stage (only first-seen initial values
    differ): :func:`present_message` (preprocess by ``cfg.feature_sampler``,
    initialise new features, bind, interact), then score the sampled
    features from post-interaction populations. An empty sample scores 0
    and is therefore spam.
    """
    slots = present_message(rep, msg, mode, cfg, rng, stopwords)
    # the sample is distinct, so the slots' keys are the sample in order;
    # score_feature's floats, a zero norm being an extinct feature's
    hypot = math.hypot
    scores = [
        (r - e) / norm if (norm := hypot(r, e)) else score_feature(e, r)
        for e, r in rep._pops.take(slots.rows, 0).tolist()
    ]
    score = math.fsum(scores)
    return Verdict(
        score=score,
        per_feature=list(zip(slots.keys, scores)),
        label=SPAM if score <= 0.0 else HAM,
    )


_TRAIN_MODE = {HAM: TRAIN_HAM, SPAM: TRAIN_SPAM}


def _train_mode(msg: Message) -> str:
    """The training mode for ``msg``'s label; any other label is a ValueError."""
    mode = _TRAIN_MODE.get(msg.label)
    if mode is None:
        raise ValueError(
            f"cannot train on a {msg.label!r} message: labels are {HAM}, {SPAM}"
        )
    return mode


class IcrmClassifier:
    """Stateful online classifier: a repertoire plus its random stream.

    ``config`` holds every model setting, the feature sampler included.
    Instances are single-writer; snapshots are only meaningful between
    messages. Classification continues to update populations, which is
    how the model adapts to drifting content.
    """

    def __init__(
        self,
        config: IcrmConfig | None = None,
        stopwords: frozenset[str] | None = None,
    ):
        self.config = config or IcrmConfig()
        self.config.validate()
        self.stopwords = stopwords
        self.repertoire = Repertoire()
        self.rng = np.random.default_rng(self.config.seed)

    def train_message(self, msg: Message) -> Verdict:
        mode = _train_mode(msg)
        return process_message(
            self.repertoire, msg, mode, self.config, self.rng, self.stopwords
        )

    def train(self, messages: Iterable[Message]) -> None:
        """Train on each message in turn, as :meth:`train_message` would.

        The verdicts are not wanted, so no message is scored.
        """
        rep, cfg, rng = self.repertoire, self.config, self.rng
        for msg in messages:
            present_message(rep, msg, _train_mode(msg), cfg, rng, self.stopwords)

    def verdict(self, msg: Message) -> Verdict:
        return process_message(
            self.repertoire, msg, TEST, self.config, self.rng, self.stopwords
        )

    def classify(self, msg: Message) -> str:
        return self.verdict(msg).label

    # -- persistence ---------------------------------------------------

    _FORMAT = "icrm-state"
    _VERSION = 2

    def save(self, path) -> None:
        """Write a lossless, versioned JSON snapshot of the full state.

        Version 2 lists the features in row order and holds their (E, R)
        pairs, in the same order, as one base64 string of little-endian
        float64s: loading it restores every population bit for bit and
        the first-sight row order.
        """
        rep = self.repertoire
        raw = np.ascontiguousarray(rep.populations, "<f8").tobytes()
        config = asdict(self.config)
        sampler = config.pop("feature_sampler")
        write_state(path, self._FORMAT, self._VERSION, {
            "config": config,
            "sampler": sampler,
            "rng_state": self.rng.bit_generator.state,
            "features": list(rep.rows),
            "populations": base64.b64encode(raw).decode("ascii"),
        })

    @classmethod
    def load(cls, path, stopwords: frozenset[str] | None = None) -> "IcrmClassifier":
        """Resume from a version 1 or version 2 snapshot.

        Version 1 holds a ``repertoire`` object, feature -> [E, R], whose
        keys were saved sorted, so its rows load in sorted order. Either
        way every population must be finite and non-negative and every
        feature distinct, and the sampler is the top-level ``sampler``, never
        a ``config`` key; anything else is a :class:`SnapshotError` naming
        the file.
        """
        version, state = read_state(path, cls._FORMAT, {1, 2}, SnapshotError)
        try:
            sampler = state.get("sampler", SAMPLERS[0])
            # a config that also holds feature_sampler is a TypeError
            clf = cls(IcrmConfig(**state["config"], feature_sampler=sampler), stopwords)
            features, pops = (_v1_rows if version == 1 else _v2_rows)(state)
            ok = (pops >= 0.0) & (pops < math.inf)  # NaN fails too
            if not ok.all():
                e, r = pops[np.flatnonzero(~ok)[0] // 2].tolist()
                raise ValueError(f"populations must be finite and >= 0: {e}, {r}")
            clf.repertoire = Repertoire.from_rows(features, pops)
            clf.rng.bit_generator.state = state["rng_state"]
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed state file {path}: {exc!r}") from None
        return clf


def _v1_rows(state: dict) -> tuple[list[str], np.ndarray]:
    """Features and (E, R) rows of a version 1 ``repertoire`` object."""
    entries = state["repertoire"]
    pairs = list(entries.values())
    if set(map(len, pairs)) - {2}:
        raise ValueError("populations must be [E, R] pairs")
    pops = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    return list(entries), pops.reshape(-1, 2)


def _v2_rows(state: dict) -> tuple[list[str], np.ndarray]:
    """Features and (E, R) rows of version 2's ``features`` and ``populations``."""
    features = state["features"]
    if not isinstance(features, list) or set(map(type, features)) - {str}:
        raise ValueError("features must be a list of strings")
    text = state["populations"]
    raw = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(text) != 4 * -(-len(raw) // 3):
        raise ValueError("populations carry padding beyond their last byte")
    if len(raw) != 16 * len(features):
        raise ValueError(
            f"populations hold {len(raw)} bytes, not 16 for each of "
            f"{len(features)} features"
        )
    return features, np.frombuffer(raw, "<f8").reshape(-1, 2)
