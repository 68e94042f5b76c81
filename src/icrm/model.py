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
an index into the message's sample, whose features are distinct (a
repeated one is refused before anything is drawn). The slots are laid
out by shuffling a copy of a cached, read-only template that holds each
sample position ``n_a`` times, ``np.repeat(np.arange(n), n_a)``; one
template per ``n_a``, whose prefixes serve shorter samples. The swaps of
``Generator.permutation(total)``, which shuffles ``np.arange(total)``,
depend only on the length, so the shuffled template is that permutation
floor-divided by ``n_a`` and leaves the generator in the same state.
Binding is one comparison of the draws with E / (E + R), whose bytes are
the slots' ``uint8`` binding codes; an extinct feature divides by 1.0
instead, its E being 0, and its slots are emptied after the comparison.
Interaction reads each slot pair's two codes as one ``uint16`` key (an
odd total gets an empty slot appended) and looks both slots' gains up in
one row of a table of negated gains, cached per proliferation amount; the
table's keys are the nine code pairs viewed the same way, so byte order
never enters. The gains are summed per feature with ``np.bincount`` in
slot order. The sums are of negated gains, and interaction subtracts
them from the (E, R) pairs binding gathered, each row one complex, and
writes them back: x - (-d) is x + d exactly, and a side that gained
nothing has a sum of +0.0, which leaves every x, -0.0 included, as it
was. The pass draws the same random numbers in the same order as the
per-slot loops in ``tests/model_reference.py`` and is
bit-identical to them.

The repertoire stores a feature -> row dict and one complex array that
holds each row as E + iR, E and R side by side as float64s, doubling its
capacity when full. A message's rows come from :meth:`Repertoire.add`,
which returns the sample's rows after appending the first-seen ones, and
binding hands them on instead of looking the sample up again. Binding
gathers the rows' (E, R) pairs once; interaction subtracts its losses
from those pairs and scatters the results back, and scoring reads the
pairs interaction wrote. With a nonzero death rate, decay scales every
row after interaction, so scoring gathers the rows again. The rows and
pairs belong to the repertoire that bound the slots, and interaction
applies the slots to that repertoire, which it then decays.

Populations only grow unless a per-message death rate is configured, in
which case every known feature decays multiplicatively after each
message: one in-place multiply of the rows, then features whose two
populations both fell below ``_ZERO_CLAMP`` are cleared to (+0.0, +0.0).
Dead rows are found by one comparison over the contiguous (E, R) pairs,
whose two flags per row read as one uint16, and cleared by one masked
write through a complex view of the same memory. The repertoire keeps a
lower bound on max(E, R) over its rows that are not (+0.0, +0.0):
loading sets it to the minimum over the loaded rows, appending lowers it
to the new rows' larger initial population, interaction leaves it (gains
only add) and decay multiplies it by the same factor. Rounding is
monotone, so while the bound stays at or above the clamp no row can have
died and the test is skipped. Once it falls below, decay tests and
clears, and every row it leaves that is not (+0.0, +0.0) then has E or R
at or above the clamp, so the bound is raised to the clamp again. Each
element gets the same IEEE product the per-feature loop computed, so
populations stay bit-identical to it.

A message's verdict is the sum of per-feature scores
``(R - E) / sqrt(R^2 + E^2)`` over its sample, read after the message's
own interaction pass; a non-positive sum means spam. A verdict's scores
come from those pairs as Python floats, each scored by
:func:`score_feature`, which divides by ``math.hypot`` (``np.hypot`` can
be an ulp off it); a (0, 0) feature scores +0.0. Their sum is
``math.fsum``'s, correctly rounded. :meth:`IcrmClassifier.classify`
wants only the label, so it sums the same rows in numpy, with
``np.hypot``, and reads that sum's sign wherever a proven error bound
covers it (see :func:`_label`); a sum within the bound of zero, an empty
sample or a repertoire that may hold a subnormal norm takes the exact
sum. Labels, populations and the random stream are the same as
:meth:`IcrmClassifier.verdict` gives.

A feature first seen in a message starts at the initial populations of
the message's stage: ``HAM`` or ``SPAM`` for a training message, whose
label is its stage (``corpus.training_label`` refuses any other), and
``TEST`` for every other message. The cycle derives the stage itself from
whether the message trains, so no caller can name one that contradicts
the label.

Scoring reads the populations and changes nothing, so
:meth:`IcrmClassifier.train` runs only :func:`present_message`, the part
of the cycle before scoring, and leaves the repertoire and random stream
that a training :func:`process_message` per message leaves.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .corpus import HAM, SPAM, Message, training_label
from .files import read_state, write_state
from .ranges import RANGES, SAMPLERS, check_range
from .textprep import SAMPLE_CAP, check_features, preprocess

# Slot binding codes.
BIND_E = 0
BIND_R = 1
BIND_EMPTY = 2

# The stage of a message that does not train; a training message's stage is
# its label. Each stage -> the order its first-seen E0 and R0 must keep, and
# the getter of that (E0, R0) pair from the e0_<stage>, r0_<stage> settings.
TEST = "test"
_STAGES = {stage: (order, attrgetter(f"e0_{stage}", f"r0_{stage}"))
           for stage, order in ((HAM, "<"), (SPAM, ">"), (TEST, ">"))}

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


@dataclass(frozen=True)
class IcrmConfig:
    """Model parameters, checked when made (see :mod:`icrm.ranges`) and frozen."""

    n: int = SAMPLE_CAP         # max distinct features sampled per message
    n_a: int = 10               # binding slots per sampled feature
    e0_ham: float = 6.0         # initial populations e0_<stage>, r0_<stage> of
    r0_ham: float = 12.0        # first-seen features: ham training biases
    e0_spam: float = 6.0        # regulators, spam training and testing effectors
    r0_spam: float = 5.0
    e0_test: float = 6.0
    r0_test: float = 5.0
    proliferation: float = DEFAULT_PROLIFERATION
    death_rate: float = 0.0     # per-message decay; 0 disables forgetting
    seed: int = 42
    feature_sampler: str = SAMPLERS[0]  # first-last, or random for ablation

    def __post_init__(self):
        for f in fields(self):  # by RANGES; an int for a float becomes a float
            value = check_range(RANGES, f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        for stage, (order, initial) in _STAGES.items():
            e0, r0 = initial(self)
            if not (e0 < r0 if order == "<" else e0 > r0):
                raise ValueError(f"{stage} initialisation requires E0 {order} R0")

    def initial_populations(self, stage: str) -> tuple[float, float]:
        """The (E0, R0) of a feature first seen in ``stage``, HAM, SPAM or
        TEST; any other stage is a KeyError."""
        return _STAGES[stage][1](self)


class Repertoire(Mapping):
    """The classifier's entire mutable state: feature -> (E, R).

    ``rows`` maps each feature to its row of ``populations``, a read-only
    view of shape (features, 2) whose columns are E and R; only the model's
    steps write the rows, which keeps the bound on max(E, R) that
    :func:`decay` reads a true one. Rows are handed out in
    insertion order and never move, so iteration follows first sight.
    Reading a feature gives a tuple of Python floats; :meth:`add` appends
    rows for new features and returns the rows of all it was given. A
    state file of version 2 keeps the rows in this order; one of version 1
    listed features sorted, so a repertoire loaded from it iterates in
    sorted order.

    Every row is valid however the repertoire was made: its feature a
    ``str``, each population finite and >= 0, and each E + R finite,
    because binding divides by it. Making a repertoire, by
    ``Repertoire(mapping)`` or :meth:`from_rows`, refuses any other row,
    and a repeated feature, with a ValueError; :meth:`add` refuses such a
    pair, or a new feature that is not a ``str``, before it changes
    anything. The model's steps keep rows valid: a message's gains are
    bounded (see :mod:`icrm.ranges`) and decay only shrinks them.
    """

    def __init__(self, populations: Mapping[str, tuple[float, float]] | None = None):
        populations = populations or {}
        self._fill(list(populations), list(populations.values()))

    @classmethod
    def from_rows(cls, features: Sequence[str], pops) -> "Repertoire":
        """Feature i of ``features`` (all distinct) at row i of ``pops``,
        (E, R) pairs, each row valid (see the class docstring)."""
        rep = cls.__new__(cls)
        rep._fill(features, pops)
        return rep

    def _fill(self, features: Sequence[str], pops) -> None:
        check_features(features)
        pops = np.asarray(pops, dtype=np.float64).reshape(-1, 2)
        # a row may be refused only if it holds a NaN, a negative, or an E or
        # R >= 2**1023 (E + R overflows no other way)
        if not ((pops >= 0.0) & (pops < 2.0**1023)).all():
            for feature, (e, r) in zip(features, pops.tolist()):
                _check_pair(e, r, f"populations of {feature!r}")
        self.rows: dict[str, int] = dict(zip(features, range(len(pops)), strict=True))
        if len(self.rows) != len(pops):
            raise ValueError("repeated feature")
        # each row as one complex E + iR: E and R side by side in memory
        self._cells = np.empty(max(len(pops), _INITIAL_ROWS), np.complex128)
        self._cells.view(np.float64)[: pops.size] = pops.reshape(-1)
        # a lower bound on max(E, R) over the rows that are not (+0.0, +0.0);
        # see decay
        self._floor = float(np.maximum(pops[:, 0], pops[:, 1]).min(initial=math.inf))

    @property
    def populations(self) -> np.ndarray:
        """A read-only view of the used rows: column 0 is E, column 1 is R."""
        view = self._cells[: len(self.rows)].view(np.float64).reshape(-1, 2)
        view.flags.writeable = False
        return view

    def add(self, features: Sequence[str], pops: tuple[float, float]) -> np.ndarray:
        """Append a row set to ``pops`` for each feature not yet present,
        then return the row of each of ``features``, in order.

        First-seen features get rows in first-sight order; one given twice
        gets one new row, which both its positions return. A pair that is
        not finite and >= 0, or whose sum overflows, or a new feature that
        is not a ``str``, is a ValueError, raised before the repertoire
        changes.
        """
        e, r = pops
        _check_pair(e, r, "populations")
        rows = self.rows
        new = [feature for feature in features if feature not in rows]
        if new:
            check_features(new)
            start = end = len(rows)
            for feature in new:
                if feature not in rows:  # a feature given twice gets one row
                    rows[feature] = end
                    end += 1
            if end > len(self._cells):
                grown = np.empty(max(end, 2 * len(self._cells)), np.complex128)
                grown[:start] = self._cells[:start]
                self._cells = grown
            self._cells[start:end] = complex(e, r)
            self._floor = min(self._floor, max(e, r))
        return np.fromiter(map(rows.__getitem__, features), np.intp, len(features))

    def __getitem__(self, feature: str) -> tuple[float, float]:
        # the row as a one-element array, whose float view is (E, R)
        return tuple(self._cells[self.rows[feature], None].view(np.float64).tolist())

    def __contains__(self, feature) -> bool:
        return feature in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Repertoire({dict(self.items())!r})"


def _check_pair(e: float, r: float, what: str) -> None:
    """Refuse an (E, R) pair that no row may hold; ``what`` names it."""
    if not (0.0 <= e < math.inf and 0.0 <= r < math.inf):  # NaN fails too
        raise ValueError(f"populations must be finite and >= 0: {e}, {r}")
    if e + r == math.inf:  # binding divides by E + R
        raise ValueError(f"{what} sum past the largest float: {e} + {r}")


class SlotArray:
    """Per-message antigen presentation, in slot order, as
    :func:`build_slot_array` lays it out and binds it to one repertoire.

    ``keys`` are the message's distinct features, ``index`` gives each
    slot's position in ``keys`` and ``bound`` each slot's ``uint8`` binding
    code. ``rows`` are the keys' rows in ``repertoire``, the
    :class:`Repertoire` the slots are bound to, and ``pops`` those rows'
    (E, R) pairs, each one complex E + iR: as binding gathered them, then
    as :func:`interact` wrote them (before decay). ``interact`` applies the
    slots to that repertoire and no other, subtracting its losses from
    ``pops``, so slots interact once, right after binding, as
    :func:`present_message` has them. ``keys`` is the sample
    ``build_slot_array`` was given, not a copy, so the caller must not
    change it afterwards: :func:`present_message` always passes the fresh
    list ``preprocess`` returns.
    """

    def __init__(
        self, keys: list[str], index: np.ndarray, bound: np.ndarray,
        rows: np.ndarray, pops: np.ndarray, repertoire: Repertoire,
    ):
        self.keys, self.index, self.bound = keys, index, bound
        self.rows, self.pops, self.repertoire = rows, pops, repertoire

    def __len__(self) -> int:
        return len(self.index)


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
    rep: Repertoire, sample: Sequence[str], stage: str, cfg: IcrmConfig
) -> np.ndarray:
    """Insert first-seen features at the stage's initial populations and
    return the sample's rows, in sample order (see :meth:`Repertoire.add`).

    Features already in the repertoire keep their populations: memory
    persists across messages and stages. New features get their rows in
    one append.
    """
    return rep.add(sample, cfg.initial_populations(stage))


def build_slot_array(
    sample: list[str], rep: Repertoire, cfg: IcrmConfig,
    rng: np.random.Generator, rows: np.ndarray,
) -> SlotArray:
    """Lay out n_a slots per sampled feature and bind cells to them.

    Slot positions are a uniform permutation of the feature multiset; each
    slot for feature f binds an effector with probability E_f/(E_f+R_f),
    a regulator otherwise, and stays empty when both populations are zero.
    The sample's features must be distinct, as ``preprocess`` returns them:
    a repeated one is a ValueError, raised before the generator draws.
    ``rows`` are the sample's rows in ``rep``, as :func:`init_features`
    returns them, so the sample is not looked up again. The rows' (E, R)
    pairs are gathered once and carried on the slots to :func:`interact`
    (see :class:`SlotArray`).
    """
    # interact writes each feature's summed gains to its row once, so a
    # repeated feature would lose all but one of its gains
    if len(set(sample)) != len(sample):
        raise ValueError("a sample's features must be distinct")
    # each slot's position in sample, in the order rng.permutation(total) // n_a
    # would give (see the module docstring)
    index = _slot_template(len(sample), cfg.n_a).copy()
    rng.shuffle(index)
    draws = rng.random(len(index))
    pops = rep._cells.take(rows)
    e = pops.real
    mass = e + pops.imag
    # an extinct row (E + R is +-0.0, so E is 0) divides by 1.0 instead: its
    # slots compare without a 0 / 0 and are emptied after
    extinct = mass == 0.0
    mass[extinct] = 1.0
    # a draw below E / (E + R) binds an effector (0), any other a regulator
    # (1), read straight off the comparison's bytes
    bound = (draws >= (e / mass)[index]).view(np.uint8)
    bound[extinct[index]] = BIND_EMPTY
    return SlotArray(sample, index, bound, rows, pops, rep)


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


# The nine (a, b) pairs of binding codes, and each pair's key: the uint16
# its two uint8 codes read as in memory, so byte order never enters.
_PAIRS = [(a, b) for a in range(3) for b in range(3)]
_PAIR_KEYS = np.array(_PAIRS, dtype=np.uint8).view(np.uint16).ravel()
# Row key: 1.0 for each slot of the keyed pair that proliferates; 0.0 in
# every row no pair reads.
_PAIR_GAINS = np.zeros((_PAIR_KEYS.max() + 1, 2))
_PAIR_GAINS[_PAIR_KEYS] = [(_proliferates(a, b), _proliferates(b, a)) for a, b in _PAIRS]


@lru_cache(maxsize=256)
def _pair_loss(proliferation: float) -> np.ndarray:
    """``_PAIR_GAINS`` times -proliferation: each slot's negated gain; read-only."""
    loss = _PAIR_GAINS * -proliferation
    loss.flags.writeable = False
    return loss


def interact(slots: SlotArray, cfg: IcrmConfig) -> Repertoire:
    """Run one interaction pass on the repertoire the slots are bound to,
    apply decay to it and return it.

    Slots are paired consecutively, a trailing slot is handled alone, and
    all deltas are computed against pre-interaction populations before
    being applied, so pair processing order is irrelevant. Then
    :func:`decay` runs.
    """
    rep, total = slots.repertoire, len(slots)
    if total:
        codes = slots.bound
        if total % 2:
            codes = np.append(codes, np.uint8(BIND_EMPTY))
        # each slot's gain, negated, looked up by its pair's two codes read
        # as one uint16 key
        table = _pair_loss(cfg.proliferation)
        slot_loss = table.take(codes.view(np.uint16), 0).ravel()[:total]
        # bincount sums each feature's losses in slot order, as a running sum
        # would: row i of loss is minus feature i's (E, R) gain. An empty slot
        # loses -0.0, which changes no sum, so its target (the next feature's
        # E side, or one past the end) does not matter
        width = 2 * len(slots.keys)
        targets = 2 * slots.index + slots.bound
        loss = np.bincount(targets, weights=slot_loss, minlength=width)[:width]
        # each row's (E, R) as one complex, as decay clears them: complex
        # subtraction subtracts each part alone. x - (-d) is x + d, rounding
        # being symmetric in sign, and a side that gained nothing keeps its
        # bits: x - (+0.0) is x, also for x = -0.0
        slots.pops = pops = slots.pops - loss.view(np.complex128)
        rep._cells[slots.rows] = pops
    return decay(rep, cfg)


def decay(rep: Repertoire, cfg: IcrmConfig) -> Repertoire:
    """Shrink every population by (1 - death rate), if that rate is nonzero.

    One in-place multiply covers every row. A feature whose E and R both
    end below ``_ZERO_CLAMP`` is then cleared to (+0.0, +0.0): one pair
    test over the contiguous rows, one masked write. Both are skipped
    while the repertoire's bound on max(E, R), multiplied by the same
    factor, is at or above the clamp; after them the bound is the clamp
    (see the module docstring).
    """
    rate = cfg.death_rate
    if rate > 0.0:
        keep = 1.0 - rate
        cells = rep._cells[: len(rep.rows)]
        flat = cells.view(np.float64)  # E0, R0, E1, R1, ...
        flat *= keep
        rep._floor *= keep
        if not rep._floor >= _ZERO_CLAMP:  # a NaN bound tests too
            # a row's two flags as one uint16: 0x0101 where both are set
            dead = (flat < _ZERO_CLAMP).view(np.uint16) == 0x0101
            np.putmask(cells, dead, 0)
            # every row not (+0.0, +0.0) now has E or R >= the clamp
            rep._floor = _ZERO_CLAMP
    return rep


def present_message(
    rep: Repertoire,
    msg: Message,
    train: bool,
    cfg: IcrmConfig,
    rng: np.random.Generator,
    stopwords: frozenset[str] | None = None,
) -> SlotArray:
    """Run the per-message cycle up to scoring and return the bound slots.

    Preprocess (by ``cfg.feature_sampler``), initialise new features at the
    stage's populations (the message's training label if ``train``, TEST
    otherwise), bind, then interact (with decay). The slots' keys are the
    message's sample. A training message labelled neither ham nor spam is
    a ValueError, raised before anything changes.
    """
    stage = training_label(msg) if train else TEST
    sample = preprocess(msg, cfg.n, stopwords, cfg.feature_sampler, rng)
    rows = init_features(rep, sample, stage, cfg)
    slots = build_slot_array(sample, rep, cfg, rng, rows)
    interact(slots, cfg)
    return slots


def process_message(
    rep: Repertoire,
    msg: Message,
    train: bool,
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
    slots = present_message(rep, msg, train, cfg, rng, stopwords)
    # the sample is distinct, so the slots' keys are the sample in order
    scores, score = _exact_scores(_scored_pops(rep, slots, cfg))
    return Verdict(
        score=score,
        per_feature=list(zip(slots.keys, scores)),
        label=SPAM if score <= 0.0 else HAM,
    )


def _scored_pops(rep: Repertoire, slots: SlotArray, cfg: IcrmConfig) -> np.ndarray:
    """The slots' rows as their message's interaction and decay left them,
    each one complex E + iR: the values interaction wrote or, with decay
    on, which scales every row after them, the rows gathered again."""
    return slots.pops if cfg.death_rate == 0.0 else rep._cells.take(slots.rows)


def _exact_scores(pops: np.ndarray) -> tuple[list[float], float]:
    """Each row's score, the float :func:`score_feature` gives, and the
    correctly rounded sum of those scores (``math.fsum``); ``pops`` holds
    each row as one complex E + iR."""
    scores = list(map(score_feature, pops.real.tolist(), pops.imag.tolist()))
    return scores, math.fsum(scores)


def _label(pops: np.ndarray, floor: float) -> str:
    """The label of the exact score sum of the rows ``pops``, each one
    complex E + iR, read from a numpy sum where an error bound proves its
    sign.

    ``floor`` is a lower bound on max(E, R) over every row that is not
    (+0.0, +0.0): :class:`Repertoire` keeps one as ``_floor``, because
    ``_fill`` sets it to the minimum over the rows, ``add`` lowers it to a
    new row's larger population, ``interact`` only adds to rows and
    ``decay`` multiplies rows and bound by one factor (rounding is
    monotone); when the bound falls below ``_ZERO_CLAMP``, ``decay``
    clears every row whose E and R both are below it to (+0.0, +0.0) and
    sets the bound to ``_ZERO_CLAMP``, which E or R of every other row
    reaches. With ``floor`` normal (``>= sys.float_info.min``) every norm
    is 0 or normal. A subnormal norm would void the relative bound below:
    a hypot a few subnormal ulp off can be many percent off.

    The exact scores t_i are (R - E) / math.hypot(R, E), and
    :func:`_exact_scores` sums them with ``math.fsum``, which is correctly
    rounded; the exact sum T is a multiple of 2**-1074, so the rounded sum
    has T's sign, and is 0 only when T is. The numpy sum A adds
    a_i = (R - E) / max(np.hypot(R, E), 5e-324), where the max turns a
    (+0.0, +0.0) row's 0 / 0 into 0 / 5e-324 = +0.0, that row's t_i. With
    u = 2**-53, the difference |A - T| has three sources:

    * the norms: both paths round the same R - E, with |R - E| <=
      max(E, R) <= hypot(E, R); ``np.hypot`` and ``math.hypot`` are each
      within a few ulp (say 2, a relative 4u) of the true norm, and
      differ by at most one ulp in practice, so a_i and t_i differ by at
      most 8u before division;
    * the division rounds in both paths, by at most u each, or by at most
      2**-1075 each where the quotient is subnormal; so
      |a_i - t_i| <= 11u + 1e-323, and |a_i| <= 1 + 9u;
    * numpy's summation of n terms, in any order of its n - 1 additions,
      errs by at most (n - 1)u / (1 - (n - 1)u) * sum |a_i|, below
      1.0001 (n - 1) u n for n <= 1000.

    So |A - T| <= u (1.0001 n**2 + 11 n) + n * 1e-323, which
    B(n) = 4e-16 (n**2 + 4n) + n * 1e-320 exceeds (4e-16 > 3.6u). When
    |A| > B(n) >= |A - T|, T is not 0 and has A's sign, and the label is
    spam exactly when A < 0. Every other case, an empty sample included,
    takes the exact sum, where a score <= 0 is spam.

    No step here overflows, so ``np.hypot`` raises no warning: every
    :class:`Repertoire` row has a finite E + R, because the repertoire
    refuses any other row when it is made or added to, a message adds at
    most n_a * proliferation <= 10**9 to a population, which cannot carry
    a finite E + R past the largest float (see :mod:`icrm.ranges`), and
    hypot(E, R) <= E + R.
    """
    n = len(pops)
    if n and floor >= sys.float_info.min:
        e, r = pops.real, pops.imag
        approx = float(((r - e) / np.maximum(np.hypot(r, e), 5e-324)).sum())
        if abs(approx) > 4e-16 * n * (n + 4) + n * 1e-320:
            return SPAM if approx < 0.0 else HAM
    return SPAM if _exact_scores(pops)[1] <= 0.0 else HAM


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
        self.stopwords = stopwords
        self.repertoire = Repertoire()
        self.rng = np.random.default_rng(self.config.seed)

    def train(self, messages: Iterable[Message]) -> None:
        """Train on each message in turn, as a training
        :func:`process_message` would, without scoring it: the verdicts
        are not wanted.
        """
        rep, cfg, rng = self.repertoire, self.config, self.rng
        for msg in messages:
            present_message(rep, msg, True, cfg, rng, self.stopwords)

    def verdict(self, msg: Message) -> Verdict:
        return process_message(
            self.repertoire, msg, False, self.config, self.rng, self.stopwords
        )

    def classify(self, msg: Message) -> str:
        """``verdict(msg).label``, leaving the same repertoire and random
        stream, without the per-feature scores (see :func:`_label`)."""
        rep, cfg = self.repertoire, self.config
        slots = present_message(rep, msg, False, cfg, self.rng, self.stopwords)
        return _label(_scored_pops(rep, slots, cfg), rep._floor)

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
        keys were saved sorted, so its rows load in sorted order. The
        sampler is the top-level ``sampler``, never a ``config`` key. The
        loader only decodes: :class:`IcrmConfig` checks the settings,
        :class:`Repertoire` the rows and the generator its state, which must
        read back unchanged, so a file holds exactly what :meth:`save` can
        write. Anything else is a :class:`SnapshotError` naming the file.

        Every check runs before the classifier is built, and it is built
        once: around the checked config, the loaded repertoire and a
        generator set to the saved state, with no empty repertoire first.
        """
        version, state = read_state(path, cls._FORMAT, {1, 2}, SnapshotError)
        try:
            sampler = state.get("sampler", SAMPLERS[0])
            # a config that also holds feature_sampler is a TypeError
            config = IcrmConfig(**state["config"], feature_sampler=sampler)
            decode = _v1_rows if version == 1 else _v2_rows
            repertoire = Repertoire.from_rows(*decode(state))  # which checks the rows
            rng = np.random.default_rng(config.seed)  # __init__'s kind of generator
            rng.bit_generator.state = state["rng_state"]
            # numpy would read 1.5 or true as 1 and drop an unknown key; JSON
            # texts tell 1 from 1.0 and true, so only a state save writes is kept
            if _json(rng.bit_generator.state) != _json(state["rng_state"]):
                raise ValueError("rng_state does not read back unchanged")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed state file {path}: {exc!r}") from None
        clf = cls.__new__(cls)
        clf.config, clf.stopwords = config, stopwords
        clf.repertoire, clf.rng = repertoire, rng
        return clf


_json = partial(json.dumps, sort_keys=True)  # a value's JSON text in any key order


def _v1_rows(state: dict) -> tuple[list[str], np.ndarray]:
    """Features and (E, R) rows of a version 1 ``repertoire`` object."""
    entries = state["repertoire"]
    pairs = list(entries.values())
    if set(map(len, pairs)) - {2}:
        raise ValueError("populations must be [E, R] pairs")
    pops = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    return list(entries), pops.reshape(-1, 2)


# base64.b64decode(text, validate=True) copies an ASCII str to bytes before
# decoding; from 3.11 the same strict decoder reads the str itself, which
# spares a large state's populations a copy whose pages are often faulted
# in afresh.
if sys.version_info >= (3, 11):
    _strict_b64decode = partial(binascii.a2b_base64, strict_mode=True)
else:  # no strict_mode before 3.11
    _strict_b64decode = partial(base64.b64decode, validate=True)


def _v2_rows(state: dict) -> tuple[list[str], np.ndarray]:
    """Features and (E, R) rows of version 2's ``features`` and ``populations``."""
    features = state["features"]
    # a str or an object would join; None, standing in for them, does not
    check_features(features if isinstance(features, list) else None)
    text = state["populations"]
    raw = _strict_b64decode(text)  # binascii.Error is a ValueError
    if len(text) != 4 * -(-len(raw) // 3):
        raise ValueError("populations carry padding beyond their last byte")
    if len(raw) != 16 * len(features):
        raise ValueError(
            f"populations hold {len(raw)} bytes, not 16 for each of "
            f"{len(features)} features"
        )
    return features, np.frombuffer(raw, "<f8").reshape(-1, 2)
