"""Slot arrays written out slot by slot, for tests of ``interact``.

``icrm.model.build_slot_array`` lays slots out over a sample of distinct
features and binds them to a repertoire. The interaction-law tests want
slots spelled feature by feature instead, repeats included: ``hand_slots``
interns them into the kernel's ``keys`` and ``index`` and binds them to the
repertoire given, as ``build_slot_array`` would, so ``interact`` applies
them to it. ``slot_features`` spells any slot array's features back out,
and ``bind`` lays a sample out on the rows a repertoire holds for it.
"""

import numpy as np

from icrm.model import Repertoire, SlotArray, build_slot_array


def _rows(rep: Repertoire, features) -> np.ndarray:
    """The rows ``rep`` holds for ``features``; an unknown one is a KeyError."""
    return np.array([rep.rows[feature] for feature in features], dtype=np.intp)


def hand_slots(rep: Repertoire, features, bound) -> SlotArray:
    """Slots bound to ``rep`` from parallel per-slot features, each one of
    ``rep``'s, and binding codes, as ``uint8`` codes."""
    keys = list(dict.fromkeys(features))
    position = {feature: i for i, feature in enumerate(keys)}
    index = np.array([position[feature] for feature in features], dtype=np.intp)
    rows = _rows(rep, keys)
    return SlotArray(keys, index, np.array(bound, dtype=np.uint8), rows,
                     rep._cells.take(rows), rep)


def slot_features(slots: SlotArray) -> list[str]:
    """Each slot's feature, in slot order."""
    keys = slots.keys
    return [keys[i] for i in slots.index.tolist()]


def bind(sample, rep, cfg, rng) -> SlotArray:
    """``build_slot_array`` on the sample's rows in ``rep``, as
    ``present_message`` hands them on from ``init_features``."""
    return build_slot_array(sample, rep, cfg, rng, _rows(rep, sample))
