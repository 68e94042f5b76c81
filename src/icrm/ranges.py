"""Every setting's type and limits, in one table that every module checks.

A row of :data:`RANGES` holds a setting's type and ``(op, bound)`` limits,
which :func:`check_range` reads: one row per ``IcrmConfig`` field, per
keyword of the two evaluation protocols and for the ingest ``limit``. This
module imports nothing from ``icrm``, so every other module can import it.

A population starts at most at 10**6 and gains at most n_a * proliferation
<= 10**9 per message, so it stays finite for any stream under 10**299
messages; a message binds n * n_a <= 10**6 slots. The first-last sampler
keeps the first and last n / 2 stems, so ``n`` is even.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Mapping

SAMPLERS = ("first-last", "random")  # feature selection rules, default first
# the most messages a split count takes: more than any corpus class holds, and
# few enough that a test block's spam count, a float product, is exact
MAX_COUNT = 10**9

RANGES = {  # each setting's type and (op, bound) limits; see the module docstring
    "n": (int, [(">=", 2), ("<=", 1000), ("a multiple of", 2)]),
    "n_a": (int, [(">=", 1), ("<=", 1000)]),
    **dict.fromkeys(("e0_ham", "r0_ham", "e0_spam", "r0_spam", "e0_test", "r0_test"),
                    (float, [(">=", 0), ("<=", 10**6)])),  # cell counts; -0.0 passes
    "proliferation": (float, [(">", 0), ("<=", 10**6)]),
    "death_rate": (float, [(">=", 0), ("<", 1)]),
    "seed": (int, [(">=", 0)]),
    "feature_sampler": (str, [("one of", SAMPLERS)]),
    **dict.fromkeys(("runs", "window", "shift"), (int, [(">=", 1)])),
    **dict.fromkeys(("train_per_class", "test_size"),  # see MAX_COUNT
                    (int, [(">=", 1), ("<=", MAX_COUNT)])),
    "spam_ratio": (float, [(">", 0), ("<", 1)]),
    "shuffle_test": (bool, []),
    "balance": (bool | None, []),  # None: balanced unless the ratio is 0.5
    "limit": (int, [(">=", 1)]),  # messages ingest keeps per class
}
_LIMITS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
           "one of": lambda value, choices: value in choices,
           "a multiple of": lambda value, step: value % step == 0}
_KINDS = {  # each kind: the exact types a value may have, and how an error names it
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
    bool | None: ((bool, type(None)), "true, false or None"),
}


def check_range(ranges: Mapping[str, tuple], name: str, value):
    """``value`` (as a float for a float setting, which takes any int or float
    a float holds: NaN and infinities fail) if it has the exact type and meets
    the limits of ``name``'s row in ``ranges``, else a ValueError naming it."""
    kind, limits = ranges[name]
    types, what = _KINDS[kind]
    if type(value) not in types or kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be {what}, got {_shown(value)}")
    for op, bound in limits:
        if not _LIMITS[op](value, bound):
            raise ValueError(f"{name} must be {op} {bound!r}, got {_shown(value)}")
    return float(value) if kind is float else value


def _shown(value) -> str:
    """``repr(value)``, or the digit count of an integer too long to convert
    (``sys.get_int_max_str_digits``)."""
    try:
        return repr(value)
    except ValueError:
        size = abs(value)
        digits = int(math.log10(size)) + 1  # one off at worst: the log is a float
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} integer of {digits:,} digits"
