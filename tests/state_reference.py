"""The state loader as it read files before it read them as bytes, kept as
the oracle for ``IcrmClassifier.load``.

``read_text`` and ``read_state`` are the text-mode reader and envelope
check the package used before ``icrm.model`` took over its state file,
``_v2_rows`` the version 2 row decoder with its per-item type scan, and
``load`` the classmethod that built a default classifier and then
replaced its repertoire and generator state. Version 3 is read the plain
way: ``read_state`` splits the bytes at the first line feed and takes the
first line as the header when it is ASCII JSON of the format at version
3, and ``_v3_rows`` unpacks the block one pair at a time. Any other file
is read whole, so a header line at a version other than 1, 2 or 3 is
refused here with the decoder's text, where the loader names the
version; both are refusals, which is all the comparison reads. The
loader must accept and refuse the same files, and restore the same
populations, row order, config and generator state. Test-only; never
imported by the package.
"""

import base64
import json
import math
import struct

import numpy as np

from icrm.model import IcrmClassifier, IcrmConfig, Repertoire, SnapshotError, _v1_rows
from icrm.textprep import SAMPLERS


def read_text(path, error: type[Exception], what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def read_state(
    path, fmt: str, versions: set[int], error: type[Exception]
) -> tuple[int, dict, bytes]:
    """The version, body and block of a ``fmt`` file at one of ``versions``.

    The version must be an ``int`` (not a bool, not a float that equals
    one); the body's keys are not checked.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(f"cannot read {fmt} file {path}: {exc}") from None
    if b"\n" in raw:
        line, block = raw.split(b"\n", 1)
        try:
            header = json.loads(line.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError, RecursionError):
            header = None
        if (isinstance(header, dict) and header.get("format") == fmt
                and header.get("version") == 3 and type(header["version"]) is int):
            del header["format"], header["version"]
            return 3, header, block
    try:
        state = json.loads(read_text(path, error, f"{fmt} file"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"cannot read {fmt} file {path}: {exc}") from None
    if not isinstance(state, dict) or state.get("format") != fmt:
        raise error(f"{path} is not an {fmt} file")
    version = state.get("version")
    if type(version) is not int or version not in versions:
        raise error(f"{path}: unsupported {fmt} version {version!r}")
    del state["format"], state["version"]
    return version, state, b""


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


def _v3_rows(state: dict, block: bytes) -> tuple[list[str], np.ndarray]:
    """Features and (E, R) rows of version 3's ``features`` and block."""
    features = state["features"]
    if not isinstance(features, list) or set(map(type, features)) - {str}:
        raise ValueError("features must be a list of strings")
    if len(block) != 16 * len(features):
        raise ValueError(
            f"populations hold {len(block)} bytes, not 16 for each of "
            f"{len(features)} features"
        )
    pairs = [list(pair) for pair in struct.iter_unpack("<dd", block)]
    return features, np.array(pairs, np.float64).reshape(-1, 2)


def load(path, stopwords: frozenset[str] | None = None) -> IcrmClassifier:
    """``IcrmClassifier.load``, its body as it was, and version 3 beside it."""
    cls = IcrmClassifier
    version, state, block = read_state(path, cls._FORMAT, {1, 2, 3}, SnapshotError)
    try:
        sampler = state.get("sampler", SAMPLERS[0])
        # a config that also holds feature_sampler is a TypeError
        clf = cls(IcrmConfig(**state["config"], feature_sampler=sampler), stopwords)
        if version == 3:
            features, pops = _v3_rows(state, block)
        else:
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
