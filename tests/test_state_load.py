"""``IcrmClassifier.load`` against the loader it replaced, file for file.

``tests/state_reference.py`` keeps the text-mode reader, the per-item type
scan and the build-then-replace load. Both loaders are given the same
mutated state files: a ``features`` value of the wrong shape, a byte-order
mark, CR or CRLF line breaks, invalid UTF-8, trailing data, populations
that are not an ASCII string or whose base64 is padded or cut wrong, and a
config setting out of range. They must accept and refuse the same files, every
refusal a ``SnapshotError`` naming the file, and every accepted file must
load to the same populations, row order, config and generator state.
"""

import functools
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import state_reference
from icrm.files import write_state
from icrm.model import IcrmClassifier, IcrmConfig, SnapshotError
from icrm.synth import synthetic_dataset

from model_reference import state_body


@functools.cache
def _saved(version: int) -> str:
    """The text of a state saved after training on a small corpus."""
    ds = synthetic_dataset(n_ham=15, n_spam=15, vocab_per_class=40, seed=6)
    clf = IcrmClassifier(IcrmConfig(seed=5))
    clf.train(ds.ham + ds.spam)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        if version == 1:
            write_state(path, "icrm-state", 1,
                        state_body(dict(clf.repertoire), clf.config, clf.rng))
        else:
            clf.save(path)
        return path.read_text(encoding="utf-8")


# a features item of each JSON type that is not a string
_NOT_STRINGS = [0, 1.5, True, None, [], ["a"], {}, {"a": "b"}]
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf8\x88"]
_TRAILING = [" ", "\n", "\r\n", "\t", "x", "{}", "0", "\x00", '"a"']
# config values, some in range for some settings
_SETTINGS = [0, 3, 4, 50, -1, 0.5, 50.0, 10**6, 1e308, "x", "random", None, True]
_BASE64_TAILS = ["=", "==", "===", "A", "AA", "AAA", "AAAA", "A=", "AA=", "AA==",
                 "AAA=", "=A", "-", " "]


def _mutate_features(data, doc: dict) -> None:
    features = doc["features"]
    how = data.draw(st.sampled_from(["not-a-list", "item", "drop", "repeat"]))
    if how == "not-a-list":
        doc["features"] = data.draw(st.sampled_from(
            [{}, {"a": 1}, "abc", "", 7, 1.5, None, True, dict.fromkeys(features[:3], 1)]))
    elif how == "item":
        i = data.draw(st.integers(0, len(features) - 1))
        features[i] = data.draw(st.sampled_from(_NOT_STRINGS))
    elif how == "drop":
        features.pop()
    elif how == "repeat":
        features[-1] = features[0]


def _mutate_populations(data, doc: dict) -> None:
    text = doc["populations"]
    how = data.draw(st.sampled_from(["tail", "cut", "replace", "not-a-string"]))
    if how == "not-a-string":
        text = data.draw(st.sampled_from([7, 1.5, None, True, [text], {"a": text}]))
    elif how == "tail":
        text += data.draw(st.sampled_from(_BASE64_TAILS))
    elif how == "cut":
        text = text[: -data.draw(st.integers(1, 8))]
    elif how == "replace":
        i = data.draw(st.integers(0, len(text) - 1))
        text = text[:i] + data.draw(st.sampled_from("=-_ \n.A/+é")) + text[i + 1:]
    doc["populations"] = text


def _damage(data, version: int) -> bytes:
    """The saved state of ``version`` with none, one or two kinds of damage,
    its values maybe broken onto lines by CR, CRLF or LF, which JSON allows."""
    doc = json.loads(_saved(version))
    kinds = data.draw(st.lists(st.sampled_from(
        ["config", "features", "populations", "break", "bom", "utf8", "trailing"]),
        max_size=2))
    if "config" in kinds:
        key = data.draw(st.sampled_from([*sorted(doc["config"]), "bogus"]))
        doc["config"][key] = data.draw(st.sampled_from(_SETTINGS))
    if version == 2 and "features" in kinds:
        _mutate_features(data, doc)
    if version == 2 and "populations" in kinds:
        _mutate_populations(data, doc)
    text = json.dumps(doc)
    lines = data.draw(st.sampled_from(["", "\r", "\r\n", "\n"]))
    text = text.replace(", ", "," + lines) if lines else text
    if "break" in kinds:
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + data.draw(st.sampled_from(["\r", "\r\n", "\n"])) + text[i:]
    if "trailing" in kinds:
        text += data.draw(st.sampled_from(_TRAILING))
    if "bom" in kinds:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if "utf8" in kinds:
        i = data.draw(st.integers(0, len(raw)))
        raw = raw[:i] + data.draw(st.sampled_from(_BAD_UTF8)) + raw[i:]
    return raw


def _outcome(load, path: Path):
    """What ``load`` made of ``path``: its state, or the refusal."""
    try:
        clf = load(path)
    except SnapshotError as exc:
        assert str(path) in str(exc)
        return "refused"
    rep = clf.repertoire
    return (rep.populations.tobytes(), list(rep.rows), asdict(clf.config),
            clf.rng.bit_generator.state, clf.stopwords)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
@example(data=None)  # the saved file unchanged
def test_loaders_accept_and_refuse_the_same_files(data):
    if data is None:
        raw = _saved(2).encode("utf-8")
    else:
        raw = _damage(data, data.draw(st.sampled_from([1, 2, 2, 2])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_bytes(raw)
        got = _outcome(IcrmClassifier.load, path)
        want = _outcome(state_reference.load, path)
    assert got == want
    if data is None:
        assert got != "refused"


@pytest.mark.parametrize("raw", [
    pytest.param(b"\xef\xbb\xbf", id="bom"),
    pytest.param(b"\r\n", id="crlf"),
    pytest.param(b"\xff", id="invalid-utf8"),
])
def test_each_damage_alone_is_refused_alike(tmp_path, raw):
    text = _saved(2).encode("utf-8")
    # a BOM in front; a line break or a bad byte inside the base64 string
    at = 0 if raw.startswith(b"\xef") else text.index(b'"populations": "') + 20
    path = tmp_path / "state.json"
    path.write_bytes(text[:at] + raw + text[at:])
    for load in (IcrmClassifier.load, state_reference.load):
        with pytest.raises(SnapshotError, match=re.escape(str(path))):
            load(path)


@pytest.mark.parametrize("features", [
    pytest.param(["a", 1], id="int"), pytest.param(["a", 1.0], id="float"),
    pytest.param([True], id="bool"), pytest.param([None], id="none"),
    pytest.param([["a"]], id="list"), pytest.param([{"a": "b"}], id="dict"),
    pytest.param("ab", id="str"), pytest.param({"a": 1}, id="object"),
])
def test_features_that_are_not_a_list_of_strings_are_refused(tmp_path, features):
    doc = json.loads(_saved(2))
    doc["features"] = features
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SnapshotError, match="features must be a list of strings"):
        IcrmClassifier.load(path)
