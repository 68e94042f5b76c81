"""``IcrmClassifier.load`` against the loader it replaced, file for file,
and the repertoire as the one check of the rows a state holds.

``tests/state_reference.py`` keeps the text-mode reader, the per-item type
scan and the build-then-replace load, and reads version 3 the plain way.
Both loaders are given the same mutated state files of versions 1, 2 and
3: a ``features`` value of the wrong shape or held as raw UTF-8 (which a
version 3 header, ASCII JSON, may not hold), a byte-order mark, CR or CRLF
line breaks, invalid UTF-8, trailing data, version 2 populations that are
not an ASCII string or whose base64 is padded or cut wrong, a version 3
block cut, lengthened or overwritten, or a header line broken, and a
config setting out of range. They must accept and refuse the same files,
every refusal a ``SnapshotError`` naming the file, and every accepted file
must load to the same populations, row order, config and generator state.
Files of versions 1 and 2 still load bit for bit, and resave as version 3.

The loader only decodes rows; :class:`Repertoire` refuses the bad ones,
however it is made. So any repertoire saves a file that loads back bit for
bit, and a row it refuses is refused from a file with the same text.
"""

import functools
import json
import math
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import icrm.model
import state_reference
from icrm.model import IcrmClassifier, IcrmConfig, Repertoire, SnapshotError
from icrm.synth import synthetic_dataset

from conftest import make_message
from model_reference import edit_state, state_file


@functools.cache
def _saved(version: int) -> bytes:
    """The bytes of a state file of ``version`` after training on a small
    corpus."""
    ds = synthetic_dataset(n_ham=15, n_spam=15, vocab_per_class=40, seed=6)
    clf = IcrmClassifier(IcrmConfig(seed=5))
    clf.train(ds.ham + ds.spam)
    return state_file(version, dict(clf.repertoire), clf.config, clf.rng)


# a features item of each JSON type that is not a string
_JSON_NOT_STRINGS = [0, 1.5, True, None, [], ["a"], {}, {"a": "b"}]
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf8\x88"]
_TRAILING = [" ", "\n", "\r\n", "\t", "x", "{}", "0", "\x00", '"a"']
# config values, some in range for some settings
_SETTINGS = [0, 3, 4, 50, -1, 0.5, 50.0, 10**6, 1e308, "x", "random", None, True]
_BASE64_TAILS = ["=", "==", "===", "A", "AA", "AAA", "AAAA", "A=", "AA=", "AA==",
                 "AAA=", "=A", "-", " "]


def _mutate_features(data, doc: dict) -> None:
    features = doc["features"]
    how = data.draw(st.sampled_from(["not-a-list", "item", "drop", "repeat", "non-ascii"]))
    if how == "not-a-list":
        doc["features"] = data.draw(st.sampled_from(
            [{}, {"a": 1}, "abc", "", 7, 1.5, None, True, dict.fromkeys(features[:3], 1)]))
    elif how == "item":
        i = data.draw(st.integers(0, len(features) - 1))
        features[i] = data.draw(st.sampled_from(_JSON_NOT_STRINGS))
        event(f"features item {json.dumps(features[i])}")
    elif how == "drop":
        features.pop()
    elif how == "repeat":
        features[-1] = features[0]
    elif how == "non-ascii":  # a string the file holds as raw UTF-8, not escaped
        i = data.draw(st.integers(0, len(features) - 1))
        features[i] += data.draw(st.sampled_from(["\xe9", "\u20ac", "\U0001f600"]))


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


def _mutate_block(data, block: bytes) -> bytes:
    """Version 3's block cut, lengthened, overwritten at one byte, or gone."""
    how = data.draw(st.sampled_from(["cut", "extend", "replace", "drop"]))
    if how == "cut":
        return block[: -data.draw(st.integers(1, 17))]
    if how == "extend":
        return block + data.draw(st.binary(min_size=1, max_size=17))
    if how == "replace" and block:
        i = data.draw(st.integers(0, len(block) - 1))
        return block[:i] + data.draw(st.binary(min_size=1, max_size=1)) + block[i + 1:]
    return b""


def _damage(data, version: int) -> bytes:
    """The saved state of ``version`` with none, one or two kinds of damage,
    its values maybe broken onto lines by CR, CRLF or LF, which JSON allows
    (in a version 3 header, such a break ends the header line)."""
    raw = _saved(version)
    line, _, block = raw.partition(b"\n") if version == 3 else (raw, b"", b"")
    doc = json.loads(line)
    kinds = data.draw(st.lists(st.sampled_from(
        ["config", "features", "populations", "break", "bom", "utf8", "trailing"]),
        max_size=2))
    if "config" in kinds:
        key = data.draw(st.sampled_from([*sorted(doc["config"]), "bogus"]))
        doc["config"][key] = data.draw(st.sampled_from(_SETTINGS))
    if version > 1 and "features" in kinds:
        _mutate_features(data, doc)
    if version == 2 and "populations" in kinds:
        _mutate_populations(data, doc)
    if version == 3 and "populations" in kinds:
        block = _mutate_block(data, block)
    text = json.dumps(doc, ensure_ascii=False)
    lines = data.draw(st.sampled_from(["", "\r", "\r\n", "\n"]))
    text = text.replace(", ", "," + lines) if lines else text
    if version == 3:  # the line feed after the header, or a CR, CRLF or nothing
        text += data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r", ""]))
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
    return raw + block


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
@settings(max_examples=600, deadline=None)
@example(data=None)  # the saved file unchanged
def test_loaders_accept_and_refuse_the_same_files(data):
    if data is None:
        raw = _saved(3)
    else:
        raw = _damage(data, data.draw(st.sampled_from([1, 2, 2, 3, 3, 3])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_bytes(raw)
        got = _outcome(IcrmClassifier.load, path)
        want = _outcome(state_reference.load, path)
    assert got == want
    if data is None:
        assert got != "refused"


@pytest.mark.parametrize("version, inside", [
    pytest.param(2, b'"populations": "', id="v2"),
    pytest.param(3, b'"features": ["', id="v3"),
])
@pytest.mark.parametrize("raw", [
    pytest.param(b"\xef\xbb\xbf", id="bom"),
    pytest.param(b"\r\n", id="crlf"),
    pytest.param(b"\xff", id="invalid-utf8"),
])
def test_each_damage_alone_is_refused_alike(tmp_path, raw, version, inside):
    text = _saved(version)
    # a BOM in front; a line break or a bad byte inside version 2's base64
    # string, or inside the first feature of a version 3 header
    at = 0 if raw.startswith(b"\xef") else text.index(inside) + len(inside) + 4
    path = tmp_path / "state.json"
    path.write_bytes(text[:at] + raw + text[at:])
    for load in (IcrmClassifier.load, state_reference.load):
        with pytest.raises(SnapshotError, match=re.escape(str(path))):
            load(path)


@pytest.mark.parametrize("after", ["\n", "\r\n", "\n\n", "\nx", "\n{}", '\n"a"'])
@pytest.mark.parametrize("version", [1, 2])
def test_an_older_file_is_read_whole_after_its_first_line_feed(tmp_path, version, after):
    """Only a version 3 header line is followed by a block. A version 1 or 2
    document on one line is read whole, so only JSON whitespace may follow
    it, whatever follows a line feed."""
    plain, path = tmp_path / "plain.json", tmp_path / "state.json"
    plain.write_bytes(_saved(version))
    path.write_bytes(_saved(version) + after.encode("ascii"))
    for load in (IcrmClassifier.load, state_reference.load):
        if after.strip():
            with pytest.raises(SnapshotError, match="^cannot read icrm-state file .*Extra data"):
                load(path)
        else:
            assert _outcome(load, path) == _outcome(load, plain) != "refused"


@pytest.mark.parametrize("breaks", ["", "\n", "\r\n", "\r"])
def test_a_state_of_no_features_loads_from_its_header_alone(tmp_path, breaks):
    """A version 3 state of no features has an empty block: its header is
    the whole file, with or without its line feed, and broken onto lines as
    JSON allows it is read whole, as version 3 with an empty block."""
    clf = IcrmClassifier(IcrmConfig(seed=9))
    path = tmp_path / "state.json"
    clf.save(path)
    line, newline, block = path.read_bytes().partition(b"\n")
    assert (newline, block) == (b"\n", b"")
    for text in (line, line + b"\n"):
        path.write_bytes(text.replace(b", ", b"," + breaks.encode("ascii")))
        for load in (IcrmClassifier.load, state_reference.load):
            loaded = load(path)
            assert len(loaded.repertoire) == 0
            assert loaded.rng.bit_generator.state == clf.rng.bit_generator.state


@pytest.mark.parametrize("edit", [
    pytest.param(lambda g: g["state"].update(state=1.5), id="state-1.5"),
    pytest.param(lambda g: g["state"].update(state=True), id="state-true"),
    pytest.param(lambda g: g["state"].update(inc=2.0), id="inc-2.0"),
    pytest.param(lambda g: g.update(has_uint32=True), id="has_uint32-true"),
    pytest.param(lambda g: g.update(uinteger=7.0), id="uinteger-7.0"),
    pytest.param(lambda g: g.update(extra=1), id="extra-key"),
    pytest.param(lambda g: g["state"].update(extra=1), id="extra-state-key"),
])
def test_a_generator_state_that_does_not_read_back_unchanged_is_refused(tmp_path, edit):
    """numpy would read a float or a bool as an int and drop a key it does
    not know, so load then save would write a different state."""
    path = tmp_path / "state.json"
    path.write_bytes(edit_state(header=lambda state: edit(state["rng_state"]))(_saved(3)))
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        IcrmClassifier.load(path)


def test_a_generator_state_holding_a_spare_half_word_loads_back_unchanged(tmp_path):
    clf = IcrmClassifier()
    clf.rng.integers(2**32, dtype=np.uint32)  # leaves has_uint32 set
    clf.save(tmp_path / "state.json")
    loaded = IcrmClassifier.load(tmp_path / "state.json")
    assert loaded.rng.bit_generator.state == clf.rng.bit_generator.state
    assert loaded.rng.bit_generator.state["has_uint32"] == 1
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "state.json").read_bytes()


@pytest.mark.parametrize("features", [
    pytest.param(["a", 1], id="int"), pytest.param(["a", 1.0], id="float"),
    pytest.param([True], id="bool"), pytest.param([None], id="none"),
    pytest.param([["a"]], id="list"), pytest.param([{"a": "b"}], id="dict"),
    pytest.param("ab", id="str"), pytest.param({"a": 1}, id="object"),
])
@pytest.mark.parametrize("version", [2, 3])
def test_features_that_are_not_a_list_of_strings_are_refused(tmp_path, features, version):
    """Each file holds 16 bytes of populations for each item of a list, so
    only the features are wrong."""
    path = tmp_path / "state.json"
    zeros = bytes(16 * len(features)) if isinstance(features, list) else None
    edit = edit_state(header=lambda state: state.update(features=features),
                      block=lambda raw: raw if zeros is None else zeros)
    path.write_bytes(edit(_saved(version)))
    with pytest.raises(SnapshotError, match="features must be a list of strings"):
        IcrmClassifier.load(path)


# populations at the edges of what a row may hold, and past them
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-12, 1.0, 6.0, 8.9e307, 1e308,
                1.7976931348623157e308, -5e-324, -1.0, math.inf, -math.inf, math.nan]
_POPULATIONS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, 8e307), st.floats())


def _valid(e: float, r: float) -> bool:
    return 0.0 <= e < math.inf and 0.0 <= r < math.inf and e + r < math.inf


@given(rows=st.lists(st.tuples(st.text(max_size=4), _POPULATIONS, _POPULATIONS),
                     max_size=8, unique_by=lambda row: row[0]),
       version=st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
@example(rows=[("a", -0.0, -0.0), ("b", 8.9e307, 8.9e307)], version=3)
def test_any_repertoire_saves_a_file_that_loads_back_bit_for_bit(rows, version):
    """A repertoire is made exactly when its rows are valid, and then it
    saves the version 3 file the dict repertoire writes, and a file of it
    at any version loads back with the same populations, bit for bit, in
    the same row order."""
    features = [f for f, _, _ in rows]
    pops = [(e, r) for _, e, r in rows]
    mapping = dict(zip(features, pops))
    try:
        rep = Repertoire.from_rows(features, pops)
    except ValueError as exc:
        event("refused")
        assert not all(_valid(e, r) for e, r in pops)
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            Repertoire(mapping)
        return
    event("accepted")
    assert all(_valid(e, r) for e, r in pops)
    assert _bits(Repertoire(mapping)) == _bits(rep)
    clf = IcrmClassifier()
    clf.repertoire = rep
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        clf.save(path)
        assert path.read_bytes() == state_file(3, rep, clf.config, clf.rng)
        path.write_bytes(state_file(version, rep, clf.config, clf.rng))
        loaded = IcrmClassifier.load(path).repertoire
    if version == 1:  # version 1 keeps the rows in sorted order
        features = sorted(features)
    assert list(loaded.rows) == features
    assert _bits(loaded) == [_bits(rep)[rep.rows[f]] for f in features]


def _bits(rep: Repertoire) -> list[list[int]]:
    return rep.populations.view(np.uint64).tolist()


_REFUSED = [
    pytest.param((math.nan, 1.0), "populations must be finite and >= 0: nan, 1.0",
                 id="nan"),
    pytest.param((1.0, math.inf), "populations must be finite and >= 0: 1.0, inf",
                 id="inf"),
    pytest.param((-math.inf, 1.0), "populations must be finite and >= 0: -inf, 1.0",
                 id="minus-inf"),
    pytest.param((-1.0, 3.0), "populations must be finite and >= 0: -1.0, 3.0",
                 id="negative"),
    pytest.param((1e308, 1e308),
                 "populations of 'pills' sum past the largest float: 1e+308 + 1e+308",
                 id="sum-overflows"),
]


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("row, text", _REFUSED)
def test_a_row_is_refused_when_made_with_the_text_load_gives(tmp_path, version, row, text):
    rows = {"cheap": (3.0, 1.0), "pills": row}
    for make in (lambda: Repertoire(rows),
                 lambda: Repertoire.from_rows(list(rows), list(rows.values()))):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$") as made:
            make()
    path = tmp_path / "state.json"
    path.write_bytes(state_file(version, rows, IcrmConfig(), np.random.default_rng(0)))
    with pytest.raises(SnapshotError) as loaded:
        IcrmClassifier.load(path)
    assert str(loaded.value) == f"malformed state file {path}: {made.value!r}"


@pytest.mark.parametrize("row, text", _REFUSED)
@pytest.mark.parametrize("filled", [3, 256])  # room left, and a full block
def test_a_refused_add_leaves_the_repertoire_as_it_was(row, text, filled):
    """``add`` refuses what making a repertoire refuses, with the same text
    but for the feature an overflowing sum names, and changes nothing."""
    rep = Repertoire({f"w{i}": (6.0, 5.0 + i) for i in range(filled)})
    rows, bits, floor = dict(rep.rows), _bits(rep), rep._floor
    text = text.replace("populations of 'pills'", "populations")
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        rep.add(["w0", "pills", "other"], row)
    assert (rep.rows, _bits(rep), rep._floor) == (rows, bits, floor)
    rep.add(["new"], (6.0, 5.0))  # and it still grows
    assert list(rep.rows)[-1] == "new" and rep["new"] == (6.0, 5.0)


_NOT_STRINGS = [pytest.param(7, id="int"), pytest.param(1.5, id="float"),
                pytest.param(True, id="bool"), pytest.param(None, id="none")]
_NOT_A_STRING = "^features must be a list of strings$"


@pytest.mark.parametrize("feature", _NOT_STRINGS)
def test_a_feature_that_is_not_a_string_is_refused_when_made(feature):
    rows = {"cheap": (3.0, 1.0), feature: (1.0, 2.0)}
    for make in (lambda: Repertoire(rows),
                 lambda: Repertoire.from_rows(list(rows), list(rows.values()))):
        with pytest.raises(ValueError, match=_NOT_A_STRING):
            make()


@pytest.mark.parametrize("feature", _NOT_STRINGS)
@pytest.mark.parametrize("filled", [3, 256])  # room left, and a full block
def test_an_add_of_a_feature_that_is_not_a_string_changes_nothing(feature, filled):
    rep = Repertoire({f"w{i}": (6.0, 5.0 + i) for i in range(filled)})
    rows, bits, floor = dict(rep.rows), _bits(rep), rep._floor
    with pytest.raises(ValueError, match=_NOT_A_STRING):
        rep.add(["w0", "pills", feature], (1.0, 2.0))
    assert (rep.rows, _bits(rep), rep._floor) == (rows, bits, floor)
    rep.add(["w0", "pills", "pills"], (1.0, 2.0))  # and it still grows, a row a feature
    assert list(rep.rows.items())[filled:] == [("pills", filled)]
    assert len(rep.populations) == filled + 1
    assert rep["pills"] == (1.0, 2.0) and rep._floor == 2.0


@given(features=st.lists(st.text(max_size=3) | st.integers(), max_size=6, unique=True))
@settings(max_examples=200, deadline=None)
def test_any_features_a_repertoire_accepts_save_and_load_back_equal(features):
    """Each way of making or growing a repertoire accepts exactly the
    features that are all strings, and what it accepts loads back equal."""
    pops = [(6.0, 5.0 + i) for i in range(len(features))]
    made = [lambda: Repertoire(dict(zip(features, pops))),
            lambda: Repertoire.from_rows(features, pops)]
    if all(type(f) is str for f in features):
        event("accepted")
        grown = Repertoire()
        for feature, pair in zip(features, pops):
            grown.add([feature], pair)
        for rep in [make() for make in made] + [grown]:
            clf = IcrmClassifier()
            clf.repertoire = rep
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "state.json"
                clf.save(path)
                loaded = IcrmClassifier.load(path).repertoire
            assert list(loaded.rows) == features and _bits(loaded) == _bits(rep)
        return
    event("refused")
    for make in made + [lambda: Repertoire().add(features, (6.0, 5.0))]:
        with pytest.raises(ValueError, match=_NOT_A_STRING):
            make()


_V1_FIXTURE = Path(__file__).parent / "data" / "icrm-state-v1.json"


def _by_feature(rep: Repertoire) -> dict[str, list[int]]:
    return dict(zip(rep.rows, _bits(rep)))


@pytest.mark.parametrize("version", [1, 2])
def test_an_older_file_loads_bit_for_bit_and_resaves_as_version_3(tmp_path, version):
    """The version 1 fixture, and a version 2 file written as version 2
    wrote it, load to the populations and generator state of the classifier
    that saved them, bit for bit, and give its next verdicts. Each resaves
    as version 3 with the same rows, and that file saves back byte for
    byte. The fixture was saved after training on the ham then the spam of
    ``synthetic_dataset(30, 30, seed=4)`` with seed 2."""
    ds = synthetic_dataset(30, 30, seed=4)
    saver = IcrmClassifier(IcrmConfig(seed=2))
    saver.train(ds.ham + ds.spam)
    if version == 1:
        path = _V1_FIXTURE
    else:
        path = tmp_path / "v2.json"
        path.write_bytes(state_file(2, dict(saver.repertoire), saver.config, saver.rng))
    old = IcrmClassifier.load(path)
    assert _by_feature(old.repertoire) == _by_feature(saver.repertoire)
    order = list(saver.repertoire.rows)  # version 1 listed the features sorted
    assert list(old.repertoire.rows) == (sorted(order) if version == 1 else order)
    assert old.rng.bit_generator.state == saver.rng.bit_generator.state
    old.save(tmp_path / "v3.state")
    new = IcrmClassifier.load(tmp_path / "v3.state")
    assert list(new.repertoire.rows) == list(old.repertoire.rows)
    assert _bits(new.repertoire) == _bits(old.repertoire)
    new.save(tmp_path / "again.state")
    assert (tmp_path / "again.state").read_bytes() == (tmp_path / "v3.state").read_bytes()
    probe = ds.ham[:5] + ds.spam[:5] + [make_message(body="unseen words")]
    for msg in probe:
        want = saver.verdict(msg)
        assert old.verdict(msg) == want and new.verdict(msg) == want
    assert _by_feature(new.repertoire) == _by_feature(saver.repertoire)


class _Stopped(Exception):
    """A save stopped part-way, as by a full disk or a signal."""


class _HalfFile:
    """A binary file that writes half of the first bytes it is given, then
    stops."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        data = bytes(data)
        self._fh.write(data[: len(data) // 2])
        raise _Stopped


def _stop_rename(src, dst):
    raise _Stopped


@pytest.mark.parametrize("stop", ["part-way", "before-rename"])
def test_an_interrupted_save_keeps_the_previous_file(tmp_path, monkeypatch, stop):
    ds = synthetic_dataset(n_ham=15, n_spam=15, vocab_per_class=40, seed=6)
    clf = IcrmClassifier()
    clf.train(ds.ham + ds.spam)
    path = tmp_path / "state.json"
    clf.save(path)
    before = path.read_bytes()
    clf.train(ds.ham[:5] + ds.spam[:5])  # the state to save now differs from the file

    if stop == "part-way":  # the temporary file holds half the header line
        monkeypatch.setattr(icrm.model, "open", _HalfFile, raising=False)
    else:  # the temporary file is whole
        monkeypatch.setattr(icrm.model.os, "replace", _stop_rename)
    with pytest.raises(_Stopped):
        clf.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
    monkeypatch.undo()
    clf.save(path)
    assert path.read_bytes() != before
    assert IcrmClassifier.load(path).classify(ds.ham[0]) == clf.classify(ds.ham[0])
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
