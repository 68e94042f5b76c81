"""The package's file boundary: versioned state files and UTF-8 text.

A state file of version 3 is one line of ASCII JSON, an object with
sorted keys holding a ``format`` tag and the integer ``version`` next to
the classifier's own header, then a line feed, then a block of raw bytes;
:func:`write_state` writes it whole or not at all, and writes no other
version. Versions 1 and 2 were one JSON object and nothing else, and
:func:`read_state` still reads them. A loader names the versions it
reads; :func:`read_state` hands back the version it found with the header
and the block, so the caller decodes its own versions. Strict text inputs
are read whole by :func:`read_text`, which turns a file that cannot be
read or is not UTF-8 into the caller's typed error naming the file;
:func:`read_state` does the same for the file it decodes.
"""

import json
import os

# the version written as a header line and a block of raw bytes
BLOCK_VERSION = 3


def read_text(path, error: type[Exception], what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def write_state(path, fmt: str, header: dict, block) -> None:
    """Write a ``fmt`` file of :data:`BLOCK_VERSION` to ``path`` whole or
    not at all: ``header`` as one line of ASCII JSON, keys sorted, then a
    line feed, then the bytes of ``block``.

    The file is written beside ``path`` and renamed over it, so a write
    stopped part-way leaves any previous file as it was. ``open`` creates
    the temporary file, so its permissions follow the umask.
    """
    line = json.dumps({"format": fmt, "version": BLOCK_VERSION, **header}, sort_keys=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(line.encode("ascii"))  # json.dumps escapes all but ASCII
            fh.write(b"\n")
            fh.write(block)
        os.replace(tmp, path)
    finally:  # after a successful rename there is no temporary file left
        if os.path.exists(tmp):
            os.remove(tmp)


def read_state(
    path, fmt: str, versions: set[int], error: type[Exception]
) -> tuple[int, dict, bytes]:
    """The version, header and block of a ``fmt`` file at one of ``versions``.

    The file is read as bytes once. When its first line is ASCII JSON, an
    object of ``fmt`` at version 3, that object is the header and the
    bytes after the line feed are the block. Any other file is decoded
    whole, once, as strict UTF-8, so a byte-order mark and CR or CRLF line
    breaks reach the JSON decoder as they are; its block is empty. A file
    that cannot be read, is not UTF-8 or is not one JSON value, or that
    holds an integer too long for Python to convert, is ``error`` naming
    the file. The version must be an ``int`` (not a bool, not a float that
    equals one); the header's other keys are not checked.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(f"cannot read {fmt} file {path}: {exc}") from None
    line, newline, block = raw.partition(b"\n")
    state = _block_header(line, fmt) if newline else None
    if state is None:
        block = b""
        try:
            state = json.loads(raw.decode("utf-8"))
        # UnicodeDecodeError, JSONDecodeError and the integer limit are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise error(f"cannot read {fmt} file {path}: {exc}") from None
    if not isinstance(state, dict) or state.get("format") != fmt:
        raise error(f"{path} is not an {fmt} file")
    version = state.get("version")
    if type(version) is not int or version not in versions:
        raise error(f"{path}: unsupported {fmt} version {version!r}")
    del state["format"], state["version"]
    return version, state, block


def _block_header(line: bytes, fmt: str) -> dict | None:
    """``line`` as a ``fmt`` header of :data:`BLOCK_VERSION`, or None."""
    try:
        state = json.loads(line.decode("ascii"))
    except (ValueError, RecursionError):
        return None
    if (isinstance(state, dict) and state.get("format") == fmt
            and type(state.get("version")) is int and state["version"] == BLOCK_VERSION):
        return state
    return None
