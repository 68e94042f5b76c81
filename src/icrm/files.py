"""The package's file boundary: versioned JSON state files and UTF-8 text.

A state file is one JSON object, keys sorted, holding a ``format`` tag and
an integer ``version`` next to the classifier's own body, and
:func:`write_state` writes it whole or not at all. A loader names
the versions it reads; :func:`read_state` hands back the version it found
with the body, so the caller decodes its own versions. Strict text
inputs are read whole by :func:`read_text`, which turns a file that cannot
be read or is not UTF-8 into the caller's typed error naming the file;
:func:`read_state` does the same for the file it decodes.
"""

import json
import os


def read_text(path, error: type[Exception], what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def write_state(path, fmt: str, version: int, body: dict) -> None:
    """Write a ``fmt`` file to ``path`` whole or not at all.

    The file is written beside ``path`` and renamed over it, so a write
    stopped part-way leaves any previous file as it was. ``open`` creates
    the temporary file, so its permissions follow the umask.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"format": fmt, "version": version, **body}, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:  # after a successful rename there is no temporary file left
        if os.path.exists(tmp):
            os.remove(tmp)


def read_state(
    path, fmt: str, versions: set[int], error: type[Exception]
) -> tuple[int, dict]:
    """The version and body of a ``fmt`` file at one of ``versions``.

    The file is read as bytes and decoded once, as strict UTF-8, so a
    byte-order mark and CR or CRLF line breaks reach the JSON decoder as
    they are. A file that cannot be read, is not UTF-8 or is not one JSON
    value, or that holds an integer too long for Python to convert, is
    ``error`` naming the file. The version must be an ``int`` (not a bool,
    not a float that equals one); the body's keys are not checked.
    """
    try:
        with open(path, "rb") as fh:
            state = json.loads(fh.read().decode("utf-8"))
    # UnicodeDecodeError, JSONDecodeError and the integer limit are ValueErrors
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {fmt} file {path}: {exc}") from None
    if not isinstance(state, dict) or state.get("format") != fmt:
        raise error(f"{path} is not an {fmt} file")
    version = state.get("version")
    if type(version) is not int or version not in versions:
        raise error(f"{path}: unsupported {fmt} version {version!r}")
    del state["format"], state["version"]
    return version, state
