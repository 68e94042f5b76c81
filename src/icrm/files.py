"""The package's file boundary: versioned JSON state files and UTF-8 text.

A state file is one JSON object, keys sorted, holding a ``format`` tag and
an integer ``version`` next to the classifier's own body. Strict text
inputs are read whole by :func:`read_text`, which turns a file that cannot
be read or is not UTF-8 into the caller's typed error naming the file.
"""

import json


def read_text(path, error: type[Exception], what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def write_state(path, fmt: str, version: int, body: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": fmt, "version": version, **body}, fh, sort_keys=True)


def read_state(path, fmt: str, version: int, error: type[Exception]) -> dict:
    """The body of a ``fmt`` file at ``version``; the body's keys are not checked."""
    try:
        state = json.loads(read_text(path, error, f"{fmt} file"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"cannot read {fmt} file {path}: {exc}") from None
    if not isinstance(state, dict) or state.get("format") != fmt:
        raise error(f"{path} is not an {fmt} file")
    if state.get("version") != version:
        raise error(f"{path}: unsupported {fmt} version {state.get('version')!r}")
    del state["format"], state["version"]
    return state
