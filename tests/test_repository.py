"""Checks over the repository's own files: the demos run, and every Python
file parses with the oldest supported grammar."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.name for d in _DEMOS])
def test_each_demo_runs_clean_and_prints(demo, tmp_path):
    """A demo runs in a fresh interpreter on this tree's package, with a
    RuntimeWarning (a numpy overflow, say) made an error: it exits 0 and
    prints something."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_every_python_file_parses_as_python_3_10():
    """Syntax only: ``feature_version`` makes the parser refuse grammar
    newer than 3.10 (``except*``, say), but it checks no name, module or
    behaviour that 3.10 lacks."""
    files = sorted(
        path for top in ("src", "tests", "bench", "demos")
        for path in (_ROOT / top).rglob("*.py")
    )
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
