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


def _bound(target: ast.expr):
    """The names an assignment to ``target`` binds: not those it indexes."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound(element)
    elif isinstance(target, ast.Starred):
        yield from _bound(target.value)


def _module_bindings(tree: ast.Module):
    """(name, line) of each module-level assignment, ``def`` and ``class``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _bound(target):
                    yield name, node.lineno
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            for name in _bound(node.target):
                yield name, node.lineno


def test_no_module_binds_a_name_twice():
    """A second binding hides the first from every use after it, as a list
    of hypothesis items once hid behind a list of ``pytest.param``s."""
    twice = []
    for path in sorted(p for top in ("src", "tests", "bench", "demos")
                       for p in (_ROOT / top).rglob("*.py")):
        first = {}
        for name, line in _module_bindings(ast.parse(path.read_text(encoding="utf-8"))):
            if name in first:
                twice.append(f"{path.relative_to(_ROOT)}: {name!r} at lines {first[name]}, {line}")
            first.setdefault(name, line)
    assert twice == []
