"""Every name `qmask` exports has a caller outside the tests.

A public name counts as used when a module of ``src/qmask`` other than
``__init__.py`` reads it outside its own definition, when a file under
``perfbench/`` reads it, or when the README names it.  A name that only
tests call is surface to delete, not to keep.
"""

import ast
import re
from pathlib import Path

import qmask

ROOT = Path(__file__).resolve().parents[1]


def _read_names(node) -> set[str]:
    """The bare names and attribute names that ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defined_names(stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _used_names() -> set[str]:
    used = set()
    for path in sorted((ROOT / "src" / "qmask").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            # a definition does not count as a use of its own name
            used |= _read_names(stmt) - _defined_names(stmt)
    for path in sorted((ROOT / "perfbench").glob("*")):
        if path.suffix == ".py":
            used |= _read_names(ast.parse(path.read_text(encoding="utf-8")))
        elif path.suffix == ".md":
            used |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return used | set(re.findall(
        r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))


def test_every_export_has_a_caller_outside_the_tests():
    used = _used_names()
    assert [name for name in qmask.__all__ if name not in used] == []
