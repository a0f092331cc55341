"""No package module reaches into another module's private names.

A module under ``src/roughmatroids`` may use its own ``_name`` helpers
only.  Importing a single-underscore name from another module
(``from .core import _helper``) or reading one off an imported name
(``fileio._helper``) is a reach-in, and this test lists each one.

The one allowance is ``_check_rough_given``, imported from ``axioms`` by
``oracle`` and ``constructions``.  The benchmark tracer
(``perfbench/bench_trace.py``) wraps it by that name in both modules'
namespaces to time and count every enumerated candidate, so it keeps its
name and both imports until the tracer changes with it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roughmatroids"
ALLOWED = {("oracle", "_check_rough_given"), ("constructions", "_check_rough_given")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def reach_ins(source: str) -> list[str]:
    """Private names the source imports, or reads off an imported name."""
    tree = ast.parse(source)
    imported: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                if isinstance(node, ast.ImportFrom) and _private(alias.name):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_no_private_name_of_another_module(module):
    found = reach_ins((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [name for name in found if (module, name) not in ALLOWED] == []


def test_allowed_reach_ins_are_still_in_use():
    for module, name in sorted(ALLOWED):
        assert name in reach_ins((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_both_kinds_of_reach_in_are_found():
    source = (
        "from . import fileio\n"
        "from .core import _helper, public\n"
        "def f(self):\n"
        "    return fileio._jsonable(self._own), public.__name__\n"
    )
    assert reach_ins(source) == ["_helper", "fileio._jsonable"]
