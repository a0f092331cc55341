"""No package module imports a name it never uses.

Every name a module under ``src/roughmatroids`` binds by ``import`` or
``from ... import`` must be read somewhere in that module, as a name or
as the base of an attribute.  ``__init__.py`` is left out: its imports
are the package's public names.

The two allowances are the names the benchmark tracer
(``perfbench/bench_trace.py``) wraps in a module's namespace without the
module calling them there: ``check_closure`` in ``oracle`` and
``extension_sides`` in ``cli``.  They keep their imports until the tracer
changes with them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roughmatroids"
ALLOWED = {("oracle", "check_closure"), ("cli", "extension_sides")}


def imported_names(tree: ast.AST) -> set[str]:
    """The names the module's imports bind, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - used)


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    found = unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [name for name in found if (module, name) not in ALLOWED] == []


def test_allowed_imports_are_still_imported():
    for module, name in sorted(ALLOWED):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in imported_names(tree)


def test_a_leftover_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import compress, repeat\n"
        "from typing import Sequence as Seq\n"
        "def f(xs: Seq[int]) -> list[int]:\n"
        "    return list(compress(xs, os.path.sep))\n"
    )
    assert unused_imports(source) == ["repeat"]
