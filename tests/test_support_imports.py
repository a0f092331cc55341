"""No test module imports from another test module or from ``conftest``.

Every structure builder, input generator and brute-force reference that
more than one test module uses is defined once, in ``tests/support.py``,
and ``conftest.py`` holds only fixtures and the hypothesis profile.  So a
``tests/test_*.py`` module that imports a name from another test module
or from ``conftest`` is listed here, and so is an import of pytest,
hypothesis, ``conftest`` or a test module by ``support``, which the
acceptance script runs on without pytest or hypothesis.

The allowances are the digest inputs of the sha256 gate modules, read
elsewhere so that other tests run on the inputs the gates hash: ``_cases``
and ``_lawsuite_cases`` from ``test_crosscheck_identity``, and
``_coverings`` and ``SAMPLED_FOUR`` from ``test_report_identity``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.stem for p in TESTS.glob("test_*.py"))
SHARED = {"conftest", *TEST_MODULES}
ALLOWED = {
    ("test_crosscheck_identity", "_cases"),
    ("test_crosscheck_identity", "_lawsuite_cases"),
    ("test_report_identity", "_coverings"),
    ("test_report_identity", "SAMPLED_FOUR"),
}


def imports_from(source: str, modules: set[str]) -> list[tuple[str, str]]:
    """``(module, name)`` for each name the source imports from one of
    ``modules``, and ``(module, "*")`` for each import of a whole one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            found += [(top, alias.name) for alias in node.names if top in modules]
        elif isinstance(node, ast.Import):
            top = (alias.name.split(".")[0] for alias in node.names)
            found += [(name, "*") for name in top if name in modules]
    return sorted(found)


def read(module: str) -> str:
    return (TESTS / f"{module}.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("module", TEST_MODULES)
def test_module_imports_nothing_from_another_test_module(module):
    assert [found for found in imports_from(read(module), SHARED) if found not in ALLOWED] == []


def test_allowed_imports_are_still_in_use():
    used = {found for module in TEST_MODULES for found in imports_from(read(module), SHARED)}
    assert ALLOWED <= used


def test_support_imports_no_test_module_nor_pytest_nor_hypothesis():
    assert imports_from(read("support"), SHARED | {"pytest", "hypothesis"}) == []


def test_every_kind_of_import_is_found():
    source = (
        "import hypothesis.strategies as st\n"
        "from conftest import HEX_BLOCKS\n"
        "from hypothesis.strategies import integers\n"
        "from roughmatroids import Covering\n"
        "def f():\n"
        "    import test_cli\n"
        "    from test_report_identity import _coverings\n"
    )
    assert imports_from(source, SHARED | {"hypothesis"}) == [
        ("conftest", "HEX_BLOCKS"),
        ("hypothesis", "*"),
        ("hypothesis", "integers"),
        ("test_cli", "*"),
        ("test_report_identity", "_coverings"),
    ]
