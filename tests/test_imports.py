import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symbreak"


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names a module imports from another symbreak module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "symbreak"
        if internal:
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_checker_flags_a_private_import():
    assert private_imports("from .metrics import UNKNOWN, _Unknown") == ["_Unknown"]
    assert private_imports("from symbreak.metrics import _apply_mask") == ["_apply_mask"]
    assert private_imports("from __future__ import annotations") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
    return found


def test_checker_finds_both_import_forms():
    assert imported_modules("import random") == {"random"}
    assert imported_modules("from random import Random\nfrom . import random") == {"random"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_random(path):
    """Every answer is exact: no package path samples."""
    assert "random" not in imported_modules(path.read_text())
