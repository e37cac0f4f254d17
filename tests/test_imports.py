"""The package's one runtime dependency is numpy."""

import ast
import sys
from pathlib import Path

import numradius

PACKAGE = Path(numradius.__file__).parent


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "numradius"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 6
    for path in modules:
        assert _top_level_imports(path) <= allowed, path.name
