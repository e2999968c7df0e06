"""Every name that a module of src/qosc imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qosc"

# Imported but not called: perfbench/selftest.py checks that the tracer
# rebinds algebraops.eval_word together with fockmod.eval_word.
ALLOWED = {("algebraops", "eval_word")}


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


# __init__.py imports only to re-export the package's API
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = {(path.stem, name) for name in unused_imports(tree)}
    # an allowance ends with its reason
    assert unused == {entry for entry in ALLOWED if entry[0] == path.stem}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import comb, prod\nprint(prod([comb(3, 1)]))\n")
    assert unused_imports(tree) == ["os"]
