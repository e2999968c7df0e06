"""Every name a script imports from qosc must still exist.

The scripts do their work at import time, so they are parsed with ast
instead of being imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qosc"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (script.name, node.module, alias.name)
                checked += 1
    assert checked, "%s imports nothing from qosc" % script.name
