"""Every name a script imports from qosc must still exist, and the kernel
replay runs end to end.

The scripts do their work at import time, so they are parsed with ast
instead of being imported.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


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


def test_kernel_replay_prints_a_row_per_routine():
    script = ROOT / "scripts" / "kernel_replay.py"
    routines = next(
        ast.literal_eval(node.value)
        for node in ast.parse(script.read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "ROUTINES"
    )
    scalars = importlib.import_module("qosc.scalars")
    assert all(hasattr(scalars, name) for name in routines)
    argv = ["rmatrix", "--flavor", "c", "--sigma", "+,-", "--m", "2", "--cutoff", "4"]
    out = subprocess.run(
        [sys.executable, str(script)] + argv, cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout
    lines = out.splitlines()
    assert lines[2].split() == ["routine", "calls", "self", "s", "share"], out
    assert [line.split()[0] for line in lines[3:]] == list(routines) + ["kernel"], out
