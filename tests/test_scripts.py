"""Every name a script imports from qosc must still exist, the kernel
replay and the acceptance runner run end to end, and the README digest
script finds every CLI example.

The scripts do their work at import time, so they are parsed with ast
instead of being imported.
"""

import ast
import gc
import hashlib
import importlib
import re
import runpy
import shlex
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


def test_run_acceptance_prints_seconds_and_gc_collections(monkeypatch, capsys):
    acceptance = importlib.import_module("qosc.acceptance")
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_9])
    monkeypatch.setattr(sys, "path", list(sys.path))
    callbacks = list(gc.callbacks)
    main = runpy.run_path(str(ROOT / "scripts" / "run_acceptance.py"))["main"]
    assert main() == 0
    assert gc.callbacks == callbacks
    lines = capsys.readouterr().out.splitlines()
    line = r"9-negative-controls +PASS  \(\d+\.\ds\)  gc \d+/\d+/\d+"
    assert re.fullmatch(line, lines[0]), lines
    assert lines[1:] == ["all 1 criteria passed"], lines


def test_readme_digests_runs_every_cli_example(monkeypatch, capsys):
    calls = []

    def stub(argv):
        calls.append(argv)
        return 0

    monkeypatch.setattr(importlib.import_module("qosc.cli"), "main", stub)
    monkeypatch.setattr(sys, "path", list(sys.path))
    main = runpy.run_path(str(ROOT / "scripts" / "readme_digests.py"))["main"]
    assert main() == 0
    text = (ROOT / "README.md").read_text()
    cli_block = text[text.index("\n## CLI\n"):].split("```")[1]
    examples = [line for line in cli_block.splitlines() if line.startswith("qosc ")]
    assert len(examples) == len(calls) == 10
    empty = hashlib.sha256(b"").hexdigest()
    for line, argv, out in zip(examples, calls, capsys.readouterr().out.splitlines()):
        words = shlex.split(line)[1:]
        assert out == "%s  0  %s" % (empty, shlex.join(words))
        if "--out" in words:  # the README's own report file is not written
            i = words.index("--out")
            del words[i:i + 2]
        assert argv[:-1] == words + ["--out"]
