#!/usr/bin/env python3
"""Print the SHA-256 and exit code of the report of each README CLI example.

Every `qosc ...` line of the fenced block under README's "## CLI" heading
runs in-process through qosc.cli.main, with --out pointed at a temporary
file.  One line per example: `sha256  exit-code  argv`.  Run it from the
root of two checkouts and diff the output to see whether a change moved
any README report:

    python scripts/readme_digests.py
"""

import hashlib
import os
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from qosc.cli import main as qosc_main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples(text):
    """The argv of each `qosc` line of the first fenced block after ## CLI."""
    lines = text[text.index("\n## CLI\n"):].splitlines()
    start = lines.index("```") + 1
    block = lines[start:lines.index("```", start)]
    return [shlex.split(line, comments=True)[1:] for line in block if line.startswith("qosc ")]


def with_out(argv, path):
    """argv writing its report to path: an --out value is replaced."""
    if "--out" in argv:
        i = argv.index("--out")
        return argv[:i] + argv[i + 2:] + ["--out", path]
    return argv + ["--out", path]


def main():
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        for argv in cli_examples(README.read_text()):
            open(path, "w").close()
            try:
                code = qosc_main(with_out(argv, path))
            except SystemExit as exc:  # a usage error
                code = exc.code
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print("%s  %d  %s" % (digest, code, shlex.join(argv)))
    finally:
        os.remove(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
