#!/usr/bin/env python3
"""Run the full acceptance battery with one pass/fail line per criterion.

Each line gives the criterion's in-process seconds and the collections the
cyclic garbage collector ran during it, per generation (gen0/gen1/gen2).
"""

import gc
import sys

sys.path.insert(0, "src")

from qosc.acceptance import run_all


def main():
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "stop":
            collections[info["generation"]] += 1

    def progress(line):
        print("%s  gc %d/%d/%d" % (line, *collections))
        collections[:] = [0, 0, 0]

    gc.callbacks.append(count)
    try:
        reports = run_all(progress=progress)
    finally:
        gc.callbacks.remove(count)
    failed = [r["id"] for r in reports if not r["pass"]]
    if failed:
        print("FAILED:", ", ".join(failed))
        return 1
    print("all %d criteria passed" % len(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
