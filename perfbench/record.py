#!/usr/bin/env python3
"""Record the output gate: each invocation's exit code and report digest.

    python3 perfbench/record.py            # print what would be recorded
    python3 perfbench/record.py --write    # store it in workloads.json

Runs every invocation of every workload (full and smoke lists) once; an
argument with ``{k}`` runs for every k of ``k_range`` and must give the same
report for all of them.  Record only at a commit whose reports are known to
be right, and name it in ``recorded_at``.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(inv, k_range):
    ks = range(k_range[0], k_range[1] + 1) if any("{k}" in a for a in inv["argv"]) else [0]
    seen = set()
    for k in ks:
        argv = [a.replace("{k}", str(k)) for a in inv["argv"]]
        res = run.spawn({"argv": argv})
        if "error" in res:
            raise SystemExit("qosc %s: %s" % (" ".join(argv), res["error"]))
        seen.add((res["rc"], res["digest"]))
        print("rc %d %s %6.2f s  qosc %s" % (res["rc"], res["digest"][:12],
                                             res["run_s"], " ".join(argv)))
    if len(seen) != 1:
        raise SystemExit("reports differ across k: %s" % sorted(seen))
    rc, digest = seen.pop()
    return dict(inv, rc=rc, digest=digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    spec = run.load_spec()
    for wl in spec["workloads"].values():
        for key in ("invocations", "smoke"):
            wl[key] = [record(inv, spec["k_range"]) for inv in wl[key]]
    if args.write:
        with open(os.path.join(run.HERE, "workloads.json"), "w") as fh:
            json.dump(spec, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
