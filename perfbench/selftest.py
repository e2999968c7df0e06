#!/usr/bin/env python3
"""Self-test of the benchmark: it must pass on good output and fail on bad.

    python3 perfbench/selftest.py

1. Smoke: every workload at small cutoffs, one pass, must report no failed
   invocation.
2. Negative controls on the smoke lists, each must report
   ``ops_failed_frac > 0`` and exit nonzero:
   ``--control wrong-digest`` (one expected digest altered) and
   ``--control flip-act`` (``fockmod.act`` flips one sign in the child).
3. Tracer: wrapped functions are rebound under every name that imported
   them, a site that no longer exists is reported absent, and uninstalling
   restores the originals.

Takes under a minute on a 2-core machine.  Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke", *extra],
        capture_output=True, text=True, timeout=200, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_tracer():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qosc.cli  # noqa: F401  (loads every qosc module)
    import qosc.fockmod as fockmod
    import qosc.rmatrix as rmatrix
    import qosc.algebraops as algebraops
    import tracer

    orig_act, orig_eval = fockmod.act, fockmod.eval_word
    tracer.SITES.append(("words.WordExpr.no_such_method", False))
    try:
        t = tracer.Tracer()
        t.install()
        rebound = (rmatrix.act is fockmod.act is not orig_act
                   and algebraops.eval_word is fockmod.eval_word is not orig_eval)
        t.uninstall()
    finally:
        tracer.SITES.pop()
    restored = fockmod.act is orig_act and rmatrix.act is orig_act
    return [
        ("tracer rebinds imported names", rebound),
        ("tracer reports a missing site as absent",
         "words.WordExpr.no_such_method" in t.absent),
        ("tracer uninstall restores originals", restored),
    ]


def main():
    checks = []
    for wl in ("relations", "rmatrix", "fusion"):
        rc, res = bench(wl)
        checks.append(("smoke %s passes" % wl,
                       rc == 0 and res is not None and res["failed"] == 0))
        for control in ("wrong-digest", "flip-act"):
            rc, res = bench(wl, "--control", control)
            caught = rc != 0 and res is not None and res["failed"] > 0
            checks.append(("control %s caught on %s" % (control, wl), caught))
    checks.extend(check_tracer())
    for name, ok in checks:
        print("%s  %s" % ("ok  " if ok else "FAIL", name))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
