#!/usr/bin/env python3
"""Time the Scalar kernel of one qosc invocation, routine by routine.

    python scripts/kernel_replay.py rmatrix --flavor c --sigma +,- --m 2 --cutoff 7

Run from the root of a checkout; qosc is imported from ``src/`` under the
current directory.  The invocation runs three times:

1. in a fresh interpreter, unrecorded, for the in-process run time;
2. in this interpreter, with the operands of every call of ``_pmul``,
   ``_pgcd_cof``, ``_pdiv_exact``, ``_prem``, ``_reduce`` and
   ``_reduce_tail`` recorded in the order they were made;
3. as a replay: each routine's recorded calls are made again, in order,
   with the other routines timed wherever the replayed calls reach them.

A routine's self time is its replayed time minus the time spent in the
other routines it reached during that replay (``_reduce`` reaches the gcd
``_pgcd_cof`` and ``_reduce_tail``; the gcd reaches ``_pdiv_exact`` for
its exact divisions and ``_prem`` only when the heuristic gives up and
the PRS runs).  ``_pgcd_cof`` is also called alone by ``Scalar.__add__``
and ``Scalar.__mul__``, and ``_reduce_tail`` by the Henrici sums.  The gcd
cache is cleared before each routine is replayed, so the replayed
``_pgcd_cof`` calls hit and miss it as the run's did.  The table gives
each routine's calls, self time and share of the run time, one row per
routine and a last row, ``kernel``, for their sum.
"""

import contextlib
import io
import subprocess
import sys
import time

sys.path.insert(0, "src")

from qosc import scalars
from qosc.cli import main

ROUTINES = ("_pmul", "_pgcd_cof", "_pdiv_exact", "_prem", "_reduce", "_reduce_tail")


def run_time(argv):
    """In-process time of main(argv) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); from qosc.cli import main; "
        "t = time.perf_counter(); main(sys.argv[1:]); "
        "print(time.perf_counter() - t, file=sys.stderr)"
    )
    cmd = [sys.executable, "-c", code] + argv
    p = subprocess.run(cmd, capture_output=True, text=True)
    return float(p.stderr.strip().splitlines()[-1])


def frozen(args):
    # a list operand may be changed by its caller after the call
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


def timed(fn, clock, depth):
    """fn, adding the time of its outermost calls to clock[0]."""

    def wrapper(*args):
        if depth[0]:
            return fn(*args)
        depth[0] += 1
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            clock[0] += time.perf_counter() - t
            depth[0] -= 1

    return wrapper


def record(argv):
    """Run main(argv) with the kernel routines wrapped; returns
    {routine: [args, ...]} in call order."""
    calls = {name: [] for name in ROUTINES}
    originals = {name: getattr(scalars, name) for name in ROUTINES}

    def wrap(name, fn):
        def wrapper(*args):
            calls[name].append(frozen(args))
            return fn(*args)

        return wrapper

    for name, fn in originals.items():
        setattr(scalars, name, wrap(name, fn))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    finally:
        for name, fn in originals.items():
            setattr(scalars, name, fn)
    return calls


def replay(calls):
    """{routine: self seconds} for replaying each routine's calls."""
    out = {}
    originals = {name: getattr(scalars, name) for name in ROUTINES}
    for name in ROUTINES:
        fn = originals[name]
        nested, depth = [0.0], [0]
        for other, ofn in originals.items():
            if other != name:
                setattr(scalars, other, timed(ofn, nested, depth))
        scalars._pgcd_prim_cof.cache_clear()
        try:
            t = time.perf_counter()
            for args in calls[name]:
                fn(*args)
            out[name] = time.perf_counter() - t - nested[0]
        finally:
            for other, ofn in originals.items():
                setattr(scalars, other, ofn)
    return out


def main_replay(argv):
    wall = run_time(argv)
    calls = record(argv)
    times = replay(calls)
    print("qosc %s" % " ".join(argv))
    print("run (in-process, unrecorded): %.2f s" % wall)
    print("%-12s %9s %9s %7s" % ("routine", "calls", "self s", "share"))
    total = 0.0
    for name in ROUTINES:
        own = times[name]
        total += own
        print("%-12s %9d %9.2f %6.1f%%" % (name, len(calls[name]), own, 100 * own / wall))
    print("%-12s %9s %9.2f %6.1f%%" % ("kernel", "", total, 100 * total / wall))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main_replay(sys.argv[1:])
