#!/usr/bin/env python3
"""Time the Scalar kernel of one qosc invocation, routine by routine.

    python scripts/kernel_replay.py rmatrix --flavor c --sigma +,- --m 2 --cutoff 7

Run from the root of a checkout; qosc is imported from ``src/`` under the
current directory.  The invocation runs three times:

1. in a fresh interpreter, unrecorded, for the in-process run time;
2. in this interpreter, with the operands of every call of ``_pmul``,
   ``_pdiv_exact``, ``_prem``, ``_reduce`` and ``_reduce_tail`` recorded,
   together with the recorded routine each call was made from;
3. as a replay: each routine's recorded calls are made again, in order,
   grouped by the routine they were made from.

A routine's self time is its replayed time minus the replayed time of the
recorded calls made from inside it (``_reduce`` reaches ``_prem`` and
``_pdiv_exact`` through the gcd, and ``_reduce_tail`` for the integer
content, sign and stride).  ``_reduce_tail`` is also called alone by the
Henrici sums of ``Scalar.__add__``.  The gcds that ``Scalar.__add__`` and
``Scalar.__mul__`` take outside ``_reduce`` are counted under ``_prem`` and
``_pdiv_exact``.  The gcd cache is cleared before ``_reduce`` is replayed,
so its hits and misses are those of the run.  The table gives each
routine's calls, self time and share of the run time, one row per routine
and a last row, ``kernel``, for their sum.
"""

import contextlib
import io
import subprocess
import sys
import time

sys.path.insert(0, "src")

from qosc import scalars
from qosc.cli import main

ROUTINES = ("_pmul", "_pdiv_exact", "_prem", "_reduce", "_reduce_tail")


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


def record(argv):
    """Run main(argv) with the kernel routines wrapped; returns
    {routine: {caller routine or None: [args, ...]}}."""
    calls = {name: {} for name in ROUTINES}
    stack = [None]
    originals = {name: getattr(scalars, name) for name in ROUTINES}

    def wrap(name, fn):
        def wrapper(*args):
            calls[name].setdefault(stack[-1], []).append(frozen(args))
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()

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
    """{(routine, caller): seconds} for replaying each group of calls."""
    out = {}
    for name in ROUTINES:
        fn = getattr(scalars, name)
        for caller, group in calls[name].items():
            if name == "_reduce":
                scalars._pgcd_prim.cache_clear()
            t = time.perf_counter()
            for args in group:
                fn(*args)
            out[(name, caller)] = time.perf_counter() - t
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
        inclusive = sum(t for (n, _), t in times.items() if n == name)
        nested = sum(t for (_, c), t in times.items() if c == name)
        own = inclusive - nested
        total += own
        ncalls = sum(len(g) for g in calls[name].values())
        print("%-12s %9d %9.2f %6.1f%%" % (name, ncalls, own, 100 * own / wall))
    print("%-12s %9s %9.2f %6.1f%%" % ("kernel", "", total, 100 * total / wall))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main_replay(sys.argv[1:])
