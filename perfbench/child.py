"""Run one qosc CLI invocation in this fresh interpreter and report on it.

Reads one JSON request from stdin:

    {"src": "<path of the checkout's src>", "argv": [...],
     "setup_only": false, "trace": false, "group": [], "control": null}

and writes one JSON line to stdout: exit code, SHA-256 of the report the
CLI printed, set-up seconds (``import qosc`` plus building the CLI
parser), run seconds, ``ru_maxrss`` in MiB, the CPU speed probe and, when
traced, the tracer's counters.  The CLI's own stdout is captured, never
echoed.

The speed probe times a fixed pure-Python loop (dense integer polynomial
products like the Scalar kernel's, then sparse updates of a dict keyed by
tuples like the module actions') nine times just before and nine times
just after the invocation, and reports the median.  On a shared machine the speed of the CPU
drifts by +-15% over tens of seconds; the runner divides each invocation's
time by the probe to report time at a reference speed.  The probe uses no
qosc code, so a change to qosc cannot move it.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


CPU_LIMIT_S = 175


def _probe_once(reps=60, keys=1500):
    a = tuple(range(1, 25))
    b = tuple(range(-3, 27))
    keep = {}
    t0 = time.perf_counter()
    for r in range(reps):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        keep[r % 97] = tuple(out)
    sparse = {}
    for i in range(keys):
        key = (i % 37, (i * 7) % 41, i % 5)
        old = sparse.get(key)
        new = tuple(range(i % 11 + 1))
        sparse[key] = new if old is None else tuple(x + y for x, y in zip(old, new))
    sorted(sparse.items())
    return time.perf_counter() - t0


def speed_probe():
    """Nine timings of the probe loop, in seconds."""
    return [_probe_once() for _ in range(9)]


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    req = json.loads(sys.stdin.read())
    # Ends this process even if the runner that waits for it is gone.
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 5))
    sys.path.insert(0, req["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import qosc.cli

    qosc.cli.build_parser()
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s}
    if req.get("setup_only"):
        out["rss_mb"] = _rss_mb()
        print(json.dumps(out))
        return 0

    t_probe = time.perf_counter()
    probe = speed_probe()
    probe_overhead = time.perf_counter() - t_probe

    tracer = None
    if req.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(req.get("group", ()))
        tracer.install()
    if req.get("control") == "flip-act":
        import controls

        controls.flip_one_act_sign()

    buf = io.StringIO()
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = qosc.cli.main(req["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is reported as a failed invocation
        traceback.print_exc()
        rc = -1
    run_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.snapshot(run_s)
    t_probe = time.perf_counter()
    probe = statistics.median(probe + speed_probe())
    probe_overhead += time.perf_counter() - t_probe
    out.update(
        rc=rc,
        digest=hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        run_s=run_s,
        rss_mb=_rss_mb(),
        probe_s=probe,
        probe_overhead_s=probe_overhead,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
