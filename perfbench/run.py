#!/usr/bin/env python3
"""Benchmark of the qosc exact checker, driven through its CLI.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; qosc is imported from ``src/``, nothing is
installed.  A workload is a fixed list of ``qosc`` subcommand invocations
(``perfbench/workloads.json``).  Each invocation runs in a fresh interpreter
(``perfbench/child.py``), one at a time: a closed loop with one client.  The
seed picks the spectral-parameter exponent k of ``q^k*z`` and the order of
the invocations.

--trace 0 repeats the whole list (a pass) for about ``--seconds`` seconds,
at least once, and reports the end-to-end metrics:

    wall_ref_s   median over passes of the time from starting the first
                 invocation to the last report written, with each
                 invocation's time scaled to the reference CPU speed
                 (time * REF_PROBE_S / the child's speed probe)
    setup_s      median over fresh processes of ``import qosc`` plus
                 building the CLI parser
    peak_rss_mb  median over passes of the largest ru_maxrss of a child

The unscaled median, wall_s, is printed with its quartiles and sample
count.  The speed of the CPU of a shared machine drifts by about +-15% over
tens of seconds, which moves wall_s between runs far more than passes within
a run differ; the probe (``child.py``) follows that drift, so wall_ref_s
shows changes of qosc rather than of the machine.

--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics (``tracer.py``), each layer's self time as a share of the
traced wall time, the tracing overhead, and whether the workload's dominant
sites hold most of the time.  Spans and counters go to
``.perfbench_out/`` in the checkout.

Every invocation is checked against the exit code and report digest recorded
in ``workloads.json``; a mismatch counts as a failed operation and the
runner exits 1.  ``--smoke`` runs the same subcommands at small cutoffs, and
``--control wrong-digest|flip-act`` injects a fault the gate must catch
(``selftest.py`` runs both).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROCESSES = 5  # set-up-only children per run, besides the invocations
DEADLINE_S = 150  # start no invocation after this many seconds of a run
HARD_LIMIT_S = 170  # kill a child still running then; a run must end by 180 s
CONTROL_TIMEOUT_S = 15  # a fault injected by a control may make qosc hang
# Median time of the child's speed probe on the machine the benchmark was
# defined on (2-core Xeon VM, Python 3.11.7).  Any fixed value would do: the
# bounds are relative.
REF_PROBE_S = 0.006

sys.path.insert(0, HERE)
import controls  # noqa: E402
import tracer  # noqa: E402


def load_spec():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def invocations(spec, workload, seed, smoke=False):
    """The workload's invocations for this seed: k filled in, order shuffled."""
    rng = random.Random(seed)
    lo, hi = spec["k_range"]
    k = rng.randint(lo, hi)
    invs = [
        dict(inv, argv=[a.replace("{k}", str(k)) for a in inv["argv"]])
        for inv in spec["workloads"][workload]["smoke" if smoke else "invocations"]
    ]
    rng.shuffle(invs)
    return k, invs


def spawn(request, timeout=HARD_LIMIT_S):
    """Run child.py on one request; its result dict, or one with 'error'."""
    # Byte-code is cached as for an installed package, under OUT_DIR.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    request = dict(request, src=SRC)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %d s" % timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "child exited %d: %s" % (proc.returncode, proc.stderr[-500:])}
    return json.loads(lines[-1])


def gate(inv, res):
    """None when the invocation reproduced its recorded report, else why not."""
    if "error" in res:
        return res["error"]
    if res["rc"] != inv["rc"]:
        return "exit code %s, recorded %s" % (res["rc"], inv["rc"])
    if res["digest"] != inv["digest"]:
        return "report digest %s..., recorded %s..." % (
            res["digest"][:12], inv["digest"][:12])
    return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    """Invocations attempted in one benchmark run and how they fared."""

    def __init__(self, invs, control, t_start):
        self.invs = invs
        self.control = control
        self.t_start = t_start
        self.attempted = 0
        self.failures = []

    def time_left(self):
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def child_timeout(self):
        left = HARD_LIMIT_S - (time.perf_counter() - self.t_start)
        return min(left, CONTROL_TIMEOUT_S) if self.control else left

    def one_pass(self, trace=False, group=()):
        """Run every invocation once; (seconds, seconds at the reference
        speed, results) or None when the deadline leaves no room to start."""
        results = []
        wall = ref = 0.0
        for inv in self.invs:
            if self.time_left() <= 0:
                return None
            req = {"argv": inv["argv"], "trace": trace, "group": list(group)}
            if self.control == "flip-act":
                req["control"] = "flip-act"
            t0 = time.perf_counter()
            res = spawn(req, timeout=self.child_timeout())
            t = time.perf_counter() - t0 - res.get("probe_overhead_s", 0.0)
            wall += t
            ref += t * REF_PROBE_S / res["probe_s"] if "probe_s" in res else t
            self.attempted += 1
            why = gate(inv, res)
            if why is not None:
                self.failures.append((" ".join(inv["argv"]), why))
            results.append(res)
        return wall, ref, results


def setup_samples(n):
    spawn({"setup_only": True})  # warm-up: byte-compiles src/ once
    samples = []
    for _ in range(n):
        res = spawn({"setup_only": True})
        if "error" in res:
            raise RuntimeError("set-up child failed: %s" % res["error"])
        samples.append(res["setup_s"])
    return samples


def fmt_stats(name, xs, unit):
    q1, med, q3 = quartiles(xs)
    return "%-12s median %.4f %s  (q1 %.4f, q3 %.4f, n=%d)" % (
        name, med, unit, q1, q3, len(xs))


def measure(run, seconds):
    setup = setup_samples(SETUP_PROCESSES)
    passes = []
    t0 = time.perf_counter()
    while True:
        p = run.one_pass()
        if p is None:
            break
        passes.append(p)
        elapsed = time.perf_counter() - t0
        est = statistics.median(wall for wall, _, _ in passes)
        if elapsed + est > seconds or run.time_left() < est:
            break
    if not passes:
        raise RuntimeError("no pass finished before the deadline")
    walls = [wall for wall, _, _ in passes]
    refs = [ref for _, ref, _ in passes]
    setup += [r["setup_s"] for _, _, rs in passes for r in rs if "setup_s" in r]
    rss = [max(r.get("rss_mb", 0.0) for r in rs) for _, _, rs in passes]
    per_inv = {}
    for _, _, rs in passes:
        for inv, r in zip(run.invs, rs):
            if "run_s" in r:
                per_inv.setdefault(" ".join(inv["argv"]), []).append(r["run_s"])
    for argv, xs in per_inv.items():
        print("  run_s %.3f (n=%d)  qosc %s" % (statistics.median(xs), len(xs), argv))
    print(fmt_stats("wall_s", walls, "s"))
    print(fmt_stats("wall_ref_s", refs, "s"))
    print(fmt_stats("setup_s", setup, "s"))
    print(fmt_stats("peak_rss_mb", rss, "MiB"))
    return {
        "wall_ref_s": {"value": statistics.median(refs), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }


def trace(run, spec, workload, seed):
    dom = spec["workloads"][workload]["dominant"]
    plain = run.one_pass()
    traced = run.one_pass(trace=True, group=dom["sites"])
    if plain is None or traced is None:
        raise RuntimeError("deadline reached before the traced pass ended")
    snaps = [r["trace"] for r in traced[2] if "trace" in r]
    merged = tracer.merge(snaps)
    mets = tracer.metrics(merged)
    overhead = traced[1] / plain[1]  # both at the reference speed
    mets["trace.wall_s"] = (traced[0], "s")
    mets["trace.overhead"] = (overhead, "ratio")

    wall = merged["wall_s"]
    print("traced wall %.3f s over %d invocations; at the reference speed the "
          "untraced pass takes %.3f s and the traced pass %.3f s: tracing "
          "overhead %.2fx" % (wall, len(snaps), plain[1], traced[1], overhead))
    print("self time by layer, as a share of the traced wall time:")
    shares = sorted(((v, k[6:]) for k, (v, _) in mets.items()
                     if k.startswith("share.")), reverse=True)
    for share, layer in shares:
        moves = spec["workloads"][workload]["layers_move"].get(layer, "")
        print("  %-11s %6.1f%%  %s" % (layer, 100 * share, moves))
    if merged["absent"]:
        print("ABSENT sites (no longer in qosc, reported as 0): %s"
              % ", ".join(sorted(merged["absent"])))
    calls = {p: merged["sites"].get(p, [0])[0] for p in dom["sites"]}
    idle = [p for p, c in calls.items() if c == 0]
    share = merged["group_s"] / wall if wall else 0.0
    verdict = "match" if share >= 0.5 and not idle else "MISMATCH"
    print("dominant sites %s: %.1f%% of traced wall (expected about %.0f%%): %s"
          % ("/".join(dom["sites"]), 100 * share, 100 * dom["expected_share"],
             verdict))
    for p in idle:
        print("FLAG: dominant site %s recorded zero calls" % p)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "invocations": [inv["argv"] for inv in run.invs],
                   "snapshots": snaps}, fh)
    print("spans and counters written to %s" % os.path.relpath(path, ROOT))
    return {k: {"value": v, "unit": u} for k, (v, u) in mets.items()}


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the same subcommands at small cutoffs")
    ap.add_argument("--control", choices=["wrong-digest", "flip-act"],
                    help="inject a fault that the output gate must catch")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qosc", "cli.py")):
        print("error: %s/qosc not found; run from a qosc checkout" % SRC,
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    k, invs = invocations(spec, args.workload, args.seed, args.smoke)
    if args.control == "wrong-digest":
        invs[0] = dict(invs[0], digest=controls.corrupt_digest(invs[0]["digest"]))
    print("workload %s, seed %d (k=%d), %s, python %s, nproc %d%s"
          % (args.workload, args.seed, k, "traced" if args.trace else "untraced",
             sys.version.split()[0], os.cpu_count(),
             ", control " + args.control if args.control else ""))
    run = Run(invs, args.control, t_start)
    if args.trace:
        metrics = trace(run, spec, args.workload, args.seed)
    else:
        metrics = measure(run, args.seconds)
    failed = len(run.failures)
    for argv_s, why in run.failures:
        print("FAILED qosc %s: %s" % (argv_s, why))
    print("ops_failed_frac %.4f (%d of %d invocations)"
          % (failed / max(run.attempted, 1), failed, run.attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
