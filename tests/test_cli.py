import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qosc.cli import build_parser, main

from test_eval_reference import packed_walks_only


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_relations(capsys):
    code, rep = run_cli(
        capsys,
        ["verify-relations", "--epsilon", "1,0,1,0,1", "--module", "W", "--cutoff", "4"],
    )
    assert code == 0
    assert rep["schema"] == "qosc/1" and rep["pass"]
    assert len(rep["checks"]) > 100


def test_relation_check_of_no_kets_fails(capsys):
    # at cutoff 2 the guard band of these three relations admits no ket
    code, rep = run_cli(
        capsys,
        ["verify-relations", "--epsilon", "1,0,1,0,1", "--module", "W", "--cutoff", "2"],
    )
    assert code == 1 and not rep["pass"]
    vacuous = [c for c in rep["checks"] if c.get("vacuous")]
    assert [c["relation"] for c in vacuous] == ["ef:0,5", "nilpotent:e0", "nilpotent:f5"]
    assert all(c["kets_checked"] == 0 and c["pass"] is False for c in vacuous)
    assert all(c["pass"] and c["kets_checked"] for c in rep["checks"] if c not in vacuous)


def test_rmatrix_report(capsys):
    code, rep = run_cli(
        capsys, ["rmatrix", "--flavor", "c", "--sigma", "+,+", "--m", "2", "--cutoff", "5"]
    )
    assert code == 0 and rep["pass"]
    comps = [tuple(c["component"]) for c in rep["checks"]]
    assert (2,) in comps
    assert rep["declared_poles"][:2] == [2, 6]


def test_fuse_and_admissibility(capsys):
    code, rep = run_cli(
        capsys,
        ["fuse", "--flavor", "c", "--sigma", "+,+", "--c", "q^-6,1", "--m", "2", "--cutoff", "5"],
    )
    assert code == 0 and rep["pass"]
    content = rep["checks"][0]["hw_content"]
    assert set(content) == {"()", "(2,)"}
    code, rep = run_cli(
        capsys,
        ["fuse", "--flavor", "c", "--sigma", "+,+", "--c", "q^2,1", "--m", "2", "--cutoff", "5"],
    )
    assert code == 1 and not rep["pass"]
    assert rep["checks"][0]["offending"] == [0, 1, 2]


def test_decompose_table(capsys):
    code, rep = run_cli(
        capsys,
        ["decompose", "--flavor", "c", "--factors", "+,+", "--cutoff", "6"],
    )
    assert code == 0
    table = {tuple(row["lambda"]): row["mult"] for row in rep["checks"][0]["table"]}
    assert table == {(): 1, (2,): 1, (4,): 1, (6,): 1}


def test_hwv(capsys):
    code, rep = run_cli(
        capsys,
        ["hwv", "--factors", "+,+", "--weight", "2*L+1*d4+1*d5", "--cutoff", "6"],
    )
    assert code == 0
    assert rep["checks"][0]["dimension"] == 1


def test_appendix_check(capsys):
    code, rep = run_cli(
        capsys,
        ["appendix-check", "--which", "C", "--m", "2", "--l", "1,1", "--rmax", "1", "--smax", "0"],
    )
    assert code == 0 and rep["pass"]


def test_reports_are_deterministic(capsys):
    argv = ["rmatrix", "--flavor", "c", "--sigma=-,-", "--m", "2", "--cutoff", "4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("command", ["verify-phi", "truncate"])
def test_eta_is_in_the_report(capsys, command):
    argv = [command, "--flavor", "c", "--side", "overline", "--epsilon", "1,0,1,0,1",
            "--module", "W", "--cutoff", "4"]
    reports = {}
    for eta in ("1", "-1"):
        code, reports[eta] = run_cli(capsys, argv + ["--eta", eta])
        assert code == 0
    assert reports["-1"] != reports["1"]
    assert reports["-1"].pop("eta") == -1
    assert "eta" not in reports["1"]
    # the default report is unchanged: eta names only the other phi map
    assert run_cli(capsys, argv) == (0, reports["1"])


# (argv, text the error message must contain); exit 1 means a failed check
USAGE_ERRORS = [
    (["rmatrix", "--flavor", "x"], "invalid choice"),
    (["decompose", "--factors", "+,x"], "--factors"),
    (["decompose", "--factors", "+-,+"], "--factors"),
    (["rmatrix", "--flavor", "c", "--sigma", "+,x"], "--sigma"),
    (["hwv", "--weight", "2*L+1*d9"], "--weight"),
    (["verify-relations", "--x", "foo"], "--x"),
    (["verify-relations", "--epsilon", "1,2"], "--epsilon"),
    (["fuse", "--c", "q^-6"], "--c"),
    (["fuse", "--c", "z,1"], "--c"),
    (["fuse", "--c", "0,1"], "--c"),
    (["fuse", "--c", "1,0"], "--c"),
    (["fundamental", "--l", "1", "--x", "0"], "--x"),
    (["verify-phi", "--flavor", "d", "--side", "underline"], "--flavor d"),
    (["truncate", "--flavor", "d", "--side", "underline"], "--flavor d"),
    (["truncate", "--flavor", "c", "--side", "underline", "--cutoff", "0"], "--cutoff 2 or more"),
    (["truncate", "--flavor", "c", "--side", "overline", "--cutoff", "1", "--monoidal"],
     "--cutoff 2 or more"),
    (["rmatrix", "--flavor", "c", "--cutoff", "-1"], "top component ()"),
    (["rmatrix", "--flavor", "d", "--l", "1,1", "--m", "2", "--cutoff", "1", "--level",
      "underline"], "top component (0, 1)"),
    (["fuse", "--flavor", "d", "--l", "1,1", "--c", "q^-3,1", "--cutoff", "1"],
     "top component (0, 1)"),
    (["rmatrix", "--flavor", "d", "--level", "overline"], "--level overline"),
    (["fundamental", "--l", "-1", "--cutoff", "4"], "--l"),
    (["fundamental", "--l", "1", "--m", "1"], "--m"),
    (["fundamental", "--l", "1", "--k", "3"], "--k"),
    (["fundamental", "--l", "1", "--k=-1"], "--k"),
    (["fundamental", "--l", "1", "--k2", "2"], "--k2"),
    (["appendix-check", "--m", "1"], "--m"),
    (["appendix-check", "--l=-1,1"], "--l"),
    (["appendix-check", "--rmax", "-1"], "--rmax"),
    (["appendix-check", "--which", "C", "--smax", "-1"], "--smax"),
    (["rmatrix", "--flavor", "c", "--m", "1"], "--m"),
    (["rmatrix", "--flavor", "d", "--l=-1,1", "--cutoff", "4"], "--l"),
    (["verify-relations", "--epsilon", "1,0,1", "--cutoff", "3"], "--epsilon"),
    (["decompose", "--epsilon", "1,0,1", "--cutoff", "3"], "--epsilon"),
    (["decompose", "--cutoff", "-1"], "--cutoff"),
    (["hwv", "--weight", "L", "--cutoff", "-1"], "--cutoff"),
    (["verify-relations", "--cutoff", "-1"], "--cutoff"),
    (["verify-phi", "--flavor", "c", "--side", "underline", "--cutoff", "-1"], "--cutoff"),
    (["fundamental", "--l", "1", "--verify", "build", "--cutoff", "-1"], "--cutoff"),
    (["fundamental", "--l", "1", "--verify", "truncation", "--cutoff", "0"], "--cutoff 3 or more"),
    (["fundamental", "--l", "1", "--verify", "truncation", "--cutoff", "1"], "--cutoff 3 or more"),
    (["fundamental", "--l", "1", "--verify", "truncation", "--cutoff", "2"], "--cutoff 3 or more"),
    (["fundamental", "--l", "0", "--cutoff", "3"], "--cutoff 4 or more"),
    (["fundamental", "--l", "1", "--verify", "build", "--cutoff", "0"], "--cutoff 3 or more"),
    (["fundamental", "--l", "2", "--cutoff", "3"], "--cutoff 4 or more"),
    # windows that hold more than the top component but no e_0 equation
    *[
        (["rmatrix", "--flavor", "d", "--m", "2", "--level", level, "--l", l,
          "--cutoff", str(cutoff)], "--cutoff %d or more" % need)
        for level, l, need in [("underline", "1,1", 4), ("underline", "1,2", 5),
                               ("underline", "2,2", 6), ("bold", "1,1", 4)]
        for cutoff in (need - 2, need - 1)
    ],
    *[
        (["fuse", "--flavor", "d", "--l", "1,1", "--c", "q^-3,1", "--cutoff", cutoff],
         "--cutoff 4 or more")
        for cutoff in ("2", "3")
    ],
    (["rmatrix", "--flavor", "c", "--sigma=-,-", "--cutoff", "3"], "--cutoff 4 or more"),
    # weights with no ket in the window
    (["hwv", "--weight", ""], "--weight"),
    (["hwv", "--weight", "1*L"], "--weight"),
    (["hwv", "--weight", "2*L+9*d1", "--cutoff", "8"], "above --cutoff 8"),
    (["hwv", "--weight", "2*L-1*d1"], "--weight"),
    # --check-truncation compares the bold type-c image with its truncations
    (["fuse", "--flavor", "d", "--l", "1,1", "--c", "q^-3,1", "--cutoff", "4",
      "--check-truncation"], "--check-truncation"),
    (["fuse", "--flavor", "d", "--l", "1,1", "--c", "q^-3,1", "--cutoff", "4", "--level",
      "underline", "--check-truncation"], "--check-truncation"),
    (["fuse", "--c", "q^-6,1", "--cutoff", "4", "--level", "underline",
      "--check-truncation"], "--check-truncation"),
    (["fuse", "--c", "q^-6,1", "--level", "overline", "--check-truncation"],
     "--level"),
    # a zero spectral parameter is refused under its own flag
    (["verify-relations", "--x", "0"], "--x"),
    (["verify-phi", "--flavor", "c", "--side", "underline", "--x", "0"], "--x"),
    (["truncate", "--flavor", "c", "--side", "underline", "--monoidal", "--y", "0"], "--y"),
    (["truncate", "--flavor", "c", "--side", "underline", "--x", "0"], "--x"),
    (["decompose", "--x", "0;1"], "--x"),
]


def test_usage_error_exit_code(capsys):
    for argv, message in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert message in captured.err, (argv, captured.err)
        assert "Traceback" not in captured.err and not captured.out, argv


@pytest.mark.parametrize("pair", [["--flavor", "c", "--sigma", "+,+"],
                                  ["--flavor", "c", "--sigma", "+,-"],
                                  ["--flavor", "d", "--l", "1,1", "--level", "underline"]])
def test_spectral_data_do_not_depend_on_the_rank(capsys, pair):
    reports = []
    for m in ("2", "3"):
        assert main(["rmatrix", *pair, "--m", m, "--cutoff", "5"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


# SHA-256 of the printed report, recorded before the module protocol
# refactor; these reach the Restricted and Truncated factor paths.  The two
# verify-phi reports, recorded before relations were evaluated through the
# phi pull-back, cover the overline maps at eta = -1 and on W2; the eta = -1
# one was recorded again when reports began to name that eta.  The last
# five, recorded before the elimination loops shared one kernel, cover the
# cone test, the type-d bold pair, fusion with its truncations, the
# lowering closure of a fundamental module and the appendix C solve.  The
# last one, recorded before the monoidal tensors of truncate were built by
# level_module, covers W2 monoidality at eta = -1.
GOLDEN_REPORTS = [
    (
        ["decompose", "--flavor", "c", "--factors", "+,-", "--cutoff", "6"],
        "67234b7d057c0128f28e29d8bb06d33796c92568cb9dcc1e46112c850599dc80",
    ),
    (
        ["hwv", "--factors", "+,+", "--weight", "2*L+1*d4+1*d5", "--cutoff", "6"],
        "e4f2e0a0358d7803a0d9b188700db4c61871f56534aa5f8b809da0a1313fec2f",
    ),
    (
        ["decompose", "--flavor", "d", "--epsilon", "0,1,0,1,0", "--level", "underline",
         "--factors", "W,W", "--cutoff", "5"],
        "7e2166b47162dcf3254c89adac31288d54231c6fd0469fc29a7a58efc38e9272",
    ),
    (
        ["truncate", "--flavor", "c", "--side", "overline", "--module", "W", "--monoidal",
         "--cutoff", "5"],
        "2f78f6137984720004bbd66beae4ce58f6fb0fa9689fdb18bc0e330bffe31a71",
    ),
    (
        ["verify-phi", "--flavor", "c", "--side", "overline", "--epsilon", "1,0,1,0,1",
         "--module", "W", "--cutoff", "6", "--eta", "-1"],
        "c48f3e10a10d6dce181091ebe166b95ede607a71ef5ce79fe8a17cf908662b55",
    ),
    (
        ["verify-phi", "--flavor", "d", "--side", "overline", "--epsilon", "0,1,0,1,0",
         "--module", "W2", "--cutoff", "4"],
        "6a621344c359fb708856455ac4addc001d0383330df9cef793d05c8747b24c6b",
    ),
    (
        ["rmatrix", "--flavor", "c", "--sigma", "+,+", "--m", "2", "--cutoff", "5",
         "--level", "underline"],
        "127dc575889502c9246c7660dbfe4f5543face751bdb49926bc6af0657b1491b",
    ),
    (
        ["rmatrix", "--flavor", "d", "--l", "1,1", "--m", "2", "--cutoff", "4", "--level",
         "bold"],
        "ec89abbd1ce372827ea1bcb0317b1f142a0dd85019120f736c5308d149730e02",
    ),
    (
        ["fuse", "--flavor", "c", "--sigma", "+,+", "--c", "q^-6,1", "--m", "2", "--cutoff",
         "4", "--check-truncation"],
        "4d27cb6130cd91ff7cf3fe17f88dc024095dd50020d5273ef77741da6fa8dcfc",
    ),
    (
        ["fundamental", "--l", "1", "--k", "0", "--m", "2", "--cutoff", "7", "--verify", "all"],
        "289016297aeee45253f9e7164c558370405f320f8fec58236e9e718f0abf603e",
    ),
    (
        ["appendix-check", "--which", "C", "--l", "1,1", "--rmax", "1", "--smax", "0"],
        "0441df93baa63448a9dd67505d36dc64229f4842a21b00961d1dbd202c5f4341",
    ),
    (
        ["fundamental", "--l", "2", "--k", "2", "--k2", "0", "--m", "2", "--cutoff", "7",
         "--verify", "iso"],
        "11b761c9e401d39f18da46601acd161a52b409551d15aa36e17abecc1552cf81",
    ),
    (
        ["fuse", "--flavor", "d", "--l", "1,1", "--c", "q^-3,1", "--m", "2", "--cutoff", "4"],
        "a82414153ab69d67064af62ef1c0b55fa10a643ec308a5724ffb80ccaa233657",
    ),
    (
        ["rmatrix", "--flavor", "d", "--l", "1,2", "--m", "2", "--cutoff", "6", "--level",
         "underline"],
        "be82b508b6eaad881422d3d9db3179c4d97f06c7ed5e1effff9ba423906e03e1",
    ),
    (
        ["truncate", "--flavor", "d", "--side", "underline", "--epsilon", "0,1,0,1,0",
         "--module", "W2", "--monoidal", "--eta", "-1", "--cutoff", "4"],
        "3b6defc82a47b73619aed4e6203839b81005c08decf2aca160b3b3310fefd009",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_REPORTS,
    ids=["decompose-c", "hwv", "decompose-d-underline", "truncate-monoidal",
         "verify-phi-c-overline", "verify-phi-d-overline", "rmatrix-c-underline",
         "rmatrix-d-bold", "fuse-c-truncation", "fundamental-all", "appendix-c",
         "fundamental-iso", "fuse-d-bold", "rmatrix-d-underline", "truncate-monoidal-w2-eta"],
)
def test_golden_report_digests(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_readme_cli_lines_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [l for l in readme.read_text().splitlines() if l.startswith("qosc ")]
    assert len(lines) >= 11, lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


# The benchmark's output gate: every invocation in perfbench/workloads.json,
# with the exponent {k} set to 0, must print the report whose rc and SHA-256
# the file records.  Each runs in a fresh interpreter with PYTHONHASHSEED=0,
# as the benchmark's child process does.
ROOT = Path(__file__).resolve().parent.parent
GATED = [
    inv
    for workload in json.loads((ROOT / "perfbench" / "workloads.json").read_text())[
        "workloads"
    ].values()
    for inv in workload["invocations"]
]


@pytest.mark.parametrize("inv", GATED, ids=lambda inv: " ".join(inv["argv"]))
def test_perfbench_output_gate(inv, tmp_path):
    argv = [a.replace("{k}", "0") for a in inv["argv"]]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qosc.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == inv["rc"], proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == inv["digest"]


# The relation checks of the benchmark's relations smoke runs pack: a
# check that fell back would walk Scalar rows, a step of fockmod._step on
# a module, so the runs must print their recorded reports with such a step
# refused.
RELATION_SMOKE = json.loads((ROOT / "perfbench" / "workloads.json").read_text())[
    "workloads"]["relations"]["smoke"]


@pytest.mark.parametrize("inv", RELATION_SMOKE, ids=lambda inv: " ".join(inv["argv"]))
def test_relation_smoke_runs_take_no_fallback(inv, capsys):
    with packed_walks_only():
        assert main([a.replace("{k}", "0") for a in inv["argv"]]) == inv["rc"]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == inv["digest"]


# The benchmark's tracer wraps functions by their dotted path under qosc.
# These three paths have had no target since earlier refactors; mending the
# benchmark is its own change.  Every other path must resolve, so that a
# rename cannot silently leave one of the tracer's sites unwrapped.
STALE_TRACER_SITES = {
    "words.WordExpr.substituted",
    "linalg.RowBasis.add",
    "rmatrix.PairDecomposition.apply_R",
}


def test_tracer_sites_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.Tracer()._targets
    absent = {path for path, _ in tracer.SITES if not targets(path)}
    assert absent <= STALE_TRACER_SITES
