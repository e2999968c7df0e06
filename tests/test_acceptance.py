"""The acceptance battery: one test per criterion, one pass/fail line each.

Shared implementation lives in qosc.acceptance so the CLI `suite`
subcommand runs exactly the same checks.
"""

from qosc import acceptance

from test_eval_reference import packed_walks_only


def _run(fn):
    rep = fn()
    print("%-22s %s" % (rep["id"], "PASS" if rep["pass"] else "FAIL"))
    assert rep["pass"], rep.get("failures")
    return rep


def test_criterion_1_relation_suite():
    _run(acceptance.criterion_1)


def test_criterion_2_phi_homomorphisms():
    rep = _run(acceptance.criterion_2)
    assert all(ok for _, ok in rep["end_node_serre"])


def test_criterion_3_truncation():
    rep = _run(acceptance.criterion_3)
    assert rep["fundamental_dims"] == {0: (5, 5), 1: (4, 4), 2: (1, 1), 3: (0, 0)}


def test_criterion_4_decomposition():
    _run(acceptance.criterion_4)


def test_criterion_5_spectral_type_c():
    rep = _run(acceptance.criterion_5)
    assert rep["components ++"] == [(), (2,), (4,), (6,)]
    assert rep["components +-"] == [(1,), (3,), (5,), (7,)]


def test_criterion_6_spectral_type_d():
    rep = _run(acceptance.criterion_6)
    assert rep["components (2,2)"][-1] == (2, 2)


def test_criterion_7_hw_formulas():
    rep = _run(acceptance.criterion_7)
    for res in rep["coefficient_identities"].values():
        assert res["e2F"] and res["C00_nonzero"]


def test_criterion_8_fusion():
    rep = _run(acceptance.criterion_8)
    assert rep["content l=1"] == [(1,)]
    assert rep["content l=2"] == [(), (2,)]
    assert rep["rejected"] == (0, 1, 2)


def test_criterion_9_negative_controls():
    # the corrupted W's check runs on packed rows (no Scalar-row step) up to
    # its counterexample, whose one ket is then read from the Scalar walk:
    # the residual the Scalar walk of the whole check reported
    reads = []
    with packed_walks_only(reads):
        rep = _run(acceptance.criterion_9)
    assert reads == [(0, 0, 0, 0, 0)]
    assert rep["counterexample"] == {
        "ket": "[0,0,0,0,0]",
        "residual": "FockVector(((2)/(1))*|[0,0,0,0,0]>)",
    }
    assert rep["rejected"] == (0, 1, 6)
