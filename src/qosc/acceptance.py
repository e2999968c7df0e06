"""The acceptance battery: every headline claim as one machine check.

Each criterion function returns a dict with an "id", a boolean "pass" and
enough detail to audit a failure.  `run_all` executes the battery in
order; the CLI `suite` subcommand and tests/test_acceptance.py both call
into this module so the two entry points cannot drift apart.
"""

from __future__ import annotations

import time

from .algebraops import (
    LEVELS,
    check_monoidality,
    check_phi_relations,
    check_relation_on,
    check_relations,
    check_truncation_equivariance,
    level_module,
    phi_words,
    relation_suite,
    truncate_vector,
)
from .decomp import classical_dim, decompose, hw_weight
from .fockmod import (
    DROPPED,
    FockVector,
    ModuleView,
    W2Module,
    WModule,
)
from .fundrep import (
    appendix_C_verdicts,
    block_order,
    check_fundamental_truncation,
    ladder_failures,
    u_rs_failures,
    verify_appendix_C,
    verify_EF_identities,
    verify_u_rs_highest,
)
from .lattice import EpsilonData
from .rmatrix import (
    compatible_bold_rho,
    AdmissibilityError,
    check_admissible,
    closed_rho_c,
    closed_rho_d,
    compare_truncated_image,
    fuse,
    fused_cyclicity,
    hw_content,
    make_c_pair,
    make_d_pair,
    pole_exponents_d,
    rho_d_product_part,
    rho_pole_multisets,
    solve_R,
    verify_truncated_operator,
)
from .scalars import ONE, Scalar, Z1, parse_scalar

BOLD5 = EpsilonData((1, 0, 1, 0, 1))
BOLD7 = EpsilonData((1, 0, 1, 0, 1, 0, 1))
BOLDP5 = EpsilonData((0, 1, 0, 1, 0))

SIGMAS = [("+", "+"), ("-", "-"), ("+", "-"), ("-", "+")]


def _report(rid, ok, **details):
    out = {"id": rid, "pass": bool(ok)}
    out.update(details)
    return out


# -- criterion 1: the defining relation suite ---------------------------------


def criterion_1():
    checks = []
    w5 = WModule(BOLD5, Z1, cutoff=8)
    reps = check_relations(w5)
    checks.append(("W(x) eps=(10101) N=8", [r for r in reps if not r.passed]))
    w7 = WModule(BOLD7, Z1, cutoff=8)
    reps = check_relations(w7)
    checks.append(("W(x) eps=(1010101) N=8", [r for r in reps if not r.passed]))
    w2 = W2Module(BOLDP5, Z1, cutoff=6)
    reps = check_relations(w2)
    checks.append(("W2(x) eps=(01010) N=6", [r for r in reps if not r.passed]))
    bad = {name: [r.relation for r in fails] for name, fails in checks if fails}
    return _report("1-relations", not bad, failures=bad)


# -- criterion 2: phi homomorphisms -------------------------------------------


def criterion_2():
    bad = {}
    for host, module in (
        (BOLD5, WModule(BOLD5, Scalar.from_int(1), cutoff=8)),
        (BOLD7, WModule(BOLD7, Scalar.from_int(1), cutoff=8)),
    ):
        for side in ("underline", "overline"):
            for eta in (1, -1):
                tgt = phi_words("c", side, host, eta=eta)
                reps = check_phi_relations(tgt, module)
                fails = [r.relation for r in reps if not r.passed]
                if fails:
                    bad["c/%s eta=%d n=%d" % (side, eta, host.n)] = fails
                if (host, side, eta) == (BOLD5, "underline", 1):
                    c_under = {r.relation: r.passed for r in reps}
    w2 = W2Module(BOLDP5, Scalar.from_int(1), cutoff=6)
    for side in ("underline", "overline"):
        for eta in (1, -1):
            tgt = phi_words("d", side, BOLDP5, eta=eta)
            reps = check_phi_relations(tgt, w2)
            fails = [r.relation for r in reps if not r.passed]
            if fails:
                bad["d/%s eta=%d" % (side, eta)] = fails
    # the two explicitly displayed Serre identities at the type-c end node
    endnode = [(nm, c_under[nm]) for nm in ("t-serre:e0,e1", "t-serre:e1,e0")]
    for nm, ok in endnode:
        if not ok:
            bad["end-node-serre:" + nm] = [nm]
    return _report("2-phi-homomorphisms", not bad, failures=bad, end_node_serre=endnode)


# -- criterion 3: truncation functor ------------------------------------------


def criterion_3():
    bad = {}
    w5 = WModule(BOLD5, Scalar.from_int(1), cutoff=8)
    for side in ("underline", "overline"):
        tgt = phi_words("c", side, BOLD5)
        reps = check_truncation_equivariance(tgt, w5)
        fails = [r.relation for r in reps if not r.passed]
        if fails:
            bad["equivariance c/%s" % side] = fails
        # idempotence of the projection
        for label in w5.enumerate_labels(4):
            b = FockVector.basis(label)
            t1 = truncate_vector(b, tgt.kept)
            if not (truncate_vector(t1, tgt.kept) - t1).is_zero():
                bad.setdefault("idempotence", []).append(label)
                break
    # monoidality on W(x) (x) W(y)
    factors = [(parse_scalar("q^2"), "W"), (parse_scalar("q^-4"), "W")]
    t_amb = level_module("c", "bold", BOLD5, 5, factors)
    for side in ("underline", "overline"):
        tgt = phi_words("c", side, BOLD5)
        t_tr = level_module("c", side, BOLD5, 5, factors)
        reps = check_monoidality(tgt, t_amb, t_tr, maxdeg=3)
        fails = [r.relation for r in reps if not r.passed]
        if fails:
            bad["monoidality c/%s" % side] = fails
    # fundamental truncation dimensions (type d, m = 2): 5, 4, 1, 0
    dims = {}
    for l in range(0, 4):
        res = check_fundamental_truncation(2, l, cutoff=l + 7)
        dims[l] = (res["dim"], res["expected"])
        if not res["ok"]:
            bad["fundamental-truncation l=%d" % l] = [res]
    return _report("3-truncation", not bad, failures=bad, fundamental_dims=dims)


# -- criterion 4: classical decompositions ------------------------------------


def criterion_4():
    bad = {}
    N = 8
    xs = (parse_scalar("q^2"), parse_scalar("q^-4"))
    expected_sets = {
        ("+", "+"): {(2 * k,) if k else () for k in range(0, 5)},
        ("-", "-"): {(1, 1)} | {(2 * k,) for k in range(1, 5)},
        ("+", "-"): {(2 * k + 1,) for k in range(0, 4)},
        ("-", "+"): {(2 * k + 1,) for k in range(0, 4)},
    }
    for sigma in SIGMAS:
        for level in LEVELS:
            T = level_module("c", level, BOLD5, N, list(zip(xs, sigma)))
            res = decompose(T, "c", 2, N)
            got = {lam: d for lam, d in res if d}
            want = {
                lam: 1
                for lam in expected_sets[sigma]
                if hw_weight(BOLD5, lam, 2, "c", kept=T.algebra.kept) is not None
            }
            if got != want:
                bad["sigma=%s level=%s" % ("".join(sigma), level)] = {
                    "got": sorted(got),
                    "want": sorted(want),
                }
    # type d: multiplicity l+1 on (l), l <= 5 (l <= m at the overline level)
    for level, top in zip(LEVELS, (5, 5, 2)):
        w2 = level_module("d", level, BOLDP5, 6, [(xs[0], "W")])
        got = {lam: d for lam, d in decompose(w2, "d", 1, 5) if d}
        want = {(l,) if l else (): l + 1 for l in range(0, top + 1)}
        if got != want:
            bad["W2 %s-prime" % level] = {"got": got, "want": want}
    # cross-check the desk-scale classical dimensions against hw counts
    T = level_module("c", "bold", BOLD5, 6, [(x, "W") for x in xs])
    for lam, d in decompose(T, "c", 2, 6):
        if d and d != classical_dim("O", 2, lam):
            bad["O2-dim %s" % (lam,)] = {"got": d}
    return _report("4-decomposition", not bad, failures=bad)


# -- criterion 5: spectral decomposition, type c ------------------------------


def criterion_5():
    bad = {}
    details = {}
    cutoff = 7
    for sigma in SIGMAS:
        pair_b = make_c_pair(2, sigma, cutoff=cutoff, level="bold")
        pair_u = make_c_pair(2, sigma, cutoff=cutoff, level="underline")
        pair_o = make_c_pair(2, sigma, cutoff=cutoff, level="overline")
        rho_u, dec_u = solve_R(pair_u)
        rho_o, dec_o = solve_R(pair_o)
        needed = sorted(
            set(dec_u.blocks) | set(dec_o.blocks),
            key=block_order,
        )
        rho_b, dec_b = solve_R(pair_b, needed_weights=needed)
        mism = [k for k in rho_b if rho_b[k] != closed_rho_c(sigma, k)]
        if mism:
            bad["closed-form %s" % ("".join(sigma),)] = mism
        details["components %s" % "".join(sigma)] = sorted(rho_b)
        # operator-level truncation identity (convention-free)
        for lvname, dec_l, rho_l in (("underline", dec_u, rho_u), ("overline", dec_o, rho_o)):
            rep = verify_truncated_operator(dec_b, rho_b, dec_l, rho_l)
            if not rep["pass"]:
                bad["tr-operator %s %s" % ("".join(sigma), lvname)] = rep["failures"]
        # coefficient equality in truncation-compatible normalization
        for lvname, pair_l, rho_l in (("underline", pair_u, rho_u), ("overline", pair_o, rho_o)):
            expected, scales, c0 = compatible_bold_rho(pair_b, dec_b, pair_l, rho_b)
            for key, val in expected.items():
                if rho_l[key] != val:
                    bad["rho-equality %s %s %s" % ("".join(sigma), lvname, key)] = {
                        "scale": scales[key].to_str()
                    }
    return _report("5-spectral-type-c", not bad, failures=bad, **details)


# -- criterion 6: spectral decomposition, type d ------------------------------


def criterion_6():
    bad = {}
    details = {}
    for (l1, l2, N) in ((1, 1, 6), (1, 2, 7), (2, 2, 8)):
        pair = make_d_pair(2, l1, l2, cutoff=N, level="underline")
        rho, dec = solve_R(pair)
        mism = [k for k in rho if rho[k] != closed_rho_d(l1, l2, *k)]
        if mism:
            bad["closed-form (%d,%d)" % (l1, l2)] = mism
        details["components (%d,%d)" % (l1, l2)] = sorted(rho)
        # D constants are produced by the recursions and are z-free units
        for key, val in rho.items():
            D = val / rho_d_product_part(l1, l2, *key)
            if any(e[0] for e in D.num) or any(e[0] for e in D.den):
                bad["D-constant (%d,%d) %s" % (l1, l2, key)] = D.to_str()
        # pole exponents within the declared set
        declared = set(pole_exponents_d(l1, l2, 64))
        for key, (ks, leftover) in rho_pole_multisets(rho, 64).items():
            if not set(ks) <= declared or list(leftover) != [0]:
                bad["poles (%d,%d) %s" % (l1, l2, key)] = {
                    "exponents": ks,
                    "declared": sorted(declared),
                }
    # bold-prime level agrees as an operator (small window)
    pair_b = make_d_pair(2, 1, 1, cutoff=4, level="bold")
    rho_b, dec_b = solve_R(pair_b)
    mism = [k for k in rho_b if rho_b[k] != closed_rho_d(1, 1, *k)]
    if mism:
        bad["bold-prime closed-form (1,1)"] = mism
    return _report("6-spectral-type-d", not bad, failures=bad, **details)


# -- criterion 7: highest-weight formulas -------------------------------------


def criterion_7():
    bad = {}
    for (m, l1, l2) in ((2, 1, 1), (2, 2, 1), (3, 2, 3)):
        fails = u_rs_failures(verify_u_rs_highest(m, l1, l2, rmax=2, smax=2))
        if fails:
            bad["u_rs kernel m=%d (%d,%d)" % (m, l1, l2)] = fails
    for (m, l1, l2, rmax, smax) in ((2, 1, 1, 1, 1), (2, 2, 1, 1, 1), (3, 2, 3, 2, 2)):
        fails = ladder_failures(verify_EF_identities(m, l1, l2, rmax=rmax, smax=smax))
        if fails:
            bad["EF m=%d (%d,%d)" % (m, l1, l2)] = fails[:5]
    coeffs = {}
    for (l1, l2, r, s) in ((1, 1, 1, 0), (2, 2, 1, 1), (1, 1, 0, 0)):
        res = verify_appendix_C(2, l1, l2, r, s)
        coeffs["(%d,%d,%d,%d)" % (l1, l2, r, s)] = res
        if not all(appendix_C_verdicts(res).values()):
            bad["coefficients (%d,%d,%d,%d)" % (l1, l2, r, s)] = res
    return _report("7-hw-formulas", not bad, failures=bad, coefficient_identities=coeffs)


# -- criterion 8: fusion --------------------------------------------------------


def criterion_8():
    bad = {}
    details = {}
    host = BOLD5
    cutoff = 6
    solved = {}

    def solved_pair(sigma, level):
        """(pair, rho, dec) of a type-c pair, solved once per (sigma, level)."""
        if (sigma, level) not in solved:
            pair = make_c_pair(2, sigma, cutoff=cutoff, level=level)
            solved[sigma, level] = (pair, *solve_R(pair, full_window=True))
        return solved[sigma, level]

    for l in (1, 2):
        sigma = ("+", "+") if l % 2 == 0 else ("+", "-")
        zc = parse_scalar("q^-%d" % (2 * l + 2))
        check_admissible("c", sigma, [zc, ONE])
        pair, rho, dec = solved_pair(sigma, "bold")
        image = fuse(pair, rho, dec, zc)
        content = hw_content(image, pair)
        got = {k for k, v in content.items() if v}
        want = {
            lam
            for lam in ((k,) if k else () for k in range(l, -1, -2))
            if hw_weight(host, lam, 2, "c") is not None
        }
        details["content l=%d" % l] = sorted(got)
        if image.dim() == 0 or got != want:
            bad["fused W_%d content" % l] = {"got": sorted(got), "want": sorted(want)}
            continue
        diag = fused_cyclicity(image, content, 2, sigma, "bold", zc)
        if not diag["pass"]:
            bad["cyclicity W_%d" % l] = diag["mismatches"]
        # truncation compatibility: tr(image at bold) == image at level
        for side in ("underline", "overline"):
            cmp = compare_truncated_image(image, *solved_pair(sigma, side), zc)
            if not cmp["pass"]:
                bad["fusion-truncation l=%d %s" % (l, side)] = cmp
    # a case where truncation kills the top component (zero branch of the
    # component census): l = 4, whose (4,) part dies at the overline level
    sigma = ("+", "+")
    zc = parse_scalar("q^-10")
    pair, rho, dec = solved_pair(sigma, "bold")
    image = fuse(pair, rho, dec, zc)
    got = {k for k, v in hw_content(image, pair).items() if v}
    if got != {(), (2,), (4,)}:
        bad["fused W_4 content"] = sorted(got)
    cmp = compare_truncated_image(image, *solved_pair(sigma, "overline"), zc)
    if not cmp["pass"]:
        bad["fusion-truncation l=4 overline"] = cmp
    # type d fusion truncation, l = (1,1), generic admissible c
    zc = parse_scalar("q^-3")
    check_admissible("d", (1, 1), [zc, ONE])
    pair_db = make_d_pair(2, 1, 1, cutoff=4, level="bold")
    img_db = fuse(pair_db, *solve_R(pair_db, full_window=True), zc)
    pair_du = make_d_pair(2, 1, 1, cutoff=4, level="underline")
    cmp = compare_truncated_image(img_db, pair_du, *solve_R(pair_du, full_window=True), zc)
    if not cmp["pass"]:
        bad["fusion-truncation d (1,1)"] = cmp
    # inadmissible parameter must be rejected
    try:
        check_admissible("c", ("+", "+"), [parse_scalar("q^2"), ONE])
        bad["admissibility"] = "pole q^2 not rejected"
    except AdmissibilityError as e:
        details["rejected"] = e.offending
    return _report("8-fusion", not bad, failures=bad, **details)


# -- criterion 9: negative controls -------------------------------------------


class _CorruptedW(ModuleView):
    """W(x) with the sign of e_0 flipped; must fail the e-f relation."""

    def apply_gen(self, gen, label):
        out = self.base.apply_gen(gen, label)
        if gen == ("e", 0) and out is not DROPPED:
            return [(l, -c) for l, c in out]
        return out


def criterion_9():
    bad = {}
    w = _CorruptedW(WModule(BOLD5, Scalar.from_int(1), cutoff=6))
    suite = dict(relation_suite(BOLD5))
    rep = check_relation_on(w, "ef:0,0", suite["ef:0,0"])
    if rep.passed:
        bad["corrupted-action"] = "e0 sign flip not detected"
    counterexample = None if rep.passed else rep.to_json()["counterexample"]
    try:
        check_admissible("c", ("+", "+"), [parse_scalar("q^6"), ONE])
        bad["pole-gate"] = "q^6 accepted for (+,+)"
        offending = None
    except AdmissibilityError as e:
        offending = e.offending
    return _report(
        "9-negative-controls",
        not bad,
        failures=bad,
        counterexample=counterexample,
        rejected=offending,
    )


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


def run_all(progress=None):
    out = []
    for fn in CRITERIA:
        t0 = time.time()
        rep = fn()
        rep["seconds"] = round(time.time() - t0, 1)
        out.append(rep)
        if progress:
            progress("%-22s %s  (%.1fs)" % (rep["id"], "PASS" if rep["pass"] else "FAIL", rep["seconds"]))
    return out
