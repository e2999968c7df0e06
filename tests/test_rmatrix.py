import copy
import re

import pytest
from test_eval_reference import act_or_none

from qosc.decomp import hw_weight
from qosc.fockmod import FockVector
from qosc.fundrep import truncate_image_span
from qosc.linalg import RowBasis
from qosc.rmatrix import (
    AdmissibilityError,
    SolverError,
    c_target_module,
    check_admissible,
    closed_rho_c,
    closed_rho_d,
    compare_spans,
    compare_truncated_image,
    cyclicity_diagnostic,
    fuse,
    fused_cyclicity,
    hw_content,
    make_c_pair,
    make_d_pair,
    pole_exponents_c,
    pole_exponents_d,
    pole_failures,
    renormalize_diamond,
    rho_d_product_part,
    sigma_component_partitions,
    solve_R,
    verify_completeness,
    verify_spectral,
    verify_truncated_operator,
    verify_unitarity,
)
from qosc.scalars import (
    ONE,
    SONE,
    Q,
    Scalar,
    SpectralScalar,
    Z1,
    parse_scalar,
    q_power,
    qint,
)


def test_closed_rho_c_examples():
    z = Z1
    assert closed_rho_c(("+", "+"), ()) == SONE
    q4 = SpectralScalar.from_scalar(q_power(4))
    assert closed_rho_c(("+", "-"), (3,)) == (SONE - q4 * z) / (z - q4)
    q2 = SpectralScalar.from_scalar(q_power(2))
    q6 = SpectralScalar.from_scalar(q_power(6))
    want = (SONE - q2 * z) / (z - q2) * (SONE - q6 * z) / (z - q6)
    assert closed_rho_c(("-", "-"), (4,)) == want


def test_closed_rho_c_rejects_a_key_that_is_not_a_component():
    good = {("+", "+"): (2,), ("-", "-"): (1, 1), ("+", "-"): (1,), ("-", "+"): (3,)}
    for sigma, lam in good.items():
        assert lam in sigma_component_partitions(sigma, sum(lam))
        closed_rho_c(sigma, lam)
    for sigma, lam in [(("+", "+"), (1,)), (("+", "-"), (1, 1))]:
        with pytest.raises(ValueError):
            closed_rho_c(sigma, lam)


def test_pole_sets():
    assert pole_exponents_c(("+", "+"), 12) == [2, 6, 10]
    assert pole_exponents_c(("+", "-"), 13) == [4, 8, 12]
    assert pole_exponents_d(1, 1, 9) == [2, 4, 6, 8]


def test_renormalize_diamond_examples():
    z = Z1
    q2 = SpectralScalar.from_scalar(q_power(2))
    q4 = SpectralScalar.from_scalar(q_power(4))
    q6 = SpectralScalar.from_scalar(q_power(6))
    assert renormalize_diamond(("+", "+"), 2) == (z - q2) / (SONE - q2)
    assert renormalize_diamond(("+", "-"), 2) == (z - q4) / (SONE - q4)
    assert renormalize_diamond(("-", "-"), 3) == (z - q2) / (SONE - q2) * (z - q6) / (SONE - q6)


def test_solve_c_small_window_matches_closed_forms():
    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    rho, dec = solve_R(pair, needed_weights=None)
    assert all(rho[k] == closed_rho_c(("+", "+"), k) for k in rho)
    # normalization on the hw line of the top component
    assert rho[()].is_one()
    # equal-parameter identity: rho(1) = 1
    assert all(rho[k].specialize(ONE).is_one() for k in rho)
    # full entrywise intertwining, completeness and unitarity on small blocks
    assert verify_spectral(pair, dec, rho, maxdeg=3)["pass"]
    assert verify_completeness(pair, dec, maxdeg=3)["pass"]
    assert verify_unitarity(pair, dec, rho, maxdeg=3)["pass"]


def test_projector_completeness_and_orthogonality():
    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    rho, dec = solve_R(pair, needed_weights=None)
    comp_keys = [c.key for c in pair.components]

    def project(lam, v):
        parts = dec.express(v)
        out = FockVector()
        for ckey, c, vt in parts:
            if ckey == lam:
                out = out + vt.scale(c)
        return out

    from qosc.fockmod import weight_block

    for wt in list(dec.blocks):
        if wt.degree() > 3:
            continue
        for label in weight_block(pair.source, wt):
            b = FockVector.basis(label)
            total = FockVector()
            for lam in comp_keys:
                p = project(lam, b)
                total = total + p
                # idempotence through the matched bases (source = target here)
                assert (project(lam, p) - p).is_zero()
                for mu in comp_keys:
                    if mu != lam:
                        assert project(mu, p).is_zero()
            assert (total - b).is_zero()
            # the projectors intertwine the finite-type action
            for gen in (("e", 2), ("f", 3)):
                img = act_or_none(pair.source, gen, b)
                if img is None:
                    continue
                for lam in comp_keys:
                    lhs = project(lam, img)
                    rhs = act_or_none(pair.target, gen, project(lam, b))
                    if rhs is None:
                        continue
                    assert (lhs - rhs).is_zero()


def test_solve_inconsistency_is_detected():
    # a global rescale of one hw vector is gauge freedom and must be
    # absorbed into rho; a non-proportional distortion must be caught
    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    pair.components[1].v_tgt = pair.components[1].v_tgt.scale(Q)
    rho, _ = solve_R(pair)
    assert rho[(2,)] == closed_rho_c(("+", "+"), (2,)) * SpectralScalar.from_scalar(Q).inverse()

    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    vt = pair.components[1].v_tgt
    lab = sorted(vt.terms, key=repr)[0]
    vt.terms[lab] = vt.terms[lab] * Q  # breaks the highest-weight property
    with pytest.raises(SolverError):
        solve_R(pair)


@pytest.mark.parametrize("make", [
    lambda: make_c_pair(2, ("+", "+"), cutoff=-1, level="bold"),
    lambda: make_d_pair(2, 1, 1, cutoff=1, level="underline"),
])
def test_solve_names_a_top_component_outside_the_window(make):
    pair = make()
    with pytest.raises(SolverError, match=r"top component %s" % re.escape(repr(pair.lambda0))):
        solve_R(pair)


def assert_canonical_match(rep, rho_level):
    """Every rho the cross-level check compared is in canonical form: its
    coefficients are Scalars, and it hashes equal to the level rho."""
    assert set(rep["expected"]) == set(rho_level)
    for key, val in rep["expected"].items():
        coeffs = val.num + val.den
        assert all(type(c) is Scalar for c in coeffs), key
        assert val == rho_level[key] and hash(val) == hash(rho_level[key]), key


def test_cross_level_operator_identity_and_scales():
    sigma = ("-", "+")
    pair_b = make_c_pair(2, sigma, cutoff=5, level="bold")
    pair_u = make_c_pair(2, sigma, cutoff=5, level="underline")
    rho_u, dec_u = solve_R(pair_u)
    rho_b, dec_b = solve_R(pair_b, needed_weights=list(dec_u.blocks))
    rep = verify_truncated_operator(pair_b, dec_b, rho_b, pair_u, dec_u, rho_u)
    assert rep["pass"] and rep["checked"] > 0
    assert rep["rho_failures"] == {}
    assert_canonical_match(rep, rho_u)


def test_cross_level_check_fails_on_a_scale_alone():
    # one level rho off by q, compared on a level span without the blocks
    # of its component: the operator identity holds on every block left,
    # and the rho comparison alone must fail the check
    sigma = ("-", "+")
    pair_b = make_c_pair(2, sigma, cutoff=5, level="bold")
    pair_u = make_c_pair(2, sigma, cutoff=5, level="underline")
    rho_u, dec_u = solve_R(pair_u)
    rho_b, dec_b = solve_R(pair_b, needed_weights=list(dec_u.blocks))
    key = sorted(rho_u)[-1]
    rest = copy.copy(dec_u)
    rest.blocks = {wt: blk for wt, blk in dec_u.blocks.items()
                   if all(k != key for k, _, _ in blk[1])}
    rep = verify_truncated_operator(
        pair_b, dec_b, rho_b, pair_u, rest, {**rho_u, key: rho_u[key] * Q}
    )
    assert rep["checked"] > 0 and rep["failures"] == []
    assert set(rep["rho_failures"]) == {key}
    assert not rep["pass"]


def test_solve_d_small_window():
    pair = make_d_pair(2, 1, 1, cutoff=4, level="underline")
    rho, dec = solve_R(pair)
    for key in rho:
        assert rho[key] == closed_rho_d(1, 1, *key)
        D = rho[key] / rho_d_product_part(1, 1, *key)
        assert type(D.as_scalar()) is Scalar
    assert pole_failures("d", (1, 1), rho, 40) == {}


def test_solve_d_bold_prime_level():
    # the untruncated pair: full entrywise intertwining holds; expressed
    # in the underline-compatible normalization the eigenvalues match the
    # underline ones exactly (the top compatibility constant is -[2] here,
    # so this genuinely exercises the rescaling)
    pair_b = make_d_pair(2, 1, 2, cutoff=5, level="bold")
    rho_b, dec_b = solve_R(pair_b)
    assert verify_spectral(pair_b, dec_b, rho_b, maxdeg=4)["pass"]
    pair_u = make_d_pair(2, 1, 2, cutoff=5, level="underline")
    rho_u, dec_u = solve_R(pair_u)
    rho_b2, dec_b2 = solve_R(pair_b, needed_weights=list(dec_u.blocks))
    rep = verify_truncated_operator(pair_b, dec_b2, rho_b2, pair_u, dec_u, rho_u)
    assert rep["pass"] and rep["checked"] > 0
    assert not rep["c0"].is_one()
    assert_canonical_match(rep, rho_u)
    for key in rho_u:
        assert rho_u[key] == closed_rho_d(1, 2, *key)
    # negative controls: a bold rho off by q fails every operator check; one
    # level rho off by q fails at exactly its component
    rep = verify_truncated_operator(
        pair_b, dec_b2, {k: v * Q for k, v in rho_b2.items()}, pair_u, dec_u, rho_u
    )
    assert len(rep["failures"]) == rep["checked"] > 0
    assert set(rep["rho_failures"]) == set(rho_u)
    key = sorted(rho_u)[-1]
    rho_bad = dict(rho_u)
    rho_bad[key] = rho_u[key] * Q
    rep = verify_truncated_operator(pair_b, dec_b2, rho_b2, pair_u, dec_u, rho_bad)
    assert not rep["pass"]
    assert set(rep["rho_failures"]) == {key}
    assert rep["failures"] and {k for k, _ in rep["failures"]} == {key}
    # symmetric labels need no constants at all
    pair11 = make_d_pair(2, 1, 1, cutoff=4, level="bold")
    rho11, _ = solve_R(pair11)
    assert all(rho11[k] == closed_rho_d(1, 1, *k) for k in rho11)


def test_d_unitarity_at_equal_labels():
    pair = make_d_pair(2, 1, 1, cutoff=4, level="underline")
    rho, dec = solve_R(pair)
    assert verify_unitarity(pair, dec, rho, maxdeg=4)["pass"]


def test_unitarity_fails_on_an_image_outside_the_span():
    # every stored vector, applied through a span that lost the last
    # vector of one block: that vector's image leaves the span
    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    rho, dec = solve_R(pair, needed_weights=None)
    wt, entries = dec.ordered(3)[-1]
    assert len(entries) > 1
    short = copy.copy(dec)
    short.blocks = {**dec.blocks, wt: (RowBasis(), entries[:-1])}
    short.ordered = dec.ordered
    rep = verify_unitarity(pair, short, rho, maxdeg=3)
    assert not rep["pass"] and rep["failures"] == [(entries[-1][0], wt)]


def test_overline_level_full_entrywise_verification():
    # the truncated modules are finite dimensional, so the spectral
    # decomposition can be verified entrywise on every block
    for sigma in [("+", "+"), ("-", "-"), ("+", "-")]:
        pair = make_c_pair(2, sigma, cutoff=8, level="overline")
        rho, dec = solve_R(pair, needed_weights=None)
        assert verify_spectral(pair, dec, rho, maxdeg=8)["pass"], sigma
        assert verify_completeness(pair, dec, maxdeg=8)["pass"], sigma


def test_diamond_renormalization_clears_finite_level_poles():
    # multiplying by the diamond prefactor leaves every surviving
    # eigenvalue function a Laurent polynomial in z
    for sigma in [("+", "+"), ("-", "-"), ("+", "-")]:
        D = renormalize_diamond(sigma, 2)
        pair = make_c_pair(2, sigma, cutoff=8, level="overline")
        rho, _ = solve_R(pair)
        for k, v in rho.items():
            assert (D * v).den == SONE.den, (sigma, k)


def test_rank_three_host():
    # the solver is not tied to m = 2
    pair = make_c_pair(3, ("+", "+"), cutoff=5, level="bold")
    rho, _ = solve_R(pair)
    assert all(rho[k] == closed_rho_c(("+", "+"), k) for k in rho)


def test_c_pole_consistency():
    pair = make_c_pair(2, ("+", "+"), cutoff=6, level="bold")
    rho, _ = solve_R(pair)
    assert pole_failures("c", ("+", "+"), rho, 64) == {}


def test_pole_failures_report_a_factor_that_is_no_q_power():
    # z - 2 is no z - q^e, so it is left over whatever the bound, and the
    # declared pole of the same rho does not hide it
    lam = (2,)
    rho = {(): SONE, lam: closed_rho_c(("+", "+"), lam) / (Z1 - 2)}
    assert pole_failures("c", ("+", "+"), rho, 64) == {lam: [2]}


def test_closed_rho_d_recursion_endpoints():
    # normalization and the stated ratio of consecutive coefficients
    assert closed_rho_d(2, 1, 0, 1) == SONE
    l1, l2, r, s = 2, 1, 2, 1
    lhs = closed_rho_d(l1, l2, r, s)
    prev = closed_rho_d(l1, l2, r - 1, s)
    qe = SpectralScalar.from_scalar(q_power(l1 + l2 + 2 * r + 2))
    ratio = (
        SpectralScalar.from_scalar(q_power(l1 - l2) * qint(l2 + r + 1) / qint(l1 + r + 1))
        * (SONE - Z1 * qe)
        / (Z1 - qe)
    )
    assert lhs == prev * ratio
    # the s-direction recursion off the normalization point
    l1, l2, s = 2, 1, 1
    qe = SpectralScalar.from_scalar(q_power(-l1 - l2 - 2 + 2 * s))
    ratio = (
        SpectralScalar.from_scalar(q_power(l2 - l1) * qint(l2 - s + 1) / qint(l1 - s + 1))
        * (SONE - Z1 * qe)
        / (Z1 - qe)
    )
    assert closed_rho_d(l1, l2, 0, s) == closed_rho_d(l1, l2, 0, s - 1) * ratio


def test_admissibility_gate():
    check_admissible("c", ("+", "+"), [parse_scalar("q^-6"), ONE])
    with pytest.raises(AdmissibilityError) as exc:
        check_admissible("c", ("+", "+"), [parse_scalar("q^2"), ONE])
    assert exc.value.offending == (0, 1, 2)
    with pytest.raises(AdmissibilityError):
        check_admissible("d", (1, 1), [parse_scalar("q^6"), ONE])
    check_admissible("d", (1, 1), [parse_scalar("q^-3"), ONE])


def test_fusion_w1_image():
    cutoff = 5
    sigma = ("+", "-")
    pair = make_c_pair(2, sigma, cutoff=cutoff, level="bold")
    rho, dec = solve_R(pair, needed_weights=None)
    zc = parse_scalar("q^-4")
    # hw_content reads the pair's components: the candidate weights in S^sigma
    cands = []
    for lam in sigma_component_partitions(sigma, cutoff):
        wt = hw_weight(pair.source.eps, lam, 2, "c")
        if wt is not None and wt.degree() <= cutoff:
            cands.append((lam, wt))
    assert [(c.key, c.weight) for c in pair.components] == cands
    image = fuse(pair, rho, dec, zc)
    content = hw_content(image, pair)
    assert image.dim() > 0
    assert {k for k, v in content.items() if v} == {(1,)}
    target_c = c_target_module(2, sigma, cutoff, "bold", zc)
    assert cyclicity_diagnostic(target_c, content[(1,)][0], image)["pass"]
    assert fused_cyclicity(image, content, 2, sigma, "bold", zc)["pass"]
    # the lowering closure is taken in the target specialized at the point
    assert not fused_cyclicity(image, content, 2, sigma, "bold", parse_scalar("q^-5"))["pass"]


def test_fusion_truncation_compare():
    cutoff = 5
    sigma = ("+", "-")
    zc = parse_scalar("q^-4")
    host = make_c_pair(2, sigma, cutoff=cutoff, level="bold")
    rho, dec = solve_R(host, needed_weights=None)
    image = fuse(host, rho, dec, zc)
    pair_u = make_c_pair(2, sigma, cutoff=cutoff, level="underline")
    rho_u, dec_u = solve_R(pair_u, needed_weights=None)
    img_u = fuse(pair_u, rho_u, dec_u, zc)
    tr_img = truncate_image_span(image, pair_u.target)
    assert compare_spans(tr_img, img_u)["pass"]
    assert compare_truncated_image(image, pair_u, rho_u, dec_u, zc) == {"pass": True}
    # against the level image at another point, where that image is larger
    cmp = compare_truncated_image(image, pair_u, rho_u, dec_u, parse_scalar("q^-5"))
    assert cmp["reason"] == "dimension census differs"
    assert img_u.dim() < fuse(pair_u, rho_u, dec_u, parse_scalar("q^-5")).dim()
