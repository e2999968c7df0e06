from qosc.algebraops import host_eps, level_module
from qosc.fockmod import FockVector, W2Module, act, eval_word
from qosc.fundrep import (
    bold_word,
    build_fundamental,
    check_fundamental_truncation,
    fundamental_pair_modules,
    fundamental_span,
    fundamental_truncation_cutoff,
    iso_between_k,
    u_rs,
    u_rs_component,
    v_lk_label,
    vanishing_word,
    verify_EF_identities,
    verify_appendix_C,
    verify_u_rs_highest,
)
from qosc.lattice import EpsilonData, Weight
from qosc.scalars import ONE, SONE, Scalar, Z1, parse_scalar, q_power

EPSP = EpsilonData((0, 1, 0, 1, 0))


def test_v_lk_and_weights():
    lab = v_lk_label(2, 1, 5)
    assert lab == ((0, 0, 0, 0, 1), (0, 0, 0, 0, 1))
    mod = W2Module(EPSP, Scalar.from_int(1), cutoff=8)
    assert mod.weight_of(lab) == Weight(2, (0, 0, 0, 0, 2))


def test_build_fundamental_certificates():
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=8)
    for (l, k) in ((1, 0), (1, 1), (2, 2)):
        rep = build_fundamental(mod, l, k)
        assert rep.e0_certificate, (l, k)
        assert rep.e0_closed and rep.f0_closed and rep.raising_closed, (l, k)
    # W_0 is the level-two oscillator component, not one-dimensional
    rep = build_fundamental(mod, 0, 0)
    assert rep.span.dim() > 1


def test_iso_between_k_levels():
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=7)
    res = iso_between_k(mod, 2, 0, 2)
    assert res["dims_match"] and not res["residuals"]


def test_underline_type_A_component_generators():
    # inside tr_underline(W_l), the vectors f_{m+1}^j v_{l,k} are highest
    # weight vectors for the finite type-A subalgebra (indices 1..m)
    from qosc.algebraops import phi_words
    from qosc.fockmod import TruncatedModule

    m = 2
    tgt = phi_words("d", "underline", EPSP)
    mod = TruncatedModule(W2Module(EPSP, parse_scalar("q^2"), cutoff=8), tgt)
    v = FockVector.basis(v_lk_label(2, 1, 5))
    for j in range(0, 3):
        u = v
        for _ in range(j):
            u = act(mod, ("f", m + 1), u)
        assert not u.is_zero()
        for i in range(1, m + 1):
            assert act(mod, ("e", i), u).is_zero(), (j, i)


def test_bold_words_shape():
    for m in (2, 3):
        for which in ("F_m", "F_m+1", "E_m", "E_m+1"):
            w = bold_word(which, m)
            (atoms, c), = list(w.terms.items())
            assert len(atoms) == 2 * m - 1
    w = bold_word("E_m+1", 2)
    (atoms, _), = list(w.terms.items())
    assert atoms == (("f", 0), ("f", 2), ("f", 1))


def test_u_rs_base_cases():
    tensor = fundamental_pair_modules(2, 8)
    u00 = u_rs(tensor, 2, 1, 1, 0, 0)
    assert list(u00.terms.values()) == [ONE]
    lab = next(iter(u00.terms))
    assert lab == (v_lk_label(1, 1, 5), v_lk_label(1, 1, 5))
    # out-of-range convention
    assert u_rs_component(tensor, 2, 1, 1, 0, 0, -1, 0).is_zero()
    assert u_rs(tensor, 2, 1, 1, -1, 0).is_zero()


def test_u_rs_is_highest_weight():
    res = verify_u_rs_highest(2, 1, 1, rmax=1, smax=1)
    assert all(ok for _, _, ok in res)
    res = verify_u_rs_highest(2, 2, 1, rmax=1, smax=1)
    assert all(ok for _, _, ok in res)


def test_ladder_identities_and_vanishing():
    res = verify_EF_identities(2, 1, 1, rmax=1, smax=1)
    assert all(t[-1] for t in res)
    # the explicit vanishing word kills every component vector
    tensor = fundamental_pair_modules(2, 10)
    for (r, s, i, j) in ((0, 0, 0, 0), (1, 1, 1, 0), (2, 1, 1, 1)):
        u = u_rs_component(tensor, 2, 2, 1, r, s, i, j)
        assert eval_word(vanishing_word(2), u, tensor).is_zero()


def test_generator_images_are_homogeneous_in_x():
    # the lemma behind checking the appendix identities at (x1, x2) = (z, 1):
    # e_0 acts by x times an x-free map, f_0 by 1/x times one, and every
    # other generator is x-free, on W(x), W^(x2)(x) and the underline factor
    hosts = [("c", "bold", 7), ("d", "bold", 5), ("d", "underline", 5)]
    for flavor, level, cutoff in hosts:
        at = {x: level_module(flavor, level, host_eps(flavor, 2), cutoff, [(x, "W")])
              for x in (Z1, ONE)}
        mod = at[Z1]
        images = 0
        for gen in [(k, i) for k in "ef" for i in mod.algebra.gen_indices]:
            factor = {("e", 0): Z1, ("f", 0): Z1.inverse()}.get(gen, SONE)
            for label in mod.enumerate_labels():
                v = FockVector.basis(label)
                a, b = act(at[Z1], gen, v), act(at[ONE], gen, v)
                assert a.overflow == b.overflow, (flavor, level, gen, label)
                assert (a - b.scale(factor)).is_zero(), (flavor, level, gen, label)
                images += not a.is_zero()
        assert images > 100, (flavor, level)


def test_swapped_spectral_parameters_fail_the_F_m_ladder():
    # control for the check at (x1, x2) = (z, 1): F_m u^{0,0}_{0,0} equals
    # x1 q^l2 u^{0,1}_{0,1} + x2 u^{0,0}_{0,1}, and not so with x1, x2 swapped
    m, l1, l2 = 2, 1, 1
    tensor = fundamental_pair_modules(m, 8)
    lhs = eval_word(bold_word("F_m", m), u_rs_component(tensor, m, l1, l2, 0, 0, 0, 0), tensor)
    a = u_rs_component(tensor, m, l1, l2, 0, 1, 0, 1)
    b = u_rs_component(tensor, m, l1, l2, 0, 1, 0, 0)
    assert not a.is_zero() and not b.is_zero()
    assert (lhs - a.scale(Z1 * q_power(l2)) - b.scale(SONE)).is_zero()
    assert not (lhs - a.scale(SONE * q_power(l2)) - b.scale(Z1)).is_zero()


def test_expansion_coefficient_identities():
    res = verify_appendix_C(2, 1, 1, 1, 0)
    assert res["e2F"] and res["C20"] and res["C10"]
    assert res["C00_nonzero"] and res["closing_identity"]
    # the printed bracket variant differs (documented erratum)
    assert res["C20_printed_brackets"] is False
    res0 = verify_appendix_C(2, 1, 1, 0, 0)
    assert res0["r0_two_dimensional"] and res0["e2F"] and res0["C10"]


def test_fundamental_truncation_dims():
    # m = 2: dim V(varpi_{2-l}) of C_2, then 1, then 0; the underline
    # truncation must coincide with the intrinsic underline module
    want = {0: 5, 1: 4, 2: 1, 3: 0}
    for l, expect in want.items():
        res = check_fundamental_truncation(2, l, cutoff=l + 7)
        assert res["ok"] and res["expected"] == expect, (l, res)
        assert res["underline_matches"], l


def test_fundamental_truncation_cutoff_is_the_smallest_window_that_passes():
    # m = 2: W_0, W_1, W_2 reach degree 4, 3, 2; W_3 truncates to zero
    want = {0: 4, 1: 3, 2: 2, 3: 0}
    for l, need in want.items():
        assert fundamental_truncation_cutoff(2, l) == need, l
        assert check_fundamental_truncation(2, l, cutoff=need)["ok"], l
        if need:
            res = check_fundamental_truncation(2, l, cutoff=need - 1)
            assert not res["ok"] and res["dim"] < res["expected"], l


def test_w2_is_exhausted_by_fundamental_components():
    # the W_{l,k} spans fill every weight block of the rank-two Fock space
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=4)
    from collections import Counter

    dims = Counter()
    for l in range(0, 5):
        for k in range(0, l + 1):
            for wt, d in fundamental_span(mod, l, k).dims().items():
                if wt.degree() <= 2:  # guard: spans are window-complete here
                    dims[wt] += d
    for label in mod.enumerate_labels(2):
        wt = mod.weight_of(label)
        dims[wt] -= 1
    assert all(v == 0 for v in dims.values()), dims
