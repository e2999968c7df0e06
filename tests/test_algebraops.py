from dataclasses import replace

import pytest
from test_eval_reference import ref_eval_word

from qosc.algebraops import (
    RelationReport,
    check_monoidality,
    check_phi_relations,
    check_relation_on,
    check_relations,
    check_truncation_equivariance,
    phi_words,
    relation_suite,
    target_relation_suite,
    truncate_vector,
)
from qosc.fockmod import (
    FockVector,
    PullbackModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WindowError,
    WModule,
    act,
    eval_word,
    weight_block,
)
from qosc.lattice import EpsilonData, qpair, simple_root
from qosc.scalars import ONE, Q, Scalar, Z1, parse_scalar, q_power, qint
from qosc.words import WordExpr, divided_power, expr_max_rise, qcommutator

EPS = EpsilonData((1, 0, 1, 0, 1))
EPSP = EpsilonData((0, 1, 0, 1, 0))


def test_relation_suite_contents():
    names = dict(relation_suite(EpsilonData((0, 0, 0, 0, 0))))
    # standard Serre for adjacent middle nodes at an all-even sequence
    w = names["serre:1,2"]
    e1, e2 = WordExpr.e(1), WordExpr.e(2)
    expected = e1 * e1 * e2 - (e1 * e2 * e1).scale(qint(2)) + e2 * e1 * e1
    assert (w - expected).is_zero()
    # alternating host: the 0-1-2 long relation is present, Serre is not
    names = dict(relation_suite(EPS))
    assert "long:0-1-2" in names and "serre:1,2" not in names
    assert "nilpotent:e0" in names  # all nodes are isotropic at eps bold
    # every e-relation is mirrored
    mirrors = [n for n in names if n.startswith(("serre-f", "long-f"))]
    assert len(mirrors) == len([n for n in names if n.startswith(("serre:", "long:"))])


def test_eval_word_examples():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    zero = (0,) * 5
    # rank-1 instance of the Cartan relation
    a1 = simple_root(1, EPS)
    lhs = eval_word(WordExpr.k(a1) * WordExpr.e(1) * WordExpr.k(-a1), FockVector.basis(zero), mod)
    rhs = eval_word(WordExpr.e(1), FockVector.basis(zero), mod).scale(qpair(a1, a1, EPS))
    assert (lhs - rhs).is_zero()
    # divided power: f_n^(2) = f_n^2 / [2]
    w1 = eval_word(divided_power("f", 5, 2), FockVector.basis(zero), mod)
    w2 = eval_word(WordExpr.f(5) * WordExpr.f(5), FockVector.basis(zero), mod).scale(
        qint(2).inverse()
    )
    assert (w1 - w2).is_zero()
    # q-commutator expands to AB - t BA
    word = qcommutator(WordExpr.e(0), WordExpr.e(2), Q)
    v = FockVector.basis((0, 1, 0, 0, 0))
    direct = eval_word(WordExpr.e(0) * WordExpr.e(2), v, mod) - eval_word(
        WordExpr.e(2) * WordExpr.e(0), v, mod
    ).scale(Q)
    assert (eval_word(word, v, mod) - direct).is_zero()


def test_full_relation_suites_vanish():
    mod = WModule(EPS, Z1, cutoff=5)
    assert all(r.passed for r in check_relations(mod))
    mod2 = W2Module(EPSP, Z1, cutoff=4)
    assert all(r.passed for r in check_relations(mod2))


def test_phi_words_examples():
    tgt = phi_words("c", "underline", EPS, eta=1)
    # hat e_1 = [e_2, e_3]_{-q}
    want = qcommutator(WordExpr.e(2), WordExpr.e(3), -Q)
    assert (tgt.phi(("e", 1)) - want).is_zero()
    tgt = phi_words("c", "overline", EPS, eta=1)  # d = q
    want = qcommutator(WordExpr.e(0), WordExpr.e(2), Q)
    assert (tgt.phi(("e", 0)) - want).is_zero()
    tgt = phi_words("d", "underline", EPSP, eta=1)  # d = -q
    m = 2
    want = qcommutator(WordExpr.e(2 * m + 1), WordExpr.e(2 * m - 1), -Q)
    assert (tgt.phi(("e", m + 1)) - want).is_zero()
    with pytest.raises(ValueError):
        phi_words("c", "underline", EPSP)


def test_phi_relations_small_windows():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    for side in ("underline", "overline"):
        tgt = phi_words("c", side, EPS)
        assert all(r.passed for r in check_phi_relations(tgt, mod)), side
    mod2 = W2Module(EPSP, Scalar.from_int(1), cutoff=4)
    for side in ("underline", "overline"):
        tgt = phi_words("d", side, EPSP)
        assert all(r.passed for r in check_phi_relations(tgt, mod2)), side


def test_target_cartan_data_from_embedded_roots():
    tgt = phi_words("c", "underline", EPS)  # U_q(C_2^(1))
    assert [tgt.sym(i, i) for i in tgt.gen_indices] == [4, 2, 4]
    assert tgt.sym(0, 1) == -2 and tgt.sym(1, 2) == -2
    tgt = phi_words("c", "overline", EPS)  # U_qt(D_3^(1)) = A_3^(1) cycle
    B = {(i, j): tgt.sym(i, j) for i in tgt.gen_indices for j in tgt.gen_indices}
    assert all(B[(i, i)] == 2 for i in tgt.gen_indices)
    assert B[(0, 2)] == B[(0, 3)] == B[(1, 2)] == B[(1, 3)] == -1
    assert B[(0, 1)] == B[(2, 3)] == 0


def test_truncate_vector():
    tgt = phi_words("c", "underline", EPS)
    v = FockVector.basis((0, 0, 0, 0, 0))
    assert truncate_vector(v, tgt.kept) == v
    v = FockVector.basis((1, 0, 0, 0, 0))
    assert truncate_vector(v, tgt.kept).is_zero()
    v = FockVector.basis((0, 1, 0, 1, 0))
    assert truncate_vector(v, tgt.kept) == v


def test_truncation_equivariance_and_stability():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    for side in ("underline", "overline"):
        tgt = phi_words("c", side, EPS)
        reps = check_truncation_equivariance(tgt, mod, maxdeg=4)
        assert all(r.passed for r in reps), side


def test_monoidality_identifies_tr_of_tensor():
    tgt = phi_words("c", "overline", EPS)
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=4)
    wy = WModule(EPS, parse_scalar("q^-2"), cutoff=4)
    t_amb = TensorModule([wx, wy])
    t_tr = TensorModule([TruncatedModule(wx, tgt), TruncatedModule(wy, tgt)])
    reps = check_monoidality(tgt, t_amb, t_tr, maxdeg=2)
    assert all(r.passed for r in reps)
    # the rank-two host behaves the same way
    tgt = phi_words("d", "underline", EPSP)
    ax = W2Module(EPSP, parse_scalar("q^2"), cutoff=4)
    ay = W2Module(EPSP, parse_scalar("q^-2"), cutoff=4)
    t_amb = TensorModule([ax, ay])
    t_tr = TensorModule([TruncatedModule(ax, tgt), TruncatedModule(ay, tgt)])
    reps = check_monoidality(tgt, t_amb, t_tr, maxdeg=2)
    assert all(r.passed for r in reps)


def test_eta_choice_changes_action_by_explicit_scalar_only():
    # on truncated vectors the commutator collapses, so the two eta choices
    # differ by the exact ratio of the c constants
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    t1 = phi_words("c", "underline", EPS, eta=1)
    t2 = phi_words("c", "underline", EPS, eta=-1)
    m1 = TruncatedModule(mod, t1)
    m2 = TruncatedModule(mod, t2)
    for i in t1.gen_indices:
        ratio = (q_power(2) if i in (0, 2) else q_power(1)) ** 2  # c_i(+1)/c_i(-1)
        for label in m1.enumerate_labels(4):
            v1 = act(m1, ("e", i), FockVector.basis(label))
            v2 = act(m2, ("e", i), FockVector.basis(label))
            assert (v1 - v2.scale(ratio)).is_zero()


def test_truncated_basis_matches_intrinsic_fock_space():
    # dimension census: kept-supported kets against the free/binary count
    tgt = phi_words("c", "underline", EPS)
    mod = TruncatedModule(WModule(EPS, Scalar.from_int(1), cutoff=6), tgt)
    # kept positions 2, 4 are unconstrained: block dim per weight is 1
    for wt_delta in [(0, 2, 0, 0, 0), (0, 1, 0, 3, 0)]:
        assert len(mod.labels_by_delta(wt_delta)) == 1
    tgt = phi_words("c", "overline", EPS)
    mod = TruncatedModule(WModule(EPS, Scalar.from_int(1), cutoff=6), tgt)
    total = sum(1 for _ in mod.enumerate_labels(6))
    assert total == 8  # 2^3 spin kets on three odd positions


def test_negative_control_detects_corruption():
    class Corrupted(WModule):
        def apply_gen(self, gen, label):
            out = WModule.apply_gen(self, gen, label)
            if gen == ("e", 0):
                return [(l, -c) for l, c in out]
            return out

    mod = Corrupted(EPS, Scalar.from_int(1), cutoff=5)
    suite = dict(relation_suite(EPS))
    rep = check_relation_on(mod, "ef:0,0", suite["ef:0,0"])
    assert not rep.passed and rep.residual_label is not None


def _kept(vec, tgt):
    return truncate_vector(vec, tgt.kept) == vec


def test_equivariance_catches_a_phi_image_that_leaves_kept_support():
    # corrupt hat e_1 by e_2, which moves position 2 (kept) to 3 (removed):
    # the image of a kept ket then leaves kept support
    tgt = phi_words("c", "underline", EPS)
    bad_word = tgt.phi(("e", 1)) + WordExpr.e(2)
    bad = replace(tgt, phi_e={**tgt.phi_e, 1: bad_word})
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    reps = check_truncation_equivariance(bad, mod, maxdeg=4)
    assert [r.relation for r in reps if not r.passed] == ["tr-equivariance:e1"]
    # the old stability condition names the first failing ket in window order
    first = None
    for label in mod.enumerate_labels(4):
        b = FockVector.basis(label)
        if _kept(b, tgt) and not _kept(eval_word(bad_word, b, mod), tgt):
            first = label
            break
    rep = next(r for r in reps if not r.passed)
    assert first is not None and rep.residual_label == first
    img = eval_word(bad_word, FockVector.basis(first), mod)
    assert rep.residual == truncate_vector(img, tgt.kept) - img
    assert rep.checked == 1 + list(mod.enumerate_labels(4)).index(first)


def test_monoidality_catches_a_sign_flip_in_one_factor():
    class Flipped(TruncatedModule):
        def apply_gen(self, gen, label):
            out = TruncatedModule.apply_gen(self, gen, label)
            if gen == ("e", 1):
                return [(l, -c) for l, c in out]
            return out

    tgt = phi_words("c", "underline", EPS)
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=4)
    wy = WModule(EPS, parse_scalar("q^-2"), cutoff=4)
    t_amb = TensorModule([wx, wy])
    t_bad = TensorModule([Flipped(wx, tgt), TruncatedModule(wy, tgt)])
    reps = check_monoidality(tgt, t_amb, t_bad, maxdeg=2)
    assert [r.relation for r in reps if not r.passed] == ["tr-monoidal:e1"]
    # e (x) k^-1 is the flipped term: the first ket whose first factor e_1
    # does not kill fails
    first = next(
        label
        for label in t_bad.enumerate_labels(2)
        if not act(TruncatedModule(wx, tgt), ("e", 1), FockVector.basis(label[0])).is_zero()
    )
    rep = next(r for r in reps if not r.passed)
    assert rep.residual_label == first


# -- the blocked relation check against a check of one ket at a time -------


def _ref_check(module, name, expr, labels=None):
    """check_relation_on as a loop over one ket at a time, each evaluated
    by the per-term reference loop."""
    safe = module.cutoff - expr_max_rise(expr, module.atom_shift)
    if labels is None:
        labels = module.enumerate_labels(safe) if safe >= 0 else ()
    rep = RelationReport(name, module.cutoff, max_degree_checked=-1)
    for label in labels:
        d = module.degree(label)
        if d > safe:
            continue
        out = ref_eval_word(expr, FockVector.basis(label), module)
        if out.overflow:
            raise WindowError("insufficient guard band for the word")
        rep.checked += 1
        rep.max_degree_checked = max(rep.max_degree_checked, d)
        if not out.is_zero():
            rep.residual_label, rep.residual = label, out
            break
    return rep


def _assert_same_report(module, name, expr, labels=None):
    got = check_relation_on(module, name, expr, labels)
    want = _ref_check(module, name, expr, labels)
    assert got == want
    assert got.to_json() == want.to_json()
    assert repr(got.residual) == repr(want.residual)
    return got


class _SignFlippedW2(W2Module):
    """W^(x2)(x) with the sign of f_2 flipped on kets whose second factor
    has m'_3 > 0."""

    def apply_gen(self, gen, label):
        out = W2Module.apply_gen(self, gen, label)
        if gen == ("f", 2) and label[1][2]:
            return [(l, -c) for l, c in out]
        return out


def _corrupted_phi_pullback():
    tgt = phi_words("d", "underline", EPSP)
    bad = replace(tgt, phi_f={**tgt.phi_f, 1: tgt.phi_f[1] + WordExpr.f(2).scale(Q)})
    return tgt, PullbackModule(W2Module(EPSP, parse_scalar("q^2"), cutoff=4), bad)


def _placements(module, expr, length=24):
    """Windows of length kets, the first failing ket of the window put at
    positions 0, 15, 16 (either side of the first block boundary) and
    last, the rest passing kets in window order."""
    safe = module.cutoff - expr_max_rise(expr, module.atom_shift)
    passing, failing = [], None
    for label in module.enumerate_labels(safe):
        if ref_eval_word(expr, FockVector.basis(label), module).is_zero():
            passing.append(label)
        elif failing is None:
            failing = label
        if failing is not None and len(passing) >= length - 1:
            break
    passing = passing[: length - 1]
    return failing, [passing[:p] + [failing] + passing[p:] for p in (0, 15, 16, length - 1)]


def _cases():
    tgt, pulled = _corrupted_phi_pullback()
    return {
        "corrupted W2 action": (
            _SignFlippedW2(EPSP, parse_scalar("q^2"), cutoff=4),
            "ef:3,2",
            dict(relation_suite(EPSP))["ef:3,2"],
        ),
        "corrupted phi word": (
            pulled,
            "t-serre:f0,f1",
            dict(target_relation_suite(tgt))["t-serre:f0,f1"],
        ),
    }


@pytest.mark.parametrize("case", ["corrupted W2 action", "corrupted phi word"])
def test_blocked_check_matches_one_ket_at_a_time(case):
    module, name, expr = _cases()[case]
    # the whole window, in window order
    rep = _assert_same_report(module, name, expr)
    assert not rep.passed
    failing, windows = _placements(module, expr)
    for pos, labels in zip((0, 15, 16, 23), windows):
        rep = _assert_same_report(module, name, expr, labels)
        assert rep.residual_label == failing and rep.checked == pos + 1, pos


def test_blocked_check_matches_on_a_passing_relation():
    module = W2Module(EPSP, parse_scalar("q^2"), cutoff=4)
    rep = _assert_same_report(module, "ef:3,2", dict(relation_suite(EPSP))["ef:3,2"])
    assert rep.passed and rep.checked % 16 != 0


class _UnderstatedW2(W2Module):
    """W^(x2)(x) whose atom_shift claims no atom raises the degree, and
    whose f_0 has the wrong sign: low kets fail e_0 f_0 - f_0 e_0 = [k],
    and a ket at degree 3 or more is let in though e_0 lifts it out."""

    def atom_shift(self, atom):
        return 0

    def apply_gen(self, gen, label):
        out = W2Module.apply_gen(self, gen, label)
        return [(l, -c) for l, c in out] if gen == ("f", 0) else out


class _UnderstatedPullback(PullbackModule):
    def atom_shift(self, atom):
        return 0


def _kinds(module, expr):
    """The kets of the window that pass, fail with nothing dropped, or drop
    a ket above the cutoff, one ket at a time."""
    kinds = {"pass": [], "fail": [], "drop": []}
    for label in module.enumerate_labels():
        try:
            out = ref_eval_word(expr, FockVector.basis(label), module)
        except WindowError:  # a pull-back raises in apply_gen
            out = FockVector(overflow=True)
        kind = "drop" if out.overflow else ("pass" if out.is_zero() else "fail")
        kinds[kind].append(label)
    return kinds


@pytest.mark.parametrize("kind", ["W2", "pull-back"])
def test_window_error_only_for_a_drop_up_to_the_first_counterexample(kind):
    if kind == "W2":
        module = _UnderstatedW2(EPSP, parse_scalar("q^2"), cutoff=4)
        expr = dict(relation_suite(EPSP))["ef:0,0"]
    else:
        # phi(e_0) + e_2: e_0 f_0 - f_0 e_0 = [k] fails where e_2 acts
        tgt = phi_words("d", "underline", EPSP)
        bad = replace(tgt, phi_e={**tgt.phi_e, 0: tgt.phi_e[0] + WordExpr.e(2)})
        module = _UnderstatedPullback(W2Module(EPSP, parse_scalar("q^2"), cutoff=4), bad)
        expr = dict(target_relation_suite(tgt))["t-ef:0,0"]
    kinds = _kinds(module, expr)
    fail, drop = kinds["fail"][0], kinds["drop"][0]
    # in the first block, across the boundary, and in the second block
    for pad in (kinds["pass"][:0], kinds["pass"][:15], kinds["pass"][:16]):
        labels = pad + [drop, fail]
        with pytest.raises(WindowError):
            check_relation_on(module, "r", expr, labels)
        with pytest.raises(WindowError):
            _ref_check(module, "r", expr, labels)
        rep = _assert_same_report(module, "r", expr, pad + [fail, drop])
        assert rep.residual_label == fail and rep.checked == len(pad) + 1
