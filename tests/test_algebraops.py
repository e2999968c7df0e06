import copy

import pytest
from test_eval_reference import packed_walks_only, ref_act, ref_eval_word, ref_truncate

from qosc.algebraops import (
    RelationReport,
    _check_suite,
    check_monoidality,
    check_phi_relations,
    check_relation_on,
    check_relations,
    check_truncation_equivariance,
    host_eps,
    level_module,
    phi_words,
    relation_suite,
    target_relation_suite,
    truncate_vector,
)
from qosc import fockmod
from qosc.fockmod import (
    DROPPED,
    FockVector,
    ImageMemo,
    PullbackModule,
    RestrictedModule,
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


def replace(tgt, **changes):
    """A copy of a TargetAlgebra with some of its fields changed."""
    out = copy.copy(tgt)
    vars(out).update(changes)
    return out


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


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: phi_words("x", "underline", host_eps("c", 2)), "'x'"),
        (lambda: phi_words("x", "overline", host_eps("d", 2)), "'x'"),
        (lambda: phi_words("c", "sideways", host_eps("c", 2)), "'sideways'"),
        (lambda: phi_words("d", "", host_eps("d", 2)), "''"),
        (lambda: host_eps("x", 2), "'x'"),
        (lambda: host_eps("C", 2), "'C'"),
    ],
)
def test_phi_words_and_host_eps_name_a_bad_kind_or_side(call, bad):
    # each used to build a target on a guessed branch: U_q(D_3^(1)) for
    # kind "x", U_qt(D_3^(1)) for side "sideways", the type-d host for "x"
    with pytest.raises(ValueError, match=bad):
        call()


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
    mod = WModule(EPS, ONE, cutoff=4)
    v = FockVector.basis((0, 0, 0, 0, 0))
    assert truncate_vector(v, mod, tgt) == ref_truncate(v, tgt.kept) == v
    v = FockVector.basis((1, 0, 0, 0, 0))
    assert truncate_vector(v, mod, tgt).is_zero() and ref_truncate(v, tgt.kept).is_zero()
    v = FockVector.basis((0, 1, 0, 1, 0))
    assert truncate_vector(v, mod, tgt) == ref_truncate(v, tgt.kept) == v
    # a vector over two weights keeps the terms of the kept one
    v = FockVector({(0, 1, 0, 0, 0): ONE, (0, 0, 1, 0, 0): Q})
    assert truncate_vector(v, mod, tgt) == ref_truncate(v, tgt.kept) == FockVector.basis(
        (0, 1, 0, 0, 0))


# a bold module per (flavor, shape) and its host: W, W2, a parity part of
# each, a tensor of W's and a tensor of W2's
SHAPES = {
    ("c", "W"): [(ONE, "W")],
    ("c", "W^-"): [(ONE, "-")],
    ("c", "tensor"): [(parse_scalar("q^2"), "+"), (parse_scalar("q^-4"), "W")],
    ("d", "W2"): [(ONE, "W")],
    ("d", "W2^+"): [(ONE, "+")],
    ("d", "W2 tensor"): [(Z1, "W"), (ONE, "-")],
}


@pytest.mark.parametrize("level", ["underline", "overline"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_truncation_by_weight_matches_the_nested_label_rule(shape, level):
    flavor, _ = shape
    host = EPS if flavor == "c" else EPSP
    cutoff = 4 if len(SHAPES[shape]) > 1 else 5
    tgt = phi_words(flavor, level, host)
    bold = level_module(flavor, "bold", host, cutoff, SHAPES[shape])
    truncated = level_module(flavor, level, host, cutoff, SHAPES[shape])
    labels = list(bold.enumerate_labels())
    kept = [label for label in labels if ref_truncate(FockVector.basis(label), tgt.kept).terms]
    assert 0 < len(kept) < len(labels)
    for label in labels:
        b = FockVector.basis(label)
        assert truncate_vector(b, bold, tgt) == ref_truncate(b, tgt.kept), label
    # the truncated module's window and weight blocks are the kept kets
    assert list(truncated.enumerate_labels()) == kept
    deltas = {bold.weight_of(label).delta for label in labels}
    for delta in deltas:
        got = sorted(truncated.labels_by_delta(delta))
        assert got == sorted(l for l in bold.labels_by_delta(delta) if l in kept), delta


def test_truncation_equivariance_and_stability():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    for side in ("underline", "overline"):
        tgt = phi_words("c", side, EPS)
        reps = check_truncation_equivariance(tgt, mod)
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
            if gen == ("e", 0) and out is not DROPPED:
                return [(l, -c) for l, c in out]
            return out

    mod = Corrupted(EPS, Scalar.from_int(1), cutoff=5)
    suite = dict(relation_suite(EPS))
    rep = check_relation_on(mod, "ef:0,0", suite["ef:0,0"])
    assert not rep.passed and rep.residual_label is not None


def _kept(vec, tgt):
    return ref_truncate(vec, tgt.kept) == vec


class _MisroutedE1(ImageMemo):
    """W(x) whose e_1 sends each ket to the kets that e_2 reaches from it,
    with e_1's coefficients: e_1 then moves weights by alpha_2."""

    def _image(self, gen, label):
        out = self.base.apply_gen(gen, label)
        if gen == ("e", 1) and out is not DROPPED:
            e2 = self.base.apply_gen(("e", 2), label)
            if e2 is DROPPED:
                return e2
            return tuple((l2, c) for (_, c), (l2, _) in zip(out, e2))
        return out


def test_cartan_relations_catch_an_e1_that_moves_weights_by_alpha_2():
    # no other negative control breaks a Cartan relation: here
    # k_mu e_1 k_-mu = q(mu, alpha_2) e_1, which differs from q(mu, alpha_1)
    # e_1 exactly when mu tells alpha_1 from alpha_2
    mod = _MisroutedE1(WModule(EPS, parse_scalar("q^2"), cutoff=5))
    a1, a2 = simple_root(1, EPS), simple_root(2, EPS)
    suite = [(name, expr) for name, expr in relation_suite(EPS) if name.startswith("cartan:e1:")]
    told = {name for name, expr in suite
            if any(qpair(mu, a1, EPS) != qpair(mu, a2, EPS)
                   for atoms in expr.terms for kind, mu in atoms if kind == "k")}
    assert told and len(told) < len(suite)
    with packed_walks_only(reads=[]):
        packed = _check_suite(mod, suite)
    assert not any(rep.checked == 0 for rep in packed)
    assert {rep.relation for rep in packed if not rep.passed} == told
    # the same counterexamples, byte for byte, from the Scalar walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fockmod._Packing, "pack", lambda self, K, D: (_ for _ in ()).throw(fockmod._NoFit))
        scalar = _check_suite(mod, suite)
    assert [rep.to_json() for rep in packed] == [rep.to_json() for rep in scalar]
    assert [repr(rep.residual) for rep in packed] == [repr(rep.residual) for rep in scalar]


def test_equivariance_catches_a_phi_image_that_leaves_kept_support():
    # corrupt hat e_1 by e_2, which moves position 2 (kept) to 3 (removed):
    # the image of a kept ket then leaves kept support
    tgt = phi_words("c", "underline", EPS)
    bad_word = tgt.phi(("e", 1)) + WordExpr.e(2)
    bad = replace(tgt, phi_e={**tgt.phi_e, 1: bad_word})
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    reps = check_truncation_equivariance(bad, mod)
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
    assert rep.residual == ref_truncate(img, tgt.kept) - img
    assert rep.checked == 1 + list(mod.enumerate_labels(4)).index(first)


def test_monoidality_catches_a_sign_flip_in_one_factor():
    class Flipped(TruncatedModule):
        def apply_gen(self, gen, label):
            out = TruncatedModule.apply_gen(self, gen, label)
            if gen == ("e", 1) and out is not DROPPED:
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
        # raises WindowError on a ket whose image left the window
        out = ref_eval_word(expr, FockVector.basis(label), module)
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
        if gen == ("f", 2) and label[1][2] and out is not DROPPED:
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
        if gen == ("f", 0) and out is not DROPPED:
            return [(l, -c) for l, c in out]
        return out


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
        except WindowError:
            kinds["drop"].append(label)
            continue
        kinds["pass" if out.is_zero() else "fail"].append(label)
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


# -- whole suites in one merged walk against checks of one ket at a time -----


def _assert_same_suite(got, module, suite):
    """got equals _ref_check run on each relation of suite in turn."""
    want = [_ref_check(module, name, expr) for name, expr in suite]
    assert got == want
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert [repr(r.residual) for r in got] == [repr(r.residual) for r in want]
    return got


def test_relation_suite_matches_one_ket_at_a_time():
    module = _SignFlippedW2(EPSP, parse_scalar("q^2"), cutoff=4)
    got = _assert_same_suite(check_relations(module), module, relation_suite(EPSP))
    assert 0 < sum(not r.passed for r in got) < len(got)


def test_phi_relation_suite_matches_one_ket_at_a_time():
    tgt, pulled = _corrupted_phi_pullback()
    bad = pulled.algebra
    got = _assert_same_suite(
        check_phi_relations(bad, pulled.base), pulled, target_relation_suite(tgt)
    )
    assert 0 < sum(not r.passed for r in got) < len(got)


def test_relation_suite_matches_with_vacuous_checks():
    module = WModule(EPS, Scalar.from_int(1), cutoff=2)
    got = _assert_same_suite(check_relations(module), module, relation_suite(EPS))
    vacuous = [r.relation for r in got if not r.checked]
    assert vacuous == ["ef:0,5", "nilpotent:e0", "nilpotent:f5"]


def test_relation_suite_raises_window_error_as_one_ket_at_a_time():
    module = _UnderstatedW2(EPSP, parse_scalar("q^2"), cutoff=4)
    with pytest.raises(WindowError):
        check_relations(module)
    with pytest.raises(WindowError):
        for name, expr in relation_suite(EPSP):
            _ref_check(module, name, expr)


def test_merged_walk_charges_a_drop_to_its_own_relations():
    # on the understated W2 every relation has the whole window as guard
    # band, so r and s share one trie: both walk f_0 first, and only s has
    # a term whose first atom e_0 drops the image of a ket of degree 3 or 4
    module = _UnderstatedW2(EPSP, parse_scalar("q^2"), cutoff=4)
    rels = dict(relation_suite(EPSP))
    suite = [("r", rels["ef:1,0"]), ("s", rels["ef:0,0"])]
    kinds = _kinds(module, suite[1][1])
    fail, drop = kinds["fail"][0], kinds["drop"][0]
    assert drop in _kinds(module, suite[0][1])["pass"]
    for pad in (kinds["pass"][:0], kinds["pass"][:15], kinds["pass"][:16]):
        # r reaches the drop and passes it; s stops at its counterexample
        # first, so the drop after it raises for neither
        labels = pad + [fail, drop]
        got = _check_suite(module, suite, labels)
        want = [_ref_check(module, name, expr, labels) for name, expr in suite]
        assert got == want and [r.to_json() for r in got] == [r.to_json() for r in want]
        assert got[0].passed and got[0].checked == len(labels)
        assert got[1].residual_label == fail and got[1].checked == len(pad) + 1
        # s reaches the drop first
        with pytest.raises(WindowError):
            _check_suite(module, suite, pad + [drop, fail])
        assert _check_suite(module, suite[:1], pad + [drop, fail])[0].passed


# -- the blocked truncation checks against checks of one ket at a time ------


def _equivariance_residual(tgt, module, gen):
    word, kept = tgt.phi(gen), tgt.kept
    return lambda b: ref_truncate(ref_eval_word(word, b, module), kept) - ref_eval_word(
        word, ref_truncate(b, kept), module
    )


def _monoidal_residual(tgt, t_amb, t_tr, gen):
    return lambda b: ref_eval_word(tgt.phi(gen), b, t_amb) - ref_act(t_tr, gen, b)


def _ref_reports(prefix, tgt, cutoff, module, maxdeg, residual_of):
    """One report per target generator, each from a loop over one ket at a
    time: module's kets up to maxdeg in window order, stopping at the first
    nonzero residual_of(gen)(b)."""
    reports = []
    for j in tgt.gen_indices:
        for kind in ("e", "f"):
            residual = residual_of((kind, j))
            rep = RelationReport("%s:%s%d" % (prefix, kind, j), cutoff, max_degree_checked=-1)
            for label in module.enumerate_labels(maxdeg):
                out = residual(FockVector.basis(label))
                rep.checked += 1
                rep.max_degree_checked = max(rep.max_degree_checked, module.degree(label))
                if not out.is_zero():
                    rep.residual_label, rep.residual = label, out
                    break
            reports.append(rep)
    return reports


def _assert_same_reports(got, want):
    assert got == want
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert [repr(r.residual) for r in got] == [repr(r.residual) for r in want]


def _listed(module, labels):
    """module with its window replaced by labels, in that order."""
    module.enumerate_labels = lambda maxdeg=None: iter(labels)
    return module


def _windows(labels, residual, length=24):
    """(first failing ket, windows of length kets that put it at positions
    0, 15, 16 (either side of the first block boundary) and last, the rest
    passing kets in window order)."""
    fails = [not residual(FockVector.basis(label)).is_zero() for label in labels]
    failing = labels[fails.index(True)]
    passing = [label for label, bad in zip(labels, fails) if not bad][: length - 1]
    assert len(passing) == length - 1
    return failing, [passing[:p] + [failing] + passing[p:] for p in (0, 15, 16, length - 1)]


def test_blocked_equivariance_matches_one_ket_at_a_time():
    # hat e_1 corrupted by + e_2, as in the kept-support test above
    tgt = phi_words("c", "underline", EPS)
    bad = replace(tgt, phi_e={**tgt.phi_e, 1: tgt.phi(("e", 1)) + WordExpr.e(2)})

    def check(module):
        got = check_truncation_equivariance(bad, module)
        _assert_same_reports(got, _ref_reports(
            "tr-equivariance", bad, 6, module, 4,
            lambda gen: _equivariance_residual(bad, module, gen)))
        assert [r.relation for r in got if not r.passed] == ["tr-equivariance:e1"]
        return got

    module = WModule(EPS, Scalar.from_int(1), cutoff=6)
    check(module)
    failing, windows = _windows(list(module.enumerate_labels(4)),
                                _equivariance_residual(bad, module, ("e", 1)))
    for pos, labels in zip((0, 15, 16, 23), windows):
        got = check(_listed(WModule(EPS, Scalar.from_int(1), cutoff=6), labels))
        rep = got[2]
        assert rep.residual_label == failing and rep.checked == pos + 1, pos
        assert all(r.checked == 24 for r in got if r is not rep)


class Leaky(TruncatedModule):
    """A truncation that reports every nonzero e_1 image as leaving the
    window: the truncated side of such a ket has no image left."""

    def apply_gen(self, gen, label):
        out = TruncatedModule.apply_gen(self, gen, label)
        return DROPPED if gen == ("e", 1) and out else out


def test_blocked_monoidality_matches_one_ket_at_a_time():
    class Blind(TruncatedModule):
        """A truncation that kills every nonzero e_1 image: the truncated
        side of a failing ket is empty."""

        def apply_gen(self, gen, label):
            out = TruncatedModule.apply_gen(self, gen, label)
            return () if gen == ("e", 1) and out else out

    tgt = phi_words("c", "underline", EPS)
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=6)
    wy = WModule(EPS, parse_scalar("q^-2"), cutoff=6)
    t_amb = TensorModule([wx, wy])

    def t_bad():
        return TensorModule([Blind(wx, tgt), TruncatedModule(wy, tgt)])

    def check(t_tr):
        got = check_monoidality(tgt, t_amb, t_tr, maxdeg=4)
        _assert_same_reports(got, _ref_reports(
            "tr-monoidal", tgt, 6, t_tr, 4,
            lambda gen: _monoidal_residual(tgt, t_amb, t_tr, gen)))
        assert [r.relation for r in got if not r.passed] == ["tr-monoidal:e1"]
        return got

    module = t_bad()
    check(module)
    failing, windows = _windows(list(module.enumerate_labels(4)),
                                _monoidal_residual(tgt, t_amb, module, ("e", 1)))
    for pos, labels in zip((0, 15, 16, 23), windows):
        got = check(_listed(t_bad(), labels))
        rep = got[2]
        assert rep.residual_label == failing and rep.checked == pos + 1, pos
        # the truncated side is empty, so the residual is the ambient image
        assert rep.residual == eval_word(tgt.phi(("e", 1)), FockVector.basis(failing), t_amb)
        assert all(r.checked == 24 for r in got if r is not rep)


def test_truncation_checks_refuse_a_ket_whose_image_left_the_window():
    tgt = phi_words("c", "underline", EPS)
    factors = [(parse_scalar("q^2"), "W"), (parse_scalar("q^-4"), "W")]
    t_amb, t_tr = (level_module("c", level, EPS, 4, factors) for level in ("bold", "underline"))
    # maxdeg = cutoff: phi images of the top kets leave the window
    with pytest.raises(WindowError):
        check_monoidality(tgt, t_amb, t_tr, maxdeg=4)
    reps = check_monoidality(tgt, t_amb, t_tr, maxdeg=1)
    assert all(r.passed for r in reps)
    # a ket whose truncated image left the window whole has no image at all
    wx, wy = (WModule(EPS, x, cutoff=6) for x, _ in factors)
    t_leaky = TensorModule([Leaky(wx, tgt), TruncatedModule(wy, tgt)])
    with pytest.raises(WindowError):
        check_monoidality(tgt, TensorModule([wx, wy]), t_leaky, maxdeg=4)
    # equivariance on a window listed up to the cutoff
    module = WModule(EPS, ONE, cutoff=4)
    with pytest.raises(WindowError):
        check_truncation_equivariance(tgt, _listed(module, list(module.enumerate_labels())))


def test_truncation_checks_stop_at_a_counterexample_before_a_drop():
    class PhantomLeak(TruncatedModule):
        """A truncation whose e_1 fixes every ket that e_1 kills and drops
        every other image: each ket fails tr-monoidal:e1 or drops."""

        def apply_gen(self, gen, label):
            out = TruncatedModule.apply_gen(self, gen, label)
            if gen != ("e", 1):
                return out
            return DROPPED if out else [(label, ONE)]

    tgt = phi_words("c", "underline", EPS)
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=4)
    wy = WModule(EPS, parse_scalar("q^-2"), cutoff=4)
    t_amb = TensorModule([wx, wy])

    def t_bad():
        return TensorModule([PhantomLeak(wx, tgt), TruncatedModule(wy, tgt)])

    e1 = ("e", 1)
    labels = list(t_bad().enumerate_labels(2))
    fail = next(l for l in labels if t_bad().apply_gen(e1, l) is not DROPPED)
    drop = next(l for l in labels if t_bad().apply_gen(e1, l) is DROPPED)
    # the counterexample ends tr-monoidal:e1 before its drop, in one block
    module = _listed(t_bad(), [fail, drop])
    got = check_monoidality(tgt, t_amb, module, maxdeg=2)
    _assert_same_reports(got, _ref_reports(
        "tr-monoidal", tgt, 4, module, 2,
        lambda gen: _monoidal_residual(tgt, t_amb, module, gen)))
    assert got[2].residual_label == fail and got[2].checked == 1
    # the drop first raises, as one ket at a time
    with pytest.raises(WindowError):
        check_monoidality(tgt, t_amb, _listed(t_bad(), [drop, fail]), maxdeg=2)


def test_monoidality_catches_an_image_only_on_the_truncated_side():
    class Phantom(TruncatedModule):
        """A truncation whose e_1 fixes every ket that e_1 kills."""

        def apply_gen(self, gen, label):
            out = TruncatedModule.apply_gen(self, gen, label)
            return [(label, ONE)] if gen == ("e", 1) and not out else out

    tgt = phi_words("c", "underline", EPS)
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=4)
    wy = WModule(EPS, parse_scalar("q^-2"), cutoff=4)
    t_amb = TensorModule([wx, wy])
    t_bad = TensorModule([Phantom(wx, tgt), TruncatedModule(wy, tgt)])
    got = check_monoidality(tgt, t_amb, t_bad, maxdeg=2)
    _assert_same_reports(got, _ref_reports(
        "tr-monoidal", tgt, 4, t_bad, 2,
        lambda gen: _monoidal_residual(tgt, t_amb, t_bad, gen)))
    assert [r.relation for r in got if not r.passed] == ["tr-monoidal:e1"]
    # the counterexample's ambient image is zero
    rep = got[2]
    assert eval_word(tgt.phi(("e", 1)), FockVector.basis(rep.residual_label), t_amb).is_zero()


def test_level_module_wraps_each_factor_and_tensors_several():
    lone = level_module("c", "underline", EPS, 4, [(ONE, "-")])
    assert type(lone) is RestrictedModule and lone.parity_value == 1
    assert type(lone.base) is TruncatedModule and type(lone.base.base) is WModule
    assert all(lone.degree(l) % 2 == 1 for l in lone.enumerate_labels())
    pair = level_module("d", "bold", EPSP, 4, [(Z1, "W"), (ONE, "+")])
    assert type(pair) is TensorModule
    w, even = pair.factors
    assert type(w) is W2Module and w.x == Z1
    assert type(even) is RestrictedModule and even.parity_value == 0 and even.base.x == ONE
