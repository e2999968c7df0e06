import itertools

import pytest

from qosc.algebraops import phi_words
from qosc.fockmod import (
    FockVector,
    RestrictedModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WModule,
    act,
    act_k,
    flat_label,
    weight_block,
)
from qosc.lattice import EpsilonData, Weight, qpair, simple_root
from qosc.fundrep import Subspace
from qosc.scalars import Q, Scalar, Z1, W as Wsc, parse_scalar, qint

EPS = EpsilonData((1, 0, 1, 0, 1))
EPSP = EpsilonData((0, 1, 0, 1, 0))


def test_action_table_examples():
    mod = WModule(EPS, Z1, cutoff=6)
    zero = (0,) * 5
    v = FockVector.basis(zero)
    img = act(mod, ("e", 0), v)
    assert img.terms == {(1, 1, 0, 0, 0): Z1}
    assert act(mod, ("f", 0), v).is_zero()
    assert mod.weight_of(zero) == Weight(1, (0,) * 5)
    assert mod.weight_of((0, 0, 0, 0, 1)) == Weight(1, (0, 0, 0, 0, 1))


def test_printed_k_rows_match_qpair():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    m = (1, 2, 0, 1, 0)
    kv = act_k(mod, simple_root(0, EPS), FockVector.basis(m))
    assert kv.terms[m] == EPS.qi(1) ** (m[0] - 1) * EPS.qi(2) ** m[1]
    kv = act_k(mod, simple_root(5, EPS), FockVector.basis(m))
    assert kv.terms[m] == EPS.qi(5) ** (1 - m[4]) * EPS.qi(4) ** (-m[3])
    kv = act_k(mod, EPS.Lam(), FockVector.basis(m))
    assert kv.terms[m] == Wsc ** sum(m)

    w2 = W2Module(EPSP, Scalar.from_int(1), cutoff=6)
    lab = ((1, 0, 2, 0, 0), (0, 1, 0, 0, 1))
    kv = act_k(w2, simple_root(0, EPSP), FockVector.basis(lab))
    want = EPSP.qi(1) ** 1 * EPSP.qi(2) ** 1 * Q**2
    assert kv.terms[lab] == want
    assert w2.weight_of(lab) == Weight(2, (1, 1, 2, 0, 1))


def test_kets_outside_cone_are_dropped():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    # e_1 on m_1 = 1 would give m_1 = 0, fine; f_1 pushes into m_1 = 2: dropped
    v = FockVector.basis((1, 1, 0, 0, 0))
    img = act(mod, ("f", 1), v)
    assert img.is_zero()


def test_overflow_flag_is_sticky():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=2)
    v = FockVector.basis((0, 1, 0, 1, 0))
    img = act(mod, ("f", 5), v)  # degree 4 > cutoff
    assert img.is_zero() and img.overflow


def test_generator_domain_error():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=4)
    with pytest.raises(ValueError):
        act(mod, ("e", 9), FockVector.basis((0,) * 5))


def test_guard_violation_raises_window_error():
    from qosc.algebraops import check_relation_on
    from qosc.fockmod import WindowError, eval_word
    from qosc.words import WordExpr

    mod = WModule(EPS, Scalar.from_int(1), cutoff=4)
    expr = WordExpr.e(0) * WordExpr.f(5)  # raises degree by 4
    ket = (0, 1, 0, 1, 0)
    assert eval_word(expr, FockVector.basis(ket), mod).overflow
    # the guard band keeps the ket out of a relation check; a module that
    # understates the rise lets it in, and the check refuses the result
    assert check_relation_on(mod, "e0f5", expr, [ket]).checked == 0
    mod.atom_shift = lambda atom: 0
    with pytest.raises(WindowError):
        check_relation_on(mod, "e0f5", expr, [ket])


def test_weight_compatibility_and_degree_bookkeeping():
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=4)
    for label in mod.enumerate_labels(2):
        wt = mod.weight_of(label)
        d = mod.degree(label)
        for i in EPSP.I:
            for kind, sign in (("e", 1), ("f", -1)):
                img = act(mod, (kind, i), FockVector.basis(label))
                root = simple_root(i, EPSP)
                shift = mod.atom_shift((kind, i))
                for l2 in img.terms:
                    assert mod.weight_of(l2) == (
                        wt + root if sign > 0 else wt - root
                    )
                    assert mod.degree(l2) == d + shift


def test_k_acts_by_qpair_eigenvalue():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=5)
    mus = [EPS.Lam()] + [EPS.delta(a) for a in EPS.II]
    for label in mod.enumerate_labels(3):
        wt = mod.weight_of(label)
        for mu in mus:
            kv = act_k(mod, mu, FockVector.basis(label))
            assert kv.terms[label] == qpair(wt, mu, EPS)


def test_parity_split_and_stability():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    assert mod.parity((0,) * 5) == 0 and mod.parity((0, 0, 0, 0, 1)) == 1
    for label in mod.enumerate_labels(4):
        p = mod.parity(label)
        for i in EPS.I:
            for kind in ("e", "f"):
                img = act(mod, (kind, i), FockVector.basis(label))
                for l2 in img.terms:
                    assert mod.parity(l2) == p


def test_weight_block_constrained_multiplicity():
    # at eps_n = 1 the pair (e_n, e_n) is the only split of 2 e_n
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=6)
    wy = WModule(EPS, parse_scalar("q^-2"), cutoff=6)
    T = TensorModule([wx, wy])
    wt = Weight(2, (0, 0, 0, 0, 2))
    labels = weight_block(T, wt)
    assert labels == [((0, 0, 0, 0, 1), (0, 0, 0, 0, 1))]
    # with eps'_n = 0 the same weight has three splits
    w2x = W2Module(EPSP, parse_scalar("q^2"), cutoff=6)
    wt2 = Weight(2, (0, 0, 0, 0, 2))
    labels = w2x.labels_by_delta((0, 0, 0, 0, 2))
    assert len(labels) == 3


def test_coassociativity_of_iterated_coproducts():
    xs = [parse_scalar("q^2"), parse_scalar("q^-2"), parse_scalar("q^4")]
    mods = [WModule(EPS, x, cutoff=4) for x in xs]
    flat = TensorModule(mods)
    left = TensorModule([TensorModule(mods[:2]), mods[2]])
    right = TensorModule([mods[0], TensorModule(mods[1:])])

    def as_flat(vec):
        return {flat_label(l): c for l, c in vec.terms.items()}

    labels = [l for l in flat.enumerate_labels(2)]
    for lab in labels:
        lab_left = ((lab[0], lab[1]), lab[2])
        lab_right = (lab[0], (lab[1], lab[2]))
        for i in EPS.I:
            for kind in ("e", "f"):
                a = as_flat(act(flat, (kind, i), FockVector.basis(lab)))
                b = as_flat(act(left, (kind, i), FockVector.basis(lab_left)))
                c = as_flat(act(right, (kind, i), FockVector.basis(lab_right)))
                assert set(a) == set(b) == set(c)
                for k in a:
                    assert a[k] == b[k] == c[k]


def test_desk_scale_cyclicity_of_parity_submodules():
    # W^+ and W^- are generated by their top vectors within the window
    mod = WModule(EPS, parse_scalar("q^2"), cutoff=4)
    for parity, start in ((0, (0,) * 5), (1, (0, 0, 0, 0, 1))):
        sub = RestrictedModule(mod, parity)
        queue = [FockVector.basis(start)]
        span = Subspace(sub)
        while queue:
            v = queue.pop(0)
            if not span.add(v):
                continue
            for i in EPS.I:
                for kind in ("e", "f"):
                    img = act(sub, (kind, i), v)
                    if not img.is_zero() and not img.overflow:
                        queue.append(img)
        for label in sub.enumerate_labels(2):
            assert span.contains(FockVector.basis(label)), (parity, label)


def _w(x):
    return WModule(EPS, parse_scalar(x), cutoff=4)


def _w2(x):
    return W2Module(EPSP, parse_scalar(x), cutoff=4)


def _tr_w(x):
    return TruncatedModule(_w(x), phi_words("c", "underline", EPS))


def _tr_w2(x):
    return TruncatedModule(_w2(x), phi_words("d", "underline", EPSP))


PROTOCOL_MODULES = {
    "W": _w,
    "W2": _w2,
    "Truncated(W)": _tr_w,
    "Truncated(W2)": _tr_w2,
    "Restricted(W)": lambda x: RestrictedModule(_w(x), 1),
    "Restricted(W2)": lambda x: RestrictedModule(_w2(x), 0),
    "Restricted(Truncated(W))": lambda x: RestrictedModule(_tr_w(x), 0),
}


@pytest.mark.parametrize("tensor", [False, True], ids=["single", "tensor"])
@pytest.mark.parametrize("name", sorted(PROTOCOL_MODULES))
def test_module_protocol(name, tensor):
    make = PROTOCOL_MODULES[name]
    mod = TensorModule([make("q^2"), make("q^-4")]) if tensor else make("q^2")
    k = 3
    labels = list(mod.enumerate_labels(k))
    assert labels and len(labels) == len(set(labels))
    assert all(mod.degree(l) <= k for l in labels)
    # the window is exactly the union of its weight blocks
    blocks = set()
    for delta in itertools.product(range(k + 1), repeat=mod.n):
        if sum(delta) <= k:
            blocks.update(weight_block(mod, Weight(mod.lam_level, delta), k))
    assert set(labels) == blocks
    for label in labels:
        assert mod.parity(label) == mod.degree(label) % 2
        for j in mod.algebra.gen_indices:
            for kind in ("e", "f"):
                shift = mod.atom_shift((kind, j))
                for l2, _ in mod.apply_gen((kind, j), label):
                    assert mod.degree(l2) == mod.degree(label) + shift
        parts = zip(mod.factors, label) if tensor else [(mod, label)]
        for factor, part in parts:
            if isinstance(factor, RestrictedModule):
                assert factor.parity(part) == factor.parity_value
