import itertools
from collections import Counter

import pytest
from test_eval_reference import act_or_none

from qosc.algebraops import phi_words
from qosc.fockmod import (
    DROPPED,
    FockVector,
    ImageMemo,
    ModuleView,
    PullbackModule,
    RestrictedModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WindowError,
    WModule,
    act,
    eval_word,
    flat_label,
    image_leaves_window,
    weight_block,
)
from qosc.lattice import EpsilonData, Weight, qpair, simple_root
from qosc.fundrep import Subspace
from qosc.scalars import Q, Scalar, Z1, W as Wsc, parse_scalar, qint
from qosc.words import WordExpr

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
    kv = eval_word(WordExpr.k(simple_root(0, EPS)), FockVector.basis(m), mod)
    assert kv.terms[m] == EPS.qi(1) ** (m[0] - 1) * EPS.qi(2) ** m[1]
    kv = eval_word(WordExpr.k(simple_root(5, EPS)), FockVector.basis(m), mod)
    assert kv.terms[m] == EPS.qi(5) ** (1 - m[4]) * EPS.qi(4) ** (-m[3])
    kv = eval_word(WordExpr.k(EPS.Lam()), FockVector.basis(m), mod)
    assert kv.terms[m] == Wsc ** sum(m)

    w2 = W2Module(EPSP, Scalar.from_int(1), cutoff=6)
    lab = ((1, 0, 2, 0, 0), (0, 1, 0, 0, 1))
    kv = eval_word(WordExpr.k(simple_root(0, EPSP)), FockVector.basis(lab), w2)
    want = EPSP.qi(1) ** 1 * EPSP.qi(2) ** 1 * Q**2
    assert kv.terms[lab] == want
    assert w2.weight_of(lab) == Weight(2, (1, 1, 2, 0, 1))


def test_kets_outside_cone_are_dropped():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=6)
    # e_1 on m_1 = 1 would give m_1 = 0, fine; f_1 pushes into m_1 = 2: dropped
    v = FockVector.basis((1, 1, 0, 0, 0))
    img = act(mod, ("f", 1), v)
    assert img.is_zero()


def test_an_image_above_the_window_raises_window_error():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=2)
    v = FockVector.basis((0, 1, 0, 1, 0))
    with pytest.raises(WindowError):
        act(mod, ("f", 5), v)  # degree 4 > cutoff


def test_generator_domain_error():
    mod = WModule(EPS, Scalar.from_int(1), cutoff=4)
    with pytest.raises(ValueError):
        act(mod, ("e", 9), FockVector.basis((0,) * 5))


def test_guard_violation_raises_window_error():
    from qosc.algebraops import check_relation_on

    mod = WModule(EPS, Scalar.from_int(1), cutoff=4)
    expr = WordExpr.e(0) * WordExpr.f(5)  # raises degree by 4
    ket = (0, 1, 0, 1, 0)
    with pytest.raises(WindowError):
        eval_word(expr, FockVector.basis(ket), mod)
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
            kv = eval_word(WordExpr.k(mu), FockVector.basis(label), mod)
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
                    img = act_or_none(sub, (kind, i), v)
                    if img is not None and not img.is_zero():
                        queue.append(img)
        for label in sub.enumerate_labels(2):
            assert span.contains(FockVector.basis(label)), (parity, label)


def _w(x, cutoff):
    return WModule(EPS, parse_scalar(x), cutoff)


def _w2(x, cutoff):
    return W2Module(EPSP, parse_scalar(x), cutoff)


def _tr_w(x, cutoff):
    return TruncatedModule(_w(x, cutoff), phi_words("c", "underline", EPS))


def _tr_w2(x, cutoff):
    return TruncatedModule(_w2(x, cutoff), phi_words("d", "underline", EPSP))


PROTOCOL_MODULES = {
    "W": _w,
    "W2": _w2,
    "Truncated(W)": _tr_w,
    "Truncated(W2)": _tr_w2,
    "Restricted(W)": lambda x, cutoff: RestrictedModule(_w(x, cutoff), 1),
    "Restricted(W2)": lambda x, cutoff: RestrictedModule(_w2(x, cutoff), 0),
    "Restricted(Truncated(W))": lambda x, cutoff: RestrictedModule(_tr_w(x, cutoff), 0),
}


# a lone module, a tensor of two, and that tensor seen through an ImageMemo
@pytest.mark.parametrize("wrap", ["single", "tensor", "memo"])
@pytest.mark.parametrize("name", sorted(PROTOCOL_MODULES))
def test_module_protocol(name, wrap):
    make = PROTOCOL_MODULES[name]

    def build(cutoff):
        if wrap == "single":
            return make("q^2", cutoff)
        tensor = TensorModule([make("q^2", cutoff), make("q^-4", cutoff)])
        return ImageMemo(tensor) if wrap == "memo" else tensor

    # no image of a ket up to degree k leaves mod's window; low's cutoff
    # lies below some of them
    mod, low = build(6), build(4)
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
                image = mod.apply_gen((kind, j), label)
                for l2, _ in image:
                    assert mod.degree(l2) == mod.degree(label) + shift
                # an image leaves the window whole: low drops exactly the
                # nonzero images above its cutoff and keeps the rest as is
                above = bool(image) and mod.degree(label) + shift > low.cutoff
                assert low.apply_gen((kind, j), label) == (DROPPED if above else image)
        if wrap == "single":
            parts = [(mod, label)]
        else:
            parts = zip((mod.base if wrap == "memo" else mod).factors, label)
        for factor, part in parts:
            if isinstance(factor, RestrictedModule):
                assert factor.parity(part) == factor.parity_value


def test_image_memo_gives_the_bare_tensor_images():
    # every ket of a small pair window, those at the cutoff included, and
    # every generator: the same image or DROPPED, first and second time
    bare = TensorModule([RestrictedModule(_w("q^2", 5), 0), RestrictedModule(_w("q^-4", 5), 1)])
    memo = ImageMemo(bare)
    labels = list(bare.enumerate_labels())
    assert max(bare.degree(l) for l in labels) == bare.cutoff
    gens = [(kind, j) for kind in ("e", "f") for j in bare.algebra.gen_indices]
    seen = {"dropped": 0, "nonzero": 0}
    for _ in range(2):
        for label in labels:
            for gen in gens:
                want, got = bare.apply_gen(gen, label), memo.apply_gen(gen, label)
                if want is DROPPED:
                    assert got is DROPPED
                    seen["dropped"] += 1
                else:
                    assert list(got) == list(want)
                    seen["nonzero"] += bool(want)
    assert seen["dropped"] and seen["nonzero"]
    assert len(memo._images) == len(labels) * len(gens)


def test_each_module_keeps_its_images_in_one_place():
    # a restriction shares its base's images; a pull-back and a memo see
    # images other than their base's and own theirs; a tensor keeps none
    w = _w("q^2", 4)
    assert RestrictedModule(w, 1)._images is w._images
    tr = _tr_w("q^2", 4)
    assert isinstance(tr._images, dict) and tr._images is not tr.base._images
    tensor = TensorModule([w, _w("q^-4", 4)])
    assert tensor._images is None and "_images" not in vars(tensor)
    memo = ImageMemo(tensor)
    assert memo._images == {} and memo._images is not ImageMemo(tensor)._images
    label = ((0, 0, 0, 0, 0), (0, 2, 0, 2, 0))  # at the cutoff; e_0 raises it by 2
    assert memo.apply_gen(("e", 0), label) is DROPPED
    assert memo._images == {(("e", 0), label): DROPPED} and tensor._images is None


# -- the weight rule of the window -------------------------------------------


def weight_rule_failures(mod):
    """Where a module breaks the premise of image_leaves_window: a ket whose
    degree is not its weight's degree, an image the rule puts above the
    window that act returns nonzero, or one it puts inside that act
    refuses.  Also counts the images of each kind, so that a pass is
    earned."""
    failures, seen = [], Counter()
    for label in mod.enumerate_labels():
        wt = mod.weight_of(label)
        if mod.degree(label) != wt.degree():
            failures.append(("degree", label))
        for gen in [(kind, j) for j in mod.algebra.gen_indices for kind in "ef"]:
            above = image_leaves_window(mod, gen, wt)
            try:
                img = act(mod, gen, FockVector.basis(label))
            except WindowError:
                seen["raised"] += 1
                if not above:
                    failures.append(("raised inside", gen, label))
                continue
            seen["above" if above else "returned"] += 1
            if above and not img.is_zero():
                failures.append(("returned above", gen, label))
    return failures, seen


WEIGHT_RULE_MODULES = {
    **PROTOCOL_MODULES,
    "Tensor(W,W)": lambda x, cutoff: TensorModule([_w(x, cutoff), _w("q^-4", cutoff)]),
    "Tensor(Truncated(W2),W2)": lambda x, cutoff: TensorModule(
        [_tr_w2(x, cutoff), PullbackModule(_w2("q^-4", cutoff), phi_words("d", "underline", EPSP))]),
    "Pullback(W)": lambda x, cutoff: PullbackModule(_w(x, cutoff), phi_words("c", "overline", EPS)),
    "Pullback(W2)": lambda x, cutoff: PullbackModule(_w2(x, cutoff), phi_words("d", "overline", EPSP)),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_RULE_MODULES))
def test_the_weight_rule_decides_the_window(name):
    # the whole window, so the rule meets images on both sides of the cutoff
    failures, seen = weight_rule_failures(WEIGHT_RULE_MODULES[name]("q^2", 3))
    assert not failures, failures[:5]
    assert seen["raised"] and seen["returned"], seen


class _ShiftedWeights(ModuleView):
    """A view whose weights carry one d_1 more than its kets' degrees."""

    def weight_of(self, label):
        return self.base.weight_of(label) + self.eps.delta(1)


def test_the_weight_rule_check_sees_a_shifted_weight():
    failures, _ = weight_rule_failures(_ShiftedWeights(_w2("q^2", 3)))
    # every ket is off by one degree, and the rule puts each image that
    # lands at the cutoff above it
    assert {f[0] for f in failures} == {"degree", "returned above"}
