"""The trie evaluation and the phi pull-back against their reference loops.

``ref_eval_word`` is the per-term loop that evaluated words before the
suffix trie: every term applied atom by atom through fresh FockVectors,
raising WindowError at the first ket whose image apply_gen DROPPED.
``ref_substituted`` is the expansion that relation checks used before
the pull-back: every target atom replaced by its phi word.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qosc.algebraops import check_relation_on, phi_words, target_relation_suite
from qosc.fockmod import (
    DROPPED,
    FockVector,
    PullbackModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WindowError,
    WModule,
    act,
    eval_word,
)
from qosc.lattice import EpsilonData, qpair
from qosc.scalars import ONE, Q, Scalar, parse_scalar, qint
from qosc.words import WordExpr, expr_max_rise, suffix_trie

EPS = EpsilonData((1, 0, 1, 0, 1))
EPSP = EpsilonData((0, 1, 0, 1, 0))


# -- reference loops ---------------------------------------------------------


def ref_act(module, atom, vec):
    out = FockVector()
    for label, c in vec.terms.items():
        if atom[0] == "k":
            out.terms[label] = c * qpair(module.weight_of(label), atom[1], module.eps)
            continue
        image = module.apply_gen(atom, label)
        if image is DROPPED:
            raise WindowError("the image of %r left the window" % (label,))
        for l2, c2 in image:
            s = out.terms.get(l2)
            s = c * c2 if s is None else s + c * c2
            if s.is_zero():
                out.terms.pop(l2, None)
            else:
                out.terms[l2] = s
    return out


def act_or_none(module, gen, vec):
    """act, or None when the image of a ket of vec left the window."""
    try:
        return act(module, gen, vec)
    except WindowError:
        return None


def ref_eval_word(expr, vec, module):
    total = FockVector()
    for atoms, c in expr.terms.items():
        w = vec
        for atom in reversed(atoms):
            w = ref_act(module, atom, w)
            if w.is_zero():
                break
        total = total + w.scale(c)
    return total


def ref_substituted(expr, emap, fmap):
    out = WordExpr()
    for atoms, c in expr.terms.items():
        part = WordExpr.unit(c)
        for kind, i in atoms:
            image = WordExpr.k(i) if kind == "k" else (emap if kind == "e" else fmap)[i]
            part = part * image
        out = out + part
    return out


# -- trie evaluation equals the per-term loop --------------------------------


def _modules():
    tgt = phi_words("c", "underline", EPS)
    return {
        "W": WModule(EPS, parse_scalar("q^2"), cutoff=4),
        "W2": W2Module(EPSP, parse_scalar("q^2"), cutoff=4),
        "Tensor(W,W)": TensorModule(
            [WModule(EPS, parse_scalar("q^2"), cutoff=3),
             WModule(EPS, parse_scalar("q^-4"), cutoff=3)]
        ),
        "Truncated(W)": TruncatedModule(WModule(EPS, Scalar.from_int(1), cutoff=4), tgt),
    }


MODULES = _modules()
COEFFS = [ONE, -ONE, Q, qint(2), qint(3).inverse()]


@st.composite
def word_and_vector(draw, name):
    mod = MODULES[name]
    gens = list(mod.algebra.gen_indices)
    roots = [mod.algebra.root(gens[0]), mod.algebra.root(gens[-1])]
    # a small pool of atoms makes shared suffixes common
    pool = draw(st.lists(
        st.sampled_from([(k, i) for i in gens for k in "ef"] + [("k", r) for r in roots]),
        min_size=1, max_size=4, unique=True))
    words = draw(st.lists(st.lists(st.sampled_from(pool), max_size=4).map(tuple),
                          min_size=1, max_size=6))
    if draw(st.booleans()):
        words.append(())
    expr = WordExpr({w: draw(st.sampled_from(COEFFS)) for w in words})
    labels = list(mod.enumerate_labels())
    kets = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    vec = FockVector({l: draw(st.sampled_from(COEFFS)) for l in kets})
    return mod, expr, vec


@pytest.mark.parametrize("name", sorted(MODULES))
def test_trie_eval_matches_per_term_loop(name):
    def outcome(evaluate, mod, expr, vec):
        try:
            return list(evaluate(expr, vec, mod).terms.items())
        except WindowError:
            return "dropped"

    @settings(max_examples=60, deadline=None)
    @given(word_and_vector(name))
    def check(case):
        # the same terms in the same insertion order, or both raise
        assert outcome(eval_word, *case) == outcome(ref_eval_word, *case)

    check()


def test_trie_shares_suffixes():
    e, f = WordExpr.e, WordExpr.f
    expr = e(0) * f(1) * e(2) + f(0) * f(1) * e(2) + e(2) + WordExpr.unit()
    children, ends, owners = expr.suffix_trie()
    assert ends == [[0, 3, ONE, False]] and list(children) == [("e", 2)]
    (node,) = children.values()
    assert node[1] == [[0, 2, ONE, False]] and list(node[0]) == [("f", 1)]
    assert expr.suffix_trie() is expr.suffix_trie()


def test_merged_trie_shares_suffixes_across_words():
    e, f = WordExpr.e, WordExpr.f
    a = e(0) * f(1) * e(2) + e(2)
    b = f(0) * f(1) * e(2).scale(Q) + f(0)
    children, ends, owners = suffix_trie([a, b, WordExpr()])
    # the root owns every word, the zero word too
    assert ends == [] and owners == [0, 1, 2] and list(children) == [("e", 2), ("f", 0)]
    node = children[("e", 2)]
    # a walk meets a's e_2 end first, its e_0.f_1.e_2 end last
    assert node[1] == [[0, 1, ONE, False]] and node[2] == [0, 1]
    (node,) = node[0].values()
    assert list(node[0]) == [("e", 0), ("f", 0)] and node[2] == [0, 1]
    assert node[0][("e", 0)][1:] == [[[0, 0, ONE, True]], [0]]
    assert node[0][("f", 0)][1:] == [[[1, 0, Q, False]], [1]]
    # b's f_0 end is met after its f_0.f_1.e_2 end
    assert children[("f", 0)][1:] == [[[1, 1, ONE, True]], [1]]


# -- the pull-back equals the substituted words -------------------------------


PHI_CASES = [
    (kind, side, eta)
    for kind in ("c", "d")
    for side in ("underline", "overline")
    for eta in (1, -1)
]


@pytest.mark.parametrize("kind, side, eta", PHI_CASES)
def test_pullback_matches_substituted_words(kind, side, eta):
    if kind == "c":
        host, ambient = EPS, WModule(EPS, Scalar.from_int(1), cutoff=4)
    else:
        host, ambient = EPSP, W2Module(EPSP, Scalar.from_int(1), cutoff=3)
    tgt = phi_words(kind, side, host, eta=eta)
    pulled = PullbackModule(ambient, tgt)
    labels = list(ambient.enumerate_labels())
    for name, expr in target_relation_suite(tgt):
        ambient_expr = ref_substituted(expr, tgt.phi_e, tgt.phi_f)
        rise = expr_max_rise(ambient_expr, ambient.atom_shift)
        assert expr_max_rise(expr, pulled.atom_shift) == rise, name
        # each target monomial alone, and the relation itself
        parts = [WordExpr({a: c}) for a, c in expr.terms.items()] + [expr]
        for label in labels:
            if ambient.degree(label) > ambient.cutoff - rise:
                continue
            b = FockVector.basis(label)
            for part in parts:
                got = eval_word(part, b, pulled)
                want = ref_eval_word(ref_substituted(part, tgt.phi_e, tgt.phi_f), b, ambient)
                assert got == want, (name, label)


def test_pullback_guard_violation_raises_window_error():
    tgt = phi_words("c", "underline", EPS)
    pulled = PullbackModule(WModule(EPS, Scalar.from_int(1), cutoff=4), tgt)
    expr = dict(target_relation_suite(tgt))["t-ef:0,0"]  # phi(e_0) raises degree by 2
    ket = (0, 2, 0, 2, 0)  # degree 4: above the guard band 4 - 2
    with pytest.raises(WindowError):
        eval_word(expr, FockVector.basis(ket), pulled)
    # the guard band keeps the ket out of a relation check; a module that
    # understates the rise lets it in, and the check refuses the result
    assert check_relation_on(pulled, "t-ef:0,0", expr, [ket]).checked == 0
    pulled.atom_shift = lambda atom: 0
    with pytest.raises(WindowError):
        check_relation_on(pulled, "t-ef:0,0", expr, [ket])


def test_truncated_image_that_leaves_the_window_raises_window_error():
    tgt = phi_words("c", "underline", EPS)
    trunc = TruncatedModule(WModule(EPS, Scalar.from_int(1), cutoff=4), tgt)
    with pytest.raises(WindowError):
        act(trunc, ("e", 0), FockVector.basis((0, 2, 0, 2, 0)))
