"""The trie evaluation and the phi pull-back against their reference loops.

``ref_eval_word`` is the per-term loop that evaluated words before the
suffix trie: every term applied atom by atom through fresh FockVectors,
raising WindowError at the first ket whose image apply_gen DROPPED.
``ref_substituted`` is the expansion that relation checks used before
the pull-back: every target atom replaced by its phi word.
``ref_truncate`` is the rule that truncated vectors before truncation
read weights: a term is kept when every Fock factor of its nested ket
label vanishes off the kept indices.
"""

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from qosc import fockmod
from qosc.algebraops import check_relation_on, phi_words, relation_suite, target_relation_suite
from qosc.fockmod import (
    DROPPED,
    FockVector,
    PullbackModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WindowError,
    WModule,
    _Packing,
    act,
    eval_word,
    eval_words_on_kets,
    relation_walks,
)
from qosc.lattice import EpsilonData, Weight, qpair
from qosc.scalars import ONE, Q, Z1, Scalar, SpectralScalar, parse_scalar, qint
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


def ref_truncate(vec, kept):
    """The terms of vec whose kets vanish on all removed positions, read
    factor by factor through nested labels."""
    ks = set(kept)

    def keeps(label):
        if isinstance(label[0], tuple):
            return all(keeps(p) for p in label)
        return all(c == 0 for i, c in enumerate(label, start=1) if i not in ks)

    return FockVector.of({l: c for l, c in vec.terms.items() if keeps(l)})


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


# -- packed relation walks equal Scalar rows ----------------------------------
#
# relation_walks runs a relation check's words on packed integers when the
# suite packs.  Its packed rows must be nonzero where the Scalar walk's
# (eval_words_on_kets) and the per-term loop's (ref_eval_word) are, with the
# same sources dropped, and a row read from them must be the Scalar walk's:
# the same entries, of the same type.  Scalar rows and packed rows step
# through one fockmod._step, whose source is the module on Scalar rows and
# a _Packing on packed ones, so a walk that runs with that step refused on
# a module ran packed; reading a nonzero row walks its one source ket on
# Scalar rows.


INV_QQ = (Q - Q.inverse()).inverse()  # 1/(q - q^-1), as in the Cartan relations
INV_2 = qint(2).inverse()  # 1/[2], as in the hat phi maps
PACKED_COEFFS = COEFFS + [INV_QQ, INV_2]


def digits(v, K, D):
    """{z-power: {w-exponent: coefficient}} of the nonzero coefficients of
    the P with v = P(2^K, 2^(K D)) whose coefficients lie in [-2^(K-1),
    2^(K-1)) and whose w-degrees lie below D (all of them when D is 0):
    the digits of v in base 2^K, taken in that range."""
    half, mask = 1 << (K - 1), (1 << K) - 1
    slots = {}
    p = 0
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        v = (v - d) >> K
        if d:
            j, e = divmod(p, D) if D else (0, p)
            slots.setdefault(j, {})[e] = d
        p += 1
    return slots


def l1(v, K, D):
    """The l1 norm of the polynomial that a packed entry stands for."""
    return sum(abs(c) for slot in digits(v, K, D).values() for c in slot.values())


@contextmanager
def packed_walks_only(reads=None):
    """Refuse a step on Scalar rows, a step of fockmod._step whose source is
    a module: a relation walk takes one only when it fell back to them.
    Every entry that a packed step or a packed word sum leaves must lie
    within the bound that its walk proved.  With a list reads, a _Decoded
    row is read from the Scalar walk of its source ket, which goes to
    reads."""
    step, total, walk = fockmod._step, fockmod._sum_parts, fockmod._eval_trie
    read = fockmod._Decoded.__getitem__
    sources = []  # the row sources of the walks under way, innermost last
    reading = []  # the _Decoded reads under way

    def within(source, rows):
        if isinstance(source, _Packing):
            for row in rows.values():
                for v in row.values():
                    assert l1(v, source.K, source.D) <= source.bound

    def checked_step(source, atom, rows):
        if isinstance(source, fockmod.FockModule) and not reading:
            raise AssertionError("a relation walk fell back to Scalar rows")
        out, dropped = step(source, atom, rows)
        within(source, out)
        return out, dropped

    def checked_total(parts, r, outs):
        total(parts, r, outs)
        within(sources[-1], outs[r])

    def checked_walk(trie, rows, source):
        sources.append(source)
        try:
            return walk(trie, rows, source)
        finally:
            sources.pop()

    def read_on_scalar_rows(rows, src):
        reads.append(src)
        reading.append(src)
        try:
            return read(rows, src)
        finally:
            reading.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fockmod, "_step", checked_step)
        mp.setattr(fockmod, "_sum_parts", checked_total)
        mp.setattr(fockmod, "_eval_trie", checked_walk)
        if reads is not None:
            mp.setattr(fockmod._Decoded, "__getitem__", read_on_scalar_rows)
        yield


def spectral_x(a, j):
    """x = q^a z^j, a Scalar when j = 0."""
    return Q ** a if j == 0 else Q ** a * Z1 ** j


def packed_module(name, x):
    return {
        "W": lambda: WModule(EPS, x, cutoff=4),
        "W2": lambda: W2Module(EPSP, x, cutoff=3),
        "Pullback(W)": lambda: PullbackModule(
            WModule(EPS, x, cutoff=4), phi_words("c", "overline", EPS)),
        # the overline truncation of W lies below the cutoff: nothing drops
        "Truncated(W)": lambda: TruncatedModule(
            WModule(EPS, x, cutoff=4), phi_words("c", "underline", EPS)),
        "Pullback(W2)": lambda: PullbackModule(
            W2Module(EPSP, x, cutoff=3), phi_words("d", "overline", EPSP)),
        "Truncated(W2)": lambda: TruncatedModule(
            W2Module(EPSP, x, cutoff=3), phi_words("d", "underline", EPSP)),
    }[name]()


PACKED_MODULES = ["W", "W2", "Pullback(W)", "Truncated(W)", "Pullback(W2)", "Truncated(W2)"]


def dropping_kets(module, gen, count):
    """The first kets of the window whose image under gen left it."""
    return [l for l in module.enumerate_labels() if module.apply_gen(gen, l) is DROPPED][:count]


@st.composite
def module_words_and_kets(draw, name):
    """A module with x = q^a z^j, words in its atoms with k atoms and the
    coefficients 1/(q - q^-1) and 1/[2], and kets whose image under the
    last word left the window."""
    x = spectral_x(draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
    mod = packed_module(name, x)
    gens = list(mod.algebra.gen_indices)
    roots = [mod.algebra.root(gens[0]), mod.algebra.root(gens[-1])]
    ks = [("k", r) for r in roots] + [("k", -roots[0])]
    pool = draw(st.lists(st.sampled_from([(k, i) for i in gens for k in "ef"] + ks),
                         min_size=1, max_size=4, unique=True))
    exprs = []
    for _ in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.lists(st.sampled_from(pool), max_size=4).map(tuple),
                              min_size=1, max_size=5))
        exprs.append(WordExpr({w: draw(st.sampled_from(PACKED_COEFFS)) for w in words}))
    e0 = ("e", gens[0])
    exprs.append(WordExpr({(e0, draw(st.sampled_from(ks))): INV_QQ,
                           (draw(st.sampled_from(pool)),): INV_2}))
    labels = list(mod.enumerate_labels())
    kets = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
    drops = dropping_kets(mod, e0, 2)
    return mod, exprs, kets + [l for l in drops if l not in kets], drops


def typed_rows(walked):
    """Per word: ({source: [(label, type, coefficient)]}, dropped sources)."""
    return [
        ({src: [(l, type(c), c) for l, c in rows[src].items()] for src in rows}, set(dropped))
        for rows, dropped in walked
    ]


def supports(walked):
    """Per word: ({source: set of labels with an entry}, dropped sources)."""
    return [({src: set(row) for src, row in rows.items()}, set(dropped)) for rows, dropped in walked]


def packed_supports(walked):
    """supports of a packed walk, read from its packed rows unread."""
    return supports((rows.rows, dropped) for rows, dropped in walked)


def packed_rows_match(module, exprs, kets):
    """The typed rows of relation_walks, after checking that it walked
    packed rows within their bounds, nonzero where the Scalar walk's are."""
    want = eval_words_on_kets(suffix_trie(exprs), kets, module)
    with packed_walks_only():
        walked = relation_walks(module, [exprs])[0](kets)
        assert packed_supports(walked) == supports(want)
    got = typed_rows(walked)
    assert got == typed_rows(want)
    return got


@pytest.mark.parametrize("name", PACKED_MODULES)
def test_packed_walks_match_scalar_rows(name):
    @settings(max_examples=30, deadline=None)
    @given(module_words_and_kets(name))
    def check(case):
        mod, exprs, kets, drops = case
        got = packed_rows_match(mod, exprs, kets)
        # the e_0 word drops the kets whose e_0 image left the window
        assert set(drops) <= got[-1][1] and drops
        for expr, (rows, dropped) in zip(exprs, got):
            for label in kets:
                if label in dropped:
                    with pytest.raises(WindowError):
                        ref_eval_word(expr, FockVector.basis(label), mod)
                else:
                    ref = ref_eval_word(expr, FockVector.basis(label), mod)
                    assert [(l, type(c), c) for l, c in ref.terms.items()] == rows.get(label, [])

    check()


def test_mixed_words_keep_the_types_of_the_scalar_walk():
    # a sum is spectral when a spectral term since its last zero was: e0 f0
    # is spectral at x = q^2 z, k_0 (which acts as 1) and the unit word are
    # not, and e0 f0 k_0 cancels e0 f0 to zero before the unit word adds
    mod = WModule(EPS, Q ** 2 * Z1, cutoff=4)
    e0f0, k0 = (("e", 0), ("f", 0)), ("k", Weight(0, (0,) * 5))
    exprs = [
        WordExpr({e0f0: ONE, (k0,): INV_QQ}),
        WordExpr({(k0,): INV_2, e0f0: Q}),
        WordExpr({e0f0: ONE, e0f0 + (k0,): -ONE, (): INV_2}),
    ]
    got = packed_rows_match(mod, exprs, list(mod.enumerate_labels(2)))
    types = [{t for row in rows.values() for _, t, _ in row} for rows, _ in got]
    assert types == [{Scalar, SpectralScalar}, {Scalar, SpectralScalar}, {Scalar}]


def test_atoms_that_mix_scalar_and_spectral_images_pack():
    # on W(q^2 z) (x) W(q) the images of e_0 and f_0 mix Scalars (from the
    # second factor) and SpectralScalars; z lies in an outer slot, so a
    # Scalar and a SpectralScalar free of z pack to the same int.  Their
    # images start at z^0 and z^-1, so the terms e0 f0 and f0 e0 of ef:0,0
    # sit one power of z above its k terms, and the walk packs z
    mod = TensorModule([WModule(EPS, Q ** 2 * Z1, cutoff=2), WModule(EPS, Q, cutoff=2)])
    e0, f0 = ("e", 0), ("f", 0)
    assert {type(c) for l in mod.enumerate_labels() for g in (e0, f0)
            if (img := mod.apply_gen(g, l)) is not DROPPED for _, c in img} == {
        Scalar, SpectralScalar}
    suite = relation_suite(EPS)
    exprs = [expr for _, expr in suite][:12] + [dict(suite)["ef:0,0"]] + [
        WordExpr({(e0, f0): ONE, (f0, e0): -INV_QQ}),
        WordExpr({(e0,): INV_2, (f0,): Q}),
    ]
    got = packed_rows_match(mod, exprs, list(mod.enumerate_labels()))
    assert {t for rows, _ in got for row in rows.values() for _, t, _ in row} == {
        Scalar, SpectralScalar}


def test_a_z_denominator_takes_the_scalar_walk():
    mod = WModule(EPS, parse_scalar("1/(1-z)"), cutoff=4)
    exprs = [expr for _, expr in relation_suite(EPS)][:12]
    kets = list(mod.enumerate_labels())[:20]
    with packed_walks_only(), pytest.raises(AssertionError, match="fell back"):
        relation_walks(mod, [exprs])[0](kets)
    (walk,) = relation_walks(mod, [exprs])
    assert typed_rows(walk(kets)) == typed_rows(eval_words_on_kets(suffix_trie(exprs), kets, mod))


def outside_words(kind):
    """Relation words whose atoms are both k and e/f, only e/f, or only k:
    a ket outside the window meets each kind of step first in one of them."""
    suite = [expr for _, expr in relation_suite(EPS)]
    if kind == "k and e/f":
        return suite[:12]
    if kind == "e/f":
        return [e for e in suite if all(a[0] != "k" for t in e.terms for a in t)][:6]
    ks = sorted({a for e in suite[:12] for t in e.terms for a in t if a[0] == "k"}, key=repr)
    return [WordExpr({(k,): ONE, (): -Q}) for k in ks]


@pytest.mark.parametrize("kind", ["k and e/f", "e/f", "k"])
def test_a_ket_outside_the_packed_window_takes_the_scalar_walk(kind):
    # a walk that meets a ket outside the kets packed walks that block, and
    # every later one, on Scalar rows
    mod = WModule(EPS, Q ** 2, cutoff=4)
    exprs = outside_words(kind)
    assert exprs
    inside, outside = list(mod.enumerate_labels())[:8], [(0, 5, 0, 0, 0)]
    assert outside[0] not in mod.enumerate_labels()
    (walk,) = relation_walks(mod, [exprs])
    with packed_walks_only():
        walk(inside)
        with pytest.raises(AssertionError, match="fell back"):
            walk(inside + outside)
        with pytest.raises(AssertionError, match="fell back"):
            walk(inside)
    for kets in (inside + outside, inside):
        want = eval_words_on_kets(suffix_trie(exprs), kets, mod)
        assert typed_rows(walk(kets)) == typed_rows(want)


# -- negative controls of the slot width --------------------------------------


def _suite_packing(module, exprs):
    bands = [exprs]
    return _Packing(module, bands, [suffix_trie(band) for band in bands])


def test_a_slot_one_bit_below_the_proven_width_is_refused():
    # each relation is homogeneous in z, so its packed rows hold no z;
    # e_0 + f_0, of z-degrees 1 and -1, puts z in outer slots
    exprs = [expr for _, expr in relation_suite(EPSP)]
    packing = _suite_packing(W2Module(EPSP, Q ** 2 * Z1, cutoff=3), exprs)
    assert packing.proven_width()[1] == 0
    packing = _suite_packing(W2Module(EPSP, Q ** 2 * Z1, cutoff=3),
                             exprs + [WordExpr.e(0) + WordExpr.f(0)])
    K, D = packing.proven_width()
    # K is the narrowest width whose half-slot exceeds every bound
    assert 1 << (K - 2) <= packing.bound < 1 << (K - 1)
    assert D == packing.deg + 1 > 1
    with pytest.raises(ValueError, match="bit slots"):
        packing.pack(K - 1, D)
    with pytest.raises(ValueError, match="w-slots per z"):
        packing.pack(K, D - 1)
    # a bound of exactly 2^(K-1) takes one bit more
    bound, packing.bound = packing.bound, 1 << (K - 1)
    assert packing.proven_width()[0] == K + 1
    with pytest.raises(ValueError, match="bit slots"):
        packing.pack(K, D)
    packing.bound = bound
    assert packing.pack(K, D).K == K


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("D", [0, 2])
def test_a_coefficient_of_half_a_slot_is_never_read_as_zero(K, D):
    # every P with three slots and coefficients in [-2^(K-1), 2^(K-1)]:
    # P(2^K, 2^(K D)) is zero iff P is, and it decodes to P whenever its
    # coefficients lie in the proven range [-2^(K-1), 2^(K-1))
    half = 1 << (K - 1)
    for cs in itertools.product(range(-half, half + 1), repeat=3):
        v = sum(c << (K * p) for p, c in enumerate(cs))
        assert (v == 0) == (not any(cs))
        got = digits(v, K, D)
        assert bool(got) == any(cs)
        if all(c < half for c in cs):
            want = {}
            for p, c in enumerate(cs):
                if c:
                    j, e = divmod(p, D) if D else (0, p)
                    want.setdefault(j, {})[e] = c
            assert got == want
