"""The one breadth-first span build against the loops it replaced, and its
shadow.

``ref_pair_blocks`` is the orbit BFS that ``rmatrix.PairDecomposition`` ran
on its own, ``ref_lowering_closure`` the unmatched BFS that
``fundrep.lowering_closure`` ran through ``Subspace.add``, and
``ref_iso_between_k`` the second BFS, pair table and partner lookup of
``fundrep.iso_between_k``, and ``ref_truncate_image_span`` the per-vector
truncate-and-add that ``fundrep.truncate_image_span`` ran.  ``Subspace.build`` must build the same blocks,
in the same order, with structurally equal entries (``(key, v_src, v_tgt)``
when matched, bare vectors when not), and the isomorphism check must give
the same result.  On an exhaustive pair the build decides independence through
a GF(p) shadow, a count of window kets and a drain of exact reductions;
each decision must stay exact, and a candidate whose block is full gets
no image.
"""

import gc
from collections import Counter, deque

import pytest
from test_eval_reference import act_or_none, ref_truncate

from qosc import acceptance, fundrep, rmatrix
from qosc.algebraops import LEVELS, host_eps, level_module
from qosc.decomp import finite_indices
from qosc.fockmod import FockVector, ImageMemo, TensorModule, W2Module, act, weight_block
from qosc.fundrep import (
    MatchedSpan,
    Subspace,
    block_order,
    compare_spans,
    fundamental_span,
    iso_between_k,
    lowering_closure,
    truncate_image_span,
    v_lk_label,
)
from qosc.lattice import EpsilonData
from qosc.linalg import SHADOW_POINT, RowBasis, Shadow, nullspace
from qosc.rmatrix import (
    PairDecomposition,
    _ConeTest,
    c_target_module,
    fuse,
    make_c_pair,
    make_d_pair,
    solve_R,
)
from qosc.scalars import ONE, Z1, Scalar, SpectralScalar, parse_scalar

EPSP = EpsilonData((0, 1, 0, 1, 0))

# -- reference loops ---------------------------------------------------------


def ref_pair_blocks(pair, needed_weights=None):
    blocks = {}
    src = pair.source
    lowering = [j for j in src.algebra.gen_indices if j != 0]
    roots = [src.algebra.root(j) for j in lowering]
    cone = _ConeTest(roots) if needed_weights is not None else None
    needed = list(needed_weights) if needed_weights is not None else None

    def reachable(wt):
        if needed is None:
            return True
        for nu in needed:
            if nu.lam != wt.lam:
                continue
            diff = tuple(a - b for a, b in zip(wt.delta, nu.delta))
            if cone.member(diff):
                return True
        return False

    queue = deque()
    for comp in pair.components:
        if reachable(comp.weight):
            queue.append((comp.key, comp.v_src, comp.v_tgt))
    while queue:
        ckey, vs, vt = queue.popleft()
        wt = src.weight_of(next(iter(vs.terms)))
        basis, entries = blocks.setdefault(wt, (RowBasis(), []))
        r, mult = basis.reduce(vs.terms)
        if not r:
            continue
        basis.insert(r, mult)
        entries.append((ckey, vs, vt))
        for j in lowering:
            img = act_or_none(src, ("f", j), vs)
            if img is None or img.is_zero():
                continue
            nwt = src.weight_of(next(iter(img.terms)))
            if nwt.degree() > src.cutoff or not reachable(nwt):
                continue
            imgt = act_or_none(pair.target, ("f", j), vt)
            if imgt is None:
                continue
            queue.append((ckey, img, imgt))
    return blocks


def ref_lowering_closure(module, v, indices):
    span = Subspace(module)
    span.add(v)
    module = ImageMemo.over(module)
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for j in indices:
            img = act_or_none(module, ("f", j), u)
            if img is None or img.is_zero():
                continue
            if span.add(img):
                queue.append(img)
    return span


def ref_truncate_image_span(image, truncated):
    out = Subspace(truncated)
    for _, vecs in image.blocks.values():
        for v in vecs:
            tv = ref_truncate(v, truncated.algebra.kept)
            if not tv.is_zero():
                out.add(tv)
    return out


def ref_iso_between_k(module, l, k1, k2):
    n = module.n
    v1 = FockVector.basis(v_lk_label(l, k1, n))
    v2 = FockVector.basis(v_lk_label(l, k2, n))
    span1 = Subspace(module)
    span1.add(v1)
    pairs = {0: (v1, v2)}
    queue = [(v1, v2)]
    lower = finite_indices(module.algebra)
    while queue:
        a, b = queue.pop(0)
        for j in lower:
            ia = act_or_none(module, ("f", j), a)
            if ia is None or ia.is_zero():
                continue
            if span1.add(ia):
                ib = act(module, ("f", j), b)
                pairs[len(pairs)] = (ia, ib)
                queue.append((ia, ib))
    span2 = Subspace(module)
    for _, (a, b) in sorted(pairs.items()):
        span2.add(b)
    dims_ok = span1.dims() == span2.dims()

    def mapped(vec):
        # the kernel of [originals | vec] is spanned by (-coords, 1) when vec
        # lies in the span of the (independent) stored originals, else 0
        if vec.is_zero():
            return FockVector()
        wt = module.weight_of(next(iter(vec.terms)))
        originals = span1.blocks[wt][1] if wt in span1.blocks else []
        rows = {}
        for i, u in enumerate(originals + [vec]):
            for ket, x in u.terms.items():
                rows.setdefault(ket, {})[i] = x
        kernel = nullspace(list(rows.values()), list(range(len(originals) + 1)))
        if not kernel:
            return None
        (k,) = kernel
        assert k[len(originals)] == ONE
        out = FockVector()
        for i, c in k.items():
            if i < len(originals):
                out = out + _partner(originals[i]).scale(-c)
        return out

    def _partner(a_vec):
        for a, b in pairs.values():
            if a is a_vec:
                return b
        raise KeyError("unmatched basis vector")

    residuals = []
    for key in sorted(pairs):
        a, b = pairs[key]
        for gen in (("e", 0), ("f", 0)):
            ia = act_or_none(module, gen, a)
            ib = act_or_none(module, gen, b)
            if ia is None or ib is None:
                continue
            im = mapped(ia)
            if im is None or not (im - ib).is_zero():
                residuals.append((gen, key))
    return {"dims_match": dims_ok, "residuals": residuals, "pairs": len(pairs)}


# -- comparisons -------------------------------------------------------------


def _structure(v):
    return list(v.terms.items())


def _eq_weights(pair):
    """The weights solve_R builds by default: e_0 above each component."""
    alpha0 = pair.source.algebra.root(0)
    return [
        c.weight + alpha0
        for c in pair.components
        if c.weight.degree() + 2 <= pair.source.cutoff
    ]


PAIRS = {
    "c-bold-full": (lambda: make_c_pair(2, ("+", "+"), cutoff=5, level="bold"), False),
    "c-bold-needed": (lambda: make_c_pair(2, ("+", "+"), cutoff=6, level="bold"), True),
    "c-bold-full-pm": (lambda: make_c_pair(2, ("+", "-"), cutoff=5, level="bold"), False),
    "c-underline": (lambda: make_c_pair(2, ("+", "-"), cutoff=6, level="underline"), True),
    "d-underline-11": (lambda: make_d_pair(2, 1, 1, cutoff=5, level="underline"), True),
    "d-bold-11": (lambda: make_d_pair(2, 1, 1, cutoff=4, level="bold"), True),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_decomposition_matches_reference(name):
    build, restrict = PAIRS[name]
    pair = build()
    needed = _eq_weights(pair) if restrict else None
    ref = ref_pair_blocks(pair, needed)
    dec = PairDecomposition(pair, needed_weights=needed)
    assert list(dec.blocks) == list(ref)
    for wt, (basis, entries) in ref.items():
        got = dec.blocks[wt][1]
        assert [k for k, _, _ in got] == [k for k, _, _ in entries]
        for (_, vs, vt), (_, rs, rt) in zip(got, entries):
            assert _structure(vs) == _structure(rs)
            assert _structure(vt) == _structure(rt)
    # ordered() walks the same blocks by degree, then delta
    assert [wt for wt, _ in dec.ordered()] == sorted(ref, key=block_order)


def _same_closures(got, want):
    """Equal blocks in the same order, with structurally equal entries."""
    assert want.dim() > 1
    assert list(got.blocks) == list(want.blocks)
    for wt, (_, entries) in want.blocks.items():
        assert [_structure(v) for v in got.blocks[wt][1]] == [_structure(v) for v in entries]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("l", range(4))
def test_fundamental_spans_match_the_reference_closure(level, l):
    mod = level_module("d", level, host_eps("d", 2), l + 5, [(ONE, "W")])
    want = ref_lowering_closure(mod, FockVector.basis(v_lk_label(l, l, mod.n)),
                                finite_indices(mod.algebra))
    _same_closures(fundamental_span(mod, l, l), want)


def test_criterion_8_cyclicity_closures_match_the_reference(monkeypatch):
    closures = []
    bare = rmatrix.lowering_closure

    def recorded(*args):
        closures.append((args, bare(*args)))
        return closures[-1][1]

    monkeypatch.setattr(rmatrix, "lowering_closure", recorded)
    assert acceptance.criterion_8()["pass"]
    assert len(closures) == 2  # of the fused W_1 and W_2
    for args, got in closures:
        _same_closures(got, ref_lowering_closure(*args))


@pytest.mark.parametrize("l,k1,k2", [(2, 2, 0), (1, 1, 0)])
def test_iso_between_k_matches_reference(l, k1, k2):
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=6)
    ref = ref_iso_between_k(mod, l, k1, k2)
    got = iso_between_k(mod, l, k1, k2)
    assert got == {"dims_match": ref["dims_match"], "residuals": ref["residuals"]}
    assert got["dims_match"] and not got["residuals"]
    span = MatchedSpan(mod, mod, [(0, FockVector.basis(v_lk_label(l, k1, mod.n)),
                                   FockVector.basis(v_lk_label(l, k2, mod.n)))],
                       finite_indices(mod.algebra))
    assert span.dim() == ref["pairs"]


@pytest.mark.parametrize("build", [
    lambda: make_c_pair(2, ("+", "-"), cutoff=3, level="underline"),
    lambda: make_d_pair(2, 1, 1, cutoff=3, level="underline"),
    lambda: make_d_pair(2, 1, 1, cutoff=3, level="bold"),
])
def test_pair_target_shares_the_source_factors(build):
    # so that source and target share their apply and phi caches
    pair = build()
    assert all(a is b for a, b in zip(pair.target.factors, pair.source.factors[::-1]))


def test_apply_sends_each_stored_vector_to_its_partner():
    pair = make_d_pair(2, 1, 1, cutoff=4, level="underline")
    dec = PairDecomposition(pair)
    scale = {c.key: parse_scalar("q^%d" % i) for i, c in enumerate(pair.components)}
    for _, entries in dec.ordered():
        for key, vs, vt in entries:
            assert dec.express(vs) == [(key, ONE, vt)]
            assert dec.apply(vs, scale) == vt.scale(scale[key])
    assert dec.express(FockVector()) == []
    # the orbit of the u_{r,s} is not the whole window
    outside = [
        v
        for v in map(FockVector.basis, pair.source.enumerate_labels())
        if dec.express(v) is None
    ]
    assert outside and dec.apply(outside[0], scale) is None


def _count_tensor_images(monkeypatch):
    """Count the bare TensorModule.apply_gen calls per (module, gen, ket)."""
    calls = Counter()
    bare = TensorModule.apply_gen

    def counted(self, gen, label):
        calls[id(self), gen, label] += 1
        return bare(self, gen, label)

    monkeypatch.setattr(TensorModule, "apply_gen", counted)
    return calls


def _live_memos():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, ImageMemo)]


def _snapshot(mod):
    """vars(mod), with each dict-valued attribute copied, so that a dict
    filled in place shows as a change."""
    return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(mod).items()}


def test_orbit_build_computes_each_tensor_image_once(monkeypatch):
    pair = make_c_pair(2, ("+", "-"), cutoff=5, level="bold")
    modules = (pair.source, pair.target)
    before = [_snapshot(mod) for mod in modules]
    calls = _count_tensor_images(monkeypatch)
    dec = PairDecomposition(pair)
    assert dec.dim() and calls
    assert {key[0] for key in calls} == {id(mod) for mod in modules}
    assert max(calls.values()) == 1
    # the images were memoized for the build only: the pair's modules hold
    # no image cache afterwards, and no memo is left alive
    assert [_snapshot(mod) for mod in modules] == before
    assert not [memo for memo in _live_memos() if memo.base in modules]


def test_lowering_closure_computes_each_tensor_image_once(monkeypatch):
    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    calls = _count_tensor_images(monkeypatch)
    top = max(pair.components, key=lambda comp: sum(comp.key))
    span = lowering_closure(pair.target, top.v_tgt, pair.target.algebra.gen_indices)
    assert span.dim() > 1 and calls
    assert max(calls.values()) == 1
    assert not [memo for memo in _live_memos() if memo.base is pair.target]


def test_a_memo_wraps_only_a_module_that_caches_no_images():
    # ambient, pulled back and restricted factors compute each image once
    # already; a tensor product does not
    pair = make_c_pair(2, ("+", "-"), cutoff=3, level="underline")
    bold = make_c_pair(2, ("+", "-"), cutoff=3, level="bold")
    for factor in (*pair.source.factors, *bold.source.factors,
                   W2Module(EPSP, parse_scalar("q^2"), cutoff=3)):
        assert ImageMemo.over(factor) is factor
    memo = ImageMemo.over(pair.source)
    assert isinstance(memo, ImageMemo) and memo.base is pair.source
    assert ImageMemo.over(memo) is memo


def test_lowering_closure_of_a_caching_module_makes_no_memo(monkeypatch):
    made = []
    bare = ImageMemo.__init__

    def counted(self, base):
        made.append(base)
        bare(self, base)

    monkeypatch.setattr(ImageMemo, "__init__", counted)
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=5)
    assert lowering_closure(mod, FockVector.basis(v_lk_label(1, 1, mod.n)),
                            finite_indices(mod.algebra)).dim() > 1
    assert not made


# -- the shadow of exhaustive builds -----------------------------------------

W_MINUS_W0 = Scalar(0, (-SHADOW_POINT, 1), (1,))  # w - w0, zero at w0


def _kets_of_one_weight(count):
    """count basis vectors of one weight block of more than count kets."""
    mod = make_c_pair(2, ("+", "-"), cutoff=4, level="bold").source
    for label in mod.enumerate_labels():
        block = weight_block(mod, mod.weight_of(label))
        if len(block) > count:
            return mod, [FockVector.basis(k) for k in block[:count]]
    raise AssertionError("no block of more than %d kets" % count)


def _seeded(mod, vectors):
    return MatchedSpan(mod, mod, [(i, v, v) for i, v in enumerate(vectors)], [],
                       bound=lambda wt: len(weight_block(mod, wt)))


def test_a_candidate_dependent_only_at_w0_is_accepted_in_the_drain():
    mod, (e1, e2) = _kets_of_one_weight(2)
    a = e1 + e2
    b = e1 + e2.scale(W_MINUS_W0 + ONE)  # independent of a, equal to it at w0
    shadow = Shadow()
    assert shadow(a.terms) == shadow(b.terms)
    span = _seeded(mod, [a, b])
    assert span.dim() == 2
    assert span.express(b) == [(1, ONE, b)]


def test_entries_with_a_pole_at_w0_are_reduced_exactly():
    mod, (e1, e2, e3) = _kets_of_one_weight(3)
    pole = W_MINUS_W0.inverse()
    v1 = e1 + e2.scale(W_MINUS_W0)  # e1 at w0
    v2 = v1.scale(pole)  # dependent on v1, with a pole at w0
    v3 = e3.scale(pole)  # independent, with a pole at w0
    assert Shadow()(v2.terms) is None and Shadow()(v3.terms) is None
    span = _seeded(mod, [v1, v2, v3])
    assert [key for _, entries in span.ordered() for key, _, _ in entries] == [0, 2]
    assert span.express(v2) == [(0, pole, v1)]


def test_a_full_block_skips_its_candidates_with_no_elimination(monkeypatch):
    mod, kets = _kets_of_one_weight(1)
    block = weight_block(mod, mod.weight_of(next(iter(kets[0].terms))))
    vectors = [FockVector.basis(k) for k in block]
    reductions = Counter()
    bare = RowBasis.reduce

    def counted(self, v):
        reductions["exact"] += 1
        return bare(self, v)

    monkeypatch.setattr(RowBasis, "reduce", counted)
    span = _seeded(mod, vectors + [sum(vectors[1:], vectors[0])])
    assert span.dim() == len(block) and not reductions


def test_a_candidate_in_a_full_or_empty_block_gets_no_image(monkeypatch):
    pair = make_c_pair(2, ("+", "-"), cutoff=5, level="bold")
    src = pair.source
    building = []  # the span under construction, from its first store
    bare_store = MatchedSpan._store

    def store(self, *args):
        building[:] = [self]
        bare_store(self, *args)

    imaged = []
    bare_act = fundrep.act

    def counted(module, gen, vec):
        if getattr(module, "base", module) is src:
            span = building[0]
            wt = span._wt(vec) - src.algebra.root(gen[1])
            assert len(span.blocks.get(wt, (None, []))[1]) < pair.bound(wt)
            imaged.append(wt)
        return bare_act(module, gen, vec)

    monkeypatch.setattr(MatchedSpan, "_store", store)
    monkeypatch.setattr(fundrep, "act", counted)
    dec = PairDecomposition(pair)
    candidates = [
        dec._wt(vs) - src.algebra.root(j)
        for _, entries in dec.ordered()
        for _, vs, _ in entries
        for j in finite_indices(src.algebra)
    ]
    empty = sum(pair.bound(wt) == 0 for wt in candidates)
    # candidates of both kinds were met, and skipped with no image
    assert imaged and empty
    assert len(imaged) < len(candidates) - empty


def _count_calls(monkeypatch, cls, name):
    calls = Counter()
    bare = getattr(cls, name)

    def counted(self, *args):
        calls[name] += 1
        return bare(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_type_d_builds_use_the_shadow_and_exact_builds_do_not(monkeypatch):
    pair = make_d_pair(2, 1, 1, cutoff=5, level="bold")
    spans = [fundamental_span(f, 1, 1) for f in pair.source.factors]
    shadow = _count_calls(monkeypatch, Shadow, "__call__")
    exact = _count_calls(monkeypatch, RowBasis, "reduce")
    dec = PairDecomposition(pair)
    # the bound is the dimension of span1 (x) span2, and it is reached: the
    # shadow accepts every vector, and the count skips the rest
    for wt, entries in dec.ordered():
        assert pair.bound(wt) == len(entries) == sum(
            d * spans[1].dims().get(wt - w1, 0) for w1, d in spans[0].dims().items())
    assert shadow["__call__"] >= dec.dim() and not exact["reduce"]
    # without a bound, a MatchedSpan (as iso_between_k builds it) decides
    # each image shadow-first, as an eager exact add decides it
    shadow.clear()
    decided = []
    bare = Subspace._at_w0

    def recorded(self, wt, terms):
        decided.append(terms)
        return bare(self, wt, terms)

    monkeypatch.setattr(Subspace, "_at_w0", recorded)
    mod = W2Module(EPSP, parse_scalar("q^2"), cutoff=4)
    seed = [(0, FockVector.basis(v_lk_label(1, 1, mod.n)),
             FockVector.basis(v_lk_label(1, 0, mod.n)))]
    span = MatchedSpan(mod, mod, seed, finite_indices(mod.algebra))
    stored = {id(vs.terms) for _, entries in span.ordered() for _, vs, _ in entries}
    kept = [id(terms) in stored for terms in decided]
    assert span.dim() > 1 and shadow["__call__"] and not all(kept)
    assert kept == _exact_adds(mod, map(FockVector, decided))[0]


@pytest.mark.parametrize("sigma", [("+", "-"), ("+", "+")])
def test_lazily_filled_rows_express_as_eager_ones(sigma):
    pair = make_c_pair(2, sigma, cutoff=6, level="bold")
    needed = _eq_weights(pair)
    dec = PairDecomposition(pair, needed_weights=needed)
    # the exact rows of a block are filled only when it is read
    assert any(len(basis.made) < len(entries) for basis, entries in dec.blocks.values())
    ref = ref_pair_blocks(pair, needed)
    src = pair.source
    expressed = 0
    for comp in pair.components:
        if comp.weight.degree() + 2 > src.cutoff:
            continue
        u = act_or_none(src, ("e", 0), comp.v_src)
        if u is None or u.is_zero():
            continue
        basis, entries = ref[src.weight_of(next(iter(u.terms)))]
        coords = basis.express(u.terms)
        assert coords is not None
        assert dec.express(u) == [(entries[i][0], c, entries[i][2]) for i, c in coords.items()]
        expressed += 1
    assert expressed


# -- the bound of type-d builds ----------------------------------------------


def _source_span(module, blocks, filled=False):
    """A Subspace of the source vectors of matched blocks, with the blocks'
    filled rows or with fresh ones, filled when read."""
    span = Subspace(module)
    span.blocks = {wt: (b if filled else RowBasis(), [vs for _, vs, _ in entries])
                   for wt, (b, entries) in blocks.items()}
    return span


# (l1, l2, cutoff, level, built for the e_0 equations only): every type-d
# build of criteria 6 and 8 and of the benchmark's rmatrix and fusion
# workloads, and the fused pairs at the other level
TYPE_D_BUILDS = {
    "criterion-6-underline-11": (1, 1, 6, "underline", True),
    "criterion-6-underline-12": (1, 2, 7, "underline", True),
    "criterion-6-underline-22": (2, 2, 8, "underline", True),
    "criterion-6-bold-11": (1, 1, 4, "bold", True),
    "criterion-8-bold-11": (1, 1, 4, "bold", False),
    "criterion-8-underline-11": (1, 1, 4, "underline", False),
    "fusion-bold-11": (1, 1, 5, "bold", False),
    "fusion-underline-11": (1, 1, 5, "underline", False),
}


def _type_d_build(name):
    l1, l2, cutoff, level, restrict = TYPE_D_BUILDS[name]
    pair = make_d_pair(2, l1, l2, cutoff=cutoff, level=level)
    return pair, (_eq_weights(pair) if restrict else None)


@pytest.mark.parametrize("name", sorted(TYPE_D_BUILDS))
def test_the_span_bound_builds_the_exact_orbit(name):
    pair, needed = _type_d_build(name)
    dec = PairDecomposition(pair, needed_weights=needed)
    ref = ref_pair_blocks(pair, needed)
    assert all(len(entries) <= pair.bound(wt) for wt, (_, entries) in ref.items())
    got = _source_span(pair.source, dec.blocks)
    want = _source_span(pair.source, ref, filled=True)
    assert got.dims() == want.dims()
    assert compare_spans(got, want) == {"pass": True}


def test_a_bound_one_short_on_one_block_is_caught():
    pair, needed = _type_d_build("criterion-8-bold-11")
    ref = ref_pair_blocks(pair, needed)
    wt = max(ref, key=lambda w: len(ref[w][1]))
    bound = pair.bound
    pair.bound = lambda w: bound(w) - (w == wt)
    dec = PairDecomposition(pair, needed_weights=needed)
    got = _source_span(pair.source, dec.blocks)
    want = _source_span(pair.source, ref, filled=True)
    assert got.dims()[wt] == len(ref[wt][1]) - 1
    assert compare_spans(got, want)["pass"] is False


@pytest.mark.parametrize("l1,l2,level,closures", [
    (1, 1, "underline", 1), (1, 2, "underline", 2), (1, 1, "bold", 1),
])
def test_make_d_pair_builds_one_span_per_distinct_l(monkeypatch, l1, l2, level, closures):
    calls = Counter()
    bare = fundrep.lowering_closure

    def counted(*args):
        calls["closure"] += 1
        return bare(*args)

    monkeypatch.setattr(fundrep, "lowering_closure", counted)
    make_d_pair(2, l1, l2, cutoff=5, level=level)
    assert calls["closure"] == closures


@pytest.mark.parametrize("l1,l2,level", [(1, 1, "underline"), (1, 2, "underline"), (1, 1, "bold")])
def test_the_tabulated_d_bound_is_the_sum_over_the_spans(l1, l2, level):
    pair = make_d_pair(2, l1, l2, cutoff=5, level=level)
    src = pair.source
    dims1, dims2 = (fundamental_span(f, l, l).dims() for f, l in zip(src.factors, (l1, l2)))
    window = {src.weight_of(label) for label in src.enumerate_labels()}
    bounds = {wt: pair.bound(wt) for wt in window}
    assert any(bounds.values())
    assert bounds == {
        wt: sum(d1 * dims2.get(wt - w1, 0) for w1, d1 in dims1.items()) for wt in window
    }


# -- spans compared ----------------------------------------------------------


def test_compare_spans_reads_one_containment_at_equal_dimensions(monkeypatch):
    mod, (e1, e2) = _kets_of_one_weight(2)
    a, b, c = Subspace(mod), Subspace(mod), Subspace(mod)
    a.add(e1)
    b.add(e2)
    c.add(e1.scale(parse_scalar("q^2")))
    assert a.dims() == b.dims()
    assert compare_spans(a, b) == {"pass": False, "reason": "containment a in b fails"}
    reads = Counter()
    bare = Subspace.contains

    def counted(self, v):
        reads[id(self)] += 1
        return bare(self, v)

    monkeypatch.setattr(Subspace, "contains", counted)
    assert compare_spans(a, c) == {"pass": True}
    assert reads == {id(c): 1}


# -- shadow-first spans ------------------------------------------------------


def _exact_adds(module, vectors):
    """The decisions of an eager exact Subspace.add, and its row bases."""
    blocks, out = {}, []
    for v in vectors:
        basis = blocks.setdefault(module.weight_of(next(iter(v.terms))), RowBasis())
        r, mult = basis.reduce(v.terms)
        if r:
            basis.insert(r, mult)
        out.append(bool(r))
    return out, blocks


def _same_rows(a: RowBasis, b: RowBasis):
    return a.pivots == b.pivots and a.rows == b.rows and a.made == b.made


def _shadow_cases():
    mod, (e1, e2, e3) = _kets_of_one_weight(3)
    pole = W_MINUS_W0.inverse()
    a = e1 + e2
    b = e1 + e2.scale(W_MINUS_W0 + ONE)  # independent of a, equal to it at w0
    return mod, [
        a,
        a.scale(parse_scalar("q^2")),  # dependent
        b,  # dependent only at w0: accepted by exact reduction
        e1.scale(pole) + e3,  # independent, with a pole at w0
        (a + e3).scale(pole),  # dependent, with a pole at w0
        e3,  # dependent, reduced exactly: the block left the shadow at b
    ]


def test_shadow_first_adds_decide_as_exact_adds():
    mod, vectors = _shadow_cases()
    want, rows = _exact_adds(mod, vectors)
    assert want == [True, False, True, True, False, False]
    added = Subspace(mod)
    assert [added.add(v) for v in vectors] == want
    # an unbounded build decides its seeds as the adds do
    built = MatchedSpan(mod, mod, [(i, v, v) for i, v in enumerate(vectors)], [])
    kept = [v for v, k in zip(vectors, want) if k]
    for span in (added, built):
        for wt, (_, entries) in span.blocks.items():
            assert [span._terms(e) for e in entries] == [v.terms for v in kept]
            assert _same_rows(span._basis(span.blocks[wt]), rows[wt])
    assert [key for _, entries in built.ordered() for key, _, _ in entries] == [0, 2, 3]


def test_a_shadow_accepted_block_fills_its_rows_when_read():
    mod, (e1, e2, e3) = _kets_of_one_weight(3)
    vectors = [e1 + e2, e2.scale(parse_scalar("q^2")) + e3]
    span = Subspace(mod)
    assert all(span.add(v) for v in vectors)
    ((basis, entries),) = span.blocks.values()
    assert len(entries) == 2 and not basis.made  # the shadow accepted both
    assert span.contains(vectors[0] + vectors[1]) and not span.contains(e1)
    assert _same_rows(basis, _exact_adds(mod, vectors)[1][span._wt(e1)])


def test_z_entries_take_the_exact_path():
    mod, (e1, e2, _) = _kets_of_one_weight(3)
    one = SpectralScalar.from_scalar(ONE)
    u = e1.scale(Z1) + e2.scale(one)
    vectors = [u, u.scale(Z1), e1.scale(one)]
    assert Shadow()(u.terms) is None
    span = Subspace(mod)
    assert [span.add(v) for v in vectors] == _exact_adds(mod, vectors)[0] == [True, False, True]
    assert span.contains(e2.scale(one))


def test_a_matched_span_expresses_through_lazily_filled_rows():
    mod, kets = _kets_of_one_weight(1)
    vectors = [FockVector.basis(k) for k in weight_block(mod, mod.weight_of(next(iter(kets[0].terms))))]
    scaled = [v.scale(parse_scalar("q^%d" % i) + ONE) for i, v in enumerate(vectors)]
    span = _seeded(mod, scaled + [sum(vectors[1:], vectors[0])])
    ((basis, entries),) = span.blocks.values()
    assert len(entries) == len(vectors) and not basis.made  # count and shadow only
    _, rows = _exact_adds(mod, scaled)
    for v in [*vectors, sum(scaled[1:], scaled[0]), vectors[0].scale(W_MINUS_W0.inverse())]:
        coords = rows[span._wt(v)].express(v.terms)
        assert span.express(v) == [(i, c, scaled[i]) for i, c in coords.items()]
    assert _same_rows(basis, rows[span._wt(vectors[0])])


# -- truncated spans keep whole weight blocks --------------------------------


def _fused_c_image(sigma=("+", "-"), cutoff=4):
    pair = make_c_pair(2, sigma, cutoff=cutoff, level="bold")
    return fuse(pair, *solve_R(pair, needed_weights=None), parse_scalar("q^-4"))


def _truncation_cases():
    """(image span, truncated module) pairs: a fused type-c image and a
    fundamental span of type d, each truncated to both levels."""
    image = _fused_c_image()
    epsp = host_eps("d", 2)
    span = fundamental_span(level_module("d", "bold", epsp, 5, [(ONE, "W")]), 1, 1)
    for level in ("underline", "overline"):
        yield image, c_target_module(2, ("+", "-"), image.module.cutoff, level, Z1)
        yield span, level_module("d", level, epsp, 5, [(ONE, "W")])


def test_truncated_spans_match_the_per_vector_reference():
    for image, truncated in _truncation_cases():
        got = truncate_image_span(image, truncated)
        want = ref_truncate_image_span(image, truncated)
        assert want.dim() > 0 and want.dim() < image.dim()
        assert list(got.blocks) == list(want.blocks)
        for wt, (_, entries) in want.blocks.items():
            assert [_structure(v) for v in got.blocks[wt][1]] == [_structure(v) for v in entries]
        assert compare_spans(got, want) == compare_spans(want, got) == {"pass": True}


def test_a_truncated_span_refuses_a_dependent_vector():
    for image, truncated in _truncation_cases():
        span = truncate_image_span(image, truncated)
        dims = span.dims()
        for wt, (_, vecs) in list(span.blocks.items()):
            assert not span.add(vecs[0].scale(parse_scalar("q^3")) + vecs[-1]), wt
        assert span.dims() == dims
        # a kept ket outside the span is still accepted
        b = next(v for v in map(FockVector.basis, truncated.enumerate_labels())
                 if span._wt(v) in dims and not span.contains(v))
        assert span.add(b) and span.dim() == sum(dims.values()) + 1
