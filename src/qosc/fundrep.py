"""Fundamental-type submodules of the rank-two Fock space (type d).

W_{l,k} is generated from |k e_n> (x) |(l-k) e_n> inside W^(x2)(x); the
explicit highest-weight vectors u_{r,s} of the tensor square of two
fundamentals, the ladder operator words, and their exact identities live
here.
"""

from __future__ import annotations

from collections import deque

from .algebraops import LEVELS, host_eps, level_module, phi_words
from .decomp import finite_indices
from .fockmod import (
    FockVector,
    ImageMemo,
    act,
    eval_word,
    image_leaves_window,
    tensor_vector,
)
from .linalg import RowBasis, Shadow, ShadowBasis, solve_unique
from .scalars import (
    ONE,
    SONE,
    SZERO,
    Q,
    Scalar,
    Z1,
    q_power,
    qint,
)
from .words import WordExpr, divided_power


def block_order(wt):
    """The order in which spans are walked: by degree, then by delta."""
    return (wt.degree(), wt.delta)


class Subspace:
    """A weight-graded span of FockVectors inside a module window.

    Independence is decided shadow-first.  Each weight block keeps a
    linalg.ShadowBasis: the echelon over GF(p) of its accepted vectors
    seen at w = w0 (linalg.Shadow).  A vector whose image there is
    independent of the echelon is independent over Q(w) too (a minor
    nonzero at w0 is nonzero), and is accepted with no exact reduction.
    Any other vector (dependent at w0, with a pole at w0 or with an entry
    over Q(w)(z)) is reduced exactly; a block that accepts one that way
    leaves the shadow, since the images of its vectors then no longer
    have their rank.  The exact RowBasis of a block is filled from its
    stored vectors, in order, only when contains, express or an exact
    reduction reads it, so it holds the rows an eager build would.

    A span grows vector by vector through add, or all at once through
    build, the one breadth-first span build; a built span takes no
    further vector.
    """

    def __init__(self, module):
        self.module = module
        self.blocks = {}  # Weight -> (RowBasis, [entry per accepted vector])
        self._shadow = Shadow()
        self._shadows = {}  # Weight -> ShadowBasis, or None once the block is exact

    @staticmethod
    def _terms(entry):
        """The sparse vector of a stored entry."""
        return entry.terms

    def _wt(self, vec):
        return self.module.weight_of(next(iter(vec.terms)))

    def _at_w0(self, wt, terms):
        """The remainder of the image of terms at w0 against block wt's
        echelon: nonzero proves terms independent, empty proves nothing;
        None when the block is exact or terms has no image at w0."""
        sb = self._shadows.setdefault(wt, ShadowBasis())
        r = None if sb is None else self._shadow(terms)
        return r if r is None else sb.reduce(r)

    def _store(self, wt, blk, entry, r, mult=None):
        """Accept entry into block wt, shown independent by its remainder
        r at w0 (mult None) or by its exact reduction (r, mult)."""
        if mult is None:
            self._shadows[wt].insert(r)
        else:
            blk[0].insert(r, mult)
            self._shadows[wt] = None
        blk[1].append(entry)
        self.blocks[wt] = blk

    def _basis(self, blk):
        """The exact RowBasis of a block, first given the stored vectors it
        lacks, in order."""
        basis, entries = blk
        for entry in entries[len(basis.made):]:
            r, mult = basis.reduce(self._terms(entry))
            if not r:
                raise ArithmeticError("a stored vector of a span is dependent")
            basis.insert(r, mult)
        return basis

    def add(self, vec: FockVector):
        """Add vec to its weight block if it is independent there."""
        if vec.is_zero():
            return False
        wt = self._wt(vec)
        blk = self.blocks.get(wt) or (RowBasis(), [])
        r, mult = self._at_w0(wt, vec.terms), None
        if not r:
            r, mult = self._basis(blk).reduce(vec.terms)
            if not r:
                return False
        self._store(wt, blk, vec, r, mult)
        return True

    def build(self, target, seeds, indices, bound=None):
        """Span the seeds (key, v, v_tgt) and their images under the
        f_j-words (j in indices), breadth-first.  With a target each stored
        v is matched with the image of v_tgt in target under the same word,
        as an entry (key, v, v_tgt); with target None the entries are v.

        A stored vector queues one candidate per f_j: the vector, j and the
        candidate's weight, the vector's weight less alpha_j, unless that
        weight lies above the window (image_leaves_window), so no image
        computed here leaves it; the target's has the same weight and
        cutoff.  A candidate's image is computed when it is popped, unless
        its block is full, and its target image only when the image is
        independent; a zero image is dropped.  Each image is
        decided as add decides it: one independent at w0 is accepted, any
        other is reduced exactly, at once when no bound is given; so an
        unbounded build stores what an eager exact one would, in order.

        bound(wt), read once per weight, is an upper bound on the dimension
        of the block at wt: the window's count of kets of that weight for a
        type-c pair, the dimension of the tensor product of the factors'
        fundamental spans there for a type-d pair, 0 at a weight the build
        leaves out.  With it a candidate in a block of bound(wt) vectors is
        skipped before its image is computed, and one whose image is
        dependent at w0 is deferred, to be reduced exactly when the queue
        drains if its block is still short.  A bound that is too large
        costs only time; one that is too small would drop vectors.
        """
        source = self.module
        roots = [(j, source.algebra.root(j)) for j in indices]
        # a side that keeps no images acts through a memo, freed on return
        source = ImageMemo.over(source)
        if target is not None:
            target = source if target is self.module else ImageMemo.over(target)
        bounds = {}  # weight -> bound(weight)
        # a seed (key, v, v_tgt, None, weight), or a candidate (key, the
        # parent's v and v_tgt, the f_j that maps them, its weight)
        queue = deque((key, vs, vt, None, self._wt(vs))
                      for key, vs, vt in seeds if not vs.is_zero())
        deferred = deque()  # (key, v, v_tgt or the parent's, j, weight)
        while queue or deferred:
            drained = not queue
            key, vs, vt, j, wt = (queue or deferred).popleft()
            blk = self.blocks.get(wt) or (RowBasis(), [])
            r = mult = None
            if bound is not None:
                n = bounds.get(wt)
                if n is None:
                    n = bounds[wt] = bound(wt)
                if len(blk[1]) == n:
                    continue
            if not drained:
                if j is not None:
                    vs = act(source, ("f", j), vs)
                    if vs.is_zero():
                        continue
                r = self._at_w0(wt, vs.terms)
                if bound is not None and r is not None and not r:
                    deferred.append((key, vs, vt, j, wt))
                    continue
            if not r:
                r, mult = self._basis(blk).reduce(vs.terms)
                if not r:
                    continue
            entry = vs
            if target is not None:
                if j is not None:
                    vt = act(target, ("f", j), vt)
                entry = (key, vs, vt)
            self._store(wt, blk, entry, r, mult)
            for j, root in roots:
                if not image_leaves_window(source, ("f", j), wt):
                    queue.append((key, vs, vt, j, wt - root))
        self._shadow = self._shadows = None

    def contains(self, vec: FockVector):
        if vec.is_zero():
            return True
        blk = self.blocks.get(self._wt(vec))
        return blk is not None and self._basis(blk).contains(vec.terms)

    def ordered(self, maxdeg=None):
        """[(weight, entries)] by block_order, up to degree maxdeg."""
        return [
            (wt, self.blocks[wt][1])
            for wt in sorted(self.blocks, key=block_order)
            if maxdeg is None or wt.degree() <= maxdeg
        ]

    def dims(self):
        return {wt: len(v) for wt, (b, v) in self.blocks.items()}

    def dim(self):
        return sum(len(v) for _, v in self.blocks.values())


def compare_spans(a: Subspace, b: Subspace):
    """Equal weight-block dimensions, and a contained in b."""
    dims_a, dims_b = a.dims(), b.dims()
    if dims_a != dims_b:
        return {"pass": False, "reason": "dimension census differs",
                "only_a": {k.to_str(): v for k, v in dims_a.items() if dims_b.get(k) != v},
                "only_b": {k.to_str(): v for k, v in dims_b.items() if dims_a.get(k) != v}}
    # the stored vectors of a block are independent, so at equal block
    # dimensions a in b makes the spans equal
    for _, vecs in a.blocks.values():
        if not all(b.contains(v) for v in vecs):
            return {"pass": False, "reason": "containment a in b fails"}
    return {"pass": True}


class MatchedSpan(Subspace):
    """Source vectors matched with target vectors: the Subspace.build of
    the seeds (key, v_src, v_tgt) in source, matched in target, under the
    bound if one is given.  Block entries are (key, v_src, v_tgt)."""

    def __init__(self, source, target, seeds, indices, bound=None):
        super().__init__(source)
        self.build(target, seeds, indices, bound)

    @staticmethod
    def _terms(entry):
        return entry[1].terms

    def express(self, v: FockVector):
        """v = sum coords; returns list of (key, coeff, v_tgt) or None."""
        if v.is_zero():
            return []
        blk = self.blocks.get(self._wt(v))
        if blk is None:
            return None
        coords = self._basis(blk).express(v.terms)
        if coords is None:
            return None
        return [(blk[1][i][0], c, blk[1][i][2]) for i, c in coords.items()]

    def apply(self, v: FockVector, scale):
        """The matched map scaled by scale[key] on each key's vectors:
        sum of coords * scale[key] * matched target vector, or None."""
        parts = self.express(v)
        if parts is None:
            return None
        out = FockVector()
        for key, c, vt in parts:
            out = out + vt.scale(scale[key] * c)
        return out


def lowering_closure(module, v, indices) -> Subspace:
    """The span of v and of every f_j-word image of it (j in indices): the
    unmatched Subspace.build of v."""
    span = Subspace(module)
    span.build(None, [(None, v, None)], indices)
    return span


def truncate_image_span(image: Subspace, truncated) -> Subspace:
    """The truncation of an image span to the target algebra of the module
    truncated, as a span in truncated: the image's blocks at the weights
    that target keeps (TargetAlgebra.keeps), their stored vectors shared
    in order.  A weight vector is kept or dropped whole, so the kept
    vectors stay independent with no reduction; the blocks leave the
    shadow, so a later add reduces against them exactly."""
    keeps = truncated.algebra.keeps
    out = Subspace(truncated)
    for wt, (_, vecs) in image.blocks.items():
        if keeps(wt.delta):
            out.blocks[wt] = (RowBasis(), list(vecs))
            out._shadows[wt] = None
    return out


def v_lk_label(l: int, k: int, n: int):
    en = tuple(0 if i < n - 1 else 1 for i in range(n))
    m = tuple(k * e for e in en)
    mp = tuple((l - k) * e for e in en)
    return (m, mp)


class FundamentalReport:
    """The span of one fundamental module and its closure checks."""

    def __init__(self, l, k, span, e0_certificate=True, e0_closed=True, f0_closed=True,
                 raising_closed=True):
        self.l, self.k, self.span = l, k, span
        self.e0_certificate, self.e0_closed = e0_certificate, e0_closed
        self.f0_closed, self.raising_closed = f0_closed, raising_closed


def e0_certificate_word(n: int) -> WordExpr:
    """The f-word equal to [l+1] * x^-1 e_0 on v_{l,k} (l+1 scaled later):
    (f_2..f_{n-2}) f_{n-1} (f_1..f_{n-2}) f_n - (f_2..f_{n-2}) f_n (f_1..f_{n-2}) f_{n-1}."""

    head, mid1 = range(2, n - 1), range(1, n - 1)
    t1 = WordExpr.product("f", *head, n - 1, *mid1, n)
    t2 = WordExpr.product("f", *head, n, *mid1, n - 1)
    return t1 - t2


def fundamental_span(module, l: int, k: int) -> Subspace:
    """The lowering_closure of v_{l,k} over the finite subalgebra."""
    v0 = FockVector.basis(v_lk_label(l, k, module.n))
    return lowering_closure(module, v0, finite_indices(module.algebra))


def build_fundamental(module, l: int, k: int):
    """fundamental_span of v_{l,k}; verifies e_0/f_0 stability and the
    explicit e_0 identity.  On an ambient module it raises WindowError
    below cutoff l + 2, where e_0 v_{l,k} leaves the window."""
    n = module.n
    v0 = FockVector.basis(v_lk_label(l, k, n))
    lower = finite_indices(module.algebra)
    span = fundamental_span(module, l, k)
    report = FundamentalReport(l=l, k=k, span=span)

    # eq-style certificate: x^-1 e_0 v_{l,k} equals the displayed f-word / [l+1]
    if module.algebra.gen_indices == module.eps.I:
        e0v = act(module, ("e", 0), v0)
        word = e0_certificate_word(n)
        rhs = eval_word(word, v0, module).scale(qint(l + 1).inverse())
        lhs = e0v.scale(module.x.inverse())
        if not (lhs - rhs).is_zero():
            report.e0_certificate = False

    for wt, vecs in span.ordered():
        for v in vecs:
            if not image_leaves_window(module, ("e", 0), wt):
                if not span.contains(act(module, ("e", 0), v)):
                    report.e0_closed = False
            if not span.contains(act(module, ("f", 0), v)):
                report.f0_closed = False
            for j in lower:
                if not span.contains(act(module, ("e", j), v)):
                    report.raising_closed = False
    return report


def iso_between_k(module, l: int, k1: int, k2: int):
    """Matched-word map W_{l,k1} -> W_{l,k2}; checks that it intertwines
    e_0 and f_0 and that block dimensions agree."""
    n = module.n
    v1 = FockVector.basis(v_lk_label(l, k1, n))
    v2 = FockVector.basis(v_lk_label(l, k2, n))
    span = MatchedSpan(module, module, [(0, v1, v2)], finite_indices(module.algebra))
    image = Subspace(module)
    residuals = []
    for wt, entries in span.ordered():
        for _, a, b in entries:
            image.add(b)
            for gen in (("e", 0), ("f", 0)):
                if image_leaves_window(module, gen, wt):
                    continue
                im = span.apply(act(module, gen, a), {0: ONE})
                if im is None or not (im - act(module, gen, b)).is_zero():
                    residuals.append((gen, wt))
    return {"dims_match": span.dims() == image.dims(), "residuals": residuals}


# -- explicit highest-weight vectors u_{r,s} ---------------------------------


def fundamental_pair_modules(m: int, cutoff: int):
    """W(z) (x) W(1) of type d: the tensor product W_{l1}(z) (x) W_{l2}(1)
    lives inside this pair of rank-two Fock modules, acting through the
    underline type-d phi maps; the .base of each factor is its untruncated
    W^(x2) module."""
    epsp = host_eps("d", m)
    return level_module("d", "underline", epsp, cutoff, [(Z1, "W"), (ONE, "W")])


def u_rs_component(tensor, m: int, l1: int, l2: int, r: int, s: int, i: int, j: int):
    """u^{i,j}_{r,s} = f_{m+1}^(i) f_m^(j) v_{l1}  (x)  f_{m+1}^(r-i) f_m^(s-j) v_{l2}.

    Zero exactly when one of the four divided-power exponents is negative;
    beyond that the natural formula vector is used (it may vanish on its
    own when a divided power overshoots).
    """
    if i < 0 or j < 0 or r - i < 0 or s - j < 0:
        return FockVector()
    n = tensor.n
    f1, f2 = tensor.factors
    w1 = FockVector.basis(v_lk_label(l1, l1, n))
    w2 = FockVector.basis(v_lk_label(l2, l2, n))
    word1 = divided_power("f", m + 1, i) * divided_power("f", m, j)
    word2 = divided_power("f", m + 1, r - i) * divided_power("f", m, s - j)
    a = eval_word(word1, w1, f1)
    b = eval_word(word2, w2, f2)
    return tensor_vector(a, b)


def u_rs(tensor, m: int, l1: int, l2: int, r: int, s: int):
    """The highest-weight vector of the (r, s) component, coefficient of
    u^{0,0}_{r,s} normalized to 1."""
    if r < 0 or not (0 <= s <= min(l1, l2)):
        return FockVector()
    out = FockVector()
    for i in range(r + 1):
        ai = _A_coeff(l1, l2, r, i)
        for j in range(s + 1):
            bj = _B_coeff(l1, l2, s, j)
            term = u_rs_component(tensor, m, l1, l2, r, s, i, j)
            out = out + term.scale(ai * bj)
    return out


def _A_coeff(l1, l2, r, i) -> Scalar:
    acc = ONE
    for k in range(1, i + 1):
        acc = (
            acc
            * q_power(2 * k - 2 - l2 - 2 * r)
            * qint(r + l2 - k + 2)
            * qint(l1 + k + 1).inverse()
        )
    return acc if i % 2 == 0 else -acc


def _B_coeff(l1, l2, s, j) -> Scalar:
    acc = ONE
    for k in range(1, j + 1):
        acc = (
            acc
            * q_power(2 * k + l2 - 2 * s)
            * qint(l2 - s + k)
            * qint(l1 - k + 1).inverse()
        )
    return acc if j % 2 == 0 else -acc


# -- ladder words -------------------------------------------------------------


def bold_word(which: str, m: int) -> WordExpr:
    """The four degree-lowering/raising words between adjacent components."""
    desc = range(m - 1, 0, -1)  # e_{m-1} ... e_1
    desc2 = range(m - 1, 1, -1)  # e_{m-1} ... e_2
    asc2 = range(2, m)  # f_2 ... f_{m-1}
    asc1 = range(1, m)  # f_1 ... f_{m-1}
    if which == "F_m":
        return WordExpr.product("e", *desc, m + 1, *desc2, 0)
    if which == "F_m+1":
        return WordExpr.product("e", *desc, m, *desc2, 0)
    if which == "E_m":
        return WordExpr.product("f", 0, *asc2, m + 1, *asc1)
    if which == "E_m+1":
        return WordExpr.product("f", 0, *asc2, m, *asc1)
    raise ValueError("which must be F_m, F_m+1, E_m or E_m+1")


def vanishing_word(m: int) -> WordExpr:
    """f_0 (f_2...f_{m-1}) (f_1...f_{m-1}), which kills every u^{i,j}_{r,s}."""
    return WordExpr.product("f", 0, *range(2, m), *range(1, m))


def verify_EF_identities(m: int, l1: int, l2: int, rmax: int, smax: int):
    """Check the four ladder identities in the spectral parameters x1, x2.

    They are checked at (x1, x2) = (z, 1), which proves them for all
    x1, x2.  On W^(x2)(x), e_0 acts by x times an x-free map, f_0 by x^-1
    times one, and every other generator is x-free; each term of a type-d
    phi image of the target e_0 or f_0 holds exactly one host e_0 or f_0.
    By the coproduct, a word with a e_0's and b f_0's acts on
    W(x1) (x) W(x2) homogeneously of degree a - b in (x1, x2), and so
    does each side of every identity here.  A homogeneous P of degree d
    has P(x1, x2) = x2^d P(x1/x2, 1), so P(z, 1) = 0 gives P = 0.

    Returns a list of (name, r, s, i, j, ok) tuples, read by
    ladder_failures; all identities use the out-of-range convention u = 0.
    """
    tensor = fundamental_pair_modules(m, l1 + l2 + 2 * (rmax + 1) + 2)
    x1, x2 = Z1, SONE
    x1i, x2i = Z1.inverse(), SONE
    U = lambda r, s, i, j: u_rs_component(tensor, m, l1, l2, r, s, i, j)
    out = []
    Fm = bold_word("F_m", m)
    Fm1 = bold_word("F_m+1", m)
    Em = bold_word("E_m", m)
    Em1 = bold_word("E_m+1", m)
    smax = min(smax, min(l1, l2))
    for s in range(smax + 1):
        for j in range(s + 1):
            u = U(0, s, 0, j)
            lhs = eval_word(Fm, u, tensor)
            rhs = (
                U(0, s + 1, 0, j + 1).scale(
                    x1 * q_power(l2 - 2 * s + 2 * j) * qint(j + 1)
                )
                + U(0, s + 1, 0, j).scale(x2 * qint(s - j + 1))
            )
            out.append(("F_m", 0, s, 0, j, (lhs - rhs).is_zero()))
            lhs = eval_word(Em, u, tensor)
            rhs = (
                U(0, s - 1, 0, j - 1).scale(x1i * qint(l1 - j + 1))
                + U(0, s - 1, 0, j).scale(
                    x2i * q_power(2 * j - l1) * qint(l2 - s + j + 1)
                )
            )
            out.append(("E_m", 0, s, 0, j, (lhs - rhs).is_zero()))
    for r in range(rmax + 1):
        for s in range(smax + 1):
            for i in range(r + 1):
                for j in range(s + 1):
                    u = U(r, s, i, j)
                    lhs = eval_word(Fm1, u, tensor)
                    rhs = (
                        U(r + 1, s, i + 1, j).scale(
                            x1 * q_power(2 * i - 2 * r - l2 - 2) * qint(i + 1)
                        )
                        + U(r + 1, s, i, j).scale(x2 * qint(r - i + 1))
                    )
                    out.append(("F_m+1", r, s, i, j, (lhs - rhs).is_zero()))
                    lhs = eval_word(Em1, u, tensor)
                    rhs = FockVector() - (
                        U(r - 1, s, i - 1, j).scale(x1i * qint(l1 + i + 1))
                        + U(r - 1, s, i, j).scale(
                            x2i * q_power(l1 + 2 * i + 2) * qint(l2 + r - i + 1)
                        )
                    )
                    out.append(("E_m+1", r, s, i, j, (lhs - rhs).is_zero()))
                    lhs = eval_word(vanishing_word(m), u, tensor)
                    out.append(("vanishing", r, s, i, j, lhs.is_zero()))
    return out


def ladder_failures(res):
    """The (name, r, s, i, j) of each failed identity of verify_EF_identities."""
    return [t[:5] for t in res if not t[-1]]


def verify_u_rs_highest(m: int, l1: int, l2: int, rmax: int, smax: int):
    """u_{r,s} is nonzero and killed by every raising operator of the finite
    subalgebra; a list of (r, s, ok), read by u_rs_failures."""
    tensor = fundamental_pair_modules(m, l1 + l2 + 2 * rmax + 4)
    raising = finite_indices(tensor.algebra)
    out = []
    smax = min(smax, min(l1, l2))
    for r in range(rmax + 1):
        for s in range(smax + 1):
            u = u_rs(tensor, m, l1, l2, r, s)
            ok = not u.is_zero()
            for j in raising:
                if not act(tensor, ("e", j), u).is_zero():
                    ok = False
                    break
            out.append((r, s, ok))
    return out


def u_rs_failures(res):
    """The (r, s) of each u_{r,s} that verify_u_rs_highest refutes."""
    return [(r, s) for r, s, ok in res if not ok]


# -- the expansion coefficients of F_{m+1} u_{r,s} ---------------------------


def appendix_C_verdicts(res):
    """{identity: holds} for each identity of verify_appendix_C that must
    hold; one that the result lacks does not hold."""
    names = ("e2F", "C20", "C10", "C00_nonzero", "closing_identity")
    return {k: bool(res.get(k, False)) for k in names}


def verify_appendix_C(m: int, l1: int, l2: int, r: int, s: int):
    """The exact ladder-coefficient identities in x1, x2.

    (i)  e_{m+1}^2 F_{m+1} u_{r,s} = [l2+r+1][2](x2 q^(-l2-2r) - x1 q^(l1+2)) u_{r-1,s}
    (ii) F_{m+1} u_{r,s} = C00 u_{r+1,s} + C10 f_{m+1} u_{r,s} + C20 f^(2)_{m+1} u_{r-1,s}
    with the closed forms of C20 and C10 and C00 != 0; appendix_C_verdicts
    reads the result.

    They are checked at (x1, x2) = (z, 1), which proves them for all
    x1, x2: F_{m+1} holds one e_0, so (i), (ii) and the closing identity
    are homogeneous of degree 1 in (x1, x2), the unique solution C of
    (ii) is too, and a homogeneous P of degree d has
    P(x1, x2) = x2^d P(x1/x2, 1) (see verify_EF_identities).
    """
    tensor = fundamental_pair_modules(m, l1 + l2 + 2 * (r + 2) + 2)
    x1, x2 = Z1, SONE
    Fm1 = bold_word("F_m+1", m)
    u = u_rs(tensor, m, l1, l2, r, s)
    Fu = eval_word(Fm1, u, tensor)
    res = {}

    lhs = eval_word(WordExpr.e(m + 1) * WordExpr.e(m + 1), Fu, tensor)
    um1 = u_rs(tensor, m, l1, l2, r - 1, s)
    coeff = qint(l2 + r + 1) * qint(2) * (x2 * q_power(-l2 - 2 * r) - x1 * q_power(l1 + 2))
    res["e2F"] = (lhs - um1.scale(coeff)).is_zero()

    basis = {
        "C00": u_rs(tensor, m, l1, l2, r + 1, s),
        "C10": act(tensor, ("f", m + 1), u),
        "C20": eval_word(divided_power("f", m + 1, 2), um1, tensor),
    }
    unknowns = [k for k, v in basis.items() if not v.is_zero()]
    kets = set()
    for v in basis.values():
        kets.update(v.terms)
    kets.update(Fu.terms)
    eqs = []
    for ket in sorted(kets, key=lambda l: repr(l)):
        coeffs = {k: basis[k].terms.get(ket, SZERO) for k in unknowns}
        eqs.append((coeffs, Fu.terms.get(ket, SZERO)))
    sol, status = solve_unique(eqs, unknowns)
    res["expansion_status"] = status
    if status != "unique":
        res["C20"] = res["C10"] = res["C00_nonzero"] = False
        return res

    # The k_{m+1}-eigenvalue exponent on u_{a,s} is -(l1+l2+2a+4); the
    # resulting quantum brackets in the C20/C10 denominators come out two
    # steps above the printed ones.  Both variants are reported; the
    # derivation-consistent one is asserted.
    L = l1 + l2 + 2 * r
    xfac = x2 * q_power(-l2 - 2 * r) - x1 * q_power(l1 + 2)
    c20_closed = qint(l2 + r + 1) * qint(2) / (qint(L + 2) * qint(L + 3)) * xfac
    c20_printed = qint(l2 + r + 1) * qint(2) / (qint(L) * qint(L + 1)) * xfac
    c10_closed = (
        qint(l1 + 2) * x1
        + qint(r + 1) * qint(l2 + r + 2) * x2
        - Q * Q * qint(r) * qint(l2 + r + 1) * x2
        - (x2 * q_power(-l1 - l2 - 2 * r - 2) - x1)
        * (qint(2) * qint(l2 + r + 1) * qint(r) / qint(L + 2))
    ) * qint(L + 4).inverse()
    if r >= 1:
        res["C20"] = sol.get("C20", SZERO) == c20_closed
        res["C20_printed_brackets"] = sol.get("C20", SZERO) == c20_printed
    else:
        res["C20"] = "C20" not in sol or sol["C20"].is_zero()
        res["r0_two_dimensional"] = "C20" not in unknowns
    res["C10"] = sol.get("C10", SZERO) == c10_closed
    c00 = sol.get("C00", SZERO)
    res["C00_nonzero"] = not c00.is_zero()
    # the closing identity comparing u^{0,0}_{r+1,s} coefficients
    lhs = x2 * qint(r + 1)
    rhs = (
        c00
        + sol.get("C10", SZERO) * (q_power(-l1 - 2) * qint(r + 1))
        + sol.get("C20", SZERO) * (q_power(-2 * l1 - 4) * qint(r) * qint(r + 1) / qint(2))
    )
    res["closing_identity"] = lhs == rhs
    return res


def fundamental_truncation_cutoff(m: int, l: int):
    """The smallest cutoff whose window holds the overline truncation of
    W_l: the top degree of that truncation.  It is built in the window of
    degree 2 |kept|, which holds every kept-supported ket, since a kept
    index is fermionic: at most 1 in each of the two factors of a ket."""
    epsp = host_eps("d", m)
    kept = phi_words("d", "overline", epsp).kept
    assert all(epsp.eps(i) == 1 for i in kept)
    W2, over = (level_module("d", lv, epsp, 2 * len(kept), [(ONE, "W")])
                for lv in ("bold", "overline"))
    image = truncate_image_span(fundamental_span(W2, l, l), over)
    return max((wt.degree() for wt in image.blocks), default=0)


def check_fundamental_truncation(m: int, l: int, cutoff: int):
    """Truncations of W_{l}: the overline image has the fundamental C_m
    dimension (dim V(varpi_{m-l}) for l < m, 1 at l = m, 0 beyond), and
    the underline image coincides with the intrinsically built underline
    fundamental module on the whole window (compare_spans)."""
    from math import comb

    epsp = host_eps("d", m)
    W2, under, over = (level_module("d", lv, epsp, cutoff, [(ONE, "W")]) for lv in LEVELS)
    span = fundamental_span(W2, l, l)
    got = truncate_image_span(span, over).dim()
    if l > m:
        expected = 0
    elif l == m:
        expected = 1
    else:
        k = m - l
        expected = comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0)
    # underline: truncation of the span equals the intrinsic module
    span_u = fundamental_span(under, l, l)
    under_ok = compare_spans(truncate_image_span(span, under), span_u)["pass"]
    return {
        "dim": got,
        "expected": expected,
        "ok": got == expected and under_ok,
        "underline_matches": under_ok,
    }
