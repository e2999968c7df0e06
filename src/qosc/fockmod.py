"""The modules W(x), W^(x2)(x), their truncations and tensor products.

All modules are materialized lazily on sparse vectors over ket labels.
A ket label is an integer tuple m (for W), a pair of tuples (for the
rank-two Fock space) or a nested tuple of factor labels (for tensor
products).  An image above the module cutoff is DROPPED whole, and act and
eval_word raise WindowError on it; since a ket's degree is its weight's,
image_leaves_window tells such an image by its weight, before acting.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache, partial
from math import prod
from operator import getitem

from .lattice import EpsilonData, Weight, qpair, qpair_exponent, simple_root
from .scalars import ONE, SONE, Scalar, qint
from .words import WordExpr, suffix_trie, word_degree_profile


class WindowError(RuntimeError):
    """An assertion would have depended on kets beyond the degree cutoff."""


# What apply_gen returns when a generator's image of a ket leaves the degree
# window.  Every atom moves every image term's degree by atom_shift, so an
# image leaves the window whole or not at all.
DROPPED = object()


class FockVector:
    """Sparse vector: {label: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for l, c in terms.items():
                if not c.is_zero():
                    self.terms[l] = c

    @staticmethod
    def basis(label):
        return FockVector({label: ONE})

    @staticmethod
    def of(terms):
        """A vector on terms, a {label: Scalar} dict with no zero entry."""
        v = FockVector()
        v.terms = terms
        return v

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for l, c in other.terms.items():
            s = out.get(l)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(l, None)
            else:
                out[l] = s
        return FockVector.of(out)

    def __sub__(self, other):
        return self + other.scale(Scalar.from_int(-1))

    def scale(self, c):
        if c.is_zero():
            return FockVector()
        return FockVector.of({l: c * x for l, x in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[l] for l, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = []
        for l in sorted(self.terms, key=flat_label)[:4]:
            c = self.terms[l]
            bits.append("(%s)*|%s>" % (c.to_str(), ket_str(l)))
        if len(self.terms) > 4:
            bits.append("...")
        return "FockVector(%s)" % " + ".join(bits)


def tensor_vector(va: FockVector, vb: FockVector) -> FockVector:
    """va (x) vb, with labels (la, lb) in the order of va's then vb's terms."""
    out = FockVector()
    for la, ca in va.terms.items():
        for lb, cb in vb.terms.items():
            out.terms[(la, lb)] = ca * cb
    return out


def flat_label(label):
    """Flatten nested ket labels into one integer tuple."""
    if isinstance(label[0], tuple):
        out = ()
        for part in label:
            out += flat_label(part)
        return out
    return label


def label_key(label):
    f = flat_label(label)
    return (sum(f), f)


def ket_str(label):
    if isinstance(label[0], tuple):
        return " x ".join(ket_str(p) for p in label)
    return "[" + ",".join(str(m) for m in label) + "]"


class AmbientAlgebra:
    """Descriptor for U_D(eps): generator index set I and simple roots."""

    kept = None  # every index is kept; truncated targets list theirs

    def __init__(self, eps: EpsilonData):
        self.eps = eps
        self.gen_indices = tuple(eps.I)
        self.key = ("ambient", eps.seq)
        self.roots = {i: simple_root(i, eps) for i in eps.I}

    def root(self, i) -> Weight:
        return self.roots[i]


def _valid_ket(m, eps: EpsilonData):
    for i, mi in enumerate(m):
        if mi < 0:
            return False
        if eps.seq[i] == 1 and mi > 1:
            return False
    return True


def _fock_kets(eps: EpsilonData, maxdeg):
    """The kets |m> of degree <= maxdeg in lexicographic order, m_i <= 1
    where eps_i = 1: the one range of Fock kets."""
    ranges = [range(2 if b else maxdeg + 1) for b in eps.seq]
    return (m for m in itertools.product(*ranges) if sum(m) <= maxdeg)


def _delta_kets(eps: EpsilonData, dvec):
    """The one Fock ket of a delta vector, m = dvec, if it is a ket."""
    m = tuple(dvec)
    return [m] if _valid_ket(m, eps) else []


def _split(dvec, parts):
    """The labels (l_1, ..., l_k) with l_i in parts[i](d_i) and d_1 + ... +
    d_k = dvec: the one split of a weight over the parts of a ket."""
    first, rest = parts[0], parts[1:]
    if not rest:
        return [(l,) for l in first(dvec)]
    out = []
    for d in itertools.product(*[range(t + 1) for t in dvec]):
        heads = first(d)
        if heads:
            tails = _split(tuple(t - s for t, s in zip(dvec, d)), rest)
            out.extend((l,) + tail for l in heads for tail in tails)
    return out


def _joint(maxdeg, parts, degrees):
    """The labels (l_1, ..., l_k) of total degree <= maxdeg, factor by
    factor: l_i runs over parts[i](budget), the budget the factors before
    it left, and degrees[i](l_i) is its degree.  In lexicographic order
    when each part lists its labels in that order."""
    if not parts:
        yield ()
        return
    for l in parts[0](maxdeg):
        for rest in _joint(maxdeg - degrees[0](l), parts[1:], degrees[1:]):
            yield (l,) + rest


class FockModule:
    """The protocol shared by every module.

    Fields: eps, n, cutoff, algebra (ambient or target), lam_level (the
    Lambda coefficient of every weight) and x (the spectral parameter, None
    for tensor products).  Subclasses define degree, weight_of, _image
    (the list of image terms of one ket at any degree, or DROPPED),
    labels_by_delta and enumerate_labels(maxdeg=None).
    """

    _images = None  # {(gen, label): image}, when the module keeps its images

    def __init__(self, eps: EpsilonData, cutoff: int, algebra, lam_level: int, x):
        self.eps = eps
        self.n = eps.n
        self.cutoff = cutoff
        self.algebra = algebra
        self.lam_level = lam_level
        self.x = Scalar.from_int(x) if isinstance(x, int) else x

    def atom_shift(self, atom):
        """Degree change of a U_D(eps) atom: the guard band of relation checks."""
        kind, i = atom
        if kind == "e":
            return 2 if i == 0 else (-2 if i == self.n else 0)
        if kind == "f":
            return -2 if i == 0 else (2 if i == self.n else 0)
        return 0

    def apply_gen(self, gen, label):
        """The image terms of gen on one ket as a tuple, or DROPPED when they
        lie above the cutoff: the one window rule.  A module with a dict of
        _images decides each (gen, label) once and keeps the answer there."""
        images = self._images
        key = (gen, label)
        hit = None if images is None else images.get(key)
        if hit is None:
            hit = self._windowed(self._image(gen, label))
            if images is not None:
                images[key] = hit
        return hit

    def _lookup(self, gen):
        """(image_of, key): image_of(key, label) is the image of gen on one
        ket, apply_gen's, as an e/f step on Scalar rows reads it."""
        return self.apply_gen, gen

    def _kfactor(self, ks):
        """The k atoms ks on Scalar rows: {label: the product of their
        q-powers at the label's weight}, each computed when first read."""
        return _KPowers(self, ks)

    def _windowed(self, hit):
        """An _image answer under the window rule: a list is an image at any
        degree, whose terms share one degree; a view's base answers with a
        tuple or DROPPED, decided already in the same window."""
        if type(hit) is list:
            return DROPPED if hit and self.degree(hit[0][0]) > self.cutoff else tuple(hit)
        return hit


class _KPowers(dict):
    """{label: prod over ks of q(weight of label, mu)}, filled as read."""

    def __init__(self, module, ks):
        self.module, self.ks = module, ks

    def __missing__(self, label):
        module = self.module
        wt, f = module.weight_of(label), ONE
        for _, mu in self.ks:
            f = f * qpair(wt, mu, module.eps)
        self[label] = f
        return f


class AmbientModule(FockModule):
    """A U_D(eps)-module on Fock kets, W(x) or W^(x2)(x).  A subclass gives
    _image, the image terms of a generator on one ket at any degree.  Its
    images are kept for the module's life."""

    def __init__(self, eps: EpsilonData, x, cutoff: int, lam_level: int):
        super().__init__(eps, cutoff, AmbientAlgebra(eps), lam_level, x)
        self.xinv = self.x.inverse()
        self._images = {}


class WModule(AmbientModule):
    """W(x) on kets |m>, m in Z^n_+(eps); requires eps_1 = eps_n = 1."""

    def __init__(self, eps: EpsilonData, x, cutoff: int):
        if eps.eps(1) != 1 or eps.eps(eps.n) != 1:
            raise ValueError("W(x) requires eps_1 = eps_n = 1")
        super().__init__(eps, x, cutoff, 1)

    def degree(self, label):
        return sum(label)

    def weight_of(self, label) -> Weight:
        return Weight(1, tuple(label))

    def _image(self, gen, m):
        kind, i = gen
        n = self.n
        out = []
        lm = list(m)
        if kind == "e":
            if i == 0:
                lm[0] += 1
                lm[1] += 1
                out = [(tuple(lm), self.x)]
            elif i == n:
                if m[n - 2]:
                    lm[n - 2] -= 1
                    lm[n - 1] -= 1
                    out = [(tuple(lm), qint(m[n - 2]))]
            else:
                if m[i - 1]:
                    lm[i - 1] -= 1
                    lm[i] += 1
                    out = [(tuple(lm), qint(m[i - 1]))]
        elif kind == "f":
            if i == 0:
                if m[1]:
                    lm[0] -= 1
                    lm[1] -= 1
                    out = [(tuple(lm), self.xinv * qint(m[1]))]
            elif i == n:
                lm[n - 2] += 1
                lm[n - 1] += 1
                out = [(tuple(lm), ONE)]
            else:
                if m[i]:
                    lm[i - 1] += 1
                    lm[i] -= 1
                    out = [(tuple(lm), qint(m[i]))]
        else:
            raise ValueError("apply_gen expects e/f, got %r" % (gen,))
        return [(l, c) for l, c in out if _valid_ket(l, self.eps)]

    def labels_by_delta(self, dvec):
        return _delta_kets(self.eps, dvec)

    def enumerate_labels(self, maxdeg=None):
        return _fock_kets(self.eps, self.cutoff if maxdeg is None else maxdeg)


class W2Module(AmbientModule):
    """W^(x2)(x) on pairs |m> (x) |m'> of Fock kets, split and enumerated
    as a two-factor tensor's kets are; requires eps_1 = eps_n = 0."""

    def __init__(self, eps: EpsilonData, x, cutoff: int):
        if eps.eps(1) != 0 or eps.eps(eps.n) != 0:
            raise ValueError("W^(x2)(x) requires eps_1 = eps_n = 0")
        super().__init__(eps, x, cutoff, 2)
        self._qpows = {}

    def degree(self, label):
        return sum(label[0]) + sum(label[1])

    def weight_of(self, label) -> Weight:
        m, mp = label
        return Weight(2, tuple(a + b for a, b in zip(m, mp)))

    def _qpow(self, i, e):
        """q_i^e as a Scalar, read from a table of the powers met."""
        key = (i, e)
        p = self._qpows.get(key)
        if p is None:
            p = self._qpows[key] = self.eps.qi(i) ** e
        return p

    def _image(self, gen, label):
        kind, i = gen
        n = self.n
        m, mp = label
        out = []

        def shifted(vec, pos, d):
            l = list(vec)
            l[pos - 1] += d
            return tuple(l)

        if kind == "e" and i == 0:
            out.append(((shifted(m, 1, 1), shifted(mp, 2, 1)), self.x))
            # q^-1 = -w^-2
            c = self.x * self._qpow(1, -m[0]) * self._qpow(2, -mp[1]) * Scalar.monomial(-1, -2)
            out.append(((shifted(m, 2, 1), shifted(mp, 1, 1)), -c))
        elif kind == "f" and i == 0:
            if m[0] and mp[1]:
                c = (
                    self.xinv
                    * self._qpow(1, mp[0])
                    * self._qpow(2, m[1])
                    * Scalar.monomial(-1, 2)
                    * qint(m[0])
                    * qint(mp[1])
                )
                out.append(((shifted(m, 1, -1), shifted(mp, 2, -1)), -c))
            if mp[0] and m[1]:
                c = self.xinv * qint(mp[0]) * qint(m[1])
                out.append(((shifted(m, 2, -1), shifted(mp, 1, -1)), c))
        elif kind == "e" and i == n:
            if m[n - 2] and mp[n - 1]:
                c = (
                    self._qpow(n - 1, mp[n - 2])
                    * self._qpow(n, m[n - 1])
                    * Scalar.monomial(-1, 2)
                    * qint(m[n - 2])
                    * qint(mp[n - 1])
                )
                out.append(((shifted(m, n - 1, -1), shifted(mp, n, -1)), -c))
            if mp[n - 2] and m[n - 1]:
                c = qint(mp[n - 2]) * qint(m[n - 1])
                out.append(((shifted(m, n, -1), shifted(mp, n - 1, -1)), c))
        elif kind == "f" and i == n:
            out.append(((shifted(m, n - 1, 1), shifted(mp, n, 1)), ONE))
            c = (
                self._qpow(n - 1, -m[n - 2])
                * self._qpow(n, -mp[n - 1])
                * Scalar.monomial(-1, -2)
            )
            out.append(((shifted(m, n, 1), shifted(mp, n - 1, 1)), -c))
        elif kind == "e":
            if m[i - 1]:
                c = self._qpow(i, mp[i - 1]) * self._qpow(i + 1, -mp[i]) * qint(m[i - 1])
                out.append(((shifted(shifted(m, i, -1), i + 1, 1), mp), c))
            if mp[i - 1]:
                out.append(((m, shifted(shifted(mp, i, -1), i + 1, 1)), qint(mp[i - 1])))
        elif kind == "f":
            if m[i]:
                out.append(((shifted(shifted(m, i, 1), i + 1, -1), mp), qint(m[i])))
            if mp[i]:
                c = self._qpow(i, -m[i - 1]) * self._qpow(i + 1, m[i]) * qint(mp[i])
                out.append(((m, shifted(shifted(mp, i, 1), i + 1, -1)), c))
        else:
            raise ValueError("apply_gen expects e/f, got %r" % (gen,))
        eps = self.eps
        return [(l, c) for l, c in out if _valid_ket(l[0], eps) and _valid_ket(l[1], eps)]

    def labels_by_delta(self, dvec):
        kets = partial(_delta_kets, self.eps)
        return _split(dvec, (kets, kets))

    def enumerate_labels(self, maxdeg=None):
        kets = partial(_fock_kets, self.eps)
        return _joint(self.cutoff if maxdeg is None else maxdeg, (kets, kets), (sum, sum))


class ModuleView(FockModule):
    """A module that forwards every protocol method to self.base, and
    shares its images; a subclass overrides only what differs.  A view
    whose images differ from its base's owns its _images.

    A view keeps whole weight spaces of its base: the kets whose weight's
    delta keeps(delta) accepts, every ket unless a subclass says less."""

    def __init__(self, base):
        super().__init__(base.eps, base.cutoff, base.algebra, base.lam_level, base.x)
        self.base = base
        self._images = base._images

    def degree(self, label):
        return self.base.degree(label)

    def weight_of(self, label) -> Weight:
        return self.base.weight_of(label)

    def atom_shift(self, atom):
        return self.base.atom_shift(atom)

    def _image(self, gen, label):
        return self.base.apply_gen(gen, label)

    def keeps(self, delta):
        return True

    def labels_by_delta(self, dvec):
        return self.base.labels_by_delta(dvec) if self.keeps(dvec) else []

    def enumerate_labels(self, maxdeg=None):
        for label in self.base.enumerate_labels(maxdeg):
            if self.keeps(self.weight_of(label).delta):
                yield label


class ImageMemo(ModuleView):
    """base seen through a memo of its images: apply_gen computes each
    (gen, label) image of base once, DROPPED included.  A breadth-first
    build acts through one, so the images it meets again and again are
    computed once and freed with the view when the build returns."""

    def __init__(self, base):
        super().__init__(base)
        self._images = {}

    @staticmethod
    def over(module):
        """module when it keeps its images already, else a memo of it."""
        return module if module._images is not None else ImageMemo(module)


class PullbackModule(ModuleView):
    """The U_D(eps)-module base seen over a target algebra through phi: a
    target generator acts on a ket by its phi word, k_mu as on base.  Its
    phi images are kept for the module's life."""

    def __init__(self, base, target):
        super().__init__(base)
        self.algebra = target  # TargetAlgebra from algebraops
        self._images = {}

    def atom_shift(self, atom):
        """Degree change of a target atom: the net shift of its phi image."""
        if atom[0] == "k":
            return 0
        word = self.algebra.phi(atom)
        return word_degree_profile(next(iter(word.terms)), self.base.atom_shift)[1]

    def _image(self, gen, label):
        """The phi image of gen on one ket, or DROPPED when the walk of the
        phi word on base dropped a ket."""
        word = self.algebra.phi(gen)
        ((images, dropped),) = eval_words_on_kets(word.suffix_trie(), (label,), self.base)
        return DROPPED if dropped else list(images.get(label, {}).items())


class TruncatedModule(PullbackModule):
    """A truncation tr_eps'(V): the weight spaces of a pull-back that its
    target algebra keeps (TargetAlgebra.keeps).  It acts as the pull-back
    does, so a phi image that leaves the window is DROPPED whole."""

    def keeps(self, delta):
        return self.algebra.keeps(delta)


class TensorModule(FockModule):
    """Tensor product of modules over one algebra, via the coproduct
    e -> 1(x)e + e(x)k^-1, f -> f(x)1 + k(x)f.  It keeps no images: a build
    that meets them again acts through an ImageMemo."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        a0 = factors[0].algebra
        for f in factors[1:]:
            if f.algebra.key != a0.key:
                raise ValueError("tensor factors over different algebras")
            if f.cutoff != factors[0].cutoff:
                # one joint degree window; factor-level drops must agree
                raise ValueError("tensor factors need one common cutoff")
        lam_level = sum(f.lam_level for f in factors)
        super().__init__(factors[0].eps, factors[0].cutoff, a0, lam_level, None)

    def degree(self, label):
        return sum(f.degree(l) for f, l in zip(self.factors, label))

    def weight_of(self, label) -> Weight:
        wt = self.factors[0].weight_of(label[0])
        for f, l in zip(self.factors[1:], label[1:]):
            wt = wt + f.weight_of(l)
        return wt

    def atom_shift(self, atom):
        return self.factors[0].atom_shift(atom)

    def _image(self, gen, label):
        kind, j = gen
        root = self.algebra.root(j)
        out = []
        nfac = len(self.factors)
        for p in range(nfac):
            img = self.factors[p].apply_gen(gen, label[p])
            if img is DROPPED:
                return DROPPED
            if not img:
                continue
            coeff = ONE
            # e_j passes the factors after p, f_j those before it
            for pp in (range(p + 1, nfac) if kind == "e" else range(p)):
                coeff = coeff * _coproduct_power(
                    self.factors[pp].weight_of(label[pp]), root, kind, self.eps
                )
            for l2, c in img:
                nl = label[:p] + (l2,) + label[p + 1 :]
                out.append((nl, coeff * c))
        return out

    def labels_by_delta(self, dvec):
        return _split(dvec, [f.labels_by_delta for f in self.factors])

    def enumerate_labels(self, maxdeg=None):
        return _joint(
            self.cutoff if maxdeg is None else maxdeg,
            [f.enumerate_labels for f in self.factors],
            [f.degree for f in self.factors],
        )


@lru_cache(maxsize=1024)
def _coproduct_power(wt, root, kind, eps):
    """The q-power that a tensor factor of weight wt gives the coproduct of
    e_j (q(wt, -alpha_j)) or f_j (q(wt, alpha_j)), root = alpha_j."""
    return qpair(wt, -root if kind == "e" else root, eps)


# -- vector-level actions ----------------------------------------------------


def _step(source, atom, rows):
    """One atom on rows {source ket: {label: coefficient}} of a row source,
    a module (Scalar rows) or a _Packing (packed rows): (image rows, the
    sources with a ket whose image was DROPPED).  A row whose image is zero
    is left out.  Every module action and every relation walk goes through
    here; the source gives its factor of k atoms per ket (_kfactor) and
    its image of each ket (_lookup)."""
    if atom[0] == "k":
        factor = source._kfactor((atom,))
        return {src: {l: c * factor[l] for l, c in terms.items()}
                for src, terms in rows.items()}, ()
    if atom[1] not in source.algebra.gen_indices:
        raise ValueError("generator index %r outside I" % (atom,))
    image_of, key = source._lookup(atom)
    out, dropped = {}, []
    for src, terms in rows.items():
        acc = {}
        drop = False
        for label, c in terms.items():
            image = image_of(key, label)
            if image is DROPPED:
                drop = True
                continue
            for l2, c2 in image:
                s = acc.get(l2)
                if s is None:
                    acc[l2] = c * c2
                else:
                    s += c * c2
                    if s:
                        acc[l2] = s
                    else:
                        del acc[l2]
        if drop:
            dropped.append(src)
        if acc:
            out[src] = acc
    return out, dropped


def _walk(source, node, rows, parts, outs, dropped):
    """Depth-first below one trie node: at each term end, add (term index,
    coefficient, rows) to parts[r] of its word r, and sum the word into
    outs[r] at its last end; the sources a step drops go to dropped[r] of
    each word r that owns the step's node.  A module-level function, not a
    closure, so no reference cycle keeps the rows alive until the cyclic
    GC runs."""
    children, ends, _ = node
    for r, idx, c, last, head, tail in ends:
        parts[r].append((idx, c, head, tail, rows))
        if last:
            _sum_parts(source, parts, r, outs)
    for atom, child in children.items():
        img, d = _step(source, atom, rows)
        if d:
            for r in child[2]:
                dropped[r].update(d)
        if img:
            _walk(source, child, img, parts, outs, dropped)


# the unit of packed, Scalar and spectral rows; a set, so that an int is
# not compared with a Scalar
_ONES = frozenset((1, ONE, SONE))


def _sum_parts(source, parts, r, outs):
    """Sum the parts of word r per row in term order into outs[r], leaving
    out a row whose sum is zero, and release the parts.  A part's term
    takes its leading k atoms (head) as a factor per image ket and its
    trailing ones (tail) as a factor per source ket, which the source gives
    (_kfactor).  On a basis ket those are the k steps of the walk: a k atom
    multiplies each entry by a nonzero factor of its ket's weight, so the
    sums, their zeros and their order are the stepped walk's."""
    word_parts, parts[r] = parts[r], None
    word_parts.sort(key=lambda part: part[0])
    out = {}
    for _, c, head, tail, prows in word_parts:
        hf = source._kfactor(head) if head else None
        tf = source._kfactor(tail) if tail else None
        c_one = c in _ONES  # skip the products by 1
        for src, vec in prows.items():
            m, one = (c, c_one) if tf is None else (c * tf[src], False)
            if hf is not None:  # a row of the part's own, m taken in
                vec, one = {label: m * x * hf[label] for label, x in vec.items()}, True
            acc = out.get(src)
            if acc is None:
                if hf is None:
                    vec = dict(vec) if one else {label: m * x for label, x in vec.items()}
                out[src] = vec
                continue
            for label, x in vec.items():
                s = acc.get(label)
                if s is None:
                    acc[label] = x if one else m * x
                else:
                    s += x if one else m * x
                    if s:
                        acc[label] = s
                    else:
                        del acc[label]
    outs[r] = {src: acc for src, acc in out.items() if acc}


def _eval_trie(trie, rows, source):
    """The words of a suffix trie (words.suffix_trie) on rows {source ket:
    {label: coefficient}} of a row source, as _step takes them: per word in
    order, (image rows, the set of source kets whose image under that word
    dropped a ket above the cutoff).

    Walks the trie once for all rows and words, so each atom is applied
    once per shared suffix, and stops below a node where every row's image
    is zero.  The images of a word's terms are summed per row in term
    order, as soon as the walk has passed the word's last term; a row whose
    sum is zero is left out."""
    count = len(trie[2])
    parts = [[] for _ in range(count)]
    outs = [{} for _ in range(count)]
    dropped = [set() for _ in range(count)]
    _walk(source, trie, rows, parts, outs, dropped)
    for r in range(count):
        if parts[r] is not None:  # the walk stopped above the last end
            _sum_parts(source, parts, r, outs)
    return list(zip(outs, dropped))


def _one_row(walked, what):
    """The vector of an action's one row; WindowError if a ket's image left."""
    rows, dropped = walked
    if dropped:
        raise WindowError("%s: the image of a ket left the degree window" % (what,))
    return FockVector.of(rows.get(None, {}))


def act(module, gen, vec: FockVector) -> FockVector:
    """Apply a generator ('e', i) or ('f', i); raises WindowError when the
    image of a ket of vec lies above the cutoff."""
    return _one_row(_step(module, gen, {None: vec.terms}), gen)


def eval_word(expr: WordExpr, vec: FockVector, module) -> FockVector:
    """Evaluate a WordExpr right-to-left on a vector; raises WindowError
    when a step of a term dropped a ket above the cutoff."""
    (walked,) = _eval_trie(expr.suffix_trie(), {None: vec.terms}, module)
    return _one_row(walked, "word")


def image_leaves_window(module, gen, wt: Weight):
    """Whether the image of a weight-wt vector under gen = (kind, j), of
    weight wt + alpha_j for e_j and wt - alpha_j for f_j, lies above the
    cutoff; atom_shift(gen) is that weight's change of degree.  Exact,
    since a ket's degree is its weight's degree: there act raises
    WindowError unless every ket's image is zero, and elsewhere it never
    raises."""
    return wt.degree() + module.atom_shift(gen) > module.cutoff


def eval_words_on_kets(trie, labels, module):
    """The words of a suffix trie on each basis ket of labels, in one walk:
    per word, ({label: image terms}, the set of labels whose image dropped
    a ket above the cutoff).  A label whose image is zero has no entry."""
    return _eval_trie(trie, {label: {label: ONE} for label in labels}, module)


def weight_block(module, wt: Weight):
    """Ordered basis labels of the wt weight space within the window."""
    if wt.lam != module.lam_level:
        return []
    if wt.degree() > module.cutoff or any(c < 0 for c in wt.delta):
        return []
    return sorted(module.labels_by_delta(wt.delta), key=label_key)


class RestrictedModule(ModuleView):
    """A W-type module restricted to one parity (the submodules W^+/W^-):
    the weight spaces whose degree has that parity."""

    def __init__(self, base, parity: int):
        super().__init__(base)
        self.parity_value = parity

    def keeps(self, delta):
        return sum(delta) % 2 == self.parity_value


# -- relation walks on packed integers ----------------------------------------
#
# A relation check reads whether each residual is zero, and its first
# nonzero one.  relation_walks runs its words on rows of Python ints: each
# coefficient, a polynomial P(w, z) with integer coefficients, is the int
# P(2^K, 2^(K D)) (Kronecker substitution), so a product or a sum is one
# int operation and a k_mu factor a signed power of 2.  The rows walk
# through _step, _sum_parts and _walk as Scalar rows do, with a _Packing
# as their source and a packed copy of each trie.
#
# Clearing.  An atom a has a factor F_a = f_a(w) z^t_a: f_a is the lcm of
# the w-denominators of a's image coefficients on the window times the
# power of w that lifts their lowest w-exponent to 0, and z^t_a does the
# same in z.  Its packed images are F_a times its images, polynomials, so a
# row after the atoms of a path holds the product of their F_a times its
# true entries.  A word gets one factor F_r = f_r(w) z^T_r, and each of
# its terms c_t * (atoms) the coefficient M_t = c_t F_r / prod F_a,
# a polynomial: the packed word is F_r times the true one, zero iff it is.
#
# Width.  A nonzero P has P(2^K, 2^(K D)) != 0 when every coefficient lies
# below 2^(K-1) in absolute value and every w-degree below D (z in an
# outer slot; D = 0 when no packed coefficient holds z).  Every zero test
# of a walk drops an entry, so the bound covers every row entry and partial
# sum: with G_a >= 1 the largest l1 norm of a packed image of a (its terms
# together) on the kets packed, an entry after a path has l1 norm at most
# the product of G_a along it, and every partial sum of word r at most
# B_r = sum_t |M_t|_1 prod_{a in t} G_a.  K = 1 + bit_length(max B_r)
# proves them all, and D = 1 + the largest sum of w-degrees.  A pull-back's
# images come from a packed walk of its phi words on its base, whose bound
# is proven the same way, and G of a phi image is that word's bound.
#
# Reading.  A nonzero packed entry is read as its word's Scalar walk on its
# source ket: a Scalar walk keeps one row per source and sums a word's terms
# in term order, so that one ket gives the coefficients, and their types,
# that a Scalar walk of the whole block gives.
#
# Fallback.  A coefficient with a denominator in z, or a ket that a walk
# meets outside the packed window: the check walks Scalar rows
# (eval_words_on_kets) from that block on.

# Kets per packed walk of a pull-back's phi words over its base window.  A
# walk keeps every row of its block alive at once: on verify-phi d (W2,
# cutoff 4) and verify-phi c (W, cutoff 8) blocks of 8 to 64 tie on CPU,
# and the whole window as one walk raised the peak RSS of the first by
# 0.6 MiB.
_PACK_BLOCK = 32


class _NoFit(Exception):
    """Packed rows cannot hold a coefficient, or a walk left the kets packed."""


class _Table(dict):
    """A table of the kets packed: a ket outside them raises _NoFit."""

    def __missing__(self, label):
        raise _NoFit


def _pieces(c):
    """((z-exponent, Scalar), ...) of a coefficient; _NoFit for a
    denominator in z."""
    if isinstance(c, Scalar):
        return ((0, c),)
    if len(c.den) > 1:
        raise _NoFit
    return tuple((c.noff + j, a) for j, a in enumerate(c.num) if not a.is_zero())


def _top(y):
    """The highest w-exponent of a nonzero Laurent polynomial."""
    return y.noff + y.stride * (len(y.num) - 1)


def _clearing(ys):
    """f(w) that clears Scalars ys: the lcm of their w-denominators times
    the power of w that lifts their lowest w-exponent to 0, so that every
    f y is a polynomial.  Each distinct value is cleared once, in the order
    ys first give it."""
    ys = list(dict.fromkeys(ys))
    f = ONE
    for y in ys:
        if y.den != (1,) and (y * f).den != (1,):
            f = f * Scalar(0, (y * f).dense()[2], (1,))
    # the lowest w-exponent of f y is f.noff + y.noff
    return f * Scalar.monomial(1, -f.noff - min((y.noff for y in ys), default=0))


def _poly_int(y, K):
    """A polynomial y (a Scalar of denominator 1, exponents >= 0) at w = 2^K."""
    v = 0
    step = K * y.stride
    for c in reversed(y.num):
        v = (v << step) + c
    return v << (K * y.noff)


class _Factor:
    """F = f(w) z^t of an atom and the bounds of its packed images: l1 norm
    at most G and w-degree at most deg; zused says that a packed image
    holds a power of z."""

    __slots__ = ("f", "t", "G", "deg", "zused")

    def __init__(self, f=ONE, t=0, G=1, deg=0, zused=False):
        self.f, self.t, self.G, self.deg, self.zused = f, t, G, deg, zused

    @staticmethod
    def of(images):
        """The factor of an atom with these images (tuples or DROPPED)."""
        images = [img for img in images if img is not DROPPED]
        # each distinct coefficient once, in the order the images give it
        split = {c: _pieces(c) for img in images for _, c in img}
        f = _clearing([a for pieces in split.values() for _, a in pieces])
        norms, deg, zs = {}, 0, set()
        for c, pieces in split.items():
            norm = 0
            for z, a in pieces:
                y = a * f
                norm += sum(map(abs, y.num))
                deg = max(deg, _top(y))
                zs.add(z)
            norms[c] = norm
        if not zs:  # no coefficient to pack
            return _Factor()
        G = max([1] + [sum([norms[c] for _, c in img]) for img in images])
        return _Factor(f, -min(zs), G, deg, max(zs) > min(zs))

    def packer(self, K, KD):
        """pack(image): a packed image, F times each coefficient at w =
        2^K, z = 2^KD, or DROPPED; each distinct coefficient is packed
        once per packer."""
        f, t, ints = self.f, self.t, {}

        def packed(c):
            v = ints.get(c)
            if v is None:
                v = ints[c] = sum(_poly_int(a * f, K) << (KD * (z + t)) for z, a in _pieces(c))
            return v

        def pack(image):
            if image is DROPPED:
                return image
            return tuple((label, packed(c)) for label, c in image)

        return pack


class _KFactor:
    """k_mu on the weights of a window: the sign and power of w of
    q(weight, mu) per weight, lifted by the factor w^s."""

    def __init__(self, mu, weights, eps):
        self.exps = [qpair_exponent(wt, mu, eps) for wt in weights]
        lo = min((e for _, e in self.exps), default=0)
        hi = max((e for _, e in self.exps), default=0)
        self.s = -lo
        self.factor = _Factor(Scalar.monomial(1, self.s), deg=hi - lo)

    def table(self, K):
        """[sign * 2^shift] per weight: the packed q-power times w^s."""
        s, shared = self.s, {}
        return [shared.setdefault((sign, e), sign << (K * (e + s))) for sign, e in self.exps]


class _Word:
    """A WordExpr cleared of denominators over the factors of its atoms:
    the word is (sum_t M_t z^zpow_t row_t) / (f z^T), each M_t a
    polynomial in w and row_t a packed row after the atoms of term t."""

    def __init__(self, expr, factors):
        ys, ts, gs, degs = [], [], [], []
        for atoms, c in expr.terms.items():
            if not isinstance(c, Scalar):
                raise _NoFit
            fa, t, G, deg = ONE, 0, 1, 0
            for atom in atoms:
                F = factors.get(atom, _UNIT)
                fa, t, G, deg = fa * F.f, t + F.t, G * F.G, deg + F.deg
            ys.append(c / fa)
            ts.append(t)
            gs.append(G)
            degs.append(deg)
        self.f = _clearing(ys)
        self.T = max(ts, default=0)
        ms = [y * self.f for y in ys]
        self.coeffs = [(m, self.T - t) for m, t in zip(ms, ts)]
        self.bound = sum(sum(map(abs, m.num)) * G for m, G in zip(ms, gs))
        self.deg = max((_top(m) + deg for m, deg in zip(ms, degs)), default=0)
        self.zused = any(self.T - t for t in ts)

    def factor(self, zused):
        """The factor of this word's packed images, as an atom's."""
        return _Factor(self.f, self.T, max(self.bound, 1), self.deg, zused)

    def packed(self, K, KD):
        """M_t z^zpow_t packed, per term in order."""
        return [_poly_int(m, K) << (KD * zp) for m, zp in self.coeffs]


_UNIT = _Factor()  # an atom outside I, which a walk refuses when it reaches it


def _packed_trie(node, coeffs):
    """A copy of a suffix trie whose term ends hold the packed coefficients
    coeffs[word][term] in place of the word's."""
    children, ends, owners = node
    return [
        {atom: _packed_trie(child, coeffs) for atom, child in children.items()},
        [[r, idx, coeffs[r][idx], last, head, tail] for r, idx, _, last, head, tail in ends],
        owners,
    ]


class _ScalarImages:
    """The images of a module that gives them as Scalars, on its window:
    through apply_gen when its class redefines it, else _image under the
    window rule, which leaves the module's Scalar cache alone (a view's
    _image reads its base's apply_gen, and so fills the base's cache)."""

    bound = deg = 0  # no walk of their own

    def __init__(self, module, gens):
        if type(module).apply_gen is FockModule.apply_gen:
            image = lambda gen, label: module._windowed(module._image(gen, label))
        else:
            image = module.apply_gen
        self.labels = list(module.enumerate_labels())
        self.raw = {gen: [image(gen, label) for label in self.labels] for gen in gens}
        self.factors = {gen: _Factor.of(images) for gen, images in self.raw.items()}
        self.zused = any(F.zused for F in self.factors.values())

    def pack(self, K, D):
        # each atom's Scalar images go as its packed ones come
        tables = {}
        while self.raw:
            gen, images = self.raw.popitem()
            pack = self.factors[gen].packer(K, K * D)
            tables[gen] = _Table(zip(self.labels, map(pack, images)))
        return tables


class _PhiImages:
    """The images of a pull-back: its phi words walked on packed rows of
    its base, over the base window in blocks."""

    def __init__(self, module, gens):
        self.module, self.gens = module, gens
        words = [module.algebra.phi(gen) for gen in gens]
        self.inner = _Packing(module.base, [words], [suffix_trie(words)])
        self.labels = self.inner.labels
        self.bound, self.deg, self.zused = self.inner.bound, self.inner.deg, self.inner.zused
        self.factors = {
            gen: word.factor(self.zused) for gen, word in zip(gens, self.inner.words[0])
        }

    def pack(self, K, D):
        self.inner.pack(K, D)
        tables = {gen: _Table() for gen in self.gens}
        for i in range(0, len(self.labels), _PACK_BLOCK):
            block = self.labels[i : i + _PACK_BLOCK]
            for gen, (rows, dropped) in zip(self.gens, self.inner.rows(0, block)):
                table = tables[gen]
                for label in block:
                    row = rows.get(label)
                    if label in dropped:
                        table[label] = DROPPED
                    else:
                        table[label] = self.module._windowed(list(row.items())) if row else ()
        return tables


def _images_of(module, gens):
    """The packed source of module's images: a pull-back walks its phi
    words, and any other module (or a class that redefines apply_gen or
    _image) gives Scalars."""
    cls = type(module)
    if cls.apply_gen is FockModule.apply_gen and cls._image is PullbackModule._image:
        return _PhiImages(module, gens)
    return _ScalarImages(module, gens)


class _Packing:
    """Bands of words (lists of WordExprs) on one module, with their merged
    suffix tries, cleared and bounded; pack(K, D) lays out their packed
    images and tries at a width that the bounds prove, and rows(i, labels)
    walks band i.  The row source of a packed walk (see _step)."""

    def __init__(self, module, bands, tries):
        atoms = {atom for band in bands for expr in band for term in expr.terms for atom in term}
        if any(kind not in ("e", "f", "k") for kind, _ in atoms):
            raise _NoFit
        self.algebra = module.algebra
        gens = [a for a in atoms if a[0] != "k" and a[1] in self.algebra.gen_indices]
        self.images = _images_of(module, gens)
        self.labels = self.images.labels
        mus = {a[1] for a in atoms if a[0] == "k"}
        # k factors read a ket's weight by its index: one table per mu, of
        # one signed power of 2 per weight, shares the window's kets
        weight_ids, self.wid = {}, _Table()
        if mus:
            for label in self.labels:
                wt = module.weight_of(label)
                self.wid[label] = weight_ids.setdefault(wt, len(weight_ids))
        self.kfactors = {mu: _KFactor(mu, weight_ids, module.eps) for mu in mus}
        factors = dict(self.images.factors)
        factors.update((("k", mu), kf.factor) for mu, kf in self.kfactors.items())
        self.module, self.bands, self.tries = module, bands, tries
        self.words = [[_Word(expr, factors) for expr in band] for band in bands]
        words = [w for band in self.words for w in band]
        self.bound = max([self.images.bound] + [w.bound for w in words])
        self.deg = max([self.images.deg] + [w.deg for w in words])
        self.zused = self.images.zused or any(w.zused for w in words)

    def proven_width(self):
        """(K, D): the narrowest slots the bounds prove."""
        return self.bound.bit_length() + 1, (self.deg + 1 if self.zused else 0)

    def pack(self, K, D):
        """Lay out the packed images and tries at K bits per w-slot and D
        w-slots per power of z; ValueError below the proven width."""
        if self.bound >> (K - 1):
            raise ValueError("%d-bit slots: below the proven bound %d" % (K, self.bound))
        if self.zused and D <= self.deg:
            raise ValueError("%d w-slots per z: below the proven degree %d" % (D, self.deg))
        self.K, self.D = K, D
        self.tables = self.images.pack(K, D)
        self.ktables = {mu: kf.table(K) for mu, kf in self.kfactors.items()}
        self.kfolds = {}
        self.ptries = [
            _packed_trie(trie, [word.packed(K, K * D) for word in words])
            for trie, words in zip(self.tries, self.words)
        ]
        return self

    def _lookup(self, gen):
        """(getitem, gen's packed table): the packed image of gen on one
        ket, table[label], and _NoFit outside the kets packed."""
        return getitem, self.tables[gen]

    def _kfactor(self, ks):
        """The k atoms ks on packed rows: {label: the product of their signed
        powers of 2 at the label's weight}, filled as read; _NoFit for a ket
        outside the kets packed."""
        fold = self.kfolds.get(ks)
        if fold is None:
            per_weight = list(map(prod, zip(*(self.ktables[mu] for _, mu in ks))))
            fold = self.kfolds[ks] = _KFold(self.wid, per_weight)
        return fold

    def rows(self, i, labels):
        """The words of band i on each basis ket of labels, as
        eval_words_on_kets gives them, with packed rows: the walk of the
        band's packed trie."""
        return _eval_trie(self.ptries[i], {label: {label: 1} for label in labels}, self)

    def walk(self, i, labels):
        """rows(i, labels), each word's rows read as its Scalar walk."""
        return [
            (_Decoded(rows, expr, self.module), dropped)
            for (rows, dropped), expr in zip(self.rows(i, labels), self.bands[i])
        ]


class _KFold(dict):
    """{label: a packed k factor}, read per weight index as first met."""

    def __init__(self, wid, per_weight):
        self.wid, self.per_weight = wid, per_weight

    def __missing__(self, label):
        v = self[label] = self.per_weight[self.wid[label]]
        return v


class _Decoded(Mapping):
    """Packed rows {source: {label: int}} of a word, read as {label:
    coefficient} rows: a source's row is the word's Scalar walk on it."""

    __slots__ = ("rows", "expr", "module")

    def __init__(self, rows, expr, module):
        self.rows, self.expr, self.module = rows, expr, module

    def __getitem__(self, src):
        self.rows[src]  # KeyError for a zero row, as a dict raises
        ((rows, _),) = eval_words_on_kets(self.expr.suffix_trie(), [src], self.module)
        return rows[src]

    def __contains__(self, src):
        return src in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class _SuiteWalks:
    """The walks of relation_walks: packed while the suite packs, on
    Scalar rows from the first block that does not."""

    def __init__(self, module, bands):
        self.module = module
        self.tries = [suffix_trie(band) for band in bands]
        try:
            packing = _Packing(module, bands, self.tries)
            self.packing = packing.pack(*packing.proven_width())
        except _NoFit:
            self.packing = None

    def walk(self, i, labels):
        if self.packing is not None:
            try:
                return self.packing.walk(i, labels)
            except _NoFit:
                self.packing = None
        return eval_words_on_kets(self.tries[i], labels, self.module)


def relation_walks(module, bands):
    """walk(labels) per band, a list of WordExprs: the words of the band on
    each basis ket of labels, as eval_words_on_kets gives them, from one
    walk of their merged suffix trie.  A relation check's walks: exact, on
    packed integers when the suite packs (see above), else on Scalar rows."""
    walks = _SuiteWalks(module, bands)
    return [partial(walks.walk, i) for i in range(len(bands))]
