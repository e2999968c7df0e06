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
from functools import lru_cache

from .lattice import EpsilonData, Weight, qpair, simple_root
from .scalars import ONE, Scalar, qint
from .words import WordExpr, word_degree_profile


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
        self.name = "U_D(%s)" % (eps.seq,)
        self.key = ("ambient", eps.seq)
        self.roots = {i: simple_root(i, eps) for i in eps.I}

    def root(self, i) -> Weight:
        return self.roots[i]

    def __eq__(self, other):
        return isinstance(other, AmbientAlgebra) and self.eps == other.eps

    def __hash__(self):
        return hash(self.key)


def _valid_ket(m, eps: EpsilonData):
    for i, mi in enumerate(m):
        if mi < 0:
            return False
        if eps.seq[i] == 1 and mi > 1:
            return False
    return True


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

    def parity(self, label):
        return self.degree(label) % 2

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
            hit = self._image(gen, label)
            # a list is an image at any degree, whose terms share one degree;
            # a view's base answers with a tuple or DROPPED, decided already
            # in the same window
            if type(hit) is list:
                hit = DROPPED if hit and self.degree(hit[0][0]) > self.cutoff else tuple(hit)
            if images is not None:
                images[key] = hit
        return hit


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
        m = tuple(dvec)
        return [m] if _valid_ket(m, self.eps) else []

    def enumerate_labels(self, maxdeg=None):
        maxdeg = self.cutoff if maxdeg is None else maxdeg
        ranges = [
            range(0, 2 if self.eps.seq[i] == 1 else maxdeg + 1)
            for i in range(self.n)
        ]
        for m in itertools.product(*ranges):
            if sum(m) <= maxdeg:
                yield m


class W2Module(AmbientModule):
    """W^(x2)(x) on pairs |m> (x) |m'>; requires eps_1 = eps_n = 0."""

    def __init__(self, eps: EpsilonData, x, cutoff: int):
        if eps.eps(1) != 0 or eps.eps(eps.n) != 0:
            raise ValueError("W^(x2)(x) requires eps_1 = eps_n = 0")
        super().__init__(eps, x, cutoff, 2)

    def degree(self, label):
        return sum(label[0]) + sum(label[1])

    def weight_of(self, label) -> Weight:
        m, mp = label
        return Weight(2, tuple(a + b for a, b in zip(m, mp)))

    def _qpow(self, i, e):
        # q_i^e as a Scalar
        return self.eps.qi(i) ** e

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
        per = []
        for i, t in enumerate(dvec):
            if t < 0:
                return []
            if self.eps.seq[i] == 1:
                opts = [(a, t - a) for a in (0, 1) if 0 <= t - a <= 1]
            else:
                opts = [(a, t - a) for a in range(t + 1)]
            if not opts:
                return []
            per.append(opts)
        out = []
        for combo in itertools.product(*per):
            m = tuple(a for a, _ in combo)
            mp = tuple(b for _, b in combo)
            out.append((m, mp))
        return out

    def enumerate_labels(self, maxdeg=None):
        maxdeg = self.cutoff if maxdeg is None else maxdeg
        ranges = [
            range(0, 2 if self.eps.seq[i] == 1 else maxdeg + 1)
            for i in range(self.n)
        ]
        singles = [
            m
            for m in itertools.product(*ranges)
            if sum(m) <= maxdeg
        ]
        for m in singles:
            for mp in singles:
                if sum(m) + sum(mp) <= maxdeg:
                    yield (m, mp)


class ModuleView(FockModule):
    """A module that forwards every protocol method to self.base, and
    shares its images; a subclass overrides only what differs.  A view
    whose images differ from its base's owns its _images."""

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

    def labels_by_delta(self, dvec):
        return self.base.labels_by_delta(dvec)

    def enumerate_labels(self, maxdeg=None):
        return self.base.enumerate_labels(maxdeg)


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
    """A truncation tr_eps'(V): the kets of a pull-back supported on the
    kept indices of its target algebra.  It acts as the pull-back does, so
    a phi image that leaves the window is DROPPED whole."""

    def _kept_supported(self, delta):
        kept = self.algebra.kept
        return all(c == 0 for i, c in enumerate(delta, start=1) if i not in kept)

    def labels_by_delta(self, dvec):
        return self.base.labels_by_delta(dvec) if self._kept_supported(dvec) else []

    def enumerate_labels(self, maxdeg=None):
        for label in self.base.enumerate_labels(maxdeg):
            if self._kept_supported(self.weight_of(label).delta):
                yield label


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
        out = []

        def rec(idx, remaining, acc):
            if idx == len(self.factors) - 1:
                for l in self.factors[idx].labels_by_delta(remaining):
                    out.append(tuple(acc + [l]))
                return
            f = self.factors[idx]
            for sub in _sub_deltas(remaining):
                for l in f.labels_by_delta(sub):
                    rec(
                        idx + 1,
                        tuple(r - s for r, s in zip(remaining, sub)),
                        acc + [l],
                    )

        rec(0, tuple(dvec), [])
        return out

    def enumerate_labels(self, maxdeg=None):
        maxdeg = self.cutoff if maxdeg is None else maxdeg

        def rec(idx, budget):
            if idx == len(self.factors):
                yield ()
                return
            for l in self.factors[idx].enumerate_labels(budget):
                d = self.factors[idx].degree(l)
                for rest in rec(idx + 1, budget - d):
                    yield (l,) + rest

        yield from rec(0, maxdeg)


@lru_cache(maxsize=1024)
def _coproduct_power(wt, root, kind, eps):
    """The q-power that a tensor factor of weight wt gives the coproduct of
    e_j (q(wt, -alpha_j)) or f_j (q(wt, alpha_j)), root = alpha_j."""
    return qpair(wt, -root if kind == "e" else root, eps)


def _sub_deltas(t):
    return itertools.product(*[range(ti + 1) for ti in t])


# -- vector-level actions ----------------------------------------------------


def _step(module, atom, rows):
    """One atom on rows {source: {label: Scalar}}: (image rows, the sources
    with a ket whose image apply_gen DROPPED).  A row whose image is zero
    is left out.  Every module action goes through here."""
    out = {}
    if atom[0] == "k":
        mu, eps, weight_of = atom[1], module.eps, module.weight_of
        factors = {}  # one q-power per distinct label, shared by the rows
        for src, terms in rows.items():
            img = {}
            for l, c in terms.items():
                f = factors.get(l)
                if f is None:
                    f = factors[l] = qpair(weight_of(l), mu, eps)
                img[l] = c * f
            if img:
                out[src] = img
        return out, ()
    if atom[1] not in module.algebra.gen_indices:
        raise ValueError("generator index %r outside I" % (atom,))
    dropped = []
    apply_gen = module.apply_gen
    for src, terms in rows.items():
        acc = {}
        drop = False
        for label, c in terms.items():
            image = apply_gen(atom, label)
            if image is DROPPED:
                drop = True
                continue
            for l2, c2 in image:
                p = c * c2
                s = acc.get(l2)
                s = p if s is None else s + p
                if s.is_zero():
                    acc.pop(l2, None)
                else:
                    acc[l2] = s
        if drop:
            dropped.append(src)
        if acc:
            out[src] = acc
    return out, dropped


def _walk(module, node, rows, parts, outs, dropped):
    """Depth-first below one trie node: at each term end, add (term index,
    coefficient, rows) to parts[r] of its word r, and sum the word into
    outs[r] at its last end; add the sources a step drops to dropped[r] of
    each word r that owns the step's node.  A module-level function, not a
    closure, so no reference cycle keeps the rows alive until the cyclic
    GC runs."""
    children, ends, _ = node
    for r, idx, c, last in ends:
        parts[r].append((idx, c, rows))
        if last:
            _sum_parts(parts, r, outs)
    for atom, child in children.items():
        img, d = _step(module, atom, rows)
        if d:
            for r in child[2]:
                dropped[r].update(d)
        if img:
            _walk(module, child, img, parts, outs, dropped)


def _sum_parts(parts, r, outs):
    """Sum the parts of word r per row in term order into outs[r], leaving
    out a row whose sum is zero, and release the parts."""
    word_parts, parts[r] = parts[r], None
    word_parts.sort(key=lambda part: part[0])
    out = {}
    for _, c, prows in word_parts:
        one = c.is_one()  # skip the products by 1
        for src, vec in prows.items():
            acc = out.get(src)
            if acc is None:
                out[src] = dict(vec) if one else {label: c * x for label, x in vec.items()}
                continue
            for label, x in vec.items():
                p = x if one else c * x
                s = acc.get(label)
                s = p if s is None else s + p
                if s.is_zero():
                    acc.pop(label, None)
                else:
                    acc[label] = s
    outs[r] = {src: acc for src, acc in out.items() if acc}


def _eval_trie(trie, rows, module):
    """The words of a suffix trie (words.suffix_trie) on rows {source:
    {label: Scalar}}: per word in order, (image rows, the set of sources
    whose image under that word dropped a ket above the cutoff).

    Walks the trie once for all rows and words, so each atom is applied
    once per shared suffix, and stops below a node where every row's image
    is zero.  The images of a word's terms are summed per row in term
    order, as soon as the walk has passed the word's last term; a row whose
    sum is zero is left out."""
    count = len(trie[2])
    parts = [[] for _ in range(count)]
    outs = [{} for _ in range(count)]
    dropped = [set() for _ in range(count)]
    _walk(module, trie, rows, parts, outs, dropped)
    for r in range(count):
        if parts[r] is not None:  # the walk stopped above the last end
            _sum_parts(parts, r, outs)
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


def weight_block(module, wt: Weight, maxdeg=None):
    """Ordered basis labels of the wt weight space within the window."""
    if wt.lam != module.lam_level:
        return []
    maxdeg = module.cutoff if maxdeg is None else maxdeg
    if wt.degree() > maxdeg or any(c < 0 for c in wt.delta):
        return []
    labels = module.labels_by_delta(wt.delta)
    return sorted(labels, key=label_key)


class RestrictedModule(ModuleView):
    """A W-type module restricted to one parity (the submodules W^+/W^-)."""

    def __init__(self, base, parity: int):
        super().__init__(base)
        self.parity_value = parity

    def labels_by_delta(self, dvec):
        if sum(dvec) % 2 != self.parity_value:
            return []
        return self.base.labels_by_delta(dvec)

    def enumerate_labels(self, maxdeg=None):
        for label in self.base.enumerate_labels(maxdeg):
            if self.parity(label) == self.parity_value:
                yield label
