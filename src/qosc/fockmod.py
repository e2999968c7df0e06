"""The modules W(x), W^(x2)(x), their truncations and tensor products.

All modules are materialized lazily on sparse vectors over ket labels.
A ket label is an integer tuple m (for W), a pair of tuples (for the
rank-two Fock space) or a nested tuple of factor labels (for tensor
products).  Degrees above the module cutoff are dropped and flagged.
"""

from __future__ import annotations

import itertools

from .lattice import EpsilonData, Weight, qpair, simple_root
from .scalars import ONE, Scalar, qint
from .words import WordExpr, word_degree_profile


class WindowError(RuntimeError):
    """An assertion would have depended on kets beyond the degree cutoff."""


class FockVector:
    """Sparse vector: {label: coefficient}, plus a sticky overflow flag."""

    __slots__ = ("terms", "overflow")

    def __init__(self, terms=None, overflow=False):
        self.terms = {}
        if terms:
            for l, c in terms.items():
                if not c.is_zero():
                    self.terms[l] = c
        self.overflow = overflow

    @staticmethod
    def basis(label):
        return FockVector({label: ONE})

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
        v = FockVector()
        v.terms = out
        v.overflow = self.overflow or other.overflow
        return v

    def __sub__(self, other):
        return self + other.scale(Scalar.from_int(-1))

    def scale(self, c):
        if c.is_zero():
            return FockVector(overflow=self.overflow)
        v = FockVector()
        v.terms = {l: c * x for l, x in self.terms.items()}
        v.overflow = self.overflow
        return v

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
        return "FockVector(%s%s)" % (
            " + ".join(bits),
            ", overflow" if self.overflow else "",
        )


def tensor_vector(va: FockVector, vb: FockVector) -> FockVector:
    """va (x) vb, with labels (la, lb) in the order of va's then vb's terms."""
    out = FockVector()
    for la, ca in va.terms.items():
        for lb, cb in vb.terms.items():
            out.terms[(la, lb)] = ca * cb
    out.overflow = va.overflow or vb.overflow
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

    def root(self, i) -> Weight:
        return simple_root(i, self.eps)

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
    for tensor products).  Subclasses define degree, weight_of, apply_gen,
    labels_by_delta and enumerate_labels(maxdeg=None).
    """

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


class WModule(FockModule):
    """W(x) on kets |m>, m in Z^n_+(eps); requires eps_1 = eps_n = 1."""

    def __init__(self, eps: EpsilonData, x, cutoff: int):
        if eps.eps(1) != 1 or eps.eps(eps.n) != 1:
            raise ValueError("W(x) requires eps_1 = eps_n = 1")
        super().__init__(eps, cutoff, AmbientAlgebra(eps), 1, x)
        self.xinv = self.x.inverse()
        self._cache = {}

    def degree(self, label):
        return sum(label)

    def weight_of(self, label) -> Weight:
        return Weight(1, tuple(label))

    def apply_gen(self, gen, m):
        key = (gen, m)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
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
        out = [(l, c) for (l, c) in out if _valid_ket(l, self.eps)]
        self._cache[key] = out
        return out

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


class W2Module(FockModule):
    """W^(x2)(x) on pairs |m> (x) |m'>; requires eps_1 = eps_n = 0."""

    def __init__(self, eps: EpsilonData, x, cutoff: int):
        if eps.eps(1) != 0 or eps.eps(eps.n) != 0:
            raise ValueError("W^(x2)(x) requires eps_1 = eps_n = 0")
        super().__init__(eps, cutoff, AmbientAlgebra(eps), 2, x)
        self.xinv = self.x.inverse()
        self._cache = {}

    def degree(self, label):
        return sum(label[0]) + sum(label[1])

    def weight_of(self, label) -> Weight:
        m, mp = label
        return Weight(2, tuple(a + b for a, b in zip(m, mp)))

    def _qpow(self, i, e):
        # q_i^e as a Scalar
        return self.eps.qi(i) ** e

    def apply_gen(self, gen, label):
        key = (gen, label)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
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
        out = [
            (l, c)
            for (l, c) in out
            if _valid_ket(l[0], self.eps) and _valid_ket(l[1], self.eps)
        ]
        self._cache[key] = out
        return out

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
    """A module that forwards every protocol method to self.base; a
    subclass overrides only what differs."""

    def __init__(self, base):
        super().__init__(base.eps, base.cutoff, base.algebra, base.lam_level, base.x)
        self.base = base

    def degree(self, label):
        return self.base.degree(label)

    def weight_of(self, label) -> Weight:
        return self.base.weight_of(label)

    def atom_shift(self, atom):
        return self.base.atom_shift(atom)

    def apply_gen(self, gen, label):
        return self.base.apply_gen(gen, label)

    def labels_by_delta(self, dvec):
        return self.base.labels_by_delta(dvec)

    def enumerate_labels(self, maxdeg=None):
        return self.base.enumerate_labels(maxdeg)


class PullbackModule(ModuleView):
    """The U_D(eps)-module base seen over a target algebra through phi: a
    target generator acts on a ket by its phi word, k_mu as on base."""

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

    def phi_image(self, gen, label):
        """(terms, whether a ket above the cutoff was dropped) of the phi
        word of gen on one ket; computed once per (gen, label)."""
        key = (gen, label)
        hit = self._images.get(key)
        if hit is None:
            images, dropped = eval_word_on_kets(self.algebra.phi(gen), (label,), self.base)
            hit = self._images[key] = (list(images.get(label, {}).items()), bool(dropped))
        return hit

    def apply_gen(self, gen, label):
        image, dropped = self.phi_image(gen, label)
        if dropped:
            raise WindowError("phi image of %r on |%s> leaves the window"
                              % (gen, ket_str(label)))
        return image


class TruncatedModule(PullbackModule):
    """A truncation tr_eps'(V): the kets of a pull-back supported on the
    kept indices of its target algebra.  Its action keeps what is left of a
    phi image that leaves the window; callers flag only the kets that their
    own cutoff drops."""

    def apply_gen(self, gen, label):
        return self.phi_image(gen, label)[0]

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
    e -> 1(x)e + e(x)k^-1, f -> f(x)1 + k(x)f."""

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

    def apply_gen(self, gen, label):
        kind, j = gen
        root = self.algebra.root(j)
        out = []
        nfac = len(self.factors)
        for p in range(nfac):
            img = self.factors[p].apply_gen(gen, label[p])
            if not img:
                continue
            coeff = ONE
            if kind == "e":
                for pp in range(p + 1, nfac):
                    coeff = coeff * qpair(
                        self.factors[pp].weight_of(label[pp]), -root, self.eps
                    )
            else:
                for pp in range(p):
                    coeff = coeff * qpair(
                        self.factors[pp].weight_of(label[pp]), root, self.eps
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


def _sub_deltas(t):
    return itertools.product(*[range(ti + 1) for ti in t])


# -- vector-level actions ----------------------------------------------------


def _step(module, atom, rows):
    """One atom on rows {source: {label: Scalar}}: (image rows, the sources
    whose image dropped a ket above the cutoff).  A row whose image is zero
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
    cutoff, degree, apply_gen = module.cutoff, module.degree, module.apply_gen
    for src, terms in rows.items():
        acc = {}
        drop = False
        for label, c in terms.items():
            for l2, c2 in apply_gen(atom, label):
                if degree(l2) > cutoff:
                    drop = True
                    continue
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


def _walk(module, node, rows, parts, dropped):
    """Depth-first below one trie node: collect (term, rows) at each word
    end into parts and the dropping sources into dropped.  A module-level
    function, not a closure, so no reference cycle keeps the rows alive
    until the cyclic GC runs."""
    children, end = node
    if end is not None:
        parts.append((end, rows))
    for atom, child in children.items():
        img, d = _step(module, atom, rows)
        dropped.update(d)
        if img:
            _walk(module, child, img, parts, dropped)


def _eval_terms(expr: WordExpr, rows, module):
    """expr on rows {source: {label: Scalar}}: (image rows, the set of
    sources whose image dropped a ket above the cutoff).

    Walks the suffix trie of expr once for all rows, so each atom is
    applied once per shared suffix, and stops below a node where every
    row's image is zero.  The images of the terms are summed per row in
    the order of expr.terms; a row whose sum is zero is left out."""
    parts = []
    dropped = set()
    _walk(module, expr.suffix_trie(), rows, parts, dropped)
    parts.sort(key=lambda part: part[0][0])
    out = {}
    for (_, c), prows in parts:
        for src, vec in prows.items():
            acc = out.get(src)
            if acc is None:
                acc = out[src] = {}
            for label, x in vec.items():
                p = c * x
                s = acc.get(label)
                s = p if s is None else s + p
                if s.is_zero():
                    acc.pop(label, None)
                else:
                    acc[label] = s
    return {src: acc for src, acc in out.items() if acc}, dropped


def _vector(terms, overflow):
    v = FockVector(overflow=overflow)
    v.terms = terms
    return v


def act(module, gen, vec: FockVector) -> FockVector:
    """Apply a generator ('e', i) or ('f', i); drops kets above the cutoff
    and marks the overflow flag."""
    rows, dropped = _step(module, gen, {None: vec.terms})
    return _vector(rows.get(None, {}), vec.overflow or bool(dropped))


def act_k(module, mu: Weight, vec: FockVector) -> FockVector:
    rows, _ = _step(module, ("k", mu), {None: vec.terms})
    return _vector(rows.get(None, {}), vec.overflow)


def eval_word(expr: WordExpr, vec: FockVector, module) -> FockVector:
    """Evaluate a WordExpr right-to-left on a vector."""
    rows, dropped = _eval_terms(expr, {None: vec.terms}, module)
    return _vector(rows.get(None, {}), vec.overflow or bool(dropped))


def eval_word_on_kets(expr: WordExpr, labels, module):
    """expr on each basis ket of labels in one trie walk: ({label: image
    terms}, the set of labels whose image dropped a ket above the cutoff).
    A label whose image is zero has no entry."""
    return _eval_terms(expr, {label: {label: ONE} for label in labels}, module)


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
