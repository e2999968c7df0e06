"""Defining relations, the phi homomorphisms, and truncation checks.

Relations are WordExprs that must evaluate to the zero operator on every
module; truncation sends a module over the big algebra to a module over a
quantum affine algebra of type C or D acting through q-commutator words.
"""

from __future__ import annotations

import itertools
from functools import partial

from .fockmod import (
    FockVector,
    PullbackModule,
    RestrictedModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WindowError,
    WModule,
    eval_word,  # not called here; perfbench/selftest.py checks the tracer rebinds it
    eval_words_on_kets,
    ket_str,
    relation_walks,
)
from .lattice import EpsilonData, Weight, bilinear, qpair, simple_root
from .scalars import MINUS_ONE, ONE, Q, QTILDE, q_power, qbinom_at, qint
from .words import WordExpr, expr_max_rise, qcommutator, suffix_trie


# ---------------------------------------------------------------------------
# relation suite for U_D(eps)

_EF_DIVISOR = Q - Q.inverse()  # q - q^-1


def _ef_relation(i, j, eps):
    w = WordExpr.e(i) * WordExpr.f(j) - WordExpr.f(j) * WordExpr.e(i)
    if i == j:
        ai = simple_root(i, eps)
        kk = WordExpr.k(ai) - WordExpr.k(-ai)
        w = w - kk.scale(_EF_DIVISOR.inverse())
    return w


def _serre_quad(i, j, sign_eps_index, eps):
    s = MINUS_ONE if eps.eps(sign_eps_index) else ONE
    ei, ej = WordExpr.e(i), WordExpr.e(j)
    return ei * ei * ej - (ei * ej * ei).scale(s * qint(2)) + ej * ei * ei


def relation_suite(eps: EpsilonData):
    """All defining relations of U_D(eps) as (identifier, WordExpr) pairs.

    Cartan relations are included for mu in {Lambda, d_1..d_n}; every e-side
    relation is followed by its (e -> f) mirror.
    """
    n = eps.n
    rels = []

    def root(i):
        return simple_root(i, eps)

    # k_mu x k_-mu = q(mu, alpha)^{+-1} x
    mus = [("L", eps.Lam())] + [("d%d" % a, eps.delta(a)) for a in eps.II]
    for name, mu in mus:
        for i in eps.I:
            c = qpair(mu, root(i), eps)
            rels.append(
                (
                    "cartan:e%d:%s" % (i, name),
                    WordExpr.k(mu) * WordExpr.e(i) * WordExpr.k(-mu)
                    - WordExpr.e(i).scale(c),
                )
            )
            rels.append(
                (
                    "cartan:f%d:%s" % (i, name),
                    WordExpr.k(mu) * WordExpr.f(i) * WordExpr.k(-mu)
                    - WordExpr.f(i).scale(c.inverse()),
                )
            )

    for i in eps.I:
        for j in eps.I:
            rels.append(("ef:%d,%d" % (i, j), _ef_relation(i, j, eps)))

    for i in eps.I:
        ai = root(i)
        if bilinear(ai, ai, eps) == 0:
            rels.append(("nilpotent:e%d" % i, WordExpr.e(i) * WordExpr.e(i)))
            rels.append(("nilpotent:f%d" % i, WordExpr.f(i) * WordExpr.f(i)))

    for i in eps.I:
        for j in eps.I:
            if i < j and bilinear(root(i), root(j), eps) == 0:
                w = WordExpr.e(i) * WordExpr.e(j) - WordExpr.e(j) * WordExpr.e(i)
                rels.append(("commute:e%d,e%d" % (i, j), w))
                rels.append(("commute:f%d,f%d" % (i, j), w.mirror_ef()))

    quads = []
    if eps.eps(1) == eps.eps(2):
        quads.append(("serre:0,2", _serre_quad(0, 2, 1, eps)))
    if eps.eps(2) == eps.eps(3):
        quads.append(("serre:2,0", _serre_quad(2, 0, 2, eps)))
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if 1 <= j <= n - 1 and eps.eps(i) == eps.eps(i + 1):
                quads.append(("serre:%d,%d" % (i, j), _serre_quad(i, j, i, eps)))
    if eps.eps(n - 2) == eps.eps(n - 1):
        quads.append(("serre:%d,%d" % (n - 2, n), _serre_quad(n - 2, n, n - 2, eps)))
    if eps.eps(n - 1) == eps.eps(n):
        quads.append(("serre:%d,%d" % (n, n - 2), _serre_quad(n, n - 2, n - 1, eps)))
    for name, w in quads:
        rels.append((name, w))
        rels.append((name.replace("serre", "serre-f"), w.mirror_ef()))

    longs = []

    E = partial(WordExpr.product, "e")

    if eps.eps(1) != eps.eps(2):
        s = MINUS_ONE if eps.eps(2) else ONE
        w = (
            E(0, 1, 2)
            - E(1, 0, 2)
            + (E(1, 2, 0) - E(0, 2, 1)).scale(s * qint(2))
            + E(2, 0, 1)
            - E(2, 1, 0)
        )
        longs.append(("long:0-1-2", w))
    if eps.eps(2) != eps.eps(3):
        s = MINUS_ONE if eps.eps(3) else ONE
        w = (
            E(0, 2, 3, 2)
            - E(3, 2, 0, 2)
            + E(2, 3, 0, 2).scale(s * qint(2))
            - E(2, 0, 2, 3)
            + E(2, 3, 2, 0)
        )
        longs.append(("long:0-2-3", w))
    for i in range(2, n - 1):
        if eps.eps(i) != eps.eps(i + 1):
            s = MINUS_ONE if eps.eps(i) else ONE
            w = (
                E(i, i - 1, i, i + 1)
                - E(i, i + 1, i, i - 1)
                + E(i, i - 1, i + 1, i).scale(s * qint(2))
                - E(i - 1, i, i + 1, i)
                + E(i + 1, i, i - 1, i)
            )
            longs.append(("long:mid-%d" % i, w))
    if eps.eps(n - 2) != eps.eps(n - 1):
        s = MINUS_ONE if eps.eps(n - 2) else ONE
        w = (
            E(n - 2, n - 3, n - 2, n)
            - E(n - 2, n, n - 2, n - 3)
            + E(n - 2, n - 3, n, n - 2).scale(s * qint(2))
            - E(n - 3, n - 2, n, n - 2)
            + E(n, n - 2, n - 3, n - 2)
        )
        longs.append(("long:%d-%d-%d" % (n - 3, n - 2, n), w))
    if eps.eps(n - 1) != eps.eps(n):
        s = MINUS_ONE if eps.eps(n - 1) else ONE
        w = (
            E(n - 2, n, n - 1)
            - E(n - 2, n - 1, n)
            + (E(n - 1, n - 2, n) - E(n, n - 2, n - 1)).scale(s * qint(2))
            + E(n, n - 1, n - 2)
            - E(n - 1, n, n - 2)
        )
        longs.append(("long:%d-%d-%d" % (n - 2, n - 1, n), w))
    for name, w in longs:
        rels.append((name, w))
        rels.append((name.replace("long", "long-f"), w.mirror_ef()))

    return rels


# ---------------------------------------------------------------------------
# relation reports


class RelationReport:
    """One relation's check on a window: its first counterexample, if any,
    and the kets checked."""

    def __init__(self, relation, window, max_degree_checked, residual_label=None,
                 residual=None, checked=0):
        self.relation, self.window = relation, window
        self.max_degree_checked = max_degree_checked
        self.residual_label, self.residual, self.checked = residual_label, residual, checked

    def _fields(self):
        return (self.relation, self.window, self.max_degree_checked, self.residual_label,
                self.residual, self.checked)

    def __eq__(self, other):
        if other.__class__ is not RelationReport:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "RelationReport%r" % (self._fields(),)

    @property
    def passed(self):
        """No residual on at least one ket: a check of no kets shows nothing."""
        return self.residual is None and self.checked > 0

    def to_json(self):
        out = {
            "relation": self.relation,
            "window": self.window,
            "max_degree_checked": self.max_degree_checked,
            "kets_checked": self.checked,
            "pass": self.passed,
        }
        if not self.checked:
            out["vacuous"] = True
        elif not self.passed:
            out["counterexample"] = {
                "ket": ket_str(self.residual_label),
                "residual": repr(self.residual),
            }
        return out


# Kets per trie walk of a relation check.  A walk keeps every image row of
# its block alive at once: the whole window as one block ran 20 times the
# gen-2 collections and raised peak RSS; blocks of 8 to 32 tie on time.
_BLOCK = 16


def check_relation_on(module, name, expr: WordExpr, labels=None):
    """Evaluate one relation on every guard-safe basis ket of the window
    (or of labels, in their order): a suite of one."""
    return _check_suite(module, [(name, expr)], labels)[0]


def check_relations(module):
    """Run the full defining-relation suite of U_D(eps) on a module window."""
    return _check_suite(module, relation_suite(module.eps))


def _check_suite(module, suite, labels=None):
    """A RelationReport per (name, WordExpr) of suite, each relation checked
    on the basis kets of the window (or of labels, in their order) up to
    its guard band, cutoff - expr_max_rise.

    The relations of one guard band are checked together: one merged
    suffix trie of their terms is walked once per block of kets, on packed
    integers when the suite packs (fockmod.relation_walks).  A ket whose
    image under a relation dropped a ket above the cutoff raises
    WindowError when that relation reaches it."""
    reports = [RelationReport(name, module.cutoff, max_degree_checked=-1) for name, _ in suite]
    bands = {}
    for i, (_, expr) in enumerate(suite):
        safe = module.cutoff - expr_max_rise(expr, module.atom_shift)
        bands.setdefault(safe, []).append(i)
    if labels is None:
        # one enumeration of the window: each band skips the kets above
        # it, and the filtered list keeps the order of a smaller window
        top = max(bands, default=-1)
        labels = module.enumerate_labels(top) if top >= 0 else ()
    # each band streams its kets: a list of (label, degree) pairs of the
    # whole window raised the peak RSS of verify-phi by 0.1 MiB
    labels = list(labels)
    degrees = list(map(module.degree, labels))
    walks = relation_walks(module, [[suite[i][1] for i in members] for members in bands.values()])
    for (safe, members), walk in zip(bands.items(), walks):

        def residuals(labels, walk=walk):
            # a relation's residual on a ket is the ket's image
            return [_touched_residuals(labels, (out,), lambda outs, label: _image(outs[0], label))
                    for out in walk(labels)]

        kets = ((label, d) for label, d in zip(labels, degrees) if d <= safe)
        _check_window([reports[i] for i in members], kets, residuals)
    return reports


def _walker(module, exprs):
    """walk(labels): the words exprs on each basis ket of labels, from one
    walk of their merged suffix trie (eval_words_on_kets), built once."""
    trie = suffix_trie(exprs)
    return lambda labels: eval_words_on_kets(trie, labels, module)


def _touched(out, label):
    """label has an image, or lost one above the cutoff, in out."""
    return label in out[0] or label in out[1]


def _touched_residuals(labels, outs, residual):
    """(position, residual(outs, label)) of each label of a block that is
    _touched in one of outs, in order.  A label touched in none has a zero
    residual.  Lazy: a residual that raises WindowError raises only when
    its turn comes, so only the kets up to a report's first counterexample
    can raise it."""
    if not any(images or dropped for images, dropped in outs):
        return
    for pos, label in enumerate(labels):
        if any(_touched(out, label) for out in outs):
            yield pos, residual(outs, label)


def _image(out, label):
    """The image of label in one word's (images, dropped), as a FockVector;
    a label whose image dropped a ket above the cutoff raises WindowError."""
    images, dropped = out
    if label in dropped:
        raise WindowError("insufficient guard band for the word")
    return FockVector(images.get(label))


def _check_window(reports, kets, residuals):
    """Check every report on the (label, degree) pairs of kets in order, in
    blocks of _BLOCK.  residuals(labels) gives, for each report in order,
    the (position, residual) pairs of the block's labels whose residual
    may be nonzero, by position; the residual of any other label is zero.
    Each report counts its kets and their top degree; its first nonzero
    residual ends it, and the report keeps that residual with its ket.
    The residuals of an ended report are not read, so a lazy residual
    raises only for the kets up to its report's counterexample."""
    kets = iter(kets)
    live = len(reports)
    # the labels go as a list: a tuple built from a generator is resized
    # into its size class, whose free list then only grows (2000 dead
    # 16-tuples, 0.3 MiB, at the end of verify-phi)
    while live and (block := list(itertools.islice(kets, _BLOCK))):
        labels = [label for label, _ in block]
        tops = list(itertools.accumulate((d for _, d in block), max))
        for report, outs in zip(reports, residuals(labels)):
            if report.residual is not None:
                continue
            pos = len(block) - 1
            for at, out in outs:
                if not out.is_zero():
                    pos = at
                    report.residual_label, report.residual = labels[at], out
                    live -= 1
                    break
            report.checked += pos + 1
            report.max_degree_checked = max(report.max_degree_checked, tops[pos])
    return reports


def _window(module, maxdeg):
    """The (label, degree) pairs of the window up to maxdeg, in order."""
    return [(label, module.degree(label)) for label in module.enumerate_labels(maxdeg)]


# ---------------------------------------------------------------------------
# target algebras and phi homomorphisms


class TargetAlgebra:
    """A quantum affine algebra embedded by phi into U_D(host_eps).

    key: ('target', kind, side, host seq, eta), with kind 'c' or 'd' (which
    alternating host) and side 'underline'/'overline'.  Cartan data is
    derived from the embedded simple roots.
    """

    def __init__(self, host_eps, param, name, gen_indices, kept, roots,
                 phi_e, phi_f, eta=1, key=None):
        self.host_eps, self.param = host_eps, param
        self.name, self.gen_indices, self.kept, self.roots = name, gen_indices, kept, roots
        self.phi_e, self.phi_f, self.eta, self.key = phi_e, phi_f, eta, key

    def root(self, j) -> Weight:
        return self.roots[j]

    def keeps(self, delta):
        """Whether truncation keeps the weight space of delta: delta vanishes
        off the kept indices.  The one kept-support rule: a ket's weight is
        its delta vector, so truncation keeps whole weight spaces."""
        kept = self.kept
        return all(c == 0 for i, c in enumerate(delta, start=1) if i not in kept)

    def phi(self, gen) -> WordExpr:
        """The phi image of a target generator ('e', j) or ('f', j)."""
        kind, j = gen
        return self.phi_e[j] if kind == "e" else self.phi_f[j]

    def sym(self, i, j):
        """Symmetrized Cartan integer B_ij of the target."""
        s = -1 if self.param == QTILDE else 1
        b = bilinear(self.roots[i], self.roots[j], self.host_eps) * s
        assert b.denominator == 1
        return int(b)

    def d(self, i):
        return self.sym(i, i) // 2

    def aij(self, i, j):
        return self.sym(i, j) // self.d(i)

    def p_i(self, i):
        return self.param ** self.d(i)


KINDS = ("c", "d")
SIDES = ("underline", "overline")


def phi_words(kind: str, side: str, host: EpsilonData, eta=1):
    """The phi images of the target generators, per the truncation maps.

    kind 'c' hosts eps = (1,0,...,0,1); kind 'd' hosts eps' = (0,1,...,1,0).
    side 'underline' keeps even positions for 'c' (odd for 'd'); 'overline'
    the complement.  eta is +-1; the check maps use the q-commutator
    parameter q^eta ('c') or -q^eta ('d').
    """
    if kind not in KINDS:
        raise ValueError("kind must be 'c' or 'd', got %r" % (kind,))
    if side not in SIDES:
        raise ValueError("side must be 'underline' or 'overline', got %r" % (side,))
    n = host.n
    if n % 2 == 0 or n < 5:
        raise ValueError("host length must be odd >= 5")
    m = (n - 1) // 2
    if kind == "c" and host != host_eps("c", m):
        raise ValueError("type c truncation requires the (1,0,...,0,1) host")
    if kind == "d" and host != host_eps("d", m):
        raise ValueError("type d truncation requires the (0,1,...,1,0) host")
    if eta not in (1, -1):
        raise ValueError("eta must be +-1")

    E, F = WordExpr.e, WordExpr.f
    inv2 = qint(2).inverse()
    phi_e, phi_f, roots = {}, {}, {}

    if (kind, side) == ("c", "underline") or (kind, side) == ("d", "overline"):
        # hat maps, indices 0..m
        gens = tuple(range(m + 1))
        for i in gens:
            ci = (
                -(q_power(2 * eta))
                if i in (0, m)
                else (-(q_power(eta)) if kind == "c" else q_power(eta))
            )
            pref = inv2 if i in (0, m) else ONE
            if kind == "d" and i in (0, m):
                pref = -inv2
            a, b = (2 * i, 2 * i + 1) if kind == "c" else (2 * i + 1, 2 * i)
            phi_e[i] = qcommutator(E(a), E(b), ci).scale(pref)
            phi_f[i] = qcommutator(F(b), F(a), ci.inverse()).scale(pref)
            roots[i] = simple_root(2 * i, host) + simple_root(2 * i + 1, host)
        kept = tuple(range(2, n, 2))  # even positions host the hat sublattice
        param = Q if kind == "c" else QTILDE
        name = (
            "U_q(C_%d^(1))" % m if kind == "c" else "U_qt(C_%d^(1))" % m
        )
    else:
        # check maps, indices 0..m+1
        dch = Q ** eta if kind == "c" else -(Q ** eta)
        gens = tuple(range(m + 2))
        for j in gens:
            if j == 0:
                a, b = (0, 2) if kind == "c" else (2, 0)
                roots[j] = simple_root(0, host) + simple_root(2, host)
            elif j <= m:
                a, b = (2 * j - 1, 2 * j) if kind == "c" else (2 * j, 2 * j - 1)
                roots[j] = simple_root(2 * j - 1, host) + simple_root(2 * j, host)
            else:
                a, b = (2 * m - 1, 2 * m + 1) if kind == "c" else (
                    2 * m + 1,
                    2 * m - 1,
                )
                roots[j] = simple_root(2 * m - 1, host) + simple_root(
                    2 * m + 1, host
                )
            phi_e[j] = qcommutator(E(a), E(b), dch)
            phi_f[j] = qcommutator(F(b), F(a), dch.inverse())
        kept = tuple(range(1, n + 1, 2))
        param = QTILDE if kind == "c" else Q
        name = (
            "U_qt(D_%d^(1))" % (m + 1) if kind == "c" else "U_q(D_%d^(1))" % (m + 1)
        )

    return TargetAlgebra(
        host_eps=host,
        param=param,
        name=name,
        gen_indices=gens,
        kept=kept,
        roots=roots,
        phi_e=phi_e,
        phi_f=phi_f,
        eta=eta,
        key=("target", kind, side, host.seq, eta),
    )


def host_eps(flavor: str, m: int) -> EpsilonData:
    """The host of length 2m+1: (1,0,...,0,1) for 'c', (0,1,...,1,0) for 'd'."""
    if flavor not in KINDS:
        raise ValueError("flavor must be 'c' or 'd', got %r" % (flavor,))
    first = 1 if flavor == "c" else 0
    return EpsilonData(tuple((i + first) % 2 for i in range(2 * m + 1)))


LEVELS = ("bold", "underline", "overline")
PARTS = {"+": 0, "-": 1, "W": None}  # a factor's kets: even, odd or all


def level_module(flavor: str, level: str, eps: EpsilonData, cutoff: int, factors, eta=1):
    """W(x) ('c') or W^(x2)(x) ('d') at one truncation level, one factor
    per (x, part); a lone factor comes back bare, several as one tensor.

    level 'bold' is the ambient module; 'underline' and 'overline' act
    through the phi maps at eta, and the module's algebra is their target.
    part '+' or '-' restricts a factor to its even or odd kets, 'W' keeps
    all.
    """
    tgt = None if level == "bold" else phi_words(flavor, level, eps, eta)
    out = []
    for x, part in factors:
        module = (WModule if flavor == "c" else W2Module)(eps, x, cutoff)
        if tgt is not None:
            module = TruncatedModule(module, tgt)
        if PARTS[part] is not None:
            module = RestrictedModule(module, PARTS[part])
        out.append(module)
    return out[0] if len(out) == 1 else TensorModule(out)


def target_relation_suite(tgt: TargetAlgebra):
    """Defining relations of the quantum affine target in Drinfeld-Jimbo
    form, over the abstract generators (acting through phi)."""
    rels = []
    p = tgt.param
    for i in tgt.gen_indices:
        for j in tgt.gen_indices:
            w = WordExpr.e(i) * WordExpr.f(j) - WordExpr.f(j) * WordExpr.e(i)
            if i == j:
                pi = tgt.p_i(i)
                div = pi - pi.inverse()
                ki = WordExpr.k(tgt.roots[i]) - WordExpr.k(-tgt.roots[i])
                w = w - ki.scale(div.inverse())
            rels.append(("t-ef:%d,%d" % (i, j), w))
    for i in tgt.gen_indices:
        ri = tgt.roots[i]
        for j in tgt.gen_indices:
            # k_i e_j k_i^-1 = p^(B_ij) e_j
            c = p ** tgt.sym(i, j)
            w = (
                WordExpr.k(ri) * WordExpr.e(j) * WordExpr.k(-ri)
                - WordExpr.e(j).scale(c)
            )
            rels.append(("t-cartan:e%d:k%d" % (j, i), w))
            w = (
                WordExpr.k(ri) * WordExpr.f(j) * WordExpr.k(-ri)
                - WordExpr.f(j).scale(c.inverse())
            )
            rels.append(("t-cartan:f%d:k%d" % (j, i), w))
    for i in tgt.gen_indices:
        for j in tgt.gen_indices:
            if i == j:
                continue
            nij = 1 - tgt.aij(i, j)
            pi = tgt.p_i(i)
            w = WordExpr()
            for v in range(nij + 1):
                c = qbinom_at(pi, nij, v)
                if v % 2:
                    c = -c
                term = (WordExpr.e(i) ** (nij - v)) * WordExpr.e(j) * (
                    WordExpr.e(i) ** v
                )
                w = w + term.scale(c)
            rels.append(("t-serre:e%d,e%d" % (i, j), w))
            rels.append(("t-serre:f%d,f%d" % (i, j), w.mirror_ef()))
    return rels


def check_phi_relations(tgt: TargetAlgebra, module):
    """All target relations as operators on an ambient module window, each
    target generator acting through its phi image."""
    return _check_suite(PullbackModule(module, tgt), target_relation_suite(tgt))


# ---------------------------------------------------------------------------
# truncation


def truncate_vector(vec: FockVector, module, tgt: TargetAlgebra) -> FockVector:
    """Keep exactly the terms of vec, a vector of module, whose ket weight
    tgt keeps."""
    weight_of, keeps = module.weight_of, tgt.keeps
    return FockVector.of({l: c for l, c in vec.terms.items() if keeps(weight_of(l).delta)})


def _generators(tgt):
    """The target generators, e before f at each index."""
    return [(kind, j) for j in tgt.gen_indices for kind in ("e", "f")]


def check_truncation_equivariance(tgt: TargetAlgebra, module):
    """tr commutes with every phi-action on the window: tr(phi(x) b) =
    phi(x) tr(b) for each basis ket b up to degree cutoff - 2, the guard
    band of a phi word.  On a kept ket this says that phi(x) b stays
    kept-supported, so the truncated subspace is stable.  Returns
    RelationReports keyed by generator; each block's phi images come from
    one merged walk.  A ket whose image dropped a ket above the cutoff
    raises WindowError."""
    gens = _generators(tgt)
    walk = _walker(module, [tgt.phi(gen) for gen in gens])

    def residual(outs, label):
        # tr(b) is b on a kept ket and 0 on any other
        img = _image(outs[0], label)
        rhs = img if tgt.keeps(module.weight_of(label).delta) else FockVector()
        return truncate_vector(img, module, tgt) - rhs

    def residuals(labels):
        return [_touched_residuals(labels, (out,), residual) for out in walk(labels)]

    reports = [
        RelationReport("tr-equivariance:%s%d" % gen, module.cutoff, -1) for gen in gens
    ]
    return _check_window(reports, _window(module, module.cutoff - 2), residuals)


def check_monoidality(tgt: TargetAlgebra, tensor_ambient, tensor_truncated, maxdeg):
    """On truncated v (x) w, acting by Delta(phi(x)) in the ambient tensor
    equals acting by the target coproduct with phi per factor.  Each
    block's images come from one merged walk per tensor module.  A ket
    whose image on either side dropped a ket above the cutoff raises
    WindowError."""
    gens = _generators(tgt)
    ambient = _walker(tensor_ambient, [tgt.phi(gen) for gen in gens])
    truncated = _walker(tensor_truncated, [WordExpr.gen(*gen) for gen in gens])

    def residual(outs, label):
        amb, tr = outs
        return _image(amb, label) - _image(tr, label)

    def residuals(labels):
        return [_touched_residuals(labels, outs, residual)
                for outs in zip(ambient(labels), truncated(labels))]

    reports = [
        RelationReport("tr-monoidal:%s%d" % gen, tensor_ambient.cutoff, -1) for gen in gens
    ]
    return _check_window(reports, _window(tensor_truncated, maxdeg), residuals)
