"""Defining relations, the phi homomorphisms, and truncation checks.

Relations are WordExprs that must evaluate to the zero operator on every
module; truncation sends a module over the big algebra to a module over a
quantum affine algebra of type C or D acting through q-commutator words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fockmod import (
    FockVector,
    PullbackModule,
    TruncatedModule,
    W2Module,
    WindowError,
    WModule,
    act,
    eval_word,
    eval_word_on_kets,
    ket_str,
)
from .lattice import EpsilonData, Weight, bilinear, qpair, simple_root
from .scalars import MINUS_ONE, ONE, Q, QTILDE, Scalar, q_power, qbinom_at, qint
from .words import WordExpr, expr_max_rise, qcommutator


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

    def E(*idx):
        w = WordExpr.unit()
        for i in idx:
            w = w * WordExpr.e(i)
        return w

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


@dataclass
class RelationReport:
    relation: str
    window: int
    max_degree_checked: int
    residual_label: object = None
    residual: object = None
    checked: int = 0

    @property
    def passed(self):
        return self.residual is None

    def to_json(self):
        out = {
            "relation": self.relation,
            "window": self.window,
            "max_degree_checked": self.max_degree_checked,
            "kets_checked": self.checked,
            "pass": self.passed,
        }
        if not self.passed:
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
    """Evaluate one relation on every guard-safe basis ket of the window,
    one block of kets per walk of the relation's suffix trie."""
    safe = module.cutoff - expr_max_rise(expr, module.atom_shift)
    if labels is None:
        labels = module.enumerate_labels(safe) if safe >= 0 else ()
    degree = module.degree
    kets = ((label, d) for label in labels if (d := degree(label)) <= safe)
    return _check_window(
        RelationReport(name, module.cutoff, max_degree_checked=-1),
        kets,
        lambda block: _relation_residuals(module, expr, block),
    )


def _relation_residuals(module, expr, labels):
    """Yield the residual of expr on each basis ket of labels in order, all
    from one trie walk.  A ket whose image dropped a ket above the cutoff
    raises WindowError when its turn comes."""
    try:
        images, dropped = eval_word_on_kets(expr, labels, module)
    except WindowError:
        # a pull-back raises inside the walk when a phi image leaves the
        # window; ket by ket, only a ket up to the first counterexample
        # can raise it, as in a check of one ket at a time
        if len(labels) == 1:
            raise
        for label in labels:
            yield from _relation_residuals(module, expr, [label])
        return
    for label in labels:
        if label in dropped:
            raise WindowError("insufficient guard band for the word")
        yield FockVector(images.get(label))


def _check_window(report, kets, residuals):
    """Walk the (label, degree) pairs of kets in order, in blocks of
    _BLOCK; residuals(labels) yields the residual of each label of a block
    in turn.  Counts the kets and their top degree; the first nonzero
    residual ends the check, and the report keeps it with its ket."""
    kets = iter(kets)
    while block := list(itertools.islice(kets, _BLOCK)):
        # the labels go as a list: a tuple built from a generator is
        # resized into its size class, whose free list then only grows
        # (2000 dead 16-tuples, 0.3 MiB, at the end of verify-phi)
        for (label, d), out in zip(block, residuals([label for label, _ in block])):
            report.checked += 1
            report.max_degree_checked = max(report.max_degree_checked, d)
            if not out.is_zero():
                report.residual_label = label
                report.residual = out
                return report
    return report


def _window(module, maxdeg):
    """The (label, degree) pairs of the window up to maxdeg, in order."""
    return [(label, module.degree(label)) for label in module.enumerate_labels(maxdeg)]


def check_relations(module):
    """Run the full defining-relation suite of U_D(eps) on a module window."""
    return _check_suite(module, relation_suite(module.eps))


def _check_suite(module, suite):
    # one enumeration of the window: each check skips the kets above its
    # guard band, and the filtered list keeps the order of a smaller window
    labels = list(module.enumerate_labels())
    return [check_relation_on(module, name, expr, labels) for name, expr in suite]


# ---------------------------------------------------------------------------
# target algebras and phi homomorphisms


@dataclass
class TargetAlgebra:
    """A quantum affine algebra embedded by phi into U_D(host_eps).

    kind: 'c' or 'd' (which alternating host), side: 'underline'/'overline'.
    Cartan data is derived from the embedded simple roots.
    """

    kind: str
    side: str
    host_eps: EpsilonData
    param: Scalar
    name: str
    gen_indices: tuple
    kept: tuple
    roots: dict
    phi_e: dict
    phi_f: dict
    eta: int = 1
    key: tuple = None

    def root(self, j) -> Weight:
        return self.roots[j]

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


def phi_words(kind: str, side: str, host: EpsilonData, eta=1):
    """The phi images of the target generators, per the truncation maps.

    kind 'c' hosts eps = (1,0,...,0,1); kind 'd' hosts eps' = (0,1,...,1,0).
    side 'underline' keeps even positions for 'c' (odd for 'd'); 'overline'
    the complement.  eta is +-1; the check maps use the q-commutator
    parameter q^eta ('c') or -q^eta ('d').
    """
    n = host.n
    if n % 2 == 0 or n < 5:
        raise ValueError("host length must be odd >= 5")
    m = (n - 1) // 2
    flavor = host.flavor
    if kind == "c" and flavor != "bold":
        raise ValueError("type c truncation requires the (1,0,...,0,1) host")
    if kind == "d" and flavor != "bold-prime":
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
        kind=kind,
        side=side,
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
    first = 1 if flavor == "c" else 0
    return EpsilonData(tuple((i + first) % 2 for i in range(2 * m + 1)))


def level_module(flavor: str, level: str, eps: EpsilonData, x, cutoff: int):
    """The factor W(x) ('c') or W^(x2)(x) ('d') at one truncation level.

    level 'bold' is the ambient module; 'underline' and 'overline' act
    through the phi maps.  Returns (module, target algebra or None).
    """
    module = (WModule if flavor == "c" else W2Module)(eps, x, cutoff)
    if level == "bold":
        return module, None
    tgt = phi_words(flavor, level, eps)
    return TruncatedModule(module, tgt), tgt


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


def truncate_vector(vec: FockVector, kept) -> FockVector:
    """Keep exactly the terms whose kets vanish on all removed positions."""
    ks = set(kept)

    def keeps(label):
        if isinstance(label[0], tuple):
            return all(keeps(p) for p in label)
        return all(c == 0 for i, c in enumerate(label, start=1) if i not in ks)

    out = FockVector(overflow=vec.overflow)
    out.terms = {l: c for l, c in vec.terms.items() if keeps(l)}
    return out


def check_truncation_equivariance(tgt: TargetAlgebra, module, maxdeg=None):
    """tr commutes with every phi-action on the window: tr(phi(x) b) =
    phi(x) tr(b) for each basis ket b.  On a kept ket this says that
    phi(x) b stays kept-supported, so the truncated subspace is stable.
    Returns RelationReports keyed by generator."""
    maxdeg = (module.cutoff - 2) if maxdeg is None else maxdeg
    kets = _window(module, maxdeg)
    kept = tgt.kept
    reports = []
    for j in tgt.gen_indices:
        for kind in ("e", "f"):
            word = tgt.phi((kind, j))

            def residual(label):
                b = FockVector.basis(label)
                lhs = truncate_vector(eval_word(word, b, module), kept)
                return lhs - eval_word(word, truncate_vector(b, kept), module)

            rep = RelationReport("tr-equivariance:%s%d" % (kind, j), module.cutoff, -1)
            reports.append(_check_window(rep, kets, lambda labels: map(residual, labels)))
    return reports


def check_monoidality(tgt: TargetAlgebra, tensor_ambient, tensor_truncated, maxdeg):
    """On truncated v (x) w, acting by Delta(phi(x)) in the ambient tensor
    equals acting by the target coproduct with phi per factor."""
    kets = _window(tensor_truncated, maxdeg)
    reports = []
    for j in tgt.gen_indices:
        for kind in ("e", "f"):
            gen = (kind, j)
            word = tgt.phi(gen)

            def residual(label):
                b = FockVector.basis(label)
                return eval_word(word, b, tensor_ambient) - act(tensor_truncated, gen, b)

            rep = RelationReport("tr-monoidal:%s%d" % gen, tensor_ambient.cutoff, -1)
            reports.append(_check_window(rep, kets, lambda labels: map(residual, labels)))
    return reports
