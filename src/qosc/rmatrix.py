"""Normalized R matrices by exact intertwiner solving, with symbolic z.

The solver works on a tensor pair A(z) (x) B(1) -> B(1) (x) A(z).  The
finite-type orbit of each classical component is generated from matched
highest-weight vectors on both sides (the ring-U action never touches z),
giving an exact block decomposition; the eigenvalue functions rho(z) are
then the unique solution of the e_0-intertwining system, normalized to 1
on the top component.  Closed-form eigenvalues, poles, renormalization
and fusion images are checked against this solve.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, prod
from typing import Callable

from .algebraops import host_eps, level_module
from .decomp import finite_indices, find_hw, hw_kernel_of_vectors, hw_weight
from .fockmod import (
    FockVector,
    TensorModule,
    act,
    image_leaves_window,
    label_key,
    tensor_vector,
    weight_block,
)
from .fundrep import (
    MatchedSpan,
    Subspace,
    block_order,
    compare_spans,
    fundamental_pair_modules,
    fundamental_span,
    lowering_closure,
    truncate_image_span,
    u_rs,
)
from .lattice import Weight
from .linalg import solve_unique
from .scalars import (
    ONE,
    SONE,
    SZERO,
    SpectralScalar,
    Z1,
    as_q_power,
    factor_q_poles,
    q_power,
    qint,
)


# ---------------------------------------------------------------------------
# closed-form spectral data


def sigma_component_partitions(sigma, max_boxes):
    """S^sigma: the classical components of W^s1 (x) W^s2, by box count."""
    s1, s2 = sigma
    out = []
    if s1 == s2 == "+":
        out = [(2 * k,) if k else () for k in range(0, max_boxes // 2 + 1)]
    elif s1 == s2 == "-":
        out = [(1, 1)] + [(2 * k,) for k in range(1, max_boxes // 2 + 1)]
    else:
        out = [(2 * k + 1,) for k in range(0, (max_boxes - 1) // 2 + 1)]
    return [p for p in out if sum(p) <= max_boxes]


def sigma_lambda0(sigma):
    s1, s2 = sigma
    if s1 == s2 == "+":
        return ()
    if s1 == s2 == "-":
        return (1, 1)
    return (1,)


def _pole_factor(e, renormalized=False) -> SpectralScalar:
    """(1 - q^e z)/(z - q^e): the ratio of eigenvalues across a pole at
    z = q^e.  renormalized gives (z - q^e)/(1 - q^e) instead, the factor
    that clears that pole and is 1 at z = 1."""
    qe = q_power(e)
    if renormalized:
        return (Z1 - qe) / (SONE - qe)
    return (SONE - qe * Z1) / (Z1 - qe)


def closed_rho_c(sigma, lam) -> SpectralScalar:
    """The eigenvalue of the normalized R matrix on a type-c component;
    lam must be a component of W^s1 (x) W^s2 (ValueError otherwise)."""
    if lam not in sigma_component_partitions(sigma, sum(lam)):
        raise ValueError("%r is not a component for sigma %r" % (lam, sigma))
    if lam == (1, 1) or lam == ():
        return SONE
    return prod((_pole_factor(e) for e in pole_exponents_c(sigma, 2 * lam[0])), start=SONE)


def pole_exponents_c(sigma, bound):
    start = 2 if sigma[0] == sigma[1] else 4
    return [e for e in range(start, bound + 1, 4)]


def renormalize_diamond(sigma, m: int) -> SpectralScalar:
    """The finite prefactor that clears the truncation-level poles,
    turning the normalized R matrix into its renormalized companion."""
    exps = pole_exponents_c(sigma, 2 * m)
    return prod((_pole_factor(e, renormalized=True) for e in exps), start=SONE)


def rho_d_ratio_r(l1, l2, k) -> SpectralScalar:
    pref = q_power(l1 - l2) * qint(l2 + k + 1) / qint(l1 + k + 1)
    return pref * _pole_factor(l1 + l2 + 2 * k + 2)


def rho_d_ratio_s(l1, l2, t) -> SpectralScalar:
    pref = q_power(l2 - l1) * qint(l2 - t + 1) / qint(l1 - t + 1)
    return pref * _pole_factor(-l1 - l2 - 2 + 2 * t)


def closed_rho_d(l1, l2, r, s) -> SpectralScalar:
    """Type-d eigenvalue, unwound from the two recursions off rho_{0,min}=1."""
    if r < 0 or not (0 <= s <= min(l1, l2)):
        raise ValueError("rho_d parameter out of range")
    rho = SONE
    for t in range(min(l1, l2), s, -1):
        rho = rho / rho_d_ratio_s(l1, l2, t)
    for k in range(1, r + 1):
        rho = rho * rho_d_ratio_r(l1, l2, k)
    return rho


def closed_form_failures(flavor, params, rho):
    """The keys of rho, in its order, whose rho differs from the closed
    form: closed_rho_c(params, key) for flavor 'c' (params = sigma),
    closed_rho_d(*params, *key) for 'd' (params = (l1, l2))."""
    if flavor == "c":
        return [key for key, val in rho.items() if val != closed_rho_c(params, key)]
    return [key for key, val in rho.items() if val != closed_rho_d(*params, *key)]


def rho_d_product_part(l1, l2, r, s) -> SpectralScalar:
    """The displayed product (without the constant), for D-extraction."""
    exps = [l1 + l2 + 2 * k + 2 for k in range(1, r + 1)]
    exps += [abs(l2 - l1) + 2 * k for k in range(1, min(l1, l2) - s + 1)]
    return prod((_pole_factor(e) for e in exps), start=SONE)


def pole_exponents_d(l1, l2, bound):
    out = set()
    k = 1
    while abs(l2 - l1) + 2 * k <= bound:
        out.add(abs(l2 - l1) + 2 * k)
        k += 1
    k = 1
    while l1 + l2 + 2 * k + 2 <= bound:
        out.add(l1 + l2 + 2 * k + 2)
        k += 1
    return sorted(out)


def poles(flavor, params, bound):
    """Declared pole exponent set, intersected with |exponent| <= bound."""
    if flavor == "c":
        return pole_exponents_c(params, bound)
    return pole_exponents_d(params[0], params[1], bound)


# ---------------------------------------------------------------------------
# pairs


class Component:
    """A classical component: its key, weight and vectors in source and target."""

    __slots__ = ("key", "weight", "v_src", "v_tgt")

    def __init__(self, key, weight: Weight, v_src: FockVector, v_tgt: FockVector):
        self.key, self.weight, self.v_src, self.v_tgt = key, weight, v_src, v_tgt


class RPair:
    """A tensor pair source -> target and its classical components.

    exhaustive: the orbit of the components is the whole source window.
    bound(wt): an upper bound on the dimension of that orbit at weight wt
    (MatchedSpan)."""

    def __init__(self, source: TensorModule, target: TensorModule, components: list,
                 lambda0, exhaustive: bool, bound: Callable):
        self.source, self.target, self.components = source, target, components
        self.lambda0, self.exhaustive, self.bound = lambda0, exhaustive, bound


def _normalize_lex(v: FockVector) -> FockVector:
    lead = min(v.terms, key=label_key)
    return v.scale(v.terms[lead].inverse())


def make_c_pair(m, sigma, cutoff, level="bold"):
    """The pair W^s1(z) (x) W^s2(1) at the requested truncation level."""
    target = c_target_module(m, sigma, cutoff, level, Z1)
    source = TensorModule(target.factors[::-1])
    comps = []
    for lam in sigma_component_partitions(sigma, cutoff):
        wt = hw_weight(source.eps, lam, 2, "c", kept=source.algebra.kept)
        if wt is None or wt.degree() > cutoff:
            continue
        vs = _hw_line(source, wt)
        vt = _hw_line(target, wt)
        comps.append(Component(lam, wt, _normalize_lex(vs), _normalize_lex(vt)))
    return RPair(
        source=source,
        target=target,
        components=comps,
        lambda0=sigma_lambda0(sigma),
        exhaustive=True,
        bound=lambda wt: len(weight_block(source, wt)),
    )


def _hw_line(module, wt):
    basis = find_hw(module, wt)
    if len(basis) != 1:
        raise ArithmeticError(
            "highest-weight space at %s has dimension %d, expected 1"
            % (wt.to_str(), len(basis))
        )
    return basis[0]


def d_component_keys(l1, l2, cutoff):
    out = []
    r = 0
    while l1 + l2 + 2 * r <= cutoff:
        for s in range(0, min(l1, l2) + 1):
            out.append((r, s))
        r += 1
    return out


def make_d_pair(m, l1, l2, cutoff, level="underline"):
    """The pair W_{l1}(z) (x) W_{l2}(1) of type-d fundamental modules, in
    fundamental_pair_modules or, at level bold, its untruncated factors.

    The orbit of the components under the finite f_j lies in span1 (x)
    span2, span_i the fundamental span of factor i, which is f_j-stable
    inside the window: so the pair's bound at wt is the dimension of
    span1 (x) span2 there, sum over w1 of dim span1[w1] dim span2[wt-w1],
    tabulated once over the weights w1 + w2.  The finite f_j do not act
    through x, so factors of equal l share one span."""
    if level not in ("bold", "underline"):
        raise ValueError("make_d_pair supports levels 'bold' and 'underline'")
    epsp = host_eps("d", m)
    source = fundamental_pair_modules(m, cutoff)
    if level == "bold":
        source = TensorModule([f.base for f in source.factors])
    target = TensorModule(source.factors[::-1])
    # the target's factors are the source's, reversed, and so are its spans
    span1 = fundamental_span(source.factors[0], l1, l1)
    spans = (span1, span1 if l1 == l2 else fundamental_span(source.factors[1], l2, l2))
    comps = []
    if level == "underline":
        for (r, s) in d_component_keys(l1, l2, cutoff):
            vs = u_rs(source, m, l1, l2, r, s)
            vt = u_rs(target, m, l2, l1, r, s)
            wt = source.weight_of(next(iter(vs.terms)))
            comps.append(Component((r, s), wt, vs, vt))
    else:
        # components found inside the span of the two fundamental factors;
        # the highest weights are not kept-supported, so normalization is
        # intrinsic (leading coefficient 1) and cross-level statements are
        # made at the operator level
        for (r, s) in d_component_keys(l1, l2, cutoff):
            lam = (l1 + l2 + r - s, r + s)
            wt = hw_weight(epsp, lam, 2, "d")
            if wt is None or wt.degree() > cutoff:
                continue
            vs = _hw_in_span(source, spans, wt)
            vt = _hw_in_span(target, spans[::-1], wt)
            comps.append(
                Component((r, s), wt, _normalize_lex(vs), _normalize_lex(vt))
            )
    dims1, dims2 = (span.dims() for span in spans)
    bound = Counter()
    for w1, d1 in dims1.items():
        for w2, d2 in dims2.items():
            bound[w1 + w2] += d1 * d2
    return RPair(
        source=source,
        target=target,
        components=comps,
        lambda0=(0, min(l1, l2)),
        exhaustive=False,
        bound=lambda wt: bound.get(wt, 0),
    )


def c_target_module(m, sigma, cutoff, level, x):
    """The concrete-parameter target W^s2(1) (x) W^s1(x) for fused images."""
    factors = [(ONE, sigma[1]), (x, sigma[0])]
    return level_module("c", level, host_eps("c", m), cutoff, factors)


def _hw_in_span(tensor, spans, wt):
    span1, span2 = spans
    vecs = []
    for w1, (b1, vs1) in span1.blocks.items():
        w2 = wt - w1
        blk2 = span2.blocks.get(w2)
        if not blk2:
            continue
        for a in vs1:
            for b in blk2[1]:
                vecs.append(tensor_vector(a, b))
    basis = hw_kernel_of_vectors(vecs, tensor)
    if len(basis) != 1:
        raise ArithmeticError(
            "component at %s: kernel dimension %d" % (wt.to_str(), len(basis))
        )
    return basis[0]


# ---------------------------------------------------------------------------
# matched orbit decomposition


class _ConeTest:
    """Membership of delta-vectors in the Z_+-span of the lowering roots.

    The lowering roots are linearly independent, so a delta-vector d lies
    in their Q-span at most one way: x = L d for a left inverse L of the
    matrix A whose columns are the roots.  d is in the cone iff A x = d
    and x is a nonnegative integer vector.  L = M / den, with M an integer
    matrix, is computed once over Fraction, so each membership is decided
    in integers."""

    def __init__(self, roots):
        self.roots = [tuple(r.delta) for r in roots]
        self.inverse, self.den = _left_inverse(self.roots)

    def member(self, dvec):
        den = self.den
        x = []
        for row in self.inverse:
            y = sum(m * d for m, d in zip(row, dvec))
            if y < 0 or y % den:
                return False
            x.append(y // den)
        return all(
            sum(xj * root[i] for xj, root in zip(x, self.roots)) == d
            for i, d in enumerate(dvec)
        )


def _left_inverse(roots):
    """(M, den) with M / den = (A^T A)^-1 A^T, a left inverse of the matrix
    A whose columns are the integer vectors roots."""
    k = len(roots)
    rows = [
        [Fraction(sum(a * b for a, b in zip(r, t))) for t in roots]
        + [Fraction(int(i == j)) for j in range(k)]
        for i, r in enumerate(roots)
    ]
    # Gauss-Jordan on the Gram matrix A^T A, invertible iff A has full rank
    for c in range(k):
        p = next((i for i in range(c, k) if rows[i][c]), None)
        if p is None:
            raise ArithmeticError("lowering roots are linearly dependent")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(k):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    left = [
        [sum(g * r[i] for g, r in zip(row[k:], roots)) for i in range(len(roots[0]))]
        for row in rows
    ]
    den = lcm(*(x.denominator for row in left for x in row))
    return [[int(x * den) for x in row] for row in left], den


class PairDecomposition(MatchedSpan):
    """Matched finite-type orbits of the components, block by block; with
    needed_weights, only the weights that lie above one of them (in the
    cone of the lowering roots) are built: the bound of every other
    weight is 0."""

    def __init__(self, pair: RPair, needed_weights=None):
        src = pair.source
        lowering = finite_indices(src.algebra)
        bound = pair.bound
        if needed_weights is not None:
            cone = _ConeTest([src.algebra.root(j) for j in lowering])
            needed = list(needed_weights)

            # a weight off the cone, a seed's included, has bound 0, so
            # the build skips it before acting
            def bound(wt):
                n = pair.bound(wt)
                return n if n and any(
                    nu.lam == wt.lam
                    and cone.member(tuple(a - b for a, b in zip(wt.delta, nu.delta)))
                    for nu in needed
                ) else 0

        seeds = [(comp.key, comp.v_src, comp.v_tgt) for comp in pair.components]
        super().__init__(src, pair.target, seeds, lowering, bound)


class SolverError(ArithmeticError):
    pass


def solve_R(pair: RPair, needed_weights=()):
    """Solve for the eigenvalue functions rho on every component.

    Builds the matched orbit decomposition restricted to the weights
    needed by the e_0-intertwining equations plus needed_weights
    (needed_weights=None builds every block of the window, as fusion
    needs), assembles the linear system over Q(w)(z) and solves it exactly.
    Raises SolverError when the system is inconsistent or underdetermined,
    or when the window leaves out the top component.
    """
    unknowns = [comp.key for comp in pair.components]
    if pair.lambda0 not in unknowns:
        raise SolverError("top component %r is outside the window" % (pair.lambda0,))
    src, tgt = pair.source, pair.target
    # the components whose e_0 image lies in the window: one equation each
    raised = [comp for comp in pair.components
              if not image_leaves_window(src, ("e", 0), comp.weight)]
    alpha0 = src.algebra.root(0)
    needed = (None if needed_weights is None
              else [comp.weight + alpha0 for comp in raised] + list(needed_weights))
    dec = PairDecomposition(pair, needed_weights=needed)

    equations = []
    for comp in raised:
        u = act(src, ("e", 0), comp.v_src)
        ut = act(tgt, ("e", 0), comp.v_tgt)
        parts = dec.express(u)
        if parts is None:
            raise SolverError(
                "e_0 image of component %r leaves the built span" % (comp.key,)
            )
        lhs_by_ket = {}
        for ckey, c, vt in parts:
            for ket, x in vt.terms.items():
                d = lhs_by_ket.setdefault(ket, {})
                p = c * x
                s = d.get(ckey)
                d[ckey] = p if s is None else s + p
        kets = set(lhs_by_ket) | set(ut.terms)
        for ket in sorted(kets, key=label_key):
            coeffs = dict(lhs_by_ket.get(ket, {}))
            rterm = ut.terms.get(ket)
            if rterm is not None:
                s = coeffs.get(comp.key, SZERO)
                coeffs[comp.key] = s - rterm
            equations.append((coeffs, SZERO))
    equations.append(({pair.lambda0: SONE}, SONE))
    sol, status = solve_unique(equations, unknowns)
    if status != "unique":
        raise SolverError("e_0 intertwining system is %s" % status)
    rho = {k: SONE * v for k, v in sol.items()}
    if not rho[pair.lambda0].is_one():
        raise SolverError("normalization failed on the top component")
    return rho, dec


def verify_spectral(pair, dec, rho, maxdeg):
    """Entrywise intertwining of R = sum rho_l P_l on guard-safe blocks.

    Checks R(g v) = g R(v) for every generator g on every decomposition
    basis vector of degree <= maxdeg; returns a report dict.
    """
    src, tgt = pair.source, pair.target
    gens = [(k, j) for j in src.algebra.gen_indices for k in ("e", "f")]
    checked = 0
    failures = []
    for wt, entries in dec.ordered(maxdeg):
        for ckey, vs, vt in entries:
            rimg = vt.scale(rho[ckey])
            for g in gens:
                if image_leaves_window(src, g, wt):
                    continue
                u = act(src, g, vs)
                ut = act(tgt, g, rimg)
                lhs = dec.apply(u, rho)
                if lhs is None:
                    continue
                if not (lhs - ut).is_zero():
                    failures.append((g, ckey, wt))
                checked += 1
    return {"checked": checked, "failures": failures, "pass": not failures}


def verify_completeness(pair, dec, maxdeg=None):
    """The built span is the whole source window up to degree maxdeg
    (exhaustive pairs only); "missing" lists the weights where it is not.

    The stored source vectors are independent and lie in the window, so a
    weight block with as many of them as window kets is the whole block."""
    src = pair.source
    window = Counter(src.weight_of(l) for l in src.enumerate_labels(maxdeg))
    dims = dec.dims()
    missing = sorted(
        (wt for wt, n in window.items() if dims.get(wt, 0) != n), key=block_order
    )
    return {"pass": not missing, "missing": missing}


def verify_unitarity(pair, dec, rho, maxdeg):
    """R(1/z) o R(z) = id on blocks of degree <= maxdeg (equal-label pairs)."""
    zinv = Z1.inverse()
    rho_inv = {k: v.specialize(zinv) for k, v in rho.items()}
    failures = []
    for wt, entries in dec.ordered(maxdeg):
        for ckey, vs, vt in entries:
            out = vt.scale(rho[ckey])
            # apply the flipped R: on equal-label pairs source = target
            back = dec.apply(out, rho_inv)
            if back is None or not (back - vs).is_zero():
                failures.append((ckey, wt))
    return {"pass": not failures, "failures": failures}


def verify_truncated_operator(pair_bold, dec_bold, rho_bold, pair_level, dec_level, rho_level):
    """tr(R_bold / c0) == R_level, the cross-level claim, on one level pair.

    The matched map of the bold orbit (every rho = 1) sends each level
    component's highest-weight vector to c times its level partner after
    truncation, c a Q(w) constant; c0 is the c of the top component.  Two
    normalized intertwiners of one irreducible pair differ by one scalar,
    fixed on the top component, so rho_level = rho_bold * c / c0 on every
    component ("expected" holds the right sides, "rho_failures" the c of
    each component where they differ), and rho_bold / c0 applied through
    the bold orbit equals R_level on every level block vector; those are
    kept-supported, hence valid in both pairs ("failures" lists the
    (key, weight) of each that fails).
    """
    ones = {comp.key: SONE for comp in pair_bold.components}
    scales = {}
    for comp in pair_level.components:
        phi = dec_bold.apply(comp.v_src, ones)
        if phi is None:
            raise SolverError("component vector not covered by the bold orbit")
        lead = min(comp.v_tgt.terms, key=label_key)
        c = (phi.terms[lead] / comp.v_tgt.terms[lead]).as_scalar()
        if not (phi - comp.v_tgt.scale(c)).is_zero():
            raise SolverError("truncated image is not proportional to the level hw")
        scales[comp.key] = c
    c0 = scales[pair_level.lambda0]
    inv0 = c0.inverse()
    rho = {k: v * inv0 for k, v in rho_bold.items()}
    expected = {k: rho[k] * c for k, c in scales.items()}
    rho_failures = {k: c for k, c in scales.items() if rho_level[k] != expected[k]}
    failures = []
    checked = 0
    for wt, entries in dec_level.ordered():
        for ckey, vs, vt in entries:
            rb = dec_bold.apply(vs, rho)
            rl = vt.scale(rho_level[ckey])
            checked += 1
            if rb is None or not (rb - rl).is_zero():
                failures.append((ckey, wt))
    return {
        "pass": not failures and not rho_failures,
        "checked": checked,
        "failures": failures,
        "rho_failures": rho_failures,
        "expected": expected,
        "c0": c0,
    }


def rho_pole_multisets(rho, bound):
    """factor_q_poles applied to every denominator of the solved rho's."""
    return {key: factor_q_poles(val.den, bound) for key, val in rho.items()}


def pole_failures(flavor, params, rho, bound):
    """{key: q-exponents} of each rho whose denominator leaves the declared
    pole set: a factor z - q^e with e outside poles(flavor, params, bound),
    or a factor that is no such power."""
    declared = set(poles(flavor, params, bound))
    return {
        key: ks
        for key, (ks, leftover) in rho_pole_multisets(rho, bound).items()
        if not set(ks) <= declared or len(leftover) != 1
    }


# ---------------------------------------------------------------------------
# fusion


class AdmissibilityError(ValueError):
    def __init__(self, i, j, exponent):
        self.offending = (i, j, exponent)
        super().__init__(
            "spectral ratio c_%d/c_%d = q^%d lies in the pole set"
            % (i, j, exponent)
        )


def check_admissible(flavor, params, cs):
    """(sigma, c) or (l, c) in P+; raises AdmissibilityError on a pole hit."""
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            ratio = cs[i] / cs[j]
            k = as_q_power(ratio)
            if k is None:
                continue
            if k in poles(flavor, (params[i], params[j]), abs(k)):
                raise AdmissibilityError(i, j, k)
    return True


def fuse(pair, rho, dec, zc):
    """Image of the R matrix specialized at z = zc on the built source span,
    a Subspace over the target tensor; for an exhaustive pair that span
    must be the whole window.

    R sends each stored source vector to rho(zc)[key] * v_tgt, so the
    image is read off the matched entries.  Subspace.add decides them
    shadow-first, so an entry independent at w0 costs no exact reduction,
    and the image's exact rows are filled only where a later contains
    reads them (compare_truncated_image); for a type-d pair none is."""
    if pair.exhaustive and not verify_completeness(pair, dec)["pass"]:
        raise SolverError("fusion source vector outside decomposition")
    rho_c = {k: v.specialize(zc).as_scalar() for k, v in rho.items()}
    image = Subspace(pair.target)
    for _, entries in dec.ordered():
        for key, _, vt in entries:
            if not rho_c[key].is_zero():
                image.add(vt.scale(rho_c[key]))
    return image


def compare_truncated_image(image: Subspace, level_pair, level_rho, level_dec, zc):
    """The truncated bold image against the level pair's own image fused at
    zc: compare_spans of tr(image), taken in the level pair's target, and
    that image."""
    level_image = fuse(level_pair, level_rho, level_dec, zc)
    return compare_spans(truncate_image_span(image, level_pair.target), level_image)


def hw_content(image: Subspace, pair):
    """{component key: basis of the highest-weight vectors of the image at
    that component's weight}; empty where the image has no such block."""
    out = {}
    for comp in pair.components:
        blk = image.blocks.get(comp.weight)
        out[comp.key] = hw_kernel_of_vectors(blk[1], pair.target) if blk else []
    return out


CYCLICITY_GUARD = 2


def cyclicity_diagnostic(module, hw_vec, image: Subspace):
    """Lowering-closure of one hw vector compared against the image span,
    on the weights at least CYCLICITY_GUARD below the cutoff.

    Passing means: consistent with irreducibility (never a proof)."""
    dims = lowering_closure(module, hw_vec, module.algebra.gen_indices).dims()
    maxdeg = module.cutoff - CYCLICITY_GUARD
    mismatches = [
        (wt, dims.get(wt, 0), d)
        for wt, d in image.dims().items()
        if wt.degree() <= maxdeg and dims.get(wt, 0) != d
    ]
    return {"pass": not mismatches, "mismatches": mismatches}


def fused_cyclicity(image: Subspace, content, m, sigma, level, zc):
    """cyclicity_diagnostic of a type-c fused image on its top component,
    the one of most boxes in the highest-weight content, inside the target
    W^s2(1) (x) W^s1(zc) of the level."""
    top = max((k for k, v in content.items() if v), key=sum)
    target = c_target_module(m, sigma, image.module.cutoff, level, zc)
    return cyclicity_diagnostic(target, content[top][0], image)
