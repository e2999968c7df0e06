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
from dataclasses import dataclass
from math import prod

from .algebraops import host_eps, level_module
from .decomp import finite_indices, find_hw, hw_kernel_of_vectors, hw_weight
from .fockmod import (
    FockVector,
    RestrictedModule,
    TensorModule,
    act,
    label_key,
    tensor_vector,
)
from .fundrep import (
    MatchedSpan,
    Subspace,
    block_order,
    build_fundamental,
    lowering_closure,
    u_rs,
)
from .lattice import Weight
from .linalg import solve_unique
from .scalars import (
    SONE,
    SZERO,
    Scalar,
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
    qe = SpectralScalar.from_scalar(q_power(e))
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
    return SpectralScalar.from_scalar(pref) * _pole_factor(l1 + l2 + 2 * k + 2)


def rho_d_ratio_s(l1, l2, t) -> SpectralScalar:
    pref = q_power(l2 - l1) * qint(l2 - t + 1) / qint(l1 - t + 1)
    return SpectralScalar.from_scalar(pref) * _pole_factor(-l1 - l2 - 2 + 2 * t)


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


@dataclass
class Component:
    key: object
    weight: Weight
    v_src: FockVector
    v_tgt: FockVector


@dataclass
class RPair:
    source: TensorModule
    target: TensorModule
    components: list
    lambda0: object
    exhaustive: bool


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
    )


def _hw_line(module, wt):
    rep = find_hw(module, wt)
    if rep.dimension != 1:
        raise ArithmeticError(
            "highest-weight space at %s has dimension %d, expected 1"
            % (wt.to_str(), rep.dimension)
        )
    return rep.basis[0]


def d_component_keys(l1, l2, cutoff):
    out = []
    r = 0
    while l1 + l2 + 2 * r <= cutoff:
        for s in range(0, min(l1, l2) + 1):
            out.append((r, s))
        r += 1
    return out


def make_d_pair(m, l1, l2, cutoff, level="underline"):
    """The pair W_{l1}(z) (x) W_{l2}(1) of type-d fundamental modules."""
    if level not in ("bold", "underline"):
        raise ValueError("make_d_pair supports levels 'bold' and 'underline'")
    epsp = host_eps("d", m)
    A, _ = level_module("d", level, epsp, Z1, cutoff)
    B, _ = level_module("d", level, epsp, Scalar.from_int(1), cutoff)
    source = TensorModule([A, B])
    target = TensorModule([B, A])
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
        spans_src = _fundamental_pair_span(source, l1, l2)
        spans_tgt = _fundamental_pair_span(target, l2, l1)
        for (r, s) in d_component_keys(l1, l2, cutoff):
            lam = (l1 + l2 + r - s, r + s)
            wt = hw_weight(epsp, lam, 2, "d")
            if wt is None or wt.degree() > cutoff:
                continue
            vs = _hw_in_span(source, spans_src, wt)
            vt = _hw_in_span(target, spans_tgt, wt)
            comps.append(
                Component((r, s), wt, _normalize_lex(vs), _normalize_lex(vt))
            )
    return RPair(
        source=source,
        target=target,
        components=comps,
        lambda0=(0, min(l1, l2)),
        exhaustive=False,
    )


def c_target_module(m, sigma, cutoff, level, x):
    """The concrete-parameter target W^s2(1) (x) W^s1(x) for fused images."""
    eps = host_eps("c", m)
    par = {"+": 0, "-": 1}
    A, _ = level_module("c", level, eps, x, cutoff)
    B, _ = level_module("c", level, eps, Scalar.from_int(1), cutoff)
    return TensorModule(
        [RestrictedModule(B, par[sigma[1]]), RestrictedModule(A, par[sigma[0]])]
    )


def _fundamental_pair_span(tensor, l1, l2):
    f1, f2 = tensor.factors
    rep1 = build_fundamental(f1, l1, l1, check_closure=False)
    rep2 = build_fundamental(f2, l2, l2, check_closure=False)
    return rep1.span, rep2.span


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

    The lowering roots are linearly independent, so a delta-vector lies in
    their Q-span at most one way; it is in the cone iff that solution
    exists and is a nonnegative integer vector."""

    def __init__(self, roots):
        self.roots = [tuple(r.delta) for r in roots]
        self.cache = {}

    def member(self, dvec):
        dvec = tuple(dvec)
        hit = self.cache.get(dvec)
        if hit is not None:
            return hit
        cols = range(len(self.roots))
        eqs = [
            ({j: Scalar.from_int(root[i]) for j, root in enumerate(self.roots)},
             Scalar.from_int(d))
            for i, d in enumerate(dvec)
        ]
        sol, status = solve_unique(eqs, cols)
        if status == "underdetermined":
            raise ArithmeticError("lowering roots are linearly dependent")
        ok = status == "unique" and all(_is_nonneg_int(x) for x in sol.values())
        self.cache[dvec] = ok
        return ok


def _is_nonneg_int(x: Scalar):
    parts = x.monomial_parts()
    return parts is not None and parts[1] == 0 and parts[0].denominator == 1 and parts[0] >= 0


class PairDecomposition(MatchedSpan):
    """Matched finite-type orbits of the components, block by block; with
    needed_weights, only the weights that lie above one of them (in the
    cone of the lowering roots) are built."""

    def __init__(self, pair: RPair, needed_weights=None):
        src = pair.source
        lowering = finite_indices(src.algebra)
        admit = None
        if needed_weights is not None:
            cone = _ConeTest([src.algebra.root(j) for j in lowering])
            needed = list(needed_weights)

            def admit(wt):
                return any(
                    nu.lam == wt.lam
                    and cone.member(tuple(a - b for a, b in zip(wt.delta, nu.delta)))
                    for nu in needed
                )

        seeds = [
            (comp.key, comp.v_src, comp.v_tgt)
            for comp in pair.components
            if admit is None or admit(comp.weight)
        ]
        super().__init__(src, pair.target, seeds, lowering, admit)


class SolverError(ArithmeticError):
    pass


def solve_R(pair: RPair, needed_weights=None, full_window=False):
    """Solve for the eigenvalue functions rho on every component.

    Builds the matched orbit decomposition restricted to the weights
    needed by the e_0-intertwining equations (plus any extra requested;
    full_window=True builds every block of the window, as fusion needs),
    assembles the linear system over Q(w)(z) and solves it exactly.
    Raises SolverError when the system is inconsistent or underdetermined.
    """
    src, tgt = pair.source, pair.target
    cutoff = src.cutoff
    alpha0 = src.algebra.root(0)
    eq_weights = []
    for comp in pair.components:
        if comp.weight.degree() + 2 <= cutoff:
            eq_weights.append(comp.weight + alpha0)
    if full_window:
        needed = None
    else:
        needed = list(eq_weights)
        if needed_weights:
            needed.extend(needed_weights)
    dec = PairDecomposition(pair, needed_weights=needed)

    unknowns = [comp.key for comp in pair.components]
    equations = []
    for comp in pair.components:
        if comp.weight.degree() + 2 > cutoff:
            continue
        u = act(src, ("e", 0), comp.v_src)
        ut = act(tgt, ("e", 0), comp.v_tgt)
        if u.overflow or ut.overflow:
            continue
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
    rho = {k: _to_spectral(v) for k, v in sol.items()}
    if not rho[pair.lambda0].is_one():
        raise SolverError("normalization failed on the top component")
    return rho, dec


def _to_spectral(v):
    if isinstance(v, SpectralScalar):
        return v
    return SpectralScalar.from_scalar(v)


def verify_spectral(pair, dec, rho, maxdeg, gens=None):
    """Entrywise intertwining of R = sum rho_l P_l on guard-safe blocks.

    Checks R(g v) = g R(v) for every generator g on every decomposition
    basis vector of degree <= maxdeg; returns a report dict.
    """
    src, tgt = pair.source, pair.target
    alg = src.algebra
    gens = gens or [(k, j) for j in alg.gen_indices for k in ("e", "f")]
    checked = 0
    failures = []
    for wt, entries in dec.ordered(maxdeg):
        for ckey, vs, vt in entries:
            rimg = vt.scale(rho[ckey])
            for g in gens:
                u = act(src, g, vs)
                ut = act(tgt, g, rimg)
                if u.overflow or ut.overflow:
                    continue
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


def verify_truncated_operator(dec_bold, rho_bold, dec_level, rho_level):
    """tr(R_bold) == R_level as operators, on every level block vector.

    Convention-free form of the coefficient-equality lemma: both sides are
    evaluated on the level decomposition's basis vectors (kept-supported,
    hence valid in both pairs) and compared entrywise.
    """
    failures = []
    checked = 0
    for wt, entries in dec_level.ordered():
        for ckey, vs, vt in entries:
            rb = dec_bold.apply(vs, rho_bold)
            rl = vt.scale(rho_level[ckey])
            checked += 1
            if rb is None or not (rb - rl).is_zero():
                failures.append((ckey, wt))
    return {"pass": not failures, "checked": checked, "failures": failures}


def compatibility_scale(dec_bold, comps_bold, comp_level):
    """The constant c with tr(Phi_bold(v_level)) = c * v'_level.

    In the truncation-compatible normalization of the level pair the
    eigenvalues satisfy rho_level = (c / c_{lambda0}) * rho_bold on this
    component, the lambda0 constant being the one of the top component."""
    ones = {c.key: SONE for c in comps_bold}
    phi = dec_bold.apply(comp_level.v_src, ones)
    if phi is None:
        raise SolverError("component vector not covered by the bold orbit")
    lead = min(comp_level.v_tgt.terms, key=label_key)
    c = phi.terms[lead] / comp_level.v_tgt.terms[lead]
    if not (phi - comp_level.v_tgt.scale(c)).is_zero():
        raise SolverError("truncated image is not proportional to the level hw")
    return c


def compatible_bold_rho(pair_bold, dec_bold, pair_level, rho_bold):
    """rho of the bold pair re-expressed in the level's normalization.

    Two normalized intertwiners of one irreducible pair differ by a single
    scalar; pinning the top component gives rho_level = rho_bold * c / c0.
    Returns ({key: expected level rho}, {key: c}, c0); the rescaled
    operator sum rho_bold/c0 equals the level R matrix after truncation.
    """
    scales = {}
    for comp in pair_level.components:
        scales[comp.key] = compatibility_scale(dec_bold, pair_bold.components, comp)
    c0 = scales[pair_level.lambda0]
    expected = {}
    for key, c in scales.items():
        fac = SpectralScalar.from_scalar(c * c0.inverse())
        expected[key] = rho_bold[key] * fac
    return expected, scales, c0


def compare_spans(a: Subspace, b: Subspace):
    """Equal weight-block dimensions and mutual containment."""
    dims_a, dims_b = a.dims(), b.dims()
    if dims_a != dims_b:
        return {"pass": False, "reason": "dimension census differs",
                "only_a": {k.to_str(): v for k, v in dims_a.items() if dims_b.get(k) != v},
                "only_b": {k.to_str(): v for k, v in dims_b.items() if dims_a.get(k) != v}}
    for x, y, name in ((a, b, "a in b"), (b, a, "b in a")):
        for _, vecs in x.blocks.values():
            if not all(y.contains(v) for v in vecs):
                return {"pass": False, "reason": "containment %s fails" % name}
    return {"pass": True}


def rho_pole_multisets(rho, bound):
    """factor_q_poles applied to every denominator of the solved rho's."""
    out = {}
    for key, val in rho.items():
        den = val.den_poly_coeffs()
        ks, leftover = factor_q_poles(den, bound)
        out[key] = (ks, leftover)
    return out


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
            if flavor == "c":
                pol = pole_exponents_c((params[i], params[j]), abs(k))
            else:
                pol = pole_exponents_d(params[i], params[j], abs(k))
            if k in pol:
                raise AdmissibilityError(i, j, k)
    return True


def fuse(pair, rho, dec, c1, c2):
    """Image of the R matrix specialized at z = c1/c2 on the built source
    span, a Subspace over the target tensor; for an exhaustive pair that
    span must be the whole window.

    R sends each stored source vector to rho(c1/c2)[key] * v_tgt, so the
    image is read off the matched entries."""
    if pair.exhaustive and not verify_completeness(pair, dec)["pass"]:
        raise SolverError("fusion source vector outside decomposition")
    zc = c1 / c2
    rho_c = {k: v.specialize(zc).as_scalar() for k, v in rho.items()}
    image = Subspace(pair.target)
    for _, entries in dec.ordered():
        for key, _, vt in entries:
            if not rho_c[key].is_zero():
                image.add(vt.scale(rho_c[key]))
    return image


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
