"""Highest-weight bookkeeping: tableaux, candidate weights, kernel search.

The classical multiplicity oracles (desk scale, at most two tensor
factors) are hardcoded from the orthogonal/symplectic branching data and
cross-checked against exact kernel dimensions.
"""

from __future__ import annotations

from .fockmod import FockVector, act, weight_block
from .lattice import EpsilonData, Weight
from .linalg import nullspace


# -- partitions ---------------------------------------------------------------


def conjugate(lam):
    lam = [p for p in lam if p > 0]
    if not lam:
        return ()
    out = []
    for c in range(1, lam[0] + 1):
        out.append(sum(1 for p in lam if p >= c))
    return tuple(out)


def trim(lam):
    return tuple(p for p in lam if p > 0)


def is_partition(lam):
    lam = list(lam)
    return all(a >= b for a, b in zip(lam, lam[1:])) and all(p >= 0 for p in lam)


def partitions_upto(total):
    """All partitions with at most `total` boxes, including the empty one."""

    def gen(rem, maxpart):
        yield ()
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return gen(total, total)


def in_classical_family(lam, group, ell):
    """Membership in P(O_ell) (columns rule) or P(Sp_{2 ell}) (rows rule)."""
    lam = trim(lam)
    if group == "O":
        lp = conjugate(lam)
        c1 = lp[0] if lp else 0
        c2 = lp[1] if len(lp) > 1 else 0
        return c1 + c2 <= ell
    if group == "Sp":
        return len(lam) <= ell
    raise ValueError("group must be 'O' or 'Sp'")


# -- the inductive tableau filling -------------------------------------------


def tableau_H(eps: EpsilonData, nu, kept=None):
    """The filling H^eps_nu, or None when it does not complete.

    Returns (counts, audit): counts maps index -> number of occurrences,
    audit records the filling order as (index, 'row'|'col', cells).
    Entries are taken from the kept index set (default all of II), largest
    first; a 0-bit index fills the first row of nu/eta, a 1-bit index the
    first column.
    """
    nu = trim(nu)
    if not is_partition(nu):
        raise ValueError("not a partition: %r" % (nu,))
    indices = sorted(kept if kept is not None else eps.II, reverse=True)
    eta = [0] * len(nu)
    counts = {}
    audit = []
    for i in indices:
        if all(e == r for e, r in zip(eta, nu)):
            break
        if eps.eps(i) == 0:
            r = next(k for k in range(len(nu)) if eta[k] < nu[k])
            cells = nu[r] - eta[r]
            eta[r] = nu[r]
            audit.append((i, "row", cells))
        else:
            c = min(eta[k] + 1 for k in range(len(nu)) if eta[k] < nu[k])
            rows = [k for k in range(len(nu)) if eta[k] < c <= nu[k]]
            cells = len(rows)
            for k in rows:
                eta[k] = c
            audit.append((i, "col", cells))
        counts[i] = cells
    if any(e != r for e, r in zip(eta, nu)):
        return None
    return counts, audit


def hw_weight(eps: EpsilonData, lam, ell: int, flavor: str, kept=None):
    """Lambda_{lam, eps} = r*ell*Lam + sum m_i d_i, or None outside P_eps."""
    r = 1 if flavor == "c" else 2
    filled = tableau_H(eps, lam, kept=kept)
    if filled is None:
        return None
    counts, _ = filled
    delta = [0] * eps.n
    for i, c in counts.items():
        delta[i - 1] = c
    return Weight(r * ell, tuple(delta))


# -- exact highest-weight search ----------------------------------------------


def finite_indices(algebra):
    """The generator indices of the finite-type subalgebra (all but 0)."""
    return tuple(j for j in algebra.gen_indices if j != 0)


def hw_kernel_of_vectors(vectors, module):
    """Basis of {v in span(vectors) : e_j v = 0 for all raising j}."""
    raising = finite_indices(module.algebra)
    if not vectors:
        return []
    rows = {}
    for k, v in enumerate(vectors):
        for j in raising:
            for label, c in act(module, ("e", j), v).terms.items():
                rows.setdefault((j, label), {})[k] = c
    cols = list(range(len(vectors)))
    kern = nullspace(list(rows.values()), cols)
    out = []
    for coeffs in kern:
        acc = FockVector()
        for k, c in coeffs.items():
            acc = acc + vectors[k].scale(c)
        out.append(acc)
    return out


def find_hw(module, lam: Weight):
    """A basis of the exact kernel of the raising operators on the lam
    weight block."""
    vecs = [FockVector.basis(l) for l in weight_block(module, lam)]
    return hw_kernel_of_vectors(vecs, module)


def decompose(module, flavor: str, ell: int, max_degree: int):
    """Highest-weight multiplicities of the window: [(lam, multiplicity)]
    per candidate partition.

    flavor 'c' pairs with O_ell, 'd' with Sp_{2 ell}.  Candidates are the
    partitions lam with |lam| <= max_degree lying in both the classical
    family and P_eps; the multiplicity is the exact hw-kernel dimension at
    Lambda_{lam, eps}.
    """
    group = "O" if flavor == "c" else "Sp"
    eps = module.eps
    kept = module.algebra.kept
    out = []
    for lam in sorted(partitions_upto(max_degree)):
        if not in_classical_family(lam, group, ell):
            continue
        wt = hw_weight(eps, lam, ell, flavor, kept=kept)
        if wt is None:
            continue
        out.append((lam, len(find_hw(module, wt))))
    return out


def classical_dim(group: str, ell: int, lam) -> int:
    """dim V_{G_ell}(lam) for ell <= 2 (the desk-scale oracles)."""
    lam = trim(lam)
    if group == "O" and ell == 1:
        if lam in ((), (1,)):
            return 1
        raise ValueError("not in P(O_1): %r" % (lam,))
    if group == "Sp" and ell == 1:
        if len(lam) <= 1:
            return (lam[0] if lam else 0) + 1
        raise ValueError("not in P(Sp_2): %r" % (lam,))
    if group == "O" and ell == 2:
        if lam == () or lam == (1, 1):
            return 1
        if len(lam) == 1:
            return 2
        raise ValueError("not in P(O_2): %r" % (lam,))
    raise ValueError("classical_dim supports ell <= 2 only")
