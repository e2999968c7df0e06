"""Weight lattice P = Z*Lam + sum Z*d_i, the eps-datum, and the q-pairing."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import Q, QTILDE, Scalar


@dataclass(frozen=True)
class Weight:
    """Element of P: lam * Lambda + sum_i delta[i-1] * d_i (1-indexed d's)."""

    lam: int
    delta: tuple

    def __add__(self, other):
        return Weight(
            self.lam + other.lam,
            tuple(a + b for a, b in zip(self.delta, other.delta)),
        )

    def __sub__(self, other):
        return Weight(
            self.lam - other.lam,
            tuple(a - b for a, b in zip(self.delta, other.delta)),
        )

    def __neg__(self):
        return Weight(-self.lam, tuple(-a for a in self.delta))

    def scale(self, c: int):
        return Weight(c * self.lam, tuple(c * a for a in self.delta))

    def degree(self):
        return sum(self.delta)

    def to_str(self):
        parts = []
        if self.lam:
            parts.append("%d*L" % self.lam)
        for i, c in enumerate(self.delta, start=1):
            if c:
                parts.append("%d*d%d" % (c, i))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "Weight(%s)" % self.to_str()


class EpsilonData:
    """A 0/1 sequence (eps_1, ..., eps_n) with its derived index data.

    I = {0, ..., n} indexes the generators, II = {1, ..., n} the deltas.
    q_i is q when eps_i = 0 and -1/q when eps_i = 1.
    """

    def __init__(self, seq):
        seq = tuple(int(b) for b in seq)
        if any(b not in (0, 1) for b in seq):
            raise ValueError("epsilon entries must be 0 or 1")
        self.seq = seq
        self.n = len(seq)
        self.I = tuple(range(self.n + 1))
        self.II = tuple(range(1, self.n + 1))

    def eps(self, i):
        return self.seq[i - 1]

    def qi(self, i) -> Scalar:
        return QTILDE if self.seq[i - 1] else Q

    def Lam(self):
        return Weight(1, (0,) * self.n)

    def delta(self, i):
        return Weight(0, tuple(1 if j == i else 0 for j in self.II))

    def __repr__(self):
        return "EpsilonData(%s)" % (self.seq,)

    def __eq__(self, other):
        return isinstance(other, EpsilonData) and self.seq == other.seq

    def __hash__(self):
        return hash(self.seq)


def simple_root(i: int, eps: EpsilonData) -> Weight:
    """alpha_i: d_{i+1} - d_i for 0 < i < n; alpha_0 = d_1 + d_2;
    alpha_n = -d_n - d_{n-1}."""
    n = eps.n
    if i == 0:
        return eps.delta(1) + eps.delta(2)
    if i == n:
        return -(eps.delta(n) + eps.delta(n - 1))
    if 0 < i < n:
        return eps.delta(i + 1) - eps.delta(i)
    raise IndexError("generator index %d outside I" % i)


def bilinear(mu: Weight, nu: Weight, eps: EpsilonData) -> Fraction:
    """Symmetric form with (d_i|d_j) = (-1)^eps_i delta_ij, (d_i|Lam) = -1/2,
    and (Lam|Lam) = (1/4) * sum_i (-1)^eps_i."""
    acc = Fraction(0)
    for i in eps.II:
        s = 1 if eps.eps(i) == 0 else -1
        acc += s * mu.delta[i - 1] * nu.delta[i - 1]
    acc += Fraction(-1, 2) * (
        mu.lam * sum(nu.delta) + nu.lam * sum(mu.delta)
    )
    acc += Fraction(mu.lam * nu.lam, 4) * sum(
        1 if eps.eps(i) == 0 else -1 for i in eps.II
    )
    return acc


def qpair_exponent(mu: Weight, nu: Weight, eps: EpsilonData):
    """(sign, e) with q(mu, nu) = sign * w**e: the pairing as a sign and a
    power of w."""
    wexp = nu.lam * sum(mu.delta) + mu.lam * sum(nu.delta)
    sign = 1
    for i in eps.II:
        e = mu.delta[i - 1] * nu.delta[i - 1]
        if e == 0:
            continue
        if eps.eps(i) == 0:
            wexp += 2 * e
            if e % 2:
                sign = -sign
        else:
            wexp -= 2 * e
    return sign, wexp


def qpair(mu: Weight, nu: Weight, eps: EpsilonData) -> Scalar:
    """The biadditive pairing q(mu, nu) = v^(l' |mu| + l |nu|) prod q_i^(mu_i nu_i),
    where l, l' are the Lambda-coefficients of mu and nu."""
    return Scalar.monomial(*qpair_exponent(mu, nu, eps))
