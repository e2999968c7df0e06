"""Exact arithmetic in Q(w) and its extensions by spectral variables.

The coefficient field is realized as Q(w) with q = -w**2, so that
v = w satisfies v**2 = -q and qt := -1/q = w**-2.  Every element is a
reduced fraction w**noff * f(w**s) / g(w**s) of integer polynomials, kept
in the compressed variable x = w**s.  The stride s in {1, 2, 4} is the
largest that divides every exponent of f and g: q-integers and spectral
factors are q**a * f(q**2) / g(q**2), so most fractions have s = 4 and
the kernel touches a quarter of the coefficients a dense w-tuple holds.
Reducing in x is exact, since gcd(f(w**s), g(w**s)) = gcd(f, g)(w**s).
Equality is structural.  Spectral elements are fractions in one variable
z over Q(w): every claim depends on the spectral parameters x1, x2 only
through z = x1/x2, or is homogeneous in them and so is checked at
(x1, x2) = (z, 1) (fundrep.verify_EF_identities).  They take the same
layout, z**noff * num(z) / den(z) with num and den dense tuples of Scalar
coefficients, and their gcds run Euclid over Q(w) on those tuples; a
Scalar or an int enters them by coercion in the arithmetic operators.
In both fields a sum a/b + c/d cancels only gcd(num, g) for
g = gcd(b, d), and nothing when g = 1 (Henrici), and a product of
reduced fractions cancels gcd(a, d) and gcd(c, b) before it multiplies,
so no gcd of full cross products is ever taken.  In Q(w) each of these
gcds comes with its cofactors from one cached call, _pgcd_cof.  It runs
the heuristic GCDHEU: the gcd of the values at an integer
xi >= 2 min(|a|, |b|) + 2, read back in symmetric base xi, is accepted
only when it divides both polynomials exactly, which under that bound
proves it the gcd and gives the cofactors; after a few larger xi the
primitive PRS takes over.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _igcd
from math import isqrt

# ---------------------------------------------------------------------------
# integer polynomials in one variable: dense tuples, cs[0] != 0 and
# cs[-1] != 0 unless ().  A Scalar's polynomials are in x = w**stride.

_PZERO = ()
_PONE = (1,)


def _ptrim(cs):
    i, j = 0, len(cs)
    while j > i and cs[j - 1] == 0:
        j -= 1
    while i < j and cs[i] == 0:
        i += 1
    return i, tuple(cs[i:j])


def _padd(a_off, a, b_off, b):
    if not a:
        return b_off, b
    if not b:
        return a_off, a
    off = min(a_off, b_off)
    top = max(a_off + len(a), b_off + len(b))
    cs = [0] * (top - off)
    for i, c in enumerate(a):
        cs[a_off - off + i] += c
    for i, c in enumerate(b):
        cs[b_off - off + i] += c
    doff, cs = _ptrim(cs)
    return off + doff, cs


def _pmul(a, b):
    """Product of nonzero trimmed polynomials (no offsets), trimmed too."""
    if len(a) == 1:
        x = a[0]
        return b if x == 1 else tuple(x * c for c in b)
    if len(b) == 1:
        y = b[0]
        return a if y == 1 else tuple(y * c for c in a)
    cs = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                cs[i + j] += x * y
    return tuple(cs)


def _peval_mod(cs, x, p):
    """cs at x in GF(p), by Horner."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % p
    return acc


def _pneg(cs):
    return tuple(-c for c in cs)


def _pcontent(cs):
    g = 0
    for c in cs:
        g = _igcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _pprim(cs):
    g = _pcontent(cs)
    if g <= 1:
        return cs, g if cs else 0
    return tuple(c // g for c in cs), g


def _pdiv_exact(a, b):
    """a/b for integer polynomials (no offsets) when b divides a exactly
    over Z, else None."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c, m = divmod(r[k + len(b) - 1], lb)
        if m:
            return None
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    if any(r):
        return None
    return tuple(q)


def _prem(a, b):
    """Integer pseudo-remainder of a by b (lists, b nonzero)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if not r or dr < db:
            return r
        lr = r[-1]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[dr - db + i] -= lr * b[i]


def _pgcd_prs(a, b):
    """gcd of two primitive integer polynomials via a primitive PRS,
    primitive with lc > 0."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _pprim(tuple(r))[0]
    return a if a[-1] > 0 else _pneg(a)


_HEU_ATTEMPTS = 6  # evaluation points GCDHEU tries before the PRS
_COPRIME = object()  # the cached result of a coprime pair


def _pgcd_heu(a, b):
    """(g, a/g, b/g) for primitive a, b of positive degree by GCDHEU (Char,
    Geddes and Gonnet 1989; Geddes, Czapor and Labahn 1992, 7.7), or None
    when every evaluation point fails.

    h is the primitive part of the symmetric base-xi digits of
    gcd(a(xi), b(xi)).  With xi >= 2 |a| + 2 for the a of smaller norm,
    an h that divides a and b exactly is their gcd: g = h k, and k(xi)
    divides the content of the digits, at most xi/2 in size, while every
    root r of k is a root of a, so |r| < 1 + |a| and
    |k(xi)| > xi - 1 - |a| >= xi/2 unless k is a constant."""
    na = max(map(abs, a))
    nb = max(map(abs, b))
    xi = 2 * (na if na < nb else nb) + 2
    top = len(a) if len(a) < len(b) else len(b)
    for _ in range(_HEU_ATTEMPTS):
        va = vb = 0
        for c in reversed(a):
            va = va * xi + c
        for c in reversed(b):
            vb = vb * xi + c
        if va and vb:
            gamma = _igcd(va, vb)
            half = xi // 2
            h = []
            while gamma:
                d = gamma % xi
                if d > half:
                    d -= xi
                h.append(d)
                gamma = (gamma - d) // xi
            if len(h) == 1:
                return _COPRIME
            if len(h) <= top:
                h = _pprim(tuple(h))[0]
                qa = _pdiv_exact(a, h)
                if qa is not None:
                    qb = _pdiv_exact(b, h)
                    if qb is not None:
                        return h, qa, qb
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


@lru_cache(maxsize=4096)
def _pgcd_prim_cof(a, b):
    """(g, a/g, b/g) for primitive a, b of positive degree with lc > 0, or
    _COPRIME; the PRS runs only when the heuristic fails."""
    r = _pgcd_heu(a, b)
    if r is not None:
        return r
    g = _pgcd_prs(a, b)
    if len(g) == 1:
        return _COPRIME
    return g, _pdiv_exact(a, g), _pdiv_exact(b, g)


def _pgcd_cof(a, b):
    """(g, a/g, b/g) for nonzero integer polynomials a, b (no offsets):
    g = gcd(a, b), primitive with lc > 0, and the exact cofactors."""
    if len(a) == 1 or len(b) == 1:
        return _PONE, a, b
    pa, ca = _pprim(a)
    if pa[-1] < 0:
        pa, ca = _pneg(pa), -ca
    pb, cb = _pprim(b)
    if pb[-1] < 0:
        pb, cb = _pneg(pb), -cb
    r = _pgcd_prim_cof(pa, pb)
    if r is _COPRIME:
        return _PONE, a, b
    g, qa, qb = r
    if ca != 1:
        qa = tuple(ca * c for c in qa)
    if cb != 1:
        qb = tuple(cb * c for c in qb)
    return g, qa, qb


def _stretch(cs, r):
    """cs(x) -> cs(x**r): the coefficients at a stride r times finer."""
    if r == 1 or len(cs) == 1:
        return cs
    out = [0] * ((len(cs) - 1) * r + 1)
    out[::r] = cs
    return tuple(out)


def _compress(s, num, den):
    """Raise the stride s of num/den to the largest in {1, 2, 4} that
    their exponents allow; returns (stride, num, den)."""
    while s < 4 and not any(num[1::2]) and not any(den[1::2]):
        s, num, den = 2 * s, num[::2], den[::2]
    return s, num, den


class Scalar:
    """Element of Q(w): w**noff * num(w**stride) / den(w**stride).

    Canonical form: num and den are integer polynomials in x = w**stride,
    coprime over Q[x], each with a nonzero constant term; den has a
    positive leading coefficient and integer content coprime to num's; the
    stride is the largest of 1, 2, 4 that divides every exponent of num
    and den (4 for monomials and zero).  The form is unique, so Scalar
    equality and hashing are structural.  Scalar(noff, num, den) takes
    coefficient tuples in w and reduces them; dense() gives them back.
    """

    __slots__ = ("noff", "stride", "num", "den", "_hash")

    def __init__(self, noff, num, den):
        self.noff, self.stride, self.num, self.den = _reduce(noff, 1, num, den)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n):
        if n == 0:
            return ZERO
        return _make(0, 4, (n,), _PONE)

    @staticmethod
    def monomial(coeff, exp):
        """coeff * w**exp with integer coeff."""
        if coeff == 0:
            return ZERO
        return _make(exp, 4, (coeff,), _PONE)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.noff == 0 and self.num == _PONE and self.den == _PONE

    def dense(self):
        """(noff, num, den) with num and den as coefficient tuples in w."""
        return (
            self.noff,
            _stretch(self.num, self.stride) if self.num else _PZERO,
            _stretch(self.den, self.stride),
        )

    def residue(self, w0, p):
        """The image of self under w -> w0 in GF(p) (w0 a unit mod p), or
        None when its denominator vanishes there."""
        x = pow(w0, self.stride, p)
        den = _peval_mod(self.den, x, p)
        if not den:
            return None
        return _peval_mod(self.num, x, p) * pow(den * pow(w0, -self.noff, p), -1, p) % p

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.num, other.num
        if not a:
            return other
        if not b:
            return self
        da, db = self.den, other.den
        sa, sb = self.stride, other.stride
        # the common stride divides both strides and the offset gap
        s = sa if sa < sb else sb
        d = self.noff - other.noff
        if d & (s - 1):
            s = 1 if d & 1 else 2
        if d < 0:
            lo, a_off, b_off = self.noff, 0, -d // s
        else:
            lo, a_off, b_off = other.noff, d // s, 0
        if sa != s:
            a, da = _stretch(a, sa // s), _stretch(da, sa // s)
        if sb != s:
            b, db = _stretch(b, sb // s), _stretch(db, sb // s)
        if da == db:
            off, num = _padd(a_off, a, b_off, b)
            if not num:
                return ZERO
            noff = lo + s * off
            if da != _PONE:
                return _make(*_reduce(noff, s, num, da))
            # a trimmed polynomial over (1,) is canonical up to its stride
            if s < 4:
                s, num, _ = _compress(s, num, _PONE)
            return _make(noff, s, num, _PONE)
        # Henrici: with g = gcd(da, db), the sum can share a factor with
        # g alone, so only gcd(num, g) is taken, and none when g = 1
        g, da, db = _pgcd_cof(da, db)
        off, num = _padd(a_off, _pmul(a, db), b_off, _pmul(b, da))
        den = _pmul(da, db)
        if len(g) > 1:
            _, num, g = _pgcd_cof(num, g)
            den = _pmul(den, g)
        return _make(*_reduce_tail(lo + s * off, s, num, den))

    def __neg__(self):
        if not self.num:
            return self
        return _make(self.noff, self.stride, _pneg(self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, c = self.num, other.num
        if not a or not c:
            return ZERO
        b, d = self.den, other.den
        if b == _PONE and d == _PONE and len(a) == 1 and len(c) == 1:
            if a == _PONE and not self.noff:
                return other
            if c == _PONE and not other.noff:
                return self
            return _make(self.noff + other.noff, 4, (a[0] * c[0],), _PONE)
        if self.is_one():
            return other
        if other.is_one():
            return self
        sa, sc = self.stride, other.stride
        s = sa if sa < sc else sc
        if sa != s:
            a, b = _stretch(a, sa // s), _stretch(b, sa // s)
        if sc != s:
            c, d = _stretch(c, sc // s), _stretch(d, sc // s)
        noff = self.noff + other.noff
        if b == _PONE and d == _PONE:
            return _make(noff, *_compress(s, _pmul(a, c), _PONE))
        # (a/b)(c/d) with a, b and c, d coprime: cancel across, so the
        # cofactor products are coprime and only the integer content is
        # left; a square has nothing to cancel
        if other is not self:
            _, a, d = _pgcd_cof(a, d)
            _, c, b = _pgcd_cof(c, b)
        num, den = _pmul(a, c), _pmul(b, d)
        k = _igcd(_pcontent(a) * _pcontent(c), _pcontent(b) * _pcontent(d))
        if k > 1:
            num = tuple(x // k for x in num)
            den = tuple(x // k for x in den)
        return _make(noff, *_compress(s, num, den))

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return _make(-self.noff, self.stride, num, den)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        return _power(self, n, ONE)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.noff == other.noff
            and self.stride == other.stride
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.noff, self.stride, self.num, self.den))
        return self._hash

    def __repr__(self):
        return "Scalar(%s)" % self.to_str()

    def to_str(self, var="w"):
        return "(%s)/(%s)" % (
            _poly_str(self.noff, self.stride, self.num, var),
            _poly_str(0, self.stride, self.den, var),
        )


def _make(noff, stride, num, den):
    """A Scalar from parts already in canonical form."""
    s = object.__new__(Scalar)
    s.noff = noff
    s.stride = stride
    s.num = num
    s.den = den
    s._hash = None
    return s


def _reduce(noff, s, num, den):
    """Canonical (noff, stride, num, den) of w**noff * num(w**s) / den(w**s)."""
    i, num = _ptrim(num)
    j, den = _ptrim(den)
    if not num:
        return 0, 4, _PZERO, _PONE
    if not den:
        raise ZeroDivisionError("zero denominator")
    noff += s * (i - j)
    if len(den) > 1 and len(num) > 1:
        s, num, den = _compress(s, num, den)
        _, num, den = _pgcd_cof(num, den)
    return _reduce_tail(noff, s, num, den)


def _reduce_tail(noff, s, num, den):
    """_reduce after the gcd: num/den coprime over Q, trimmed; fixes the
    integer content, the sign of lc(den) and the stride."""
    num, cn = _pprim(num)
    den, cd = _pprim(den)
    g = _igcd(cn, cd)
    cn //= g
    cd //= g
    if den[-1] < 0:
        den = _pneg(den)
        num = _pneg(num)
    num = tuple(c * cn for c in num)
    den = tuple(c * cd for c in den)
    # a cancellation can raise the stride
    s, num, den = _compress(s, num, den)
    return noff, s, num, den


def _poly_str(off, stride, cs, var):
    if not cs:
        return "0"
    parts = []
    for i, c in enumerate(cs):
        if not c:
            continue
        e = off + stride * i
        if e == 0:
            parts.append("%d" % c)
        else:
            mono = var if e == 1 else "%s^%d" % (var, e)
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%d*%s" % (c, mono))
    out = parts[0]
    for p in parts[1:]:
        out += ("+" + p) if not p.startswith("-") else p
    return out


ZERO = _make(0, 4, _PZERO, _PONE)
ONE = _make(0, 4, _PONE, _PONE)
MINUS_ONE = _make(0, 4, (-1,), _PONE)
W = Scalar.monomial(1, 1)  # v
Q = Scalar.monomial(-1, 2)  # q = -w^2
QINV = Scalar.monomial(-1, -2)
QTILDE = Scalar.monomial(1, -2)  # -1/q = w^-2


def q_power(k):
    """q**k as a Scalar."""
    return Scalar.monomial(-1 if k % 2 else 1, 2 * k)


def as_q_power(s: Scalar):
    """Return k with s == q**k, or None."""
    k = s.noff // 2
    return k if s == q_power(k) else None


@lru_cache(maxsize=None)
def qint(m: int) -> Scalar:
    """Quantum integer [m] = (q^m - q^-m)/(q - q^-1), expanded in w."""
    if m == 0:
        return ZERO
    if m < 0:
        return -qint(-m)
    # [m] = (-1)^(m-1) * sum_j w^(2(m-1) - 4j), j = 0..m-1: stride 4
    sign = 1 if (m - 1) % 2 == 0 else -1
    return _make(-2 * (m - 1), 4, (sign,) * m, _PONE)


def qint_at(p: Scalar, m: int) -> Scalar:
    """[m] evaluated at base p, i.e. (p^m - p^-m)/(p - p^-1)."""
    if m == 0:
        return ZERO
    if m < 0:
        return -qint_at(p, -m)
    acc = ZERO
    pw = p ** (m - 1)
    p2inv = (p * p).inverse()
    for _ in range(m):
        acc = acc + pw
        pw = pw * p2inv
    return acc


def qfact_at(p: Scalar, m: int) -> Scalar:
    acc = ONE
    for i in range(1, m + 1):
        acc = acc * qint_at(p, i)
    return acc


def qbinom_at(p: Scalar, m: int, k: int) -> Scalar:
    if not (0 <= k <= m):
        raise ValueError("qbinom out of range: (%d, %d)" % (m, k))
    return qfact_at(p, m) / (qfact_at(p, k) * qfact_at(p, m - k))


# ---------------------------------------------------------------------------
# spectral extension: fractions in z over Q(w)


class PoleError(ArithmeticError):
    """Specialization hit a pole; carries the vanishing denominator."""

    def __init__(self, var, value, denominator, q_exponent=None):
        self.var = var
        self.value = value
        self.denominator = denominator
        self.q_exponent = q_exponent
        msg = "pole at %s = %s" % (var, value.to_str())
        if q_exponent is not None:
            msg += " (factor z - q^%d)" % q_exponent
        super().__init__(msg)


def _ztrim(cs):
    """(i, cs[i:j]) with cs[i] and cs[j - 1] nonzero, as _ptrim."""
    i, j = 0, len(cs)
    while j > i and cs[j - 1].is_zero():
        j -= 1
    while i < j and cs[i].is_zero():
        i += 1
    return i, tuple(cs[i:j])


def _zadd(a_off, a, b_off, b):
    """z**a_off a + z**b_off b as (offset, trimmed tuple), as _padd."""
    if not a:
        return b_off, b
    if not b:
        return a_off, a
    if a_off > b_off:
        a_off, a, b_off, b = b_off, b, a_off, a
    cs = list(a)
    k = b_off - a_off
    cs.extend([ZERO] * (k + len(b) - len(cs)))
    for i, c in enumerate(b, k):
        cs[i] = cs[i] + c
    i, cs = _ztrim(cs)
    return a_off + i, cs


def _zmul(a, b):
    """Product of nonzero trimmed coefficient tuples, trimmed too."""
    if len(a) == 1:
        x = a[0]
        return b if x.is_one() else tuple(x * c for c in b)
    if len(b) == 1:
        y = b[0]
        return a if y.is_one() else tuple(y * c for c in a)
    cs = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b, i):
                cs[j] = cs[j] + x * y
    return tuple(cs)


def _zscale(a, s: Scalar):
    """a times a nonzero Scalar s."""
    return a if s.is_one() else tuple(c * s for c in a)


def _zgcd(a, b):
    """Monic gcd of nonzero trimmed coefficient tuples (Euclid over Q(w))."""
    a, b = list(a), list(b)
    while b:
        # a mod b; the top coefficient cancels exactly
        inv = b[-1].inverse()
        while len(a) >= len(b):
            c = a[-1] * inv
            k = len(a) - len(b)
            for i in range(len(b) - 1):
                a[k + i] = a[k + i] - c * b[i]
            a.pop()
            while a and a[-1].is_zero():
                a.pop()
        a, b = b, a
    return _zscale(tuple(a), a[-1].inverse())


def _zdiv_exact(a, b):
    """a/b for a monic b that divides a."""
    r = list(a)
    q = [ZERO] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1]
        if not c.is_zero():
            for i in range(len(b) - 1):
                r[k + i] = r[k + i] - c * b[i]
    if any(not c.is_zero() for c in r[: len(b) - 1]):
        raise ArithmeticError("inexact division in Q(w)[z]")
    return tuple(q)


def _zcancel(n, d):
    """(n/g, d/g) for the monic g = gcd(n, d) of trimmed tuples; both have
    nonzero constant terms, so powers of z never cancel."""
    if len(n) < 2 or len(d) < 2:
        return n, d
    g = _zgcd(n, d)
    if len(g) == 1:
        return n, d
    return _zdiv_exact(n, g), _zdiv_exact(d, g)


class SpectralScalar:
    """Element of Q(w)(z): z**noff * num(z) / den(z), as Scalar in w.

    num and den are tuples of Scalar coefficients, lowest degree first,
    each with a nonzero constant term (num is () for zero, with noff 0);
    den is monic and coprime to num.  The form is unique, so equality and
    hashing are structural on (noff, num, den).  SpectralScalar(noff,
    num, den) takes any coefficient tuples and reduces them.  The variable
    prints as z1 by default.
    """

    __slots__ = ("noff", "num", "den", "_hash")

    def __init__(self, noff, num, den):
        self.noff, self.num, self.den = _sreduce(noff, num, den)
        self._hash = None

    @staticmethod
    def from_scalar(s: Scalar):
        return SpectralScalar.monomial(s, 0)

    @staticmethod
    def monomial(s: Scalar, e: int):
        """s * z**e; s must be a Scalar, or the fraction would nest."""
        if not isinstance(s, Scalar):
            raise TypeError(
                "a spectral coefficient is a Scalar, got %s" % type(s).__name__
            )
        if s.is_zero():
            return SZERO
        return _smake(e, (s,), _ZONE)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return (
            self.noff == 0 and len(self.num) == 1 and len(self.den) == 1
            and self.num[0].is_one()
        )

    def as_scalar(self):
        """Return the underlying Scalar when z does not occur."""
        if not self.num:
            return ZERO
        if self.noff or len(self.num) > 1 or len(self.den) > 1:
            raise ValueError("spectral variable present: %s" % self)
        return self.num[0]

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        da, db = self.den, other.den
        if da == db:
            return SpectralScalar(*_zadd(self.noff, self.num, other.noff, other.num), da)
        # Henrici, as in Scalar.__add__: monic cofactors of g = gcd(da, db)
        # keep the denominator monic
        g = _zgcd(da, db) if len(da) > 1 and len(db) > 1 else _ZONE
        if len(g) > 1:
            da, db = _zdiv_exact(da, g), _zdiv_exact(db, g)
        noff, num = _zadd(self.noff, _zmul(self.num, db), other.noff, _zmul(other.num, da))
        den = _zmul(da, db)
        if len(g) > 1:
            num, g = _zcancel(num, g)
            den = _zmul(den, g)
        return _smake(noff, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _smake(self.noff, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return SZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        # cancel across, as Scalar.__mul__; a square has nothing to cancel
        if (len(b) > 1 or len(d) > 1) and other is not self:
            a, d = _zcancel(a, d)
            c, b = _zcancel(c, b)
        return _smake(self.noff + other.noff, _zmul(a, c), _zmul(b, d))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero SpectralScalar")
        inv = self.num[-1].inverse()
        return _smake(-self.noff, _zscale(self.den, inv), _zscale(self.num, inv))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        return _power(self, n, SONE)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.noff == other.noff and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.noff, self.num, self.den))
        return self._hash

    def specialize(self, value):
        """Exact substitution z = value (an int, Scalar or SpectralScalar)."""
        if isinstance(value, int):
            value = Scalar.from_int(value)
        given, value = value, _coerce(value)
        if value is NotImplemented:
            raise TypeError(
                "specialize takes an int, Scalar or SpectralScalar, got %s"
                % type(given).__name__
            )
        if self.noff < 0 and value.is_zero():
            # the pole is the factor z**-noff of the denominator
            raise PoleError("z1", given, _zstr(-self.noff, self.den))
        den = _zeval(self.den, value)
        if den.is_zero():
            try:
                k = as_q_power(value.as_scalar())
            except ValueError:
                k = None
            raise PoleError("z1", given, self.den_str(), k)
        return value**self.noff * _zeval(self.num, value) / den

    def num_str(self, name="z1"):
        return _zstr(self.noff, self.num, name)

    def den_str(self, name="z1"):
        return _zstr(0, self.den, name)

    def to_str(self, name="z1"):
        return "(%s)/(%s)" % (self.num_str(name), self.den_str(name))

    def __repr__(self):
        return "SpectralScalar(%s)" % self.to_str()


def _smake(noff, num, den):
    """A SpectralScalar from parts already in canonical form."""
    s = object.__new__(SpectralScalar)
    s.noff = noff
    s.num = num
    s.den = den
    s._hash = None
    return s


def _coerce(x):
    if isinstance(x, SpectralScalar):
        return x
    if isinstance(x, Scalar):
        return SpectralScalar.from_scalar(x)
    if isinstance(x, int):
        return SpectralScalar.from_scalar(Scalar.from_int(x))
    return NotImplemented


def _power(x, n, one):
    """x**n by square-and-multiply, for a Scalar or SpectralScalar x whose
    field has the unit one."""
    if n < 0:
        x, n = x.inverse(), -n
    r = one
    while n:
        if n & 1:
            r = r * x
        x = x * x
        n >>= 1
    return r


def _zeval(cs, value):
    """cs at z = value, by Horner: a Scalar at a Scalar point."""
    acc = ZERO
    for c in reversed(cs):
        acc = acc * value + c
    return acc


def _sreduce(noff, num, den):
    """Canonical (noff, num, den) of z**noff * num(z) / den(z)."""
    i, num = _ztrim(num)
    j, den = _ztrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return 0, (), _ZONE
    num, den = _zcancel(num, den)
    inv = den[-1].inverse()
    return noff + i - j, _zscale(num, inv), _zscale(den, inv)


def _zstr(off, cs, name="z1"):
    parts = []
    for e, c in enumerate(cs, off):
        if c.is_zero():
            continue
        s = c.to_str()
        if e:
            s += "*" + (name if e == 1 else "%s^%d" % (name, e))
        parts.append(s)
    return " + ".join(parts) or "0"


_ZONE = (ONE,)
SZERO = _smake(0, (), _ZONE)
SONE = _smake(0, _ZONE, _ZONE)
Z1 = SpectralScalar.monomial(ONE, 1)


def factor_q_poles(den, bound):
    """Split a z-polynomial over Q(w) into q-power roots.

    den: a coefficient tuple, as SpectralScalar.den.  Trial-divides by
    (z - q^k) for |k| <= bound and returns (multiset of exponents k as a
    sorted list, leftover factor as a coefficient tuple).
    """
    cs = den
    found = []
    k = -bound
    while k <= bound and len(cs) > 1:
        qk = q_power(k)
        if _zeval(cs, qk).is_zero():
            cs = _zdiv_exact(cs, (-qk, ONE))
            found.append(k)
            continue  # same k again (multiplicity)
        k += 1
    return sorted(found), cs


# ---------------------------------------------------------------------------
# tiny expression grammar for CLI scalars: integers, w, q, z, ^, *, /, +, -


def parse_scalar(text: str):
    """Parse an expression over {q, w, z, integers, ^, *, /, +, -, ()}.

    Returns a SpectralScalar when z occurs, else a Scalar.
    """
    toks = _tokenize(text)
    val, pos = _parse_sum(toks, 0)
    if pos != len(toks):
        raise ValueError("trailing input in scalar expression: %r" % text)
    try:
        return val.as_scalar()
    except ValueError:
        return val


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif c in "qwz":
            toks.append(("var", c))
            i += 1
        elif c in "+-*/^()":
            toks.append((c, c))
            i += 1
        else:
            raise ValueError("bad character %r in scalar expression" % c)
    return toks


def _parse_sum(toks, pos):
    val, pos = _parse_term(toks, pos)
    while pos < len(toks) and toks[pos][0] in "+-":
        op = toks[pos][0]
        rhs, pos = _parse_term(toks, pos + 1)
        val = val + rhs if op == "+" else val - rhs
    return val, pos


def _parse_term(toks, pos):
    val, pos = _parse_factor(toks, pos)
    while pos < len(toks) and toks[pos][0] in "*/":
        op = toks[pos][0]
        rhs, pos = _parse_factor(toks, pos + 1)
        val = val * rhs if op == "*" else val / rhs
    return val, pos


def _parse_factor(toks, pos):
    neg = False
    while pos < len(toks) and toks[pos][0] in "+-":
        if toks[pos][0] == "-":
            neg = not neg
        pos += 1
    val, pos = _parse_atom(toks, pos)
    if pos < len(toks) and toks[pos][0] == "^":
        pos += 1
        sign = 1
        while pos < len(toks) and toks[pos][0] in "+-":
            if toks[pos][0] == "-":
                sign = -sign
            pos += 1
        if pos >= len(toks) or toks[pos][0] != "int":
            raise ValueError("expected integer exponent")
        val = val ** (sign * toks[pos][1])
        pos += 1
    return (-val if neg else val), pos


def _parse_atom(toks, pos):
    if pos >= len(toks):
        raise ValueError("unexpected end of scalar expression")
    kind, payload = toks[pos]
    if kind == "int":
        return SpectralScalar.from_scalar(Scalar.from_int(payload)), pos + 1
    if kind == "var":
        if payload == "w":
            return SpectralScalar.from_scalar(W), pos + 1
        if payload == "q":
            return SpectralScalar.from_scalar(Q), pos + 1
        return Z1, pos + 1
    if kind == "(":
        val, pos = _parse_sum(toks, pos + 1)
        if pos >= len(toks) or toks[pos][0] != ")":
            raise ValueError("unbalanced parenthesis")
        return val, pos + 1
    raise ValueError("unexpected token %r" % kind)
