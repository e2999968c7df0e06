from itertools import zip_longest
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from qosc import scalars
from qosc.scalars import (
    MINUS_ONE,
    ONE,
    Q,
    QINV,
    QTILDE,
    SONE,
    SZERO,
    W,
    Z1,
    ZERO,
    PoleError,
    Scalar,
    SpectralScalar,
    _pgcd_cof,
    factor_q_poles,
    parse_scalar,
    q_power,
    qbinom_at,
    qfact_at,
    qint,
    qint_at,
)


def small_scalars():
    coeff = st.integers(min_value=-4, max_value=4)
    exps = st.lists(st.tuples(st.integers(-3, 3), coeff), min_size=0, max_size=3)

    def build(pairs):
        acc = ZERO
        for e, c in pairs:
            acc = acc + Scalar.monomial(c, e)
        return acc

    return st.builds(build, exps)


def test_qint_examples():
    assert qint(0).is_zero()
    assert qint(2) == Q + QINV
    assert qint(-3) == -(Q**2 + ONE + QINV**2)
    assert qint(2) == Scalar.monomial(-1, 2) + Scalar.monomial(-1, -2)


def test_qint_recurrence_and_antisymmetry():
    for m in range(-50, 51):
        assert qint(-m) == -qint(m)
    for m in range(0, 50):
        assert qint(m + 1) == Q * qint(m) + q_power(-m)


def test_qbinom():
    assert qbinom_at(Q, 3, 0) == ONE
    assert qbinom_at(Q, 2, 1) == Q + QINV
    assert qbinom_at(Q, 4, 2) == qint(4) * qint(3) / (qint(2) * qint(1))
    with pytest.raises(ValueError):
        qbinom_at(Q, 2, 3)


def test_q_pascal():
    for m in range(1, 21):
        for k in range(0, m + 1):
            lhs = qbinom_at(Q, m, k)
            rhs = ZERO
            if k <= m - 1:
                rhs = rhs + q_power(k) * qbinom_at(Q, m - 1, k)
            if 1 <= k:
                rhs = rhs + q_power(k - m) * qbinom_at(Q, m - 1, k - 1)
            assert lhs == rhs, (m, k)


@settings(max_examples=60, deadline=None)
@given(small_scalars(), small_scalars(), small_scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == ONE
    assert a + ZERO == a
    assert a * ONE == a


def test_canonical_equality_is_structural():
    a = (Q**2 - QINV**2) / (Q - QINV)
    assert a == Q + QINV
    assert hash(a) == hash(Q + QINV)


def test_base_field_identities():
    assert W * W == -Q
    assert QTILDE == MINUS_ONE * QINV
    assert Q * QTILDE == MINUS_ONE


def test_spectral_specialize():
    z = Z1
    r = (SONE - Q**2 * z) / (z - SpectralScalar.from_scalar(Q**2))
    assert r.specialize(ONE).is_one()
    assert Z1.specialize(Q**4) == SpectralScalar.from_scalar(Q**4)
    with pytest.raises(PoleError) as exc:
        r.specialize(Q**2)
    assert exc.value.q_exponent == 2
    with pytest.raises(PoleError) as exc:
        (SONE / (Z1 - SpectralScalar.from_scalar(Q))).specialize(Q)
    assert str(exc.value) == "pole at z1 = (-w^2)/(1) (factor z - q^1)"
    assert exc.value.value is Q
    assert Z1.specialize(ZERO).is_zero()
    with pytest.raises(PoleError) as exc:
        (SONE / Z1).specialize(ZERO)
    assert exc.value.q_exponent is None and exc.value.denominator == Z1.num_str()
    assert str(exc.value) == "pole at z1 = (0)/(1)" and exc.value.value is ZERO
    with pytest.raises(PoleError):
        (Z1 + SONE / (Z1 * Z1)).specialize(SpectralScalar.from_scalar(ZERO))


def test_specialize_coerces_an_int_value():
    # an int is taken as its Scalar, so a pole at 0 is a PoleError
    with pytest.raises(PoleError) as exc:
        (SONE / Z1).specialize(0)
    assert str(exc.value) == "pole at z1 = (0)/(1)" and exc.value.value is ZERO
    assert (Z1 * Z1 + SONE).specialize(2) == 5
    with pytest.raises(TypeError):
        Z1.specialize(1.5)


def test_from_scalar_takes_only_a_scalar():
    # a spectral or integer argument would nest or skip the canonical form
    q = SpectralScalar.from_scalar(Q)
    assert (q.noff, q.num, q.den) == (0, (Q,), (ONE,))
    for bad in (Z1, SONE, 1):
        with pytest.raises(TypeError):
            SpectralScalar.from_scalar(bad)


def test_monomial_takes_only_a_scalar():
    assert SpectralScalar.monomial(ONE, 2) == Z1 * Z1
    assert SpectralScalar.monomial(Q, -1) == SpectralScalar.from_scalar(Q) / Z1
    for bad in (Z1, SONE, 1):
        with pytest.raises(TypeError):
            SpectralScalar.monomial(bad, 1)


@settings(max_examples=40, deadline=None)
@given(small_scalars(), small_scalars(), small_scalars())
def test_specialize_commutes_with_ring_ops(a, b, c):
    if c.is_zero():
        c = ONE
    za = SpectralScalar.from_scalar(a) + Z1
    zb = SpectralScalar.from_scalar(b) * Z1 + SONE
    lhs = (za * zb + za).specialize(c)
    rhs = za.specialize(c) * zb.specialize(c) + za.specialize(c)
    assert lhs == rhs


def test_spectral_operators_reject_uncoercible_operands():
    with pytest.raises(TypeError):
        Z1 / 1.5
    with pytest.raises(TypeError):
        1.5 - Z1
    with pytest.raises(TypeError):
        1.5 / Z1
    # a Scalar does not coerce ints; the error names the operator used
    with pytest.raises(TypeError, match="for -:"):
        Q - 1


def test_mixed_operands_reach_the_spectral_reflected_operators():
    qz = SpectralScalar.from_scalar(Q)
    assert Q - Z1 == qz - Z1
    assert 2 / Z1 == Z1.inverse() * 2
    assert (2 / Z1) * Z1 == 2
    assert Q / Z1 == qz / Z1
    assert (Q / (Z1 - qz)) * (Z1 - qz) == qz


_w, _z = sympy.symbols("w z")


def _sympy_scalar(s):
    noff, num, den = s.dense()
    return sum(c * _w ** (noff + i) for i, c in enumerate(num)) / sum(
        c * _w**i for i, c in enumerate(den)
    )


def _sympy_z(cs, off=0):
    return sum((_sympy_scalar(c) * _z**e for e, c in enumerate(cs, off)), 0)


def laurent_z(min_size=0, max_size=4):
    """Laurent polynomials in z of at most max_size terms whose coefficients
    are small integer Laurent monomials in w; nonzero when min_size > 0."""
    coeff = st.integers(-3, 3).filter(bool) if min_size else st.integers(-3, 3)
    term = st.tuples(coeff, st.integers(-2, 2), st.integers(-2, 3))

    def build(terms):
        acc = SZERO
        for c, ew, ez in terms:
            acc = acc + SpectralScalar.monomial(Scalar.monomial(c, ew), ez)
        return acc

    out = st.builds(build, st.lists(term, min_size=min_size, max_size=max_size))
    return out.filter(lambda p: not p.is_zero()) if min_size else out


def _sympy_frac(r):
    return _sympy_z(r.num, r.noff) / _sympy_z(r.den)


def assert_reduced_z(r, expected):
    """r equals expected, and r is reduced: a numerator trimmed at both
    ends, and a monic denominator with a nonzero constant term, coprime to
    the numerator over QQ(w)."""
    assert sympy.cancel(_sympy_frac(r) - expected) == 0
    assert not r.den[0].is_zero() and r.den[-1].is_one()
    assert not r.num or not (r.num[0].is_zero() or r.num[-1].is_zero())
    if r.num:
        num = sympy.Poly(_sympy_z(r.num), _z, domain="QQ(w)")
        den = sympy.Poly(_sympy_z(r.den), _z, domain="QQ(w)")
        assert sympy.gcd(num, den).degree() == 0


@settings(max_examples=50, deadline=None)
@given(laurent_z(), laurent_z(), laurent_z())
def test_univariate_reduction_matches_sympy(a, b, g):
    assume(not (b * g).is_zero())
    r = (a * g) / (b * g)
    assert_reduced_z(r, _sympy_frac(a) / _sympy_frac(b))


def z_factors():
    """c0 + c1 z + c2 z^2 with c0, c1 nonzero integer Laurent monomials in
    w: polynomials in z of degree 1 or 2."""
    coeff = st.tuples(st.integers(-3, 3).filter(bool), st.integers(-2, 2))

    def build(*cs):
        acc = SZERO
        for e, (c, ew) in enumerate(cs):
            acc = acc + SpectralScalar.monomial(Scalar.monomial(c, ew), e)
        return acc

    return st.builds(build, coeff, coeff, st.one_of(st.just((0, 0)), coeff))


@settings(max_examples=25, deadline=None)
@given(laurent_z(0, 3), laurent_z(1, 3), z_factors(), z_factors(), z_factors(), z_factors())
def test_shared_z1_factors_cancel_in_sums_and_products(a, b, g1, g2, d1, d2):
    # sums a/(g d1) + b/(g d2) over a shared factor g = g1 g2
    g = g1 * g2
    x, y = a / (g * d1), b / (g * d2)
    sx, sy = _sympy_frac(x), _sympy_frac(y)
    assert_reduced_z(x + y, sx + sy)
    assert_reduced_z(x - y, sx - sy)
    # x + (c - x) = c over g1 d2: the sum cancels g2 from the shared factor
    c = b / (g1 * d2)
    sc = _sympy_frac(c)
    assert_reduced_z(x + (c - x), sc)
    # products (a g1 / b)(c / (d g1)), here c = d2 and d = d1, cancel g1
    u, v = (a * g1) / b, d2 / (d1 * g1)
    assert_reduced_z(u * v, _sympy_frac(u) * _sympy_frac(v))


@given(small_scalars(), small_scalars(), laurent_z(), laurent_z(1))
def test_a_coefficient_is_false_exactly_when_it_is_zero(a, b, p, d):
    # walk rows drop an entry when it tests false
    if b.is_zero():
        b = ONE
    for v in (ZERO, SZERO, a, a - a, a / b, p, p - p, p / d, p * a):
        assert bool(v) == (not v.is_zero())
    assert not ZERO and not SZERO and ONE and SONE and Z1


def test_factor_q_poles():
    z = Z1
    den = (z - SpectralScalar.from_scalar(Q**2)) * (z - SpectralScalar.from_scalar(Q**6))
    ks, left = factor_q_poles(den.num, 12)
    assert ks == [2, 6] and left == (ONE,)
    sq = (z - SpectralScalar.from_scalar(Q**2)) ** 2
    ks, _ = factor_q_poles(sq.num, 12)
    assert ks == [2, 2]
    ks, left = factor_q_poles((ONE,), 12)
    assert ks == [] and left == (ONE,)


def test_parser():
    assert parse_scalar("q^-6") == q_power(-6)
    assert parse_scalar("(w^2 - w^-2)/1") == W**2 - W**-2
    assert parse_scalar("z") == Z1
    assert parse_scalar("2*q + 1") == Q + Q + ONE
    with pytest.raises(ValueError):
        parse_scalar("q^")
    # nesting is refused before the recursive parsers could overflow the stack
    depth = scalars.MAX_NESTING
    assert parse_scalar("(" * depth + "q" + ")" * depth) == Q
    for deeper in (depth + 1, 400):
        with pytest.raises(ValueError, match="nest"):
            parse_scalar("(" * deeper + "1" + ")" * deeper)


def laurent_polys():
    """Integer Laurent polynomials over the denominator (1,), built through
    _reduce; untrimmed coefficient lists, zero included."""
    coeffs = st.lists(st.integers(-30, 30), min_size=0, max_size=7)
    return st.builds(lambda off, cs: Scalar(off, tuple(cs), (1,)), st.integers(-6, 6), coeffs)


def _reduced_from(dense):
    # {exponent: coefficient} -> Scalar(noff, num, (1,)) sent through _reduce
    if not dense:
        return Scalar(0, (), (1,))
    lo, hi = min(dense), max(dense)
    return Scalar(lo, tuple(dense.get(e, 0) for e in range(lo, hi + 1)), (1,))


def _dense(s):
    noff, num, _ = s.dense()
    return {noff + i: c for i, c in enumerate(num)}


def _parts(s):
    return s.noff, s.stride, s.num, s.den, hash(s)


def _same_structure(a, b):
    return _parts(a) == _parts(b)


@settings(max_examples=300, deadline=None)
@given(laurent_polys(), laurent_polys(), st.booleans())
def test_laurent_fast_path_is_canonical(a, b, cancel):
    if cancel:  # a sum that cancels to zero, or to the part b adds
        b = -a + b
    prod, total = {}, dict(_dense(a))
    for e1, c1 in _dense(a).items():
        for e2, c2 in _dense(b).items():
            prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
    for e, c in _dense(b).items():
        total[e] = total.get(e, 0) + c
    assert _same_structure(a * b, _reduced_from(prod))
    assert _same_structure(a + b, _reduced_from(total))
    assert _same_structure(a + (-a), ZERO)


# -- strides ------------------------------------------------------------------


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _at_stride(cs, s):
    out = [0] * ((len(cs) - 1) * s + 1)
    out[::s] = cs
    return out


@st.composite
def strided_scalars(draw):
    """w^k * f(w^s) h(w^t) / (g(w^s) h(w^t)) with s, t in {1, 2, 4}: once the
    shared factor h cancels, the stride can rise from t to s."""
    s, t = draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([1, 2, 4]))
    f = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    g = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
    h = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any))
    hs = _at_stride(h, t)
    num = _convolve(_at_stride(f, s), hs)
    den = _convolve(_at_stride(g, s), hs)
    return Scalar(draw(st.integers(-6, 6)), tuple(num), tuple(den))


@st.composite
def shared_denominator_pairs(draw):
    """a = f1/(g d1) and b = f2/(g d2) with g = g1 g2, each polynomial at a
    stride in {1, 2, 4}.  With cancel, b = c - a for c = f3/(g1 d2), so
    a + b = c loses the factor g2 of the shared denominator."""
    strides = st.sampled_from([1, 2, 4])

    def poly(stride):
        cs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
        return _at_stride(cs, stride)

    def factor():
        # not a monomial, so g1 and g2 are proper factors
        cs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=3))
        return _at_stride(cs, draw(strides))

    s1, s2 = draw(strides), draw(strides)
    g1, g2 = factor(), factor()
    f1, d1, d2 = poly(s1), poly(s1), poly(s2)
    k1, k2 = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    g = _convolve(g1, g2)
    a = Scalar(k1, tuple(f1), tuple(_convolve(g, d1)))
    cancel = draw(st.booleans())
    if not cancel:
        return a, Scalar(k2, tuple(poly(s2)), tuple(_convolve(g, d2)))
    # c - a = (w^k2 f3 g2 d1 - w^k1 f1 d2) / (g d1 d2), multiplied out here
    f3 = poly(s2)
    m = min(k1, k2)
    left = [0] * (k2 - m) + _convolve(_convolve(f3, g2), d1)
    right = [0] * (k1 - m) + _convolve(f1, d2)
    num = [x - y for x, y in zip_longest(left, right, fillvalue=0)]
    return a, Scalar(m, tuple(num), tuple(_convolve(_convolve(g, d1), d2)))


@settings(max_examples=100, deadline=None)
@given(shared_denominator_pairs())
def test_shared_denominator_sums_match_sympy(pair):
    a, b = pair
    sa, sb = _sympy_scalar(a), _sympy_scalar(b)
    for r, expected in ((a + b, sa + sb), (a - b, sa - sb), (b - a, sb - sa)):
        assert_canonical(r)
        assert sympy.cancel(_sympy_scalar(r) - expected) == 0


def assert_canonical(r):
    """num(x)/den(x) in x = w^stride: s maximal, coprime, den with lowest
    exponent 0 and lc > 0, integer contents coprime."""
    assert r.stride in (1, 2, 4)
    f, g = r.num, r.den
    if not f:
        assert (r.noff, r.stride, g) == (0, 4, (1,))
        return
    assert f[0] and f[-1] and g[0] and g[-1] > 0
    # a stride below 4 is maximal only if some odd power of x occurs
    assert r.stride == 4 or any(f[1::2]) or any(g[1::2])
    x = sympy.Symbol("x")
    assert sympy.gcd(sympy.Poly(f[::-1], x), sympy.Poly(g[::-1], x)).degree() == 0
    assert gcd(*f, *g) == 1


@settings(max_examples=150, deadline=None)
@given(strided_scalars(), strided_scalars(), st.integers(-2, 3))
def test_stride_arithmetic_matches_sympy(a, b, n):
    sa, sb = _sympy_scalar(a), _sympy_scalar(b)
    cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
    if not b.is_zero():
        cases += [(a / b, sa / sb), (b.inverse(), 1 / sb)]
    if n >= 0 or not a.is_zero():
        cases.append((a**n, sa**n))
    for r, expected in cases:
        assert_canonical(r)
        assert sympy.cancel(_sympy_scalar(r) - expected) == 0


def test_cancellation_raises_the_stride():
    # (1 - w^4) / ((1 - w)(1 + w)) = 1 + w^2: stride 2 after the gcd
    r = Scalar(0, (1, 0, 0, 0, -1), (1, 0, -1))
    assert (r.stride, r.num, r.den) == (2, (1, 1), (1,))
    # (1 + w^4)(1 + w) / ((3 + w^4)(1 + w)): stride 1 before the gcd, 4 after
    r = Scalar(0, (1, 1, 0, 0, 1, 1), (3, 3, 0, 0, 1, 1))
    assert (r.stride, r.num, r.den) == (4, (1, 1), (3, 1))
    # (1 + w)(1 - w) = 1 - w^2 and (1 + w^2)(1 - w^2) = 1 - w^4
    one_w = Scalar(0, (1, 1), (1,))
    assert (one_w * Scalar(0, (1, -1), (1,))).stride == 2
    assert (Q + ONE) * (ONE - Q) == ONE - Q * Q
    assert ((ONE - Q * Q).stride, (ONE - Q * Q).num) == (4, (1, -1))
    # mixed strides in a sum: w + w^2 has stride 1, (w + w^2) - w^2 stride 4
    mixed = W + W**2
    assert mixed.stride == 1 and (mixed - W**2).stride == 4
    assert mixed.dense() == (1, (1, 1), (1,))


# -- every public constructor yields canonical form ----------------------------


def _rebuilt(s):
    """s sent again through the full reduction, from its coefficients in w."""
    return Scalar(*s.dense())


def _assert_constructed_canonical(s):
    assert isinstance(s, Scalar)
    assert _same_structure(s, _rebuilt(s)), s
    assert_canonical(s)


small_ints = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-50, 50),
    small_ints,
    st.integers(-9, 9),
    st.integers(-8, 8),
    st.integers(0, 7),
    st.integers(0, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
)
def test_integer_constructors_are_canonical(n, c, e, m, f, mk):
    made = [Scalar.from_int(n), Scalar.monomial(c, e), q_power(e), qint(m), qfact_at(Q, f)]
    for s in made + [qbinom_at(Q, *mk)]:
        _assert_constructed_canonical(s)


def nonzero_bases():
    term = st.tuples(st.integers(-2, 2).filter(bool), st.integers(-3, 3))

    def build(terms):
        acc = ZERO
        for c, e in terms:
            acc = acc + Scalar.monomial(c, e)
        return acc

    return st.builds(build, st.lists(term, min_size=1, max_size=2)).filter(
        lambda p: not p.is_zero()
    )


@settings(max_examples=40, deadline=None)
@given(
    nonzero_bases(),
    st.integers(-4, 4),
    st.integers(0, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
)
def test_based_q_numbers_are_canonical(p, m, mk):
    _assert_constructed_canonical(qint_at(p, m))
    _assert_constructed_canonical(qbinom_at(p, *mk))


@settings(max_examples=60, deadline=None)
@given(strided_scalars())
def test_strided_scalar_and_inverse_are_canonical(s):
    _assert_constructed_canonical(s)
    if not s.is_zero():
        _assert_constructed_canonical(s.inverse())


def parsed_terms():
    term = st.tuples(small_ints, st.sampled_from("wq"), st.integers(-4, 4))
    return st.lists(term, min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(parsed_terms(), parsed_terms())
def test_parsed_scalars_are_canonical(top, bottom):
    def text(terms):
        return " + ".join("(%d)*%s^%d" % term for term in terms)

    try:
        s = parse_scalar("(%s)/(%s)" % (text(top), text(bottom)))
    except ZeroDivisionError:
        assume(False)
    _assert_constructed_canonical(s)


@settings(max_examples=40, deadline=None)
@given(strided_scalars(), strided_scalars(), strided_scalars())
def test_specialized_scalars_are_canonical(a, b, c):
    za, zb = SpectralScalar.from_scalar(a), SpectralScalar.from_scalar(b)
    f = (Z1 * za + SONE) / (Z1 + zb)
    try:
        s = f.specialize(c).as_scalar()
    except PoleError:
        assume(False)
    _assert_constructed_canonical(s)


# -- the gcd with cofactors ------------------------------------------------------


def _int_polys(max_size):
    """Dense integer polynomials, lowest coefficient first, lc != 0."""
    cs = st.lists(st.integers(-9, 9), min_size=1, max_size=max_size)
    return cs.filter(lambda c: c[-1] != 0).map(tuple)


@st.composite
def gcd_pairs(draw):
    """(c1 g f1, c2 g f2): a planted common factor g (a constant gives a
    pair with nothing planted), integer contents c1, c2 of either sign and
    cofactors f1, f2, so coprime pairs and constants occur too."""
    g = draw(_int_polys(4))
    contents = st.integers(-12, 12).filter(bool)
    a = tuple(draw(contents) * x for x in _convolve(g, draw(_int_polys(5))))
    b = tuple(draw(contents) * x for x in _convolve(g, draw(_int_polys(5))))
    return a, b


def _sympy_prim_gcd(a, b):
    """gcd(a, b) over Z[x] by sympy, primitive with lc > 0, lowest first."""
    x = sympy.Symbol("x")
    g = sympy.gcd(sympy.Poly(a[::-1], x), sympy.Poly(b[::-1], x)).primitive()[1]
    cs = [int(c) for c in g.all_coeffs()[::-1]]
    return tuple(-c for c in cs) if cs[-1] < 0 else tuple(cs)


@settings(max_examples=300, deadline=None)
@given(gcd_pairs())
def test_gcd_with_cofactors_matches_sympy(pair):
    a, b = pair
    g, qa, qb = _pgcd_cof(a, b)
    assert g == _sympy_prim_gcd(a, b)
    assert tuple(_convolve(g, qa)) == a and tuple(_convolve(g, qb)) == b


def _prs_only(run):
    """run() with GCDHEU given zero attempts, so that every gcd the cache
    misses is taken by the PRS; returns (run(), PRS calls)."""
    attempts, prs = scalars._HEU_ATTEMPTS, scalars._pgcd_prs
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return prs(a, b)

    scalars._HEU_ATTEMPTS, scalars._pgcd_prs = 0, counted
    scalars._pgcd_prim_cof.cache_clear()
    try:
        return run(), len(calls)
    finally:
        scalars._HEU_ATTEMPTS, scalars._pgcd_prs = attempts, prs
        scalars._pgcd_prim_cof.cache_clear()


@settings(max_examples=100, deadline=None)
@given(gcd_pairs(), strided_scalars(), strided_scalars())
def test_the_prs_fallback_gives_what_the_heuristic_gives(pair, x, y):
    a, b = pair
    dx, dy = x.dense(), y.dense()

    def run():
        u, v = Scalar(*dx), Scalar(*dy)
        made = [u, v, u + v, u - v, u * v]
        if not v.is_zero():
            made.append(u / v)
        return _pgcd_cof(a, b), [_parts(s) for s in made]

    scalars._pgcd_prim_cof.cache_clear()
    heuristic = run()
    fallback, prs_calls = _prs_only(run)
    assert fallback == heuristic
    assert prs_calls > 0 or len(a) == 1 or len(b) == 1


def test_the_prs_fallback_is_reached_and_canonical():
    # (1 + w)(1 - w^3) / ((1 + w)(2 + w)) and the sum of two fractions
    # over (1 + w^2)(1 - w) and (1 + w^2)(3 + w)
    def run():
        r = Scalar(0, (1, 1, 0, -1, -1), (2, 3, 1))
        s = Scalar(0, (1,), (1, -1, 1, -1)) + Scalar(1, (2,), (3, 1, 3, 1))
        return r, s

    (r, s), prs_calls = _prs_only(run)
    assert prs_calls >= 3
    assert (r.num, r.den) == ((1, 0, 0, -1), (2, 1))
    for t in (r, s):
        assert_canonical(t)
        assert _same_structure(t, _rebuilt(t))


@settings(max_examples=50, deadline=None)
@given(st.integers(-9, 9).filter(bool), st.integers(-9, 9))
def test_a_product_by_one_returns_the_monomial(c, e):
    x = Scalar.monomial(c, e)
    assume(not x.is_one())  # 1 * 1 may return either factor
    assert ONE * x is x and x * ONE is x
