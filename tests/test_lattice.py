from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qosc.algebraops import phi_words
from qosc.lattice import (
    EpsilonData,
    Weight,
    bilinear,
    qpair,
    simple_root,
)
from qosc.scalars import Q, QTILDE, W

EPS = EpsilonData((1, 0, 1, 0, 1))
EPSP = EpsilonData((0, 1, 0, 1, 0))


def weights(eps):
    return st.builds(
        lambda l, d: Weight(l, tuple(d)),
        st.integers(-2, 3),
        st.lists(st.integers(-3, 3), min_size=eps.n, max_size=eps.n),
    )


def test_simple_roots():
    n = EPS.n
    assert simple_root(0, EPS) == EPS.delta(1) + EPS.delta(2)
    assert simple_root(1, EPS) == EPS.delta(2) - EPS.delta(1)
    assert simple_root(n, EPS) == -(EPS.delta(n) + EPS.delta(n - 1))
    with pytest.raises(IndexError):
        simple_root(n + 1, EPS)


def test_bilinear_values():
    d1, d2 = EPS.delta(1), EPS.delta(2)
    assert bilinear(d1, d1, EPS) == -1  # eps_1 = 1
    assert bilinear(d2, d2, EPS) == 1
    assert bilinear(d1, d2, EPS) == 0
    assert bilinear(d1, EPS.Lam(), EPS) == Fraction(-1, 2)
    # (Lam|Lam) = (1/4) sum (-1)^eps_i
    assert bilinear(EPS.Lam(), EPS.Lam(), EPS) == Fraction(-1, 4)


def test_qpair_values():
    assert qpair(EPS.Lam(), EPS.delta(3), EPS) == W
    assert qpair(EPS.delta(1), EPS.delta(1), EPS) == QTILDE
    assert qpair(EPS.delta(2), EPS.delta(2), EPS) == Q


@settings(max_examples=100, deadline=None)
@given(weights(EPS), weights(EPS))
def test_qpair_symmetric(mu, nu):
    assert qpair(mu, nu, EPS) == qpair(nu, mu, EPS)


@settings(max_examples=100, deadline=None)
@given(weights(EPS), weights(EPS), weights(EPS))
def test_qpair_biadditive(mu, mup, nu):
    assert qpair(mu + mup, nu, EPS) == qpair(mu, nu, EPS) * qpair(mup, nu, EPS)


@settings(max_examples=60, deadline=None)
@given(weights(EPS), weights(EPS))
def test_bilinear_symmetric(mu, nu):
    assert bilinear(mu, nu, EPS) == bilinear(nu, mu, EPS)


def test_embedded_root_identifications():
    # hat roots inside the (1,0,...,0,1) host: alpha_0 = 2 d2, middle
    # differences, alpha_m = -2 d_{2m}; check roots inside: d1+d3 etc.
    m = 2
    tgt = phi_words("c", "underline", EPS)
    assert tgt.roots[0] == EPS.delta(2).scale(2)
    assert tgt.roots[1] == EPS.delta(4) - EPS.delta(2)
    assert tgt.roots[m] == EPS.delta(4).scale(-2)
    tgt = phi_words("c", "overline", EPS)
    assert tgt.roots[0] == EPS.delta(1) + EPS.delta(3)
    assert tgt.roots[1] == EPS.delta(3) - EPS.delta(1)
    assert tgt.roots[m + 1] == -(EPS.delta(3) + EPS.delta(5))


HOST_ERRORS = {
    "c": "type c truncation requires the (1,0,...,0,1) host",
    "d": "type d truncation requires the (0,1,...,1,0) host",
}


@pytest.mark.parametrize("kind, other", [("c", EPSP), ("d", EPS)])
def test_phi_words_refuses_every_other_host(kind, other):
    for host in (other, EpsilonData((1,) * 5), EpsilonData((0,) * 5)):
        with pytest.raises(ValueError) as err:
            phi_words(kind, "underline", host)
        assert str(err.value) == HOST_ERRORS[kind], host


def test_weight_text_form():
    wt = Weight(2, (0, 0, 0, 1, 1))
    assert wt.to_str() == "2*L + 1*d4 + 1*d5"
