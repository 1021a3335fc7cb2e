"""Exact polynomial and rational-function arithmetic."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpart.laurent import (
    LaurentPoly,
    RationalFunction,
    VariableMismatch,
    ZeroDenominator,
    poly_gcd,
)

QV = ("q",)
UV = ("u", "v")
UVQ = ("u", "v", "q")


def lp(vars, terms):
    return LaurentPoly(vars, terms)


def test_difference_of_squares():
    q = LaurentPoly.variable(QV, "q")
    assert (1 + q) * (1 - q) == 1 - q ** 2


def test_laurent_unit_inverse():
    u = LaurentPoly.variable(UV, "u")
    assert u * u ** -1 == LaurentPoly.one(UV)


def test_self_cancellation():
    xq = ("x", "q")
    x = LaurentPoly.variable(xq, "x")
    q = LaurentPoly.variable(xq, "q")
    p = 2 + 3 * x * q ** 4 + x * q ** 6
    assert (p - p).is_zero()


def test_variable_mismatch_is_structural_error():
    a = LaurentPoly.variable(QV, "q")
    b = LaurentPoly.variable(UV, "u")
    with pytest.raises(VariableMismatch):
        a + b


def test_ring_axioms_exhaustive_small():
    # deterministic triples: all polynomials with exponents in {0,1} and
    # coefficients in {-1, 0, 2} over one variable
    coeffs = (-1, 0, 2)
    polys = [
        LaurentPoly(QV, {(0,): c0, (1,): c1})
        for c0 in coeffs
        for c1 in coeffs
    ]
    for a, b, c in itertools.product(polys[:5], polys[2:7], polys[4:9]):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_twist_substitutes_shifted_power():
    # u represents q^n; twist(u, q, -1) realizes n -> n-1
    qu = ("q", "u")
    q = LaurentPoly.variable(qu, "q")
    u = LaurentPoly.variable(qu, "u")
    p = u ** 3 * q ** 2
    assert p.twist("u", "q", -1) == u ** 3 * q ** -1


def test_ratfun_cancellation():
    q = LaurentPoly.variable(QV, "q")
    r = RationalFunction(q ** 2 - 1, q - 1)
    assert r.num == q + 1 and r.den.is_one()


def test_ratfun_zero_case():
    q = LaurentPoly.variable(QV, "q")
    r = RationalFunction(LaurentPoly.zero(QV), q ** 3)
    assert r.is_zero() and r.den.is_one()


def test_ratfun_multivariate_cancellation():
    uvq = ("u", "v", "q")
    u = LaurentPoly.variable(uvq, "u")
    v = LaurentPoly.variable(uvq, "v")
    q = LaurentPoly.variable(uvq, "q")
    r = RationalFunction((u - v) * (u + v), (u - v) * q)
    assert r == RationalFunction(u + v, q)
    # canonical denominator is a true polynomial not divisible by any variable
    # (monomial factors move into the Laurent numerator)
    assert r.den.is_one() and all(min(e) == 0 for e in zip(*r.den.terms))


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        RationalFunction(LaurentPoly.one(QV), LaurentPoly.zero(QV))


def test_poly_gcd_content_and_sign():
    q = LaurentPoly.variable(QV, "q")
    a = (q + 1) * (q - 2) * 6
    b = (q + 1) * (q + 3) * 4
    g = poly_gcd(a, b)
    assert g == 2 * (q + 1)


def test_poly_gcd_in_several_variables():
    # coprime; with q as the main variable the PRS coefficients reach 10^100
    # and the gcd took minutes
    u, v, q = (LaurentPoly.variable(UVQ, name) for name in UVQ)
    a = 3 * q - 4 * v**5 - u**2 * v**5 * q**3
    b = 3 * u + 2 * q**5 + 4 * u**2 * v**3
    c = u - v * q + 2
    assert poly_gcd(a, b).is_one()
    assert poly_gcd(6 * a * c * u**-2, 4 * b * c * q) == 2 * (v * q - u - 2)
    # at u = 2 the leading coefficients in q vanish and the images q + 8 and
    # 2q + 8 are coprime, though the polynomials share g
    g = (u - 2) * q + 1
    assert poly_gcd(g * (u**3 + q), g * (u**3 + 2 * q)) == g


def test_json_round_trip():
    p = LaurentPoly(UV, {(2, -1): 3, (0, 0): -7})
    assert LaurentPoly.from_json(p.to_json()) == p
    r = RationalFunction(p, LaurentPoly.one(UV))
    assert RationalFunction.from_json(r.to_json()) == r


# ----------------------------------------------------------------------
# properties: the arithmetic the uncoupled operators rest on


@st.composite
def polys(draw, vars=UVQ, max_terms=4):
    exps = st.tuples(*[st.integers(-2, 3)] * len(vars))
    return LaurentPoly(vars, draw(st.dictionaries(exps, st.integers(-4, 4), max_size=max_terms)))


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    zero, one = LaurentPoly.zero(UVQ), LaurentPoly.one(UVQ)
    assert a + b == b + a and (a + b) + c == a + (b + c)
    assert a * b == b * a and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero() and a - b == a + (-b)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.permutations(UVQ), st.integers(-3, 3))
def test_twist_is_a_ring_homomorphism(a, b, names, mult):
    src, dst = names[0], names[1]

    def tw(p):
        return p.twist(src, dst, mult)

    assert tw(a + b) == tw(a) + tw(b) and tw(a * b) == tw(a) * tw(b)
    assert tw(LaurentPoly.one(UVQ)).is_one()


@settings(max_examples=200, deadline=None)
@given(polys(), polys())
def test_divexact_undoes_multiplication(a, b):
    assume(not b.is_zero())
    assert (a * b).divexact(b) == a


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
def test_poly_gcd_divides_both_arguments(a, b, c):
    a, b = a * c, b * c
    assume(not (a.is_zero() and b.is_zero()))
    g = poly_gcd(a, b)
    assert a.divexact(g) * g == a and b.divexact(g) * g == b
    if not c.is_zero():
        g.divexact(c)  # a common factor divides the gcd


def test_divexact_rejects_a_non_divisor():
    # long division by the leading term alone never ends on these
    q = LaurentPoly.variable(QV, "q")
    u, v = LaurentPoly.variable(UV, "u"), LaurentPoly.variable(UV, "v")
    cases = ((LaurentPoly.one(QV), 1 + q), (q**-2 + q**3, q - 1),
             (LaurentPoly.one(UV), u + v), (u * v**-1, u**2 + v))
    for a, b in cases:
        with pytest.raises(ValueError, match="not exactly divisible"):
            a.divexact(b)
    assert (u**-1 - v**2).divexact(u**-1) == 1 - u * v**2
