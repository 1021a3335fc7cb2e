"""Exact polynomial and rational-function arithmetic."""

import io
import itertools
import operator
from contextlib import redirect_stdout
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpart import laurent
from qpart.cli import main
from qpart.laurent import (
    LaurentPoly,
    RationalFunction,
    VariableMismatch,
    ZeroDenominator,
    add_products,
    poly_gcd,
    poly_gcd_of,
)

from qpart.serialize import poly_from_json, system_from_json
from qpart.verification import verify_all
from oracles import generic_add_products, schoolbook_divexact, schoolbook_laurent_product

QV = ("q",)
UV = ("u", "v")
XQ = ("x", "q")
UVQ = ("u", "v", "q")


def lp(vars, terms):
    return LaurentPoly(vars, terms)


def test_difference_of_squares():
    q = LaurentPoly.variable(QV, "q")
    assert (1 + q) * (-q + 1) == -q ** 2 + 1


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


def test_twist_of_a_variable_into_itself_is_rejected():
    # u -> u * u^mult could merge terms; no caller needs it
    u = LaurentPoly.variable(UV, "u")
    for mult in (0, 1):
        with pytest.raises(ValueError, match="two different variables"):
            (u + 1).twist("u", "u", mult)


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
    assert poly_from_json(p.to_json()) == p
    # a system entry is read as a (num, den) pair: a polynomial over 1, or a {"num", "den"} object
    num, den = LaurentPoly(XQ, {(2, -1): 3, (0, 0): -7}), LaurentPoly(XQ, {(1, 1): -1, (0, 0): 1})
    row = [num.to_json(), {"num": num.to_json(), "den": den.to_json()}]
    assert system_from_json({"step": 1, "matrix": [row, row]}) == ([[(num, LaurentPoly.one(XQ)), (num, den)]] * 2, 1)


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
@given(
    st.tuples(*[st.integers(-5, 5)] * len(UVQ)),
    st.integers(-4, 4).filter(bool),
    polys(max_terms=6),
    polys(max_terms=3),
)
def test_products_match_the_schoolbook_oracle(mono_exp, mono_coeff, p, r):
    # a one-term factor is the kernel's one-pair case, from either side
    m = LaurentPoly(UVQ, {mono_exp: mono_coeff})
    expected = schoolbook_laurent_product(m, p)
    assert m * p == expected and p * m == expected
    assert list((m * p).terms) == [tuple(x + y for x, y in zip(mono_exp, e)) for e in p.terms]
    assert p * r == schoolbook_laurent_product(p, r)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from((2, 3, 4, 5)))
def test_add_products_keeps_the_generic_loops_terms_in_its_order(data, n):
    # over two and five variables the exponent sums are written out; exponents
    # in -1..1 and coefficients in -2..2 make sums collide and cancel
    exps = st.tuples(*[st.integers(-1, 1)] * n)
    dicts = st.dictionaries(exps, st.integers(-2, 2).filter(bool), max_size=6)
    start, a, b = data.draw(dicts), data.draw(dicts), data.draw(dicts)
    e, c = data.draw(exps), data.draw(st.integers(-2, 2).filter(bool))
    # both orders of a pair (one has |a| > |b|), a one-term factor, and -a * b
    # cancelling a * b, so keys are deleted and added again at the end
    pairs = [(a, b), (b, a), ({e: c}, b), (a, {k: -v for k, v in b.items()})]
    got, expected = add_products(dict(start), pairs), generic_add_products(dict(start), pairs)
    assert list(got.items()) == list(expected.items()) and 0 not in got.values()
    # in place: p becomes (1 - q^e) * p, the longer factor read in full first
    p, ref = dict(start), dict(start)
    add_products(p, [({e: -1}, p)])
    generic_add_products(ref, [({e: -1}, ref)])
    assert list(p.items()) == list(ref.items()) and 0 not in p.values()
    # a product of polynomials, a one-term factor included, is the kernel's
    vars = tuple("xyzwt"[:n])
    for f, g in ((a, b), ({e: c}, b), (b, {e: c})):
        product = LaurentPoly(vars, f) * LaurentPoly(vars, g)
        assert list(product.terms.items()) == list(generic_add_products({}, [(f, g)]).items())


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


unit_monomials = st.builds(
    lambda e, c: LaurentPoly.monomial(UVQ, e, c), st.tuples(*[st.integers(-3, 3)] * 3), st.sampled_from((1, -1))
)


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3), unit_monomials, unit_monomials)
# a primitive PRS ran for minutes on these: the content it takes at each step
# is a gcd of two-variable polynomials of degree 24 and 25
@example(lp(UVQ, {(-2, 3, -2): 2, (-1, 2, 3): 3, (3, -2, 0): -4}), lp(UVQ, {(3, 1, 3): 4, (-2, -2, -1): 4, (2, 3, 3): -2}),
         lp(UVQ, {(2, 2, 1): -2, (0, -1, 2): 4, (-2, -2, 1): -1}), lp(UVQ, {(-1, -1, 2): -1}), lp(UVQ, {(0, 0, 1): 1}))
def test_poly_gcd_is_a_normal_form(a, b, c, m1, m2):
    # RationalFunction and operator bytes rest on this: unit monomial factors
    # and the argument order do not change the gcd, which has least exponents
    # 0 and a positive leading coefficient
    a, b = a * c, b * c
    g = poly_gcd(a * m1, b * m2)
    assert g == poly_gcd(b, a)
    if not g.is_zero():
        assert g.min_exponents() == (0, 0, 0) and g.leading()[1] > 0
    assert poly_gcd_of([a]) == poly_gcd(a, LaurentPoly.zero(UVQ))


@settings(max_examples=200, deadline=None)
@given(polys(vars=("x", "q")), polys(vars=("x", "q")), st.integers(-6, 6), st.integers(-6, 6))
def test_normalized_quotient_has_coprime_contents_and_a_positive_leading_denominator(a, b, s, t):
    # scaling both sides (6a/4b, say) gives them an integer content to cancel
    assume(s and t and not b.is_zero())
    r = RationalFunction(s * a, t * b)
    assert r == RationalFunction(s * a, t * b, normalize=False)
    assert gcd(*r.num.terms.values(), *r.den.terms.values()) == 1
    assert r.den.leading()[1] > 0


def _division(divide, a, b):
    """The quotient's terms in order, or the ValueError's message."""
    try:
        return list(divide(a, b).terms.items())
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(polys(max_terms=5), polys(max_terms=4), polys(max_terms=3))
def test_divexact_matches_the_schoolbook_division(a, b, c):
    # exact (a * b by b), not exact (c added, or a by b), and a product whose
    # terms cancel within the remainder as the division goes
    assume(not b.is_zero())
    for num in (a * b, a * b + c, a, a * b * (b - c)):
        assert _division(LaurentPoly.divexact, num, b) == _division(schoolbook_divexact, num, b), num


def test_divexact_rejects_a_non_divisor():
    # long division by the leading term alone never ends on these
    q = LaurentPoly.variable(QV, "q")
    u, v = LaurentPoly.variable(UV, "u"), LaurentPoly.variable(UV, "v")
    cases = ((LaurentPoly.one(QV), 1 + q), (q**-2 + q**3, q - 1),
             (LaurentPoly.one(UV), u + v), (u * v**-1, u**2 + v))
    for a, b in cases:
        with pytest.raises(ValueError, match="not exactly divisible"):
            a.divexact(b)
    assert (u**-1 - v**2).divexact(u**-1) == -u * v**2 + 1


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.eq], ids=["add", "sub", "mul", "eq"])
def test_a_polynomial_defers_to_a_rational_function_on_its_right(op):
    x, q = LaurentPoly.variable(("x", "q"), "x"), LaurentPoly.variable(("x", "q"), "q")
    p = 1 + x * q
    lifted = RationalFunction.from_poly(p)
    for r in (RationalFunction(x - q, 1 + q), lifted):
        assert op(p, r) == op(lifted, r)


@settings(max_examples=100, deadline=None)
@given(polys(vars=("x", "q"), max_terms=3), polys(vars=("x", "q"), max_terms=3),
       polys(vars=("x", "q"), max_terms=3), st.integers(-3, 3))
def test_rational_functions_read_ints_and_polynomials_as_quotients_over_one(a, b, p, k):
    assume(not b.is_zero())
    r = RationalFunction(a, b)
    for c in (k, p, LaurentPoly.constant(("x", "q"), k)):
        lifted = RationalFunction.from_poly(LaurentPoly.constant(("x", "q"), c) if isinstance(c, int) else c)
        assert r + c == r + lifted and r - c == r - lifted and r * c == r * lifted
        assert (r == c) == (r == lifted) == (a - lifted.num * b).is_zero()
        if not lifted.is_zero():
            assert r / c == r / lifted
    assert k + r == r + k and k - r == -(r - k) and k * r == r * k
    assert r == RationalFunction(a * b, b * b) and r - r == 0 and (r + r) / 2 == r


def test_no_entry_point_calls_poly_gcd_with_more_than_two_live_variables(monkeypatch):
    # the subresultant PRS is the gcd's only route; it is sized for the (x, q)
    # and (q, u) gcds that the entry points reach, not for three or four variables
    live, inner = [], laurent.poly_gcd

    def watched(a, b):
        live.append({v for p in (a, b) for e in p.terms for v, x in zip(p.vars, e) if x})
        return inner(a, b)

    monkeypatch.setattr(laurent, "poly_gcd", watched)
    verify_all(10, 6)
    for argv in (["certify", "--name", "d1234", "--recurrence-check", "6"],
                 ["celine", "--name", "g111", "--order", "3", "--support", "printed"],
                 ["uncouple", "--system", "builtin-5x5", "--component", "0"],
                 ["uncouple", "--system", "builtin-5x5", "--component", "1"]):
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert live and max(map(len, live)) <= 2
