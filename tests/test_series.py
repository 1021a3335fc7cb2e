"""Truncated q-series, Pochhammer products, and (x, q)-series."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart.cylindric import g_to_f, solve_cw_family
from qpart.holonomic import poly_times_biseries
from qpart.laurent import LaurentPoly
from qpart.series import BiSeries, PochhammerSpec, QSeries, inv_xq_pochhammer, pochhammer_expand

from oracles import finite_pochhammer, inv_xq_pochhammer_by_slices, schoolbook_product


def infinite_pochhammer(residue: int, modulus: int, order: int) -> QSeries:
    """(q^residue; q^modulus)_infinity as a QSeries modulo q^order."""
    return pochhammer_expand(PochhammerSpec(num=((residue, modulus),)), order)


def xq_pochhammer(order: int) -> BiSeries:
    """(xq; q)_infinity modulo q^order in closed form: slice m is
    (-1)^m q^(m(m+1)/2) / (q;q)_m."""
    out: dict[int, QSeries] = {}
    m = 0
    while m * (m + 1) // 2 < order:
        s = finite_pochhammer(1, m, order).invert().shift(m * (m + 1) // 2)
        out[m] = -s if m % 2 else s
        m += 1
    return BiSeries(order, out)


def test_invert_geometric():
    s = QSeries(6, [1, -1])
    assert s.invert().coeffs == [1, 1, 1, 1, 1, 1]


def test_invert_identity():
    one = QSeries.one(5)
    assert one.invert() == one


def test_invert_partition_numbers():
    # brute-force oracle: partition counts via bounded-part DP
    n = 6
    dp = [1] + [0] * (n - 1)
    for part in range(1, n):
        for tot in range(part, n):
            dp[tot] += dp[tot - part]
    euler = infinite_pochhammer(1, 1, n)
    assert euler.invert().coeffs == dp == [1, 1, 2, 3, 5, 7]


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        QSeries(4, [2, 1]).invert()


def test_two_sided_inverse_mod_qn():
    s = QSeries(12, [1, 3, -2, 5, 0, 7, 1, 1, 0, 2, -4, 9])
    assert s * s.invert() == QSeries.one(12)
    assert s.invert() * s == QSeries.one(12)


def test_pochhammer_d1234_product():
    spec = PochhammerSpec(den=((2, 6), (3, 6), (3, 6), (4, 6)))
    assert pochhammer_expand(spec, 8).coeffs == [1, 0, 1, 2, 2, 2, 5, 4]


def test_pochhammer_d123_product():
    spec = PochhammerSpec(
        num=((2, 6), (4, 6)), den=((1, 6), (1, 6), (3, 6), (3, 6), (5, 6), (5, 6))
    )
    assert pochhammer_expand(spec, 4).coeffs == [1, 2, 2, 4]


def test_pochhammer_empty_product():
    assert pochhammer_expand(PochhammerSpec(), 5) == QSeries.one(5)


def test_pochhammer_denominator_positive_coefficients():
    # purely-denominator products count multisets: all coefficients >= 0
    spec = PochhammerSpec(den=((1, 2), (3, 4), (2, 3)))
    assert all(c >= 0 for c in pochhammer_expand(spec, 25).coeffs)


def literal_product(spec: PochhammerSpec, order: int) -> QSeries:
    """``spec`` modulo q^order as one QSeries product per binomial 1 - q^e,
    inverted for the denominator's."""
    s = QSeries.one(order)
    for pairs, divide in ((spec.num, False), (spec.den, True)):
        for r, m in pairs:
            for e in range(r, order, m):
                b = QSeries.one(order) - QSeries.monomial(order, e)
                s = s * (b.invert() if divide else b)
    return s


_PAIRS = st.tuples(st.integers(0, 3), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_PAIRS, min_size=1, max_size=3), st.lists(_PAIRS.filter(lambda p: p[0] > 0), min_size=1, max_size=3),
       st.integers(1, 20))
def test_pochhammer_expand_is_the_literal_product(num, den, order):
    # the first pair of each side is repeated: a k-th power is k factors
    spec = PochhammerSpec(num=tuple(num + num[:1]), den=tuple(den + den[:1]))
    assert pochhammer_expand(spec, order) == literal_product(spec, order)


def test_pochhammer_residue_zero_in_numerator_is_zero():
    # (1; q^4)_inf has the factor 1 - q^0 = 0
    spec = PochhammerSpec(num=((2, 3), (0, 4)), den=((1, 1), (1, 1)))
    assert pochhammer_expand(spec, 10) == literal_product(spec, 10) == QSeries.zero(10)


def test_denominator_residue_zero_rejected():
    with pytest.raises(ValueError):
        PochhammerSpec(den=((0, 3),))


def xshift(s: BiSeries, k: int) -> BiSeries:
    """s(x q^k), through the one x-shift of the library."""
    return poly_times_biseries(LaurentPoly.one(("x", "q")), s, k)


def test_xshift_monomial():
    s = BiSeries(8, {1: QSeries.monomial(8, 1)})
    shifted = xshift(s, 3)
    assert shifted.coeff(1, 4) == 1 and shifted.coeff(1, 1) == 0


def test_xshift_identity_and_composition():
    s = BiSeries(10, {0: QSeries.one(10), 2: QSeries(10, [0, 0, 3, 1]), 3: QSeries(10, [0, 0, 0, 5])})
    assert xshift(s, 0) == s
    assert xshift(xshift(s, 2), 3) == xshift(s, 5)
    with pytest.raises(ValueError, match="negative x-shift"):
        xshift(s, -1)


def test_biseries_inverse_law():
    n = 16
    a = xq_pochhammer(n)
    assert a * inv_xq_pochhammer(n) == BiSeries.one(n)
    assert inv_xq_pochhammer(n) * a == BiSeries.one(n)


def test_inv_xq_pochhammer_matches_the_slice_by_slice_inverse():
    for n in range(41):
        s = inv_xq_pochhammer(n)
        assert s == inv_xq_pochhammer_by_slices(n)
        assert list(s.slices) == list(range(n))


def test_xq_pochhammer_matches_product_form():
    # cross-check the closed slice form against the literal product
    n = 14
    prod = BiSeries.one(n)
    for j in range(1, n):
        prod = prod * (BiSeries.one(n) - BiSeries.monomial(n, 1, j))
    assert prod == xq_pochhammer(n)


def test_first_difference_witness():
    a = BiSeries(5, {1: QSeries(5, [0, 1, 2])})
    b = BiSeries(5, {1: QSeries(5, [0, 1, 3])})
    assert a.first_difference(b) == (1, 2)
    assert a.first_difference(a) is None


def test_json_round_trip():
    s = QSeries(4, [1, 0, -2, 5])
    assert s.to_json() == {"order": 4, "coeffs": ["1", "0", "-2", "5"]}
    b = BiSeries(4, {0: QSeries.one(4), 2: QSeries(4, [0, 0, 7])})
    assert b.to_json() == {"qorder": 4, "slices": {"0": {"order": 4, "coeffs": ["1", "0", "0", "0"]},
                                                   "2": {"order": 4, "coeffs": ["0", "0", "7", "0"]}}}


# ----------------------------------------------------------------------
# properties

ORDER = 12


def qseries(constant=st.integers(-5, 5)):
    return st.builds(lambda c0, rest: QSeries(ORDER, [c0] + rest),
                     constant, st.lists(st.integers(-5, 5), min_size=ORDER - 1, max_size=ORDER - 1))


@settings(max_examples=200, deadline=None)
@given(qseries(), qseries(), qseries())
def test_qseries_multiplication_is_commutative_and_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(qseries(st.sampled_from((1, -1))), qseries(st.sampled_from((1, -1))))
def test_inverse_of_a_product_is_the_product_of_inverses(s, t):
    assert (s * t).invert() == s.invert() * t.invert()
    assert s * s.invert() == QSeries.one(ORDER)


# signed coefficients up to 2^80 make the slot width grow; x-supports have gaps
COEFF = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


def biseries(qorder):
    return st.dictionaries(st.integers(0, 9), st.lists(COEFF, min_size=qorder, max_size=qorder), max_size=4).map(
        lambda rows: BiSeries(qorder, {m: QSeries(qorder, cs) for m, cs in rows.items()}))


def biseries_pair():
    """Two operands whose q-orders may differ: the product has the smaller."""
    return st.tuples(st.integers(0, 9), st.integers(0, 9)).flatmap(lambda ns: st.tuples(*map(biseries, ns)))


@settings(max_examples=300, deadline=None)
@given(biseries_pair())
@example((BiSeries(0, {}), BiSeries(3, {0: QSeries(3, [1, 2, 3])})))
@example((BiSeries(1, {0: QSeries(1, [2**80]), 3: QSeries(1, [-(2**80)])}), BiSeries(1, {2: QSeries(1, [-5])})))
def test_packed_biseries_product_is_the_schoolbook_product(pair):
    a, b = pair
    assert a * b == schoolbook_product(a, b)


@settings(max_examples=300, deadline=None)
@given(biseries_pair())
@example((BiSeries(1, {0: QSeries(1, [-7])}), BiSeries(0)))
def test_packed_qseries_product_is_the_schoolbook_product(pair):
    s, t = (b.slice(0) for b in pair)
    assert s * t == schoolbook_product(BiSeries(s.order, {0: s}), BiSeries(t.order, {0: t})).slice(0)


@pytest.mark.parametrize("sign", (1, -1))
def test_a_product_coefficient_at_the_slot_bound_keeps_its_sign(sign):
    # |a|_1 |b|_inf = 128 < |a|_inf |b|_1 = 130, and the coefficient of x q
    # is sign * 128: one slot byte, which holds -128 .. 127, is one too few
    a = BiSeries(2, {0: QSeries(2, [sign * 63, 0]), 1: QSeries(2, [0, sign * 65])})
    b = BiSeries(2, {0: QSeries(2, [1, 0]), 1: QSeries(2, [0, 1])})
    assert (a * b).slice(1).coeffs[1] == sign * 128
    assert a * b == schoolbook_product(a, b)
    s, t = QSeries(2, [sign * 63, sign * 65]), QSeries(2, [1, 1])
    assert (s * t).coeffs == [sign * 63, sign * 128]
    assert s * t == schoolbook_product(BiSeries(2, {0: s}), BiSeries(2, {0: t})).slice(0)


def unit_led(n):
    """A QSeries modulo q^n with a nonzero constant term."""
    return st.tuples(COEFF.filter(bool), st.lists(COEFF, min_size=n - 1, max_size=n - 1)).map(
        lambda cs: QSeries(n, [cs[0], *cs[1]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4),
       st.integers(1, 9).flatmap(lambda n: st.tuples(unit_led(n), unit_led(n))))
def test_products_that_cancel_to_zero_slices_drop_them(m0, k0, d, pair):
    s, t = pair
    a = BiSeries(s.order, {m0: s, m0 + d: s})
    b = BiSeries(s.order, {k0: t, k0 + d: -t})
    # (x^m0 + x^(m0+d)) * (x^k0 - x^(k0+d)) * s * t: the middle slice cancels
    p = a * b
    assert m0 + k0 in p.slices and m0 + k0 + d not in p.slices
    assert p == schoolbook_product(a, b)


@pytest.mark.parametrize("profile", [(3, 0, 0), (1, 1, 1)])
def test_g_to_f_is_the_schoolbook_product(profile):
    g = solve_cw_family((3, 0, 0), 40)[profile]
    assert g_to_f(g) == schoolbook_product(g, inv_xq_pochhammer(40))
