"""Truncated q-series, Pochhammer products, and (x, q)-series."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart.series import (
    BiSeries,
    PochhammerFactor,
    PochhammerSpec,
    QSeries,
    infinite_pochhammer,
    inv_xq_pochhammer,
    pochhammer_expand,
    xq_pochhammer,
)


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
    spec = PochhammerSpec.quotient([], [(2, 6), (3, 6), (3, 6), (4, 6)])
    assert pochhammer_expand(spec, 8).coeffs == [1, 0, 1, 2, 2, 2, 5, 4]


def test_pochhammer_d123_product():
    spec = PochhammerSpec.quotient(
        [(2, 6), (4, 6)], [(1, 6), (1, 6), (3, 6), (3, 6), (5, 6), (5, 6)]
    )
    assert pochhammer_expand(spec, 4).coeffs == [1, 2, 2, 4]


def test_pochhammer_empty_product():
    assert pochhammer_expand(PochhammerSpec(()), 5) == QSeries.one(5)


def test_pochhammer_denominator_positive_coefficients():
    # purely-denominator products count multisets: all coefficients >= 0
    spec = PochhammerSpec.quotient([], [(1, 2), (3, 4), (2, 3)])
    assert all(c >= 0 for c in pochhammer_expand(spec, 25).coeffs)


def test_denominator_residue_zero_rejected():
    with pytest.raises(ValueError):
        PochhammerFactor(0, 3, "denominator")


def test_xshift_monomial():
    s = BiSeries(8, {1: QSeries.monomial(8, 1)})
    shifted = s.apply_xshift(3)
    assert shifted.coeff(1, 4) == 1 and shifted.coeff(1, 1) == 0


def test_xshift_identity_and_composition():
    s = BiSeries(10, {0: QSeries.one(10), 2: QSeries(10, [0, 0, 3, 1]), 3: QSeries(10, [0, 0, 0, 5])})
    assert s.apply_xshift(0) == s
    assert s.apply_xshift(2).apply_xshift(3) == s.apply_xshift(5)


def test_biseries_inverse_law():
    n = 16
    a = xq_pochhammer(n)
    assert a * inv_xq_pochhammer(n) == BiSeries.one(n)
    assert inv_xq_pochhammer(n) * a == BiSeries.one(n)


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
    assert QSeries.from_json(s.to_json()) == s
    b = BiSeries(4, {0: QSeries.one(4), 2: QSeries(4, [0, 0, 7])})
    assert BiSeries.from_json(b.to_json()) == b


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
