"""Cylindric partitions and the profile recursion."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart.catalog import PRODUCT_D123, PRODUCT_D1234, EULER_PRODUCT
from qpart.colored import COND_D123, COND_D1234, enumerate_2colored, gen_fun
from qpart.cylindric import (
    cw_children,
    enumerate_cylindric,
    g_to_f,
    is_cylindric,
    profile_orbit,
    solve_cw_family,
)
from qpart.series import BiSeries, QSeries, inv_xq_pochhammer, pochhammer_expand

from oracles import f_to_g


def test_is_cylindric_examples():
    assert is_cylindric(((), (), ()), (1, 1, 1))
    assert is_cylindric(((1,), (), ()), (1, 1, 1))
    assert not is_cylindric(((), (), (1,)), (3, 0, 0))


def test_is_cylindric_row_count():
    with pytest.raises(ValueError):
        is_cylindric(((), ()), (1, 1, 1))


def test_zero_profile_rejected():
    with pytest.raises(ValueError):
        cw_children((0, 0, 0))


def test_children_match_displays():
    assert cw_children((3, 0, 0)) == [((0,), 1, 0, (2, 1, 0))]
    ch111 = cw_children((1, 1, 1))
    assert len(ch111) == 7
    full = [c for c in ch111 if c[0] == (0, 1, 2)]
    assert full == [((0, 1, 2), 1, 2, (1, 1, 1))]
    ch210 = {c[0]: c for c in cw_children((2, 1, 0))}
    assert ch210[(0,)][3] == (1, 2, 0)
    assert ch210[(1,)][3] == (2, 0, 1)
    assert ch210[(0, 1)] == ((0, 1), -1, 1, (1, 1, 1))


def test_profile_orbit_is_all_ten():
    orbit = profile_orbit((3, 0, 0))
    assert len(orbit) == 10
    assert all(sum(p) == 3 and len(p) == 3 for p in orbit)


def test_enumeration_low_order():
    f111 = enumerate_cylindric((1, 1, 1), 1)
    assert f111.coeff(0, 0) == 1 and f111.coeff(1, 1) == 3
    f300 = enumerate_cylindric((3, 0, 0), 1)
    assert f300.coeff(0, 0) == 1 and f300.coeff(1, 1) == 1
    assert enumerate_cylindric((2, 1, 0), 0) == BiSeries(1, {0: QSeries.one(1)})


def _row_tuples(r, max_size):
    """Every r-tuple of partitions of total size <= max_size."""
    def partitions(budget, cap):
        yield ()
        for first in range(min(budget, cap), 0, -1):
            for rest in partitions(budget - first, first):
                yield (first,) + rest

    if r == 0:
        yield ()
        return
    for lam in partitions(max_size, max_size):
        for rest in _row_tuples(r - 1, max_size - sum(lam)):
            yield (lam,) + rest


def test_enumeration_equals_naive_filter():
    # the row-by-row listing against is_cylindric over all r-tuples of partitions
    for r, max_size in ((1, 9), (2, 9), (3, 9), (4, 6)):
        tuples = list(_row_tuples(r, max_size))
        profiles = list(product(range(3), repeat=r)) + ([(5,)] if r == 1 else [])
        for profile in profiles:
            slices = {}
            for rows in tuples:
                if is_cylindric(rows, profile):
                    mx = max((row[0] for row in rows if row), default=0)
                    slices.setdefault(mx, [0] * (max_size + 1))[sum(map(sum, rows))] += 1
            naive = BiSeries(max_size + 1, {m: QSeries(max_size + 1, c) for m, c in slices.items()})
            assert enumerate_cylindric(profile, max_size) == naive, profile


def test_fixed_point_constant_slice():
    for profile in ((3, 0, 0), (1, 1, 1), (2, 0, 1)):
        g = solve_cw_family(profile, 12)[profile]
        assert g.slice(0) == QSeries.one(12)


def test_g_to_f_round_trip_and_x0_slice():
    g = solve_cw_family((1, 1, 1), 15)[(1, 1, 1)]
    f = g_to_f(g)
    assert f_to_g(f) == g
    assert f.slice(0) == g.slice(0)
    assert g_to_f(BiSeries(10, {0: QSeries.one(10)})) == inv_xq_pochhammer(10)


@st.composite
def _biseries(draw):
    """A BiSeries of q-order 1..8 whose slices may sit at x-degree >= qorder."""
    n = draw(st.integers(1, 8))
    slices = draw(st.dictionaries(st.integers(0, 2 * n + 2), st.lists(st.integers(-3, 3), max_size=n), max_size=4))
    return BiSeries(n, {m: QSeries(n, cs) for m, cs in slices.items()})


@settings(max_examples=200, deadline=None)
@given(_biseries())
def test_g_to_f_inverts_the_literal_product(s):
    assert f_to_g(g_to_f(s)) == s
    assert g_to_f(f_to_g(s)) == s


def test_enumeration_matches_recursion_all_profiles():
    n = 10
    fam = solve_cw_family((3, 0, 0), n + 1)
    for profile in profile_orbit((3, 0, 0)):
        assert enumerate_cylindric(profile, n) == g_to_f(fam[profile])



def test_layer_count_matches_recursion_at_size_30():
    # far beyond the reach of a listing: 16-bit coefficients at level 3
    n = 30
    fam = solve_cw_family((3, 0, 0), n + 1)
    for profile in profile_orbit((3, 0, 0)):
        assert enumerate_cylindric(profile, n) == g_to_f(fam[profile]), profile


def test_one_row_is_every_partition_at_size_60():
    # one row with no constraint: F = 1/(xq; q)_inf, whose largest coefficient here needs 17 bits
    assert enumerate_cylindric((0,), 60) == inv_xq_pochhammer(61)


@pytest.mark.parametrize("r", (2, 3))
def test_zero_profile_is_r_equal_rows(r):
    # all r rows equal, so F = 1/(x q^r; q^r)_inf, taken here as the literal product
    n = 31
    expected = BiSeries(n, {0: QSeries.one(n)})
    for j in range(1, (n - 1) // r + 1):
        geometric = {k: QSeries(n, [0] * (r * j * k) + [1]) for k in range((n - 1) // (r * j) + 1)}
        expected = expected * BiSeries(n, geometric)
    assert enumerate_cylindric((0,) * r, n - 1) == expected

@pytest.mark.parametrize("profile, n", (
    ((2, 0), 14), ((1, 1), 14), ((5, 0), 12), ((4, 0, 0), 12), ((2, 2, 0), 12),
    ((1, 1, 1, 1), 10), ((2, 1, 1, 0), 10),
))
def test_enumeration_matches_recursion_off_the_level_three_orbit(profile, n):
    # systems of 3 to 35 unknowns, unlike the ten of the (3,0,0) orbit
    fam = solve_cw_family(profile, n + 1)
    for p in profile_orbit(profile):
        assert enumerate_cylindric(p, n) == g_to_f(fam[p]), p


def test_rotation_invariance():
    n = 12
    fam = solve_cw_family((3, 0, 0), n)
    assert fam[(2, 1, 0)] == fam[(1, 0, 2)] == fam[(0, 2, 1)]
    assert fam[(2, 0, 1)] == fam[(1, 2, 0)] == fam[(0, 1, 2)]
    assert fam[(3, 0, 0)] == fam[(0, 3, 0)] == fam[(0, 0, 3)]


def test_chain_pairing():
    # the two profile series specialize to the two partition classes
    n = 18
    fam = solve_cw_family((3, 0, 0), n)
    fd123 = gen_fun(enumerate_2colored(n - 1, COND_D123), n).eval_x1()
    fd1234 = gen_fun(enumerate_2colored(n - 1, COND_D1234), n).eval_x1()
    assert fam[(1, 1, 1)].eval_x1() == fd123
    assert fam[(3, 0, 0)].eval_x1() == fd1234


def test_character_specialization():
    n = 20
    fam = solve_cw_family((3, 0, 0), n)
    euler = pochhammer_expand(EULER_PRODUCT, n)
    assert g_to_f(fam[(1, 1, 1)]).eval_x1() * euler == pochhammer_expand(PRODUCT_D123, n)
    assert g_to_f(fam[(3, 0, 0)]).eval_x1() * euler == pochhammer_expand(PRODUCT_D1234, n)


def test_enumeration_slice_valuations():
    # total size is at least the largest part, so slice m starts at q^m
    f = enumerate_cylindric((2, 0, 1), 10)
    for m, s in f.slices.items():
        v = s.valuation()
        assert v is None or v >= m
