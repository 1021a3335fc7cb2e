"""Certificates, recurrences, quadruple sums, operators, uncoupling."""

import operator
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import automata, catalog, cylindric, holonomic, serialize
from qpart.automata import build_avoidance_dfa, derive_transfer_system, solve_language_series
from qpart.celine import _slot_parts, default_support
from qpart.colored import COND_D123, enumerate_2colored, gen_fun
from qpart.cylindric import solve_cw_family
from qpart.holonomic import (
    AGSumSpec,
    CertificateSet,
    HypTerm,
    QDiffOperator,
    QU_VARS,
    SequenceTables,
    ShiftOp,
    TERM_VARS,
    annihilation_depth,
    apply_qdiff,
    cleared_ratios,
    eval_qu_poly,
    evaluate_ag_sum,
    first_recurrence_failure,
    poly_times_biseries,
    recurrence_from_certificate,
    recurrence_from_operator,
    recurrence_holds_at_point,
    recurrence_remainder,
    sequence_value,
    shift_combination,
    solve_shift_system,
    term_support,
    uncouple_system,
    verify_certificate,
)
from qpart.holonomic import _polynomial_nullvector, _row_walk, _term_profile
from qpart.laurent import LaurentPoly, RationalFunction
from qpart.series import BiSeries, QSeries, divide_binomial, inv_xq_pochhammer

from oracles import cleared_ratios_by_products, finite_pochhammer

QU = ("q", "u")
XQ = ("x", "q")


def poch_value(q0: Fraction, base: int, length: int) -> Fraction:
    """(q0^base; q0^base)_length, factor by factor."""
    v = Fraction(1)
    p = q0**base
    t = p
    for _ in range(length):
        v *= 1 - t
        t *= p
    return v


def _shift_ratio(term: HypTerm, shift) -> RationalFunction:
    """F(v - shift)/F(v): the cleared numerator of the shift over that of no shift."""
    c = cleared_ratios(term, [(0, 0, 0, 0), shift])
    return RationalFunction(c[shift], c[(0, 0, 0, 0)])


def test_term_ratio_zero_shift():
    term = catalog.certificate_term("g111")
    r = _shift_ratio(term, (0, 0, 0, 0))
    assert r == RationalFunction.from_poly(LaurentPoly.one(TERM_VARS))


def test_term_ratio_single_pochhammer():
    # F(n) = 1/(q;q)_n gives F(n-1)/F(n) = 1 - q^n
    t = HypTerm(nsum=0, quad2=((0,),), lin=(0,), const=0, pochs=(((1,), 0, 1),))
    r = _shift_ratio(t, (1, 0, 0, 0))
    u = LaurentPoly.variable(TERM_VARS, "u")
    assert r == RationalFunction.from_poly(1 - u)


def _term_value(term: HypTerm, v, q0: Fraction) -> Fraction:
    """F(v) at q = q0, factor by factor; 0 off the support."""
    if not term.supported(v):
        return Fraction(0)
    val = q0 ** term.qexponent(v)
    for L, (_, _, base) in zip(term.poch_lengths(v), term.pochs):
        val /= poch_value(q0, base, L)
    return val


def _value_at(p: LaurentPoly, v, q0: Fraction) -> Fraction:
    """p over TERM_VARS at q = q0, u = q0^n, v_i = q0^(k_i)."""
    subs = [q0, *(q0**x for x in v)]
    total = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for x, k in zip(subs, e):
            term *= x**k
        total += term
    return total


def test_term_ratio_numeric_oracle():
    # F(v - s)/F(v) from the factored formula equals the direct quotient
    term = catalog.certificate_term("g300")
    q0 = Fraction(3, 2)
    for v in ((7, 1, 1, 1), (9, 2, 0, 2)):
        for s in ((1, 0, 0, 0), (0, 1, 0, 0), (2, 1, 1, 0), (3, 0, 1, 1)):
            vv = tuple(a - b for a, b in zip(v, s))
            f1, f2 = _term_value(term, v, q0), _term_value(term, vv, q0)
            if not f1 or not term.supported(vv):
                continue
            r = _shift_ratio(term, s)
            assert f2 / f1 == _value_at(r.num, v, q0) / _value_at(r.den, v, q0)


def test_cleared_ratios_match_the_product_of_their_factors():
    # every telescoped shift of the four certificate sets, and every shift of
    # the CLI's default g111 Celine box (--deg 3 --qdeg 3 --kbox 1)
    cases = [(catalog.certificate_term(name), sorted(catalog.certificate(name).telescoped().terms))
             for name in catalog.CERTIFICATE_NAMES]
    g111 = catalog.certificate_term("g111")
    box = default_support(3, nsum=g111.nsum, kbox=(1, 1, 1), u_range=(0, 3), q_range=(-3, 3))
    cases.append((g111, sorted({sh for slot in box for sh, _ in _slot_parts(slot)})))
    assert len(cases) == 5 and all(len(shifts) > 1 for _, shifts in cases)
    for term, shifts in cases:
        cleared, expected = cleared_ratios(term, shifts), cleared_ratios_by_products(term, shifts)
        assert list(cleared) == shifts and all(cleared[s].terms == expected[s].terms for s in shifts)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_cleared_ratios_are_the_term_quotients_on_every_telescoped_shift(name):
    # one call clears every shift of the telescoped operator over one
    # denominator, the cleared ratio of the zero shift; at q = 3/2 each
    # numerator over it is F(v - s)/F(v), which is 0 where v - s leaves the support
    term = catalog.certificate_term(name)
    shifts = sorted(catalog.certificate(name).telescoped().terms)
    cleared = cleared_ratios(term, [*shifts, (0, 0, 0, 0)])
    q0 = Fraction(3, 2)
    zeros = 0
    for v in ((14, 2, 1, 1), (8, 3, 1, 1)):
        f = _term_value(term, v, q0)
        den = _value_at(cleared[(0, 0, 0, 0)], v, q0)
        assert f and den
        for s in shifts:
            ratio = _term_value(term, tuple(a - b for a, b in zip(v, s)), q0) / f
            assert _value_at(cleared[s], v, q0) / den == ratio, (v, s)
            zeros += not ratio
    assert 0 < zeros < len(shifts)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_certificates_verify(name):
    res = verify_certificate(catalog.certificate_term(name), catalog.certificate(name))
    assert res.ok and res.residual_terms == 0


@pytest.mark.parametrize("name", ("d123", "d1234"))
def test_unemended_order_six_sets_fail(name):
    res = verify_certificate(catalog.certificate_term(name), catalog.certificate(name, verbatim=True))
    assert not res.ok


def test_perturbed_certificate_fails():
    cert = catalog.certificate("g111")
    u3q5 = LaurentPoly.monomial(TERM_VARS, (5, 3, 0, 0, 0))
    cert.families["p"][1] = cert.families["p"][1] + ShiftOp.coefficient(u3q5)
    res = verify_certificate(catalog.certificate_term("g111"), cert)
    # the exact residual, not only its sign: the order of accumulation and
    # cancellation must not change what a failing verification reports
    assert not res.ok and res.residual_terms == 8
    assert res.residual_sample == [[[9, 4, -3, -4, -5], -1], [[7, 3, -2, -3, -3], 1], [[8, 3, -2, -3, -3], 1],
                                   [[6, 2, -1, -2, -1], -1], [[9, 3, -2, -3, -3], 1]]


def test_telescoped_identity_at_integer_points():
    # evaluating the telescoped operator against literal term values at
    # fixed integer points gives 0 whenever all shifted terms are supported
    term = catalog.certificate_term("g111")
    total = catalog.certificate("g111").telescoped()
    q0 = Fraction(2)

    def F(v):
        if not term.supported(v):
            return None
        val = q0 ** term.qexponent(v)
        for L, (_, _, base) in zip(term.poch_lengths(v), term.pochs):
            val /= poch_value(q0, base, L)
        return val

    checked = 0
    for v in ((14, 2, 2, 2), (16, 3, 2, 2), (15, 2, 3, 2), (17, 2, 2, 3)):
        vals = {}
        ok = True
        for s in total.terms:
            vv = tuple(a - b for a, b in zip(v, s))
            vals[s] = F(vv)
            if vals[s] is None:
                ok = False
        if not ok:
            continue
        subs = [q0] + [q0 ** x for x in v]
        acc = Fraction(0)
        for s, coeff in total.terms.items():
            c = Fraction(0)
            for e, cc in coeff.terms.items():
                t = Fraction(cc)
                for b, ee in zip(subs, e):
                    t *= b ** ee
                c += t
            acc += c * vals[s]
        assert acc == 0
        checked += 1
    assert checked >= 2


def test_printed_p0_of_g111():
    ps = recurrence_from_certificate(catalog.certificate("g111"))
    q = LaurentPoly.variable(QU, "q")
    u = LaurentPoly.variable(QU, "u")
    assert ps[0] == -2 * u ** 6 * q ** 8 - u ** 3 * q ** 12 + 2 * u ** 3 * q ** 8 + q ** 12
    assert len(ps) == 4
    assert len(recurrence_from_certificate(catalog.certificate("d123"))) == 7


def test_trivial_constant_certificate():
    # constant term F(n) = 1: p0 = 1, p1 = -1 telescopes to f_n = f_(n-1)
    one = LaurentPoly.one(TERM_VARS)
    cert = CertificateSet(
        {
            "p": [ShiftOp.coefficient(one), ShiftOp.coefficient(-one)],
            "q": [ShiftOp(), ShiftOp()],
            "r": [ShiftOp(), ShiftOp()],
            "s": [ShiftOp(), ShiftOp()],
        },
    )
    const = HypTerm(nsum=0, quad2=((0,),), lin=(0,), const=0, pochs=())
    assert verify_certificate(const, cert).ok


def test_a_zero_certificate_does_not_verify():
    # every family zero telescopes to the zero operator, which proves only 0 = 0
    const = HypTerm(nsum=0, quad2=((0,),), lin=(0,), const=0, pochs=())
    assert not verify_certificate(const, CertificateSet({"p": [ShiftOp(), ShiftOp()]})).ok


# coefficients over (q, u, v1) with few terms and unit coefficients, so
# that sums and products cancel often
_small_polys = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(0, 1), st.integers(0, 1)), st.sampled_from((-1, 1)), max_size=2,
).map(lambda d: LaurentPoly(TERM_VARS, {(*e, 0, 0): c for e, c in d.items()}))
_small_shifts = st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0), st.just(0))
_small_ops = st.dictionaries(_small_shifts, _small_polys, max_size=3).map(ShiftOp)


@settings(max_examples=200, deadline=None)
@given(_small_ops, _small_ops, _small_ops, st.integers(-2, 2))
def test_shift_operators_store_no_zero_and_form_a_ring(a, b, c, k):
    for op in (a + b, a - b, a * b, a + k, k - a, a * k, k * a, a - a, a * 0):
        assert not any(p.is_zero() for p in op.terms.values())
    assert (a - a).is_zero() and (a * 0).is_zero() and (a + k) - k == a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    assert a * k == k * a == a * ShiftOp.coefficient(LaurentPoly.constant(TERM_VARS, k))


_N, _NO_SHIFT = ShiftOp.shift((1, 0, 0, 0)), (0, 0, 0, 0)
_ONE, _U = LaurentPoly.one(TERM_VARS), LaurentPoly.variable(TERM_VARS, "u")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_small_shifts, _small_polys.filter(lambda p: not p.is_zero()), min_size=1, max_size=3).map(ShiftOp),
       st.integers(0, 6))
@example(ShiftOp.shift((1, 1, 0, 0)), 5)
@example(ShiftOp.coefficient(_U - _ONE), 6)
def test_a_power_is_the_repeated_product(op, n):
    product = ShiftOp.coefficient(_ONE)
    for _ in range(n):
        product = product * op
    assert op ** n == product


@pytest.mark.parametrize("op, left, right, expected", [
    (operator.add, _N, _U, {(1, 0, 0, 0): _ONE, _NO_SHIFT: _U}),
    (operator.add, _U, _N, {(1, 0, 0, 0): _ONE, _NO_SHIFT: _U}),
    (operator.sub, _N, _U, {(1, 0, 0, 0): _ONE, _NO_SHIFT: -_U}),
    (operator.sub, _U, _N, {(1, 0, 0, 0): -_ONE, _NO_SHIFT: _U}),
    # N * u = (u/q) * N is twisted; u * N is not
    (operator.mul, _N, _U, {(1, 0, 0, 0): LaurentPoly.monomial(TERM_VARS, (-1, 1, 0, 0, 0))}),
    (operator.mul, _U, _N, {(1, 0, 0, 0): _U}),
], ids=["add-right", "add-left", "sub-right", "sub-left", "mul-right", "mul-left"])
def test_a_polynomial_over_the_term_variables_is_a_coefficient_operator(op, left, right, expected):
    assert op(left, right) == ShiftOp(expected)


@pytest.mark.parametrize("other", [LaurentPoly.variable(QU, "u"), Fraction(1, 2), 0.5],
                         ids=["qu-poly", "fraction", "float"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_anything_else_next_to_a_shift_operator_is_a_type_error(op, other):
    with pytest.raises(TypeError):
        op(_N, other)
    with pytest.raises(TypeError):
        op(other, _N)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_recurrences_annihilate_at_points(name):
    term = catalog.certificate_term(name)
    plist = recurrence_from_certificate(catalog.certificate(name))
    for q0 in (Fraction(2), Fraction(7, 5)):
        assert recurrence_holds_at_point(term, plist, 14, q0)


def sequence_series(term: HypTerm, n: int, qorder: int) -> QSeries:
    """f_n as a q-series mod q^qorder (terms with exponent >= qorder vanish)."""
    acc = QSeries.zero(qorder)
    inv_cache: dict[tuple[int, int], QSeries] = {}

    def inv(base: int, L: int) -> QSeries:
        if (base, L) not in inv_cache:
            inv_cache[(base, L)] = finite_pochhammer(base, L, qorder).invert()
        return inv_cache[(base, L)]

    for k in term_support(term, n):
        v = (n, *k)
        e = term.qexponent(v)
        if e < 0:
            raise ValueError("negative q-exponent on support")
        if e >= qorder:
            continue
        s = QSeries.monomial(qorder, e)
        for (_, _, base), L in zip(term.pochs, term.poch_lengths(v)):
            s = s * inv(base, L)
        acc = acc + s
    return acc


def recurrence_holds_series(term: HypTerm, plist, nmax: int, qorder: int) -> bool:
    """q-series check of the recurrence: all coefficients below the valid
    order must vanish for every 0 <= n <= nmax."""
    fs = {m: sequence_series(term, m, qorder) for m in range(-len(plist), nmax + 1)}
    for n in range(nmax + 1):
        acc: dict[int, int] = {}
        minexp = 0
        for j, p in enumerate(plist):
            coeffs: dict[int, int] = {}
            for (eq, eu), c in p.project(QU).terms.items():
                e = eq + n * eu
                coeffs[e] = coeffs.get(e, 0) + c
                minexp = min(minexp, e)
            f = fs[n - j]
            for e, c in coeffs.items():
                if not c:
                    continue
                for i, fc in enumerate(f.coeffs):
                    if fc:
                        acc[e + i] = acc.get(e + i, 0) + c * fc
        bound = qorder + minexp
        if any(v and e < bound for e, v in acc.items()):
            return False
    return True


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_recurrences_annihilate_as_series(name):
    term = catalog.certificate_term(name)
    plist = recurrence_from_certificate(catalog.certificate(name))
    assert recurrence_holds_series(term, plist, 8, 110)


def _direct_value(term: HypTerm, n: int, q0: Fraction, pochs: dict) -> Fraction:
    """The plain Fraction sum over the box [0..n]^r, term by term through poch_value."""
    direct = Fraction(0)
    for k in product(range(n + 1), repeat=term.nsum):
        v = (n, *k)
        if not term.supported(v):
            continue
        val = q0 ** term.qexponent(v)
        for L, (_, _, base) in zip(term.poch_lengths(v), term.pochs):
            if (base, L) not in pochs:
                pochs[base, L] = poch_value(q0, base, L)
            val /= pochs[base, L]
        direct += val
    return direct


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_sequence_value_matches_direct_fraction_sum(name):
    term = catalog.certificate_term(name)
    for q0 in (Fraction(2), Fraction(3), Fraction(7, 5), Fraction(2, 3), Fraction(-3, 2), Fraction(0)):
        pochs: dict[tuple[int, int], Fraction] = {}
        for n in range(13):
            assert sequence_value(term, n, q0) == _direct_value(term, n, q0, pochs), (n, q0)
    with pytest.raises(ZeroDivisionError):
        sequence_value(term, 5, Fraction(1))


_SHAPES = {
    # no summation: F(n) = q^(n^2) / (q; q)_n
    "r0": HypTerm(nsum=0, quad2=((2,),), lin=(0,), const=0, pochs=(((1,), 0, 1),)),
    # the exponent n - k falls along the run of k, so at q = 0 only k = n is left
    "r1-falling-exponent": HypTerm(nsum=1, quad2=((0, 0), (0, 0)), lin=(1, -1), const=0,
                                   pochs=(((1, -1), 0, 1), ((0, 1), 0, 2))),
    # k2 >= (n - 1 - k1)/2: consecutive runs of k2 start at different k2
    "r2-moving-lower-bound": HypTerm(nsum=2, quad2=((0, 0, 0), (0, 2, 1), (0, 1, 2)), lin=(0, 1, 0), const=0,
                                     pochs=(((1, -1, -1), 0, 1), ((0, 1, 0), 0, 1), ((0, 0, 1), 0, 3),
                                            ((-1, 1, 2), 1, 2))),
    # k is free: sum_k q^(k^2 + k) / ((q; q)_k (q; q)_(n-k)) is one weight over (q; q)_n
    "r1-free": HypTerm(nsum=1, quad2=((0, 0), (0, 2)), lin=(0, 1), const=0, pochs=(((1, -1), 0, 1), ((0, 1), 0, 1))),
    # the other length 2n - k could pass the box k <= n, so k is not summed out
    "r1-past-the-box": HypTerm(nsum=1, quad2=((0, 0), (0, 0)), lin=(0, 0), const=0,
                               pochs=(((2, -1), 0, 1), ((0, 1), 0, 1))),
    # q^(2k^2 - 3k + 1) dips below its k = 0 power at k = 1, so k is not summed out (q = 0 would fail)
    "r1-dipping-exponent": HypTerm(nsum=1, quad2=((0, 0), (0, 4)), lin=(0, -3), const=1,
                                   pochs=(((1, -1), 0, 1), ((0, 1), 0, 1))),
    # k2 is free: q^(k2^2 - k2) / ((q^3; q^3)_k2 (q^3; q^3)_(n-1-k1-k2)), summed once per M = n - 1 - k1
    "r2-free-k2-base-3": HypTerm(nsum=2, quad2=((0, 1, 0), (1, 2, 0), (0, 0, 2)), lin=(0, 1, -1), const=0,
                                 pochs=(((0, 1, 0), 0, 1), ((1, -1, -1), -1, 3), ((0, 0, 1), 0, 3))),
    # k1 is free with exponent -2 k1: the reduced form takes q^(-2M), M = n - 1 - k2, constant and all;
    # at q = 0 only k1 = M, k2 = 0 is left
    "r2-free-k1-falling-exponent": HypTerm(nsum=2, quad2=((0, 0, 1), (0, 0, 0), (1, 0, 2)), lin=(2, -2, 0),
                                           const=-2, pochs=(((0, 1, 0), 0, 2), ((1, -1, -1), -1, 2),
                                                           ((0, 0, 1), 0, 1))),
    # k1 and k2 each sit in symbols of bases 1 and 2, so neither is summed out
    "r2-two-bases": HypTerm(nsum=2, quad2=((2, 0, 0), (0, 2, 0), (0, 0, 0)), lin=(0, -1, 1), const=0,
                            pochs=(((0, 1, 0), 0, 1), ((1, -1, -1), 0, 2), ((0, 0, 1), 0, 1))),
    # every k_i has a cross term, so none is summed out; k3 >= (n - k2)/2, so runs of k3 start above 0
    "r3-cross-terms": HypTerm(nsum=3, quad2=((0, 0, 1, 0), (0, 2, 1, 1), (1, 1, 2, 1), (0, 1, 1, 2)),
                              lin=(0, 0, 1, -1), const=0,
                              pochs=(((1, -1, -1, -1), 0, 1), ((0, 1, 0, 0), 0, 1), ((0, 0, 1, 0), 0, 2),
                                     ((0, 0, 0, 1), 0, 1), ((-1, 0, 1, 2), 0, 3))),
}


@pytest.mark.parametrize("name", _SHAPES)
def test_sequence_value_matches_direct_fraction_sum_on_other_shapes(name):
    # fewer summation variables, runs that do not all start at k_r = 0, and
    # q = 0, where a run can start with zero terms
    term = _SHAPES[name]
    for q0 in (Fraction(0), Fraction(2), Fraction(7, 5), Fraction(-3, 2)):
        tables, pochs = SequenceTables(), {}
        for n in range(10):
            assert sequence_value(term, n, q0, tables) == _direct_value(term, n, q0, pochs), (n, q0)


def test_a_free_variable_is_summed_out_before_the_profile():
    reduced = {name for name, term in _SHAPES.items() if _term_profile(term, 6).term.nsum < term.nsum}
    assert reduced == {"r1-free", "r2-free-k2-base-3", "r2-free-k1-falling-exponent"}
    assert _term_profile(_SHAPES["r3-cross-terms"], 6).term == _SHAPES["r3-cross-terms"]
    # k1 in each catalog term; the profile counts the points of the reduced support
    for name in catalog.CERTIFICATE_NAMES:
        term = catalog.certificate_term(name)
        profile = _term_profile(term, 12)
        assert profile.term.nsum == 2 and len(profile.rows) == len(term_support(profile.term, 12))
        assert len(profile.rows) < len(term_support(term, 12))


@pytest.mark.parametrize("name", _SHAPES)
def test_a_point_is_stepped_only_from_the_previous_point_along_k_r(name):
    # a row without previous lengths is evaluated in full: exactly the first point of each run of k_r
    profile = _term_profile(_SHAPES[name], 7)
    support = term_support(profile.term, 7)
    full = [i for i, row in enumerate(profile.rows) if row[3] is None]
    assert full == [i for i, k in enumerate(support) if i == 0 or k[:-1] != support[i - 1][:-1]]


_POINTS = (Fraction(2), Fraction(3), Fraction(7, 5), Fraction(-3, 2), Fraction(1, 3))


def _fraction_value(terms: dict, n: int, q0: Fraction) -> Fraction:
    return sum((c * q0 ** (eq + n * eu) for (eq, eu), c in terms.items()), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), st.integers(-5, 5), max_size=6),
       st.integers(-8, 8))
def test_eval_qu_poly_matches_a_fraction_sum(terms, n):
    p = LaurentPoly(QU, terms)
    for q0 in _POINTS:
        assert eval_qu_poly(p, n, q0) == _fraction_value(terms, n, q0), (terms, n, q0)


def test_eval_qu_poly_on_the_recurrences():
    # every exponent sign: the certificate coefficients at negative, zero and positive n,
    # and a (q, u) polynomial written over the term variables
    for name in catalog.CERTIFICATE_NAMES:
        for p in recurrence_from_certificate(catalog.certificate(name)):
            for n in (-7, -1, 0, 4):
                for q0 in _POINTS:
                    assert eval_qu_poly(p, n, q0) == _fraction_value(p.terms, n, q0)
    wide = LaurentPoly(TERM_VARS, {(-3, 2, 0, 0, 0): 4, (5, -1, 0, 0, 0): -1})
    for q0 in _POINTS:
        assert eval_qu_poly(wide, -2, q0) == 4 * q0 ** -7 - q0 ** 7
    assert eval_qu_poly(LaurentPoly.zero(QU), 3, Fraction(2)) == 0


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_shared_tables_give_the_values_of_fresh_ones(name):
    # one SequenceTables for every n and point, visited out of order so that
    # its lists are both grown and reused; 2/3 is not a recurrence point
    term = catalog.certificate_term(name)
    tables = SequenceTables()
    for q0, ns in ((Fraction(7, 5), range(12, -2, -1)), (Fraction(2, 3), range(-1, 13)),
                   (Fraction(2), (5, 12, 0, 7)), (Fraction(7, 5), range(13))):
        for n in ns:
            assert sequence_value(term, n, q0, tables) == sequence_value(term, n, q0), (n, q0)


def test_first_recurrence_failure_names_the_first_failing_point():
    term = catalog.certificate_term("g111")
    plist = recurrence_from_certificate(catalog.certificate("g111"))
    points = (Fraction(3), Fraction(2))
    assert first_recurrence_failure(term, plist, 6, points) is None
    assert first_recurrence_failure(term, [plist[0] + plist[0], *plist[1:]], 6, points) == {"q0": "3"}


def test_first_recurrence_failure_fails_a_recurrence_whose_p0_vanishes():
    # f_n = 1/(q;q)_n: (1 - u) f_n = f_(n-1), and that recurrence shifted once,
    # which holds at every n but leaves every f_n free
    term = HypTerm(nsum=0, quad2=((0,),), lin=(0,), const=0, pochs=(((1,), 0, 1),))
    q, u = (LaurentPoly.variable(QU_VARS, v) for v in QU_VARS)
    one, zero = LaurentPoly.one(QU_VARS), LaurentPoly.zero(QU_VARS)
    points = (Fraction(2), Fraction(3), Fraction(7, 5))
    assert first_recurrence_failure(term, [1 - u, -one], 5, points) is None
    assert first_recurrence_failure(term, [1 - u, -2 * one], 5, points) == {"q0": "2"}
    assert first_recurrence_failure(term, [zero, 1 - u * q ** -1, -one], 5, points) == {"p0_zero_up_to_n": 5}


def test_sequences_match_series_coefficients():
    # each certificate term, summed over its support, is the x^m coefficient
    # of the quadruple sum it is derived from
    n = 12
    sums = {"g111": catalog.AG_G111, "g300": catalog.AG_G300, "d123": catalog.AG_D123, "d1234": catalog.AG_D1234}
    assert set(sums) == set(catalog.CERTIFICATE_NAMES)
    for name, spec in sums.items():
        series = evaluate_ag_sum(spec, n)
        for m in range(8):
            assert sequence_series(catalog.certificate_term(name), m, n) == series.slice(m), (name, m)


# the terms, the order-4 recurrence and the 2x2 system as they were once typed
# into the catalog, kept as the reference for what is now derived
_NARROW = ((2, 0, 1, -1), (0, 0, 0, 0), (1, 0, 2, 1), (-1, 0, 1, 2))
_WIDE = ((2, 0, -1, -1), (0, 0, 0, 0), (-1, 0, 2, 2), (-1, 0, 2, 2))
_C, _D = ((0, 0, 1, 0), 0, 3), ((0, 0, 0, 1), 0, 3)
_TYPED_TERMS = {
    "g111": (_NARROW, (0, 0, 0, 0), (((1, -1, -1, -2), 0, 1), ((0, 1, 0, 0), 0, 1), _C, _D)),
    "g300": (_NARROW, (2, -1, 1, -1), (((0, 1, 0, 0), 0, 1), ((1, -1, -1, -2), 0, 1), _C, _D)),
    "d123": (_WIDE, (0, 0, 0, 0), (((1, -1, -2, -2), 0, 1), ((0, 1, 0, 0), 0, 1), _C, _D)),
    "d1234": (_WIDE, (2, -1, -1, -1), (((0, 1, 0, 0), 0, 1), ((1, -1, -2, -2), 0, 1), _C, _D)),
}


def test_derived_catalog_entries_match_the_typed_forms():
    for name, (quad2, lin, pochs) in _TYPED_TERMS.items():
        t = catalog.certificate_term(name)
        assert (t.nsum, t.quad2, t.lin, t.const, t.pochs) == (3, quad2, lin, 0, pochs), name
    q, u = LaurentPoly.variable(QU, "q"), LaurentPoly.variable(QU, "u")
    assert catalog.pprime_family() == [
        -1 + u**3,
        -q**4 + 2 * u**3 * q**-2 + 2 * u**3 * q**-1 + 2 * u**3 + u**3 * q + u**6 * q**-3,
        u**3 * q**-3 + 2 * u**3 * q**-2 + 2 * u**3 * q**-1 + 2 * u**3 + u**6 * q**-8
        - u**6 * q**-5 - u**6 * q**-4,
        u**3 * q**-2 - u**6 * q**-10 - u**6 * q**-9 + u**6 * q**-6,
        u**6 * q**-11,
    ]
    x, q = LaurentPoly.variable(XQ, "x"), LaurentPoly.variable(XQ, "q")
    assert catalog.coupled_g_system() == [
        [2 * x * q**3, 1 + x * q**2],
        [3 * x * q**3 * (1 + x * q), 1 + 2 * x * q + 2 * x * q**2 + x**2 * q**3],
    ]


# the four operators as they were once typed into the catalog, kept as the
# reference for the uncoupled ones
_X, _Q, _1 = LaurentPoly.variable(XQ, "x"), LaurentPoly.variable(XQ, "q"), LaurentPoly.one(XQ)


def _op(*terms: tuple[LaurentPoly, int]) -> QDiffOperator:
    return QDiffOperator(tuple((c, s) for c, s in terms if not c.is_zero()), step=3)


def qdiff_operator_d123() -> QDiffOperator:
    """Order-3 operator annihilating the length-graded D1-D3 series."""
    x, q = _X, _Q
    c0 = 2 + 3 * x * q**4 + x * q**6
    c1 = (
        2 + 4 * x * q + 4 * x * q**2 + 4 * x * q**3 + 3 * x * q**4 + x * q**6
        + 4 * x**2 * q**3 + 6 * x**2 * q**4 + 6 * x**2 * q**5 + 8 * x**2 * q**6
        + 2 * x**2 * q**7 + 2 * x**2 * q**8 + 2 * x**2 * q**9
        + 6 * x**3 * q**7 + 2 * x**3 * q**9 + 3 * x**3 * q**10 + x**3 * q**12
    )
    c2 = x**2 * q**7 * (
        2 + 2 * q + 3 * x * q + 4 * x * q**2 + x * q**3 + 4 * x * q**4 - x * q**5
        + 4 * x * q**6 + x * q**7 + 2 * x**2 * q**5 + 6 * x**2 * q**7
        + 6 * x**2 * q**8 + 2 * x**2 * q**9 + 2 * x**2 * q**10 + 4 * x**2 * q**11
        + 3 * x**3 * q**9 + x**3 * q**11 + 6 * x**3 * q**12 + 2 * x**3 * q**14
    )
    c3 = x**4 * q**21 * (_1 - x * q**6) ** 2 * (2 + 3 * x * q + x * q**3)
    return _op((c0, 0), (-c1, 1), (c2, 2), (-c3, 3))


def qdiff_operator_d1234() -> QDiffOperator:
    """Order-3 operator annihilating the length-graded D1-D4 series."""
    x, q = _X, _Q
    c0 = 1 + x * q**5 + x * q**7
    c1 = (
        1 + x * q**2 + 2 * x * q**3 + 2 * x * q**4 + 2 * x * q**5 + x * q**7
        + 3 * x**2 * q**6 + 2 * x**2 * q**7 + 3 * x**2 * q**8 + 3 * x**2 * q**9
        + 2 * x**2 * q**10 + x**2 * q**11 + x**2 * q**12
        + 2 * x**3 * q**11 + 2 * x**3 * q**13 + x**3 * q**14 + x**3 * q**16
    )
    c2 = x**2 * q**10 * (
        1 + q + x * q**2 + x * q**3 + 2 * x * q**4 + 2 * x * q**6 + x * q**7
        + x * q**8 - x**2 * q**7 + 2 * x**2 * q**8 + x**2 * q**9 + 2 * x**2 * q**10
        + 3 * x**2 * q**11 + x**2 * q**12 + x**2 * q**13 + 2 * x**2 * q**14
        + x**3 * q**13 + x**3 * q**15 + 2 * x**3 * q**16 + 2 * x**3 * q**18
    )
    c3 = x**4 * q**27 * (_1 - x * q**6) * (_1 - x * q**9) * (1 + x * q**2 + x * q**4)
    return _op((c0, 0), (-c1, 1), (c2, 2), (-c3, 3))


def qdiff_operator_g300() -> QDiffOperator:
    """Order-2 operator annihilating G_(3,0,0)."""
    x, q = _X, _Q
    c0 = 1 + x * q**5
    c1 = (
        1 + x * q**2 + 2 * x * q**3 + 2 * x * q**4 + 2 * x * q**5
        + 2 * x**2 * q**6 + 2 * x**2 * q**7 + 2 * x**2 * q**8 + x**2 * q**9
        + x**3 * q**11
    )
    c2 = x * q**6 * (1 + x * q**2) * (_1 - x * q**4) * (_1 - x * q**5)
    return _op((c0, 0), (-c1, 1), (-c2, 2))


def qdiff_operator_g111() -> QDiffOperator:
    """Order-2 operator annihilating G_(1,1,1)."""
    x, q = _X, _Q
    c0 = 1 + x * q**4
    c1 = (
        1 + 2 * x * q + 2 * x * q**2 + 2 * x * q**3 + x * q**4
        + x**2 * q**3 + 2 * x**2 * q**4 + 2 * x**2 * q**5 + 2 * x**2 * q**6
        + x**3 * q**7
    )
    c2 = x * q**3 * (1 + x * q) * (_1 - x * q**4) * (_1 - x * q**5)
    return _op((c0, 0), (-c1, 1), (-c2, 2))


_TYPED_OPERATORS = {
    "g300": qdiff_operator_g300,
    "g111": qdiff_operator_g111,
    "d123": qdiff_operator_d123,
    "d1234": qdiff_operator_d1234,
}


def test_uncoupled_operators_match_the_typed_forms():
    for name, typed in _TYPED_OPERATORS.items():
        derived = getattr(catalog, f"qdiff_operator_{name}")()
        assert serialize.dumps(derived.to_json()) == serialize.dumps(typed().to_json()), name


def test_coefficient_term_needs_a_unit_x_coefficient():
    with pytest.raises(ValueError):
        catalog.AG_G111.coefficient_term(3)  # x-coefficient 2
    with pytest.raises(ValueError):
        catalog.AG_G111.coefficient_term(4)


def test_recurrence_from_operator_reads_the_x_coefficients():
    # F(x) = (1 + x) F(x q) gives (1 - q^n) g_n = q^(n-1) g_(n-1); the last
    # coefficient is made positive
    x, q = LaurentPoly.variable(XQ, "x"), LaurentPoly.variable(XQ, "q")
    op = QDiffOperator(((LaurentPoly.one(XQ), 0), (-(1 + x), 1)), step=1)
    qq, u = LaurentPoly.variable(QU, "q"), LaurentPoly.variable(QU, "u")
    assert recurrence_from_operator(op) == [-(1 - u), u * qq**-1]
    # a gap in the x-degrees gives a zero p_1
    op = QDiffOperator(((LaurentPoly.one(XQ), 0), (-(1 + x**2), 1)), step=1)
    assert recurrence_from_operator(op) == [-(1 - u), LaurentPoly.zero(QU), u * qq**-2]
    with pytest.raises(ValueError):
        recurrence_from_operator(QDiffOperator(((x**-1 * q, 0),), step=1))


def test_evaluate_ag_sum_d123_low_order():
    s = evaluate_ag_sum(catalog.AG_D123, 4)
    assert s.eval_x1().coeffs == [1, 2, 2, 4]


def ag_sum_per_point(spec: AGSumSpec, qorder: int) -> BiSeries:
    """The oracle for evaluate_ag_sum: each lattice point's term
    q^Q(k) x^(E.k) / prod (q^(m_i); q^(m_i))_(k_i) built from inverted
    finite products and added as its own BiSeries."""
    r = len(spec.bases)
    acc = BiSeries.zero(qorder)

    def rec(prefix: list[int]) -> None:
        nonlocal acc
        if len(prefix) == r:
            s = QSeries.monomial(qorder, spec.qexponent(prefix))
            for base, k in zip(spec.bases, prefix):
                s = s * finite_pochhammer(base, k, qorder).invert()
            acc = acc + BiSeries(qorder, {sum(c * v for c, v in zip(spec.xcoeffs, prefix)): s})
            return
        k = 0
        while spec.qexponent(prefix + [k] + [0] * (r - len(prefix) - 1)) < qorder:
            rec(prefix + [k])
            k += 1

    rec([])
    return acc


@st.composite
def _monotone_specs(draw):
    """An AGSumSpec in 1-3 variables: even positive diagonal, nonnegative entries, bases 1-3."""
    r = draw(st.integers(1, 3))
    quad2 = [[0] * r for _ in range(r)]
    for i in range(r):
        quad2[i][i] = draw(st.sampled_from((2, 4, 6)))
        for j in range(i):
            quad2[i][j] = quad2[j][i] = draw(st.integers(0, 3))
    vec = st.lists(st.integers(0, 3), min_size=r, max_size=r).map(tuple)
    bases = st.lists(st.integers(1, 3), min_size=r, max_size=r).map(tuple)
    return AGSumSpec(tuple(map(tuple, quad2)), draw(vec), draw(vec), draw(bases))


@settings(max_examples=200, deadline=None)
@given(_monotone_specs(), st.integers(1, 20))
def test_evaluate_ag_sum_matches_the_per_point_sum(spec, qorder):
    assert evaluate_ag_sum(spec, qorder) == ag_sum_per_point(spec, qorder)


def test_evaluate_ag_sum_requires_monotone_spec():
    with pytest.raises(ValueError):
        AGSumSpec(((2, -1), (-1, 2)), (0, 0), (1, 1), (1, 1))


@pytest.mark.parametrize("bases", [(0, 1), (1, -1)])
def test_ag_sum_spec_rejects_a_base_below_one(bases):
    # a base of 0 would divide by 1 - q^0 = 0
    with pytest.raises(ValueError, match="bases"):
        AGSumSpec(((2, 1), (1, 2)), (0, 0), (1, 1), bases)


@pytest.mark.parametrize("quad2, lin", [
    (catalog.AG_D123.quad2, (0, 0, 0)),  # k4's linear term would be dropped
    (((1, 2, 3, 3),) + catalog.AG_D123.quad2[1:], (0, 0, 0, 0)),  # odd diagonal: k1^2/2 floored
    (((2, 2, 3, 3), (2, 2, 3, 3), (3, 3, 6, 6), (3, 3, 5, 6)), (0, 0, 0, 0)),  # not symmetric
], ids=["short-lin", "odd-diagonal", "asymmetric"])
def test_ag_sum_spec_rejects_malformed_forms(quad2, lin):
    with pytest.raises(ValueError):
        AGSumSpec(quad2, lin, (1, 1, 2, 2), (1, 1, 3, 3))


def test_malformed_lengths_are_rejected():
    with pytest.raises(ValueError):
        AGSumSpec(catalog.AG_D123.quad2, (0, 0, 0, 0), (1, 1, 2), (1, 1, 3, 3))
    with pytest.raises(ValueError):
        HypTerm(nsum=0, quad2=((2,),), lin=(0,), const=0, pochs=(((1, 1), 0, 1),))
    with pytest.raises(ValueError):
        HypTerm(nsum=0, quad2=((1,),), lin=(0,), const=0, pochs=())


def test_catalog_sums_still_build():
    for spec in (catalog.AG_D123, catalog.AG_D1234, catalog.AG_G111, catalog.AG_G300, catalog.AG_AUX):
        assert AGSumSpec(spec.quad2, spec.lin, spec.xcoeffs, spec.bases) == spec


def test_a_non_contracting_shift_system_does_not_converge():
    # F(x) = 2 F(xq): slice 0 runs 1, 2, 4, ...
    two = LaurentPoly.constant(XQ, 2)
    with pytest.raises(AssertionError):
        solve_shift_system({0: [(two, 1, 0)]}, 6)
    with pytest.raises(ValueError):
        solve_shift_system({0: [(two, 1, 0)]}, 0)


# F0 = F1(xq), F1 = q F0(xq): the x^0 q^0 part of slice 0 is nilpotent of
# index 2, so the unique solution 0 takes about 2 * qorder passes from F = 1
NILPOTENT_SLICE_0 = {0: [(LaurentPoly.one(XQ), 1, 1)], 1: [(LaurentPoly(XQ, {(0, 1): 1}), 1, 0)]}


@pytest.mark.parametrize("qorder", (1, 2, 5, 30, 100))
def test_a_nilpotent_slice_0_solves_to_zero(qorder):
    assert solve_shift_system(NILPOTENT_SLICE_0, qorder) == {u: BiSeries.zero(qorder) for u in (0, 1)}


def _solve_by_whole_series_iteration(equations: dict, qorder: int, passes: int | None = None) -> dict:
    """The reference solver: q-adic fixed-point iteration of all slices at
    once from F = 1, within ``passes`` passes (qorder + 2 by default)."""
    if qorder < 1:
        raise ValueError("qorder must be >= 1")
    cur = {u: BiSeries.one(qorder) for u in equations}
    for _ in range(passes or qorder + 2):
        nxt = {
            u: shift_combination(((coeff, shift, cur[v]) for coeff, shift, v in terms), qorder)
            for u, terms in equations.items()
        }
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("shift system iteration failed to converge")


def _outcome(solver, *args):
    try:
        return solver(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc)


@st.composite
def shift_systems(draw):
    """Systems F_u = sum coeff * F_v(x q^shift) with shifts 1-3.  In half
    of them the only x^0 q^0 coefficients are those of anchor terms
    F_u(x q^shift) of an unknown whose other coefficients are divisible by
    x: slice 0 then settles at 1 or 0, and many solutions have nonzero
    higher slices."""
    size = draw(st.integers(1, 3))
    anchored = draw(st.booleans())
    unknowns = st.integers(0, size - 1)

    def coeff(min_xdeg):
        keys = st.tuples(st.integers(min_xdeg, 2), st.integers(0, 4))
        if anchored:
            keys = keys.filter(lambda k: k != (0, 0))
        return LaurentPoly(XQ, draw(st.dictionaries(keys, st.integers(-3, 3), min_size=1, max_size=4)))

    equations = {}
    for u in range(size):
        anchor = anchored and draw(st.booleans())
        terms = [(coeff(int(anchor)), draw(st.integers(1, 3)), draw(unknowns))
                 for _ in range(draw(st.integers(0, 3)))]
        if anchor:
            terms.append((LaurentPoly.one(XQ), draw(st.integers(1, 3)), u))
        equations[u] = terms
    return equations, draw(st.integers(1, 12))


# F0 = F1(xq), F1 = q^2 F0(xq), F2 = x F0(xq) + x F2(xq) mod q^4: slice 0 of
# the iterates is final from F_4 on, slice 2 of F2 only from F_6 on, which
# the reference's qorder + 2 = 6 passes cannot confirm
LATE_SETTLING = ({0: [(LaurentPoly.one(XQ), 1, 1)], 1: [(LaurentPoly(XQ, {(0, 2): 1}), 1, 0)],
                  2: [(LaurentPoly(XQ, {(1, 0): 1}), 1, 0), (LaurentPoly(XQ, {(1, 0): 1}), 1, 2)]}, 4)


@settings(max_examples=400, deadline=None)
@given(shift_systems())
@example(LATE_SETTLING)
@example((NILPOTENT_SLICE_0, 7))
# F0 = F1(xq), F1 = F2(x q^2), F2 = q F0(xq): index 3, so 0 takes about
# 3 * qorder passes, more than 2 * qorder + 2
@example(({0: [(LaurentPoly.one(XQ), 1, 1)], 1: [(LaurentPoly.one(XQ), 2, 2)],
           2: [(LaurentPoly(XQ, {(0, 1): 1}), 1, 0)]}, 7))
def test_slice_sweep_matches_whole_series_iteration(case):
    equations, qorder = case
    new = _outcome(solve_shift_system, equations, qorder)
    old = _outcome(_solve_by_whole_series_iteration, equations, qorder)
    if old is AssertionError and isinstance(new, dict):
        # the sweep's slice 0 settled within (qorder + 1) * len(equations) + 1
        # passes, the whole-series slice 0 with it, and from then on each
        # pass raises the q-order of every higher slice's change by at least
        # one: the whole-series iterates settle qorder + 1 passes later
        old = _outcome(_solve_by_whole_series_iteration, equations, qorder,
                       (qorder + 1) * (len(equations) + 1) + 1)
    assert new == old


def _xq(*terms):
    return LaurentPoly(XQ, {(ex, eq): 1 for ex, eq in terms})


@pytest.mark.parametrize("equations, qorder", [
    # F = (1 + x q) F(x q^3): slice 1 lags 3, and 3 does not divide 10
    ({0: [(_xq((0, 0), (1, 1)), 3, 0)]}, 10),
    # the same system with lag 3 >= qorder: one block
    ({0: [(_xq((0, 0), (1, 1)), 3, 0)]}, 3),
    # F = F(x q^5) + x F(x q^5) with lag 5 > qorder: one block
    ({0: [(_xq((0, 0), (1, 0)), 5, 0)]}, 4),
    # F0 = F0(x q^2) + x F1(x q^2), F1 = x q F0(x q^2): the self-coupled term
    # of F0 lags exactly 2m on slice m
    ({0: [(_xq((0, 0)), 2, 0), (_xq((1, 0)), 2, 1)], 1: [(_xq((1, 1)), 2, 0)]}, 17),
    # F0 lags 3m, F1 lags m + 1 and F2 lags 2m + 2: the least sets each block
    ({0: [(_xq((0, 0), (1, 1)), 3, 0), (_xq((1, 0)), 2, 2)], 1: [(_xq((0, 1), (1, 0)), 1, 1), (_xq((1, 2)), 3, 0)],
      2: [(_xq((0, 2), (1, 0)), 2, 2), (_xq((1, 0)), 1, 1)]}, 23),
    # F = q F(x q) + x F(x q^2): slice 0 lags 1, so it solves to 0 from 0
    ({0: [(_xq((0, 1)), 1, 0), (_xq((1, 0)), 2, 0)]}, 12),
])
def test_block_sweep_matches_whole_series_iteration(equations, qorder):
    assert solve_shift_system(equations, qorder) == _solve_by_whole_series_iteration(equations, qorder)


@pytest.mark.parametrize("qorder", (1, 2, 7, 20, 40))
def test_slice_sweep_matches_whole_series_iteration_on_the_bundled_systems(qorder, monkeypatch):
    fam = solve_cw_family((3, 0, 0), qorder)
    language = solve_language_series(derive_transfer_system(build_avoidance_dfa()), qorder)
    monkeypatch.setattr(cylindric, "solve_shift_system", _solve_by_whole_series_iteration)
    monkeypatch.setattr(automata, "solve_shift_system", _solve_by_whole_series_iteration)
    assert fam == solve_cw_family((3, 0, 0), qorder)
    assert language == solve_language_series(derive_transfer_system(build_avoidance_dfa()), qorder)


def test_shift_system_edge_cases():
    with pytest.raises(ValueError):
        solve_shift_system({0: [(LaurentPoly(XQ, {(0, -1): 1}), 1, 0)]}, 5)
    with pytest.raises(ValueError):
        solve_shift_system({0: [(LaurentPoly(XQ, {(-1, 0): 1}), 1, 0)]}, 5)


def test_an_x_shift_below_one_is_rejected_before_any_slice(monkeypatch):
    one, x = LaurentPoly.one(XQ), LaurentPoly(XQ, {(1, 0): 1})
    q = LaurentPoly(XQ, {(0, 1): 1})
    rows = []
    monkeypatch.setattr(holonomic, "_shifted_sum", lambda row, terms: rows.append(row))
    systems = (
        # F = F(x): every start value is a fixed point
        {0: [(one, 0, 0)]},
        # F0 = F0(x) + x F1(x), F1 = q F1(xq): slice 1 of F0 is free
        {0: [(one, 0, 0), (x, 0, 1)], 1: [(q, 1, 1)]},
        # F = (1 + x) F(x): the x-degree grows every pass
        {0: [(one + x, 0, 0)]},
        # the first term is fine, the last shifts x by q^-1
        {0: [(q, 1, 1)], 1: [(x, 2, 0), (q, -1, 1)]},
    )
    for system in systems:
        with pytest.raises(ValueError, match="x-shift below 1"):
            solve_shift_system(system, 6)
    assert rows == []


@st.composite
def poly_and_series(draw):
    qorder = draw(st.integers(1, 9))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, qorder + 3)),
                                 st.integers(-4, 4), max_size=6))
    slices = draw(st.dictionaries(st.integers(0, 4), st.lists(st.integers(-5, 5), max_size=qorder), max_size=4))
    shift = draw(st.integers(0, 4))
    return LaurentPoly(XQ, terms), BiSeries(qorder, {m: QSeries(qorder, c) for m, c in slices.items()}), shift


@settings(max_examples=300, deadline=None)
@given(poly_and_series())
def test_poly_times_biseries_is_the_biseries_product(case):
    # q-exponents at or above qorder are drawn too; they contribute nothing
    p, s, shift = case
    as_series = BiSeries.zero(s.qorder)
    for (ex, eq), c in p.terms.items():
        as_series = as_series + BiSeries.monomial(s.qorder, ex, eq, c)
    # s(x q^shift): slice m times q^(shift*m)
    shifted = BiSeries(s.qorder, {m: sl.shift(shift * m) for m, sl in s.slices.items()})
    assert poly_times_biseries(p, s, shift) == as_series * shifted


def test_apply_qdiff_identity():
    s = BiSeries(9, {0: QSeries.one(9), 1: QSeries(9, [0, 2, 1])})
    ident = QDiffOperator(((LaurentPoly.one(("x", "q")), 0),), step=3)
    assert apply_qdiff(ident, s) == s


def test_operators_annihilate_series():
    n = 20
    fd123 = gen_fun(enumerate_2colored(n - 1, COND_D123), n)
    fam = solve_cw_family((3, 0, 0), n)
    assert apply_qdiff(catalog.qdiff_operator_d123(), fd123).is_zero()
    assert apply_qdiff(catalog.qdiff_operator_g111(), fam[(1, 1, 1)]).is_zero()
    assert apply_qdiff(catalog.qdiff_operator_g300(), fam[(3, 0, 0)]).is_zero()


def test_uncouple_trivial_1x1():
    x = LaurentPoly.variable(("x", "q"), "x")
    op = uncouple_system([[(x, LaurentPoly.one(XQ))]], 0)
    shifts = {s: c for c, s in op.terms}
    assert set(shifts) == {0, 1}
    # 0 = c0 F(x) + c1 F(xq^3) = (c0 a + c1) F(xq^3) forces c0*a + c1 = 0
    assert (shifts[0] * x + shifts[1]).is_zero()


def test_uncoupled_operators_are_primitive():
    # the dependencies of this 2x2 system carry the integer content 2, which
    # the polynomial gcd divides out with the rest of the common factor
    x, q, one = LaurentPoly.variable(XQ, "x"), LaurentPoly.variable(XQ, "q"), LaurentPoly.one(XQ)
    for component in (0, 1):
        op = uncouple_system([[4 * x, 2 * one], [2 * one, 6 * x * q]], component)
        assert reduce(gcd, (gcd(*c.terms.values()) for c, _ in op.terms)) == 1


def _inv_x_pochhammer_q2(a: int, qorder: int) -> BiSeries:
    """1/(x q^a; q^2)_oo mod q^qorder: slice m is q^(am)/(q^2;q^2)_m."""
    slices, inv = {}, QSeries.one(qorder)
    for m in range(qorder):
        slices[m] = QSeries(qorder, inv.coeffs).shift(a * m)
        divide_binomial(inv.coeffs, 2 * (m + 1))
    return BiSeries(qorder, slices)


def test_uncouple_clears_denominators():
    n = 20
    zero, one = LaurentPoly.zero(XQ), LaurentPoly.one(XQ)
    xq = LaurentPoly.variable(XQ, "x") * LaurentPoly.variable(XQ, "q")
    xq_pochhammer = reduce(operator.mul, (BiSeries.one(n) - BiSeries.monomial(n, 1, j) for j in range(1, n)))
    cases = (
        # F(x) = F(xq) / (1 - xq), solved by 1/(xq;q)_oo; an operator of the
        # cleared system F(x) = F(xq) does not annihilate it
        ([[(one, one - xq)]], [inv_xq_pochhammer(n)]),
        # F(x) = (1 - xq) F(xq) with the denominator -1, as a system file can
        # carry it, solved by (xq;q)_oo
        ([[(xq - one, -one)]], [xq_pochhammer]),
        # F0(x) = F1(xq) / (1 - xq), F1(x) = F0(xq), solved by 1/(xq;q^2)_oo
        # and 1/(xq^2;q^2)_oo: the dependency needs two steps
        ([[zero, (one, one - xq)], [one, zero]],
         [_inv_x_pochhammer_q2(1, n), _inv_x_pochhammer_q2(2, n)]),
    )
    for matrix, sols in cases:
        for component, sol in enumerate(sols):
            op = uncouple_system(matrix, component, step=1)
            assert apply_qdiff(op, sol).is_zero()


def test_uncouple_2x2():
    n = 20
    fam = solve_cw_family((3, 0, 0), n)
    mat = catalog.coupled_g_system()
    op = uncouple_system(mat, 0)
    assert apply_qdiff(op, fam[(3, 0, 0)]).is_zero()
    assert not apply_qdiff(op, fam[(1, 1, 1)]).is_zero()
    op1 = uncouple_system(mat, 1)
    assert apply_qdiff(op1, fam[(1, 1, 1)]).is_zero()


def test_annihilation_depths_are_pinned(monkeypatch):
    walked = []

    def counted(rows, component, step):
        walked.append(component)
        return _row_walk(rows, component, step)

    monkeypatch.setattr(holonomic, "_row_walk", counted)
    depths = {}
    for name in ("g300", "g111", "d123", "d1234"):
        system, component = catalog.identities()[name].system
        rows = catalog.system_matrix(system)
        op = catalog.annihilator(name)
        depths[name] = annihilation_depth(op, rows, component)
        # one changed coefficient: no depth proves the changed operator
        terms = list(op.terms)
        terms[-1] = (terms[-1][0] + terms[-1][0], terms[-1][1])
        assert annihilation_depth(QDiffOperator(tuple(terms), op.step), rows, component) is None, name
    assert depths == {"g300": 2, "g111": 2, "d123": 3, "d1234": 4}
    # uncouple_system and annihilation_depth walk the same rows: per name one
    # uncoupling, then the two depth checks, at the name's component
    assert walked == [0] * 3 + [1] * 3 + [0] * 3 + [1] * 3
    # d1234 has order 3, but its combination is nonzero at depth 3: A(x q^9) is singular
    op = catalog.annihilator("d1234")
    rows = [list(row) for row in catalog.system_matrix("5x5")]
    W = next(W for s, W in _row_walk(rows, 1, 3) if s == 3)
    zero = LaurentPoly.zero(XQ)
    combined = [sum((c * W[k][j] for c, k in op.terms), zero) for j in range(5)]
    assert any(not p.is_zero() for p in combined)
    assert annihilation_depth(QDiffOperator((), 3), rows, 1) is None


def test_uncouple_5x5():
    n = 20
    system = derive_transfer_system(build_avoidance_dfa())
    sols = solve_language_series(system, n)
    mat = [list(r) for r in system.matrix]
    for comp in (0, 1):
        op = uncouple_system(mat, comp)
        assert apply_qdiff(op, sols[comp]).is_zero()


_xq_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3,
).map(lambda d: LaurentPoly(XQ, d))


@st.composite
def _dependent_rows(draw):
    # more rows than columns, so a nonzero combination exists
    ncols = draw(st.integers(1, 3))
    nrows = draw(st.integers(ncols + 1, ncols + 2))
    return [[draw(_xq_polys) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=150, deadline=None)
@given(_dependent_rows())
def test_polynomial_nullvector_annihilates_the_rows(rows):
    zero = LaurentPoly.zero(XQ)
    dep = _polynomial_nullvector(rows)
    assert dep is not None and any(not d.is_zero() for d in dep)
    for j in range(len(rows[0])):
        assert sum((d * row[j] for d, row in zip(dep, rows)), zero).is_zero()


def test_combination_identity():
    ps = [RationalFunction.from_poly(p) for p in
          recurrence_from_certificate(catalog.certificate("g111"))]
    pps = [RationalFunction.from_poly(p) for p in catalog.pprime_family()]

    def sig(r):
        return RationalFunction(r.num.twist("u", "q", -1), r.den.twist("u", "q", -1), normalize=False)

    alpha = pps[0] / ps[0]
    beta = pps[4] / sig(ps[3])
    for j in range(5):
        lhs = alpha * ps[j] if j < 4 else alpha * 0
        if j >= 1:
            lhs = lhs + beta * sig(ps[j - 1])
        assert (lhs - pps[j]).is_zero()


@pytest.fixture(scope="module")
def recurrence_pairs():
    """name -> (the recurrence of the sum's operator, the certificate's recurrence)."""
    return {name: (recurrence_from_operator(getattr(catalog, f"qdiff_operator_{name}")()),
                   recurrence_from_certificate(catalog.certificate(name)))
            for name in catalog.CERTIFICATE_NAMES}


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_each_certificate_recurrence_right_divides_its_operator_recurrence(recurrence_pairs, name):
    a, b = recurrence_pairs[name]
    assert (len(a), len(b)) == ((5, 4) if name.startswith("g") else (8, 7))
    assert recurrence_remainder(a, b) == {}


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_a_perturbed_divisor_leaves_a_remainder(recurrence_pairs, name):
    a, b = recurrence_pairs[name]
    for i, p in enumerate(b):
        doubled = b[:i] + [p + p] + b[i + 1:]
        assert recurrence_remainder(a, doubled), (name, i)


def test_recurrence_remainder_twists_by_the_backward_shift():
    # b = 1 - u B and B * u = (u/q) * B, so B * b = B - (u/q) B^2
    one, u, q = LaurentPoly.one(QU), LaurentPoly.variable(QU, "u"), LaurentPoly.variable(QU, "q")
    zero, b = LaurentPoly.zero(QU), [one, -u]
    assert recurrence_remainder([zero, one, -u * q ** -1], b) == {}
    # B - u B^2 is not a left multiple of b: B * u was not moved past B
    assert recurrence_remainder([zero, one, -u], b) == {0: u * q ** -1 - u}


def test_pprime_matches_cylindric_coefficient_recurrence():
    # the order-4 family encodes the printed order-2 operator for the
    # (1,1,1) profile series, coefficientwise in x
    n = 25
    fam = solve_cw_family((3, 0, 0), n)
    g = fam[(1, 1, 1)]
    pps = catalog.pprime_family()
    for m in range(3, 8):
        acc: dict[int, int] = {}
        for j, p in enumerate(pps):
            coeffs: dict[int, int] = {}
            for (eq, eu), c in p.terms.items():
                e = eq + (m) * eu
                coeffs[e] = coeffs.get(e, 0) + c
            f = g.slice(m - j)
            for e, c in coeffs.items():
                for i, fc in enumerate(f.coeffs):
                    if fc:
                        acc[e + i] = acc.get(e + i, 0) + c * fc
        assert not any(v and e < n - 11 for e, v in acc.items())


def test_each_system_name_gives_its_matrix():
    assert catalog.system_matrix("2x2") == catalog.coupled_g_system()
    assert catalog.system_matrix("5x5") == derive_transfer_system(build_avoidance_dfa()).matrix
    # a caller's own transfer matrix is used, and read only for the 5x5 system
    assert catalog.system_matrix("5x5", lambda: "own") == "own"
    assert catalog.system_matrix("2x2", lambda: 1 / 0) == catalog.coupled_g_system()
    with pytest.raises(KeyError):
        catalog.system_matrix("3x3")
