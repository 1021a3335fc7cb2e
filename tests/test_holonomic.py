"""Certificates, recurrences, quadruple sums, operators, uncoupling."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart import catalog, serialize
from qpart.automata import build_avoidance_dfa, derive_transfer_system, solve_language_series
from qpart.colored import COND_D123, enumerate_2colored, gen_fun
from qpart.cylindric import solve_cw_family
from qpart.holonomic import (
    AGSumSpec,
    CertificateSet,
    HypTerm,
    QDiffOperator,
    ShiftOp,
    TERM_VARS,
    apply_qdiff,
    cleared_ratios,
    evaluate_ag_sum,
    poch_value,
    poly_times_biseries,
    recurrence_from_certificate,
    recurrence_from_operator,
    recurrence_holds_at_point,
    recurrence_holds_series,
    sequence_series,
    sequence_value,
    solve_shift_system,
    uncouple_system,
    verify_certificate,
)
from qpart.laurent import LaurentPoly, RationalFunction
from qpart.series import BiSeries, QSeries

QU = ("q", "u")
XQ = ("x", "q")


def _shift_ratio(term: HypTerm, shift) -> RationalFunction:
    """F(v - shift)/F(v): the cleared numerator of the shift over that of no shift."""
    c = cleared_ratios(term, [(0, 0, 0, 0), shift])
    return RationalFunction(c[shift], c[(0, 0, 0, 0)])


def test_term_ratio_zero_shift():
    term = catalog.TERM_G111
    r = _shift_ratio(term, (0, 0, 0, 0))
    assert r == RationalFunction.from_poly(LaurentPoly.one(TERM_VARS))


def test_term_ratio_single_pochhammer():
    # F(n) = 1/(q;q)_n gives F(n-1)/F(n) = 1 - q^n
    t = HypTerm(nsum=0, quad2=((0,),), lin=(0,), const=0, pochs=(((1,), 0, 1),), names=("n",))
    r = _shift_ratio(t, (1, 0, 0, 0))
    u = LaurentPoly.variable(TERM_VARS, "u")
    assert r == RationalFunction.from_poly(1 - u)


def test_term_ratio_numeric_oracle():
    # F(v - s)/F(v) from the factored formula equals the direct quotient
    from qpart.holonomic import poch_value

    term = catalog.TERM_G300
    q0 = Fraction(3, 2)

    def value(v):
        if not term.supported(v):
            return None
        val = q0 ** term.qexponent(v)
        for L, (_, _, base) in zip(term.poch_lengths(v), term.pochs):
            val /= poch_value(q0, base, L)
        return val

    for v in ((7, 1, 1, 1), (9, 2, 0, 2)):
        for s in ((1, 0, 0, 0), (0, 1, 0, 0), (2, 1, 1, 0), (3, 0, 1, 1)):
            vv = tuple(a - b for a, b in zip(v, s))
            f1, f2 = value(v), value(vv)
            if not f1 or f2 is None:
                continue
            r = _shift_ratio(term, s)
            subs = [q0, q0 ** v[0], q0 ** v[1], q0 ** v[2], q0 ** v[3]]

            def ev(p):
                return sum(
                    c * subs[0] ** e[0] * subs[1] ** e[1] * subs[2] ** e[2]
                    * subs[3] ** e[3] * subs[4] ** e[4]
                    for e, c in p.terms.items()
                )

            assert f2 / f1 == ev(r.num) / ev(r.den)


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
    assert not res.ok and res.residual_terms > 0


def test_telescoped_identity_at_integer_points():
    # evaluating the telescoped operator against literal term values at
    # fixed integer points gives 0 whenever all shifted terms are supported
    from qpart.holonomic import poch_value

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
        1,
        {
            "p": [ShiftOp.coefficient(one), ShiftOp.coefficient(-one)],
            "q": [ShiftOp(), ShiftOp()],
            "r": [ShiftOp(), ShiftOp()],
            "s": [ShiftOp(), ShiftOp()],
        },
    )
    const = HypTerm(nsum=0, quad2=((0,),), lin=(0,), const=0, pochs=(), names=("n",))
    assert verify_certificate(const, cert).ok
    plist = recurrence_from_certificate(cert)
    # a support-free term is constant on all of Z, so start past the boundary
    assert recurrence_holds_at_point(const, plist, 8, Fraction(2), nmin=1)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_recurrences_annihilate_at_points(name):
    term = catalog.certificate_term(name)
    plist = recurrence_from_certificate(catalog.certificate(name))
    for q0 in (Fraction(2), Fraction(7, 5)):
        assert recurrence_holds_at_point(term, plist, 14, q0)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_recurrences_annihilate_as_series(name):
    term = catalog.certificate_term(name)
    plist = recurrence_from_certificate(catalog.certificate(name))
    assert recurrence_holds_series(term, plist, 8, 110)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_sequence_value_matches_direct_fraction_sum(name):
    # the integer evaluation equals the plain Fraction sum over the box
    # [0..n]^3, term by term through poch_value
    term = catalog.certificate_term(name)
    for q0 in (Fraction(2), Fraction(3), Fraction(7, 5), Fraction(2, 3), Fraction(-3, 2)):
        pochs: dict[tuple[int, int], Fraction] = {}
        for n in range(13):
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
            assert sequence_value(term, n, q0) == direct, (n, q0)
    with pytest.raises(ZeroDivisionError):
        sequence_value(term, 5, Fraction(1))


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
    with pytest.raises(ValueError):
        recurrence_from_operator(QDiffOperator(((x**-1 * q, 0),), step=1))


def test_evaluate_ag_sum_d123_low_order():
    s = evaluate_ag_sum(catalog.AG_D123, 4)
    assert s.eval_x1().coeffs == [1, 2, 2, 4]


def test_evaluate_ag_sum_requires_monotone_spec():
    with pytest.raises(ValueError):
        AGSumSpec(((2, -1), (-1, 2)), (0, 0), (1, 1), (1, 1))


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
        HypTerm(nsum=0, quad2=((2,),), lin=(0,), const=0, pochs=(((1, 1), 0, 1),), names=("n",))
    with pytest.raises(ValueError):
        HypTerm(nsum=0, quad2=((1,),), lin=(0,), const=0, pochs=(), names=("n",))


def test_catalog_sums_still_build():
    for spec in (catalog.AG_D123, catalog.AG_D1234, catalog.AG_G111, catalog.AG_G300, catalog.AG_AUX):
        assert AGSumSpec(spec.quad2, spec.lin, spec.xcoeffs, spec.bases) == spec


def test_a_non_contracting_shift_system_does_not_converge():
    # F = (1 + x) F(x): with shift 0 the x-degree grows every pass
    growing = LaurentPoly(XQ, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(AssertionError):
        solve_shift_system({0: [(growing, 0, 0)]}, 6)
    with pytest.raises(ValueError):
        solve_shift_system({0: [(growing, 1, 0)]}, 0)


@st.composite
def poly_and_series(draw):
    qorder = draw(st.integers(1, 9))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, qorder + 3)),
                                 st.integers(-4, 4), max_size=6))
    slices = draw(st.dictionaries(st.integers(0, 4), st.lists(st.integers(-5, 5), max_size=qorder), max_size=4))
    return LaurentPoly(XQ, terms), BiSeries(qorder, {m: QSeries(qorder, c) for m, c in slices.items()})


@settings(max_examples=300, deadline=None)
@given(poly_and_series())
def test_poly_times_biseries_is_the_biseries_product(case):
    # q-exponents at or above qorder are drawn too; they contribute nothing
    p, s = case
    as_series = BiSeries.zero(s.qorder)
    for (ex, eq), c in p.terms.items():
        as_series = as_series + BiSeries.monomial(s.qorder, ex, eq, c)
    assert poly_times_biseries(p, s) == as_series * s


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
    op = uncouple_system([[RationalFunction.from_poly(x)]], 0)
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
        assert reduce(gcd, (c.int_content() for c, _ in op.terms)) == 1


def test_uncouple_clears_denominators():
    zero, one = LaurentPoly.zero(("x", "q")), LaurentPoly.one(("x", "q"))
    xq = LaurentPoly.variable(("x", "q"), "x") * LaurentPoly.variable(("x", "q"), "q")
    cases = (
        # F(x) = F(xq) / (1 - xq); an operator of the cleared system
        # F(x) = F(xq) does not annihilate F = 1/(xq;q)_oo
        ([[RationalFunction(one, one - xq)]], {0: [(xq, 0, 0), (one, 1, 0)]}),
        # F(x) = (1 - xq) F(xq) with the denominator -1, as a system file can carry it
        ([[RationalFunction(xq - one, -one, normalize=False)]], {0: [(one - xq, 1, 0)]}),
        # F0(x) = F1(xq) / (1 - xq), F1(x) = F0(xq): the dependency needs two steps
        ([[zero, RationalFunction(one, one - xq)], [one, zero]],
         {0: [(xq, 0, 0), (one, 1, 1)], 1: [(one, 1, 0)]}),
    )
    for matrix, equations in cases:
        sols = solve_shift_system(equations, 20)
        for component in sols:
            op = uncouple_system(matrix, component, step=1)
            assert apply_qdiff(op, sols[component]).is_zero()


def test_uncouple_2x2():
    n = 20
    fam = solve_cw_family((3, 0, 0), n)
    mat = catalog.coupled_g_system()
    op = uncouple_system(mat, 0)
    assert apply_qdiff(op, fam[(3, 0, 0)]).is_zero()
    assert not apply_qdiff(op, fam[(1, 1, 1)]).is_zero()
    op1 = uncouple_system(mat, 1)
    assert apply_qdiff(op1, fam[(1, 1, 1)]).is_zero()


def test_uncouple_5x5():
    n = 20
    system = derive_transfer_system(build_avoidance_dfa())
    sols = solve_language_series(system, n)
    mat = [list(r) for r in system.matrix]
    for comp in (0, 1):
        op = uncouple_system(mat, comp)
        assert apply_qdiff(op, sols[comp]).is_zero()


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
