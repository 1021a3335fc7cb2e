"""Certificate search."""

import hashlib
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart import catalog, serialize
from qpart.celine import _eliminate, _kernel_vector, celine_solve, default_support, support_of
from qpart.holonomic import (
    HypTerm,
    recurrence_from_certificate,
    recurrence_holds_at_point,
    verify_certificate,
)

SQUARE_TERM = HypTerm(nsum=0, quad2=((2,),), lin=(0,), const=0, pochs=(((1,), 0, 1),), names=("n",))


def test_one_variable_contiguous_relation():
    cert = celine_solve(SQUARE_TERM, 1, u_range=(0, 3), q_range=(-2, 3))
    assert cert is not None
    plist = recurrence_from_certificate(cert)
    assert len(plist) == 2 and not plist[0].is_zero()
    assert recurrence_holds_at_point(SQUARE_TERM, plist, 12, Fraction(2))
    assert recurrence_holds_at_point(SQUARE_TERM, plist, 12, Fraction(5, 3))


def test_the_first_free_p0_column_gives_the_certificate():
    # ten p_0 columns are free in this box; the first, in slot order, gives
    # (u - 1)/q + u^2/q^2 N with nothing else in the p family
    cert = celine_solve(SQUARE_TERM, 1, u_range=(0, 3), q_range=(-2, 3))
    plist = recurrence_from_certificate(cert)
    assert [p.to_json()["terms"] for p in plist] == [[[[-1, 0], "-1"], [[-1, 1], "1"]], [[[-2, 2], "1"]]]


def test_order_zero_finds_nothing():
    assert celine_solve(SQUARE_TERM, 0, u_range=(0, 3), q_range=(-2, 3)) is None


def test_single_summation_variable():
    # F(n, k) = q^(k^2) / ((q;q)_k (q;q)_(n-k))
    term = HypTerm(
        nsum=1,
        quad2=((0, 0), (0, 2)),
        lin=(0, 0),
        const=0,
        pochs=(((0, 1), 0, 1), ((1, -1), 0, 1)),
        names=("n", "k"),
    )
    cert = celine_solve(
        term, 2, kbox=(1, 0, 0), u_range=(0, 2), q_range=(-2, 2), v_ranges=((0, 1), (0, 0), (0, 0))
    )
    assert cert is not None
    plist = recurrence_from_certificate(cert)
    assert recurrence_holds_at_point(term, plist, 14, Fraction(2))


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_rederives_certificates_from_printed_support(name):
    # the search over the printed support returns a verified set whose
    # recurrence annihilates the same sequence (coefficients may differ)
    base = catalog.certificate(name)
    term = catalog.certificate_term(name)
    cert = celine_solve(term, base.order, support=support_of(base))
    assert cert is not None
    assert verify_certificate(term, cert).ok
    plist = recurrence_from_certificate(cert)
    assert not plist[0].is_zero()
    assert recurrence_holds_at_point(term, plist, 8, Fraction(2))


# sha256 of serialize.dumps(certificate_to_json(...)) of the certificate that
# the search returns over each printed support, as found by the earlier
# elimination over Fraction
REDERIVED_SHA256 = {
    "g111": "a55de4126c58b0db9bf9404989de601900c30506eeba290b06d331f98d83b556",
    "g300": "2bfb8d52f7ab3ddee6796cfa71732d231ee21a719a60afafad67be35b1a09218",
    "d123": "487c7f853b2052c539127ec624197765de4e045f2af22f6cae5c3f04f7518a54",
    "d1234": "1bfda2d0a3b141e6a24f8b890559a6dcc5e250e4259acd16fcedc02fb6800c24",
}


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_rederived_certificates_are_pinned(name):
    base = catalog.certificate(name)
    cert = celine_solve(catalog.certificate_term(name), base.order, support=support_of(base))
    text = serialize.dumps(serialize.certificate_to_json(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == REDERIVED_SHA256[name]


def test_repeated_slots_find_nothing_new():
    # a repeated p_0 slot would be a free column whose kernel vector has p_0 = 0
    support = default_support(0, nsum=0, u_range=(0, 3), q_range=(-2, 3))
    assert celine_solve(SQUARE_TERM, 0, support=support + support) is None


def test_default_g111_box_finds_nothing():
    # the CLI's default box at order 3: --deg 3 --qdeg 3 --kbox 1
    term = catalog.certificate_term("g111")
    support = default_support(3, nsum=term.nsum, kbox=(1, 1, 1), u_range=(0, 3), q_range=(-3, 3))
    assert len(support) == 2800
    assert celine_solve(term, 3, support=support) is None


def test_box_with_the_printed_support_finds_a_certificate():
    # 2,925 slots whose kernel is 560-dimensional: sampling the first free
    # columns of the kernel found no vector with p_0 != 0 here
    term = catalog.certificate_term("g111")
    box = default_support(3, nsum=term.nsum, kbox=(1, 1, 1), u_range=(0, 3), q_range=(-3, 3))
    support = sorted(set(support_of(catalog.certificate("g111"))) | set(box))
    assert len(support) == 2925
    cert = celine_solve(term, 3, support=support)
    assert cert is not None
    assert verify_certificate(term, cert).ok
    # the first free p_0 column gives the certificate of the printed support
    text = serialize.dumps(serialize.certificate_to_json(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == REDERIVED_SHA256["g111"]


def _fraction_nullspace(columns):
    """The elimination over Fraction that the integer one replaced, kept
    as an oracle: same rows, same row order, same least-column pivots."""
    rows = {}
    for i, col in enumerate(columns):
        for e, c in col.items():
            rows.setdefault(e, {})[i] = Fraction(c)
    pivots = {}
    for row in sorted(rows.values(), key=len):
        row = dict(row)
        while True:
            row = {i: c for i, c in row.items() if c}
            hit = next((i for i in row if i in pivots), None)
            if hit is None:
                break
            prow = pivots[hit]
            f = row[hit] / prow[hit]
            for i2, c2 in prow.items():
                row[i2] = row.get(i2, 0) - f * c2
        row = {i: c for i, c in row.items() if c}
        if row:
            pivots[min(row)] = row
    free = [i for i in range(len(columns)) if i not in pivots]
    basis = []
    for f in free:
        sol = {f: Fraction(1)}
        for piv in sorted(pivots, reverse=True):
            row = pivots[piv]
            val = Fraction(0)
            for i, c in row.items():
                if i != piv:
                    val -= c * sol.get(i, 0)
            v = val / row[piv]
            if v:
                sol[piv] = v
        basis.append(sol)
    return basis


def _clear_rationals(sol):
    den = 1
    for v in sol.values():
        if v:
            den = lcm(den, v.denominator)
    ints = {i: int(v * den) for i, v in sol.items() if v}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {i: v // g for i, v in ints.items()}
    return ints


@st.composite
def sparse_systems(draw):
    """Columns {exponent: int} from sparse rows with entries in -3..3, some
    rows repeated or scaled copies of others, inserted in a drawn order."""
    ncols = draw(st.integers(1, 12))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=5), min_size=1, max_size=14))
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1, -1, 2, -3])), max_size=6))
    rows += [{i: k * c for i, c in rows[r].items()} for r, k in copies]
    order = draw(st.permutations(range(len(rows))))
    columns = [{} for _ in range(ncols)]
    for r in order:
        for i, c in rows[r].items():
            if c:
                columns[i][(r,)] = c
    return columns


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_integer_nullspace_matches_fraction_oracle(columns, rnd):
    pivots = _eliminate(columns)
    free = [i for i in range(len(columns)) if i not in pivots]
    basis = [_kernel_vector(pivots, f) for f in free]
    oracle = [_clear_rationals(sol) for sol in _fraction_nullspace(columns)]
    assert [list(v.items()) for v in basis] == [list(v.items()) for v in oracle]
    for vec in basis:
        total = {}
        for i, x in vec.items():
            for e, c in columns[i].items():
                total[e] = total.get(e, 0) + x * c
        assert not any(total.values())
    # the basis does not depend on the order the rows are inserted in
    shuffled = []
    for col in columns:
        items = list(col.items())
        rnd.shuffle(items)
        shuffled.append(dict(items))
    reordered = _eliminate(shuffled)
    assert sorted(reordered) == sorted(pivots)
    assert [_kernel_vector(reordered, f) for f in free] == basis


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.data())
def test_a_trailing_block_has_a_free_column_iff_the_kernel_reaches_it(columns, data):
    # the decision in celine_solve, with the p_0 columns as the block
    block = range(data.draw(st.integers(0, len(columns) - 1)), len(columns))
    pivots = _eliminate(columns)
    oracle = _fraction_nullspace(columns)
    assert any(i not in pivots for i in block) == any(sol.get(i) for sol in oracle for i in block)
