"""Certificate search."""

import hashlib
import weakref
from dataclasses import fields
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart import catalog, celine, serialize
from qpart.celine import (
    FAMILIES,
    _banded_rows,
    _eliminate,
    _is_p0,
    _kernel_vector,
    _packed_ratios,
    _shapes,
    _slot_column,
    celine_solve,
    default_support,
    support_of,
)
from qpart.holonomic import (
    CertificateSet,
    HypTerm,
    cleared_ratios,
    recurrence_from_certificate,
    recurrence_holds_at_point,
    verify_certificate,
)
from oracles import eliminate_reducing_every_row, rows_by_slot, spread_columns

SQUARE_TERM = HypTerm(nsum=0, quad2=((2,),), lin=(0,), const=0, pochs=(((1,), 0, 1),))


def square_box(order: int):
    """The u-degree 0..3, q-degree -2..3 box searched for SQUARE_TERM."""
    return default_support(order, nsum=0, kbox=(0, 0, 0), u_range=(0, 3), q_range=(-2, 3))


def test_one_variable_contiguous_relation():
    cert = celine_solve(SQUARE_TERM, 1, support=square_box(1))
    assert cert is not None
    plist = recurrence_from_certificate(cert)
    assert len(plist) == 2 and not plist[0].is_zero()
    assert recurrence_holds_at_point(SQUARE_TERM, plist, 12, Fraction(2))
    assert recurrence_holds_at_point(SQUARE_TERM, plist, 12, Fraction(5, 3))


def test_the_first_free_p0_column_gives_the_certificate():
    # ten p_0 columns are free in this box; the first, in slot order, gives
    # (u - 1)/q + u^2/q^2 N with nothing else in the p family
    cert = celine_solve(SQUARE_TERM, 1, support=square_box(1))
    plist = recurrence_from_certificate(cert)
    assert [p.to_json()["terms"] for p in plist] == [[[[-1, 0], "-1"], [[-1, 1], "1"]], [[[-2, 2], "1"]]]


def test_order_zero_finds_nothing():
    assert celine_solve(SQUARE_TERM, 0, support=square_box(0)) is None


def test_single_summation_variable():
    # F(n, k) = q^(k^2) / ((q;q)_k (q;q)_(n-k))
    term = HypTerm(
        nsum=1,
        quad2=((0, 0), (0, 2)),
        lin=(0, 0),
        const=0,
        pochs=(((0, 1), 0, 1), ((1, -1), 0, 1)),
    )
    support = default_support(2, nsum=1, kbox=(1, 0, 0), u_range=(0, 2), q_range=(-2, 2),
                              v_ranges=((0, 1), (0, 0), (0, 0)))
    cert = celine_solve(term, 2, support=support)
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


def test_a_certificate_order_is_read_off_its_p_family():
    # the order is the top power of N in p, not a second stored fact
    assert [f.name for f in fields(CertificateSet)] == ["families"]
    bundled = [catalog.certificate(name) for name in catalog.CERTIFICATE_NAMES]
    assert [cert.order for cert in bundled] == [3, 3, 6, 6]
    found = celine_solve(catalog.certificate_term("g111"), 3, support=support_of(bundled[0]))
    for cert in (*bundled, found):
        assert cert.order == len(cert.families["p"]) - 1 == CertificateSet(cert.families).order


def test_repeated_slots_find_nothing_new():
    # a repeated p_0 slot would be a free column whose kernel vector has p_0 = 0
    support = default_support(0, nsum=0, kbox=(0, 0, 0), u_range=(0, 3), q_range=(-2, 3))
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


# the CLI's default box at order 3, which is also the benchmark's g111 box
DEFAULT_BOX = {"nsum": 3, "kbox": (1, 1, 1), "u_range": (0, 3), "q_range": (-3, 3)}


def _default_box():
    return default_support(3, **DEFAULT_BOX)


def test_a_vacuous_box_is_rejected():
    for bounds in ({"u_range": (0, -1)}, {"q_range": (1, 0)}, {"kbox": (1, -1, 1)},
                   {"v_ranges": ((0, 0), (1, 0), (0, 0))}):
        with pytest.raises(ValueError):
            default_support(3, **{**DEFAULT_BOX, **bounds})
    # no summation variable: a box of p-slots only is not vacuous
    assert len(default_support(1, nsum=0, kbox=(0, 0, 0), u_range=(0, 0), q_range=(0, 0))) == 2


def test_a_support_without_p0_slots_is_decided_before_any_ratio_is_cleared(monkeypatch):
    def refuse(*args):
        raise AssertionError("cleared a ratio")

    monkeypatch.setattr(celine, "cleared_ratios", refuse)
    term = catalog.certificate_term("g111")
    support = [slot for slot in _default_box() if slot[:2] != ("p", 0)]
    assert celine_solve(term, 3, support=support) is None
    assert celine_solve(term, 3, support=[]) is None


def _tuple_column(slot, cleared):
    """The column builder that the packed one replaced, kept as a
    reference: exponent tuples as keys, tuples built per entry."""
    fam, j, sigma, exps = slot
    x0, x1, x2, x3, x4 = exps
    base = (j, *sigma)
    col = {(a + x0, b + x1, c + x2, d + x3, e + x4): v for (a, b, c, d, e), v in cleared[base].terms.items()}
    if fam != "p":
        k = FAMILIES.index(fam)
        bumped = tuple(x + (i == k) for i, x in enumerate(base))
        x0 -= exps[1 + k]
        for (a, b, c, d, e), v in cleared[bumped].terms.items():
            key = (a + x0, b + x1, c + x2, d + x3, e + x4)
            col[key] = col.get(key, 0) - v
        col = {key: v for key, v in col.items() if v}
    return col


def _slot_shifts(slot):
    fam, j, sigma, _ = slot
    base = (j, *sigma)
    if fam == "p":
        return [base]
    k = FAMILIES.index(fam)
    return [base, tuple(x + (i == k) for i, x in enumerate(base))]


def _unpack(key, lows, places):
    rest = key - sum(lo * p for lo, p in zip(lows, places))
    out = []
    for k, place in enumerate(places):
        digit = rest // place
        if k + 1 < len(places):
            digit %= places[k + 1] // place
        out.append(lows[k] + digit)
    return tuple(out)


def _u1_box():
    return default_support(3, **{**DEFAULT_BOX, "u_range": (1, 3)})


def _q1_box():
    return default_support(1, **{**DEFAULT_BOX, "q_range": (1, 3)})


# boxes that hold no certificate
BOXES = (_default_box, _u1_box, _q1_box)

# the default boxes, whose shapes have v = 0; two boxes with every slot's
# u- or q-offset positive (a band read off a shape's column less the least
# offset would split some rows of the d1234 one in two); and the printed
# supports, whose C-slots carry v-exponents such as (0, 2, 1) and (1, 2, 2)
systems = pytest.mark.parametrize("name,support", [
    ("g111", _default_box),
    ("g300", _default_box),
    ("g111", _u1_box),
    ("d1234", _q1_box),
    *((name, lambda name=name: support_of(catalog.certificate(name))) for name in catalog.CERTIFICATE_NAMES),
], ids=["g111-box", "g300-box", "g111-u1-box", "d1234-q1-box", *(f"{name}-printed" for name in catalog.CERTIFICATE_NAMES)])


@systems
def test_packed_columns_unpack_to_the_tuple_keyed_columns(name, support):
    term = catalog.certificate_term(name)
    slots = support()
    cleared = cleared_ratios(term, sorted({sh for slot in slots for sh in _slot_shifts(slot)}))
    reference = [_tuple_column(slot, cleared) for slot in slots]
    lows = tuple(min(key[k] for col in reference for key in col) for k in range(5))
    packed, places = _packed_ratios(term, _shapes(slots))
    # the packing is linear up to one origin, read off the first entry
    origin = sum(map(mul, next(iter(reference[0])), places)) - next(iter(_slot_column(slots[0], packed, places)))
    for slot, ref in zip(slots, reference):
        col = _slot_column(slot, packed, places)
        assert list(col.values()) == list(ref.values())
        assert [_unpack(key + origin, lows, places) for key in col] == list(ref)
    # a key of a shape's column, which _banded_rows splits, divided by
    # places[2] is the packed v-band of its entry, whatever the offsets
    for shape in _shapes(slots):
        ref = _tuple_column(shape, cleared)
        col = _slot_column(shape, packed, places)
        assert [key // places[2] for key in col] == [sum(map(mul, e[2:], places[2:])) // places[2] for e in ref]


def _pairs(flat):
    return sorted(zip(flat[::2], flat[1::2]))


@systems
def test_shape_built_rows_are_the_per_slot_rows(name, support):
    # the rows, as {row key: {column: entry}}, of one column per shape
    # split by v-band and offset for each member, and of one column per slot
    term = catalog.certificate_term(name)
    slots = support()
    shapes = _shapes(slots)
    packed, places = _packed_ratios(term, shapes)
    bands = list(_banded_rows(shapes, packed, places))
    rows = {e: _pairs(flat) for band in bands for e, flat in band.items()}
    assert sum(map(len, bands)) == len(rows)
    assert rows == {e: _pairs(flat) for e, flat in rows_by_slot(slots, packed, places).items()}
    # each row key lies in one band: less the least (q, u) offset, a row
    # key's (q, u) part is in [0, places[2]); no band is lighter than the one before
    low = sum(min(exps[k] for *_, exps in slots) * places[k] for k in (0, 1))
    assert [len({(e - low) // places[2] for e in band}) for band in bands] == [1] * len(bands)
    weights = [sum(map(len, band.values())) for band in bands]
    assert weights == sorted(weights)


# shapes of the g111 default box (4 p, 96 C) and of the printed supports
# of 125, 190, 399 and 637 slots
SHAPES = {"g111-box": 100, "g111": 42, "g300": 42, "d123": 67, "d1234": 71}


@pytest.mark.parametrize("name", SHAPES)
def test_one_column_is_built_per_shape(name, monkeypatch):
    # no column of a single slot is built: each call is a shape's, at
    # (q, u) exponents 0, and each shape is built once
    built = []
    build = celine._slot_column

    def watched(slot, packed, places):
        built.append(slot)
        return build(slot, packed, places)

    monkeypatch.setattr(celine, "_slot_column", watched)
    if name == "g111-box":
        term, order, support = catalog.certificate_term("g111"), 3, _default_box()
    else:
        cert = catalog.certificate(name)
        term, order, support = catalog.certificate_term(name), cert.order, support_of(cert)
    celine_solve(term, order, support=support)
    assert len(built) == len(set(built)) == SHAPES[name]
    assert all(exps[:2] == (0, 0) for *_, exps in built)


@systems
def test_shape_built_rows_eliminate_as_the_per_slot_rows_do(name, support):
    # the same decision and, where a p_0 column is free, the same kernel vector
    term = catalog.certificate_term(name)
    slots = sorted(dict.fromkeys(support()), key=_is_p0)
    first_p0 = next(i for i, slot in enumerate(slots) if _is_p0(slot))
    shapes = _shapes(slots)
    packed, places = _packed_ratios(term, shapes)
    free = []
    for bands in (map(dict.values, _banded_rows(shapes, packed, places)), [rows_by_slot(slots, packed, places).values()]):
        pivots = _eliminate(bands, len(slots), first_p0)
        p0_free = [i for i in range(first_p0, len(slots)) if i not in pivots]
        free.append((p0_free, p0_free and _kernel_vector(pivots, p0_free[0])))
    assert free[0] == free[1]
    # the boxes hold no certificate, the printed supports hold one
    assert bool(free[0][0]) == (support not in BOXES)


def _bands_built(monkeypatch, term, order, support):
    """The (rows, entries) of each band that celine_solve asked for, and of
    every band of its system."""
    built, calls = [], []
    banded = celine._banded_rows

    def watched(*args):
        calls.append(args)
        for band in banded(*args):
            built.append((len(band), sum(map(len, band.values())) // 2))
            yield band

    monkeypatch.setattr(celine, "_banded_rows", watched)
    found = celine_solve(term, order, support=support)
    (args,) = calls
    return found, built, [(len(band), sum(map(len, band.values())) // 2) for band in banded(*args)]


def test_the_default_box_is_decided_before_most_rows_exist(monkeypatch):
    # its 28th p_0 pivot comes in the 141st of 237 bands, lightest first
    found, built, every = _bands_built(monkeypatch, catalog.certificate_term("g111"), 3, _default_box())
    assert found is None and built == every[:len(built)]
    rows, entries = map(sum, zip(*built))
    assert (len(built), rows, entries) == (141, 8_827, 49_448)
    assert (len(every), *map(sum, zip(*every))) == (237, 23_665, 452_368)
    # under half of the rows (37%) and a ninth of the entries are ever built
    assert 2 * rows <= 23_665 and 9 * entries <= 452_368


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_a_printed_support_builds_every_band(name, monkeypatch):
    cert = catalog.certificate(name)
    found, built, every = _bands_built(monkeypatch, catalog.certificate_term(name), cert.order, support_of(cert))
    assert found is not None and built == every


def _fraction_pivots(columns):
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
    return pivots


def _fraction_nullspace(columns):
    """The kernel basis of the Fraction elimination, one vector per free column."""
    pivots = _fraction_pivots(columns)
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
    rows repeated or scaled copies of others, inserted in a drawn order.
    Half the systems have the kernel spanned by a drawn k with k_f = 1, or
    lose it to one row: the drawn rows, all or all but the first, are made
    orthogonal to k by moving r . k out of entry f, and the rows
    e_i - k_i e_f, which span k^perp, join them."""
    ncols = draw(st.integers(1, 12))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=5), min_size=1, max_size=14))
    if draw(st.booleans()):
        vec = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        f = draw(st.integers(0, ncols - 1))
        vec[f] = 1
        for row in rows[draw(st.integers(0, 1)):]:
            row[f] = row.get(f, 0) - sum(c * vec[i] for i, c in row.items())
        rows += [{i: 1, f: -vec[i]} for i in range(ncols) if i != f]
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1, -1, 2, -3])), max_size=6))
    rows += [{i: k * c for i, c in rows[r].items()} for r, k in copies]
    order = draw(st.permutations(range(len(rows))))
    columns = [{} for _ in range(ncols)]
    for r in order:
        for i, c in rows[r].items():
            if c:
                columns[i][(r,)] = c
    return columns


def _rows(columns):
    """The compact rows of dict columns in one band, as _eliminate takes them."""
    return [list(spread_columns(columns).values())]


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_integer_nullspace_matches_fraction_oracle(columns, rnd):
    pivots = _eliminate(_rows(columns), len(columns), len(columns))
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
    reordered = _eliminate(_rows(shuffled), len(shuffled), len(shuffled))
    assert sorted(reordered) == sorted(pivots)
    assert [_kernel_vector(reordered, f) for f in free] == basis


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.data())
def test_a_trailing_block_has_a_free_column_iff_the_kernel_reaches_it(columns, data):
    # the decision in celine_solve, with the p_0 columns as the block
    block = range(data.draw(st.integers(0, len(columns) - 1)), len(columns))
    pivots = _eliminate(_rows(columns), len(columns), len(columns))
    oracle = _fraction_nullspace(columns)
    assert any(i not in pivots for i in block) == any(sol.get(i) for sol in oracle for i in block)
    # stopping once every column of the block is a pivot decides the same;
    # if a block column is free the elimination runs to the end
    early = _eliminate(_rows(columns), len(columns), block.start)
    assert set(early) <= set(pivots)
    assert any(i not in early for i in block) == any(i not in pivots for i in block)
    if any(i not in pivots for i in block):
        assert early == pivots


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.data())
def test_elimination_over_bands_matches_elimination_over_one_list(columns, data):
    # the rows cut into drawn bands, taken in a drawn order: the same pivot
    # columns, kernel vectors and decision for a trailing block
    ncols, (rows,) = len(columns), _rows(columns)
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    order = data.draw(st.permutations(range(4)))
    bands = [[row for row, label in zip(rows, labels) if label == b] for b in order]
    whole, banded = _eliminate([rows], ncols, ncols), _eliminate(bands, ncols, ncols)
    assert sorted(banded) == sorted(whole)
    free = [i for i in range(ncols) if i not in whole]
    assert [_kernel_vector(banded, f) for f in free] == [_kernel_vector(whole, f) for f in free]
    block = range(data.draw(st.integers(0, ncols - 1)), ncols)
    early = _eliminate(bands, ncols, block.start)
    assert any(i not in early for i in block) == any(i not in whole for i in block)


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_compact_rows_keep_the_order_of_the_dict_rows(columns):
    # the compact rows are reduced in the oracle's order of the dict rows,
    # shortest first and rows of equal length in the order first seen: the
    # pivot rows are made in the same order, and each is the oracle's made
    # primitive with a positive pivot, though a pivot row depends on that order
    pivots = _eliminate(_rows(columns), len(columns), len(columns))
    oracle = _fraction_pivots(columns)
    assert list(pivots) == list(oracle)
    for piv, row in pivots.items():
        ints = _clear_rationals(oracle[piv])
        sign = 1 if ints[piv] > 0 else -1
        assert row == {i: sign * c for i, c in ints.items()}


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.data())
def test_the_kernel_test_keeps_the_pivots_of_reducing_every_row(columns, data):
    # drawn bands and a drawn decide_from: the same pivot columns, in the
    # same order, with the same rows, as when every row is reduced
    ncols, (rows,) = len(columns), _rows(columns)
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    bands = [[row for row, label in zip(rows, labels) if label == b] for b in data.draw(st.permutations(range(3)))]
    decide_from = data.draw(st.integers(0, ncols))
    pivots = _eliminate(bands, ncols, decide_from)
    assert list(pivots.items()) == list(eliminate_reducing_every_row(bands, ncols, decide_from).items())


# x_0 + x_2 and x_1 - x_2 leave column 2 free with kernel vector
# k = (-1, 1, 1); x_0 + x_1 and x_0 + 2 x_1 - x_2 lie in their span
# (r . k = 0), while x_0 + 2 x_1, which has no entry in column 2, does not
SPAN = [[[0, 1, 2, 1]], [[1, 1, 2, -1]], [[0, 1, 1, 1], [0, 1, 1, 2, 2, -1]]]
OUTSIDE = [[0, 1, 1, 2]]


def test_a_row_outside_the_span_after_the_kernel_test_starts_makes_a_pivot():
    # with column 2 as the p_0 block: found while only SPAN is seen, "none" once OUTSIDE comes
    assert _eliminate(SPAN, 3, 2) == {0: {0: 1, 2: 1}, 1: {1: 1, 2: -1}}
    pivots = _eliminate([*SPAN, OUTSIDE, [[1, 1]]], 3, 2)
    assert list(pivots.items()) == [(0, {0: 1, 2: 1}), (1, {1: 1, 2: -1}), (2, {2: 1})]
    assert pivots == eliminate_reducing_every_row([*SPAN, OUTSIDE, [[1, 1]]], 3, 2)


def test_no_row_is_tested_against_a_stale_kernel_vector():
    # with no block to decide, the pivots fill every column; the rows after
    # that would all reduce to zero, and none may fail or add a pivot
    bands = [*SPAN, OUTSIDE, [[2, 5], [0, 3, 1, -1, 2, 4]], SPAN[0]]
    pivots = _eliminate(bands, 3, 3)
    assert list(pivots.items()) == [(0, {0: 1, 2: 1}), (1, {1: 1, 2: -1}), (2, {2: 1})]
    assert pivots == eliminate_reducing_every_row(bands, 3, 3)


@pytest.mark.parametrize("name", catalog.CERTIFICATE_NAMES)
def test_a_printed_support_starts_the_kernel_test(name, monkeypatch):
    # _eliminate asks for the kernel vector of its one free column once, at
    # ncols - 1 pivots, before celine_solve asks for the certificate's
    calls = []
    kernel_vector = celine._kernel_vector

    def watched(pivots, free):
        calls.append((len(pivots), free))
        return kernel_vector(pivots, free)

    monkeypatch.setattr(celine, "_kernel_vector", watched)
    cert = catalog.certificate(name)
    support = support_of(cert)
    assert celine_solve(catalog.certificate_term(name), cert.order, support=support) is not None
    ncols = len(support)
    assert len(calls) == 2 and calls[0] == (ncols - 1, calls[1][1])


def test_rows_of_equal_length_are_reached_in_the_order_first_seen():
    # rows a = x_0 + x_1 and b = x_0 + 2 x_1: the first reached is the pivot row of column 0
    assert _eliminate([[[0, 1, 1, 1], [0, 1, 1, 2]]], 2, 2) == {0: {0: 1, 1: 1}, 1: {1: 1}}
    assert _eliminate([[[0, 1, 1, 2], [0, 1, 1, 1]]], 2, 2) == {0: {0: 1, 1: 2}, 1: {1: 1}}
    # a shorter row is reached first, wherever it stands in its band
    pivots = _eliminate([[[0, 1, 1, 1], [1, 3]]], 2, 2)
    assert list(pivots.items()) == [(1, {1: 1}), (0, {0: 1})]
    # but only within its band: the bands are taken in the order they come
    pivots = _eliminate([[[0, 1, 1, 2]], [[0, 1, 1, 1], [1, 3]]], 2, 2)
    assert list(pivots.items()) == [(0, {0: 1, 1: 2}), (1, {1: 1})]


class _Column(dict):
    """A column that a weak reference can watch."""


def test_each_column_is_freed_once_it_is_spread_into_rows(monkeypatch):
    # one column per shape, dropped once it is split by v-band: the builder
    # may still hold column k - 1 while column k is built, but none before
    # it.  The split parts are held until their band is spread into rows
    # (16,156 entries in all for the g111 default box, whose rows hold 452,368)
    refs = []
    build = celine._slot_column

    def watched(slot, packed, places):
        assert all(ref() is None for ref in refs[:-1])
        col = _Column(build(slot, packed, places))
        refs.append(weakref.ref(col))
        return col

    monkeypatch.setattr(celine, "_slot_column", watched)
    base = catalog.certificate("g111")
    assert celine_solve(catalog.certificate_term("g111"), base.order, support=support_of(base)) is not None
    assert len(refs) == 42
    assert all(ref() is None for ref in refs)
