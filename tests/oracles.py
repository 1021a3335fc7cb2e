"""Oracles shared by the tests.

The library applies Pochhammer factors to coefficient lists in place;
``finite_pochhammer`` and ``f_to_g`` build the same products with one
``QSeries`` or ``BiSeries`` product per factor. The library multiplies
series by one packed integer product; ``schoolbook_product`` multiplies
coefficient by coefficient, and ``schoolbook_laurent_product`` does the
same for Laurent polynomials. The library inverts (q;q)_m once for all
slices of 1/(xq;q)_inf; ``inv_xq_pochhammer_by_slices`` inverts each
slice's (q;q)_m on its own. The library lists 2-colored
partitions in walk order grouped by (size, length); ``listing_order_key``
is the sort key that states the listing order directly. The library tests
a window for D1-D4 only where it can fail; ``meets_conditions_everywhere``
tests the window ending at every index. The library checks each listed
partition against the pattern families at its last part only, carrying
the rest from its prefix; ``pattern_equivalence_by_full_checks`` checks
every partition whole. The library
builds the Celine system one column per slot shape; ``rows_by_slot``
builds one column per slot and spreads each into the rows. The library
divides on one remainder dict and finds its leading terms by a heap;
``schoolbook_divexact`` subtracts a whole polynomial per quotient term and
rescans the remainder. The library applies each factor 1 - q^e of a
cleared ratio to one term dict in place; ``cleared_ratios_by_products``
multiplies the factors with ``LaurentPoly.__mul__``. The library writes
each exponent sum of ``add_products`` out for two and five variables;
``generic_add_products`` adds every exponent vector with one generic ``map``.
The library's Celine elimination settles each row that comes once a
single column is free by one dot product with that column's kernel
vector; ``eliminate_reducing_every_row`` reduces every row.
"""

from collections import Counter, defaultdict
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd
from operator import add

from qpart import catalog, verification
from qpart.celine import _slot_column
from qpart.colored import _condition_flags, _violation_ending_at, part_key, size, to_pairs
from qpart.holonomic import TERM_VARS, _dot, _form_value
from qpart.laurent import LaurentPoly
from qpart.series import BiSeries, QSeries


def listing_order_key(lam):
    """The order of enumerate_2colored: size, length, then the parts largest first."""
    return (size(lam), len(lam), tuple((-m, -c) for m, c in map(part_key, lam)))


def meets_conditions_everywhere(parts, which, start=0) -> bool:
    """The oracle for check_condition and the pruned walk: no index >= start,
    none skipped, ends a window that violates a selected condition."""
    flags = _condition_flags(which)
    return not any(_violation_ending_at(parts, i, *flags) for i in range(start, len(parts)))


def pattern_equivalence_by_full_checks(run):
    """The oracle for task_pattern_equivalence: the conditions and the pattern
    families tested on the whole of each listed partition, until they disagree."""
    conds = catalog.identities()["d123"].conds
    inputs = {"max_size": verification.PATTERN_MAX_SIZE, "checked": 0}
    for lam in verification.iter_all(verification.PATTERN_MAX_SIZE):
        inputs["checked"] += 1
        if verification.check_condition(lam, conds) != (not verification.violates_forbidden_patterns(lam)):
            return inputs, {"kind": "partition", "partition": to_pairs(lam)}
    return inputs, None


def finite_pochhammer(base: int, length: int, order: int) -> QSeries:
    """(q^base; q^base)_length modulo q^order: prod_(j=1..length) (1 - q^(base*j))."""
    s = QSeries.one(order)
    for j in range(1, length + 1):
        s = (QSeries.one(order) - QSeries.monomial(order, base * j)) * s
    return s


def f_to_g(f: BiSeries) -> BiSeries:
    """The oracle for g_to_f: multiply by the literal product (xq; q)_inf = prod_j (1 - x q^j)."""
    n = f.qorder
    for j in range(1, n):
        f = f * (BiSeries.one(n) - BiSeries.monomial(n, 1, j))
    return f


def schoolbook_product(a: BiSeries, b: BiSeries) -> BiSeries:
    """The oracle for BiSeries.__mul__ and QSeries.__mul__: every pair of
    coefficients multiplied and added, truncated to the smaller q-order."""
    n = min(a.qorder, b.qorder)
    out: dict[int, list[int]] = {}
    for m1, s1 in a.slices.items():
        for m2, s2 in b.slices.items():
            row = out.setdefault(m1 + m2, [0] * n)
            for i, c1 in enumerate(s1.coeffs[:n]):
                for j, c2 in enumerate(s2.coeffs[: n - i]):
                    row[i + j] += c1 * c2
    return BiSeries(n, {m: QSeries(n, row) for m, row in out.items()})


def schoolbook_laurent_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The oracle for LaurentPoly.__mul__: every pair of terms multiplied and
    added at the sum of their exponents."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return LaurentPoly(a.vars, out)


def generic_add_products(terms: dict, pairs) -> dict:
    """The oracle for laurent.add_products: the same walk over the same pairs,
    every exponent sum one generic ``tuple(map(add, ...))`` whatever the
    number of variables, so its dict keeps the same keys in the same order."""
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        b = list(b.items())
        for ea, ca in a.items():
            for eb, cb in b:
                e = tuple(map(add, ea, eb))
                s = terms.get(e, 0) + ca * cb
                if s:
                    terms[e] = s
                else:
                    del terms[e]
    return terms


def inv_xq_pochhammer_by_slices(order: int) -> BiSeries:
    """The oracle for inv_xq_pochhammer: slice m is q^m times the inverse of
    (q;q)_m, each inverted on its own."""
    return BiSeries(order, {m: finite_pochhammer(1, m, order).invert().shift(m) for m in range(order)})


def spread_columns(columns) -> dict:
    """The rows of dict columns, keyed as the columns are: each a flat list
    [i, c, i, c, ...] in column order, spread one column at a time."""
    rows = defaultdict(list)
    for i, col in enumerate(columns):
        for e, c in col.items():
            rows[e] += (i, c)
    return rows


def rows_by_slot(slots, packed, places) -> dict:
    """The oracle for celine._banded_rows: one _slot_column per slot,
    spread into rows keyed by packed exponent."""
    return spread_columns(_slot_column(slot, packed, places) for slot in slots)


def schoolbook_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The oracle for LaurentPoly.divexact: long division by grlex-leading
    terms, each step subtracting b times the quotient term from the whole
    remainder, with the same floor bound and the same two ValueErrors."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = a
    quo_terms: dict[tuple[int, ...], int] = {}
    le, lc = b.leading()
    floor = tuple(x - y for x, y in zip(a.min_exponents(), b.min_exponents()))
    while not rem.is_zero():
        re, rc = rem.leading()
        if rc % lc:
            raise ValueError("not exactly divisible (coefficient)")
        qe = tuple(x - y for x, y in zip(re, le))
        if any(e < f for e, f in zip(qe, floor)):
            raise ValueError("not exactly divisible (exponent)")
        qc = rc // lc
        quo_terms[qe] = qc
        rem = rem - b * LaurentPoly.monomial(a.vars, qe, qc)
    return LaurentPoly(a.vars, quo_terms)


def cleared_ratios_by_products(term, shifts) -> dict:
    """The oracle for holonomic.cleared_ratios: the same monomial and factors
    1 - q^e per shift, multiplied one ``LaurentPoly`` product at a time."""
    dim = 1 + term.nsum
    pad = (0,) * (len(TERM_VARS) - 1 - dim)
    neg_lin = [-x for x in term.lin]
    ratios, common = {}, Counter()
    for s in shifts:
        cut = s[:dim]
        mono = (_form_value(term.quad2, neg_lin, cut), *(-_dot(row, cut) for row in term.quad2), *pad)
        num, den = [], Counter()
        for coeffs, const, m in term.pochs:
            delta, slope = _dot(coeffs, cut), (*(m * c for c in coeffs), *pad)
            num += [(m * (const - t), *slope) for t in range(delta)]
            den.update((m * (const + t), *slope) for t in range(1, 1 - delta))
        ratios[s] = (mono, num, den)
        common |= den
    one = LaurentPoly.one(TERM_VARS)
    cleared = {}
    for s, (mono, num, den) in ratios.items():
        p = LaurentPoly.monomial(TERM_VARS, mono)
        for e in chain(num, (common - den).elements()):
            p = p * (one - LaurentPoly.monomial(TERM_VARS, e))
        cleared[s] = p
    return cleared


def eliminate_reducing_every_row(bands, ncols: int, decide_from: int) -> dict:
    """The oracle for celine._eliminate: the same fraction-free elimination,
    band by band and shortest row first, with every row reduced against the
    pivot rows however many columns are free, and the same stop once every
    column from ``decide_from`` on is a pivot."""
    pivots: dict[int, dict[int, int]] = {}
    undecided = ncols - decide_from
    for band in bands:
        rows = sorted(band, key=len)
        rows.reverse()  # pop() then yields the rows shortest first, ties in order
        while rows:
            flat = iter(rows.pop())
            row = dict(zip(flat, flat))
            hits = [i for i in row if i in pivots]
            heapify(hits)
            while hits:
                hit = heappop(hits)
                a = row.get(hit)
                if a is None:
                    continue
                prow = pivots[hit]
                b = prow[hit]
                f = a
                if b != 1:
                    g = gcd(a, b)
                    f = a // g
                    if b != g:
                        s = b // g
                        for i in row:
                            row[i] *= s
                for i, c in prow.items():
                    c = row.get(i, 0) - f * c
                    if not c:
                        del row[i]
                        continue
                    if i not in row and i in pivots:
                        heappush(hits, i)
                    row[i] = c
            if row:
                piv = min(row)
                g = gcd(*row.values())
                if row[piv] < 0:
                    g = -g
                if g != 1:
                    for i in row:
                        row[i] //= g
                pivots[piv] = row
                if piv >= decide_from:
                    undecided -= 1
                    if not undecided:
                        return pivots
    return pivots
