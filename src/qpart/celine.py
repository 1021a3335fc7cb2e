"""Certificate search for proper q-hypergeometric terms.

The ansatz is the telescoped shape itself,

    sum_j p_j N^j  +  sum_i (1 - K_i) C_i,

with unknown rational coefficients attached to explicit monomial slots:
p-slots are monomials in (q, u) times N^j, and C_i-slots are monomials in
(q, u, v) times shift monomials N^j K^sigma.  Applying a slot to the term
and dividing by it is a rational function, so annihilation becomes an
exact linear system with integer entries (one row per monomial of the
cleared numerators, each monomial's exponent vector packed into one int
by a mixed radix); any kernel vector with p_0 != 0 yields a certificate.

The system is built lazily.  The slots of one shape (family, j, sigma,
v-exponents) share one column up to their packed (q, u) offsets, which
move no v-exponent, so one column is built per shape and split into
v-bands; a band is spread into rows of flat [column, entry, ...] lists
only when the elimination asks for it, lightest first, and a row becomes
a dict only when the elimination reaches it.  It is eliminated once,
fraction-free over Z, with the p_0 slots as the last columns.  Each pivot
row takes its least column as pivot; then the pivot columns are the least
columns of the row space, whatever order the rows come in.  That makes
the search a decision: if every p_0 column is a pivot, their pivot rows
hold only p_0 columns and form a triangular system that forces p_0 = 0,
and if some p_0 column is free, its kernel vector is 1 there.  The
elimination stops once every p_0 column is a pivot, often before most
bands exist: more rows only add least columns, so "none" is settled
then.  Once a single column is free, the pivot rows span k^perp (of
dimension ncols - 1) for its kernel vector k, so a later row r would
reduce to zero iff r . k = 0, and is then skipped.  The certificate
returned is the kernel vector of the first free p_0 column, primitive
and positive at its greatest slot in sorted slot order, checked by
``verify_certificate``.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Sequence

from .holonomic import (
    FAMILIES,
    CertificateSet,
    HypTerm,
    Shift,
    ShiftOp,
    TERM_VARS,
    cleared_ratios,
    verify_certificate,
)
from .laurent import LaurentPoly

#: a slot: (family, N-power j, K-shift sigma, monomial exponents)
Slot = tuple[str, int, tuple[int, int, int], tuple[int, int, int, int, int]]
#: each shape, as its slot at (q, u) = (0, 0), to its members (column, e_q, e_u)
Shapes = dict[Slot, list[tuple[int, int, int]]]


def default_support(
    order: int,
    nsum: int,
    kbox: Sequence[int],
    u_range: tuple[int, int],
    q_range: tuple[int, int],
    v_ranges: Sequence[tuple[int, int]] = ((0, 0), (0, 0), (0, 0)),
) -> list[Slot]:
    """Enumerate ansatz slots from degree bounds: the p-slots over
    (j, e_u, e_q), then each C-family's slots over (j, sigma, e_u, e_q, v).

    An empty degree range or a negative shift bound would leave a box
    with no p-slots or no C-slots, whose "none found" says nothing.
    """
    if any(lo > hi for lo, hi in (u_range, q_range, *v_ranges)):
        raise ValueError("the degree ranges must not be empty")
    if any(b < 0 for b in kbox):
        raise ValueError("the shift box must be >= 0")
    js, us, qs = range(order + 1), range(u_range[0], u_range[1] + 1), range(q_range[0], q_range[1] + 1)
    sigmas = list(product(*(range(b + 1) for b in kbox)))
    vs = list(product(*(range(lo, hi + 1) for lo, hi in v_ranges)))
    out: list[Slot] = [("p", j, (0, 0, 0), (eq, eu, 0, 0, 0)) for j, eu, eq in product(js, us, qs)]
    for i in range(nsum):
        fam = FAMILIES[1 + i]
        out += [(fam, j, sigma, (eq, eu, *v)) for j, sigma, eu, eq, v in product(js, sigmas, us, qs, vs)]
    return out


def support_of(cert: CertificateSet) -> list[Slot]:
    """Slot list read off an existing certificate (for re-derivation runs)."""
    slots: set[Slot] = set()
    for fam, ops in cert.families.items():
        for j, op in enumerate(ops):
            for s, poly in op.terms.items():
                sigma = (s[1], s[2], s[3])
                for e in poly.terms:
                    slots.add((fam, j + s[0], sigma, e))
    return sorted(slots)


def _slot_parts(slot: Slot) -> list[tuple[Shift, tuple[int, ...]]]:
    """The (shift, monomial) of each part of a slot.

    A p-slot has one part.  A C_i-slot also has the part of the shift
    bumped in N or K_i, which is subtracted; its monomial has the
    q-exponent lowered by the v_i-exponent (the twist v_i -> v_i q^-1).
    """
    fam, j, sigma, exps = slot
    base = (j, *sigma)
    if fam == "p":
        return [(base, exps)]
    k = FAMILIES.index(fam)
    bumped = tuple(x + (i == k) for i, x in enumerate(base))
    return [(base, exps), (bumped, (exps[0] - exps[1 + k], *exps[1:]))]


def _shapes(slots: list[Slot]) -> Shapes:
    shapes: Shapes = defaultdict(list)
    for i, (fam, j, sigma, (eq, eu, *v)) in enumerate(slots):
        shapes[fam, j, sigma, (0, 0, *v)].append((i, eq, eu))
    return shapes


def _packed_ratios(term: HypTerm, shapes: Shapes) -> tuple[dict[Shift, dict[int, int]], tuple[int, ...]]:
    """The cleared ratios of the shapes' shifts keyed by packed exponent,
    and the place values of the packing.

    A mixed radix packs each exponent vector e of the system into one int,
    sum_k e_k * place_k less the least (q, u) part of a shape's column.
    Every exponent of the system is a cleared ratio's exponent plus a shape
    part's monomial plus a slot's (q, u) offset, so radix k is 1 plus the
    sum of the three spans in coordinate k.  On that box the packing is
    one-to-one, and a slot's packed column is its shape's with every key
    offset by its offset.  A key of a shape's column has its (q, u) part in
    [0, place_2), so key // place_2 is its v-band, which no offset moves.
    """
    parts = [part for shape in shapes for part in _slot_parts(shape)]
    cleared = cleared_ratios(term, sorted({sh for sh, _ in parts}))
    spans = ([e for poly in cleared.values() for e in poly.terms], [x for _, x in parts],
             [(eq, eu, 0, 0, 0) for members in shapes.values() for _, eq, eu in members])
    places = [1]
    for k in range(len(TERM_VARS) - 1):
        places.append(places[k] * (1 + sum(max(e[k] for e in es) - min(e[k] for e in es) for es in spans)))
    origin = sum(min(e[k] for e in es) * places[k] for es in spans[:2] for k in (0, 1))
    packed = {sh: {sum(map(mul, e, places)) - origin: v for e, v in poly.terms.items()} for sh, poly in cleared.items()}
    return packed, tuple(places)


def _slot_column(slot: Slot, packed: dict[Shift, dict[int, int]], places: tuple[int, ...]) -> dict[int, int]:
    """The cleared contribution of a unit coefficient in this slot, keyed
    by packed exponent: each part's packed ratio with every key offset by
    the packed monomial, the bumped part of a C_i-slot subtracted."""
    (shift, mono), *bumped = _slot_parts(slot)
    off = sum(map(mul, mono, places))
    col = {key + off: v for key, v in packed[shift].items()}
    for shift, mono in bumped:
        off = sum(map(mul, mono, places))
        for key, v in packed[shift].items():
            key += off
            col[key] = col.get(key, 0) - v
        if not all(col.values()):
            col = {key: v for key, v in col.items() if v}
    return col


def _banded_rows(shapes: Shapes, packed: dict[Shift, dict[int, int]], places: tuple[int, ...]) -> Iterator[dict[int, list[int]]]:
    """The rows of each v-band keyed by packed exponent, as flat lists
    [i, c, i, c, ...]: each shape's column is built once and split by
    v-band, key // places[2]; the bands are spread at each member's offset
    one at a time, as asked for, by increasing count of entries (known
    before any row exists), ties in the order first seen."""
    weights: defaultdict = defaultdict(int)
    cols: defaultdict = defaultdict(list)
    for shape, members in shapes.items():
        offsets = [(i, eq * places[0] + eu * places[1]) for i, eq, eu in members]
        split: defaultdict = defaultdict(dict)
        for key, c in _slot_column(shape, packed, places).items():
            split[key // places[2]][key] = c
        for band, col in split.items():
            weights[band] += len(col) * len(offsets)
            cols[band].append((col, offsets))
    for band in sorted(weights, key=weights.__getitem__):
        rows: defaultdict = defaultdict(list)
        for col, offsets in cols.pop(band):
            for e, c in col.items():
                for i, off in offsets:
                    rows[e + off].extend((i, c))
        yield rows


def _eliminate(bands: Iterable[Iterable[list[int]]], ncols: int, decide_from: int) -> tuple[dict, dict | None]:
    """Pivot rows of the system with these rows, keyed by pivot column, and k below or None.

    The rows are flat lists (``_banded_rows``) over ``ncols`` columns,
    taken one band at a time, as the bands come.  A row becomes the dict
    that the reduction mutates only when the elimination reaches it, and
    is dropped once it is done, so the rows never reached are never
    expanded, and the bands never reached are never asked for.

    Fraction-free elimination over Z: each row (band by band, shortest
    first in its band, ties in band order) is reduced in place against
    the pivot rows, taking the hits in increasing column order from a
    heap.  A reduced row that is not zero becomes the pivot row of its
    least column, divided by its content with the sign that makes that
    entry positive.  A pivot row is zero on the pivot columns made before
    it and has no entry before its pivot, so the pivots are the least
    columns of the row space of the rows seen so far, whatever the order
    of bands, rows and hits.

    The elimination stops as soon as every column from ``decide_from`` on
    is a pivot.  A larger row space only adds least columns, so those
    columns stay pivots of the whole system, and their pivot rows, which
    hold only columns from ``decide_from`` on, force them to 0 in every
    kernel vector.  The rows returned then span only part of the system;
    whether a column from ``decide_from`` on is free is still decided
    exactly, and if one is, the elimination runs to the end.

    Once the pivots number ``ncols - 1``, their rows span k^perp, of
    dimension ncols - 1, for the kernel vector k of the free column.  A
    later row r is in that span, which is when it would reduce to zero,
    iff r . k = 0, and then it is skipped; any other row makes the last
    pivot and ends the elimination.  The pivots are those of reducing
    every row.  k (``_kernel_vector``) is returned only if the elimination
    ran to the end with ncols - 1 pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    undecided = ncols - decide_from
    vec, kernel = None, []  # k, and k as a dense list
    for band in bands:
        rows = sorted(band, key=len)
        rows.reverse()  # pop() then yields the rows shortest first, ties in order
        while rows:
            flat = rows.pop()
            if kernel and not sum(map(mul, flat[1::2], map(kernel.__getitem__, flat[::2]))):
                continue  # in the span of the pivot rows
            pairs = iter(flat)
            row = dict(zip(pairs, pairs))
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
                        return pivots, None
                if len(pivots) == ncols:
                    return pivots, None
                if len(pivots) == ncols - 1:
                    vec = _kernel_vector(pivots, next(i for i in range(ncols) if i not in pivots))
                    kernel = [vec.get(i, 0) for i in range(ncols)]
    return pivots, vec


def _kernel_vector(pivots: dict[int, dict[int, int]], free: int) -> dict[int, int]:
    """The kernel vector of a free column, as a primitive integer vector.

    It is 1 at ``free`` and 0 at the other free columns, scaled to coprime
    integers with a positive entry at ``free``; since the pivots do not
    depend on the order of elimination, neither does this vector.  Pivot
    rows past ``free`` hold only columns past it, so only the pivots before
    it are solved for, last first.  Each scaling by m is followed by a new
    entry val // b that is prime to m, which keeps the vector coprime.
    """
    sol = {free: 1}
    for piv in sorted((p for p in pivots if p < free), reverse=True):
        row = pivots[piv]
        val = 0
        for i, c in row.items():
            if i in sol:
                val -= c * sol[i]
        if val:
            b = row[piv]
            if val % b:
                m = b // gcd(val, b)
                for i in sol:
                    sol[i] *= m
                val *= m
            sol[piv] = val // b
    return sol


def _assemble(order: int, slots: list[Slot], coeffs: dict[int, int]) -> CertificateSet:
    fam = {name: [ShiftOp() for _ in range(order + 1)] for name in FAMILIES}
    for idx, c in coeffs.items():
        name, j, sigma, exps = slots[idx]
        mono = ShiftOp({(0, *sigma): LaurentPoly.monomial(TERM_VARS, exps, c)})
        fam[name][j] = fam[name][j] + mono
    return CertificateSet(fam)


def _is_p0(slot: Slot) -> bool:
    return slot[0] == "p" and slot[1] == 0


def celine_solve(term: HypTerm, order: int, support: list[Slot]) -> CertificateSet | None:
    """Search for a certificate of the given order within the support.

    The p_0 slots are put last and the system is eliminated once, until
    every p_0 column is a pivot.  A kernel vector with p_0 != 0 exists
    exactly when some p_0 column is free, so None is a proof that the
    support holds no certificate; a support without p_0 slots holds none.
    Otherwise the kernel vector of the first free p_0 column, primitive
    and positive at its greatest slot in sorted slot order, is verified
    exactly and returned.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    # a repeated p_0 slot would be a free p_0 column whose vector cancels
    slots = sorted((s for s in dict.fromkeys(support) if s[1] <= order), key=_is_p0)
    first_p0 = next((i for i, slot in enumerate(slots) if _is_p0(slot)), None)
    if first_p0 is None:
        return None
    shapes = _shapes(slots)
    packed, places = _packed_ratios(term, shapes)
    pivots, kernel = _eliminate(map(dict.values, _banded_rows(shapes, packed, places)), len(slots), first_p0)
    free = next((i for i in range(first_p0, len(slots)) if i not in pivots), None)
    if free is None:
        return None
    ints = kernel or _kernel_vector(pivots, free)  # _eliminate solved it if free is the one free column
    if ints[max(ints, key=slots.__getitem__)] < 0:
        ints = {i: -c for i, c in ints.items()}
    cert = _assemble(order, slots, ints)
    if not verify_certificate(term, cert).ok:
        raise AssertionError("celine solution failed exact verification")
    return cert
