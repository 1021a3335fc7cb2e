"""Certificate search for proper q-hypergeometric terms.

The ansatz is the telescoped shape itself,

    sum_j p_j N^j  +  sum_i (1 - K_i) C_i,

with unknown rational coefficients attached to explicit monomial slots:
p-slots are monomials in (q, u) times N^j, and C_i-slots are monomials in
(q, u, v) times shift monomials N^j K^sigma.  Applying a slot to the term
and dividing by it is a rational function, so annihilation becomes an
exact linear system with integer entries (one row per monomial of the
cleared numerators); any kernel vector with p_0 != 0 yields a
certificate, which is checked by ``verify_certificate`` before being
returned.

The kernel is found by fraction-free elimination over Z.  Each pivot row
takes its least column as pivot; then the pivot columns are the least
columns of the row space, so the pivot set, the free set and the basis
are the same whatever order the rows are eliminated in.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd
from typing import Sequence

from .holonomic import (
    CertificateSet,
    HypTerm,
    Shift,
    ShiftOp,
    TERM_VARS,
    cleared_ratios,
    verify_certificate,
)
from .laurent import LaurentPoly

FAMILIES = ("p", "q", "r", "s")
#: a slot: (family, N-power j, K-shift sigma, monomial exponents)
Slot = tuple[str, int, tuple[int, int, int], tuple[int, int, int, int, int]]


def default_support(
    order: int,
    nsum: int = 3,
    kbox: Sequence[int] = (1, 1, 1),
    u_range: tuple[int, int] = (0, 2),
    q_range: tuple[int, int] = (-2, 2),
    v_ranges: Sequence[tuple[int, int]] = ((0, 0), (0, 0), (0, 0)),
) -> list[Slot]:
    """Enumerate ansatz slots from degree bounds."""
    out: list[Slot] = []
    for j in range(order + 1):
        for eu in range(u_range[0], u_range[1] + 1):
            for eq in range(q_range[0], q_range[1] + 1):
                out.append(("p", j, (0, 0, 0), (eq, eu, 0, 0, 0)))
    sigmas = list(product(*(range(b + 1) for b in kbox)))
    vboxes = [range(lo, hi + 1) for lo, hi in v_ranges]
    for i in range(nsum):
        fam = FAMILIES[1 + i]
        for j in range(order + 1):
            for sigma in sigmas:
                for eu in range(u_range[0], u_range[1] + 1):
                    for eq in range(q_range[0], q_range[1] + 1):
                        for e1 in vboxes[0]:
                            for e2 in vboxes[1]:
                                for e3 in vboxes[2]:
                                    out.append((fam, j, sigma, (eq, eu, e1, e2, e3)))
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


def _slot_shifts(slot: Slot) -> list[Shift]:
    fam, j, sigma, _ = slot
    base = (j, *sigma)
    if fam == "p":
        return [base]
    k = FAMILIES.index(fam)
    bumped = tuple(x + (1 if i == k else 0) for i, x in enumerate(base))
    return [base, bumped]


def _slot_column(slot: Slot, cleared) -> dict[tuple[int, ...], int]:
    """The cleared contribution of a unit coefficient in this slot.

    Each part is the cleared ratio of one shift times a monomial, so the
    column is built by adding exponent vectors: ``exps`` for the base shift
    and, for a C_i-slot, ``exps`` with the q-exponent lowered by the
    v_i-exponent (the twist v_i -> v_i q^-1) for the bumped shift, whose
    part is subtracted.
    """
    fam, _, _, exps = slot
    x0, x1, x2, x3, x4 = exps
    shifts = _slot_shifts(slot)
    col = {
        (a + x0, b + x1, c + x2, d + x3, e + x4): v
        for (a, b, c, d, e), v in cleared[shifts[0]].terms.items()
    }
    if len(shifts) > 1:
        x0 -= exps[1 + FAMILIES.index(fam)]
        for (a, b, c, d, e), v in cleared[shifts[1]].terms.items():
            key = (a + x0, b + x1, c + x2, d + x3, e + x4)
            col[key] = col.get(key, 0) - v
        if not all(col.values()):
            col = {key: v for key, v in col.items() if v}
    return col


def _nullspace_solutions(columns: list[dict[tuple[int, ...], int]], max_solutions: int):
    """Kernel basis of sum_i x_i * columns_i = 0, as primitive integer vectors.

    Fraction-free elimination over Z: each row (one exponent of the
    columns, shortest rows first) is reduced in place against the pivot
    rows, taking the hits in increasing column order from a heap.  A
    reduced row that is not zero becomes the pivot row of its least column,
    divided by its content with the sign that makes that entry positive.
    A pivot row is zero on the pivot columns made before it, so the pivots
    are the least columns of the row space whatever the order of rows and
    hits.  The basis vector of a free column (1 there, 0 on the other free
    columns, scaled to coprime integers) is therefore independent of that
    order as well.
    """
    rows: dict[tuple[int, ...], dict[int, int]] = {}
    for i, col in enumerate(columns):
        for e, c in col.items():
            rows.setdefault(e, {})[i] = c
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows.values(), key=len):
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
    free = [i for i in range(len(columns)) if i not in pivots]
    order = sorted(pivots, reverse=True)
    basis = []
    for f in free[:max_solutions]:
        # a positive multiple of the kernel vector, kept coprime: a scaling
        # by m is followed by a new entry val // b that is prime to m
        sol = {f: 1}
        for piv in order:
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
        basis.append(sol)
    return basis


def _assemble(order: int, slots: list[Slot], coeffs: dict[int, int]) -> CertificateSet:
    fam = {name: [ShiftOp() for _ in range(order + 1)] for name in FAMILIES}
    for idx, c in coeffs.items():
        name, j, sigma, exps = slots[idx]
        mono = ShiftOp({(0, *sigma): LaurentPoly.monomial(TERM_VARS, exps, c)})
        fam[name][j] = fam[name][j] + mono
    return CertificateSet(order, fam)


def celine_solve(
    term: HypTerm,
    order: int,
    support: list[Slot] | None = None,
    max_solutions: int = 24,
    **bound_kwargs,
) -> CertificateSet | None:
    """Search for a certificate of the given order within the support.

    Returns a verified CertificateSet with p_0 != 0 (preferring small
    support), or None when the ansatz admits no such relation.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    slots = support if support is not None else default_support(order, nsum=term.nsum, **bound_kwargs)
    slots = [s for s in slots if s[1] <= order]
    if not slots:
        return None
    shifts = sorted({sh for slot in slots for sh in _slot_shifts(slot)})
    cleared = cleared_ratios(term, shifts)
    columns = [_slot_column(slot, cleared) for slot in slots]
    keep = [i for i, c in enumerate(columns) if c]
    slots = [slots[i] for i in keep]
    columns = [columns[i] for i in keep]
    candidates = []
    for ints in _nullspace_solutions(columns, max_solutions):
        cert = _assemble(order, slots, ints)
        if cert.families["p"][0].is_zero():
            continue
        candidates.append((len(ints), sorted(ints), cert))
    if not candidates:
        return None
    candidates.sort(key=lambda t: (t[0], t[1]))
    cert = candidates[0][2]
    check = verify_certificate(term, cert)
    if not check.ok:
        raise AssertionError("celine solution failed exact verification")
    return cert
