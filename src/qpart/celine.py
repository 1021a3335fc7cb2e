"""Certificate search for proper q-hypergeometric terms.

The ansatz is the telescoped shape itself,

    sum_j p_j N^j  +  sum_i (1 - K_i) C_i,

with unknown rational coefficients attached to explicit monomial slots:
p-slots are monomials in (q, u) times N^j, and C_i-slots are monomials in
(q, u, v) times shift monomials N^j K^sigma.  Applying a slot to the term
and dividing by it is a rational function, so annihilation becomes an
exact linear system over Q; any kernel vector with p_0 != 0 yields a
certificate, which is checked by ``verify_certificate`` before being
returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
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


def _slot_column(slot: Slot, cleared) -> LaurentPoly:
    """The cleared contribution of a unit coefficient in this slot."""
    fam, j, sigma, exps = slot
    mu = LaurentPoly.monomial(TERM_VARS, exps)
    base = (j, *sigma)
    col = mu * cleared[base]
    if fam != "p":
        k = FAMILIES.index(fam)
        bumped = tuple(x + (1 if i == k else 0) for i, x in enumerate(base))
        twisted = mu.twist(TERM_VARS[1 + k], "q", -1)
        col = col - twisted * cleared[bumped]
    return col


def _nullspace_solutions(columns: list[LaurentPoly], max_solutions: int):
    """Kernel basis vectors (over Q) of sum_i x_i * columns_i = 0."""
    rows: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for i, col in enumerate(columns):
        for e, c in col.terms.items():
            rows.setdefault(e, {})[i] = Fraction(c)
    pivots: dict[int, dict[int, Fraction]] = {}
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
    for f in free[:max_solutions]:
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


def _clear_rationals(sol: dict[int, Fraction]) -> dict[int, int]:
    from math import gcd, lcm

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
    keep = [i for i, c in enumerate(columns) if not c.is_zero()]
    slots = [slots[i] for i in keep]
    columns = [columns[i] for i in keep]
    candidates = []
    for sol in _nullspace_solutions(columns, max_solutions):
        ints = _clear_rationals(sol)
        if not ints:
            continue
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
