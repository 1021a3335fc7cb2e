"""Cylindric partitions and the profile recursion engine.

A profile is a cyclic tuple of r nonnegative integers; a cylindric
partition of that profile is an r-tuple of ordinary partitions whose rows
dominate each other cyclically with offsets given by the profile.  Two
generating functions are tracked per profile: F (weight x^max * q^size)
and G = (xq; q)_inf * F.  G satisfies a coupled recursion over subsets of
the profile's support, a linear q-difference system in x over the whole
orbit of profiles, which ``holonomic.solve_shift_system`` solves at once,
one x-slice at a time.
"""

from __future__ import annotations

from itertools import combinations

from .holonomic import XQ_VARS, solve_shift_system
from .laurent import LaurentPoly
from .series import BiSeries, QSeries, inv_xq_pochhammer

Profile = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]


def check_profile(profile: Profile) -> Profile:
    p = tuple(profile)
    if not p:
        raise ValueError("profile must have r >= 1 entries")
    if any(c < 0 for c in p):
        raise ValueError("profile entries must be nonnegative")
    return p


def is_cylindric(rows: Rows, profile: Profile) -> bool:
    """Check the cyclic row-domination inequalities (missing parts are 0)."""
    p = check_profile(profile)
    r = len(p)
    if len(rows) != r:
        raise ValueError(f"expected {r} rows, got {len(rows)}")
    for i in range(r):
        a = rows[i]
        b = rows[(i + 1) % r]
        off = p[(i + 1) % r]
        for j in range(len(b) - off):
            left = a[j] if j < len(a) else 0
            if left < b[j + off]:
                return False
    return True


def enumerate_cylindric(profile: Profile, max_size: int) -> BiSeries:
    """Brute-force F_profile: sum of x^max * q^size over total size <= max_size.

    Lists every cylindric partition of the profile, building the rows one
    part at a time: part j of row i is at most the previous part, the size
    budget left and ``rows[i-1][j - p[i]]``; part j of the last row is at
    least ``rows[0][j + p[0]]``, which closes the cycle.  Returned with
    qorder max_size + 1.
    """
    p = check_profile(profile)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    qorder = max_size + 1
    last = len(p) - 1
    counts = [[0] * qorder for _ in range(qorder)]  # [max part][size]
    rows: list[list[int]] = [[] for _ in p]
    # once row 0 is built: floor[j] = rows[0][j + p[0]] bounds part j of the
    # last row below, and need[j] = sum(floor[j:]) is what those parts must
    # at least add up to
    floor = [0] * (max_size + 2)
    need = [0] * (max_size + 3)

    def extend(i: int, j: int, prev: int, used: int, mx: int) -> None:
        row = rows[i]
        lo, hi = 0, prev
        budget = max_size - used
        if i:
            if j >= p[i]:
                above = rows[i - 1]
                k = j - p[i]
                bound = above[k] if k < len(above) else 0
                if bound < hi:
                    hi = bound
            if i == last:
                lo = floor[j]
                budget -= need[j + 1]
            else:
                budget -= need[0]
        if budget < hi:
            hi = budget
        if not lo:  # row i may end after j parts
            if i == last:
                counts[mx][used] += 1
            else:
                if not i:
                    tail = row[p[0]:]
                    floor[:] = tail + [0] * (max_size + 2 - len(tail))
                    for k in range(max_size + 1, -1, -1):
                        need[k] = need[k + 1] + floor[k]
                extend(i + 1, 0, max_size, used, mx)
        for v in range(lo or 1, hi + 1):
            row.append(v)
            extend(i, j + 1, v, used + v, mx if mx > v else v)
            row.pop()

    extend(0, 0, max_size, 0, 0)
    return BiSeries(qorder, {m: QSeries(qorder, row) for m, row in enumerate(counts) if any(row)})


# ----------------------------------------------------------------------
# the subset recursion


def cw_children(profile: Profile) -> list[tuple[tuple[int, ...], int, int, Profile]]:
    """Children of a profile in the G-recursion.

    Returns (J, sign, pochhammer_degree, child_profile) for each nonempty
    subset J of the support: the term is
    sign * (xq; q)_{pochhammer_degree} * G_child(x * q^{|J|}).
    """
    p = check_profile(profile)
    r = len(p)
    support = [i for i in range(r) if p[i] > 0]
    if not support:
        raise ValueError("zero profile has no recursion")
    out = []
    for size in range(1, len(support) + 1):
        for J in combinations(support, size):
            Jset = set(J)
            child = []
            for i in range(r):
                c = p[i]
                prev_in = (i - 1) % r in Jset
                if i in Jset and not prev_in:
                    c -= 1
                elif i not in Jset and prev_in:
                    c += 1
                child.append(c)
            out.append((J, -1 if size % 2 == 0 else 1, size - 1, tuple(child)))
    return out


def profile_orbit(profile: Profile) -> list[Profile]:
    """All profiles reachable from ``profile`` under the child map."""
    seen = [check_profile(profile)]
    vis = {seen[0]}
    for p in seen:
        for _, _, _, child in cw_children(p):
            if child not in vis:
                vis.add(child)
                seen.append(child)
    return sorted(vis, reverse=True)


def solve_cw_family(profile: Profile, qorder: int) -> dict[Profile, BiSeries]:
    """Solve the G-recursion for every profile in the orbit at once.

    Each child term is sign * (xq; q)_deg * G_child(x q^|J|); every shift
    is at least 1, so each x-slice of the shared solver's sweep has one
    fixed point, and the constant slice of every G is 1.
    """
    one = LaurentPoly.one(XQ_VARS)

    def coeff(sign: int, deg: int) -> LaurentPoly:
        out = LaurentPoly.constant(XQ_VARS, sign)
        for j in range(1, deg + 1):
            out = out * (one - LaurentPoly.monomial(XQ_VARS, (1, j)))
        return out

    equations = {
        p: [(coeff(sign, deg), len(J), child) for J, sign, deg, child in cw_children(p)]
        for p in profile_orbit(profile)
    }
    return solve_shift_system(equations, qorder)


def g_to_f(g: BiSeries) -> BiSeries:
    """Divide by (xq; q)_inf, recovering F from G."""
    return g * inv_xq_pochhammer(g.qorder)
