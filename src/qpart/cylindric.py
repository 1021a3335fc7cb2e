"""Cylindric partitions and the profile recursion engine.

A profile is a cyclic tuple of r nonnegative integers; a cylindric
partition of that profile is an r-tuple of ordinary partitions whose rows
dominate each other cyclically with offsets given by the profile.  Two
generating functions are tracked per profile: F (weight x^max * q^size)
and G = (xq; q)_inf * F.  F is counted by layers, without the recursion:
the chains of layers (how many parts >= t each row has) that start at a
vector a of the profile's cone are counted from those that start below a,
one packed series per cone vector.  G satisfies a coupled
recursion over subsets of the profile's support, a linear q-difference
system in x over the whole orbit of profiles, which
``holonomic.solve_shift_system`` solves at once, one x-slice at a time.
"""

from __future__ import annotations

from itertools import combinations
from operator import le

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
    """F_profile counted directly: sum of x^max * q^size over total size <= max_size.

    Let a_i(t) be the number of parts >= t of row i.  The rows satisfy the
    profile's inequalities exactly when every layer a(t) lies in the cone
    a_i <= a_{i-1} + p[i] (indices mod r), so a cylindric partition is a
    chain a(1) >= ... >= a(m) of nonzero vectors of the cone, with max part
    m and size sum_t |a(t)|.  The chains that start at a count
    H_a = x q^|a| / (1 - x q^|a|) * (1 + sum of H_b over the cone vectors
    b < a, componentwise), visited by increasing |a|; F = 1 + sum_a H_a.
    Returned with qorder max_size + 1.

    Each series is one packed int, x^m q^n in slot n * (max_size + 1) + m.
    A slot of H_a, or of a sum of H_b over distinct b, counts distinct
    cylindric partitions of size n, at most the r-tuples of partitions of
    total n, C(n+r-1, r-1) * 2^n <= 2^(2n+r-1), so slots of
    2 * max_size + r bits never carry.
    """
    p = check_profile(profile)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    r, n1 = len(p), max_size + 1
    width = (2 * max_size + r + 7) // 8  # bytes per slot
    row = 8 * width * n1  # bits per power of q
    full = (1 << n1 * row) - 1
    # the cone vectors of size <= max_size, a_i >= a_0 - (p[i+1] + ... + p[r-1] + p[0]) closing the cycle
    cone = [(c,) for c in range(n1)]
    for i in range(1, r):
        close = sum(p[i + 1:]) + p[0]
        cone = [a + (c,) for a in cone for c in range(max(0, a[0] - close), min(a[-1] + p[i], max_size - sum(a)) + 1)]
    total, found = 1, []  # found: (b, H_b) for the cone vectors visited
    for a in sorted(cone, key=sum)[1:]:
        step = sum(a) * row + 8 * width  # times x q^|a|
        h = term = ((1 + sum(g for b, g in found if all(map(le, b, a)))) << step) & full
        while term := (term << step) & full:  # a repeated: the geometric series
            h += term
        found.append((a, h))
        total += h
    data = total.to_bytes(n1 * n1 * width, "little")
    slot = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return BiSeries(n1, {m: QSeries(n1, slot[m::n1]) for m in range(n1)})


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

    Each child term is sign * (xq; q)_deg * G_child(x q^|J|) with J
    nonempty, so every x-shift |J| is at least 1, as the shared solver
    requires; the constant slice of every G is 1.
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
