"""Two-colored partitions, their difference conditions, and forbidden patterns.

A part is a pair (magnitude, color) with magnitude >= 1 and color '+' or '-'.
Parts are ordered by

    ... > 3 > 3- > 2 > 2- > 1 > 1-

(magnitude first; at equal magnitude the '+' copy is larger), and a 2-colored
partition is a weakly decreasing sequence of parts under this order.

Two equivalent descriptions of the same partition classes are implemented:

* the local difference conditions D1-D4 on consecutive parts, and
* a list of seven families of forbidden contiguous patterns.

All conditions are local to windows of at most four consecutive parts, so
both the membership tests and the pruned enumeration run in linear time.
The window tests are cross-checked in the test suite against literal
pattern matching over the parameterized family generators.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .series import BiSeries, QSeries, TruncationError

Part = tuple[int, str]  # (magnitude, color), color in {"+", "-"}
Partition = tuple[Part, ...]

PLUS = "+"
MINUS = "-"


def part(magnitude: int, color: str) -> Part:
    if magnitude < 1:
        raise ValueError("magnitude must be >= 1")
    if color not in (PLUS, MINUS):
        raise ValueError("color must be '+' or '-'")
    return (magnitude, color)


def part_key(p: Part) -> tuple[int, int]:
    """Sort key realizing the total order: bigger key = bigger part."""
    return (p[0], 1 if p[1] == PLUS else 0)


def is_weakly_decreasing(parts: Sequence[Part]) -> bool:
    return all(part_key(a) >= part_key(b) for a, b in zip(parts, parts[1:]))


def validate(parts: Sequence[Part]) -> Partition:
    t = tuple(parts)
    for p in t:
        part(*p)
    if not is_weakly_decreasing(t):
        raise ValueError(f"parts not weakly decreasing: {t}")
    return t


def size(parts: Sequence[Part]) -> int:
    return sum(p[0] for p in parts)


def length(parts: Sequence[Part]) -> int:
    return len(parts)


def from_pairs(pairs: Iterable[tuple[str, int]]) -> Partition:
    """Build from the JSON convention [["+", 4], ["-", 2], ...]."""
    return validate(tuple((m, c) for c, m in pairs))


def to_pairs(parts: Sequence[Part]) -> list[list]:
    return [[c, m] for m, c in parts]


# ----------------------------------------------------------------------
# difference conditions as window predicates


def _d1_ok(a: Part, b: Part) -> bool:
    # consecutive parts differing by at most 1 must sum to a multiple of 3
    # and carry opposite colors
    if a[0] - b[0] <= 1:
        return (a[0] + b[0]) % 3 == 0 and a[1] != b[1]
    return True


def _d2_ok(a: Part, b: Part) -> bool:
    # a gap of exactly 2 with sum not a multiple of 3 excludes colors (-, +)
    if a[0] - b[0] == 2 and (a[0] + b[0]) % 3 != 0:
        return (a[1], b[1]) != (MINUS, PLUS)
    return True


def _d3_win3(a: Part, b: Part, c: Part) -> bool:
    """True iff (a, b, c) is one of the two excluded length-3 windows."""
    m = b[0]
    if m % 3 or m < 3:
        return False
    if a == (m, PLUS) and b[1] == MINUS and c == (m - 2, MINUS):
        return True
    return a == (m + 2, PLUS) and b[1] == PLUS and c == (m, MINUS)


def _d3_win4(a: Part, b: Part, c: Part, d: Part) -> bool:
    """True iff (a, b, c, d) is the excluded length-4 window."""
    m = d[0]
    return (
        m % 3 == 1
        and d[1] == MINUS
        and c == (m + 1, PLUS)
        and b == (m + 3, PLUS)
        and a == (m + 4, MINUS)
    )


def _d3_violation_ending_at(parts: Sequence[Part], i: int) -> bool:
    if i >= 2 and _d3_win3(parts[i - 2], parts[i - 1], parts[i]):
        return True
    return i >= 3 and _d3_win4(parts[i - 3], parts[i - 2], parts[i - 1], parts[i])


_D4_BANNED = frozenset({(1, PLUS), (1, MINUS), (2, MINUS)})


def check_condition(parts: Sequence[Part], which: Iterable[str]) -> bool:
    """Check a subset of the conditions {"D1", "D2", "D3", "D4"}."""
    wanted = set(which)
    unknown = wanted - {"D1", "D2", "D3", "D4"}
    if unknown:
        raise ValueError(f"unknown conditions: {sorted(unknown)}")
    if "D1" in wanted and not all(_d1_ok(a, b) for a, b in zip(parts, parts[1:])):
        return False
    if "D2" in wanted and not all(_d2_ok(a, b) for a, b in zip(parts, parts[1:])):
        return False
    if "D3" in wanted and any(_d3_violation_ending_at(parts, i) for i in range(2, len(parts))):
        return False
    if "D4" in wanted and any(p in _D4_BANNED for p in parts):
        return False
    return True


COND_D123 = frozenset({"D1", "D2", "D3"})
COND_D1234 = frozenset({"D1", "D2", "D3", "D4"})


def contains_pattern(parts: Sequence[Part], pattern: Sequence[Part]) -> bool:
    """True iff ``pattern`` occurs as a contiguous factor of ``parts``."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    lp, lq = len(parts), len(pattern)
    pat = tuple(pattern)
    return any(tuple(parts[i : i + lq]) == pat for i in range(lp - lq + 1))


# ----------------------------------------------------------------------
# forbidden-pattern families
#
# Stated over positive magnitudes; the mirror image lambda -> -lambda
# translates to the convention used for spanning arguments over negative
# indices.


def _forbidden_pair(a: Part, b: Part) -> bool:
    am, ac = a
    bm, bc = b
    if ac == bc:
        # families (1): equal parts, or magnitudes differing by one
        return am == bm or am == bm + 1
    if am == bm:
        # (3a)/(4a): (m+, m-) with m not divisible by 3
        return ac == PLUS and bc == MINUS and bm % 3 != 0
    if am == bm + 1:
        # (2a)/(2b): either color split over (3k+1, 3k)
        # (5a)/(5b): either color split over (3k+3, 3k+2)
        return bm % 3 == 0 or bm % 3 == 2
    if am == bm + 2:
        # (3b): (3k+2-, 3k+); (4b): (3k+3-, 3k+1+)
        return ac == MINUS and bc == PLUS and bm % 3 != 2
    return False


def _forbidden_win3(a: Part, b: Part, c: Part) -> bool:
    m = b[0]
    if m % 3 or m < 3:
        return False
    # (6a): (m+, m-, (m-2)-)   (6b): ((m+2)+, m+, m-)
    if a == (m, PLUS) and b[1] == MINUS and c == (m - 2, MINUS):
        return True
    return a == (m + 2, PLUS) and b[1] == PLUS and c == (m, MINUS)


def _forbidden_win4(a: Part, b: Part, c: Part, d: Part) -> bool:
    # (7): ((m+4)-, (m+3)+, (m+1)+, m-) with m = 3k+1
    m = d[0]
    return (
        m % 3 == 1
        and d[1] == MINUS
        and c == (m + 1, PLUS)
        and b == (m + 3, PLUS)
        and a == (m + 4, MINUS)
    )


def violates_forbidden_patterns(parts: Sequence[Part]) -> bool:
    """True iff some window of ``parts`` matches one of the seven families."""
    n = len(parts)
    for i in range(1, n):
        if _forbidden_pair(parts[i - 1], parts[i]):
            return True
    for i in range(2, n):
        if _forbidden_win3(parts[i - 2], parts[i - 1], parts[i]):
            return True
    for i in range(3, n):
        if _forbidden_win4(parts[i - 3], parts[i - 2], parts[i - 1], parts[i]):
            return True
    return False


def family_windows(k: int) -> list[Partition]:
    """Literal instances of the seven pattern families at parameter k.

    Kept as the reference generator; the window predicates above are the
    fast path and the two are cross-checked in the tests.
    """
    wins: list[Partition] = []
    if k >= 1:
        wins += [
            ((k, PLUS), (k, PLUS)),
            ((k, MINUS), (k, MINUS)),
            ((k + 1, PLUS), (k, PLUS)),
            ((k + 1, MINUS), (k, MINUS)),
            ((3 * k + 1, MINUS), (3 * k, PLUS)),
            ((3 * k + 1, PLUS), (3 * k, MINUS)),
            ((3 * k + 2, MINUS), (3 * k, PLUS)),
        ]
    if k >= 0:
        wins += [
            ((3 * k + 1, PLUS), (3 * k + 1, MINUS)),
            ((3 * k + 2, PLUS), (3 * k + 2, MINUS)),
            ((3 * k + 3, MINUS), (3 * k + 1, PLUS)),
            ((3 * k + 3, MINUS), (3 * k + 2, PLUS)),
            ((3 * k + 3, PLUS), (3 * k + 2, MINUS)),
            ((3 * k + 3, PLUS), (3 * k + 3, MINUS), (3 * k + 1, MINUS)),
            ((3 * k + 5, PLUS), (3 * k + 3, PLUS), (3 * k + 3, MINUS)),
            ((3 * k + 5, MINUS), (3 * k + 4, PLUS), (3 * k + 2, PLUS), (3 * k + 1, MINUS)),
        ]
    return wins


def violates_by_pattern_matching(parts: Sequence[Part]) -> bool:
    """Reference implementation of the family test via contains_pattern."""
    if not parts:
        return False
    kmax = max(p[0] for p in parts) + 1
    for k in range(kmax + 1):
        for w in family_windows(k):
            if len(w) <= len(parts) and contains_pattern(parts, w):
                return True
    return False


# ----------------------------------------------------------------------
# enumeration


def iter_all(max_size: int) -> Iterator[Partition]:
    """All 2-colored partitions of size <= max_size (unspecified order)."""

    def descend(prefix: list[Part], budget: int, bound: tuple[int, int]) -> Iterator[Partition]:
        yield tuple(prefix)
        for mag in range(min(budget, bound[0]), 0, -1):
            for colorrank in (1, 0):
                if (mag, colorrank) > bound:
                    continue
                prefix.append((mag, PLUS if colorrank else MINUS))
                yield from descend(prefix, budget - mag, (mag, colorrank))
                prefix.pop()

    if max_size < 0:
        return iter(())
    return descend([], max_size, (max_size, 1))


def _violation_ending_at(parts: Sequence[Part], i: int, d1: bool, d2: bool, d3: bool, d4: bool) -> bool:
    """A condition violation in a window ending at index i.

    All conditions are contiguous-window properties, so pruning a DFS on
    the first violating suffix window is exact.
    """
    p = parts[i]
    if d4 and p in _D4_BANNED:
        return True
    if i == 0:
        return False
    a = parts[i - 1]
    if d1 and not _d1_ok(a, p):
        return True
    if d2 and not _d2_ok(a, p):
        return True
    return d3 and _d3_violation_ending_at(parts, i)


def enumerate_2colored(max_size: int, cond: Iterable[str] = ()) -> list[Partition]:
    """All 2-colored partitions of size <= max_size meeting the conditions.

    Depth-first generation appending parts weakly decreasing in the part
    order, pruning on the remaining size and on any violated window; the
    result is sorted by (size, length, part sequence, colors) for a
    deterministic contract.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    cset = frozenset(cond)
    unknown = cset - {"D1", "D2", "D3", "D4"}
    if unknown:
        raise ValueError(f"unknown conditions: {sorted(unknown)}")
    d1, d2, d3, d4 = ("D1" in cset), ("D2" in cset), ("D3" in cset), ("D4" in cset)
    results: list[Partition] = []

    def descend(prefix: list[Part], budget: int, bound: tuple[int, int]) -> None:
        results.append(tuple(prefix))
        for mag in range(min(budget, bound[0]), 0, -1):
            for colorrank in (1, 0):
                if (mag, colorrank) > bound:
                    continue
                prefix.append((mag, PLUS if colorrank else MINUS))
                if not _violation_ending_at(prefix, len(prefix) - 1, d1, d2, d3, d4):
                    descend(prefix, budget - mag, (mag, colorrank))
                prefix.pop()

    descend([], max_size, (max_size, 1))
    results.sort(
        key=lambda t: (size(t), len(t), tuple((-m, -c) for m, c in map(part_key, t)))
    )
    return results


def gen_fun(partitions: Iterable[Partition], qorder: int) -> BiSeries:
    """Sum of x^length * q^size over the given partitions, as a BiSeries."""
    slices: dict[int, list[int]] = {}
    for lam in partitions:
        n = size(lam)
        if n >= qorder:
            raise TruncationError(f"partition of size {n} does not fit below q^{qorder}")
        row = slices.setdefault(len(lam), [0] * qorder)
        row[n] += 1
    return BiSeries(qorder, {m: QSeries(qorder, row) for m, row in slices.items()})
