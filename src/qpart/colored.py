"""Two-colored partitions, their difference conditions, and forbidden patterns.

A part is a pair (magnitude, color) with magnitude >= 1 and color '+' or '-'.
Parts are ordered by

    ... > 3 > 3- > 2 > 2- > 1 > 1-

(magnitude first; at equal magnitude the '+' copy is larger), and a 2-colored
partition is a weakly decreasing sequence of parts under this order.

Two equivalent descriptions of the same partition classes are implemented:

* the local difference conditions D1-D4 on consecutive parts, and
* a list of seven families of forbidden contiguous patterns.

All conditions are local to windows of at most four consecutive parts.
``check_condition`` tests only the windows ending at a part at most ``NEAR``
(2) below the one before it, or, under D4, of magnitude <= 2.  The listing
walks a successor table that each walk fills lazily from ``_violation_ending_at``
(so ``iter_all(500)`` starts at once); D3, the only condition over 3-4 parts,
is tested on the prefix during the walk, and only at a gap <= NEAR.
The pattern test reads the families only through ``family_windows``: it
looks up each window among the literal family instances, and is
cross-checked in the test suite against literal pattern matching over all
the family generators.  Both tests can skip the windows ending before a
``start``: ``pattern-equivalence`` tests each partition of the preorder walk
at its last part and carries the rest from its prefix.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter
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


def validate(parts: Sequence[Part]) -> Partition:
    t = tuple(parts)
    for p in t:
        part(*p)
    if any(part_key(a) < part_key(b) for a, b in zip(t, t[1:])):
        raise ValueError(f"parts not weakly decreasing: {t}")
    return t


def size(parts: Sequence[Part]) -> int:
    return sum(map(itemgetter(0), parts))


def to_pairs(parts: Sequence[Part]) -> list[list]:
    return [[c, m] for m, c in parts]


# ----------------------------------------------------------------------
# difference conditions as window predicates


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


_D4_BANNED = frozenset({(1, PLUS), (1, MINUS), (2, MINUS)})
#: D4 bans parts of magnitude at most this
_D4_TOP = max(m for m, _ in _D4_BANNED)

#: A window ending at part i can break D1-D3 only if part i lies at most
#: NEAR below part i-1: D1 needs a gap <= 1 and D2 a gap of exactly 2; the
#: D3 3-windows end at a gap of 0 or 2 and the D3 4-window at a gap of 1.
#: D4 bans only parts of magnitude <= _D4_TOP.  ``check_condition`` skips the
#: other windows, and the walk's successor table flags a D3 test only at a gap <= NEAR.
NEAR = 2


def _violation_ending_at(parts: Sequence[Part], i: int, d1: bool, d2: bool, d3: bool, d4: bool) -> bool:
    """A condition violation in a window ending at index i.

    All conditions are contiguous-window properties, so a partition meets
    them iff no index ends a violation, and pruning a DFS on the first
    violating suffix window is exact.
    """
    p = parts[i]
    if d4 and p in _D4_BANNED:
        return True
    if i == 0:
        return False
    a = parts[i - 1]
    gap = a[0] - p[0]
    # D1: parts differing by at most 1 must sum to a multiple of 3 and
    # carry opposite colors
    if d1 and gap <= 1 and ((a[0] + p[0]) % 3 or a[1] == p[1]):
        return True
    # D2: a gap of exactly 2 with sum not a multiple of 3 excludes colors (-, +)
    if d2 and gap == 2 and (a[0] + p[0]) % 3 and a[1] == MINUS and p[1] == PLUS:
        return True
    # D3: the length-3 windows need a middle magnitude 0 mod 3 and the
    # length-4 window a last magnitude 1 mod 3; test those before comparing
    if d3 and i >= 2 and a[0] % 3 == 0 and _d3_win3(parts[i - 2], a, p):
        return True
    return d3 and i >= 3 and p[0] % 3 == 1 and _d3_win4(parts[i - 3], parts[i - 2], a, p)


COND_D123 = frozenset({"D1", "D2", "D3"})
COND_D1234 = frozenset({"D1", "D2", "D3", "D4"})


#: the flags of every subset of D1..D4, keyed by its names
_FLAGS = {
    frozenset(name for name, on in zip(("D1", "D2", "D3", "D4"), flags) if on): flags
    for flags in product((False, True), repeat=4)
}
#: for each choice of flags, the largest gap at which D1-D3 can fire and the
#: largest magnitude at which D4 can (-1 and 0 when none of them is selected)
_LIMITS = {flags: (NEAR if any(flags[:3]) else -1, _D4_TOP if flags[3] else 0) for flags in _FLAGS.values()}


def _condition_flags(which: Iterable[str]) -> tuple[bool, bool, bool, bool]:
    """Which of D1..D4 are selected; any other name, or a bare string, is an error."""
    try:
        return _FLAGS[which]
    except (KeyError, TypeError):  # not a frozenset of condition names
        pass
    if isinstance(which, str):
        raise ValueError(f"conditions must be a collection such as {{'D1'}}, not the string {which!r}")
    wanted = frozenset(which)
    if not wanted <= COND_D1234:
        raise ValueError(f"unknown conditions: {sorted(wanted - COND_D1234)}")
    return _FLAGS[wanted]


def check_condition(parts: Sequence[Part], which: Iterable[str], start: int = 0) -> bool:
    """Check a subset of {"D1", "D2", "D3", "D4"} on the windows ending at an index >= start.

    Only the windows that can fail are tested: those ending at a part at
    most ``NEAR`` below the one before it (a negative gap included), and,
    under D4, those ending at a part of magnitude <= 2.
    """
    flags = _condition_flags(which)
    near, low = _LIMITS[flags]
    d1, d2, d3, d4 = flags
    if start and not 0 < start <= len(parts):
        raise ValueError(f"start must be in 0..{len(parts)}, not {start}")
    # the gap is read from the part before start; the first part has none: put it out of reach
    prev = parts[start - 1][0] if start else parts[0][0] + near + 1 if parts else 0
    for i, (mag, _) in enumerate(parts[start:], start):
        if (prev - mag <= near or mag <= low) and _violation_ending_at(parts, i, d1, d2, d3, d4):
            return False
        prev = mag
    return True


# ----------------------------------------------------------------------
# forbidden-pattern families
#
# Stated over positive magnitudes; the mirror image lambda -> -lambda
# translates to the convention used for spanning arguments over negative
# indices.


@lru_cache(maxsize=None)
def _windows_ending_in(magnitude: int) -> frozenset[Partition]:
    """The family instances whose last part has this magnitude; those at
    parameter k end in magnitude >= k."""
    return frozenset(w for k in range(magnitude + 1) for w in family_windows(k) if w[-1][0] == magnitude)


def violates_forbidden_patterns(parts: Sequence[Part], start: int = 0) -> bool:
    """True iff some window of ``parts`` ending at an index >= start is an
    instance of the seven families: at each such index, the 2-, 3- and 4-part
    windows ending there are looked up among the instances ending in its magnitude."""
    if not 0 <= start <= len(parts):
        raise ValueError(f"start must be in 0..{len(parts)}, not {start}")
    for i in range(max(start, 1), len(parts)):
        wins = _windows_ending_in(parts[i][0])
        if (
            (parts[i - 1], parts[i]) in wins
            or (i >= 2 and (parts[i - 2], parts[i - 1], parts[i]) in wins)
            or (i >= 3 and (parts[i - 3], parts[i - 2], parts[i - 1], parts[i]) in wins)
        ):
            return True
    return False


def family_windows(k: int) -> list[Partition]:
    """Literal instances of the seven pattern families at parameter k."""
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


# ----------------------------------------------------------------------
# enumeration


def iter_all(max_size: int) -> Iterator[Partition]:
    """All 2-colored partitions of size <= max_size, lazily, in preorder: each nonempty
    one comes after its prefix (less its last part), with none of the prefix's length between."""
    if max_size < 0:
        return iter(())
    return (lam for _, lam in _walk(max_size, False, False, False, False))


def _walk(max_size: int, d1: bool, d2: bool, d3: bool, d4: bool) -> Iterator[tuple[int, Partition]]:
    """Depth-first generation of (size, partition) for the partitions of size <= max_size
    meeting the conditions, in preorder.  Each (previous part, budget capped at its magnitude)
    reached gets its successors once: the parts, in walk order, whose one- or two-part window
    ``_violation_ending_at`` passes with D3 off, each flagged if D3 must still be tested."""
    table: dict[tuple[Part | None, int], list[tuple[Part, bool]]] = {}

    def successors(prev: Part | None, budget: int) -> list[tuple[Part, bool]]:
        head, top = ((prev,), prev[0]) if prev else ((), max_size)
        found = []
        for p in product(range(min(budget, top), 0, -1), (PLUS, MINUS)):
            if (head and part_key(p) > part_key(prev)) or _violation_ending_at(head + (p,), len(head), d1, d2, False, d4):
                continue
            found.append((p, d3 and bool(head) and top - p[0] <= NEAR))
        return table.setdefault((prev, budget), found)

    prefix: list[Part] = []
    n = 0
    stack = [iter(successors(None, max_size))]
    yield 0, ()
    while stack:
        for p, d3_open in stack[-1]:
            prefix.append(p)
            if not (d3_open and _violation_ending_at(prefix, len(prefix) - 1, False, False, True, False)):
                n += p[0]
                yield n, tuple(prefix)
                budget = max_size - n
                key = (p, budget if budget < p[0] else p[0])
                succ = table.get(key)
                if succ is None:
                    succ = successors(*key)
                if succ:
                    stack.append(iter(succ))
                    break
                n -= p[0]
            prefix.pop()
        else:
            stack.pop()
            n -= prefix.pop()[0] if prefix else 0


def enumerate_2colored(max_size: int, cond: Iterable[str] = ()) -> list[Partition]:
    """All 2-colored partitions of size <= max_size meeting the conditions,
    by size, then length, then parts (largest first, '+' first at a tie).

    The walk tries parts in descending order, so of two partitions of one
    length (never prefixes of one another) it yields first the one larger
    where they first differ; grouping by (size, length) is the whole sort.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    buckets: dict[tuple[int, int], list[Partition]] = {}
    for n, lam in _walk(max_size, *_condition_flags(cond)):
        buckets.setdefault((n, len(lam)), []).append(lam)
    return [lam for key in sorted(buckets) for lam in buckets[key]]


def gen_fun(partitions: Iterable[Partition], qorder: int) -> BiSeries:
    """Sum of x^length * q^size over the given partitions, as a BiSeries."""
    slices: dict[int, list[int]] = {}
    for lam in partitions:
        n = size(lam)
        if n >= qorder:
            raise TruncationError(f"partition of size {n} does not fit below q^{qorder}")
        row = slices.get(len(lam))
        if row is None:
            row = slices[len(lam)] = [0] * qorder
        row[n] += 1
    return BiSeries(qorder, {m: QSeries(qorder, row) for m, row in slices.items()})
