"""2-colored partitions: conditions, patterns, enumeration."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import listing_order_key, meets_conditions_everywhere
from qpart.colored import (
    COND_D123,
    COND_D1234,
    NEAR,
    _D4_BANNED,
    _d3_win3,
    _d3_win4,
    _violation_ending_at,
    _windows_ending_in,
    check_condition,
    enumerate_2colored,
    family_windows,
    gen_fun,
    iter_all,
    part_key,
    size,
    to_pairs,
    violates_forbidden_patterns,
)
from qpart.series import TruncationError

P = "+"
M = "-"


def contains_pattern(parts, pattern) -> bool:
    """True iff ``pattern`` occurs as a contiguous factor of ``parts``."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    lq = len(pattern)
    return any(tuple(parts[i : i + lq]) == tuple(pattern) for i in range(len(parts) - lq + 1))


def violates_by_pattern_matching(parts) -> bool:
    """The oracle for violates_forbidden_patterns: the family test via contains_pattern."""
    if not parts:
        return False
    kmax = max(p[0] for p in parts) + 1
    for k in range(kmax + 1):
        for w in family_windows(k):
            if len(w) <= len(parts) and contains_pattern(parts, w):
                return True
    return False


def meets_conditions_by_literal_windows(parts, which) -> bool:
    """The oracle for the D3 guards, for conditions that include D3: the
    others by check_condition, then _d3_win3/_d3_win4 on every window."""
    return (
        check_condition(parts, set(which) - {"D3"})
        and not any(_d3_win3(*parts[i : i + 3]) for i in range(len(parts) - 2))
        and not any(_d3_win4(*parts[i : i + 4]) for i in range(len(parts) - 3))
    )


ALL_CONDITION_SUBSETS = [
    frozenset(sub) for r in range(5) for sub in itertools.combinations(("D1", "D2", "D3", "D4"), r)
]


def test_condition_examples():
    assert check_condition(((2, P), (1, M)), {"D1", "D2", "D3"})
    assert not check_condition(((1, P), (1, P)), {"D1"})
    assert not check_condition(((3, M), (1, P)), {"D2"})
    assert check_condition(((4, P), (2, P)), {"D1", "D2", "D3", "D4"})


def test_condition_unknown_name():
    with pytest.raises(ValueError):
        check_condition(((2, P),), {"D9"})


def test_a_bare_string_of_conditions_is_rejected():
    # read character by character, "D1" would be the unknown names 'D' and '1'
    for call in (lambda: check_condition(((2, P),), "D1"), lambda: enumerate_2colored(3, "D1")):
        with pytest.raises(ValueError, match=r"collection such as \{'D1'\}"):
            call()


def test_d3_guards_match_the_literal_windows():
    with_d3 = [sub for sub in ALL_CONDITION_SUBSETS if "D3" in sub]
    assert len(with_d3) == 8
    for lam in iter_all(14):
        for sub in with_d3:
            assert check_condition(lam, sub) == meets_conditions_by_literal_windows(lam, sub), (lam, sub)
    # each of the three excluded windows occurs below size 15
    for lam in (((3, P), (3, M), (1, M)), ((5, P), (3, P), (3, M)), ((5, M), (4, P), (2, P), (1, M))):
        assert not check_condition(lam, {"D3"})


def test_contains_pattern_examples():
    lam = ((3, P), (3, M), (1, M))
    assert contains_pattern(lam, lam)
    assert not contains_pattern(((5, P), (3, P), (3, M)), ((3, P), (3, M), (1, M)))
    with pytest.raises(ValueError):
        contains_pattern(lam, ())


def test_forbidden_examples():
    assert violates_forbidden_patterns(((2, P), (2, P)))
    assert violates_forbidden_patterns(((5, P), (3, P), (3, M)))
    assert not violates_forbidden_patterns(((4, P), (2, P)))


def test_window_predicates_match_pattern_generators():
    for lam in iter_all(12):
        assert violates_forbidden_patterns(lam) == violates_by_pattern_matching(lam)


def test_the_pattern_test_reaches_no_condition_code():
    conditions = {"_violation_ending_at", "_d3_win3", "_d3_win4", "check_condition", "_condition_flags"}
    partitions = list(iter_all(12))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)

    _windows_ending_in.cache_clear()
    sys.setprofile(profile)
    try:
        for lam in partitions:
            violates_forbidden_patterns(lam)
    finally:
        sys.setprofile(None)
    assert {"violates_forbidden_patterns", "_windows_ending_in", "family_windows"} <= called
    assert not called & conditions


def test_equivalence_small():
    for lam in iter_all(12):
        assert check_condition(lam, COND_D123) == (not violates_forbidden_patterns(lam))


def test_enumeration_counts_d123():
    lams = enumerate_2colored(3, COND_D123)
    counts = {}
    for lam in lams:
        counts[size(lam)] = counts.get(size(lam), 0) + 1
    assert counts == {0: 1, 1: 2, 2: 2, 3: 4}


def test_enumeration_d1234_size7():
    lams = [lam for lam in enumerate_2colored(7, COND_D1234) if size(lam) == 7]
    assert sorted(lams) == sorted(
        [((7, P),), ((7, M),), ((5, P), (2, P)), ((5, M), (2, P))]
    )


def test_enumeration_empty():
    assert enumerate_2colored(0) == [()]


def test_monotone_filtration():
    wide = set(enumerate_2colored(10, COND_D123))
    narrow = set(enumerate_2colored(10, COND_D1234))
    assert narrow <= wide


def test_enumeration_weakly_decreasing_and_ordered():
    lams = enumerate_2colored(9, COND_D123)
    for lam in lams:
        keys = [part_key(p) for p in lam]
        assert keys == sorted(keys, reverse=True)
    assert lams == sorted(lams, key=listing_order_key)


@pytest.mark.parametrize("cond", ALL_CONDITION_SUBSETS, ids=lambda c: "".join(sorted(c)) or "none")
def test_listing_is_the_filtered_walk_in_the_sort_key_order(cond):
    expected = sorted((lam for lam in iter_all(12) if meets_conditions_everywhere(lam, cond)), key=listing_order_key)
    assert enumerate_2colored(12, cond) == expected


def test_the_successor_table_reads_the_predicate_at_each_walk(monkeypatch):
    # (6+, 4+) passes D1-D3 and occurs in the listing; the predicate below
    # also bans it under D2, so every walk must take its pair verdicts from
    # the predicate as it is when the walk runs, and restate or keep none
    import qpart.colored as colored

    banned = ((6, P), (4, P))
    listing = enumerate_2colored(14, COND_D123)
    held = [lam for lam in listing if any(lam[i : i + 2] == banned for i in range(len(lam) - 1))]
    assert held

    def also_banning(parts, i, d1, d2, d3, d4):
        return (d2 and i >= 1 and tuple(parts[i - 1 : i + 1]) == banned) or _violation_ending_at(parts, i, d1, d2, d3, d4)

    monkeypatch.setattr(colored, "_violation_ending_at", also_banning)
    assert enumerate_2colored(14, COND_D123) == [lam for lam in listing if lam not in held]
    monkeypatch.undo()
    assert enumerate_2colored(14, COND_D123) == listing


@pytest.mark.parametrize("cond", [COND_D123, COND_D1234], ids=["D123", "D1234"])
def test_d3_pruning_past_the_first_residue_period(cond):
    """At size 36 the D3 windows reach magnitudes in several residue periods
    (the 4-window sums to 4m+8, the 3-windows to 3m+-2): the walk that prunes
    D3 lists exactly the check_condition filter of the walk without it."""
    listing = enumerate_2colored(36, cond)
    assert listing == [lam for lam in enumerate_2colored(36, cond - {"D3"}) if check_condition(lam, cond)]
    assert listing == sorted(listing, key=listing_order_key)


def test_check_condition_tests_every_window_that_can_fail():
    # any sequence of up to four parts, increasing ones (negative gaps) too
    parts = [(m, c) for m in range(1, 7) for c in (P, M)]
    seqs = [seq for n in range(5) for seq in itertools.product(parts, repeat=n)]
    for cond in (COND_D123, COND_D1234, {"D1"}, {"D2"}, {"D3"}, {"D4"}):
        assert [check_condition(seq, cond) for seq in seqs] == [meets_conditions_everywhere(seq, cond) for seq in seqs]


def test_only_near_windows_break_d1_to_d3_and_d4_bans_its_parts():
    """The lemma behind NEAR, over every weakly decreasing window of 2-4
    parts with magnitudes 1..12 (four residue periods mod 3)."""
    parts = sorted(((m, c) for m in range(1, 13) for c in (P, M)), key=part_key, reverse=True)
    fired_at_near = False
    for n in (2, 3, 4):
        for win in itertools.combinations_with_replacement(parts, n):
            i = n - 1
            gap = win[-2][0] - win[-1][0]
            d123 = _violation_ending_at(win, i, True, True, True, False)
            assert not (d123 and gap > NEAR), win
            fired_at_near = fired_at_near or (d123 and gap == NEAR)
            assert _violation_ending_at(win, i, False, False, False, True) == (win[-1] in _D4_BANNED), win
    # the bound is tight: a window at a gap of exactly NEAR does fire
    assert fired_at_near


def test_iter_all_is_lazy():
    # listing every partition of size <= 500 first would never finish; the
    # child process is killed if it runs past the timeout
    script = "import itertools; from qpart.colored import iter_all; print(list(itertools.islice(iter_all(500), 5)))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == repr([(), ((500, P),), ((500, M),), ((499, P),), ((499, P), (1, P))]) + "\n"


def test_gen_fun_d123_low_order():
    g = gen_fun(enumerate_2colored(3, COND_D123), 4)
    assert g.coeff(0, 0) == 1
    assert g.coeff(1, 1) == 2 and g.coeff(1, 2) == 2
    assert g.coeff(1, 3) == 2 and g.coeff(2, 3) == 2


def test_gen_fun_empty_and_truncation():
    assert gen_fun([], 5).is_zero()
    with pytest.raises(TruncationError):
        gen_fun([((5, P),)], 5)


def test_gen_fun_d1234_q6():
    g = gen_fun(enumerate_2colored(6, COND_D1234), 7)
    assert g.coeff(1, 6) == 2 and g.coeff(2, 6) == 3


def test_pairs_round_trip():
    lam = ((4, P), (2, M), (2, M))
    assert to_pairs(lam) == [["+", 4], ["-", 2], ["-", 2]]


def test_gen_fun_slice_valuations():
    # a counted object of x-weight m has size >= m, so slice m starts at q^m
    g = gen_fun(enumerate_2colored(11, COND_D123), 12)
    for m, s in g.slices.items():
        v = s.valuation()
        assert v is None or v >= m
