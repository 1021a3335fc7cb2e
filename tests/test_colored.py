"""2-colored partitions: conditions, patterns, enumeration."""

import pytest

from qpart.colored import (
    COND_D123,
    COND_D1234,
    check_condition,
    enumerate_2colored,
    family_windows,
    from_pairs,
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


def test_condition_examples():
    assert check_condition(((2, P), (1, M)), {"D1", "D2", "D3"})
    assert not check_condition(((1, P), (1, P)), {"D1"})
    assert not check_condition(((3, M), (1, P)), {"D2"})
    assert check_condition(((4, P), (2, P)), {"D1", "D2", "D3", "D4"})


def test_condition_unknown_name():
    with pytest.raises(ValueError):
        check_condition(((2, P),), {"D9"})


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
    meta = [
        (size(l), len(l), tuple((-m, -c) for m, c in map(part_key, l)))
        for l in lams
    ]
    assert meta == sorted(meta)


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
    lam = from_pairs([("+", 4), ("-", 2), ("-", 2)])
    assert lam == ((4, P), (2, M), (2, M))
    assert from_pairs(to_pairs(lam)) == lam


def test_gen_fun_slice_valuations():
    # a counted object of x-weight m has size >= m, so slice m starts at q^m
    g = gen_fun(enumerate_2colored(11, COND_D123), 12)
    for m, s in g.slices.items():
        v = s.valuation()
        assert v is None or v >= m
