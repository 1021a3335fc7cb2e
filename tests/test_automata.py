"""Block encoding, factor-avoidance DFA, and the coupled system."""

import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import serialize
from qpart.automata import (
    ALPHABET,
    FORBIDDEN_WORDS,
    PI,
    Dfa,
    NotEncodable,
    build_avoidance_dfa,
    canonical_relabel,
    decode,
    derive_transfer_system,
    encode,
    minimize,
    solve_language_series,
)
from qpart.colored import COND_D123, COND_D1234, check_condition, enumerate_2colored, gen_fun, iter_all
from qpart.holonomic import poly_times_biseries
from qpart.laurent import LaurentPoly
from qpart.series import BiSeries

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "qpart" / "golden"


def word_contains_factor(word: str, factors: tuple[str, ...] = FORBIDDEN_WORDS) -> bool:
    """The oracle for the avoidance DFA: a plain substring search."""
    return any(f in word for f in factors)


def accepts(dfa: Dfa, word: str) -> bool:
    """Run the DFA's table on the word."""
    s = dfa.start
    for ch in word:
        s = dfa.delta[s][dfa.alphabet.index(ch)]
    return s in dfa.accepts


def separable(d1: Dfa, s1: int, d2: Dfa, s2: int) -> bool:
    """True iff some word takes exactly one of d1 from s1 and d2 from s2 to
    an accept state: a BFS over the state pairs reachable from (s1, s2)."""
    pairs = [(s1, s2)]
    seen = set(pairs)
    for a, b in pairs:
        if (a in d1.accepts) != (b in d2.accepts):
            return True
        for t in zip(d1.delta[a], d2.delta[b]):
            if t not in seen:
                seen.add(t)
                pairs.append(t)
    return False


def reachable(dfa: Dfa) -> set[int]:
    seen = {dfa.start}
    todo = [dfa.start]
    for s in todo:
        for t in dfa.delta[s]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def assert_minimal(dfa: Dfa) -> None:
    """Every state is reachable and no two states accept the same words."""
    assert reachable(dfa) == set(range(dfa.n_states))
    for s in range(dfa.n_states):
        for t in range(s):
            assert separable(dfa, s, dfa, t), (dfa, s, t)


def letter_weight(letter: str) -> tuple[int, int]:
    """(length, size) of the block image of a letter."""
    img = PI[letter]
    return len(img), sum(m for m, _ in img)


def test_alphabet_data():
    assert len(ALPHABET) == 13 and len(PI) == 13
    assert len(FORBIDDEN_WORDS) == 48
    assert all(len(w) == 2 for w in FORBIDDEN_WORDS)
    assert all(m <= 3 for img in PI.values() for m, _ in img)


def test_decode_example():
    assert decode("maei") == ((11, "-"), (10, "+"), (8, "-"), (3, "+"), (3, "-"))


def test_decode_all_a():
    assert decode("aaaa") == ()


def test_encode_example():
    assert encode(((4, "+"), (2, "+"))) == "db"


def test_encode_not_encodable():
    with pytest.raises(NotEncodable):
        encode(((2, "+"), (2, "+")))


def test_round_trip_and_language_equivalence():
    # decode(encode(lam)) = lam on encodable partitions (so decode is
    # injective there); membership in the D1-D3 class is equivalent to
    # avoiding the forbidden factors; exhaustive through size 18
    seen = set()
    for lam in iter_all(18):
        try:
            w = encode(lam)
        except NotEncodable:
            assert not check_condition(lam, COND_D123)
            continue
        assert decode(w) == lam
        assert w not in seen or lam == ()
        seen.add(w)
        assert check_condition(lam, COND_D123) == (not word_contains_factor(w))


def test_minimal_dfa_matches_golden():
    dfa = build_avoidance_dfa()
    golden = json.loads((GOLDEN / "dfa_canonical.json").read_text())
    assert dfa.n_states == 6
    assert len(dfa.accepts) == 1
    assert dfa.to_json() == golden


def test_minimization_is_fixed_point():
    dfa = build_avoidance_dfa()
    assert minimize(dfa) == dfa
    assert canonical_relabel(dfa) == dfa


def test_minimization_drops_unreachable_states():
    # a second accepting sink that no state enters
    dfa = build_avoidance_dfa()
    sink = (dfa.n_states,) * len(dfa.alphabet)
    padded = Dfa(dfa.n_states + 1, dfa.alphabet, dfa.delta + (sink,), dfa.start,
                 dfa.accepts | {dfa.n_states})
    assert minimize(padded) == dfa


def test_small_word_sets():
    assert build_avoidance_dfa(("b",)).n_states == 2
    assert build_avoidance_dfa(("fb",)).n_states == 3


def test_dfa_run_agrees_with_factor_search():
    dfa = build_avoidance_dfa()
    for word in ("", "abc", "fb", "afba", "ffff", "maei", "md", "hi", "ih", "jj", "aj"):
        assert accepts(dfa, word) == word_contains_factor(word)


_BUNDLED_DFA = build_avoidance_dfa()


@settings(max_examples=300, deadline=None)
@given(st.text(ALPHABET, max_size=10))
def test_bundled_dfa_accepts_exactly_the_words_with_a_forbidden_factor(word):
    assert accepts(_BUNDLED_DFA, word) == word_contains_factor(word)


@st.composite
def word_sets_and_words(draw):
    # factors and words share a few letters so that both answers are common
    letters = "".join(draw(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3, unique=True)))
    words = tuple(draw(st.lists(st.text(letters, min_size=1, max_size=3), min_size=1, max_size=4)))
    return words, draw(st.lists(st.text(letters + ALPHABET[-1], max_size=8), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(word_sets_and_words())
# "c" ends the prefix "bc" of "bcd": the trie node of "bc" must accept too
@example((("bcd", "c"), ["bc", "abca", "bcb"]))
def test_dfa_accepts_exactly_the_words_with_a_factor_from_its_set(case):
    words, tests = case
    dfa = build_avoidance_dfa(words)
    for word in tests:
        assert accepts(dfa, word) == word_contains_factor(word, words), (words, word)


@st.composite
def small_word_sets(draw):
    alphabet = "".join(draw(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3, unique=True)))
    words = draw(st.lists(st.text(alphabet, min_size=1, max_size=4), min_size=1, max_size=5))
    return tuple(words), alphabet


@settings(max_examples=150, deadline=None)
@given(small_word_sets())
@example((("bcd", "c"), "bcd"))
@example((("ab", "abc", "b"), "abc"))
def test_dfa_accepts_exactly_the_words_up_to_length_5_with_a_factor(case):
    words, alphabet = case
    dfa = build_avoidance_dfa(words, alphabet)
    for n in range(6):
        for letters in product(alphabet, repeat=n):
            word = "".join(letters)
            assert accepts(dfa, word) == word_contains_factor(word, words), (words, word)


@settings(max_examples=150, deadline=None)
@given(small_word_sets())
def test_dfa_states_are_pairwise_distinguishable(case):
    assert_minimal(build_avoidance_dfa(*case))


@st.composite
def complete_dfas(draw):
    alphabet = draw(st.sampled_from(("a", "ab", "abc")))
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    delta = tuple(tuple(draw(state) for _ in alphabet) for _ in range(n))
    accepts = frozenset(draw(st.sets(state)))
    return Dfa(n, alphabet, delta, draw(state), accepts)


@settings(max_examples=300, deadline=None)
@given(complete_dfas())
def test_minimize_keeps_the_language_and_is_idempotent(dfa):
    m = minimize(dfa)
    assert not separable(dfa, dfa.start, m, m.start)
    assert_minimal(m)
    assert minimize(m) == m


def test_transfer_matrix_matches_golden():
    system = derive_transfer_system(build_avoidance_dfa())
    golden = json.loads((GOLDEN / "transfer_matrix.json").read_text())
    assert list(system.states) == golden["states"]
    assert [[e.to_json() for e in row] for row in system.matrix] == golden["matrix"]


def test_single_state_weight_sum():
    # a one-state all-accepting-nothing DFA collects the total letter weight;
    # frozen from the letter-weight oracle (sum over the 13 block images)
    delta = (tuple(0 for _ in ALPHABET),)
    dfa = Dfa(1, ALPHABET, delta, 0, frozenset())
    system = derive_transfer_system(dfa)
    x = LaurentPoly.variable(("x", "q"), "x")
    q = LaurentPoly.variable(("x", "q"), "q")
    expected = (
        1 + 2 * x * q + 2 * x * q ** 2 + 2 * x * q ** 3
        + 2 * x ** 2 * q ** 3 + 3 * x ** 2 * q ** 4 + x ** 2 * q ** 6
    )
    assert system.matrix[0][0] == expected
    total = LaurentPoly.zero(("x", "q"))
    for letter in ALPHABET:
        ell, sz = letter_weight(letter)
        total = total + LaurentPoly.monomial(("x", "q"), (ell, sz))
    assert total == expected


def test_accepting_start_gives_empty_system():
    delta = ((0,) * len(ALPHABET),)
    dfa = Dfa(1, ALPHABET, delta, 0, frozenset({0}))
    system = derive_transfer_system(dfa)
    assert system.states == ()
    assert system.matrix == ()


def test_language_series_counts_partition_classes():
    n = 16
    system = derive_transfer_system(build_avoidance_dfa())
    sols = solve_language_series(system, n)
    assert sols[0] == gen_fun(enumerate_2colored(n - 1, COND_D123), n)
    assert sols[1] == gen_fun(enumerate_2colored(n - 1, COND_D1234), n)
    assert solve_language_series(system, 1)[0] == BiSeries.one(1)


def test_language_series_nonnegative_and_consistent():
    n = 15
    system = derive_transfer_system(build_avoidance_dfa())
    sols = solve_language_series(system, n)
    for s in sols.values():
        assert all(c >= 0 for sl in s.slices.values() for c in sl.coeffs)
    # substituting the solutions back into the system holds mod q^n
    for i, u in enumerate(system.states):
        rhs = BiSeries.zero(n)
        for j, v in enumerate(system.states):
            entry = system.matrix[i][j]
            if not entry.is_zero():
                rhs = rhs + poly_times_biseries(entry, sols[v], system.shift)
        assert rhs == sols[u]


def test_dfa_json_and_dot():
    dfa = build_avoidance_dfa()
    dot = dfa.to_dot()
    assert dot.count("doublecircle") == 1 and "digraph" in dot


def test_a_dfa_over_an_unsorted_alphabet_survives_a_json_round_trip():
    dfa = build_avoidance_dfa(("ba",), "ba")
    assert json.loads(serialize.dumps(dfa.to_json())) == {
        "states": [0, 1, 2], "start": 0, "accepts": [2],
        "delta": {"0": {"a": 0, "b": 1}, "1": {"a": 2, "b": 1}, "2": {"a": 2, "b": 2}},
    }
    assert dfa == build_avoidance_dfa(("ba",), "ab")


def test_a_repeated_letter_in_the_alphabet_is_rejected():
    with pytest.raises(ValueError, match="repeated letter"):
        build_avoidance_dfa(("ab",), "aba")
