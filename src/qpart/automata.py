"""Block encoding of 2-colored partitions and factor-avoidance automata.

Partitions are encoded as infinite words over a 13-letter alphabet
``a``..``m``: letter number k of a word contributes a fixed small partition
(its "block image"), shifted up by 3(k-1), and the partition is the sorted
concatenation of all contributions.  Block k only ever contributes parts
with magnitudes in (3k-3, 3k], so distinct blocks never interleave.

A finite set J of forbidden two-letter factors characterizes the encoded
partitions satisfying the difference conditions; the minimal complete DFA
recognizing "contains a factor from J" has the suffixes of the input that
are proper prefixes of a word as its states, reduced by Moore refinement;
its non-accepting part yields a coupled system of q-difference equations in
x for the generating functions, solved by ``holonomic.solve_shift_system``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colored import PLUS, MINUS, Part, Partition, part_key, validate
from .holonomic import XQ_VARS, solve_shift_system
from .laurent import LaurentPoly
from .series import BiSeries

ALPHABET = "abcdefghijklm"

#: block image of each letter (parts with magnitudes in 1..3)
PI: dict[str, Partition] = {
    "a": (),
    "b": ((1, PLUS),),
    "c": ((1, MINUS),),
    "d": ((2, PLUS),),
    "e": ((2, MINUS),),
    "f": ((3, PLUS),),
    "g": ((3, MINUS),),
    "h": ((2, PLUS), (1, MINUS)),
    "i": ((2, MINUS), (1, PLUS)),
    "j": ((3, PLUS), (1, PLUS)),
    "k": ((3, PLUS), (1, MINUS)),
    "l": ((3, MINUS), (1, MINUS)),
    "m": ((3, PLUS), (3, MINUS)),
}

_PI_INVERSE = {img: letter for letter, img in PI.items()}

#: forbidden two-letter factors for the difference conditions D1-D3
FORBIDDEN_WORDS: tuple[str, ...] = (
    "fb", "gb", "jb", "kb", "lb", "mb",
    "lc", "mc", "jc", "kc", "fc", "gc",
    "md",
    "fe", "je", "ke", "me",
    "hi", "fi", "gi", "ji", "ki", "li", "mi",
    "fh", "gh", "jh", "kh", "lh", "mh",
    "fj", "gj", "jj", "kj", "lj", "mj",
    "fk", "gk", "jk", "kk", "lk", "mk",
    "fl", "gl", "jl", "kl", "ll", "ml",
)


class NotEncodable(ValueError):
    """Raised when a partition's blocks do not match the letter images."""


def decode(word: str) -> Partition:
    """Concatenate the shifted block images of a finite word and sort.

    Trailing ``a`` letters are implicit; the result is the smallest
    partition containing every shifted block image.
    """
    parts: list[Part] = []
    for k, letter in enumerate(word, start=1):
        shift = 3 * (k - 1)
        parts.extend((m + shift, c) for m, c in PI[letter])
    parts.sort(key=part_key, reverse=True)
    return validate(parts)


def encode(parts: Partition) -> str:
    """Inverse of :func:`decode` on its image.

    Groups parts into blocks of magnitudes (3k-3, 3k]; every block must be
    the shift of some letter image, else :class:`NotEncodable` is raised.
    """
    blocks: dict[int, list[Part]] = {}
    for m, c in parts:
        k = (m + 2) // 3  # block index: magnitudes 3k-2..3k
        blocks.setdefault(k, []).append((m - 3 * (k - 1), c))
    if not blocks:
        return ""
    word = []
    for k in range(1, max(blocks) + 1):
        img = tuple(blocks.get(k, ()))
        letter = _PI_INVERSE.get(img)
        if letter is None:
            raise NotEncodable(f"block {k} content {img} is not a letter image")
        word.append(letter)
    return "".join(word)


# ----------------------------------------------------------------------
# DFA


@dataclass(frozen=True)
class Dfa:
    """A complete DFA with states 0..n-1 over a fixed alphabet."""

    n_states: int
    alphabet: str
    delta: tuple[tuple[int, ...], ...]  # delta[state][letter_index]
    start: int
    accepts: frozenset[int]

    def to_json(self) -> dict:
        return {
            "states": list(range(self.n_states)),
            "start": self.start,
            "accepts": sorted(self.accepts),
            "delta": {
                str(s): {ch: self.delta[s][i] for i, ch in enumerate(self.alphabet)}
                for s in range(self.n_states)
            },
        }

    def to_dot(self) -> str:
        lines = ["digraph dfa {", "  rankdir=LR;", '  init [shape=point, label=""];']
        for s in range(self.n_states):
            shape = "doublecircle" if s in self.accepts else "circle"
            lines.append(f"  {s} [shape={shape}];")
        lines.append(f"  init -> {self.start};")
        for s in range(self.n_states):
            grouped: dict[int, list[str]] = {}
            for i, ch in enumerate(self.alphabet):
                grouped.setdefault(self.delta[s][i], []).append(ch)
            for t in sorted(grouped):
                label = ",".join(grouped[t])
                lines.append(f'  {s} -> {t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _factor_dfa(words: tuple[str, ...], alphabet: str) -> Dfa:
    """Complete DFA for 'some word of ``words`` occurs as a factor'.

    A state is the longest suffix of the input so far that is a proper
    prefix of some word, found by a BFS from the empty suffix.  A letter
    that completes a word goes to one absorbing accept state (state 0),
    since a seen factor can never be unseen.  The letters are taken in
    sorted order, so that one language gives one DFA whatever the order
    of ``alphabet``.
    """
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("repeated letter in alphabet")
    alphabet = "".join(sorted(alphabet))
    if not words:
        raise ValueError("word set must be nonempty")
    for w in words:
        if not w:
            raise ValueError("empty forbidden word")
        for ch in w:
            if ch not in alphabet:
                raise ValueError(f"letter {ch!r} not in alphabet")
    word_set = set(words)
    prefixes = {w[:i] for w in words for i in range(len(w))}
    order = [""]
    ids = {"": 1}
    delta = [(0,) * len(alphabet)]
    for s in order:
        row = []
        for ch in alphabet:
            t = s + ch
            if any(t[i:] in word_set for i in range(len(t))):
                row.append(0)
                continue
            # the empty suffix is a proper prefix of every word, so one is found
            suffix = next(t[i:] for i in range(len(t) + 1) if t[i:] in prefixes)
            if suffix not in ids:
                ids[suffix] = len(ids) + 1
                order.append(suffix)
            row.append(ids[suffix])
        delta.append(tuple(row))
    return Dfa(len(delta), alphabet, tuple(delta), 1, frozenset({0}))


def minimize(dfa: Dfa) -> Dfa:
    """The minimal complete DFA of the same language, by Moore refinement.

    Each round keys a state by its block and the blocks of its successors;
    the blocks are the Myhill-Nerode classes once a round adds none.  The
    final relabel drops the blocks that the start cannot reach, so the
    unreachable states need not be removed first.
    """
    block = [int(s in dfa.accepts) for s in range(dfa.n_states)]
    count = len(set(block))
    while True:
        keys: dict[tuple[int, ...], int] = {}
        block = [keys.setdefault((block[s], *(block[t] for t in row)), len(keys))
                 for s, row in enumerate(dfa.delta)]
        if len(keys) == count:
            break
        count = len(keys)
    rep = {b: s for s, b in enumerate(block)}
    delta = tuple(tuple(block[t] for t in dfa.delta[rep[b]]) for b in range(count))
    out = Dfa(count, dfa.alphabet, delta, block[dfa.start], frozenset(block[a] for a in dfa.accepts))
    return canonical_relabel(out)


def canonical_relabel(dfa: Dfa) -> Dfa:
    """Rename the reachable states in BFS order from the start, letters in
    alphabet order; unreachable states are dropped."""
    order = [dfa.start]
    remap = {dfa.start: 0}
    for s in order:
        for i in range(len(dfa.alphabet)):
            t = dfa.delta[s][i]
            if t not in remap:
                remap[t] = len(remap)
                order.append(t)
    delta = tuple(
        tuple(remap[dfa.delta[s][i]] for i in range(len(dfa.alphabet))) for s in order
    )
    return Dfa(len(order), dfa.alphabet, delta, 0, frozenset(remap[a] for a in dfa.accepts if a in remap))


def build_avoidance_dfa(words: tuple[str, ...] | None = None, alphabet: str = ALPHABET) -> Dfa:
    """Minimal complete DFA recognizing words with a factor from ``words``, by default ``FORBIDDEN_WORDS``."""
    return minimize(_factor_dfa(FORBIDDEN_WORDS if words is None else words, alphabet))


# ----------------------------------------------------------------------
# transfer system

@dataclass(frozen=True)
class TransferSystem:
    """The coupled q-difference system over the non-accepting states.

    Component u satisfies F_u(x) = sum_v M[u][v] * F_v(x * q^shift) with
    M[u][v] collecting x^length * q^size over letters sending u to v.
    """

    states: tuple[int, ...]  # non-accepting states, BFS order
    matrix: tuple[tuple[LaurentPoly, ...], ...]
    shift: int  # block width: the x-argument advances by q^shift

    def to_json(self) -> dict:
        return {
            "states": list(self.states),
            "shift": self.shift,
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
        }


def derive_transfer_system(dfa: Dfa) -> TransferSystem:
    """The system over the non-accepting states of ``dfa``, each letter
    weighted by its block image under ``PI``; blocks are 3 wide."""
    states = tuple(s for s in range(dfa.n_states) if s not in dfa.accepts)
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for u in states:
        row = [LaurentPoly.zero(XQ_VARS) for _ in states]
        for ch, v in zip(dfa.alphabet, dfa.delta[u]):
            if v not in dfa.accepts:
                img = PI[ch]
                row[index[v]] = row[index[v]] + LaurentPoly.monomial(XQ_VARS, (len(img), sum(m for m, _ in img)))
        rows.append(tuple(row))
    return TransferSystem(states, tuple(rows), 3)


def solve_language_series(system: TransferSystem, qorder: int) -> dict[int, BiSeries]:
    """Solve the coupled system for all components mod q^qorder.

    Every term shifts x by the block width, q^3 for a derived system, which
    meets the shared solver's requirement of x-shifts >= 1.
    """
    equations = {
        u: [(entry, system.shift, v) for entry, v in zip(row, system.states) if not entry.is_zero()]
        for u, row in zip(system.states, system.matrix)
    }
    return solve_shift_system(equations, qorder)
