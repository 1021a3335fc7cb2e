"""Block encoding of 2-colored partitions and factor-avoidance automata.

Partitions are encoded as infinite words over a 13-letter alphabet
``a``..``m``: letter number k of a word contributes a fixed small partition
(its "block image"), shifted up by 3(k-1), and the partition is the sorted
concatenation of all contributions.  Block k only ever contributes parts
with magnitudes in (3k-3, 3k], so distinct blocks never interleave.

A finite set J of forbidden two-letter factors characterizes the encoded
partitions satisfying the difference conditions; the minimal complete DFA
recognizing "contains a factor from J" is built by an Aho-Corasick
construction followed by Hopcroft minimization, and its non-accepting part
yields a coupled system of q-difference equations in x for the generating
functions, solved by the shared solver ``holonomic.solve_shift_system``.
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

    @classmethod
    def from_json(cls, data: dict) -> "Dfa":
        states = sorted(int(s) for s in data["states"])
        alphabet = "".join(sorted(next(iter(data["delta"].values())).keys()))
        delta = tuple(
            tuple(int(data["delta"][str(s)][ch]) for ch in alphabet) for s in states
        )
        return cls(len(states), alphabet, delta, int(data["start"]), frozenset(int(a) for a in data["accepts"]))

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


def _aho_corasick_dfa(words: tuple[str, ...], alphabet: str) -> Dfa:
    """Complete DFA for 'some word of ``words`` occurs as a factor'.

    Builds the prefix trie with Aho-Corasick failure links; nodes whose
    prefix ends in a complete word collapse into one absorbing accept
    state, since a seen factor can never be unseen.
    """
    if not words:
        raise ValueError("word set must be nonempty")
    children: list[dict[str, int]] = [{}]
    terminal: list[bool] = [False]
    for w in words:
        if not w:
            raise ValueError("empty forbidden word")
        node = 0
        for ch in w:
            if ch not in alphabet:
                raise ValueError(f"letter {ch!r} not in alphabet")
            if ch not in children[node]:
                children.append({})
                terminal.append(False)
                children[node][ch] = len(children) - 1
            node = children[node][ch]
        terminal[node] = True

    n = len(children)
    fail = [0] * n
    goto: list[dict[str, int]] = [dict() for _ in range(n)]
    order: list[int] = [0]
    for node in order:
        for ch in alphabet:
            if ch in children[node]:
                child = children[node][ch]
                fail[child] = goto[fail[node]][ch] if node else 0
                if terminal[fail[child]]:
                    terminal[child] = True
                goto[node][ch] = child
                order.append(child)
            else:
                goto[node][ch] = goto[fail[node]][ch] if node else 0

    accept = n
    delta_rows: list[list[int]] = []
    for node in range(n):
        row = []
        for ch in alphabet:
            t = goto[node][ch]
            row.append(accept if terminal[t] else t)
        delta_rows.append(row)
    delta_rows.append([accept] * len(alphabet))
    start = accept if terminal[0] else 0
    return Dfa(n + 1, alphabet, tuple(tuple(r) for r in delta_rows), start, frozenset({accept}))


def hopcroft_minimize(dfa: Dfa) -> Dfa:
    """Hopcroft's partition-refinement minimization of a complete DFA."""
    dfa = canonical_relabel(dfa)  # drops the unreachable states
    n, k = dfa.n_states, len(dfa.alphabet)
    # predecessor lists per letter
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(k)]
    for s in range(n):
        for i in range(k):
            preds[i][dfa.delta[s][i]].append(s)

    accepts = set(dfa.accepts)
    others = set(range(n)) - accepts
    partition: list[set[int]] = [s for s in (accepts, others) if s]
    block_of = [0] * n
    for b, blk in enumerate(partition):
        for s in blk:
            block_of[s] = b
    worklist: list[tuple[int, int]] = [(b, i) for b in range(len(partition)) for i in range(k)]

    while worklist:
        b, i = worklist.pop()
        splitter = partition[b]
        pre: set[int] = set()
        for t in splitter:
            pre.update(preds[i][t])
        touched: dict[int, set[int]] = {}
        for s in pre:
            touched.setdefault(block_of[s], set()).add(s)
        for blk_id, inside in touched.items():
            blk = partition[blk_id]
            if len(inside) == len(blk):
                continue
            rest = blk - inside
            small, large = (inside, rest) if len(inside) <= len(rest) else (rest, inside)
            partition[blk_id] = large
            new_id = len(partition)
            partition.append(small)
            for s in small:
                block_of[s] = new_id
            for j in range(k):
                worklist.append((new_id, j))
    remap = block_of
    n_blocks = len(partition)
    delta = [[0] * k for _ in range(n_blocks)]
    for blk_id, blk in enumerate(partition):
        rep = next(iter(blk))
        for i in range(k):
            delta[blk_id][i] = remap[dfa.delta[rep][i]]
    accepts_new = frozenset(remap[a] for a in dfa.accepts)
    out = Dfa(n_blocks, dfa.alphabet, tuple(tuple(r) for r in delta), remap[dfa.start], accepts_new)
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


def build_avoidance_dfa(words: tuple[str, ...] = FORBIDDEN_WORDS, alphabet: str = ALPHABET) -> Dfa:
    """Minimal complete DFA recognizing words containing a factor from ``words``."""
    return hopcroft_minimize(_aho_corasick_dfa(words, alphabet))


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


def derive_transfer_system(dfa: Dfa, pi: dict[str, Partition] = PI, shift: int = 3) -> TransferSystem:
    states = tuple(s for s in range(dfa.n_states) if s not in dfa.accepts)
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for u in states:
        row = [LaurentPoly.zero(XQ_VARS) for _ in states]
        for i, ch in enumerate(dfa.alphabet):
            v = dfa.delta[u][i]
            if v in dfa.accepts:
                continue
            img = pi[ch]
            ell = len(img)
            sz = sum(m for m, _ in img)
            row[index[v]] = row[index[v]] + LaurentPoly.monomial(XQ_VARS, (ell, sz))
        rows.append(tuple(row))
    return TransferSystem(states, tuple(rows), shift)


def solve_language_series(system: TransferSystem, qorder: int) -> dict[int, BiSeries]:
    """Solve the coupled system for all components mod q^qorder.

    The x-shift by q^shift makes slice m of F_v(x q^shift) lag slice m of
    F_v by q^(shift*m), so each nonconstant slice of the shared solver's
    sweep has one fixed point.
    """
    equations = {
        u: [(entry, system.shift, v) for entry, v in zip(row, system.states) if not entry.is_zero()]
        for u, row in zip(system.states, system.matrix)
    }
    return solve_shift_system(equations, qorder)
