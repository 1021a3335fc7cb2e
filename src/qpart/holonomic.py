"""q-holonomic machinery: hypergeometric terms, certificates, and operators.

The objects here live over the variable list (q, u, v1, v2, v3) where
u = q^n and v_i = q^(k_i) for the summation variables.  A proper term

    F(n, k) = q^Q(n,k) / prod_i (q^(m_i); q^(m_i))_{L_i(n,k)}

has all its shift quotients F(n-i, k-j)/F(n, k) rational in these
variables, which is what makes certificate verification a rational
identity check.

Certificates are elements of the shift algebra generated by N (n -> n-1)
and K_i (k_i -> k_i - 1) over Laurent polynomials in (q, u, v):
moving a shift past a coefficient twists the coefficient, e.g.
N * u = (u/q) * N.  Certificate formulas are read as skew products in
written order.  Right division of recurrences (``recurrence_remainder``)
runs the gcd's pseudo-remainder loop over the ring of backward shifts.

Linear q-difference systems in x (the profile recursion, the automaton
system) share one layer: ``shift_combination`` forms
sum coeff(x, q) * F(x q^shift), and ``solve_shift_system`` solves
F_u = sum coeff * F_v(x q^shift), every shift >= 1, one x-slice at a time,
in increasing x-degree, by block forward substitution above lag 0 and at
lag 0 (slice 0) by at most (qorder + 1) * len(equations) + 1 q-adic passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .laurent import LaurentPoly, add_products, poly_gcd_of, pseudo_rem
from .series import BiSeries, QSeries, divide_binomial

TERM_VARS = ("q", "u", "v1", "v2", "v3")
QU_VARS = ("q", "u")
XQ_VARS = ("x", "q")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _check_form(quad2: Sequence[Sequence[int]], lin: Sequence[int], dim: int) -> None:
    """The form v^T quad2 v / 2 + lin . v needs quad2 dim x dim, symmetric and
    even on the diagonal (which makes it integer-valued), and lin of length dim."""
    if len(quad2) != dim or any(len(r) != dim for r in quad2):
        raise ValueError(f"quad2 must be {dim} x {dim}")
    if any(quad2[i][j] != quad2[j][i] for i in range(dim) for j in range(i)):
        raise ValueError("quad2 must be symmetric")
    if any(quad2[i][i] % 2 for i in range(dim)):
        raise ValueError("quad2 must have an even diagonal")
    if len(lin) != dim:
        raise ValueError(f"lin must have length {dim}")


def _form_value(quad2: Sequence[Sequence[int]], lin: Sequence[int], v: Sequence[int]) -> int:
    """v^T quad2 v / 2 + lin . v for a form that passed ``_check_form``."""
    s = 0
    for x, row in zip(v, quad2):
        s += x * _dot(row, v)
    return s // 2 + _dot(lin, v)


@dataclass(frozen=True)
class HypTerm:
    """A proper q-hypergeometric term in n and up to three summation variables.

    ``quad2`` is twice the symmetric matrix of the quadratic form, with an
    even diagonal, so the integer q-exponent is
    Q(v) = v^T quad2 v / 2 + lin . v + const over the
    variable vector v = (n, k_1, .., k_r).  Each Pochhammer denominator is
    (q^base; q^base)_{L} for a linear form L = coeffs . v + const; the
    term is zero by convention when some L < 0.
    """

    nsum: int
    quad2: tuple[tuple[int, ...], ...]
    lin: tuple[int, ...]
    const: int
    pochs: tuple[tuple[tuple[int, ...], int, int], ...]  # (coeffs, const, base)

    def __post_init__(self):
        if not 0 <= self.nsum <= 3:
            raise ValueError(f"nsum must be 0..3, as the shift algebra has K1..K3 only; got {self.nsum}")
        dim = 1 + self.nsum
        _check_form(self.quad2, self.lin, dim)
        if any(len(c) != dim for c, _, _ in self.pochs):
            raise ValueError(f"Pochhammer length forms must have {dim} coefficients")
        if any(m < 1 for _, _, m in self.pochs):
            raise ValueError("Pochhammer bases must be >= 1")

    def qexponent(self, v: Sequence[int]) -> int:
        return _form_value(self.quad2, self.lin, v) + self.const

    def poch_lengths(self, v: Sequence[int]) -> list[int]:
        return [_dot(c, v) + c0 for c, c0, _ in self.pochs]

    def to_json(self) -> dict:
        return {
            "nsum": self.nsum,
            "quad2": [list(r) for r in self.quad2],
            "lin": list(self.lin),
            "const": self.const,
            "pochs": [[list(c), c0, m] for c, c0, m in self.pochs],
        }


# ----------------------------------------------------------------------
# shift quotients


_ONE5 = LaurentPoly.one(TERM_VARS)


def cleared_ratios(term: HypTerm, shifts: Iterable[Shift]) -> dict[Shift, LaurentPoly]:
    """F(v - s)/F(v) for each shift s, as numerators over the least common
    denominator of them all.

    Only the first 1 + nsum entries of s act.  The quotient is the monomial
    q^(Q(v-s) - Q(v)), Q(v-s) - Q(v) = -(quad2 s) . v + (s quad2 s)/2 - lin . s,
    times, for each Pochhammer symbol (q^m;q^m)_L with L = c . v + c0 and
    delta = c . s, the factors

        (q^m;q^m)_L / (q^m;q^m)_(L-delta) = prod_{t=0..delta-1} (1 - q^(m(L-t)))

    if delta > 0, or 1 / prod_{t=1..-delta} (1 - q^(m(L+t))) if delta < 0.
    A factor 1 - q^(m(c . v + c0)) is keyed by the exponent vector of its
    monomial over TERM_VARS.  A numerator is the monomial times its own
    factors, by symbol and descending t, then the denominator factors it
    lacks, in the order first seen; each factor 1 - m is applied in place,
    in one pass over the numerator's term dict.
    """
    dim = 1 + term.nsum
    pad = (0,) * (len(TERM_VARS) - 1 - dim)
    neg_lin = [-x for x in term.lin]
    ratios: dict[Shift, tuple] = {}
    common: Counter = Counter()
    for s in shifts:
        cut = s[:dim]
        mono = (_form_value(term.quad2, neg_lin, cut), *(-_dot(row, cut) for row in term.quad2), *pad)
        num: list[tuple[int, ...]] = []
        den: Counter = Counter()
        for coeffs, const, m in term.pochs:
            delta, slope = _dot(coeffs, cut), (*(m * c for c in coeffs), *pad)
            num += [(m * (const - t), *slope) for t in range(delta)]
            den.update((m * (const + t), *slope) for t in range(1, 1 - delta))
        ratios[s] = (mono, num, den)
        common |= den
    cleared = {}
    for s, (mono, num, den) in ratios.items():
        terms = {mono: 1}
        for e in chain(num, (common - den).elements()):
            add_products(terms, [({e: -1}, terms)])  # times 1 - q^e, in place
        cleared[s] = LaurentPoly._raw(TERM_VARS, terms)
    return cleared


# ----------------------------------------------------------------------
# the shift algebra

Shift = tuple[int, int, int, int]  # (N, K1, K2, K3) powers


def _twist_poly(p: LaurentPoly, shift: Shift) -> LaurentPoly:
    """Conjugate a coefficient past a shift monomial: var -> var * q^-power."""
    out = p
    for var, power in zip(("u", "v1", "v2", "v3"), shift):
        if power:
            out = out.twist(var, "q", -power)
    return out


class ShiftOp:
    """An element of the shift algebra, normal-ordered: coeff * shift-monomial.

    Multiplication is the skew product: (P * S) * (P' * S') =
    (P * twist_S(P')) * (S + S').  Addition, coefficient powers, and ints and TERM_VARS
    polynomials on either side (p * op is not twisted) let certificate formulas be written verbatim.
    The constructor drops zero coefficients; the operations leave that to it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Shift, LaurentPoly] | None = None):
        self.terms = {s: p for s, p in (terms or {}).items() if not p.is_zero()}

    @classmethod
    def coefficient(cls, p: LaurentPoly) -> "ShiftOp":
        return cls({(0, 0, 0, 0): p})

    @classmethod
    def shift(cls, s: Shift) -> "ShiftOp":
        return cls({s: _ONE5})

    def __add__(self, other):
        out = dict(self.terms)
        for s, p in _as_op(other).terms.items():
            out[s] = out[s] + p if s in out else p
        return ShiftOp(out)

    __radd__ = __add__

    def __neg__(self):
        return ShiftOp({s: -p for s, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_op(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_op(other)
        out: dict[Shift, LaurentPoly] = {}
        for s1, p1 in self.terms.items():
            for s2, p2 in other.terms.items():
                s = (s1[0] + s2[0], s1[1] + s2[1], s1[2] + s2[2], s1[3] + s2[3])
                p = p1 * _twist_poly(p2, s1)
                out[s] = out[s] + p if s in out else p
        return ShiftOp(out)

    def __rmul__(self, other):
        return _as_op(other) * self

    def __pow__(self, n: int):
        # a coefficient powers as a polynomial (n < 0 for unit monomials only); no formula powers a shift
        if self.terms.keys() - {(0, 0, 0, 0)}:
            raise ValueError("powers only for coefficient operators")
        return ShiftOp.coefficient(self.terms.get((0, 0, 0, 0), LaurentPoly.zero(TERM_VARS)) ** n)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ShiftOp) and self.terms == other.terms

    def __repr__(self):
        bits = []
        for s in sorted(self.terms):
            names = ("N", "K1", "K2", "K3")
            mono = "*".join(f"{nm}^{e}" if e != 1 else nm for nm, e in zip(names, s) if e)
            bits.append(f"({self.terms[s]!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits) or "0"


def _as_op(x) -> ShiftOp:
    """The one coercion of the shift algebra: ints and TERM_VARS polynomials are coefficients."""
    if isinstance(x, ShiftOp):
        return x
    if isinstance(x, int) or isinstance(x, LaurentPoly) and x.vars == TERM_VARS:
        return ShiftOp.coefficient(LaurentPoly.zero(TERM_VARS) + x)
    raise TypeError(f"not a shift operator: {x!r}")


class Symbols:
    """The symbols handed to certificate formulas: ShiftOp values whose
    products twist coefficients in written order."""

    def __init__(self):
        cf = lambda name: ShiftOp.coefficient(LaurentPoly.variable(TERM_VARS, name))
        self.q, self.u = cf("q"), cf("u")
        self.v1, self.v2, self.v3 = cf("v1"), cf("v2"), cf("v3")
        self.K1 = ShiftOp.shift((0, 1, 0, 0))
        self.K2 = ShiftOp.shift((0, 0, 1, 0))
        self.K3 = ShiftOp.shift((0, 0, 0, 1))


# ----------------------------------------------------------------------
# certificate sets


#: the certificate families; family i > 0 telescopes along K_i
FAMILIES = ("p", "q", "r", "s")


@dataclass
class CertificateSet:
    """Shift-operator families proving a q-holonomic recurrence.

    ``families`` maps 'p', 'q', 'r', 's' to lists indexed by the power of
    N; entries are ShiftOp values (p entries carry no shifts and no
    summation variables).  The telescoped operator is

        p~ + (1 - K1) q~ + (1 - K2) r~ + (1 - K3) s~

    with e~ = sum_j e_j N^j.  Its order is the top power of N in p.
    """

    families: dict[str, list[ShiftOp]]

    @property
    def order(self) -> int:
        return len(self.families["p"]) - 1

    def telescoped(self) -> ShiftOp:
        total = ShiftOp()
        for fam, ops in self.families.items():
            tilde = ShiftOp()
            for j, op in enumerate(ops):
                tilde = tilde + op * ShiftOp.shift((j, 0, 0, 0))
            if fam == "p":
                total = total + tilde
            else:
                k = FAMILIES.index(fam)
                kop = ShiftOp.shift(tuple(1 if i == k else 0 for i in range(4)))
                total = total + tilde - kop * tilde
        return total


@dataclass
class VerificationResult:
    ok: bool
    residual_terms: int
    residual_sample: list


def verify_certificate(term: HypTerm, cert: CertificateSet) -> VerificationResult:
    """Check the telescoped operator annihilates the term, exactly.

    The operator is applied to F and divided by F: every shift monomial
    becomes a factored rational function, the sum is put over the least
    common factored denominator, and the numerator must vanish
    identically.  The numerator, each coefficient times its shift's cleared
    ratio, is accumulated in place in one term dict by ``add_products``.  A
    p family that is all zero proves only 0 = 0, so it does not verify.
    """
    total = cert.telescoped()
    cleared = cleared_ratios(term, total.terms)
    acc = LaurentPoly._raw(TERM_VARS, add_products({}, ((c.terms, cleared[s].terms) for s, c in total.terms.items())))
    sample = acc.sorted_terms()[:5]
    nonzero_p = any(not op.is_zero() for op in cert.families.get("p", ()))
    return VerificationResult(acc.is_zero() and nonzero_p, len(acc.terms), [[list(e), c] for e, c in sample])


def recurrence_from_certificate(cert: CertificateSet) -> list[LaurentPoly]:
    """The coefficient family [p_0 .. p_J] over (q, u), p_0 kept explicit."""
    out = []
    for op in cert.families["p"]:
        if any(s != (0, 0, 0, 0) for s in op.terms):
            raise ValueError("p family must be shift-free")
        poly = op.terms.get((0, 0, 0, 0), LaurentPoly.zero(TERM_VARS))
        out.append(poly.project(QU_VARS))
    return out


def recurrence_from_operator(op: QDiffOperator) -> list[LaurentPoly]:
    """[p_0 .. p_d] over (q, u) with sum_i p_i(q^n) g_(n-i) = 0, where g_n is
    the x^n coefficient of any solution of ``op``.

    [x^n] x^i q^e F(x q^(step s)) = q^(e + step s (n - i)) g_(n-i), so
    x^i q^e in the coefficient of shift s adds q^(e - step s i) u^(step s)
    to p_i.  The sign is ``_normalize_operator``'s (``_last_leads_positive``).
    """
    rows: dict[int, dict[tuple[int, int], int]] = {}
    for coeff, shift in op.terms:
        k = op.step * shift
        for (ex, eq), c in coeff.terms.items():
            if ex < 0:
                raise ValueError("operator coefficients must be polynomial in x")
            row, key = rows.setdefault(ex, {}), (eq - k * ex, k)
            row[key] = row.get(key, 0) + c
    plist = [LaurentPoly(QU_VARS, rows.get(i, {})) for i in range(max(rows, default=-1) + 1)]
    return _last_leads_positive(plist)


def _last_leads_positive(polys: list[LaurentPoly]) -> list[LaurentPoly]:
    """The one sign rule for operators and recurrences: negate the list if
    its last nonzero entry has a negative leading coefficient."""
    lead = next((p for p in reversed(polys) if not p.is_zero()), None)
    return [-p for p in polys] if lead is not None and lead.leading()[1] < 0 else polys


def recurrence_remainder(a: list[LaurentPoly], b: list[LaurentPoly]) -> dict[int, LaurentPoly]:
    """The right pseudo-remainder of recurrence a by recurrence b, keyed by the
    power of B (B g_n = g_(n-1), so B * p(u) = p(u/q) * B).  It is empty exactly
    when L a = Q b for a nonzero polynomial L and an operator Q."""
    a, b = ({i: p for i, p in enumerate(plist) if not p.is_zero()} for plist in (a, b))
    return pseudo_rem(a, b, lambda p, k: p.twist("u", "q", -k))[0]


# ----------------------------------------------------------------------
# summed sequences and recurrence validation


def term_support(term: HypTerm, n: int) -> list[tuple[int, ...]]:
    """All summation-variable tuples in the box [0..n]^r with every
    Pochhammer length >= 0, in lexicographic order.

    A length form whose coefficients on k_(i+1), .., k_r are all
    nonpositive can only fall as those grow, so it must already be >= 0
    once k_i is chosen: that bounds k_i above where its coefficient is
    negative and below where it is positive, and each k_i runs over the
    interval left.  Every term in this package bounds each k_i through such
    a form (n minus a positive combination of the k's).
    """
    r = term.nsum
    if n < 0:
        return []
    forms = [(c[1:], c[0] * n + c0) for c, c0, _ in term.pochs]
    if r == 0:
        return [()] if all(v >= 0 for _, v in forms) else []
    # per level, the forms that bind it: (form index, coefficient of k_i)
    binding = [
        [(f, c[i]) for f, (c, _) in enumerate(forms) if all(x <= 0 for x in c[i + 1 :])]
        for i in range(r)
    ]
    coeffs = [c for c, _ in forms]
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], vals: list[int]) -> None:
        i = len(prefix)
        lo, hi = 0, n
        for f, c in binding[i]:
            v = vals[f]
            if c > 0:
                lo = max(lo, -(v // c))
            elif c < 0:
                hi = min(hi, v // -c)
            elif v < 0:
                return
        if i + 1 == r:
            out.extend(prefix + (k,) for k in range(lo, hi + 1))
            return
        for k in range(lo, hi + 1):
            rec(prefix + (k,), [v + c[i] * k for v, c in zip(vals, coeffs)])

    rec((), [v for _, v in forms])
    return out


def _sum_free_variable(term: HypTerm) -> tuple[HypTerm, tuple[tuple[int, int, int], int] | None]:
    """``term`` summed over its first free variable k_j, with ((m, d, l), w); or ``term`` and None.

    k_j is free when it has no cross term and is in just two symbols, both
    of base m: (q^m; q^m)_(k_j) and one of length M - k_j, the w-th of the
    reduced term.  By the q-binomial theorem, the sum over 0 <= k_j <= M is
    H_M / (q^m; q^m)_M, H_M = sum_k q^(d k^2 + l k) [M k]_(q^m), for 2d =
    quad2[j][j] and l = lin[j].  It must keep the box sum (M <= n on the box)
    and q^(min(d + l, 0) M), which the reduced form takes, must be the least
    power of H_M (d >= 0, and d = 0 or d + l >= 0).
    """
    drop = lambda row, j: row[:j] + row[j + 1 :]
    for j in range(1, term.nsum + 1):
        d, l = term.quad2[j][j] // 2, term.lin[j]
        inside = sorted((-c[j], i) for i, (c, _, _) in enumerate(term.pochs) if c[j])
        if len(inside) != 2 or any(drop(term.quad2[j], j)) or d < 0 or (d and d + l < 0):
            continue
        (_, own), (_, other) = inside
        c, c0, m = term.pochs[other]  # M <= n on the box: at most 1 on n, 0 on the other k's and constant
        if (term.pochs[own] != (tuple(int(i == j) for i in range(len(c))), 0, m) or c[j] != -1
                or c[0] > 1 or any(x > 0 for x in drop(c, j)[1:]) or c0 > 0):
            continue
        low = min(d + l, 0)
        reduced = HypTerm(term.nsum - 1, tuple(drop(row, j) for i, row in enumerate(term.quad2) if i != j),
                          tuple(x + low * y for x, y in zip(drop(term.lin, j), drop(c, j))), term.const + low * c0,
                          tuple((drop(cc, j), *p) for i, (cc, *p) in enumerate(term.pochs) if i != own))
        return reduced, ((m, d, l), other - (own < other))
    return term, None


class _Profile(NamedTuple):
    """The part of ``sequence_value`` at one (term, n) that does not depend on q0."""

    term: HypTerm  # the term profiled: the given one, or it summed over a free variable
    free: tuple[tuple[int, int, int], int] | None  # see _sum_free_variable
    rows: list[tuple]  # see _term_profile
    tops: tuple[int, ...]  # the largest length of each Pochhammer symbol
    erange: tuple[int, int]  # least and largest e
    brange: tuple[int, int]  # least and largest beta


def _term_profile(term: HypTerm, n: int) -> _Profile | None:
    """The q0-free part of ``sequence_value`` at (term, n); None on an empty support.

    A term with a free variable is profiled summed over it (``_sum_free_variable``).
    One row per support point, in ``term_support`` order: the q-exponent e,
    beta = -e + sum_i m_i L_i(L_i+1)/2, the Pochhammer lengths L_i, and,
    for a point stepped from the previous one, the previous lengths and de
    and dbeta from them, each split as (up, down) = (max(x, 0), max(-x, 0)).
    A point is stepped if it follows the previous one by k_r + 1: the
    lengths step by their coefficients of k_r, and de and dbeta by
    constants.  Any other point is evaluated in full.
    """
    term, free = _sum_free_variable(term)
    support = term_support(term, n)
    if not support:
        return None
    r, q2 = term.nsum, term.quad2
    bases = [m for _, _, m in term.pochs]
    steps = tuple(c[r] for c, _, _ in term.pochs)
    curve = sum(m * c * c for m, c in zip(bases, steps)) - q2[r][r]  # the step of dbeta along k_r
    rows: list[tuple] = []
    prev = None
    for k in support:
        if prev is not None and k[:-1] == prev[:-1]:
            plengths, lengths = lengths, tuple(map(add, lengths, steps))
            e, beta = e + d, beta + g
            rows.append((e, beta, lengths, plengths, max(d, 0), max(-d, 0), max(g, 0), max(-g, 0)))
            d, g = d + q2[r][r], g + curve
        else:
            v = (n, *k)
            e, lengths = term.qexponent(v), tuple(term.poch_lengths(v))
            beta = sum(m * L * (L + 1) for m, L in zip(bases, lengths)) // 2 - e
            # Q(v + e_r) - Q(v) = (quad2 v)_r + quad2_rr / 2 + lin_r, and beta at lengths + steps less beta
            d = _dot(q2[r], v) + q2[r][r] // 2 + term.lin[r]
            g = sum(m * (c * L + c * (c + 1) // 2) for m, c, L in zip(bases, steps, lengths)) - d
            rows.append((e, beta, lengths, None, 0, 0, 0, 0))
        prev = k
    es, betas = [row[0] for row in rows], [row[1] for row in rows]
    tops = tuple(map(max, zip(*(row[2] for row in rows))))
    return _Profile(term, free, rows, tops, (min(es), max(es)), (min(betas), max(betas)))


class SequenceTables:
    """What ``sequence_value`` reuses between calls: the profile of each
    (term, n) and, per point q0 = a/b, the powers of a and b, the factors
    b^(mt) - a^(mt) of each base m, their products over windows of
    consecutive t, and the ``weights`` of each free variable.  The caller
    owns an instance and drops it when done; nothing is kept at module level."""

    def __init__(self):
        self._profiles: dict[tuple[HypTerm, int], _Profile | None] = {}
        self._lists: dict[tuple, list[int]] = {}

    def profile(self, term: HypTerm, n: int) -> _Profile | None:
        if (term, n) not in self._profiles:
            self._profiles[term, n] = _term_profile(term, n)
        return self._profiles[term, n]

    def _grown(self, key: tuple, size: int, entry) -> list[int]:
        """The list at ``key`` with at least ``size`` entries, each new one entry(the list so far)."""
        col = self._lists.setdefault(key, [])
        while len(col) < size:
            col.append(entry(col))
        return col

    def powers(self, x: int, size: int) -> list[int]:
        return self._grown(("power", x), size, lambda col: col[-1] * x if col else 1)

    def factors(self, a: int, b: int, m: int, size: int) -> list[int]:
        """Entry t is b^(mt) - a^(mt)."""
        return self._grown(("factor", a, b, m), size, lambda col: b ** (m * len(col)) - a ** (m * len(col)))

    def span(self, a: int, b: int, m: int, width: int, size: int) -> list[int]:
        """Entry L is the product of the factors L+1 .. L+width of base m."""
        f = self.factors(a, b, m, size + width)
        return self._grown(("span", a, b, m, width), size, lambda col: prod(f[len(col) + 1 : len(col) + width + 1]))

    def weights(self, a: int, b: int, m: int, d: int, l: int, size: int) -> tuple[list[int], int]:
        """W[M] for M < size and D, W[M] / b^D = H_M(q0) / q0^(low M) for the free variable (m, d, l),
        low = min(d + l, 0).  Entry M of the table kept is (P, D_M), P / b^(D_M) the same: the sum over
        k <= M of a^r b^(D_M - r - m k(M-k)) N_M / (N_k N_(M-k)), r = d k^2 + l k - low M >= 0."""
        f = self.factors(a, b, m, size)  # N_L = f_1 ... f_L as in sequence_value
        N = self._grown(("poch", a, b, m), size, lambda col: col[-1] * f[len(col)] if col else 1)
        table = self._lists.setdefault(("weight", a, b, m, d, l), [])
        for M in range(len(table), size):
            r = [d * k * k + l * k - min(d + l, 0) * M for k in range(M + 1)]
            s = [x + m * k * (M - k) for k, x in enumerate(r)]
            D, ap, bp = max(s), self.powers(a, max(r) + 1), self.powers(b, max(s) + 1)
            table.append((sum(ap[x] * bp[D - y] * N[M] // (N[k] * N[M - k]) for k, (x, y) in enumerate(zip(r, s))), D))
        D = max(dm for _, dm in table[:size])
        bp = self.powers(b, D + 1)
        return [p * bp[D - dm] for p, dm in table[:size]], D


def sequence_value(term: HypTerm, n: int, q0: Fraction, tables: SequenceTables | None = None) -> Fraction:
    """f_n at the exact rational point q = q0 (full support, no truncation).

    With q0 = a/b, (q0^m; q0^m)_L = N_L / b^(m L(L+1)/2) where
    N_L = prod_{t <= L} (b^(mt) - a^(mt)).  So a point of the support
    contributes a^e b^beta / prod_i N_(L_i), with beta = -e + sum_i
    m_i L_i(L_i+1)/2.  The sum is taken in integers over the common
    denominator prod_i N_(top_i), top_i the largest L_i, and one Fraction
    is formed at the end.  A point one step along k_r from the previous
    one takes the previous integer times a quotient of a few small
    factors: a symbol whose length steps by c contributes the product of
    |c| consecutive factors, above its new length if c < 0 and, dividing,
    above its old one if c > 0.  Every other point is evaluated in full.

    A term with a free variable is summed over its reduction (``_sum_free_variable``):
    the integer of a point whose symbol w has length M is multiplied by
    ``SequenceTables.weights`` W[M], H_M cleared of one common power.

    The profile of (term, n) (``_term_profile``) and the powers, factors,
    spans and weights of q0 come from ``tables``: pass one instance to the
    calls that share a term or a point.  Without it every table is built
    for this call alone.
    """
    if n < 0:
        return Fraction(0)
    tables = SequenceTables() if tables is None else tables
    profile = tables.profile(term, n)
    if profile is None:
        return Fraction(0)
    term, a, b = profile.term, q0.numerator, q0.denominator
    (emin, emax), (bmin, bmax) = profile.erange, profile.brange
    apow, bpow = tables.powers(a, emax - emin + 1), tables.powers(b, bmax - bmin + 1)
    key, w = profile.free or (None, None)
    weight, dmax = tables.weights(a, b, *key, profile.tops[w] + 1) if key else (None, 0)
    above: list[list[int]] = []  # above[i][L] = N_top / N_L for the i-th symbol
    falls, rises = [], []  # (span table, symbol) of the symbols whose length falls / rises along k_r
    for i, ((coeffs, _, m), top) in enumerate(zip(term.pochs, profile.tops)):
        f = tables.factors(a, b, m, top + 1)
        col = [1] * (top + 1)
        for t in range(top, 0, -1):
            col[t - 1] = col[t] * f[t]
        above.append(col)
        if term.nsum and (c := coeffs[term.nsum]):
            (rises if c > 0 else falls).append((tables.span(a, b, m, abs(c), top - abs(c) + 1), i))
    total = x = 0
    for e, beta, lengths, plengths, aup, adown, bup, bdown in profile.rows:
        if plengths is not None and x:  # a zero previous integer (q0 = 0) is evaluated in full
            num, den = apow[aup] * bpow[bup], apow[adown] * bpow[bdown]
            for span, i in falls:
                num *= span[lengths[i]]
            for span, i in rises:
                den *= span[plengths[i]]
            x = x * num // den
        else:
            x = apow[e - emin] * bpow[beta - bmin]
            for col, L in zip(above, lengths):
                x *= col[L]
        total += x * weight[lengths[w]] if weight else x
    # times a^emin b^(bmin - dmax)
    num = total * a ** max(emin, 0) * b ** max(bmin - dmax, 0)
    return Fraction(num, prod(col[0] for col in above) * a ** max(-emin, 0) * b ** max(dmax - bmin, 0))


def _qu_integers(plist: Sequence[LaurentPoly], ns: Iterable[int], q0: Fraction, tables: SequenceTables):
    """For each n of ``ns``, [P_(n,j)]: p_j(q0, q0^n) = q0^lo P_(n,j) / b^(hi-lo) at q0 = a/b, where
    P_(n,j) = sum c a^(e-lo) b^(hi-e) over the terms c q^eq u^eu of p_j, e = eq + n eu, and [lo, hi]
    holds every e (lo = 0 at q0 = 0, where an e < 0 is a pole).  The powers come from ``tables``."""
    a, b = q0.numerator, q0.denominator
    exps = [[(eq, eu, c) for (eq, eu), c in p.project(QU_VARS).terms.items()] for p in plist]
    for n in ns:
        es = [[(eq + n * eu, c) for eq, eu, c in p] for p in exps]
        lo, hi = min((e for p in es for e, _ in p), default=0), max((e for p in es for e, _ in p), default=0)
        if a == 0 and lo < 0:
            raise ZeroDivisionError(f"q^{lo} at q0 = 0")
        lo = lo if a else 0
        apow, bpow = tables.powers(a, hi - lo + 1), tables.powers(b, hi - lo + 1)
        yield [sum(c * apow[e - lo] * bpow[hi - e] for e, c in p) for p in es]


def recurrence_holds_at_point(term: HypTerm, plist: Sequence[LaurentPoly], nmax: int, q0: Fraction,
                              tables: SequenceTables | None = None) -> bool:
    """Exact check of sum_j p_j(q^n) f_(n-j) = 0 for 0 <= n <= nmax at q = q0,
    with f_n from ``sequence_value`` on ``tables`` (a fresh one if None).

    The check is in integers, with no Fraction arithmetic: each f_m times D, the
    lcm of their denominators at q0, against each p_j cleared of the nonzero
    factor all p_j share at one n (``_qu_integers``)."""
    if nmax < 0:
        raise ValueError(f"empty recurrence check: nmax {nmax} < 0")
    if not plist:
        raise ValueError("empty p family: no recurrence to check")
    tables = SequenceTables() if tables is None else tables
    values = [sequence_value(term, m, q0, tables) for m in range(-len(plist), nmax + 1)]
    D = 1
    for f in values:
        if D % f.denominator:
            D = lcm(D, f.denominator)
    for i, f in enumerate(values):  # f_m D at m + len(plist), each Fraction dropped as it goes
        values[i] = f.numerator * (D // f.denominator)
    P = _qu_integers(plist, range(nmax + 1), q0, tables)
    return not any(_dot(p, values[n + len(plist) : n : -1]) for n, p in enumerate(P))


def first_recurrence_failure(term: HypTerm, plist: Sequence[LaurentPoly], nmax: int,
                             points: Sequence[Fraction]) -> dict | None:
    """None, or why ``recurrence_holds_at_point`` does not prove the recurrence
    for 0 <= n <= nmax: {"q0": the first of ``points`` where it fails}, or
    {"p0_zero_up_to_n": nmax} when p_0(q0, q0^n) is zero at every checked n
    and point, so no f_n is determined.  One ``SequenceTables`` serves every
    point, so each support profile is built once; it is dropped on return."""
    tables = SequenceTables()
    for q0 in points:
        if not recurrence_holds_at_point(term, plist, nmax, q0, tables=tables):
            return {"q0": str(q0)}
    if not any(P[0] for q0 in points for P in _qu_integers(plist, range(nmax + 1), q0, tables)):
        return {"p0_zero_up_to_n": nmax}
    return None


# ----------------------------------------------------------------------
# quadruple sums


@dataclass(frozen=True)
class AGSumSpec:
    """A positive multiple sum: q^Q(k) x^(E.k) / prod (q^(m_i); q^(m_i))_(k_i).

    ``quad2`` is twice the symmetric matrix of Q over the summation
    variables, checked like ``HypTerm``'s; all entries of quad2 and lin
    must be nonnegative so the exponent is monotone in each variable,
    which makes the lattice enumeration bound rigorous.
    """

    quad2: tuple[tuple[int, ...], ...]
    lin: tuple[int, ...]
    xcoeffs: tuple[int, ...]
    bases: tuple[int, ...]

    def qexponent(self, k: Sequence[int]) -> int:
        return _form_value(self.quad2, self.lin, k)

    def __post_init__(self):
        dim = len(self.bases)
        _check_form(self.quad2, self.lin, dim)
        if len(self.xcoeffs) != dim:
            raise ValueError(f"xcoeffs must have length {dim}")
        if any(c < 0 for row in self.quad2 for c in row) or any(c < 0 for c in self.lin):
            raise ValueError("growth monotonicity requires nonnegative coefficients")
        if any(self.quad2[i][i] <= 0 for i in range(dim)):
            raise ValueError("diagonal must be positive for termination")
        if any(b < 1 for b in self.bases):
            raise ValueError("bases must be >= 1")

    def coefficient_term(self, eliminate: int) -> HypTerm:
        """The term whose sum over the other k's is the x^n coefficient.

        Substitutes k_e = n - sum_(i != e) xcoeffs_i k_i for e = ``eliminate``,
        which needs xcoeffs_e = 1.  The term is over v = (n, the other k's in
        order) and k = S v: Pochhammer i has length form row i of S and base
        bases_i, and the exponent form becomes S^T quad2 S and lin S.
        """
        r = len(self.bases)
        if not 0 <= eliminate < r or self.xcoeffs[eliminate] != 1:
            raise ValueError("the eliminated variable must have x-coefficient 1")
        others = [i for i in range(r) if i != eliminate]
        rows = [
            (1, *(-self.xcoeffs[j] for j in others)) if i == eliminate else (0, *(int(i == j) for j in others))
            for i in range(r)
        ]
        cols = list(zip(*rows))
        quad_cols = [[_dot(row, c) for row in self.quad2] for c in cols]
        return HypTerm(
            nsum=r - 1,
            quad2=tuple(tuple(_dot(a, qb) for qb in quad_cols) for a in cols),
            lin=tuple(_dot(self.lin, c) for c in cols),
            const=0,
            pochs=tuple((row, 0, base) for row, base in zip(rows, self.bases)),
        )


def evaluate_ag_sum(spec: AGSumSpec, qorder: int) -> BiSeries:
    """Exact expansion of the sum over all lattice points with exponent < qorder.

    The recursion fixes k_1, k_2, ... in turn and carries the coefficient
    list of 1/prod_(j<i) (q^(m_j); q^(m_j))_(k_j), divided by 1 - q^(m_i k_i)
    in place as k_i grows; each point adds q^Q(k) times it to its x-slice.
    """
    if qorder < 1:
        raise ValueError("qorder must be >= 1")
    r = len(spec.bases)
    rows: dict[int, list[int]] = {}

    def rec(k: list[int], inv: list[int]) -> None:
        i = len(k)
        if i == r:
            e = spec.qexponent(k)
            row = rows.setdefault(_dot(spec.xcoeffs, k), [0] * qorder)
            row[e:] = map(add, row[e:], inv)
            return
        inv = inv.copy()
        k.append(0)
        while spec.qexponent(k + [0] * (r - i - 1)) < qorder:
            rec(k, inv)
            k[i] += 1
            divide_binomial(inv, spec.bases[i] * k[i])
        k.pop()

    rec([], QSeries.one(qorder).coeffs)
    return BiSeries(qorder, {m: QSeries(qorder, row) for m, row in rows.items()})


# ----------------------------------------------------------------------
# q-difference operators in x


@dataclass(frozen=True)
class QDiffOperator:
    """sum_s coeff_s(x, q) * (x -> x q^(step*s)) with polynomial coefficients."""

    terms: tuple[tuple[LaurentPoly, int], ...]
    step: int = 3

    def __post_init__(self):
        for c, s in self.terms:
            if c.vars != XQ_VARS:
                raise ValueError("coefficients must be over (x, q)")
            if s < 0:
                raise ValueError("shift powers must be >= 0")

    def to_json(self) -> dict:
        return {"step": self.step, "terms": [[c.to_json(), s] for c, s in self.terms]}


def _shifted_sum(row: list[int], terms: Iterable[tuple[list[int], int, int]]) -> list[int]:
    """row + sum of c * q^off * src over the (src, off, c) terms, cut to len(row)."""
    row = row[:]
    for src, off, c in terms:
        row[off:] = [r + c * a for r, a in zip(row[off:], src)]
    return row


def poly_times_biseries(p: LaurentPoly, s: BiSeries, shift: int) -> BiSeries:
    """p(x, q) * s(x q^shift) mod q^s.qorder: a term c x^ex q^eq of p adds c q^(eq + shift*m)
    times slice m of s to slice m + ex, the offset rule of ``solve_shift_system``."""
    if shift < 0:
        raise ValueError("negative x-shift")
    n = s.qorder
    terms: dict[int, list] = {}
    for (ex, eq), c in p.terms.items():
        if ex < 0 or eq < 0:
            raise ValueError("operator coefficients must be polynomial")
        for m, sl in s.slices.items():
            if (off := eq + shift * m) < n:
                terms.setdefault(m + ex, []).append((sl.coeffs, off, c))
    return BiSeries(n, {m: QSeries(n, _shifted_sum([0] * n, t)) for m, t in terms.items()})


def shift_combination(terms: Iterable[tuple[LaurentPoly, int, BiSeries]], qorder: int) -> BiSeries:
    """sum of coeff(x, q) * series(x q^shift) over (coeff, shift, series) terms, mod q^qorder."""
    return sum((poly_times_biseries(coeff, series, shift) for coeff, shift, series in terms), BiSeries.zero(qorder))


def solve_shift_system(equations: dict, qorder: int) -> dict:
    """Solve F_u(x) = sum of coeff(x, q) * F_v(x q^shift) over the
    (coeff, shift, v) terms of equations[u], for every u, mod q^qorder.
    Every shift must be >= 1; a smaller one raises ValueError.

    The x-slices are filled in increasing order m = 0, 1, 2, ...: a term
    c x^ex q^eq F_v(x q^shift) adds c q^(eq + shift*(m - ex)) times slice
    m - ex of F_v to slice m.  The terms with ex >= 1 read final slices and
    are added once.  The same-slice terms (ex = 0) lag by their least offset,
    lag >= shift*m >= 1 for m >= 1, so slice m has one fixed point, which block
    forward substitution above lag 0 finds exactly: each block of lag
    coefficients reads only final ones below it.  At lag 0 slice 0 is iterated
    from 1 within (qorder + 1) * len(equations) + 1 passes: q^i settles within
    the index (<= the number of unknowns) of a nilpotent x^0 q^0 part once the
    powers below it have.  The result is the q-adic limit of the whole system
    from F = 1 whenever that iteration settles.  What every term adds to slice
    m is divisible by q^(m - D), D the largest x-degree among the
    coefficients, so no slice at or above qorder + D is nonzero; the sweep
    stops once m exceeds D and the last D slices of every unknown are zero.
    """
    if qorder < 1:
        raise ValueError("qorder must be >= 1")
    flat: dict = {u: [] for u in equations}
    for u, terms in equations.items():
        for coeff, shift, v in terms:
            if v not in equations:
                raise KeyError(v)
            if shift < 1:
                raise ValueError(f"a term F_{v}(x q^{shift}) of F_{u} has an x-shift below 1")
            for (ex, eq), c in coeff.terms.items():
                if ex < 0 or eq < 0:
                    raise ValueError("operator coefficients must be polynomial")
                flat[u].append((v, shift, ex, eq, c))
    top = max((ex for terms in flat.values() for _, _, ex, _, _ in terms), default=0)
    sol: dict = {u: [] for u in equations}
    m = 0
    while m <= top or any(any(row) for rows in sol.values() for row in rows[m - top:]):
        cur, same = {}, {}
        for u, terms in flat.items():
            here = [(v, ex, off, c) for v, shift, ex, eq, c in terms
                    if ex <= m and (off := eq + shift * (m - ex)) < qorder]
            cur[u] = _shifted_sum([0] * qorder, [(sol[v][m - ex], off, c) for v, ex, off, c in here if ex])
            same[u] = [(v, off, c) for v, ex, off, c in here if not ex]
        lag = min((off for terms in same.values() for _, off, _ in terms), default=qorder)
        if lag:
            for b in range(lag, qorder, lag):  # block [b, e) reads only final coefficients below b
                e = b + lag
                for u, terms in same.items():
                    cur[u][b:e] = _shifted_sum(cur[u][b:e], [(cur[v][max(b - off, 0):e - off], max(off - b, 0), c)
                                                             for v, off, c in terms if off < e])
        else:
            lower, cur = cur, {u: [int(not i) for i in range(qorder)] for u in equations}
            for _ in range((qorder + 1) * len(equations) + 1):
                nxt = {u: _shifted_sum(row, ((cur[v], off, c) for v, off, c in same[u])) for u, row in lower.items()}
                if nxt == cur:
                    break
                cur = nxt
            else:
                raise AssertionError("shift system iteration failed to converge")
        for u, row in cur.items():
            sol[u].append(row)
        m += 1
    return {u: BiSeries(qorder, {m: QSeries(qorder, row) for m, row in enumerate(rows)}) for u, rows in sol.items()}


def apply_qdiff(op: QDiffOperator, s: BiSeries) -> BiSeries:
    """Apply the operator to a BiSeries, truncated at s.qorder."""
    return shift_combination(((coeff, op.step * shift, s) for coeff, shift in op.terms), s.qorder)


# ----------------------------------------------------------------------
# uncoupling first-order systems


def _row_walk(rows, component: int, step: int):
    """Iterated substitution in F(x) = A(x) F(x q^step), A polynomial: yields (s, W)
    for s = 1, ..., m + 1, where row k <= s of W, e_component * A(x q^(step*k)) ...
    A(x q^(step*(s-1))), expresses F_component(x q^(step*k)) against F(x q^(step*s))."""
    m = len(rows)
    if not (0 <= component < m):
        raise ValueError("component out of range")
    zero, one = LaurentPoly.zero(XQ_VARS), LaurentPoly.one(XQ_VARS)
    e_i = [one if j == component else zero for j in range(m)]
    W = [e_i]
    for s in range(1, m + 2):
        Bs = [[e.twist("x", "q", step * (s - 1)) for e in row] for row in rows]
        W = [[LaurentPoly._raw(XQ_VARS, add_products({}, ((w[t].terms, Bs[t][j].terms) for t in range(m))))
              for j in range(m)] for w in W]
        W.append(e_i)
        yield s, W


def uncouple_system(matrix, component: int, step: int = 3) -> QDiffOperator:
    """Scalar annihilator of one component of F(x) = A(x) F(x q^step), each
    entry of A a LaurentPoly or a (num, den) pair of them.

    Walks ``_row_walk`` to the first linear dependency among its rows, cleared
    to polynomial coefficients; it annihilates any solution of the system."""
    m = len(matrix)
    # one polynomial scale clears every denominator; the rows of the scaled
    # system are the original rows times shifted copies of the scale
    scale = one = LaurentPoly.one(XQ_VARS)
    entries = []
    for row in matrix:
        if len(row) != m:
            raise ValueError("matrix must be square")
        entries.append([e if isinstance(e, tuple) else (e, one) for e in row])
        for _, den in entries[-1]:
            if not den.is_constant() or den.constant_value() not in (1, -1):
                scale = scale * den
    poly_rows = [[num * scale.divexact(den) for num, den in row] for row in entries]

    for s, W in _row_walk(poly_rows, component, step):
        dep = _polynomial_nullvector(W)
        if dep is not None:
            # W[k] went through the scaled matrices at k, ..., s - 1
            for k in range(s):
                for j in range(k, s):
                    dep[k] = dep[k] * scale.twist("x", "q", step * j)
            return _normalize_operator(dep, step)
    raise AssertionError("no dependency found; elimination degenerated")


def annihilation_depth(op: QDiffOperator, rows, component: int) -> int | None:
    """The least depth s of ``_row_walk`` at which sum_k c_k(x, q) * W[k] = 0, else
    None (also for the zero operator).  A depth proves that ``op`` kills that
    component of every solution of F(x) = A(x) F(x q^op.step), A the polynomial
    ``rows``, to all orders; it can exceed the order when a shifted A is singular."""
    if all(c.is_zero() for c, _ in op.terms):
        return None
    for s, W in _row_walk(rows, component, op.step):
        if s >= max(k for _, k in op.terms) and all(
                not add_products({}, ((c.terms, W[k][j].terms) for c, k in op.terms)) for j in range(len(rows))):
            return s
    return None


def _polynomial_nullvector(vectors: list[list[LaurentPoly]]):
    """A nontrivial polynomial combination of the rows summing to zero.

    Fraction-free (Bareiss) elimination on the rows augmented with the
    identity, pivoting on the entry with the fewest terms; divisions by the
    previous pivot are exact.  Rows are not content-stripped:
    ``_normalize_operator`` clears the common factor of the result.
    """
    nrows = len(vectors)
    ncols = len(vectors[0])
    vars = vectors[0][0].vars
    zero = LaurentPoly.zero(vars)
    one = LaurentPoly.one(vars)
    aug = [
        list(row) + [one if i == j else zero for j in range(nrows)]
        for i, row in enumerate(vectors)
    ]
    used = [False] * nrows
    prev_piv: LaurentPoly | None = None
    for col in range(ncols):
        sel = None
        best = None
        for r in range(nrows):
            if not used[r] and not aug[r][col].is_zero():
                sz = len(aug[r][col].terms)
                if best is None or sz < best:
                    best, sel = sz, r
        if sel is None:
            continue
        used[sel] = True
        piv = aug[sel][col]
        for r in range(nrows):
            if r != sel and not used[r]:
                f = aug[r][col]
                new = [a * piv - b * f for a, b in zip(aug[r], aug[sel])]
                if prev_piv is not None:
                    new = [v if v.is_zero() else v.divexact(prev_piv) for v in new]
                aug[r] = new
        prev_piv = piv
    for r in range(nrows):
        if not used[r] and all(aug[r][c].is_zero() for c in range(ncols)):
            dep = aug[r][ncols:]
            if any(not d.is_zero() for d in dep):
                return dep
    return None


def _normalize_operator(dep: list[LaurentPoly], step: int) -> QDiffOperator:
    """The dependency as an operator: its gcd (integer content included) and
    its least monomial divided out, signed by ``_last_leads_positive``."""
    g = poly_gcd_of(dep)
    cleared = list(dep) if g.is_zero() or g.is_one() else [p.divexact(g) for p in dep]
    mins = [p.min_exponents() for p in cleared if not p.is_zero()]
    if mins:
        shift = tuple(-min(m[i] for m in mins) for i in range(len(XQ_VARS)))
        cleared = [p.shift_exponents(shift) if not p.is_zero() else p for p in cleared]
    cleared = _last_leads_positive(cleared)
    return QDiffOperator(tuple((p, k) for k, p in enumerate(cleared) if not p.is_zero()), step)
