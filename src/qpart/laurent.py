"""Sparse Laurent polynomials and rational functions with exact integer coefficients.

Everything in this package is exact: coefficients are arbitrary-precision
Python ints, exponents may be negative, and no operation ever rounds.
A polynomial carries its own ordered variable list; mixing polynomials
over different variable lists is a structural error.

The monomial order used for canonical choices (leading coefficients,
tie-breaking) is graded lexicographic over the fixed variable order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd
from operator import add, neg
from typing import Iterable, Mapping


class VariableMismatch(ValueError):
    """Raised when two polynomials over different variable lists are combined."""


class ZeroDenominator(ZeroDivisionError):
    """Raised when a rational function is built over a zero denominator."""


def _grlex_key(expvec: tuple[int, ...]) -> tuple:
    return (sum(expvec), expvec)


class LaurentPoly:
    """A sparse Laurent polynomial: map from exponent vectors to int coefficients.

    Invariants: no stored zero coefficients; every exponent vector has
    length ``len(self.vars)``.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int]):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], int] = {}
        n = len(self.vars)
        for e, c in terms.items():
            if c:
                e = tuple(e)
                if len(e) != n:
                    raise VariableMismatch(f"exponent vector {e} has wrong length for vars {self.vars}")
                clean[e] = c
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Trusted constructor: ``terms`` already keeps the invariants and is not copied."""
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: tuple[str, ...], c: int) -> "LaurentPoly":
        if not c:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "LaurentPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], exps: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        return cls(vars, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # predicates and inspection

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.vars): 1}

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0,) * len(self.vars)}

    def constant_value(self) -> int:
        return self.terms.get((0,) * len(self.vars), 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (exponent, coefficient) under graded lex."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum of all exponent vectors (zeros if empty)."""
        if not self.terms:
            return (0,) * len(self.vars)
        exps = list(self.terms)
        return tuple(min(e[i] for e in exps) for i in range(len(self.vars)))

    # ------------------------------------------------------------------
    # arithmetic

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatch(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented  # let a RationalFunction or ShiftOp on the right act
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (int, LaurentPoly)) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._raw(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return LaurentPoly._raw(self.vars, add_products({}, [(self.terms, other.terms)]))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if self.is_monomial():
                (e, c), = self.terms.items()
                if c in (1, -1):
                    return LaurentPoly(self.vars, {tuple(x * n for x in e): c if n % 2 else 1})
            raise ValueError("negative powers only for unit monomials")
        out = LaurentPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # ------------------------------------------------------------------
    # structural operations

    def shift_exponents(self, delta: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial with exponent vector ``delta``."""
        terms = {tuple(x + d for x, d in zip(e, delta)): c for e, c in self.terms.items()}
        return LaurentPoly._raw(self.vars, terms)

    def twist(self, src: str, dst: str, mult: int) -> "LaurentPoly":
        """Add ``mult * exponent(src)`` to the exponent of ``dst`` in each term.

        This implements substitutions of the shape src -> src * dst^mult,
        e.g. q^n -> q^(n-1) is twist('u', 'q', -1) when u stands for q^n.
        With ``src != dst`` the exponent map is one-to-one, so no terms merge.
        """
        if src == dst:
            raise ValueError(f"twist needs two different variables, got {src!r} twice")
        if not mult:
            return self
        i = self.vars.index(src)
        j = self.vars.index(dst)
        return LaurentPoly._raw(self.vars, {e[:j] + (e[j] + mult * e[i],) + e[j + 1:]: c
                                            for e, c in self.terms.items()})

    def project(self, new_vars: tuple[str, ...]) -> "LaurentPoly":
        """Reinterpret over ``new_vars``; dropped variables must not occur."""
        idx = []
        for v in self.vars:
            idx.append(new_vars.index(v) if v in new_vars else -1)
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ee = [0] * len(new_vars)
            for i, x in enumerate(e):
                if idx[i] >= 0:
                    ee[idx[i]] = x
                elif x:
                    raise VariableMismatch(f"variable {self.vars[i]} occurs but is not in {new_vars}")
            terms[tuple(ee)] = terms.get(tuple(ee), 0) + c
        return LaurentPoly(new_vars, terms)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError if not divisible.  The remainder is
        one term dict updated in place; a heap of its keys, each pushed when it
        enters and skipped if popped once cancelled, gives its grlex-leading key."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.terms)
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
        heapify(heap)
        quo_terms: dict[tuple[int, ...], int] = {}
        le, lc = other.leading()
        # every exponent of an exact quotient is at least this, componentwise;
        # the bound also keeps a division that is not exact from running forever
        floor = tuple(a - b for a, b in zip(self.min_exponents(), other.min_exponents()))
        while rem:
            re = heappop(heap)[2]
            if re not in rem:
                continue
            rc = rem[re]
            if rc % lc:
                raise ValueError("not exactly divisible (coefficient)")
            qe = tuple(a - b for a, b in zip(re, le))
            if any(e < f for e, f in zip(qe, floor)):
                raise ValueError("not exactly divisible (exponent)")
            qc = rc // lc
            quo_terms[qe] = qc
            for e, c in other.terms.items():
                e, c = tuple(map(add, qe, e)), qc * c
                s = rem.get(e)
                if s is None:
                    rem[e] = -c
                    heappush(heap, (-sum(e), tuple(map(neg, e)), e))
                elif s == c:
                    del rem[e]
                else:
                    rem[e] = s - c
        return LaurentPoly._raw(self.vars, quo_terms)

    # ------------------------------------------------------------------
    # display / io

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{x}" if x != 1 else v for v, x in zip(self.vars, e) if x
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [[list(e), str(c)] for e, c in self.sorted_terms()],
        }


def add_products(terms: dict[tuple[int, ...], int], pairs: Iterable[tuple[dict, dict]]) -> dict[tuple[int, ...], int]:
    """Add sum a * b over ``pairs`` of term dicts into the term dict ``terms``
    in place, deleting a coefficient that cancels, and return ``terms``.  Of
    each pair the longer factor (the second, if they are as long) is read in
    full before any write, so ``terms`` may be that factor: p becomes
    (1 - q^e) * p by add_products(p, [({e: -1}, p)]); a monomial times p is the
    one-pair case.  The exponent sum is written out for two variables ((x, q),
    (q, u)) and five (the summand's), else generic, all in one term order."""
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        b = list(b.items())
        for ea, ca in a.items():
            if len(ea) == 5:
                a0, a1, a2, a3, a4 = ea
                for (b0, b1, b2, b3, b4), cb in b:
                    e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
            elif len(ea) == 2:
                a0, a1 = ea
                for (b0, b1), cb in b:
                    e = (a0 + b0, a1 + b1)
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
            else:
                for eb, cb in b:
                    e = tuple(map(add, ea, eb))
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
    return terms


# ----------------------------------------------------------------------
# polynomial gcd (primitive PRS), used for rational-function normalization


def _strip_monomial(p: LaurentPoly) -> LaurentPoly:
    """p divided by its least monomial, so that every exponent is nonnegative."""
    m = p.min_exponents()
    return p.shift_exponents(tuple(-x for x in m)) if any(m) else p


def _split_main(p: LaurentPoly, i: int) -> dict[int, LaurentPoly]:
    """View p as univariate in variable i with LaurentPoly coefficients."""
    coeffs: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in p.terms.items():
        coeffs.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {d: LaurentPoly._raw(p.vars, t) for d, t in coeffs.items()}


def _primitive(coeffs: dict[int, LaurentPoly]) -> tuple[LaurentPoly, dict[int, LaurentPoly]]:
    """The content of a univariate coefficient map, and the map divided by it."""
    c = poly_gcd_of(list(coeffs.values()))
    if c.is_one():
        return c, coeffs
    return c, {d: p.divexact(c) for d, p in coeffs.items()}


def pseudo_rem(a: dict[int, LaurentPoly], b: dict[int, LaurentPoly], twist) -> dict[int, LaurentPoly]:
    """Right pseudo-remainder of a by b, maps from a power of X to its coefficient,
    where X^k * p = twist(p, k) * X^k (the identity for ordinary polynomials)."""
    db = max(b)
    lb = b[db]
    zero = LaurentPoly.zero(lb.vars)
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        k = dr - db
        lr, lead = r[dr], twist(lb, k)
        # lead * r - lr * X^k * b: the X^dr terms cancel
        new = {d: c * lead for d, c in r.items() if d != dr}
        for d, c in b.items():
            if d != db:
                new[d + k] = new.get(d + k, zero) - twist(c, k) * lr
        r = {d: c for d, c in new.items() if not c.is_zero()}
    return r


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of two Laurent polynomials, up to sign; monomial parts stripped.

    Uses a primitive PRS over the coefficient ring, recursing on the
    number of variables; the main variable is the one of least degree.
    The result is content-normalized with positive leading coefficient.
    """
    if a.vars != b.vars:
        raise VariableMismatch(f"{a.vars} vs {b.vars}")
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        g = _gcd_nonneg(_strip_monomial(a), _strip_monomial(b))
    if g.is_zero():
        return g
    g = _strip_monomial(g)
    return -g if g.leading()[1] < 0 else g


def poly_gcd_of(polys: list[LaurentPoly]) -> LaurentPoly:
    """``poly_gcd`` of a nonempty list, folded from zero; it stops at 1."""
    g = LaurentPoly.zero(polys[0].vars)
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_one():
            break
    return g


def _gcd_nonneg(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    vars = a.vars
    # main variable: the one of least degree, preferring one missing from
    # either polynomial (the gcd of the contents is then the whole answer)
    degs = [(min(da, db), max(da, db), -i) for i, v in enumerate(vars)
            for da, db in [(a.degree(v), b.degree(v))] if da or db]
    if not degs:
        return LaurentPoly.constant(vars, _int_gcd(a.constant_value(), b.constant_value()))
    main = -min(degs)[2]
    ca, ua = _primitive(_split_main(a, main))
    cb, ub = _primitive(_split_main(b, main))
    cont = poly_gcd(ca, cb)
    if max(ua) < max(ub):
        ua, ub = ub, ua
    # each divisor is primitive (the first pair divided by their contents, each
    # remainder by its own), so the last one is the primitive part of the gcd
    while True:
        r = pseudo_rem(ua, ub, lambda p, k: p)
        if not r:
            break
        if max(r) == 0:
            return cont
        ua, ub = ub, _primitive(r)[1]
    g = {e[:main] + (d,) + e[main + 1:]: c for d, p in ub.items() for e, c in p.terms.items()}
    return LaurentPoly._raw(vars, g) * cont


class RationalFunction:
    """A quotient num/den of LaurentPoly over the same variable list.

    ``normalize`` cancels gcd(num, den), whose integer content is the gcd
    of theirs, clears the denominator's monomial part and makes its leading
    coefficient positive, giving a canonical representative.  The
    denominator keeps its integer content: 1/2 stays 1/2.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, normalize: bool = True):
        if num.vars != den.vars:
            raise VariableMismatch(f"{num.vars} vs {den.vars}")
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        self.num = num
        self.den = den
        if normalize:
            self._normalize()

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFunction":
        return cls(p, LaurentPoly.one(p.vars), normalize=False)

    def _normalize(self) -> None:
        if self.num.is_zero():
            self.den = LaurentPoly.one(self.num.vars)
            return
        g = poly_gcd(self.num, self.den)
        if not g.is_one() and not g.is_zero():
            self.num = self.num.divexact(g)
            self.den = self.den.divexact(g)
        # make den a true polynomial with min exponent 0 in each variable
        dmin = self.den.min_exponents()
        if any(dmin):
            neg = tuple(-x for x in dmin)
            self.den = self.den.shift_exponents(neg)
            self.num = self.num.shift_exponents(neg)
        if self.den.leading()[1] < 0:
            self.num = -self.num
            self.den = -self.den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _lift(self, other):
        """An int or LaurentPoly as a quotient over 1; anything else as is."""
        if isinstance(other, int):
            other = LaurentPoly.constant(self.num.vars, other)
        return RationalFunction.from_poly(other) if isinstance(other, LaurentPoly) else other

    def __add__(self, other):
        other = self._lift(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        other = self._lift(other)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.num.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}
