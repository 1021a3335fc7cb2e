"""Sparse Laurent polynomials and rational functions with exact integer coefficients.

Everything in this package is exact: coefficients are arbitrary-precision
Python ints, exponents may be negative, and no operation ever rounds.
A polynomial carries its own ordered variable list; mixing polynomials
over different variable lists is a structural error.

The monomial order used for canonical choices (leading coefficients,
tie-breaking) is graded lexicographic over the fixed variable order.
"""

from __future__ import annotations

from math import gcd as _int_gcd
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

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int] | None = None):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            n = len(self.vars)
            for e, c in terms.items():
                if c:
                    e = tuple(e)
                    if len(e) != n:
                        raise VariableMismatch(f"exponent vector {e} has wrong length for vars {self.vars}")
                    clean[e] = clean.get(e, 0) + c
                    if not clean[e]:
                        del clean[e]
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

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

    def int_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = _int_gcd(g, c)
            if g == 1:
                return 1
        return g

    # ------------------------------------------------------------------
    # arithmetic

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatch(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars = self.vars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.vars)
            out = LaurentPoly.__new__(LaurentPoly)
            out.vars = self.vars
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out_terms: dict[tuple[int, ...], int] = {}
        bi = list(b.items())
        for ea, ca in a.items():
            for eb, cb in bi:
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out_terms.get(e, 0) + ca * cb
                if s:
                    out_terms[e] = s
                elif e in out_terms:
                    del out_terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars = self.vars
        out.terms = out_terms
        return out

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
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == other
        return isinstance(other, LaurentPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # structural operations

    def shift_exponents(self, delta: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial with exponent vector ``delta``."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars = self.vars
        out.terms = {tuple(x + d for x, d in zip(e, delta)): c for e, c in self.terms.items()}
        return out

    def twist(self, src: str, dst: str, mult: int) -> "LaurentPoly":
        """Add ``mult * exponent(src)`` to the exponent of ``dst`` in each term.

        This implements substitutions of the shape src -> src * dst^mult,
        e.g. q^n -> q^(n-1) is twist('u', 'q', -1) when u stands for q^n.
        """
        if not mult:
            return self
        i = self.vars.index(src)
        j = self.vars.index(dst)
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[j] += mult * e[i]
            key = tuple(ee)
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars = self.vars
        out.terms = terms
        return out

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
        """Exact division; raises ValueError if not divisible."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = self
        quo_terms: dict[tuple[int, ...], int] = {}
        le, lc = other.leading()
        # every exponent of an exact quotient is at least this, componentwise;
        # the bound also keeps a division that is not exact from running forever
        floor = tuple(a - b for a, b in zip(self.min_exponents(), other.min_exponents()))
        while not rem.is_zero():
            re, rc = rem.leading()
            if rc % lc:
                raise ValueError("not exactly divisible (coefficient)")
            qe = tuple(a - b for a, b in zip(re, le))
            if any(e < f for e, f in zip(qe, floor)):
                raise ValueError("not exactly divisible (exponent)")
            qc = rc // lc
            quo_terms[qe] = qc
            rem = rem - other * LaurentPoly.monomial(self.vars, qe, qc)
        return LaurentPoly(self.vars, quo_terms)

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

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls(tuple(data["vars"]), {tuple(e): int(c) for e, c in data["terms"]})


# ----------------------------------------------------------------------
# polynomial gcd (primitive PRS), used for rational-function normalization


def _to_nonneg(p: LaurentPoly) -> tuple[LaurentPoly, tuple[int, ...]]:
    """Strip the monomial content so all exponents become nonnegative."""
    m = p.min_exponents()
    if any(m):
        return p.shift_exponents(tuple(-x for x in m)), m
    return p, m


def _split_main(p: LaurentPoly, i: int) -> dict[int, LaurentPoly]:
    """View p as univariate in variable i with LaurentPoly coefficients."""
    coeffs: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in p.terms.items():
        d = e[i]
        rest = e[:i] + (0,) + e[i + 1:]
        coeffs.setdefault(d, {})[rest] = c
    return {d: LaurentPoly(p.vars, t) for d, t in coeffs.items()}


def _join_main(coeffs: dict[int, LaurentPoly], i: int, vars: tuple[str, ...]) -> LaurentPoly:
    terms: dict[tuple[int, ...], int] = {}
    for d, p in coeffs.items():
        for e, c in p.terms.items():
            terms[e[:i] + (d,) + e[i + 1:]] = c
    return LaurentPoly(vars, terms)


def _poly_content(p: LaurentPoly, i: int) -> LaurentPoly:
    """gcd of the univariate-in-var-i coefficients."""
    g = LaurentPoly.zero(p.vars)
    for c in _split_main(p, i).values():
        g = poly_gcd(g, c)
        if g.is_one():
            break
    return g


def _pseudo_rem(a: dict[int, LaurentPoly], b: dict[int, LaurentPoly], vars, i) -> dict[int, LaurentPoly]:
    """Pseudo-remainder of a by b, both univariate-in-i coefficient maps."""
    da, db = max(a), max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new: dict[int, LaurentPoly] = {}
        for d, c in r.items():
            if d != dr:
                new[d] = c * lb
        for d, c in b.items():
            if d != db:
                key = d + dr - db
                val = new.get(key, LaurentPoly.zero(vars)) - c * lr
                if val.is_zero():
                    new.pop(key, None)
                else:
                    new[key] = val
        r = {d: c for d, c in new.items() if not c.is_zero()}
    return r


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of two Laurent polynomials, up to sign; monomial parts stripped.

    Uses a primitive PRS over the coefficient ring, recursing on the
    number of variables; the main variable is the one of least degree, and
    the PRS is skipped where ``_coprime_in`` shows it would end in a
    constant.  The result is content-normalized with positive leading
    coefficient.
    """
    if a.vars != b.vars:
        raise VariableMismatch(f"{a.vars} vs {b.vars}")
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        a0, _ = _to_nonneg(a)
        b0, _ = _to_nonneg(b)
        g = _gcd_nonneg(a0, b0)
    if g.is_zero():
        return g
    g, _ = _to_nonneg(g)
    if g.leading()[1] < 0:
        g = -g
    return g


def _coprime_in(a: LaurentPoly, b: LaurentPoly, main: int) -> bool:
    """True if a and b share no factor of positive degree in the main variable.

    Shown at one point, every other variable set to one integer: a common
    factor divides both leading coefficients, so where neither vanishes its
    degree survives, and a constant gcd of the images rules it out.  False
    means undecided.
    """
    var = a.vars[main]
    for point in (2, 3, 5, 7):
        images = []
        for f in (a, b):
            terms: dict[tuple[int, ...], int] = {}
            for e, c in f.terms.items():
                key = tuple(x if i == main else 0 for i, x in enumerate(e))
                terms[key] = terms.get(key, 0) + c * point ** (sum(e) - e[main])
            images.append(LaurentPoly(a.vars, terms))
        if all(not g.is_zero() and g.degree(var) == f.degree(var) for f, g in zip((a, b), images)):
            return _gcd_nonneg(*images).is_constant()
    return False


def _gcd_nonneg(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    vars = a.vars
    # main variable: the one of least degree, preferring one missing from
    # either polynomial (the gcd of the contents is then the whole answer)
    degs = [(min(da, db), max(da, db), -i) for i, v in enumerate(vars)
            for da, db in [(a.degree(v), b.degree(v))] if da or db]
    if not degs:
        return LaurentPoly.constant(vars, _int_gcd(a.constant_value(), b.constant_value()))
    main = -min(degs)[2]
    ca, cb = _poly_content(a, main), _poly_content(b, main)
    cont = poly_gcd(ca, cb)
    # with one variable there is nothing to evaluate: the images are a and b
    if len(degs) > 1 and _coprime_in(a, b, main):
        return cont
    ua = _split_main(a, main)
    ub = _split_main(b, main)
    ua = {d: c.divexact(ca) for d, c in ua.items()}
    ub = {d: c.divexact(cb) for d, c in ub.items()}
    if max(ua) < max(ub):
        ua, ub = ub, ua
    while True:
        r = _pseudo_rem(ua, ub, vars, main)
        if not r:
            g = _join_main(ub, main, vars)
            break
        if max(r) == 0:
            g = LaurentPoly.one(vars)
            break
        cr = _poly_content(_join_main(r, main, vars), main)
        ua, ub = ub, {d: c.divexact(cr) for d, c in _split_main(_join_main(r, main, vars), main).items()}
    gc = _poly_content(g, main)
    g = _join_main({d: c.divexact(gc) for d, c in _split_main(g, main).items()}, main, vars)
    return g * cont


class RationalFunction:
    """A quotient num/den of LaurentPoly over the same variable list.

    ``normalize`` cancels gcd(num, den), clears the denominator's monomial
    and integer content, and fixes the denominator's leading sign, giving
    a canonical representative.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None, normalize: bool = True):
        if den is None:
            den = LaurentPoly.one(num.vars)
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
        c = self.den.int_content()
        if self.den.leading()[1] < 0:
            c = -c
        if c != 1:
            ng = _int_gcd(self.num.int_content(), abs(c)) * (1 if c > 0 else -1)
            if abs(ng) != 1 and all(x % ng == 0 for x in self.num.terms.values()) and all(
                x % ng == 0 for x in self.den.terms.values()
            ):
                self.num = LaurentPoly(self.num.vars, {e: x // ng for e, x in self.num.terms.items()})
                self.den = LaurentPoly(self.den.vars, {e: x // ng for e, x in self.den.terms.items()})
            elif c < 0:
                self.num = -self.num
                self.den = -self.den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunction(other if isinstance(other, LaurentPoly) else LaurentPoly.constant(self.num.vars, other), normalize=False)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunction(other if isinstance(other, LaurentPoly) else LaurentPoly.constant(self.num.vars, other), normalize=False)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return RationalFunction(self.num * other, self.den)
        if isinstance(other, LaurentPoly):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RationalFunction(LaurentPoly.constant(self.num.vars, other), normalize=False)
        elif isinstance(other, LaurentPoly):
            other = RationalFunction(other, normalize=False)
        if other.num.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return (self.num - self.den * other).is_zero()
        if isinstance(other, LaurentPoly):
            return (self.num - self.den * other).is_zero()
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        r = RationalFunction(self.num, self.den)
        return hash((r.num, r.den))

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(LaurentPoly.from_json(data["num"]), LaurentPoly.from_json(data["den"]), normalize=False)
