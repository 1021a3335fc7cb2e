"""Truncated q-series and bivariate (x, q)-series with exact integer coefficients.

A QSeries of order N stores the coefficients of q^0 .. q^(N-1); a BiSeries
stores finitely many x-slices, each a QSeries of the common q-order.
Arithmetic results carry the minimum order of the operands.  A Pochhammer
factor 1 - q^e is applied to a coefficient list in place:
``multiply_binomial`` and ``divide_binomial`` are the one loop each, shared
by ``pochhammer_expand``, ``inv_xq_pochhammer`` and the quadruple sums of
``holonomic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class TruncationError(ValueError):
    """Raised when data does not fit under the requested truncation order."""


class QSeries:
    """A q-power series known modulo q^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = list(coeffs)
        if len(cs) > order:
            raise TruncationError("more coefficients than the order allows")
        cs.extend([0] * (order - len(cs)))
        self.order = order
        self.coeffs = cs

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls(order, [1] if order else [])

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order)

    @classmethod
    def monomial(cls, order: int, exp: int, coeff: int = 1) -> "QSeries":
        s = cls(order)
        if 0 <= exp < order:
            s.coeffs[exp] = coeff
        elif exp < 0:
            raise ValueError("negative q-exponent in QSeries")
        return s

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise TruncationError("cannot extend a truncated series")
        return QSeries(order, self.coeffs[:order])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        return QSeries(n, [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __sub__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        return QSeries(n, [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __neg__(self) -> "QSeries":
        return QSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        out = [0] * n
        a, b = self.coeffs, other.coeffs
        for i in range(n):
            ai = a[i]
            if ai:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return QSeries(n, out)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (k >= 0), keeping the order."""
        if k < 0:
            raise ValueError("negative shift")
        if k == 0:
            return self
        return QSeries(self.order, [0] * min(k, self.order) + self.coeffs[: max(self.order - k, 0)])

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be +-1."""
        if self.order == 0:
            return QSeries(0)
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("constant term must be a unit (+1 or -1)")
        n = self.order
        inv = [0] * n
        inv[0] = c0
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * inv[k - j]
            inv[k] = -c0 * acc
        return QSeries(n, inv)

    def valuation(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def first_difference(self, other: "QSeries") -> int | None:
        n = min(self.order, other.order)
        for i in range(n):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __repr__(self):
        bits = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c]
        return (" + ".join(bits) or "0") + f" + O(q^{self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "QSeries":
        return cls(int(data["order"]), [int(c) for c in data["coeffs"]])


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PochhammerSpec:
    """A quotient of infinite Pochhammer symbols (q^r; q^m)_infinity.

    ``num`` and ``den`` are multisets of (residue r, modulus m) pairs; a
    pair repeated k times is a k-th power.
    """

    num: tuple[tuple[int, int], ...] = ()
    den: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for r, m in self.num + self.den:
            if m < 1:
                raise ValueError("modulus must be >= 1")
            if r < 0:
                raise ValueError("residue must be >= 0")
        if any(r == 0 for r, _ in self.den):
            raise ValueError("denominator factor needs residue >= 1")


def multiply_binomial(coeffs: list[int], e: int) -> None:
    """Multiply the series with coefficient list ``coeffs`` by 1 - q^e (e >= 0) in place."""
    for i in range(len(coeffs) - 1, e - 1, -1):  # descending: reads the old coeffs[i - e]
        coeffs[i] -= coeffs[i - e]


def divide_binomial(coeffs: list[int], e: int) -> None:
    """Divide the series with coefficient list ``coeffs`` by 1 - q^e (e >= 1) in place."""
    for i in range(e, len(coeffs)):
        coeffs[i] += coeffs[i - e]


def pochhammer_expand(spec: PochhammerSpec, order: int) -> QSeries:
    """Expand the product described by ``spec`` modulo q^order: the factors
    1 - q^e of ``num`` multiply, those of ``den`` divide, one at a time in place."""
    if order < 1:
        raise ValueError("order must be >= 1")
    s = QSeries.one(order)
    c = s.coeffs
    for r, m in spec.num:
        for e in range(r, order, m):
            multiply_binomial(c, e)
    for r, m in spec.den:
        for e in range(r, order, m):
            divide_binomial(c, e)
    return s


# ----------------------------------------------------------------------


class BiSeries:
    """A series in x and q, truncated in q: finitely many x-slices of QSeries."""

    __slots__ = ("qorder", "slices")

    def __init__(self, qorder: int, slices: dict[int, QSeries] | None = None):
        self.qorder = qorder
        self.slices: dict[int, QSeries] = {}
        if slices:
            for m, s in slices.items():
                if m < 0:
                    raise ValueError("negative x-exponent")
                s = s.truncate(qorder) if s.order > qorder else s
                if s.order < qorder:
                    raise TruncationError("slice order below the BiSeries qorder")
                if not s.is_zero():
                    self.slices[m] = s

    @classmethod
    def zero(cls, qorder: int) -> "BiSeries":
        return cls(qorder)

    @classmethod
    def one(cls, qorder: int) -> "BiSeries":
        return cls(qorder, {0: QSeries.one(qorder)})

    @classmethod
    def monomial(cls, qorder: int, xexp: int, qexp: int, coeff: int = 1) -> "BiSeries":
        return cls(qorder, {xexp: QSeries.monomial(qorder, qexp, coeff)})

    def slice(self, m: int) -> QSeries:
        return self.slices.get(m, QSeries.zero(self.qorder))

    def coeff(self, xexp: int, qexp: int) -> int:
        s = self.slices.get(xexp)
        if s is None or qexp >= self.qorder:
            return 0
        return s.coeffs[qexp]

    def is_zero(self) -> bool:
        return not self.slices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self.qorder == other.qorder
            and self.slices == other.slices
        )

    def __add__(self, other: "BiSeries") -> "BiSeries":
        n = min(self.qorder, other.qorder)
        out: dict[int, QSeries] = {m: s.truncate(n) for m, s in self.slices.items()}
        for m, s in other.slices.items():
            out[m] = out[m] + s if m in out else s.truncate(n)
        return BiSeries(n, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries(self.qorder, {m: -s for m, s in self.slices.items()})

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        n = min(self.qorder, other.qorder)
        out: dict[int, QSeries] = {}
        for m1, s1 in self.slices.items():
            for m2, s2 in other.slices.items():
                p = s1 * s2
                m = m1 + m2
                out[m] = out[m] + p if m in out else p
        return BiSeries(n, out)

    def eval_x1(self) -> QSeries:
        """Specialize x = 1."""
        acc = QSeries.zero(self.qorder)
        for s in self.slices.values():
            acc = acc + s
        return acc

    def truncate(self, qorder: int) -> "BiSeries":
        return BiSeries(qorder, {m: s.truncate(qorder) for m, s in self.slices.items()})

    def first_difference(self, other: "BiSeries") -> tuple[int, int] | None:
        """(x_exp, q_exp) of the first mismatching coefficient, or None."""
        n = min(self.qorder, other.qorder)
        for m in sorted(set(self.slices) | set(other.slices)):
            a, b = self.slice(m), other.slice(m)
            for i in range(n):
                if a.coeffs[i] != b.coeffs[i]:
                    return (m, i)
        return None

    def __repr__(self):
        bits = []
        for m in sorted(self.slices):
            bits.append(f"x^{m}*({self.slices[m]!r})")
        return " + ".join(bits) or f"0 + O(q^{self.qorder})"

    def to_json(self) -> dict:
        return {
            "qorder": self.qorder,
            "slices": {str(m): s.to_json() for m, s in sorted(self.slices.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "BiSeries":
        return cls(int(data["qorder"]), {int(m): QSeries.from_json(s) for m, s in data["slices"].items()})


def inv_xq_pochhammer(order: int) -> BiSeries:
    """1/(xq; q)_infinity as a BiSeries modulo q^order: slice m is q^m/(q;q)_m."""
    poch = QSeries.one(order)  # (q;q)_m, one factor more per slice
    out: dict[int, QSeries] = {}
    for m in range(order):
        if m:
            multiply_binomial(poch.coeffs, m)
        out[m] = poch.invert().shift(m)
    return BiSeries(order, out)
