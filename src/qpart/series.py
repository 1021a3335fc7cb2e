"""Truncated q-series and bivariate (x, q)-series with exact integer coefficients.

A QSeries of order N stores the coefficients of q^0 .. q^(N-1); a BiSeries
stores finitely many x-slices, each a QSeries of the common q-order.
Arithmetic results carry the minimum order of the operands.  Both products
are ``packed_product``: each operand is packed into one integer, a slot per
coefficient, and the two integers are multiplied once; a slot is wide enough
for the largest coefficient the product can have, with its sign, so none
carries into the next.  A Pochhammer factor 1 - q^e is applied to a
coefficient list in place: ``multiply_binomial`` and ``divide_binomial`` are
the one loop each, shared by ``pochhammer_expand``, ``inv_xq_pochhammer``
and the quadruple sums of ``holonomic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class TruncationError(ValueError):
    """Raised when data does not fit under the requested truncation order."""


def packed_product(a: dict[int, list[int]], b: dict[int, list[int]], n: int) -> dict[int, list[int]]:
    """The product of two x-slice maps {m: q-coefficients} modulo q^n, as slices
    0 .. max(a) + max(b), by one integer product (Kronecker substitution).

    Coefficient (m, i < n) goes in slot m*(2n - 1) + i: a slice product has
    degree at most 2n - 2, so it stays off the next x-slice.  A coefficient of
    the untruncated product adds distinct a-coefficients, each times one of b,
    so it is at most min(|a|_1 |b|_inf, |a|_inf |b|_1).  Slots of w bits with
    2^(w-1) > bound hold it signed; adding 2^(w-1) makes each slot a digit >= 0.
    """
    if not a or not b or n == 0:
        return {}
    (a1, a_max), (b1, b_max) = ((sum(cs) or 1, max(cs, default=0) or 1)  # >= 1: an all-zero operand fits
                                for cs in ([abs(c) for cs in rows.values() for c in cs[:n]] for rows in (a, b)))
    bound = min(a1 * b_max, a_max * b1)
    width, stride, top = bound.bit_length() // 8 + 1, 2 * n - 1, max(a) + max(b) + 1  # 2^(8*width - 1) > bound

    def pack(rows: dict[int, list[int]]) -> int:  # the positive part minus the negative part
        parts = bytearray((max(rows) + 1) * stride * width), bytearray((max(rows) + 1) * stride * width)
        for m, cs in rows.items():
            for k, c in enumerate(cs[:n], m * stride):
                if c:
                    parts[c < 0][k * width:(k + 1) * width] = abs(c).to_bytes(width, "little")
        return int.from_bytes(parts[0], "little") - int.from_bytes(parts[1], "little")

    half = 1 << 8 * width - 1
    biased = pack(a) * pack(b) + int.from_bytes((bytes(width - 1) + b"\x80") * (top * stride), "little")
    data = biased.to_bytes(top * stride * width, "little")
    return {m: [int.from_bytes(data[k:k + width], "little") - half
                for k in range(m * stride * width, (m * stride + n) * width, width)] for m in range(top)}


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
        return QSeries(n, packed_product({0: self.coeffs}, {0: other.coeffs}, n).get(0, ()))

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
        return next((i for i, c in enumerate(self.coeffs) if c), None)

    def first_difference(self, other: "QSeries") -> int | None:
        return next((i for i, (c, d) in enumerate(zip(self.coeffs, other.coeffs)) if c != d), None)

    def __repr__(self):
        bits = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c]
        return (" + ".join(bits) or "0") + f" + O(q^{self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


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
        rows = packed_product({m: s.coeffs for m, s in self.slices.items()},
                              {m: s.coeffs for m, s in other.slices.items()}, n)
        return BiSeries(n, {m: QSeries(n, cs) for m, cs in rows.items()})

    def eval_x1(self) -> QSeries:
        """Specialize x = 1."""
        return sum(self.slices.values(), QSeries.zero(self.qorder))

    def truncate(self, qorder: int) -> "BiSeries":
        return BiSeries(qorder, {m: s.truncate(qorder) for m, s in self.slices.items()})

    def first_difference(self, other: "BiSeries") -> tuple[int, int] | None:
        """(x_exp, q_exp) of the first mismatching coefficient, or None."""
        ms = sorted(set(self.slices) | set(other.slices))
        diffs = ((m, self.slice(m).first_difference(other.slice(m))) for m in ms)
        return next(((m, i) for m, i in diffs if i is not None), None)

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


def inv_xq_pochhammer(order: int) -> BiSeries:
    """1/(xq; q)_infinity as a BiSeries modulo q^order: slice m is q^m/(q;q)_m.

    (q;q)_(order-1) is inverted once; going down the slices,
    1/(q;q)_(m-1) = (1 - q^m)/(q;q)_m is one multiply_binomial in place.
    """
    poch = QSeries.one(order)
    for m in range(1, order):
        multiply_binomial(poch.coeffs, m)
    inv = poch.invert()  # 1/(q;q)_(order-1)
    slices = []
    for m in range(order - 1, 0, -1):
        slices.append(inv.shift(m))
        multiply_binomial(inv.coeffs, m)  # now 1/(q;q)_(m-1)
    slices.append(inv)
    return BiSeries(order, dict(enumerate(reversed(slices))))
