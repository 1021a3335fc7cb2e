"""Oracles shared by the tests.

The library applies Pochhammer factors to coefficient lists in place;
``finite_pochhammer`` and ``f_to_g`` build the same products with one
``QSeries`` or ``BiSeries`` product per factor. The library lists 2-colored
partitions in walk order grouped by (size, length); ``listing_order_key``
is the sort key that states the listing order directly.
"""

from qpart.colored import part_key, size
from qpart.series import BiSeries, QSeries


def listing_order_key(lam):
    """The order of enumerate_2colored: size, length, then the parts largest first."""
    return (size(lam), len(lam), tuple((-m, -c) for m, c in map(part_key, lam)))


def finite_pochhammer(base: int, length: int, order: int) -> QSeries:
    """(q^base; q^base)_length modulo q^order: prod_(j=1..length) (1 - q^(base*j))."""
    s = QSeries.one(order)
    for j in range(1, length + 1):
        s = (QSeries.one(order) - QSeries.monomial(order, base * j)) * s
    return s


def f_to_g(f: BiSeries) -> BiSeries:
    """The oracle for g_to_f: multiply by the literal product (xq; q)_inf = prod_j (1 - x q^j)."""
    n = f.qorder
    for j in range(1, n):
        f = f * (BiSeries.one(n) - BiSeries.monomial(n, 1, j))
    return f
