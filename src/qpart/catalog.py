"""The bundled mathematical data sets: products, sums, operators, certificates.

Everything here is fixed input data for the verification tasks: infinite
product descriptions, quadruple-sum specifications, the profile recursion
displays and first-order relations, and four certificate sets proving the
q-holonomic recurrences.  Formulas are written with u = q^n and v_i = q^(k_i).

Each identity is typed in once; the other entries are derived from it:

* ``identities``, the one table keyed by battery name, ties each name to
  its sum, series, product, certificate and system, read at each call;
* ``certificate_term``, the term a certificate telescopes, is the x^n
  coefficient of the row's sum (``AGSumSpec.coefficient_term``);
* ``coupled_g_system`` is the (3,0,0) and (1,1,1) rows of
  ``FIRST_ORDER_RELATIONS``;
* the q-difference operators ``qdiff_operator_*`` are the rows' systems
  uncoupled at their components (``annihilator``), negated: their last
  coefficient has a negative leading term;
* ``pprime_family`` is the x^n-coefficient recurrence of
  ``qdiff_operator_g111`` (``recurrence_from_operator``).

Five certificate tokens carry an emendation (selected by verification,
recorded in the project notes): in g111 a stray x in q2 read as q; in d123
the exponent 3n+12 of one q2 token read as 3n+2 and the factor 3 restored
to the closing term of r2; in d1234 the exponent 3n+12 of one q0 token read
as 3n+2 and the -2q^8 of q3 read as -2q^7.  The verbatim readings of d123
and d1234 are kept for the soundness probes; g300 has no emendation, so its
verbatim set is the printed one; g111 has no verbatim set, since its
printed x^(3n+8) is not a term of the certificate algebra.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .automata import build_avoidance_dfa, derive_transfer_system
from .colored import COND_D123, COND_D1234
from .holonomic import (
    XQ_VARS,
    AGSumSpec,
    CertificateSet,
    HypTerm,
    QDiffOperator,
    Symbols,
    recurrence_from_operator,
    uncouple_system,
)
from .laurent import LaurentPoly
from .series import PochhammerSpec

# ----------------------------------------------------------------------
# infinite products

PRODUCT_D123 = PochhammerSpec(
    num=((2, 6), (4, 6)),
    den=((1, 6), (1, 6), (3, 6), (3, 6), (5, 6), (5, 6)),
)

PRODUCT_D1234 = PochhammerSpec(den=((2, 6), (3, 6), (3, 6), (4, 6)))

PRODUCT_AUX = PochhammerSpec(den=((1, 3), (2, 3)))

EULER_PRODUCT = PochhammerSpec(num=((1, 1),))


# ----------------------------------------------------------------------
# quadruple sums
#
# shared quadratic: a^2+b^2+3c^2+3d^2+2ab+3ac+3ad+3bc+3bd+6cd

_QUAD2 = (
    (2, 2, 3, 3),
    (2, 2, 3, 3),
    (3, 3, 6, 6),
    (3, 3, 6, 6),
)
_BASES = (1, 1, 3, 3)

#: length-graded sum equal to the D1-D3 class generating function
AG_D123 = AGSumSpec(_QUAD2, (0, 0, 0, 0), (1, 1, 2, 2), _BASES)

#: length-graded sum equal to the D1-D4 class generating function
AG_D1234 = AGSumSpec(_QUAD2, (1, 2, 3, 3), (1, 1, 2, 2), _BASES)

#: max-part-graded sum equal to G_(1,1,1)
AG_G111 = AGSumSpec(_QUAD2, (0, 0, 0, 0), (1, 1, 1, 2), _BASES)

#: max-part-graded sum equal to G_(3,0,0)
AG_G300 = AGSumSpec(_QUAD2, (1, 2, 3, 3), (1, 1, 1, 2), _BASES)

#: max-part-graded sum equal to G_(2,1,0), and to 1/(q, q^2; q^3)_inf at x = 1
AG_AUX = AGSumSpec(_QUAD2, (0, 1, 1, 2), (1, 1, 2, 1), _BASES)


class Identity(NamedTuple):
    """One battery name's ties: ``sum`` equals G of ``profile`` (of the (3,0,0)
    orbit) or the series of the 2-colored class ``conds``; ``product`` is its
    product side, and a class at x = 1 equals G of the profile ``profile_at_x1`` names.
    ``families`` builds a certified sum's certificate set, whose term substitutes
    out k_(``eliminate``+1); ``system`` (name, component) uncouples to its operator."""

    sum: AGSumSpec
    profile: tuple[int, ...] | None = None
    conds: frozenset[str] | None = None
    product: PochhammerSpec | None = None
    profile_at_x1: str | None = None
    families: Callable | None = None
    eliminate: int | None = None
    system: tuple[str, int] | None = None


def identities() -> dict[str, Identity]:
    """Each battery name's ties, profiles first; built from the module constants
    and builders at each call, so a replaced one reaches every task that reads it."""
    return {
        "g111": Identity(AG_G111, profile=(1, 1, 1), families=_families_g111, eliminate=0, system=("2x2", 1)),
        "g300": Identity(AG_G300, profile=(3, 0, 0), families=_families_g300, eliminate=1, system=("2x2", 0)),
        "aux": Identity(AG_AUX, profile=(2, 1, 0), product=PRODUCT_AUX),
        "d123": Identity(AG_D123, conds=COND_D123, product=PRODUCT_D123, profile_at_x1="g111",
                         families=_families_d123, eliminate=0, system=("5x5", 0)),
        "d1234": Identity(AG_D1234, conds=COND_D1234, product=PRODUCT_D1234, profile_at_x1="g300",
                          families=_families_d1234, eliminate=1, system=("5x5", 1)),
    }


def _row(name: str, field: str) -> Identity:
    """The row of ``name``; a KeyError when there is none or its ``field`` is None."""
    if getattr(row := identities()[name], field) is None:
        raise KeyError(name)
    return row


# ----------------------------------------------------------------------
# profile relations, over (x, q)

_X = LaurentPoly.variable(XQ_VARS, "x")
_Q = LaurentPoly.variable(XQ_VARS, "q")
_1 = LaurentPoly.one(XQ_VARS)

#: profile recursion displays: target profile = sum of (coeff, xshift, source)
RECURSION_DISPLAYS: list[tuple[tuple[int, ...], list[tuple[LaurentPoly, int, tuple[int, ...]]]]] = [
    ((3, 0, 0), [(_1, 1, (2, 1, 0))]),
    ((2, 1, 0), [(2 * _1, 1, (2, 0, 1)), (-(_1 - _X * _Q), 2, (1, 1, 1))]),
    (
        (2, 0, 1),
        [(_1, 1, (3, 0, 0)), (_1, 1, (1, 1, 1)), (-(_1 - _X * _Q), 2, (2, 1, 0))],
    ),
    (
        (1, 1, 1),
        [
            (3 * _1, 1, (2, 1, 0)),
            (-3 * (_1 - _X * _Q), 2, (2, 0, 1)),
            ((_1 - _X * _Q) * (_1 - _X * _Q**2), 3, (1, 1, 1)),
        ],
    ),
]

#: derived first-order relations, same encoding
FIRST_ORDER_RELATIONS: list[tuple[tuple[int, ...], list[tuple[LaurentPoly, int, tuple[int, ...]]]]] = [
    ((2, 0, 1), [(_1, 1, (1, 1, 1)), (_X * _Q, 1, (3, 0, 0))]),
    ((2, 1, 0), [(_1 + _X * _Q, 2, (1, 1, 1)), (2 * _X * _Q**2, 2, (3, 0, 0))]),
    ((3, 0, 0), [(_1 + _X * _Q**2, 3, (1, 1, 1)), (2 * _X * _Q**3, 3, (3, 0, 0))]),
    (
        (1, 1, 1),
        [
            (3 * _X * _Q**3 * (_1 + _X * _Q), 3, (3, 0, 0)),
            (_1 + 2 * _X * _Q + 2 * _X * _Q**2 + _X**2 * _Q**3, 3, (1, 1, 1)),
        ],
    ),
]


def coupled_g_system() -> list[list[LaurentPoly]]:
    """The 2x2 system F(x) = A(x) F(x q^3) for F = (G_(3,0,0), G_(1,1,1)):
    the rows of FIRST_ORDER_RELATIONS for those two profiles."""
    pair = ((3, 0, 0), (1, 1, 1))
    entries = {
        (target, source): coeff
        for target, terms in FIRST_ORDER_RELATIONS if target in pair
        for coeff, shift, source in terms if shift == 3
    }
    return [[entries[target, source] for source in pair] for target in pair]


# ----------------------------------------------------------------------
# scalar q-difference operators: each system uncoupled at one component


def _automaton_matrix():
    return derive_transfer_system(build_avoidance_dfa()).matrix


def system_matrix(system: str, transfer_matrix=_automaton_matrix):
    """The matrix of a system named as in ``Identity.system``: "2x2" is
    ``coupled_g_system()`` and "5x5" is ``transfer_matrix()``, by default the
    automaton's; a caller that holds a transfer system passes its own, which
    is read only for the 5x5 system."""
    return {"2x2": coupled_g_system, "5x5": transfer_matrix}[system]()


def annihilator(name: str, transfer_matrix=_automaton_matrix) -> QDiffOperator:
    """The operator that annihilates the series of ``name``: its row's system
    (see ``system_matrix``) uncoupled at its row's component."""
    system, component = _row(name, "system").system
    op = uncouple_system(system_matrix(system, transfer_matrix), component)
    # uncoupling makes the last coefficient's leading term positive; these
    # operators keep the opposite sign they were first typed in with, whose
    # bytes the highorder benchmark digests pin
    return QDiffOperator(tuple((-c, s) for c, s in op.terms), op.step)


#: ``qdiff_operator_<name>()`` annihilates the series of ``name``: order 2
#: on the 2x2 system's profiles, order 3 on the 5x5 system's classes
qdiff_operator_g300 = partial(annihilator, "g300")
qdiff_operator_g111 = partial(annihilator, "g111")
qdiff_operator_d123 = partial(annihilator, "d123")
qdiff_operator_d1234 = partial(annihilator, "d1234")


# ----------------------------------------------------------------------
# certificate sets


def _families_g111(s: Symbols, verbatim: bool = False):
    if verbatim:
        raise ValueError("g111 has no verbatim reading: its printed x^(3n+8) is no term of the certificate algebra")
    q, u = s.q, s.u
    vb, vc, vd = s.v1, s.v2, s.v3
    B, C, D = s.K1, s.K2, s.K3
    w = vb * vc**2 * vd          # q^(b+2c+d)
    y = u * vc**2 * vd           # q^(n+2c+d)

    p0 = -2 * u**6 * q**8 - u**3 * q**12 + 2 * u**3 * q**8 + q**12
    r0 = 0 * q
    s0 = (2 * u**3 * q**8 + q**12) * (vb - 1)
    q0 = (4 * u**4 * q**9 + 2 * u**4 * q**8 + u * q**12 + 2 * u * q**10) * (u**2 - w) \
        + (2 * u**3 * q**8 + q**12) * (y - vb)

    p1 = -(2 * u**6 + 3 * u**3 * q**4 + 4 * u**3 * q**3 + 4 * u**3 * q**2
           + 2 * u**3 * q + 2 * q**6 + 2 * q**5 + 2 * q**4) * u**3 * q**5
    q1 = (4 * u**6 * q**6 + 2 * u**6 * q**5 + u**3 * q**9 + 2 * u**3 * q**7) \
        * (u**3 * C + q**2 * vb + (B - C * vb) * q**2 * y) \
        + (4 * u**7 * q**8 + 2 * u**7 * q**7 - u**4 * q**11 + 2 * u**4 * q**9 - u * q**12) * w \
        + u * q**7 * (2 * u**3 + q**4) * ((1 + C) * u**3 + D * q * vb) * vc**2 * vd \
        + (2 * u**3 * q**3 + 2 * u**3 * q + 2 * u**3 + q**5 + 2 * q**4) * u**3 * q**6
    r1 = 2 * u**9 * q**5 + u**6 * q**9
    s1 = (4 * u**6 * q**8 + 2 * u**6 * q**7 + u**3 * q**11 + 2 * u**3 * q**9) * (1 - vb) \
        + (2 * u**3 + q**4) * q**8 * u * w

    p2 = 2 * u**9 * q**4 + 2 * u**9 * q**3 - 3 * u**6 * q**8 + 2 * u**6 * q**5 \
        + u**6 * q**4 - u**3 * q**9
    # the term 2q^(6n+7) + q^(3n+8) below carries the one-token emendation
    # x^(3n+8) -> q^(3n+8); the verbatim reading is not even a monomial in
    # the certificate variables, so only the emended form is built
    q2 = ((4 * u**10 * q**4 + 2 * u**10 * q**3 + u**7 * q**7 + 2 * u**7 * q**5) * (B + vb)
          + 2 * u**10 * q**3 + u**7 * q**7 - u**4 * q**8 * vb - 2 * u**7 * q**7 * vb) * C * vc**2 * vd \
        + (-2 * u**9 * q**4 + u**6 * q**8 - 2 * u**6 * q**5) \
        + 2 * (u**7 * q**7 + u**7 * q**4 + u**4 * q**8) * w \
        + (2 * u**6 * q**7 + u**3 * q**8) * (u**3 * q**-4 * C + B * y + y + q * vb)
    r2 = (2 * u**9 * q**3 + u**6 * q**4) - (2 * u**7 * q**4 + u**4 * q**8) * w
    s2 = (2 * u**6 * q**7 + u**3 * q**8) * (q * (1 - vb) - 2 * u * w)

    p3 = -(2 * u**9 * q**2 + u**6 * q**3)
    q3 = (2 * u**9 + u**6 * q) * (q**2 + (1 + vb + B) * C * y)
    r3 = (4 * u**3 + 2 * q) * u**7 * w
    s3 = 0 * q

    return {
        "p": [p0, p1, p2, p3],
        "q": [q0, q1, q2, q3],
        "r": [r0, r1, r2, r3],
        "s": [s0, s1, s2, s3],
    }


def _families_g300(s: Symbols, verbatim: bool = False):
    q, u = s.q, s.u
    va, vc, vd = s.v1, s.v2, s.v3
    A, C, D = s.K1, s.K2, s.K3
    w = va * vc**2 * vd          # q^(a+2c+d)
    y = u * vc**2 * vd           # q^(n+2c+d)

    r1 = (u**3 * q + u**3 + q**4) * u**6 * q**5
    p0 = (1 - u**3) * u**-6 * r1
    s0 = u**-6 * r1 * (va - 1)
    r0 = 0 * q
    q0 = (u**3 * q**2 + 3 * u**3 * q + 2 * u**3 + q**4 + q**2 + q) * u * q**5 * (u**2 - w) \
        + u**-6 * r1 * (y - va)

    p1 = -(r1 + 2 * u**6 * q**8 + 4 * u**6 * q**7 + 4 * u**6 * q**6 + 2 * u**6 * q**5
           + u**3 * q**10 + 2 * u**3 * q**9 + 2 * u**3 * q**8 + u**3 * q**7)
    p3 = -(u**3 * q + u**3 + q) * u**6 * q**2
    t = (u**3 * q**2 + 3 * u**3 * q + 2 * u**3 + q**4 + q**2 + q) * u**3 * q**6
    q1 = t * q**-1 * (A * y + q * va - C * q**2 * va * y + C * u**3) \
        + r1 * (C * q**2 + 1 + D * u**-3 * q * va) * u**-2 * vc**2 * vd \
        + (2 * r1 - p3 * q**5) * u**-3 \
        + (u * t + u**-5 * q**7 * p3) * w
    s1 = t * (1 - va) + r1 * u**-5 * q * va * vc**2 * vd
    r3 = (u**3 * q**2 + 2 * u**3 * q + u**3 + q**2 + q) * u**7 * q**2 * w

    p2 = (u**6 * q**2 + 2 * u**6 * q + u**6 - u**3 * q**6 - u**3 * q**5 - u**3 * q**4
          + u**3 * q**2 + 2 * u**3 * q - q**6) * u**3 * q**3
    q2 = t * A * C * u**4 * q**-2 * vc**2 * vd \
        - p3 * (A * u**-2 * q**4 * vc**2 * vd + C * q**2 + u**-2 * q**4 * vc**2 * vd + u**-3 * q**6 * va) \
        + r1 * C * u * q**-1 * vc**2 * vd \
        + (u**4 * q**-1 * t + p3 * u**-2 * q**6) * C * w \
        + p3 * q**2 + u**6 * q**4 * (-1 + q**3) \
        + (r1 - q**5 * p3) * u**-2 * w
    r2 = -p3 * q**2 - r1 * u**-2 * w
    s2 = -p3 * u**-3 * q**6 * (1 - va) \
        - (u**3 * q**2 + 2 * u**3 * q + u**3 + q**2 + q) * u**4 * q**6 * w

    q3 = -p3 * (1 + C * (A + 1 + q * va) * y)
    s3 = 0 * q

    return {
        "p": [p0, p1, p2, p3],
        "q": [q0, q1, q2, q3],
        "r": [r0, r1, r2, r3],
        "s": [s0, s1, s2, s3],
    }


def _families_d123(s: Symbols, verbatim: bool = False):
    q, u = s.q, s.u
    vb, vc, vd = s.v1, s.v2, s.v3
    B, C, D = s.K1, s.K2, s.K3
    w = vb * vc * vd             # q^(b+c+d)
    y = u * vc * vd              # q^(n+c+d)
    g = 6 * (q**2 + 3) * (q**3 - 1)
    t = 36 * u**3 * q + 12 * u**3 + q**8 + 9 * q**6 + 27 * q**4 + 27 * q**2
    e1 = 12 * u**3 + q**8 + 6 * q**6 + 9 * q**4
    e2 = 6 * u**3 * q**5 + 18 * u**3 * q**3 - 6 * u**3 * q**2 - 6 * u**3 + q**8 + 6 * q**6 + 9 * q**4
    e3 = 12 * u**3 - 2 * q**8 - 6 * q**6 + 3 * q**5 + 12 * q**3 + 9 * q
    e4 = 12 * u**3 + q**5 + 6 * q**3 + 9 * q

    p0 = -12 * u**6 * q**21 - u**3 * q**29 - 6 * u**3 * q**27 - 9 * u**3 * q**25 \
        + 12 * u**3 * q**21 + q**29 + 6 * q**27 + 9 * q**25
    r0 = g * u**3 * q**21 * (1 - vb)
    s0 = g * u**3 * q**21 * (1 - vb)
    q0 = t * u * q**21 * (u**2 - w) + g * u**3 * q**21 * (vb - y)

    p1 = -2 * (3 * u**3 * q**5 + 9 * u**3 * q**3 + 9 * u**3 * q**2 + 12 * u**3 * q + 3 * u**3
               + q**10 + q**9 + 4 * q**8 + 6 * q**7 + 6 * q**6 + 12 * q**5 + 9 * q**4 + 9 * q**3) * u**3 * q**19
    q1 = (-g * q * (C + D) + 36 * u**3 * q + 12 * u**3 + q**8 + 15 * q**6 + 45 * q**4
          - 6 * q**3 + 27 * q**2 - 18 * q) * u**4 * q**20 * w \
        + u**3 * q**20 * (e1 * (1 + q**-1 + y) + t * (vb + y * B))
    r1 = t * u**3 * q**20 * (1 - vb) - g * u**4 * q**21 * w
    s1 = t * u**3 * q**20 * (1 - vb) - g * u**4 * q**21 * w

    p2 = (12 * u**6 * q + 12 * u**6 + u**3 * q**9 - 8 * u**3 * q**8 - 6 * u**3 * q**7
          + 12 * u**3 * q**6 - 30 * u**3 * q**5 + 12 * u**3 * q**4 - 6 * u**3 * q**3
          + 12 * u**3 * q**2 + 9 * u**3 * q - q**13 - 6 * q**11 - 2 * q**10 - 9 * q**9
          - 12 * q**8 - 18 * q**6) * u**3 * q**16
    # one token of q2 is suspect: verbatim 12*q^(3n+12), emended 12*q^(3n+2)
    q2_tok = 12 * u**3 * q**12 if verbatim else 12 * u**3 * q**2
    q2 = (-12 * u**3 * q + 12 * u**3 - q**9 - 2 * q**8 - 6 * q**6 + 12 * q**5 - 6 * q**4
          + 12 * q**3 - 18 * q**2 + 9 * q) * u**6 * q**16 \
        + e2 * (B + 1) * u**4 * q**17 * vc * vd \
        - g * u**6 * q**18 * vb \
        + (36 * u**3 * q**3 + q2_tok + 12 * u**3 + q**10 + 10 * q**8 + 33 * q**6 + 36 * q**4) * u**4 * q**17 * w
    # second emended token: the closing term of r2 carries the factor 3 its
    # analogue in s2 carries; without it the telescoped sum has a residual
    r2_mult = 1 if verbatim else 3
    r2 = u**3 * q**18 * (g * u**3 * D * (vb - 1) + e2 - r2_mult * e4 * u * q**2 * w)
    s2 = e1 * u**3 * q**18 + g * u**6 * q**18 * vb - 3 * e4 * u**4 * q**20 * w

    p3 = (6 * u**3 * q**5 + 24 * u**3 * q**4 - 6 * u**3 * q**3 + 18 * u**3 * q**2 + 6 * u**3
          + 4 * q**11 + 2 * q**10 + 14 * q**9 + 8 * q**8 + 12 * q**7 + 6 * q**6 + 18 * q**5) * u**6 * q**12
    q3 = (e3 * (B + 1 + vb) + g * q**3 * vb * C * D) * u**7 * q**13 * vc * vd \
        + (-6 * u**3 * q**5 - 12 * u**3 * q**4 + 18 * u**3 * q**3 - 6 * u**3 * q**2 - 6 * u**3
           - q**10 - q**9 - 5 * q**8 - 6 * q**7 - 3 * q**6 - 9 * q**5 + 9 * q**4) * u**6 * q**12 \
        - t * u**6 * q**14 * vb
    r3 = t * u**6 * q**14 * D * (vb - 1) + g * D * u**7 * q**16 * w + e3 * u**6 * q**15
    s3 = -(24 * u**3 * q + 12 * u**3 + 2 * q**9 + q**8 + 6 * q**7 + 6 * q**6 + 15 * q**4
           + 18 * q**2) * u**6 * q**14 + t * u**6 * q**14 * vb + g * u**7 * q**16 * w

    p4 = (-12 * u**6 + 24 * u**3 * q**9 + 8 * u**3 * q**8 + 24 * u**3 * q**6 - 9 * u**3 * q**5
          - 18 * u**3 * q**3 - 9 * u**3 * q + 2 * q**14 + 12 * q**12 + q**11 + 18 * q**10
          + 6 * q**9 + 9 * q**7) * u**6 * q**6
    q4 = -e4 * (B + 1 + vb) * u**7 * q**12 * vc * vd + e3 * u**9 * q**6
    r4 = -e2 * u**6 * q**9 * D - e4 * u**6 * q**12 * (q**3 - 3 * D * u * w)
    s4 = (-(12 * u**3 * q**6 + 6 * u**3 * q**5 + 18 * u**3 * q**3 - 6 * u**3 * q**2 - 6 * u**3
            + q**11 + 6 * q**9 + q**8 + 9 * q**7 + 6 * q**6 + 9 * q**4)
          + 3 * e4 * u * q**3 * w) * u**6 * q**9

    p5 = 2 * (12 * u**3 - q**8 - 3 * q**6 + 2 * q**5 + 9 * q**3 + 9 * q) * u**9 * q**3
    q5 = -1 * e4 * u**9 * q**3
    s5 = (-12 * u**3 + 2 * q**8 + 6 * q**6 - 3 * q**5 - 12 * q**3 - 9 * q) * u**9 * q**3
    r5 = s5 * D

    s6 = e4 * u**9
    p6 = -1 * s6
    r6 = s6 * D
    q6 = 0 * q

    return {
        "p": [p0, p1, p2, p3, p4, p5, p6],
        "q": [q0, q1, q2, q3, q4, q5, q6],
        "r": [r0, r1, r2, r3, r4, r5, r6],
        "s": [s0, s1, s2, s3, s4, s5, s6],
    }


def _families_d1234(s: Symbols, verbatim: bool = False):
    q, u = s.q, s.u
    va, vc, vd = s.v1, s.v2, s.v3
    A, C, D = s.K1, s.K2, s.K3
    w2 = va * vc**2 * vd**2      # q^(a+2c+2d)
    y = u * vc * vd              # q^(n+c+d)
    g = q**7 + q**6 + 2 * q**5 - 2 * q**2 - q - 1  # (q-1)(q^2+1)(q^2+q+1)^2
    ta = u**3 * q**4 + 2 * u**3 * q**3 + 4 * u**3 * q**2 + 3 * u**3 * q + 2 * u**3 \
        + q**8 + q**7 + 3 * q**6 + 3 * q**5 + 3 * q**4 + 3 * q**3 + q**2 + q
    tb = u**3 * q**4 + 2 * u**3 * q**3 + 3 * u**3 * q**2 + 2 * u**3 * q + u**3 \
        + q**7 + q**6 + 3 * q**5 + 2 * q**4 + 3 * q**3 + q**2 + q
    tc = 2 * u**3 * q**4 + 4 * u**3 * q**3 + 7 * u**3 * q**2 + 5 * u**3 * q + 3 * u**3 \
        + q**8 + 2 * q**7 + 4 * q**6 + 6 * q**5 + 5 * q**4 + 6 * q**3 + 2 * q**2 + 2 * q
    td = u**3 * q**2 + u**3 * q + u**3 + q**8 + 2 * q**6 + q**4
    te = u**3 * q**5 + u**3 * q**4 + 2 * u**3 * q**3 - u**3 + q**6 + 2 * q**4 + q**2
    tf = u**3 * q**2 + u**3 * q + u**3 - q**7 + q**4 + 2 * q**3 + q**2 + q

    p0 = (-u**6 * q**2 - u**6 * q - u**6 - u**3 * q**8 - 2 * u**3 * q**6 - u**3 * q**4
          + u**3 * q**2 + u**3 * q + u**3 + q**8 + 2 * q**6 + q**4) * q**12
    # one token of q0 is suspect: verbatim 4*q^(3n+12), emended 4*q^(3n+2)
    # (the emended polynomial is the block `ta` recurring through the set)
    q0_poly = ta if not verbatim else (ta - 4 * u**3 * q**2 + 4 * u**3 * q**12)
    q0 = g * u**2 * q**12 * (C * u - C * w2 + D * u - D * w2 - u - u * y + u * va + w2) \
        + q0_poly * u * q**12 * (y - va) * vc * vd
    r0 = g * u**3 * q**12 * (2 - va - u**-1 * w2 + D * q * (u**-1 * w2 - 1))
    s0 = u**3 * q**12 * (q**3 - 1) * (q**2 + 1) * ((-q**3 + q**2 + q + 2)
                                                   - va * (q**2 + q + 1) + u**-1 * w2 * (q**3 - 1))

    p1 = -(u**3 * q**6 + u**3 * q**5 + 3 * u**3 * q**4 + 3 * u**3 * q**3 + 5 * u**3 * q**2
           + 3 * u**3 * q + 2 * u**3 + q**10 + q**9 + 3 * q**8 + 3 * q**7 + 5 * q**6
           + 4 * q**5 + 4 * q**4 + 2 * q**3 + q**2) * u**3 * q**12
    q1 = (-u**3 * q**5 - 2 * u**3 * q**4 - 4 * u**3 * q**3 - 2 * u**3 * q**2 - u**3 * q + u**3
          - q**9 - 3 * q**7 - q**6 - 3 * q**5 - 2 * q**4 - q**3 - q**2) * u**3 * q**12 \
        + td * u**4 * q**12 * vc * vd \
        + te * u**2 * q**14 * vc**2 * vd**2 \
        + ta * u**3 * q**13 * va \
        + (-u**3 * q**7 - u**3 * q**6 - u**3 * q**5 + 2 * u**3 * q**4 + 4 * u**3 * q**3
           + 5 * u**3 * q**2 + 3 * u**3 * q + u**3 + q**9 + q**8 + 3 * q**7 + 3 * q**6
           + 3 * q**5 + 3 * q**4 + q**3 + q**2) * u**2 * q**13 * w2
    r1 = -g * u**4 * q**14 * D * vc * vd \
        + tc * u**3 * q**13 - ta * u**3 * q**13 * va - tb * u**2 * q**14 * w2
    s1 = tc * u**3 * q**13 - g * u**4 * q**14 * vc * vd \
        - ta * u**3 * q**13 * va - tb * u**2 * q**14 * w2

    p2 = (u**6 * q**3 + 2 * u**6 * q**2 + 2 * u**6 * q + u**6 - u**3 * q**10 - 2 * u**3 * q**8
          - 2 * u**3 * q**6 + u**3 * q**5 - u**3 * q**4 + 2 * u**3 * q**3 + 2 * u**3 * q
          - q**13 - 2 * q**11 - 2 * q**10 - q**9 - 4 * q**8 - 2 * q**6) * u**3 * q**10
    q2 = g * C * D * u**5 * q**14 * w2 \
        + (-u**3 * q**2 - u**3 * q - u**3 - 2 * q**8 - 3 * q**6 + 2 * q**5 - q**4 + 2 * q**3
           - q**2 - 1) * u**6 * q**11 \
        + te * u**4 * q**12 * vc * vd \
        + tf * u**5 * q**13 * vc**2 * vd**2 \
        - g * u**6 * q**12 * va
    r2 = g * u**6 * q**12 * D * (va - 1 + u**-1 * q**2 * w2) + te * u**3 * q**14
    s2 = td * u**3 * q**12 + g * u**6 * q**12 * va * (1 + u**-1 * q**2 * vc**2 * vd**2)

    p3 = (u**3 * q**6 + 2 * u**3 * q**5 + 4 * u**3 * q**4 + 2 * u**3 * q**3 + 2 * u**3 * q**2
          + u**3 + 2 * q**11 + q**10 + 3 * q**9 + 2 * q**8 + 3 * q**7 + 2 * q**6 + 3 * q**5
          + q**3 - q**2) * u**6 * q**8
    s6 = (u**3 * q**2 + u**3 * q + u**3 + q**5 + 2 * q**3 + q) * u**9
    # third emended token: the -2q^8 in the leading block of q3 must read
    # -2q^7 for the telescoped sum to vanish
    q3_tok = -2 * q**8 if verbatim else -2 * q**7
    q3 = (-u**3 * q**6 + 2 * u**3 * q**3 - u**3 - q**9 + q3_tok + q**6 - q**5 + 2 * q**4
          + q**2) * u**6 * q**8 \
        + tf * u**7 * q**9 * vc * vd \
        - s6 * u**-4 * q**14 * vc**2 * vd**2 \
        - ta * u**6 * q**10 * va
    r3 = -tc * u**6 * q**10 * D + ta * D * u**6 * q**10 * va + tb * D * u**5 * q**13 * w2 \
        + tf * u**6 * q**12
    s3 = -(u**3 * q**4 + 3 * u**3 * q**3 + 6 * u**3 * q**2 + 5 * u**3 * q + 3 * u**3
           + q**9 + q**8 + 2 * q**7 + 3 * q**6 + 4 * q**5 + 4 * q**4 + 5 * q**3 + 2 * q**2
           + 2 * q) * u**6 * q**10 \
        + ta * u**6 * q**10 * va + tb * u**5 * q**13 * w2

    p4 = (-u**6 * q**2 - u**6 * q - u**6 + 2 * u**3 * q**11 + 3 * u**3 * q**10 + 3 * u**3 * q**9
          + 2 * u**3 * q**8 + u**3 * q**7 - u**3 * q**5 - u**3 * q**4 - 2 * u**3 * q**3
          - u**3 * q**2 - u**3 * q + 2 * q**14 + 4 * q**12 + q**11 + 2 * q**10 + 2 * q**9
          + q**7) * u**6 * q**3
    s5 = -(u**3 * q**2 + u**3 * q + u**3 - q**7 + q**4 + 2 * q**3 + q**2 + q) * u**9 * q**3
    q4 = -1 * (s5 + s6 * u**-2 * q**8 * vc * vd)
    r4 = -te * u**6 * q**8 * D - s6 * u**-3 * q**12
    s4 = -(u**3 * q**6 + 2 * u**3 * q**5 + 2 * u**3 * q**4 + 2 * u**3 * q**3 - u**3
           + q**9 + 2 * q**7 + q**6 + q**5 + 2 * q**4 + q**2) * u**6 * q**8

    p5 = (u**3 * q**5 + u**3 * q**4 + u**3 * q**3 + u**3 * q**2 + u**3 * q + u**3
          - q**10 + q**7 + 2 * q**6 + 2 * q**5 + q**4 + 2 * q**3 + q) * u**9
    q5 = -1 * s6
    p6 = -1 * s6
    r5 = s5 * D
    q6 = 0 * q
    r6 = s6 * D

    return {
        "p": [p0, p1, p2, p3, p4, p5, p6],
        "q": [q0, q1, q2, q3, q4, q5, q6],
        "r": [r0, r1, r2, r3, r4, r5, r6],
        "s": [s0, s1, s2, s3, s4, s5, s6],
    }


def certificate(name: str, verbatim: bool = False) -> CertificateSet:
    """Build one of the bundled certificate sets.

    The printed formulas are read as skew products in written order;
    ``verbatim`` selects the unemended data (a ValueError for g111, which has
    no verbatim reading).
    """
    return CertificateSet(_row(name, "families").families(Symbols(), verbatim=verbatim))


def certificate_term(name: str) -> HypTerm:
    """The hypergeometric term the certificate of ``name`` telescopes: the x^n
    coefficient of its sum, over (n, the three k's left) once one k is substituted out."""
    row = _row(name, "eliminate")
    return row.sum.coefficient_term(row.eliminate)


#: the names of the table's 2-colored classes, profiles and certified sums, in table order
CLASS_NAMES = tuple(name for name, entry in identities().items() if entry.conds is not None)
PROFILE_NAMES = tuple(name for name, entry in identities().items() if entry.conds is None)
CERTIFICATE_NAMES = tuple(name for name, entry in identities().items() if entry.families is not None)


def pprime_family() -> list[LaurentPoly]:
    """[p'_0 .. p'_4]: the recurrence for the x^n coefficients of G_(1,1,1),
    read off its order-2 operator."""
    return recurrence_from_operator(qdiff_operator_g111())
