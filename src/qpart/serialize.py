"""Deterministic JSON and text encodings for the package's value types,
and the readers of every input file the CLI takes.

All coefficients are serialized as decimal strings (unbounded integers);
object keys are emitted sorted so identical values produce byte-identical
encodings.  Every integer an input file holds passes ``_int``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable

from .holonomic import FAMILIES, TERM_VARS, XQ_VARS, CertificateSet, HypTerm, ShiftOp, recurrence_from_certificate
from .laurent import LaurentPoly
from .series import BiSeries, QSeries


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace surprises, newline end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def biseries_csv(s: BiSeries) -> str:
    """CSV rows x_exp,q_exp,coeff for all nonzero coefficients."""
    lines = ["x_exp,q_exp,coeff"]
    for m in sorted(s.slices):
        for i, c in enumerate(s.slices[m].coeffs):
            if c:
                lines.append(f"{m},{i},{c}")
    return "\n".join(lines) + "\n"


def qseries_csv(s: QSeries) -> str:
    lines = ["q_exp,coeff"]
    for i, c in enumerate(s.coeffs):
        if c:
            lines.append(f"{i},{c}")
    return "\n".join(lines) + "\n"


def _int(x: Any, what: str, coefficient: bool = False) -> int:
    """An input file's integer: a JSON integer, or for a coefficient also a decimal string as ``to_json`` writes it."""
    if type(x) is int:
        return x
    if coefficient and type(x) is str and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    raise ValueError(f"{what} must be {'a decimal string or ' if coefficient else ''}a JSON integer, not {x!r}")


def _ints(xs: Iterable, what: str) -> tuple[int, ...]:
    return tuple(_int(x, what) for x in xs)


def words_from_text(text: str) -> tuple[str, ...]:
    """A forbidden-word list: one word per line, blank lines skipped."""
    return tuple(w.strip() for w in text.splitlines() if w.strip())


def poly_from_json(data: dict) -> LaurentPoly:
    """Inverse of ``LaurentPoly.to_json``; "vars" is a JSON list of strings."""
    if type(data["vars"]) is not list or not all(type(v) is str for v in data["vars"]):
        raise ValueError(f"a polynomial's vars must be a list of strings, not {data['vars']!r}")
    terms = {_ints(e, "an exponent"): _int(c, "a coefficient", coefficient=True) for e, c in data["terms"]}
    if len(terms) != len(data["terms"]):
        raise ValueError("an exponent vector is listed twice in the polynomial's terms")
    return LaurentPoly(tuple(data["vars"]), terms)


def term_from_json(data: dict) -> HypTerm:
    """Inverse of ``HypTerm.to_json``; other keys, such as the "names" list of older files, are ignored."""
    return HypTerm(
        nsum=_int(data["nsum"], "nsum"),
        quad2=tuple(_ints(r, "a quad2 entry") for r in data["quad2"]),
        lin=_ints(data["lin"], "a lin entry"),
        const=_int(data["const"], "const"),
        pochs=tuple((_ints(c, "a length form coefficient"), _int(c0, "a length form constant"), _int(m, "a base"))
                    for c, c0, m in data["pochs"]),
    )


def system_from_json(data: dict) -> tuple[list[list[tuple[LaurentPoly, LaurentPoly]]], int]:
    """A first-order system {"step": s, "matrix": [[entry, ...], ...]}, "shift" standing for "step"
    as ``qpart system`` writes it, with an integer s >= 1 (3 if absent) and a square matrix of at
    least one row.  Each entry is read as a (num, den) pair over (x, q): a {"num", "den"} object
    with a nonzero den, or a polynomial over 1."""
    given = {key: _int(data[key], f"the system's {key}") for key in ("step", "shift") if key in data}
    if len(set(given.values())) > 1:
        raise ValueError(f"the system's step {given['step']} and shift {given['shift']} differ")
    key, step = next(iter(given.items()), ("step", 3))
    if step < 1:
        raise ValueError(f"the system's {key} must be >= 1, not {step}")
    rows = data["matrix"]
    if type(rows) is not list or not rows or any(type(row) is not list or len(row) != len(rows) for row in rows):
        raise ValueError("the system's matrix must be a non-empty list of rows, each a list as long as the matrix")
    one = LaurentPoly.one(XQ_VARS)
    matrix = [[(poly_from_json(e["num"]), poly_from_json(e["den"])) if "den" in e else (poly_from_json(e), one)
               for e in row] for row in rows]
    if any(p.vars != XQ_VARS for row in matrix for pair in row for p in pair):
        raise ValueError(f"system entries must be over ({', '.join(XQ_VARS)})")
    if any(den.is_zero() for row in matrix for _, den in row):
        raise ValueError("a system entry has a zero denominator")
    return matrix, step


# ----------------------------------------------------------------------
# certificates


def certificate_to_json(cert) -> dict:
    """Families as lists (index = power of N) of shift-term lists.

    Each shift term is [[j, k1, k2, k3], LaurentPoly] over
    (q, u, v1, v2, v3) with u = q^n, v_i = q^(k_i).
    """
    fams = {}
    for name, ops in cert.families.items():
        fams[name] = [
            [[list(s), p.to_json()] for s, p in sorted(op.terms.items())]
            for op in ops
        ]
    return {"order": cert.order, "families": fams, "product_mode": "skew"}


def certificate_from_json(data: dict) -> CertificateSet:
    """Inverse of certificate_to_json; only the skew product reading exists."""
    mode = data.get("product_mode", "skew")
    if mode != "skew":
        raise ValueError(f"unsupported certificate product_mode {mode!r}; only 'skew' is implemented")
    fams = {}
    for name, ops in data["families"].items():
        if name not in FAMILIES:
            raise ValueError(f"unknown certificate family {name!r}; the families are {', '.join(FAMILIES)}")
        fams[name] = []
        for terms in ops:
            op = dict(_term(s, p) for s, p in terms)
            if len(op) != len(terms):
                raise ValueError(f"a shift is listed twice in an operator of family {name!r}")
            fams[name].append(ShiftOp(op))
    if "p" not in fams:
        raise ValueError("the certificate has no 'p' family, so it states no recurrence")
    cert = CertificateSet(fams)
    if (order := _int(data["order"], "the certificate's order")) != cert.order:
        raise ValueError(f"the certificate's order {order} does not match its {len(fams['p'])} p entries")
    recurrence_from_certificate(cert)  # p must state a recurrence in n: shift-free and over (q, u)
    return cert


def _term(s: list, p: dict) -> tuple[tuple[int, int, int, int], LaurentPoly]:
    shift, coeff = _ints(s, "a shift power"), poly_from_json(p)
    if len(shift) != 4:
        raise ValueError(f"shift {s} must have 4 entries, the powers of N, K1, K2, K3")
    if coeff.vars != TERM_VARS:
        raise ValueError(f"certificate coefficients must be over ({', '.join(TERM_VARS)})")
    return shift, coeff
