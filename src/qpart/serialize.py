"""Deterministic JSON and text encodings for the package's value types.

All coefficients are serialized as decimal strings (unbounded integers);
object keys are emitted sorted so identical values produce byte-identical
encodings.
"""

from __future__ import annotations

import json
from typing import Any

from .holonomic import FAMILIES, TERM_VARS, XQ_VARS, CertificateSet, ShiftOp
from .laurent import LaurentPoly, RationalFunction
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


def ratfun_from_json(data: dict) -> RationalFunction:
    if "den" in data:
        return RationalFunction.from_json(data)
    return RationalFunction.from_poly(LaurentPoly.from_json(data))


def system_from_json(data: dict) -> tuple[list[list[RationalFunction]], int]:
    """A first-order system {"step": s, "matrix": [[entry, ...], ...]}
    with an integer step s >= 1 and every entry over (x, q)."""
    step = data.get("step", 3)
    if type(step) is not int or step < 1:
        raise ValueError(f"the system's step must be an integer >= 1, not {step!r}")
    matrix = [[ratfun_from_json(e) for e in row] for row in data["matrix"]]
    if any(e.num.vars != XQ_VARS for row in matrix for e in row):
        raise ValueError(f"system entries must be over ({', '.join(XQ_VARS)})")
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
    return CertificateSet(int(data["order"]), fams)


def _term(s: list, p: dict) -> tuple[tuple[int, int, int, int], LaurentPoly]:
    if len(s) != 4:
        raise ValueError(f"shift {s} must have 4 entries, the powers of N, K1, K2, K3")
    if tuple(p["vars"]) != TERM_VARS:
        raise ValueError(f"certificate coefficients must be over ({', '.join(TERM_VARS)})")
    return tuple(s), LaurentPoly.from_json(p)
