"""The named end-to-end verification tasks.

Each task checks one exact identity family (a theorem's product side, an
operator annihilation, a recursion display, a certificate, ...) at a
configurable truncation order and returns a RunReport; failures always
carry a witness locating the first mismatching coefficient.  Heavy
intermediates (enumerations, the profile family, language series) are
cached per run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable

from . import catalog
from .automata import (
    Dfa,
    build_avoidance_dfa,
    derive_transfer_system,
    solve_language_series,
)
from .colored import (
    COND_D123,
    COND_D1234,
    check_condition,
    enumerate_2colored,
    gen_fun,
    iter_all,
    to_pairs,
    violates_forbidden_patterns,
)
from .cylindric import enumerate_cylindric, g_to_f, profile_orbit, solve_cw_family
from .holonomic import (
    apply_qdiff,
    evaluate_ag_sum,
    recurrence_from_certificate,
    recurrence_holds_at_point,
    shift_combination,
    uncouple_system,
    verify_certificate,
)
from .laurent import RationalFunction
from .series import BiSeries, QSeries, pochhammer_expand

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

RECURRENCE_POINTS = (Fraction(2), Fraction(3), Fraction(7, 5))


@dataclass
class RunReport:
    task: str
    status: str  # "pass" | "fail" | "error"
    inputs: dict
    witness: dict | None = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self, timings: bool = False) -> dict:
        out = {"task": self.task, "status": self.status, "inputs": self.inputs}
        if self.witness is not None:
            out["witness"] = self.witness
        if timings:
            out["wall_time"] = round(self.wall_time, 3)
        return out


def _series_witness(kind: str, a: BiSeries, b: BiSeries, **extra) -> dict | None:
    d = a.first_difference(b)
    if d is None:
        return None
    m, i = d
    return {
        "kind": kind,
        "x_exp": m,
        "q_exp": i,
        "lhs": str(a.coeff(m, i)),
        "rhs": str(b.coeff(m, i)),
        **extra,
    }


def _qseries_witness(kind: str, a: QSeries, b: QSeries, **extra) -> dict | None:
    d = a.first_difference(b)
    if d is None:
        return None
    return {"kind": kind, "q_exp": d, "lhs": str(a.coeffs[d]), "rhs": str(b.coeffs[d]), **extra}


def _first_witness(witnesses: Iterable[dict | None]) -> dict | None:
    """The first witness of a lazily evaluated sequence of checks."""
    return next((w for w in witnesses if w is not None), None)


class VerificationRun:
    """Caches the expensive shared intermediates for one qorder setting."""

    def __init__(self, qorder: int = 30):
        if qorder < 10:
            raise ValueError("qorder must be >= 10")
        self.qorder = qorder
        self.bigraded_order = min(qorder, 25)
        # criterion: enumeration vs recursion mod q^20 (total size <= 19);
        # the task solves its own recursion, so below q^20 it checks sizes < qorder
        self.cyl_order = min(qorder - 1, 19)

    @cached_property
    def d123_partitions(self):
        return enumerate_2colored(self.qorder - 1, COND_D123)

    @cached_property
    def d1234_partitions(self):
        return enumerate_2colored(self.qorder - 1, COND_D1234)

    @cached_property
    def f_d123(self) -> BiSeries:
        return gen_fun(self.d123_partitions, self.qorder)

    @cached_property
    def f_d1234(self) -> BiSeries:
        return gen_fun(self.d1234_partitions, self.qorder)

    @cached_property
    def cw_family(self) -> dict:
        return solve_cw_family((3, 0, 0), self.qorder)

    @cached_property
    def dfa(self) -> Dfa:
        return build_avoidance_dfa()

    @cached_property
    def transfer(self):
        return derive_transfer_system(self.dfa)

    @cached_property
    def language(self) -> dict[int, BiSeries]:
        return solve_language_series(self.transfer, self.bigraded_order)


def _report(task: str, inputs: dict, witness: dict | None) -> RunReport:
    return RunReport(task, "pass" if witness is None else "fail", inputs, witness)


def _product_report(
    task: str, run: VerificationRun, lhs: QSeries, spec, anchors: dict[int, int]
) -> RunReport:
    """lhs against the product; once they agree, the anchor coefficients too."""
    witness = _qseries_witness("coefficient", lhs, pochhammer_expand(spec, run.qorder))
    got = [lhs.coeffs[e] for e in anchors]
    expected = list(anchors.values())
    if witness is None and got != expected:
        witness = {"kind": "anchor", "got": [str(c) for c in got], "expected": [str(c) for c in expected]}
    return _report(task, {"qorder": run.qorder}, witness)


def _qdiff_report(task: str, run: VerificationRun, checks) -> RunReport:
    """Each (name, operator, series) must give zero; the witness is the lowest term left."""

    def witness(name, op, series) -> dict | None:
        res = apply_qdiff(op, series)
        if res.is_zero():
            return None
        m = min(res.slices)
        return {"kind": f"operator-{name}", "x_exp": m, "q_exp": res.slices[m].valuation()}

    return _report(task, {"qorder": run.qorder}, _first_witness(witness(*c) for c in checks))


def _relations_report(task: str, run: VerificationRun, relations) -> RunReport:
    """Each (kind, target, terms) must hold over the profile family:
    target = sum of coeff * source(x q^shift) over its (coeff, shift, source) terms."""
    fam = run.cw_family

    def witness(kind, target, terms) -> dict | None:
        rhs = shift_combination(((coeff, shift, fam[source]) for coeff, shift, source in terms), run.qorder)
        return _series_witness(kind, fam[target], rhs)

    return _report(task, {"qorder": run.qorder}, _first_witness(witness(*r) for r in relations))


# ----------------------------------------------------------------------
# the tasks, in criterion order


def task_product_d123(run: VerificationRun) -> RunReport:
    """Enumeration at x=1 equals the D1-D3 class product; anchors 1,2,2,4."""
    return _product_report("product-d123", run, run.f_d123.eval_x1(), catalog.PRODUCT_D123,
                           {0: 1, 1: 2, 2: 2, 3: 4})


def task_product_d1234(run: VerificationRun) -> RunReport:
    """Enumeration at x=1 equals the D1-D4 class product; anchors at q^6, q^7."""
    return _product_report("product-d1234", run, run.f_d1234.eval_x1(), catalog.PRODUCT_D1234, {6: 5, 7: 4})


def task_ag_bigraded(run: VerificationRun) -> RunReport:
    """The quadruple sums equal the bigraded generating functions."""
    n = run.bigraded_order
    witness = _first_witness(
        _series_witness(f"bigraded-{name}", evaluate_ag_sum(spec, n), series.truncate(n))
        for name, spec, series in (
            ("d123", catalog.AG_D123, run.f_d123),
            ("d1234", catalog.AG_D1234, run.f_d1234),
        )
    )
    return _report("ag-bigraded", {"qorder": n}, witness)


def task_ag_cylindric(run: VerificationRun) -> RunReport:
    """The max-part-graded quadruple sums equal the profile series."""
    n = run.bigraded_order
    fam = run.cw_family
    witness = _first_witness(
        _series_witness(f"sum-{name}", evaluate_ag_sum(spec, n), fam[profile].truncate(n))
        for name, spec, profile in (
            ("g111", catalog.AG_G111, (1, 1, 1)),
            ("g300", catalog.AG_G300, (3, 0, 0)),
        )
    )
    return _report("ag-cylindric", {"qorder": n}, witness)


def task_aux_identity(run: VerificationRun) -> RunReport:
    """The auxiliary quadruple sum equals 1/(q,q^2;q^3)_inf."""
    lhs = evaluate_ag_sum(catalog.AG_AUX, run.qorder).eval_x1()
    witness = _qseries_witness("coefficient", lhs, pochhammer_expand(catalog.PRODUCT_AUX, run.qorder))
    return _report("aux-identity", {"qorder": run.qorder}, witness)


def task_pattern_equivalence(run: VerificationRun, max_size: int = 18) -> RunReport:
    """Difference conditions D1-D3 match the forbidden-pattern families."""
    witness = None
    count = 0
    for lam in iter_all(max_size):
        count += 1
        if check_condition(lam, COND_D123) != (not violates_forbidden_patterns(lam)):
            witness = {"kind": "partition", "partition": to_pairs(lam)}
            break
    return _report("pattern-equivalence", {"max_size": max_size, "checked": count}, witness)


def task_dfa_table(run: VerificationRun) -> RunReport:
    """The minimal DFA has 6 states, one accept state, and the golden table."""
    dfa = run.dfa
    golden = Dfa.from_json(json.loads((GOLDEN_DIR / "dfa_canonical.json").read_text()))
    witness = None
    if not (dfa.n_states == 6 and len(dfa.accepts) == 1 and dfa == golden):
        witness = {"kind": "dfa", "states": dfa.n_states, "accepts": sorted(dfa.accepts)}
    return _report("dfa-table", {"words": 48}, witness)


def task_transfer_matrix(run: VerificationRun) -> RunReport:
    """The derived coupled-system matrix equals the golden 5x5 matrix."""
    golden = json.loads((GOLDEN_DIR / "transfer_matrix.json").read_text())
    got = [[e.to_json() for e in row] for row in run.transfer.matrix]
    witness = None
    if got != golden["matrix"] or list(run.transfer.states) != golden["states"]:
        witness = _first_witness(
            {"kind": "matrix-entry", "row": i, "col": j}
            for i, (grow, row) in enumerate(zip(golden["matrix"], got))
            for j, (ge, e) in enumerate(zip(grow, row))
            if ge != e
        ) or {"kind": "matrix"}
    return _report("transfer-matrix", {}, witness)


def task_language_series(run: VerificationRun) -> RunReport:
    """Component 0 counts the D1-D3 class; component 1 the D1-D4 class."""
    n = run.bigraded_order
    witness = _first_witness(
        _series_witness(kind, run.language[component], series.truncate(n))
        for kind, component, series in (
            ("state0-vs-d123", 0, run.f_d123),
            ("state1-vs-d1234", 1, run.f_d1234),
        )
    )
    return _report("language-series", {"qorder": n}, witness)


def task_qdiff_colored(run: VerificationRun) -> RunReport:
    """The two order-3 operators of the automaton annihilate the enumerated series."""
    return _qdiff_report("qdiff-colored", run, (
        ("d123", catalog.qdiff_operator_d123(), run.f_d123),
        ("d1234", catalog.qdiff_operator_d1234(), run.f_d1234),
    ))


def task_recursion_displays(run: VerificationRun) -> RunReport:
    """The four subset-recursion displays hold for the computed family."""
    return _relations_report("recursion-displays", run, [
        (f"recursion-{target}", target, terms) for target, terms in catalog.RECURSION_DISPLAYS
    ])


def task_first_order_relations(run: VerificationRun) -> RunReport:
    """The four derived first-order relations hold (two of them are the 2x2 system)."""
    return _relations_report("first-order-relations", run, [
        (f"first-order-{target}", target, terms) for target, terms in catalog.FIRST_ORDER_RELATIONS
    ])


def task_qdiff_cylindric(run: VerificationRun) -> RunReport:
    """The two order-2 operators of the 2x2 system annihilate the profile series."""
    fam = run.cw_family
    return _qdiff_report("qdiff-cylindric", run, (
        ("g300", catalog.qdiff_operator_g300(), fam[(3, 0, 0)]),
        ("g111", catalog.qdiff_operator_g111(), fam[(1, 1, 1)]),
    ))


def task_cylindric_enumeration(run: VerificationRun) -> RunReport:
    """Direct enumeration equals the recursion solution for all 10 profiles."""
    n = run.cyl_order
    fam = solve_cw_family((3, 0, 0), n + 1)
    witness = _first_witness(
        _series_witness(f"profile-{profile}", enumerate_cylindric(profile, n), g_to_f(fam[profile]),
                        profile=list(profile))
        for profile in profile_orbit((3, 0, 0))
    )
    return _report("cylindric-enumeration", {"max_size": n, "profiles": 10}, witness)


def task_specialized_products(run: VerificationRun) -> RunReport:
    """F(1, q) * (q;q)_inf equals the two class product sides."""
    fam = run.cw_family
    euler = pochhammer_expand(catalog.EULER_PRODUCT, run.qorder)
    witness = _first_witness(
        _qseries_witness(name, g_to_f(fam[profile]).eval_x1() * euler, pochhammer_expand(spec, run.qorder))
        for name, profile, spec in (
            ("g111-vs-d123-product", (1, 1, 1), catalog.PRODUCT_D123),
            ("g300-vs-d1234-product", (3, 0, 0), catalog.PRODUCT_D1234),
        )
    )
    return _report("specialized-products", {"qorder": run.qorder}, witness)


def task_certificates(run: VerificationRun) -> RunReport:
    """All four certificate sets verify exactly after documented emendations."""

    def witness(name: str) -> dict | None:
        res = verify_certificate(catalog.certificate_term(name), catalog.certificate(name))
        if res.ok:
            return None
        return {"kind": f"certificate-{name}", "residual_terms": res.residual_terms,
                "residual_sample": res.residual_sample}

    return _report("certificates", {"sets": list(catalog.CERTIFICATE_NAMES)},
                   _first_witness(witness(name) for name in catalog.CERTIFICATE_NAMES))


def task_recurrences(run: VerificationRun, nmax: int = 25) -> RunReport:
    """The certificate recurrences annihilate the brute-force sums.

    Exact rational evaluation over the full support at three fixed points,
    for every 0 <= n <= nmax.
    """

    def witnesses():
        for name in catalog.CERTIFICATE_NAMES:
            term = catalog.certificate_term(name)
            plist = recurrence_from_certificate(catalog.certificate(name))
            for q0 in RECURRENCE_POINTS:
                if not recurrence_holds_at_point(term, plist, nmax, q0):
                    yield {"kind": f"recurrence-{name}", "q0": str(q0)}

    return _report("recurrences", {"nmax": nmax, "points": [str(p) for p in RECURRENCE_POINTS]},
                   _first_witness(witnesses()))


def task_combination_identity(run: VerificationRun) -> RunReport:
    """The order-4 coefficient family is an explicit combination of the
    order-3 one and its shift, as exact rational functions."""
    ps = [RationalFunction.from_poly(p) for p in
          recurrence_from_certificate(catalog.certificate("g111"))]
    pps = [RationalFunction.from_poly(p) for p in catalog.pprime_family()]

    def sig(r: RationalFunction) -> RationalFunction:
        return RationalFunction(r.num.twist("u", "q", -1), r.den.twist("u", "q", -1), normalize=False)

    alpha = pps[0] / ps[0]
    beta = pps[4] / sig(ps[3])

    def witness(j: int) -> dict | None:
        lhs = alpha * ps[j] if j < 4 else alpha * 0
        if j >= 1:
            lhs = lhs + beta * sig(ps[j - 1])
        return None if (lhs - pps[j]).is_zero() else {"kind": "combination-component", "j": j}

    return _report("combination-identity", {}, _first_witness(witness(j) for j in range(5)))


def task_chain(run: VerificationRun) -> RunReport:
    """The closing chain: four independent routes to each of the two series.

    enumeration = quadruple sum = profile series at x=1 = infinite product,
    with the D1-D3 class tied to profile (1,1,1) and the D1-D4 class to
    (3,0,0).
    """
    n = run.qorder
    fam = run.cw_family
    routes = {
        "d123": [
            ("enumeration", run.f_d123.eval_x1()),
            ("sum-side", evaluate_ag_sum(catalog.AG_D123, n).eval_x1()),
            ("profile-111", fam[(1, 1, 1)].eval_x1()),
            ("product", pochhammer_expand(catalog.PRODUCT_D123, n)),
        ],
        "d1234": [
            ("enumeration", run.f_d1234.eval_x1()),
            ("sum-side", evaluate_ag_sum(catalog.AG_D1234, n).eval_x1()),
            ("profile-300", fam[(3, 0, 0)].eval_x1()),
            ("product", pochhammer_expand(catalog.PRODUCT_D1234, n)),
        ],
    }
    witness = _first_witness(
        _qseries_witness(f"chain-{cls}", items[0][1], series, routes=[items[0][0], name])
        for cls, items in routes.items()
        for name, series in items[1:]
    )
    return _report("chain", {"qorder": n}, witness)


def task_uncoupling(run: VerificationRun) -> RunReport:
    """Uncoupled scalar operators annihilate the independent series."""
    n = run.bigraded_order
    # (witness, system, component, series): system and series are built only when their check runs
    checks = (
        ({"kind": "uncouple-2x2"}, catalog.coupled_g_system, 0, lambda: run.cw_family[(3, 0, 0)]),
        ({"kind": "uncouple-5x5", "component": 0}, lambda: run.transfer.matrix, 0,
         lambda: run.f_d123.truncate(n)),
        ({"kind": "uncouple-5x5", "component": 1}, lambda: run.transfer.matrix, 1,
         lambda: run.f_d1234.truncate(n)),
    )
    return _report("uncoupling", {}, _first_witness(
        None if apply_qdiff(uncouple_system(system(), comp), series()).is_zero() else witness
        for witness, system, comp, series in checks
    ))


TASKS = [
    task_product_d123,
    task_product_d1234,
    task_ag_bigraded,
    task_ag_cylindric,
    task_aux_identity,
    task_pattern_equivalence,
    task_dfa_table,
    task_transfer_matrix,
    task_language_series,
    task_qdiff_colored,
    task_recursion_displays,
    task_first_order_relations,
    task_qdiff_cylindric,
    task_cylindric_enumeration,
    task_specialized_products,
    task_certificates,
    task_recurrences,
    task_combination_identity,
    task_chain,
    task_uncoupling,
]


def verify_all(qorder: int = 30, nmax_recurrence: int = 25) -> list[RunReport]:
    """Run the whole battery in fixed task order, timing each task.

    A task that raises is reported with status "error" and the exception
    as its witness, under its function name less ``task_``; the remaining
    tasks still run.
    """
    if nmax_recurrence < 0:
        raise ValueError("nmax must be >= 0")
    run = VerificationRun(qorder)
    reports = []
    for task in TASKS:
        t0 = time.perf_counter()
        try:
            report = task(run, nmax=nmax_recurrence) if task is task_recurrences else task(run)
        except Exception as exc:
            name = task.__name__.removeprefix("task_").replace("_", "-")
            witness = {"kind": "exception", "type": type(exc).__name__, "message": str(exc)}
            report = RunReport(name, "error", {}, witness)
        report.wall_time = time.perf_counter() - t0
        reports.append(report)
    return reports
