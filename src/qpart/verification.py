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
    violates_forbidden_patterns,
)
from .cylindric import enumerate_cylindric, g_to_f, profile_orbit, solve_cw_family
from .holonomic import (
    apply_qdiff,
    evaluate_ag_sum,
    poly_times_biseries,
    recurrence_from_certificate,
    recurrence_holds_at_point,
    uncouple_system,
    verify_certificate,
)
from .laurent import RationalFunction
from .series import BiSeries, pochhammer_expand

GOLDEN_DIR = Path(__file__).resolve().parent.parent.parent / "golden"

RECURRENCE_POINTS = (Fraction(2), Fraction(3), Fraction(7, 5))


@dataclass
class RunReport:
    task: str
    status: str  # "pass" | "fail"
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


def _series_witness(kind: str, a: BiSeries, b: BiSeries) -> dict | None:
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
    }


class VerificationRun:
    """Caches the expensive shared intermediates for one qorder setting."""

    def __init__(self, qorder: int = 30):
        if qorder < 10:
            raise ValueError("qorder must be >= 10")
        self.qorder = qorder
        self.bigraded_order = min(qorder, 25) if qorder >= 25 else qorder
        # criterion: enumeration vs recursion mod q^20 (total size <= 19)
        self.cyl_order = min(qorder - 10, 19)

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


def _report(task: str, inputs: dict, ok: bool, witness: dict | None, t0: float) -> RunReport:
    return RunReport(
        task=task,
        status="pass" if ok else "fail",
        inputs=inputs,
        witness=None if ok else (witness or {"kind": "unspecified"}),
        wall_time=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# the tasks, in criterion order


def task_product_d123(run: VerificationRun) -> RunReport:
    """Enumeration at x=1 equals the D1-D3 class product; anchors 1,2,2,4."""
    t0 = time.perf_counter()
    lhs = self_series = run.f_d123.eval_x1()
    rhs = pochhammer_expand(catalog.PRODUCT_D123, run.qorder)
    anchors = lhs.coeffs[:4] == [1, 2, 2, 4]
    d = lhs.first_difference(rhs)
    ok = anchors and d is None
    witness = None
    if d is not None:
        witness = {"kind": "coefficient", "q_exp": d, "lhs": str(lhs.coeffs[d]), "rhs": str(rhs.coeffs[d])}
    elif not anchors:
        witness = {"kind": "anchor", "got": [str(c) for c in lhs.coeffs[:4]], "expected": ["1", "2", "2", "4"]}
    return _report("product-d123", {"qorder": run.qorder}, ok, witness, t0)


def task_product_d1234(run: VerificationRun) -> RunReport:
    """Enumeration at x=1 equals the D1-D4 class product; anchors at q^6, q^7."""
    t0 = time.perf_counter()
    lhs = run.f_d1234.eval_x1()
    rhs = pochhammer_expand(catalog.PRODUCT_D1234, run.qorder)
    anchors = lhs.coeffs[6] == 5 and lhs.coeffs[7] == 4
    d = lhs.first_difference(rhs)
    ok = anchors and d is None
    witness = None
    if d is not None:
        witness = {"kind": "coefficient", "q_exp": d, "lhs": str(lhs.coeffs[d]), "rhs": str(rhs.coeffs[d])}
    elif not anchors:
        witness = {"kind": "anchor", "got": [str(lhs.coeffs[6]), str(lhs.coeffs[7])], "expected": ["5", "4"]}
    return _report("product-d1234", {"qorder": run.qorder}, ok, witness, t0)


def task_ag_bigraded(run: VerificationRun) -> RunReport:
    """The quadruple sums equal the bigraded generating functions."""
    t0 = time.perf_counter()
    n = run.bigraded_order
    checks = [
        ("d123", evaluate_ag_sum(catalog.AG_D123, n), run.f_d123.truncate(n)),
        ("d1234", evaluate_ag_sum(catalog.AG_D1234, n), run.f_d1234.truncate(n)),
    ]
    witness = None
    for name, lhs, rhs in checks:
        w = _series_witness(f"bigraded-{name}", lhs, rhs)
        if w is not None:
            witness = w
            break
    return _report("ag-bigraded", {"qorder": n}, witness is None, witness, t0)


def task_ag_cylindric(run: VerificationRun) -> RunReport:
    """The max-part-graded quadruple sums equal the profile series."""
    t0 = time.perf_counter()
    n = run.bigraded_order
    fam = run.cw_family
    checks = [
        ("g111", evaluate_ag_sum(catalog.AG_G111, n), fam[(1, 1, 1)].truncate(n)),
        ("g300", evaluate_ag_sum(catalog.AG_G300, n), fam[(3, 0, 0)].truncate(n)),
    ]
    witness = None
    for name, lhs, rhs in checks:
        w = _series_witness(f"sum-{name}", lhs, rhs)
        if w is not None:
            witness = w
            break
    return _report("ag-cylindric", {"qorder": n}, witness is None, witness, t0)


def task_aux_identity(run: VerificationRun) -> RunReport:
    """The auxiliary quadruple sum equals 1/(q,q^2;q^3)_inf."""
    t0 = time.perf_counter()
    lhs = evaluate_ag_sum(catalog.AG_AUX, run.qorder).eval_x1()
    rhs = pochhammer_expand(catalog.PRODUCT_AUX, run.qorder)
    d = lhs.first_difference(rhs)
    witness = None if d is None else {
        "kind": "coefficient", "q_exp": d, "lhs": str(lhs.coeffs[d]), "rhs": str(rhs.coeffs[d])
    }
    return _report("aux-identity", {"qorder": run.qorder}, d is None, witness, t0)


def task_pattern_equivalence(run: VerificationRun, max_size: int = 18) -> RunReport:
    """Difference conditions D1-D3 match the forbidden-pattern families."""
    t0 = time.perf_counter()
    witness = None
    count = 0
    for lam in iter_all(max_size):
        count += 1
        if check_condition(lam, COND_D123) != (not violates_forbidden_patterns(lam)):
            witness = {"kind": "partition", "partition": [[c, m] for m, c in lam]}
            break
    return _report("pattern-equivalence", {"max_size": max_size, "checked": count}, witness is None, witness, t0)


def task_dfa_table(run: VerificationRun) -> RunReport:
    """The minimal DFA has 6 states, one accept state, and the golden table."""
    t0 = time.perf_counter()
    dfa = run.dfa
    golden = Dfa.from_json(json.loads((GOLDEN_DIR / "dfa_canonical.json").read_text()))
    ok = dfa.n_states == 6 and len(dfa.accepts) == 1 and dfa == golden
    witness = None
    if not ok:
        witness = {"kind": "dfa", "states": dfa.n_states, "accepts": sorted(dfa.accepts)}
    return _report("dfa-table", {"words": 48}, ok, witness, t0)


def task_transfer_matrix(run: VerificationRun) -> RunReport:
    """The derived coupled-system matrix equals the golden 5x5 matrix."""
    t0 = time.perf_counter()
    golden = json.loads((GOLDEN_DIR / "transfer_matrix.json").read_text())
    got = [[e.to_json() for e in row] for row in run.transfer.matrix]
    ok = got == golden["matrix"] and list(run.transfer.states) == golden["states"]
    witness = None
    if not ok:
        witness = {"kind": "matrix"}
        for i, (grow, row) in enumerate(zip(golden["matrix"], got)):
            for j, (ge, e) in enumerate(zip(grow, row)):
                if ge != e:
                    witness = {"kind": "matrix-entry", "row": i, "col": j}
                    break
    return _report("transfer-matrix", {}, ok, witness, t0)


def task_language_series(run: VerificationRun) -> RunReport:
    """Component 0 counts the D1-D3 class; component 1 the D1-D4 class."""
    t0 = time.perf_counter()
    n = run.bigraded_order
    w = _series_witness("state0-vs-d123", run.language[0], run.f_d123.truncate(n))
    if w is None:
        w = _series_witness("state1-vs-d1234", run.language[1], run.f_d1234.truncate(n))
    return _report("language-series", {"qorder": n}, w is None, w, t0)


def task_qdiff_colored(run: VerificationRun) -> RunReport:
    """The two order-3 operators annihilate the enumerated series."""
    t0 = time.perf_counter()
    witness = None
    for name, op, series in (
        ("d123", catalog.qdiff_operator_d123(), run.f_d123),
        ("d1234", catalog.qdiff_operator_d1234(), run.f_d1234),
    ):
        res = apply_qdiff(op, series)
        if not res.is_zero():
            m = sorted(res.slices)[0]
            witness = {"kind": f"operator-{name}", "x_exp": m, "q_exp": res.slices[m].valuation()}
            break
    return _report("qdiff-colored", {"qorder": run.qorder}, witness is None, witness, t0)


def task_recursion_displays(run: VerificationRun) -> RunReport:
    """The four subset-recursion displays hold for the computed family."""
    t0 = time.perf_counter()
    fam = run.cw_family
    witness = None
    for target, terms in catalog.RECURSION_DISPLAYS:
        rhs = BiSeries.zero(run.qorder)
        for coeff, shift, source in terms:
            rhs = rhs + poly_times_biseries(coeff, fam[source].apply_xshift(shift))
        w = _series_witness(f"recursion-{target}", fam[target], rhs)
        if w is not None:
            witness = w
            break
    return _report("recursion-displays", {"qorder": run.qorder}, witness is None, witness, t0)


def task_first_order_relations(run: VerificationRun) -> RunReport:
    """The four derived first-order relations and the 2x2 system hold."""
    t0 = time.perf_counter()
    fam = run.cw_family
    witness = None
    for target, terms in catalog.FIRST_ORDER_RELATIONS:
        rhs = BiSeries.zero(run.qorder)
        for coeff, shift, source in terms:
            rhs = rhs + poly_times_biseries(coeff, fam[source].apply_xshift(shift))
        w = _series_witness(f"first-order-{target}", fam[target], rhs)
        if w is not None:
            witness = w
            break
    if witness is None:
        mat = catalog.coupled_g_system()
        vec = [fam[(3, 0, 0)], fam[(1, 1, 1)]]
        for i in range(2):
            rhs = BiSeries.zero(run.qorder)
            for j in range(2):
                rhs = rhs + poly_times_biseries(mat[i][j], vec[j].apply_xshift(3))
            w = _series_witness(f"system-row-{i}", vec[i], rhs)
            if w is not None:
                witness = w
                break
    return _report("first-order-relations", {"qorder": run.qorder}, witness is None, witness, t0)


def task_qdiff_cylindric(run: VerificationRun) -> RunReport:
    """The two order-2 operators annihilate the profile series."""
    t0 = time.perf_counter()
    fam = run.cw_family
    witness = None
    for name, op, series in (
        ("g300", catalog.qdiff_operator_g300(), fam[(3, 0, 0)]),
        ("g111", catalog.qdiff_operator_g111(), fam[(1, 1, 1)]),
    ):
        res = apply_qdiff(op, series)
        if not res.is_zero():
            m = sorted(res.slices)[0]
            witness = {"kind": f"operator-{name}", "x_exp": m, "q_exp": res.slices[m].valuation()}
            break
    return _report("qdiff-cylindric", {"qorder": run.qorder}, witness is None, witness, t0)


def task_cylindric_enumeration(run: VerificationRun) -> RunReport:
    """Direct enumeration equals the recursion solution for all 10 profiles."""
    t0 = time.perf_counter()
    n = run.cyl_order
    fam = solve_cw_family((3, 0, 0), n + 1)
    witness = None
    for profile in profile_orbit((3, 0, 0)):
        direct = enumerate_cylindric(profile, n)
        via_g = g_to_f(fam[profile])
        w = _series_witness(f"profile-{profile}", direct, via_g)
        if w is not None:
            witness = dict(w, profile=list(profile))
            break
    return _report("cylindric-enumeration", {"max_size": n, "profiles": 10}, witness is None, witness, t0)


def task_specialized_products(run: VerificationRun) -> RunReport:
    """F(1, q) * (q;q)_inf equals the two class product sides."""
    t0 = time.perf_counter()
    fam = run.cw_family
    euler = pochhammer_expand(catalog.EULER_PRODUCT, run.qorder)
    witness = None
    for name, profile, spec in (
        ("g111-vs-d123-product", (1, 1, 1), catalog.PRODUCT_D123),
        ("g300-vs-d1234-product", (3, 0, 0), catalog.PRODUCT_D1234),
    ):
        lhs = g_to_f(fam[profile]).eval_x1() * euler
        rhs = pochhammer_expand(spec, run.qorder)
        d = lhs.first_difference(rhs)
        if d is not None:
            witness = {"kind": name, "q_exp": d, "lhs": str(lhs.coeffs[d]), "rhs": str(rhs.coeffs[d])}
            break
    return _report("specialized-products", {"qorder": run.qorder}, witness is None, witness, t0)


def task_certificates(run: VerificationRun) -> RunReport:
    """All four certificate sets verify exactly after documented emendations."""
    t0 = time.perf_counter()
    witness = None
    for name in catalog.CERTIFICATE_NAMES:
        res = verify_certificate(catalog.certificate_term(name), catalog.certificate(name))
        if not res.ok:
            witness = {"kind": f"certificate-{name}", "residual_terms": res.residual_terms,
                       "residual_sample": res.residual_sample}
            break
    return _report("certificates", {"sets": list(catalog.CERTIFICATE_NAMES)}, witness is None, witness, t0)


def task_recurrences(run: VerificationRun, nmax: int = 25) -> RunReport:
    """The certificate recurrences annihilate the brute-force sums.

    Exact rational evaluation over the full support at three fixed points,
    for every 0 <= n <= nmax.
    """
    t0 = time.perf_counter()
    witness = None
    for name in catalog.CERTIFICATE_NAMES:
        term = catalog.certificate_term(name)
        plist = recurrence_from_certificate(catalog.certificate(name))
        for q0 in RECURRENCE_POINTS:
            if not recurrence_holds_at_point(term, plist, nmax, q0):
                witness = {"kind": f"recurrence-{name}", "q0": str(q0)}
                break
        if witness:
            break
    return _report("recurrences", {"nmax": nmax, "points": [str(p) for p in RECURRENCE_POINTS]},
                   witness is None, witness, t0)


def task_combination_identity(run: VerificationRun) -> RunReport:
    """The order-4 coefficient family is an explicit combination of the
    order-3 one and its shift, as exact rational functions."""
    t0 = time.perf_counter()
    ps = [RationalFunction.from_poly(p) for p in
          recurrence_from_certificate(catalog.certificate("g111"))]
    pps = [RationalFunction.from_poly(p) for p in catalog.pprime_family()]

    def sig(r: RationalFunction) -> RationalFunction:
        return RationalFunction(r.num.twist("u", "q", -1), r.den.twist("u", "q", -1), normalize=False)

    alpha = pps[0] / ps[0]
    beta = pps[4] / sig(ps[3])
    witness = None
    for j in range(5):
        lhs = alpha * ps[j] if j < 4 else alpha * 0
        if j >= 1:
            lhs = lhs + beta * sig(ps[j - 1])
        if not (lhs - pps[j]).is_zero():
            witness = {"kind": "combination-component", "j": j}
            break
    return _report("combination-identity", {}, witness is None, witness, t0)


def task_chain(run: VerificationRun) -> RunReport:
    """The closing chain: four independent routes to each of the two series.

    enumeration = quadruple sum = profile series at x=1 = infinite product,
    with the D1-D3 class tied to profile (1,1,1) and the D1-D4 class to
    (3,0,0).
    """
    t0 = time.perf_counter()
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
    witness = None
    for cls, items in routes.items():
        base_name, base = items[0]
        for name, series in items[1:]:
            d = base.first_difference(series)
            if d is not None:
                witness = {"kind": f"chain-{cls}", "routes": [base_name, name], "q_exp": d,
                           "lhs": str(base.coeffs[d]), "rhs": str(series.coeffs[d])}
                break
        if witness:
            break
    return _report("chain", {"qorder": n}, witness is None, witness, t0)


def task_uncoupling(run: VerificationRun) -> RunReport:
    """Uncoupled scalar operators annihilate the independent series."""
    t0 = time.perf_counter()
    witness = None
    op2 = uncouple_system(catalog.coupled_g_system(), 0)
    if not apply_qdiff(op2, run.cw_family[(3, 0, 0)]).is_zero():
        witness = {"kind": "uncouple-2x2"}
    if witness is None:
        mat5 = [list(row) for row in run.transfer.matrix]
        for comp, series in ((0, run.f_d123), (1, run.f_d1234)):
            op5 = uncouple_system(mat5, comp)
            if not apply_qdiff(op5, series.truncate(run.bigraded_order)).is_zero():
                witness = {"kind": "uncouple-5x5", "component": comp}
                break
    return _report("uncoupling", {}, witness is None, witness, t0)


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
    """Run the whole battery in fixed task order."""
    run = VerificationRun(qorder)
    reports = []
    for task in TASKS:
        if task is task_recurrences:
            reports.append(task(run, nmax=nmax_recurrence))
        else:
            reports.append(task(run))
    return reports
