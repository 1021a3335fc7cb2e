"""The named end-to-end verification tasks.

Each task checks one exact identity family (a theorem's product side, an
operator annihilation, a recursion display, a certificate, ...) at a
configurable truncation order and returns its inputs and a witness: None
when the check holds, else the first mismatch.  ``verify_all`` names, times
and reports every task.  Heavy intermediates (the enumerated series, the
profile family, language series, operators and certificates) are built once.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib.resources import files
from typing import Iterable

from . import automata, catalog
from .automata import (
    Dfa,
    build_avoidance_dfa,
    derive_transfer_system,
    solve_language_series,
)
from .colored import (
    check_condition,
    enumerate_2colored,
    gen_fun,
    iter_all,
    to_pairs,
    violates_forbidden_patterns,
)
from .cylindric import enumerate_cylindric, g_to_f, solve_cw_family
from .holonomic import (
    QDiffOperator,
    annihilation_depth,
    apply_qdiff,
    evaluate_ag_sum,
    first_recurrence_failure,
    recurrence_from_certificate,
    recurrence_from_operator,
    recurrence_remainder,
    shift_combination,
    verify_certificate,
)
from .series import BiSeries, QSeries, pochhammer_expand

GOLDEN_DIR = files("qpart") / "golden"

RECURRENCE_POINTS = (Fraction(2), Fraction(3), Fraction(7, 5))

#: pattern-equivalence checks every 2-colored partition of size <= this
PATTERN_MAX_SIZE = 18


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


def _witness(kind: str, a: QSeries | BiSeries, b: QSeries | BiSeries, **extra) -> dict | None:
    """The first coefficient where two QSeries or two BiSeries differ, or None."""
    d = a.first_difference(b)
    if d is None:
        return None
    if isinstance(d, int):
        where, lhs, rhs = {"q_exp": d}, a.coeffs[d], b.coeffs[d]
    else:
        where, lhs, rhs = {"x_exp": d[0], "q_exp": d[1]}, a.coeff(*d), b.coeff(*d)
    return {"kind": kind, **where, "lhs": str(lhs), "rhs": str(rhs), **extra}


def _first_witness(witnesses: Iterable[dict | None]) -> dict | None:
    """The first witness of a lazily evaluated sequence of checks."""
    return next((w for w in witnesses if w is not None), None)


class _Memo(dict):
    """A dict that builds each missing entry from its key, once."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(key)
        return value


class VerificationRun:
    """One run's settings (``qorder``, ``nmax``) and the expensive shared
    intermediates, each built once per run."""

    def __init__(self, qorder: int = 30, nmax: int = 25):
        if qorder < 10:
            raise ValueError("qorder must be >= 10")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        self.qorder = qorder
        self.nmax = nmax  # the recurrences are checked for 0 <= n <= nmax
        self.bigraded_order = min(qorder, 25)
        # criterion: layer count vs recursion mod q^20 (total size <= 19);
        # below q^20 it checks sizes < qorder
        self.cyl_order = min(qorder - 1, 19)
        self.words = automata.FORBIDDEN_WORDS  # the DFA's factors, read when the run starts
        # by name: the catalog's certificate sets and annihilators, the 5x5
        # system's read off this run's transfer system
        self.certificates: dict[str, catalog.CertificateSet] = _Memo(lambda name: catalog.certificate(name))
        self.operators: dict[str, QDiffOperator] = _Memo(
            lambda name: catalog.annihilator(name, lambda: self.transfer.matrix))
        # by name: a profile's G or a class's enumerated series (catalog.identities)
        self.series: dict[str, BiSeries] = _Memo(self._series)

    @cached_property
    def cw_family(self) -> dict:
        return solve_cw_family((3, 0, 0), self.qorder)

    @cached_property
    def dfa(self) -> Dfa:
        return build_avoidance_dfa(self.words)

    @cached_property
    def transfer(self):
        return derive_transfer_system(self.dfa)

    @cached_property
    def language(self) -> dict[int, BiSeries]:
        return solve_language_series(self.transfer, self.bigraded_order)

    def _series(self, name: str) -> BiSeries:
        entry = catalog.identities()[name]
        if entry.conds is None:
            return self.cw_family[entry.profile]
        return gen_fun(enumerate_2colored(self.qorder - 1, entry.conds), self.qorder)


def _product_witness(run: VerificationRun, name: str, anchors: dict[int, int]) -> dict | None:
    """The class at x = 1 against its product; once they agree, the anchor coefficients too."""
    lhs = run.series[name].eval_x1()
    witness = _witness("coefficient", lhs, pochhammer_expand(catalog.identities()[name].product, run.qorder))
    got = [lhs.coeffs[e] for e in anchors]
    expected = list(anchors.values())
    if witness is None and got != expected:
        witness = {"kind": "anchor", "got": [str(c) for c in got], "expected": [str(c) for c in expected]}
    return witness


def _qdiff_witness(run: VerificationRun, names: Iterable[str]) -> dict | None:
    """Each name's operator must annihilate its series; the witness is the lowest term left."""

    def witness(name: str) -> dict | None:
        res = apply_qdiff(run.operators[name], run.series[name])
        if res.is_zero():
            return None
        m = min(res.slices)
        return {"kind": f"operator-{name}", "x_exp": m, "q_exp": res.slices[m].valuation()}

    return _first_witness(map(witness, names))


def _sum_task(run: VerificationRun, kind: str, names: Iterable[str]) -> tuple[dict, dict | None]:
    """Each name's quadruple sum equals its series mod q^bigraded_order."""
    n = run.bigraded_order
    return {"qorder": n}, _first_witness(
        _witness(f"{kind}-{name}", evaluate_ag_sum(catalog.identities()[name].sum, n), run.series[name].truncate(n))
        for name in names
    )


def _relations_witness(run: VerificationRun, kind: str, relations) -> dict | None:
    """Each (target, terms) must hold over the profile family:
    target = sum of coeff * source(x q^shift) over its (coeff, shift, source) terms."""
    fam = run.cw_family

    def witness(target, terms) -> dict | None:
        rhs = shift_combination(((coeff, shift, fam[source]) for coeff, shift, source in terms), run.qorder)
        return _witness(f"{kind}-{target}", fam[target], rhs)

    return _first_witness(witness(*r) for r in relations)


# ----------------------------------------------------------------------
# the tasks, in criterion order


def task_product_d123(run: VerificationRun) -> tuple[dict, dict | None]:
    """Enumeration at x=1 equals the D1-D3 class product; anchors 1,2,2,4."""
    return {"qorder": run.qorder}, _product_witness(run, "d123", {0: 1, 1: 2, 2: 2, 3: 4})


def task_product_d1234(run: VerificationRun) -> tuple[dict, dict | None]:
    """Enumeration at x=1 equals the D1-D4 class product; anchors at q^6, q^7."""
    return {"qorder": run.qorder}, _product_witness(run, "d1234", {6: 5, 7: 4})


def task_ag_bigraded(run: VerificationRun) -> tuple[dict, dict | None]:
    """The quadruple sums equal the bigraded generating functions."""
    return _sum_task(run, "bigraded", catalog.CLASS_NAMES)


def task_ag_cylindric(run: VerificationRun) -> tuple[dict, dict | None]:
    """The max-part-graded quadruple sums equal the profile series."""
    return _sum_task(run, "sum", catalog.PROFILE_NAMES)


def task_aux_identity(run: VerificationRun) -> tuple[dict, dict | None]:
    """The auxiliary quadruple sum equals 1/(q,q^2;q^3)_inf."""
    aux = catalog.identities()["aux"]
    lhs = evaluate_ag_sum(aux.sum, run.qorder).eval_x1()
    witness = _witness("coefficient", lhs, pochhammer_expand(aux.product, run.qorder))
    return {"qorder": run.qorder}, witness


def task_pattern_equivalence(run: VerificationRun) -> tuple[dict, dict | None]:
    """Difference conditions D1-D3 match the forbidden-pattern families."""
    conds = catalog.identities()["d123"].conds
    witness = None
    count = 0
    for lam in iter_all(PATTERN_MAX_SIZE):
        count += 1
        if check_condition(lam, conds) != (not violates_forbidden_patterns(lam)):
            witness = {"kind": "partition", "partition": to_pairs(lam)}
            break
    return {"max_size": PATTERN_MAX_SIZE, "checked": count}, witness


def task_dfa_table(run: VerificationRun) -> tuple[dict, dict | None]:
    """The minimal DFA has 6 states, one accept state, and the golden table."""
    dfa = run.dfa
    golden = json.loads((GOLDEN_DIR / "dfa_canonical.json").read_text())
    witness = None
    if dfa.to_json() != golden:  # the golden table lists its 6 states and its one accept state
        witness = {"kind": "dfa", "states": dfa.n_states, "accepts": sorted(dfa.accepts)}
    return {"words": len(run.words)}, witness


def task_transfer_matrix(run: VerificationRun) -> tuple[dict, dict | None]:
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
    return {}, witness


def task_language_series(run: VerificationRun) -> tuple[dict, dict | None]:
    """Each class is counted by the language series of its system's component."""
    n = run.bigraded_order
    table = catalog.identities()
    components = {name: table[name].system[1] for name in catalog.CLASS_NAMES}
    return {"qorder": n}, _first_witness(
        _witness(f"state{c}-vs-{name}", run.language[c], run.series[name].truncate(n))
        for name, c in components.items())


def task_qdiff_colored(run: VerificationRun) -> tuple[dict, dict | None]:
    """The two order-3 operators of the automaton annihilate the enumerated series."""
    return {"qorder": run.qorder}, _qdiff_witness(run, catalog.CLASS_NAMES)


def task_recursion_displays(run: VerificationRun) -> tuple[dict, dict | None]:
    """The four subset-recursion displays hold for the computed family."""
    return {"qorder": run.qorder}, _relations_witness(run, "recursion", catalog.RECURSION_DISPLAYS)


def task_first_order_relations(run: VerificationRun) -> tuple[dict, dict | None]:
    """The four derived first-order relations hold (two of them are the 2x2 system)."""
    return {"qorder": run.qorder}, _relations_witness(run, "first-order", catalog.FIRST_ORDER_RELATIONS)


def task_qdiff_cylindric(run: VerificationRun) -> tuple[dict, dict | None]:
    """The two order-2 operators of the 2x2 system annihilate the profile series."""
    return {"qorder": run.qorder}, _qdiff_witness(run, ("g300", "g111"))


def task_cylindric_enumeration(run: VerificationRun) -> tuple[dict, dict | None]:
    """The layer count equals the recursion solution for all 10 profiles."""
    n = run.cyl_order
    fam = run.cw_family
    compared = list(fam)  # profile_orbit((3, 0, 0)), in its order
    witness = _first_witness(
        _witness(f"profile-{profile}", enumerate_cylindric(profile, n), g_to_f(fam[profile].truncate(n + 1)),
                 profile=list(profile))
        for profile in compared
    )
    return {"max_size": n, "profiles": len(compared)}, witness


def task_specialized_products(run: VerificationRun) -> tuple[dict, dict | None]:
    """F(1, q) * (q;q)_inf equals the two class product sides."""
    table = catalog.identities()
    euler = pochhammer_expand(catalog.EULER_PRODUCT, run.qorder)
    witness = _first_witness(
        _witness(f"{table[name].profile_at_x1}-vs-{name}-product",
                 g_to_f(run.series[table[name].profile_at_x1]).eval_x1() * euler,
                 pochhammer_expand(table[name].product, run.qorder))
        for name in catalog.CLASS_NAMES
    )
    return {"qorder": run.qorder}, witness


def task_certificates(run: VerificationRun) -> tuple[dict, dict | None]:
    """All four certificate sets verify exactly after documented emendations."""

    def witness(name: str) -> dict | None:
        res = verify_certificate(catalog.certificate_term(name), run.certificates[name])
        if res.ok:
            return None
        return {"kind": f"certificate-{name}", "residual_terms": res.residual_terms,
                "residual_sample": res.residual_sample}

    return {"sets": list(catalog.CERTIFICATE_NAMES)}, _first_witness(map(witness, catalog.CERTIFICATE_NAMES))


def task_recurrences(run: VerificationRun) -> tuple[dict, dict | None]:
    """The certificate recurrences annihilate the brute-force sums.

    Exact rational evaluation over the full support at three fixed points,
    for every 0 <= n <= run.nmax.  A recurrence whose p_0(q0, q0^n) is zero
    at every checked n determines no f_n, so that check fails as vacuous.
    """
    nmax = run.nmax

    def witness(name: str) -> dict | None:
        plist = recurrence_from_certificate(run.certificates[name])
        failure = first_recurrence_failure(catalog.certificate_term(name), plist, nmax, RECURRENCE_POINTS)
        return failure and {"kind": f"recurrence-{name}", **failure}

    return ({"nmax": nmax, "points": [str(p) for p in RECURRENCE_POINTS]},
            _first_witness(map(witness, catalog.CERTIFICATE_NAMES)))


def task_combination_identity(run: VerificationRun) -> tuple[dict, dict | None]:
    """Each certificate recurrence right-divides the recurrence read off the
    operator of its sum's system and component (``catalog.identities``)."""

    def witness(name: str) -> dict | None:
        rem = recurrence_remainder(recurrence_from_operator(run.operators[name]),
                                   recurrence_from_certificate(run.certificates[name]))
        return {"kind": f"remainder-{name}", "j": min(rem)} if rem else None

    return {}, _first_witness(map(witness, catalog.CERTIFICATE_NAMES))


def task_chain(run: VerificationRun) -> tuple[dict, dict | None]:
    """The closing chain: four independent routes to each of the two series.

    enumeration = quadruple sum = profile series at x=1 = infinite product,
    each class tied to its ``profile_at_x1`` in ``catalog.identities``.  Only
    the sum side at x = 1, up to q^(qorder - 1), is this task's own: the
    product comparison is ``product-d123``'s and ``product-d1234``'s, and the
    profile comparison follows from those with ``specialized-products``.
    """
    n = run.qorder
    table = catalog.identities()

    def witness(name: str) -> dict | None:
        entry = table[name]
        enumeration = run.series[name].eval_x1()
        routes = (
            ("sum-side", evaluate_ag_sum(entry.sum, n).eval_x1()),
            ("profile-" + "".join(map(str, table[entry.profile_at_x1].profile)),
             run.series[entry.profile_at_x1].eval_x1()),
            ("product", pochhammer_expand(entry.product, n)),
        )
        return _first_witness(_witness(f"chain-{name}", enumeration, series, routes=["enumeration", route])
                              for route, series in routes)

    return {"qorder": n}, _first_witness(map(witness, catalog.CLASS_NAMES))


def task_uncoupling(run: VerificationRun) -> tuple[dict, dict | None]:
    """Each operator kills its component of every solution of its system exactly
    (``annihilation_depth``), on this run's 2x2 and 5x5 matrices."""

    def witness(name: str, system: str, component: int) -> dict | None:
        rows = catalog.system_matrix(system, lambda: run.transfer.matrix)
        if annihilation_depth(run.operators[name], rows, component) is not None:
            return None
        return {"kind": "uncouple-2x2"} if system == "2x2" else {"kind": "uncouple-5x5", "component": component}

    return {}, _first_witness(witness(name, *row.system) for name, row in catalog.identities().items() if row.system)


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


#: each task's report name: its function name less ``task_``, with dashes
TASK_NAMES = [task.__name__.removeprefix("task_").replace("_", "-") for task in TASKS]


def verify_all(qorder: int = 30, nmax: int = 25) -> list[RunReport]:
    """Run the whole battery in fixed task order and report every task.

    Each report is named from ``TASK_NAMES``, timed, and passes when the
    task's witness is None.  A task that raises is reported with status
    "error" and the exception as its witness; the remaining tasks still run.
    Settings ``VerificationRun`` rejects raise ValueError before any task.
    """
    run = VerificationRun(qorder, nmax)
    reports = []
    for name, task in zip(TASK_NAMES, TASKS):
        t0 = time.perf_counter()
        try:
            inputs, witness = task(run)
            status = "pass" if witness is None else "fail"
        except Exception as exc:
            inputs, status = {}, "error"
            witness = {"kind": "exception", "type": type(exc).__name__, "message": str(exc)}
        reports.append(RunReport(name, status, inputs, witness, time.perf_counter() - t0))
    return reports
