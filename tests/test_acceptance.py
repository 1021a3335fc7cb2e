"""The acceptance gate: every criterion at its stated truncation order.

All identities here are exact; the tolerance everywhere is literal
coefficient equality.  One PASS/FAIL line is printed per criterion.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qpart import catalog
from qpart.automata import build_avoidance_dfa, minimize
from qpart.holonomic import ShiftOp, TERM_VARS, verify_certificate
from qpart.laurent import LaurentPoly
from qpart.series import QSeries
from qpart.verification import (
    VerificationRun,
    task_ag_bigraded,
    task_ag_cylindric,
    task_aux_identity,
    task_specialized_products,
    task_certificates,
    task_chain,
    task_combination_identity,
    task_cylindric_enumeration,
    task_dfa_table,
    task_first_order_relations,
    task_language_series,
    task_pattern_equivalence,
    task_product_d123,
    task_product_d1234,
    task_qdiff_colored,
    task_qdiff_cylindric,
    task_recurrences,
    task_recursion_displays,
    task_transfer_matrix,
    task_uncoupling,
)


@pytest.fixture(scope="module")
def run():
    return VerificationRun(qorder=30, nmax=25)


def _criterion(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}" + (f"  {detail}" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


def test_criterion_01_d123_product(run):
    _, w = task_product_d123(run)
    _criterion(1, "D1-D3 class equals its product side mod q^30", w is None, json.dumps(w) if w else "")


def test_criterion_02_d1234_product(run):
    _, w = task_product_d1234(run)
    _criterion(2, "D1-D4 class equals its product side mod q^30", w is None, json.dumps(w) if w else "")


def test_criterion_03_bigraded_sums(run):
    _, w = task_ag_bigraded(run)
    _criterion(3, "quadruple sums equal bigraded series mod q^25", w is None, json.dumps(w) if w else "")


def test_criterion_04_aux_identity(run):
    _, w = task_aux_identity(run)
    _criterion(4, "auxiliary quadruple sum equals 1/(q,q^2;q^3) mod q^30", w is None)


def test_criterion_05_pattern_equivalence(run):
    inputs, w = task_pattern_equivalence(run)
    _criterion(5, f"conditions match forbidden patterns on all {inputs['checked']} partitions of size <= 18", w is None)


def test_criterion_06_automaton_pipeline(run):
    ok = all([task(run)[1] is None for task in (task_dfa_table, task_transfer_matrix, task_language_series)])
    _criterion(6, "6-state table, 5x5 matrix, and component series mod q^25", ok)


def test_criterion_07_colored_operators(run):
    _, w = task_qdiff_colored(run)
    _criterion(7, "both scalar operators annihilate the enumerated series mod q^30", w is None)


def test_criterion_08_profile_recursion(run):
    tasks = (task_recursion_displays, task_first_order_relations, task_qdiff_cylindric,
             task_cylindric_enumeration, task_specialized_products)
    ok = all([task(run)[1] is None for task in tasks])
    _criterion(8, "recursion displays, derived relations, operators, enumeration mod q^20, products", ok)


def test_criterion_09_certificates(run):
    # ag-cylindric: the sum sides against the profile series
    tasks = (task_certificates, task_recurrences, task_combination_identity, task_ag_cylindric)
    ok = all([task(run)[1] is None for task in tasks])
    _criterion(9, "certificates verify; recurrences annihilate f_n for n <= 25; combination identity", ok)


def test_criterion_10_chain(run):
    _, w = task_chain(run)
    _criterion(10, "enumeration equals the quadruple sum at x = 1 mod q^30 for both classes", w is None,
               json.dumps(w) if w else "")


def test_criterion_11_property_suites(run):
    # ring axioms on a fixed deterministic triple family
    qv = ("q",)
    polys = [LaurentPoly(qv, {(0,): a, (1,): b}) for a in (-1, 1, 2) for b in (0, 1, -2)]
    ring_ok = all(
        (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
        for a in polys[:4] for b in polys[3:7] for c in polys[5:]
    )
    # inverse laws
    s = QSeries(14, [1, 2, 0, -3, 5, 1, 0, 0, 4, -1, 2, 2, 7, 1])
    inv_ok = (s * s.invert() == QSeries.one(14)) and (s.invert() * s == QSeries.one(14))
    # DFA re-minimization fixed point
    dfa = build_avoidance_dfa()
    dfa_ok = minimize(dfa) == dfa
    # certificate soundness probe: a perturbed set must fail
    cert = catalog.certificate("g300")
    cert.families["p"][1] = cert.families["p"][1] + ShiftOp.coefficient(
        LaurentPoly.monomial(TERM_VARS, (3, 3, 0, 0, 0))
    )
    probe_ok = not verify_certificate(catalog.certificate_term("g300"), cert).ok
    # determinism of CLI outputs
    from qpart.cli import main

    def capture(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main(argv)
        return out.getvalue()

    cli_ok = all(
        capture(argv) == capture(argv)
        for argv in (
            ["series", "--which", "d1234", "--qorder", "9", "--format", "csv"],
            ["dfa", "--format", "dot"],
        )
    )
    ok = ring_ok and inv_ok and dfa_ok and probe_ok and cli_ok
    _criterion(11, "ring axioms, inverse laws, minimization fixed point, soundness probe, determinism", ok,
               f"ring={ring_ok} inv={inv_ok} dfa={dfa_ok} probe={probe_ok} cli={cli_ok}")


def test_criterion_12_uncoupling_supplement(run):
    # not numbered in the criteria list, but the uncoupled annihilators are
    # part of the pipeline contract: keep them under the gate
    _, w = task_uncoupling(run)
    _criterion(12, "each uncoupled operator kills its system's component exactly (annihilation_depth)", w is None)
