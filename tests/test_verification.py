"""The verification task layer: failure witnesses and crash isolation."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qpart import catalog, verification
from qpart.cli import main
from qpart.colored import gen_fun
from qpart.series import PochhammerSpec
from qpart.verification import (
    VerificationRun,
    task_aux_identity,
    task_chain,
    task_combination_identity,
    task_cylindric_enumeration,
    task_product_d123,
    task_product_d1234,
    task_qdiff_colored,
    task_qdiff_cylindric,
    task_specialized_products,
    task_transfer_matrix,
    task_uncoupling,
    verify_all,
)


@pytest.fixture
def run():
    return VerificationRun(qorder=12)


def test_product_witnesses_are_pinned(run, monkeypatch):
    # drop the (q^4; q^6) numerator factor and one (q^2; q^3) denominator factor
    monkeypatch.setattr(catalog, "PRODUCT_D123", PochhammerSpec.quotient(
        num=[(2, 6)], den=[(1, 6), (1, 6), (3, 6), (3, 6), (5, 6), (5, 6)]))
    monkeypatch.setattr(catalog, "PRODUCT_AUX", PochhammerSpec.quotient(num=[], den=[(1, 3)]))
    coefficient = {"q_exp": 4, "lhs": "5", "rhs": "6"}
    assert task_product_d123(run).witness == {"kind": "coefficient", **coefficient}
    assert task_aux_identity(run).witness == {"kind": "coefficient", "q_exp": 2, "lhs": "2", "rhs": "1"}
    assert task_specialized_products(run).witness == {"kind": "g111-vs-d123-product", **coefficient}
    assert task_chain(run).witness == {"kind": "chain-d123", "routes": ["enumeration", "product"],
                                       **coefficient}


def test_euler_and_d1234_witnesses_are_pinned(run, monkeypatch):
    monkeypatch.setattr(catalog, "EULER_PRODUCT", PochhammerSpec.quotient(num=[(1, 2)], den=[]))
    assert task_specialized_products(run).witness == {
        "kind": "g111-vs-d123-product", "q_exp": 2, "lhs": "3", "rhs": "2"}
    monkeypatch.undo()
    monkeypatch.setattr(catalog, "PRODUCT_D1234", PochhammerSpec.quotient(num=[], den=[(2, 6), (3, 6), (4, 6)]))
    coefficient = {"q_exp": 3, "lhs": "2", "rhs": "1"}
    assert task_product_d1234(run).witness == {"kind": "coefficient", **coefficient}
    assert task_specialized_products(run).witness == {"kind": "g300-vs-d1234-product", **coefficient}
    assert task_chain(run).witness == {"kind": "chain-d1234", "routes": ["enumeration", "product"],
                                       **coefficient}


def test_anchor_witnesses_are_pinned(run, monkeypatch):
    # swap the two classes on both sides: the products agree, the anchors do not
    run.f_d123, run.f_d1234 = gen_fun(run.d1234_partitions, 12), gen_fun(run.d123_partitions, 12)
    d123, d1234 = catalog.PRODUCT_D123, catalog.PRODUCT_D1234
    monkeypatch.setattr(catalog, "PRODUCT_D123", d1234)
    monkeypatch.setattr(catalog, "PRODUCT_D1234", d123)
    assert task_product_d123(run).witness == {
        "kind": "anchor", "got": ["1", "0", "1", "2"], "expected": ["1", "2", "2", "4"]}
    assert task_product_d1234(run).witness == {"kind": "anchor", "got": ["11", "14"], "expected": ["5", "4"]}


def test_transfer_matrix_witness_is_the_first_mismatch(run, monkeypatch, tmp_path):
    golden = json.loads((verification.GOLDEN_DIR / "transfer_matrix.json").read_text())
    for i, j in ((1, 2), (3, 0)):
        golden["matrix"][i][j] = {"vars": ["x", "q"], "terms": []}
    shutil.copy(verification.GOLDEN_DIR / "dfa_canonical.json", tmp_path)
    (tmp_path / "transfer_matrix.json").write_text(json.dumps(golden))
    monkeypatch.setattr(verification, "GOLDEN_DIR", tmp_path)
    r = task_transfer_matrix(run)
    assert r.status == "fail" and r.witness == {"kind": "matrix-entry", "row": 1, "col": 2}


def test_uncoupling_witnesses_are_pinned(run, monkeypatch):
    coupled = catalog.coupled_g_system

    def doubled_corner():
        mat = coupled()
        mat[0][0] = mat[0][0] + mat[0][0]
        return mat

    monkeypatch.setattr(catalog, "coupled_g_system", doubled_corner)
    assert task_uncoupling(run).witness == {"kind": "uncouple-2x2"}
    # the first failing check ends the task before the 5x5 system is derived
    assert "transfer" not in vars(run) and "f_d123" not in vars(run)
    monkeypatch.undo()
    transfer = run.transfer
    rows = [list(row) for row in transfer.matrix]
    rows[1][1] = rows[1][1] + rows[1][1]
    run.transfer = dataclasses.replace(transfer, matrix=tuple(map(tuple, rows)))
    assert task_uncoupling(run).witness == {"kind": "uncouple-5x5", "component": 0}
    run.transfer = transfer
    run.f_d1234 = run.f_d123
    assert task_uncoupling(run).witness == {"kind": "uncouple-5x5", "component": 1}


def test_operator_witnesses_follow_the_systems_they_are_derived_from(run, monkeypatch):
    # the operators are uncoupled from the catalog's systems, so perturbing
    # a system, not an operator, is what the qdiff tasks must catch
    coupled = catalog.coupled_g_system

    def doubled_corner():
        mat = coupled()
        mat[0][0] = mat[0][0] + mat[0][0]
        return mat

    monkeypatch.setattr(catalog, "coupled_g_system", doubled_corner)
    assert task_qdiff_cylindric(run).witness == {"kind": "operator-g300", "x_exp": 1, "q_exp": 3}
    monkeypatch.undo()
    derive = catalog.derive_transfer_system

    def doubled_entry(dfa):
        transfer = derive(dfa)
        rows = [list(row) for row in transfer.matrix]
        rows[1][0] = rows[1][0] + rows[1][0]
        return dataclasses.replace(transfer, matrix=tuple(map(tuple, rows)))

    monkeypatch.setattr(catalog, "derive_transfer_system", doubled_entry)
    assert task_qdiff_colored(run).witness == {"kind": "operator-d123", "x_exp": 1, "q_exp": 3}


@pytest.mark.parametrize("doubled, j", [(0, 1), (2, 2), (4, 1)])
def test_combination_identity_witness_is_pinned(run, monkeypatch, doubled, j):
    pprime = catalog.pprime_family

    def perturbed():
        ps = pprime()
        ps[doubled] = ps[doubled] + ps[doubled]
        return ps

    monkeypatch.setattr(catalog, "pprime_family", perturbed)
    assert task_combination_identity(run).witness == {"kind": "combination-component", "j": j}


def test_a_crashing_task_is_reported_and_the_rest_still_run(monkeypatch, tmp_path):
    def task_aux_identity(run):
        raise RuntimeError("probe")

    index = verification.TASKS.index(verification.task_aux_identity)
    tasks = verification.TASKS[:index + 2]
    tasks[index] = task_aux_identity
    monkeypatch.setattr(verification, "TASKS", tasks)
    reports = verify_all(qorder=10)
    assert [r.status for r in reports] == ["pass"] * index + ["error", "pass"]
    crashed = reports[index]
    assert crashed.task == "aux-identity" and not crashed.ok
    assert crashed.to_json() == {"task": "aux-identity", "status": "error", "inputs": {},
                                 "witness": {"kind": "exception", "type": "RuntimeError",
                                             "message": "probe"}}

    report = tmp_path / "report.json"
    assert main(["verify-all", "--qorder", "10", "--report", str(report)]) == 1
    written = json.loads(report.read_text())
    assert [r["task"] for r in written] == [r.task for r in reports]
    assert written[index]["status"] == "error"


def test_cylindric_enumeration_is_not_vacuous_at_the_lowest_qorder():
    r = task_cylindric_enumeration(VerificationRun(qorder=10))
    assert r.ok and r.inputs == {"max_size": 9, "profiles": 10}


def test_verify_all_passes_from_a_copied_package(tmp_path):
    # the golden files travel with the package, not with the source tree
    src = Path(__file__).resolve().parent.parent / "src" / "qpart"
    shutil.copytree(src, tmp_path / "qpart", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run([sys.executable, "-m", "qpart.cli", "verify-all", "--qorder", "10"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
    assert sum(line.startswith("PASS ") for line in out.stderr.splitlines()) == 20
