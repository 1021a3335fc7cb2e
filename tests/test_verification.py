"""The verification task layer: failure witnesses and crash isolation."""

import ast
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import zipfile
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

from oracles import listing_order_key, pattern_equivalence_by_full_checks, qu_value_by_fractions
from qpart import automata, catalog, colored, holonomic, verification
from qpart.cli import main
from qpart.laurent import LaurentPoly
from qpart.series import PochhammerSpec
from qpart.verification import (
    VerificationRun,
    task_ag_cylindric,
    task_aux_identity,
    task_chain,
    task_combination_identity,
    task_cylindric_enumeration,
    task_dfa_table,
    task_pattern_equivalence,
    task_product_d123,
    task_product_d1234,
    task_qdiff_colored,
    task_qdiff_cylindric,
    task_recurrences,
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
    monkeypatch.setattr(catalog, "PRODUCT_D123", PochhammerSpec(
        num=((2, 6),), den=((1, 6), (1, 6), (3, 6), (3, 6), (5, 6), (5, 6))))
    monkeypatch.setattr(catalog, "PRODUCT_AUX", PochhammerSpec(den=((1, 3),)))
    coefficient = {"q_exp": 4, "lhs": "5", "rhs": "6"}
    assert task_product_d123(run)[1] == {"kind": "coefficient", **coefficient}
    assert task_aux_identity(run)[1] == {"kind": "coefficient", "q_exp": 2, "lhs": "2", "rhs": "1"}
    assert task_specialized_products(run)[1] == {"kind": "g111-vs-d123-product", **coefficient}
    assert task_chain(run)[1] is None  # the products are the product tasks' own


def test_euler_and_d1234_witnesses_are_pinned(run, monkeypatch):
    monkeypatch.setattr(catalog, "EULER_PRODUCT", PochhammerSpec(num=((1, 2),)))
    assert task_specialized_products(run)[1] == {
        "kind": "g111-vs-d123-product", "q_exp": 2, "lhs": "3", "rhs": "2"}
    monkeypatch.undo()
    monkeypatch.setattr(catalog, "PRODUCT_D1234", PochhammerSpec(den=((2, 6), (3, 6), (4, 6))))
    coefficient = {"q_exp": 3, "lhs": "2", "rhs": "1"}
    assert task_product_d1234(run)[1] == {"kind": "coefficient", **coefficient}
    assert task_specialized_products(run)[1] == {"kind": "g300-vs-d1234-product", **coefficient}
    assert task_chain(run)[1] is None


def test_anchor_witnesses_are_pinned(run, monkeypatch):
    # swap the two classes on both sides: the products agree, the anchors do not
    run.series["d123"], run.series["d1234"] = run.series["d1234"], run.series["d123"]
    d123, d1234 = catalog.PRODUCT_D123, catalog.PRODUCT_D1234
    monkeypatch.setattr(catalog, "PRODUCT_D123", d1234)
    monkeypatch.setattr(catalog, "PRODUCT_D1234", d123)
    assert task_product_d123(run)[1] == {
        "kind": "anchor", "got": ["1", "0", "1", "2"], "expected": ["1", "2", "2", "4"]}
    assert task_product_d1234(run)[1] == {"kind": "anchor", "got": ["11", "14"], "expected": ["5", "4"]}


def test_chain_compares_the_enumerations_with_the_sums_only(run):
    # the products and the profile series are other tasks' routes
    assert task_chain(run) == ({"qorder": 12}, None)
    assert "cw_family" not in vars(run)
    assert sorted(run.series) == ["d123", "d1234"]


def test_transfer_matrix_witness_is_the_first_mismatch(run, monkeypatch, tmp_path):
    golden = json.loads((verification.GOLDEN_DIR / "transfer_matrix.json").read_text())
    for i, j in ((1, 2), (3, 0)):
        golden["matrix"][i][j] = {"vars": ["x", "q"], "terms": []}
    shutil.copy(verification.GOLDEN_DIR / "dfa_canonical.json", tmp_path)
    (tmp_path / "transfer_matrix.json").write_text(json.dumps(golden))
    monkeypatch.setattr(verification, "GOLDEN_DIR", tmp_path)
    assert task_transfer_matrix(run)[1] == {"kind": "matrix-entry", "row": 1, "col": 2}


def test_uncoupling_witnesses_are_pinned():
    # one changed coefficient of any one operator fails the exact check, and
    # the task reads no series; a failing 2x2 check ends the task before the
    # 5x5 transfer system is derived
    for name, witness in (
        ("g300", {"kind": "uncouple-2x2"}),
        ("g111", {"kind": "uncouple-2x2"}),
        ("d123", {"kind": "uncouple-5x5", "component": 0}),
        ("d1234", {"kind": "uncouple-5x5", "component": 1}),
    ):
        run = VerificationRun(qorder=12)
        op = run.operators[name]
        (coeff, shift), *rest = op.terms
        run.operators[name] = dataclasses.replace(op, terms=((coeff + coeff, shift), *rest))
        assert task_uncoupling(run) == ({}, witness), name
        assert not run.series
        if name in ("g300", "g111"):
            assert "transfer" not in vars(run), name


def test_operator_witnesses_follow_the_systems_they_are_derived_from(run, monkeypatch):
    # the operators are uncoupled from the catalog's systems, so perturbing
    # a system, not an operator, is what the qdiff tasks must catch;
    # uncoupling checks each operator against that same system, and passes
    coupled = catalog.coupled_g_system

    def doubled_corner():
        mat = coupled()
        mat[0][0] = mat[0][0] + mat[0][0]
        return mat

    monkeypatch.setattr(catalog, "coupled_g_system", doubled_corner)
    assert task_qdiff_cylindric(run)[1] == {"kind": "operator-g300", "x_exp": 1, "q_exp": 3}
    assert task_uncoupling(run)[1] is None
    monkeypatch.undo()
    # the automaton's operators come from the run's transfer system
    run = VerificationRun(qorder=12)
    transfer = run.transfer
    rows = [list(row) for row in transfer.matrix]
    rows[1][0] = rows[1][0] + rows[1][0]
    run.transfer = dataclasses.replace(transfer, matrix=tuple(map(tuple, rows)))
    assert task_qdiff_colored(run)[1] == {"kind": "operator-d123", "x_exp": 1, "q_exp": 3}
    assert task_uncoupling(run)[1] is None


@pytest.mark.parametrize("doubled, j", [(0, 0), (2, 2), (4, 0)])
def test_combination_identity_witness_is_pinned(run, monkeypatch, doubled, j):
    # the task reads each operator recurrence off the run's uncoupled operator;
    # g111 comes first, and j is the least power of B left in its remainder
    pprime = verification.recurrence_from_operator

    def perturbed(op):
        ps = pprime(op)
        ps[doubled] = ps[doubled] + ps[doubled]
        return ps

    monkeypatch.setattr(verification, "recurrence_from_operator", perturbed)
    assert task_combination_identity(run)[1] == {"kind": "remainder-g111", "j": j}


def _flip_one_partition(monkeypatch):
    """The pattern side reads (2+, 1+) the wrong way; returns that partition."""
    violates, flipped = verification.violates_forbidden_patterns, ((2, "+"), (1, "+"))
    monkeypatch.setattr(verification, "violates_forbidden_patterns",
                        lambda lam, start=0: violates(lam, start) != (lam == flipped))
    return flipped


def test_pattern_equivalence_witness_is_the_first_disagreeing_partition(run, monkeypatch):
    flipped = _flip_one_partition(monkeypatch)
    inputs, witness = task_pattern_equivalence(run)
    # the listing, in the walk's preorder, stops at the flipped partition
    checked = next(i for i, lam in enumerate(verification.iter_all(18), 1) if lam == flipped)
    assert inputs == {"max_size": 18, "checked": checked}
    assert witness == {"kind": "partition", "partition": verification.to_pairs(flipped)}


def _without_template(template):
    # family_windows(k) lists all 15 templates for k >= 1, and for k = 0
    # the last 8, which start at k = 0
    windows = colored.family_windows

    def without_template(k):
        wins = windows(k)
        return [w for i, w in enumerate(wins) if i + 15 - len(wins) != template]

    return without_template


@pytest.mark.parametrize("template", range(15))
def test_pattern_equivalence_needs_every_family_template(run, monkeypatch, template):
    windows, without_template = colored.family_windows, _without_template(template)
    monkeypatch.setattr(colored, "family_windows", without_template)
    colored._windows_ending_in.cache_clear()
    try:
        _, witness = task_pattern_equivalence(run)
    finally:
        colored._windows_ending_in.cache_clear()
    assert witness is not None
    # D1-D3 reject the witness, and only an instance of the dropped template says so
    lam = tuple((m, c) for c, m in witness["partition"])
    dropped = {w for k in range(19) for w in windows(k) if w not in without_template(k)}
    assert any(lam[i : i + len(w)] == w for w in dropped for i in range(len(lam)))


def _drop_the_d3_three_windows(monkeypatch):
    monkeypatch.setattr(colored, "_d3_win3", lambda a, b, c: False)


@pytest.mark.parametrize("change", [
    None,
    _flip_one_partition,
    *(lambda mp, t=t: mp.setattr(colored, "family_windows", _without_template(t)) for t in range(15)),
    _drop_the_d3_three_windows,
], ids=["unchanged", "flipped-partition", *(f"without-template-{t}" for t in range(15)), "d3-guard-changed"])
def test_pattern_equivalence_carried_along_the_walk_is_the_whole_partition_check(run, monkeypatch, change):
    if change is not None:
        change(monkeypatch)
    colored._windows_ending_in.cache_clear()
    try:
        got, expected = task_pattern_equivalence(run), pattern_equivalence_by_full_checks(run)
    finally:
        colored._windows_ending_in.cache_clear()
    assert got == expected
    # every change is seen: each one makes the two sides disagree somewhere below size 18
    assert (expected[1] is None) == (change is None)


def test_pattern_equivalence_refuses_a_listing_out_of_preorder(monkeypatch):
    # every partition, each once, but by size first: (1+, 1+) comes after (2-), not after (1+)
    listing = sorted(verification.iter_all(verification.PATTERN_MAX_SIZE), key=listing_order_key)
    monkeypatch.setattr(verification, "iter_all", lambda max_size: iter(listing))
    index = verification.TASKS.index(task_pattern_equivalence)
    monkeypatch.setattr(verification, "TASKS", verification.TASKS[: index + 1])
    report = verify_all(qorder=10)[index]
    assert report.task == "pattern-equivalence" and report.status == "error"
    assert report.witness == {"kind": "exception", "type": "ValueError",
                              "message": "the walk listed [['+', 1], ['+', 1]] out of preorder"}


def test_dfa_table_witness_is_pinned(run, monkeypatch, tmp_path):
    golden = json.loads((verification.GOLDEN_DIR / "dfa_canonical.json").read_text())
    golden["delta"]["1"]["a"] = 2
    (tmp_path / "dfa_canonical.json").write_text(json.dumps(golden))
    monkeypatch.setattr(verification, "GOLDEN_DIR", tmp_path)
    # the built automaton is still the 6-state one; only the table differs
    assert task_dfa_table(run)[1] == {"kind": "dfa", "states": 6, "accepts": [5]}


def test_dfa_table_reads_the_word_list_at_each_run(monkeypatch):
    words = automata.FORBIDDEN_WORDS
    for dropped in words:
        fewer = tuple(w for w in words if w != dropped)
        monkeypatch.setattr(automata, "FORBIDDEN_WORDS", fewer)
        assert automata.build_avoidance_dfa() == automata.build_avoidance_dfa(fewer)
        inputs, witness = task_dfa_table(VerificationRun(qorder=10))
        assert inputs == {"words": 47} and witness is not None, dropped


def test_certificates_witness_is_pinned(run):
    # criterion 11's soundness probe: one extra monomial in g300's p_1
    cert = catalog.certificate("g300")
    cert.families["p"][1] = cert.families["p"][1] + holonomic.ShiftOp.coefficient(
        LaurentPoly.monomial(holonomic.TERM_VARS, (3, 3, 0, 0, 0)))
    run.certificates["g300"] = cert
    w = verification.task_certificates(run)[1]
    assert w["kind"] == "certificate-g300" and w["residual_terms"] == 8
    assert w["residual_sample"][:2] == [[[5, 4, -3, -4, -5], -1], [[3, 3, -2, -3, -3], 1]]


def test_recurrences_witness_is_pinned(monkeypatch):
    derive = verification.recurrence_from_certificate

    def doubled_p0(cert):
        ps = derive(cert)
        ps[0] = ps[0] + ps[0]
        return ps

    monkeypatch.setattr(verification, "recurrence_from_certificate", doubled_p0)
    assert task_recurrences(VerificationRun(qorder=10, nmax=3))[1] == {"kind": "recurrence-g111", "q0": "2"}


def test_recurrences_that_determine_no_value_do_not_pass():
    # p_0(q, 1) = 0 for all four recurrences: at n = 0 alone each holds vacuously
    for name in catalog.CERTIFICATE_NAMES:
        p0 = holonomic.recurrence_from_certificate(catalog.certificate(name))[0]
        assert all(qu_value_by_fractions(p0, 0, q0) == 0 for q0 in verification.RECURRENCE_POINTS)
    witness = task_recurrences(VerificationRun(qorder=10, nmax=0))[1]
    assert witness == {"kind": "recurrence-g111", "p0_zero_up_to_n": 0}
    assert task_recurrences(VerificationRun(qorder=10, nmax=3))[1] is None


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


def test_report_names_survive_tasks_wrapped_in_place():
    # a tracer replaces each TASKS entry by a wrapper of its own name
    tasks = verification.TASKS[:]

    def wrapped(task):
        def wrapper(run):
            if task is verification.task_aux_identity:
                raise RuntimeError("probe")
            return task(run)
        return wrapper

    verification.TASKS[:] = map(wrapped, tasks)
    try:
        reports = verify_all(10, 3)
    finally:
        verification.TASKS[:] = tasks
    assert [r.task for r in reports] == [
        "product-d123", "product-d1234", "ag-bigraded", "ag-cylindric", "aux-identity",
        "pattern-equivalence", "dfa-table", "transfer-matrix", "language-series", "qdiff-colored",
        "recursion-displays", "first-order-relations", "qdiff-cylindric", "cylindric-enumeration",
        "specialized-products", "certificates", "recurrences", "combination-identity", "chain", "uncoupling",
    ]
    assert [r.task for r in reports if not r.ok] == ["aux-identity"]
    assert reports[4].status == "error"


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _benchmark_tracer() -> dict:
    path = BENCHMARKS / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)  # no byte code is written beside it
    return namespace


def test_the_benchmark_tracer_names_each_task_as_the_report_does():
    # benchmarks/tracer.py states the report-name rule again: were the two to
    # differ, the benchmark would record no span for the renamed tasks
    assert [span for _, _, span, _ in _benchmark_tracer()["task_targets"]()] == [
        "verification." + name for name in verification.TASK_NAMES]


def test_every_name_the_benchmark_traces_is_in_qpart():
    # a renamed or deleted traced member would otherwise fail only when the
    # benchmark runs; MUST_FIRE is read without running benchmarks/run.py
    tracer = _benchmark_tracer()
    calls = set()
    for layer, path, span, _ in tracer["TARGETS"]:
        assert callable(reduce(getattr, path.split("."), importlib.import_module("qpart." + layer)))
        calls.add(span + ".calls")
    must_fire = next(ast.literal_eval(node.value) for node in ast.parse((BENCHMARKS / "run.py").read_text()).body
                     if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MUST_FIRE")
    named = {name for names in must_fire.values() for name in names}
    assert named - calls - set(tracer["Tracer"]().counters) == set()


def test_ag_cylindric_pins_the_x_grading_of_the_auxiliary_sum(run, monkeypatch):
    # the old grading (1,1,2,2) has the same x = 1 value, so only ag-cylindric sees it
    monkeypatch.setattr(catalog, "AG_AUX", dataclasses.replace(catalog.AG_AUX, xcoeffs=(1, 1, 2, 2)))
    assert task_aux_identity(run)[1] is None
    assert task_ag_cylindric(run)[1]["kind"] == "sum-aux"


def _bumped_lin(spec):
    return dataclasses.replace(spec, lin=(spec.lin[0] + 1, *spec.lin[1:]))


def _first_den_dropped(spec):
    return dataclasses.replace(spec, den=spec.den[1:])


@pytest.mark.parametrize("name, perturb, failing", [
    # a certified sum's certificate term is its x^n coefficient, so the certificates prove the replaced sum
    ("AG_G111", _bumped_lin, {"ag-cylindric", "certificates", "recurrences"}),
    ("AG_G300", _bumped_lin, {"ag-cylindric", "certificates", "recurrences"}),
    ("AG_AUX", _bumped_lin, {"ag-cylindric", "aux-identity"}),
    ("AG_D123", _bumped_lin, {"ag-bigraded", "certificates", "recurrences", "chain"}),
    ("AG_D1234", _bumped_lin, {"ag-bigraded", "certificates", "recurrences", "chain"}),
    ("PRODUCT_D123", _first_den_dropped, {"product-d123", "specialized-products"}),
    ("PRODUCT_D1234", _first_den_dropped, {"product-d1234", "specialized-products"}),
    ("PRODUCT_AUX", _first_den_dropped, {"aux-identity"}),
])
def test_every_datum_of_the_identity_table_reaches_the_tasks_that_read_it(monkeypatch, name, perturb, failing):
    # catalog.identities reads the constants at each call, so a replaced one
    # reaches every task that uses it, and fails exactly those tasks
    monkeypatch.setattr(catalog, name, perturb(getattr(catalog, name)))
    reports = verify_all(12, 2)
    assert {r.task: r.status for r in reports if not r.ok} == dict.fromkeys(failing, "fail")


@pytest.mark.parametrize("name, changes, failing", [
    ("g111", {"system": ("2x2", 0)}, {"qdiff-cylindric", "combination-identity"}),
    # uncoupling checks the operator against the replaced system itself, so it passes
    ("d123", {"system": ("5x5", 1)}, {"language-series", "qdiff-colored", "combination-identity"}),
    ("g300", {"families": catalog._families_g111}, {"certificates", "recurrences", "combination-identity"}),
    # the x^n coefficient is the same whichever k is substituted out; only the certificate sees it
    ("d1234", {"eliminate": 0}, {"certificates"}),
    # a survivor: k_1 and k_2 have the same quad2 rows, lin, xcoeffs and bases in these two
    # sums, so either choice gives the same term with its Pochhammer symbols in another order
    ("g111", {"eliminate": 1}, set()),
    ("d123", {"eliminate": 1}, set()),
])
def test_every_field_of_a_certified_row_reaches_the_tasks_that_read_it(monkeypatch, name, changes, failing):
    table = catalog.identities
    monkeypatch.setattr(catalog, "identities", lambda: {**table(), name: table()[name]._replace(**changes)})
    reports = verify_all(12, 2)
    assert {r.task: r.status for r in reports if not r.ok} == dict.fromkeys(failing, "fail")


@pytest.mark.parametrize("name", ["g111", "d123"])
def test_the_surviving_eliminate_swap_only_reorders_the_pochhammer_symbols(name):
    spec = catalog.identities()[name].sum
    first, second = spec.coefficient_term(0), spec.coefficient_term(1)
    assert first != second and first.pochs == (second.pochs[1], second.pochs[0], *second.pochs[2:])
    assert dataclasses.replace(first, pochs=second.pochs) == second


@pytest.mark.parametrize("name", ["aux", "g222"])
def test_a_name_without_a_certificate_is_a_key_error(name):
    with pytest.raises(KeyError):
        catalog.certificate(name)
    with pytest.raises(KeyError):
        catalog.certificate_term(name)


def test_recurrences_build_each_profile_once_and_keep_no_state(monkeypatch):
    def sizes():
        return {name: len(value) for name, value in vars(holonomic).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    built = Counter()
    profile = holonomic._term_profile

    def counted(term, n):
        built[term, n] += 1
        return profile(term, n)

    monkeypatch.setattr(holonomic, "_term_profile", counted)
    before = sizes()
    first = task_recurrences(VerificationRun(qorder=10, nmax=8))
    assert first[1] is None
    # one profile per term and 0 <= n <= 8, shared by the three points
    assert len(built) == 4 * 9 and set(built.values()) == {1}
    second = task_recurrences(VerificationRun(qorder=10, nmax=8))
    assert first == second
    assert sizes() == before


def test_a_run_builds_each_certificate_set_once(monkeypatch):
    built = Counter()
    build = catalog.certificate

    def counted(name, verbatim=False):
        built[name] += 1
        return build(name, verbatim=verbatim)

    monkeypatch.setattr(catalog, "certificate", counted)
    run = VerificationRun(qorder=10, nmax=3)
    assert verification.task_certificates(run)[1] is None
    assert task_recurrences(run)[1] is None
    assert task_combination_identity(run)[1] is None
    assert built == Counter({name: 1 for name in catalog.CERTIFICATE_NAMES})

def test_cylindric_enumeration_is_not_vacuous_at_the_lowest_qorder():
    assert task_cylindric_enumeration(VerificationRun(qorder=10)) == ({"max_size": 9, "profiles": 10}, None)


def test_cylindric_enumeration_reports_the_profiles_it_compared():
    run = VerificationRun(qorder=10)
    run.cw_family = dict(list(run.cw_family.items())[:3])
    assert task_cylindric_enumeration(run) == ({"max_size": 9, "profiles": 3}, None)


def test_verify_all_passes_from_a_copied_package(tmp_path):
    # the golden files travel with the package, not with the source tree
    src = Path(__file__).resolve().parent.parent / "src" / "qpart"
    shutil.copytree(src, tmp_path / "qpart", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run([sys.executable, "-m", "qpart.cli", "verify-all", "--qorder", "10"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
    assert sum(line.startswith("PASS ") for line in out.stderr.splitlines()) == 20


def test_golden_files_are_read_from_a_zipped_package(tmp_path):
    # a package imported from a zip has no directory to open the golden files in
    src = Path(__file__).resolve().parent.parent / "src" / "qpart"
    archive = tmp_path / "qpart.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(src.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, Path("qpart") / path.relative_to(src))
    script = (
        "from qpart import verification as v\n"
        "assert v.__file__.startswith(%r), v.__file__\n"
        "run = v.VerificationRun(10)\n"
        "print(v.task_dfa_table(run)[1], v.task_transfer_matrix(run)[1])\n" % str(archive)
    )
    env = dict(os.environ, PYTHONPATH=str(archive))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["None", "None"]
