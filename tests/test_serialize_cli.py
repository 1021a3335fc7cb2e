"""JSON encodings, CLI subcommands, and output determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qpart import catalog, serialize
from qpart.cli import main
from qpart.holonomic import HypTerm, QDiffOperator, verify_certificate

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "qpart" / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_certificate_json_round_trip():
    cert = catalog.certificate("g300")
    data = serialize.certificate_to_json(cert)
    back = serialize.certificate_from_json(json.loads(json.dumps(data)))
    assert verify_certificate(catalog.certificate_term("g300"), back).ok


def test_hypterm_json_round_trip():
    term = catalog.TERM_D1234
    assert HypTerm.from_json(term.to_json()) == term


def test_partition_json():
    lam = serialize.partition_from_json([["+", 5], ["-", 3], ["+", 1]])
    assert serialize.partition_to_json(lam) == [["+", 5], ["-", 3], ["+", 1]]


def test_enumerate_counts():
    code, out, _ = run_cli(["enumerate", "--max-size", "7", "--cond", "d1234", "--count-only"])
    assert code == 0
    assert json.loads(out) == {"0": 1, "2": 1, "3": 2, "4": 2, "5": 2, "6": 5, "7": 4}


def test_enumerate_jsonl_stream():
    code, out, _ = run_cli(["enumerate", "--max-size", "2", "--cond", "d123"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [[], [["+", 1]], [["-", 1]], [["+", 2]], [["-", 2]]]


def test_series_csv_header_contract():
    code, out, _ = run_cli(["series", "--which", "d123", "--qorder", "5", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "x_exp,q_exp,coeff"


def test_emit_dfa_dot_has_six_nodes():
    code, out, _ = run_cli(["emit", "--target", "dfa", "--format", "dot"])
    assert code == 0
    assert out.count("shape=circle") == 5 and out.count("shape=doublecircle") == 1


def test_emit_transfer_matrix_matches_golden():
    code, out, _ = run_cli(["emit", "--target", "transfer-matrix", "--format", "json"])
    assert code == 0
    golden = json.loads((GOLDEN / "transfer_matrix.json").read_text())
    got = json.loads(out)
    assert got["matrix"] == golden["matrix"]


def test_certify_bundled_and_exit_codes():
    code, out, _ = run_cli(["certify", "--name", "d1234"])
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, _ = run_cli(["certify", "--name", "d1234", "--verbatim"])
    assert code == 1 and json.loads(out)["verified"] is False


def test_certify_from_files(tmp_path):
    term_file = tmp_path / "term.json"
    cert_file = tmp_path / "cert.json"
    term_file.write_text(json.dumps(catalog.certificate_term("g111").to_json()))
    cert_file.write_text(json.dumps(serialize.certificate_to_json(catalog.certificate("g111"))))
    code, out, _ = run_cli(["certify", "--term", str(term_file), "--cert", str(cert_file)])
    assert code == 0 and json.loads(out)["verified"] is True


def test_certify_checks_the_recurrence_at_the_battery_points():
    code, out, _ = run_cli(["certify", "--name", "g111", "--recurrence-check", "6"])
    report = json.loads(out)
    assert code == 0 and report["recurrence_ok"] is True
    assert report["recurrence_points"] == ["2", "3", "7/5"]


def test_uncouple_builtin_deterministic():
    code1, out1, _ = run_cli(["uncouple", "--system", "builtin-2x2", "--component", "0"])
    code2, out2, _ = run_cli(["uncouple", "--system", "builtin-2x2", "--component", "0"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_uncouple_from_file(tmp_path):
    sysfile = tmp_path / "system.json"
    mat = catalog.coupled_g_system()
    sysfile.write_text(json.dumps({
        "step": 3,
        "matrix": [[e.to_json() for e in row] for row in mat],
    }))
    code, out, _ = run_cli(["uncouple", "--system", str(sysfile), "--component", "1"])
    assert code == 0
    op = QDiffOperator.from_json(json.loads(out))
    assert max(s for _, s in op.terms) >= 1


def test_celine_cli_small():
    code, out, _ = run_cli(["celine", "--name", "g111", "--order", "3", "--support", "printed"])
    assert code == 0 and json.loads(out)["found"] is True


def test_cylindric_cli_matches_enumeration():
    code1, out1, _ = run_cli(["cylindric", "--profile", "1,1,1", "--qorder", "9",
                              "--stat", "F", "--enumerate", "--format", "csv"])
    code2, out2, _ = run_cli(["cylindric", "--profile", "1,1,1", "--qorder", "9",
                              "--stat", "F", "--format", "csv"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_identical_outputs():
    for argv in (
        ["series", "--which", "d1234", "--qorder", "12"],
        ["dfa"],
        ["system"],
        ["emit", "--target", "d123-series", "--qorder", "8", "--format", "csv"],
    ):
        _, a, _ = run_cli(argv)
        _, b, _ = run_cli(argv)
        assert a == b and a.endswith("\n")


def test_verify_all_rejects_low_qorder():
    code, _, _ = run_cli(["verify-all", "--qorder", "0"])
    assert code == 2


def test_emit_unknown_target_is_an_error():
    code, _, err = run_cli(["emit", "--target", "nonsense"])
    assert code == 2 and "unknown target" in err


@pytest.mark.parametrize("argv", [
    ["cylindric", "--profile", "0,0,0"],
    ["series", "--which", "d123", "--qorder", "0"],
    ["enumerate", "--max-size", "5", "--cond", "D9"],
    ["verify-all", "--qorder", "10", "--nmax", "-1"],
    ["certify", "--name", "g111", "--recurrence-check", "-3"],
    # the file arguments below are checked before any file is read
    ["celine", "--term", "term.json", "--order", "3", "--support", "printed"],
    ["certify"],
    ["celine", "--order", "3"],
    ["certify", "--term", "term.json"],
    ["certify", "--name", "g111", "--term", "term.json", "--cert", "cert.json"],
    ["celine", "--name", "g111", "--term", "term.json", "--order", "3"],
    ["cylindric", "--profile", "1,1,1", "--qorder", "5", "--enumerate"],
    ["emit", "--target", "d123-series", "--format", "dot"],
    ["emit", "--target", "dfa", "--format", "csv"],
], ids=["zero-profile", "series-qorder-0", "unknown-condition", "verify-all-nmax-negative",
        "certify-recurrence-check-negative", "celine-term-with-printed-support", "certify-no-term",
        "celine-no-term", "certify-term-without-cert", "certify-name-and-term", "celine-name-and-term",
        "cylindric-enumerate-without-stat-f", "emit-series-as-dot", "emit-dfa-as-csv"])
def test_bad_input_is_a_one_line_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("qpart: error: ") and err.count("\n") == 1


def test_fail_reports_carry_witnesses():
    from qpart.series import QSeries
    from qpart.verification import RunReport, _series_witness
    from qpart.series import BiSeries

    a = BiSeries(6, {0: QSeries(6, [1, 2, 3])})
    b = BiSeries(6, {0: QSeries(6, [1, 2, 4])})
    w = _series_witness("probe", a, b)
    assert w == {"kind": "probe", "x_exp": 0, "q_exp": 2, "lhs": "3", "rhs": "4"}
    r = RunReport(task="t", status="fail", inputs={}, witness=w)
    assert not r.ok and r.to_json()["witness"]["q_exp"] == 2


def test_certificate_json_writes_skew_product_mode():
    data = serialize.certificate_to_json(catalog.certificate("g111"))
    assert data["product_mode"] == "skew"


def test_certificate_json_rejects_other_product_modes(tmp_path):
    data = serialize.certificate_to_json(catalog.certificate("g111"))
    data["product_mode"] = "marker"
    with pytest.raises(ValueError, match="product_mode"):
        serialize.certificate_from_json(data)
    term_file = tmp_path / "term.json"
    cert_file = tmp_path / "cert.json"
    term_file.write_text(json.dumps(catalog.certificate_term("g111").to_json()))
    cert_file.write_text(json.dumps(data))
    code, out, err = run_cli(["certify", "--term", str(term_file), "--cert", str(cert_file)])
    assert code == 2 and out == ""
    assert err.startswith("qpart: error: ") and err.count("\n") == 1
