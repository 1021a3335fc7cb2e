"""JSON encodings, CLI subcommands, and output determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qpart import automata, catalog, serialize
from qpart.cli import main
from qpart.colored import MINUS, PLUS, to_pairs
from qpart.holonomic import TERM_VARS, verify_certificate

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
    term = catalog.certificate_term("d1234")
    assert serialize.term_from_json(term.to_json()) == term


def test_a_term_file_with_variable_names_still_loads():
    # older term files carry a "names" list, which is ignored
    term = catalog.certificate_term("g111")
    data = {**term.to_json(), "names": ["n", "k1", "k2", "k3"]}
    assert "names" not in term.to_json()
    assert serialize.term_from_json(json.loads(json.dumps(data))) == term


def test_partition_json():
    lam = ((5, PLUS), (3, MINUS), (1, PLUS))
    assert to_pairs(lam) == [["+", 5], ["-", 3], ["+", 1]]


def test_enumerate_counts():
    code, out, _ = run_cli(["enumerate", "--max-size", "7", "--cond", "d1234", "--count-only"])
    assert code == 0
    assert json.loads(out) == {"0": 1, "2": 1, "3": 2, "4": 2, "5": 2, "6": 5, "7": 4}


def test_enumerate_jsonl_stream():
    code, out, _ = run_cli(["enumerate", "--max-size", "2", "--cond", "d123"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [[], [["+", 1]], [["-", 1]], [["+", 2]], [["-", 2]]]


@pytest.mark.parametrize("listed, named", [
    (["enumerate", "--max-size", "12", "--cond", "D1,D2,D3"], ["enumerate", "--max-size", "12", "--cond", "d123"]),
    (["series", "--which", "D1,D2,D3,D4", "--qorder", "12"], ["series", "--which", "d1234", "--qorder", "12"]),
], ids=["enumerate", "series"])
def test_a_listed_condition_set_prints_what_its_class_name_prints(listed, named):
    code, out, err = run_cli(listed)
    assert (code, err) == (0, "") and out
    assert (code, out, err) == run_cli(named)


def test_series_csv_header_contract():
    code, out, _ = run_cli(["series", "--which", "d123", "--qorder", "5", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "x_exp,q_exp,coeff"


def test_dfa_dot_has_six_nodes():
    code, out, _ = run_cli(["dfa", "--format", "dot"])
    assert code == 0
    assert out.count("shape=circle") == 5 and out.count("shape=doublecircle") == 1


def test_dfa_emit_words_prints_the_bundled_words_that_build_the_same_dfa(tmp_path):
    code, out, err = run_cli(["dfa", "--emit-words"])
    assert (code, err) == (0, "") and len(automata.FORBIDDEN_WORDS) == 48
    assert out == "\n".join(automata.FORBIDDEN_WORDS) + "\n"
    words = tmp_path / "words.txt"
    words.write_text(out)
    for fmt in ([], ["--format", "dot"]):
        assert run_cli(["dfa", "--words", str(words), *fmt]) == run_cli(["dfa", *fmt]), fmt


def test_system_matches_golden():
    code, out, _ = run_cli(["system"])
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


def test_certify_fails_a_recurrence_check_at_n_0_alone():
    # p_0(q, 1) = 0, so n = 0 determines no f_n: vacuous, as in verify-all --nmax 0
    code, out, err = run_cli(["certify", "--name", "g111", "--recurrence-check", "0"])
    assert (code, err) == (1, "")
    assert out == ('{"recurrence_nmax":0,"recurrence_ok":false,"recurrence_points":["2","3","7/5"],'
                   '"residual_terms":0,"verified":true}\n')


def test_uncouple_builtin_deterministic():
    code1, out1, _ = run_cli(["uncouple", "--system", "builtin-2x2", "--component", "0"])
    code2, out2, _ = run_cli(["uncouple", "--system", "builtin-2x2", "--component", "0"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_uncouple_from_file(tmp_path):
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({
        "step": 3,
        "matrix": [[e.to_json() for e in row] for row in catalog.coupled_g_system()],
    }))
    for component in ("0", "1"):
        builtin = run_cli(["uncouple", "--system", "builtin-2x2", "--component", component])
        assert builtin[0] == 0
        assert run_cli(["uncouple", "--system", str(sysfile), "--component", component]) == builtin
    # what ``qpart system`` writes, read back: its block width is the "shift" key
    code, text, _ = run_cli(["system"])
    assert code == 0 and '"shift":3' in text
    sysfile.write_text(text)
    builtin = run_cli(["uncouple", "--system", "builtin-5x5", "--component", "1"])
    assert builtin[0] == 0
    assert run_cli(["uncouple", "--system", str(sysfile), "--component", "1"]) == builtin


def test_a_system_file_gives_its_step_as_step_or_shift(tmp_path):
    # F(x) = F(xq) / (1 - xq): with shift 1, not the default step 3
    one = {"vars": ["x", "q"], "terms": [[[0, 0], "1"]]}
    matrix = [[{"num": one, "den": {"vars": ["x", "q"], "terms": [[[0, 0], "1"], [[1, 1], "-1"]]}}]]
    sysfile = tmp_path / "system.json"
    outputs = []
    for keys in ({"shift": 1}, {"step": 1}, {"step": 1, "shift": 1}):
        sysfile.write_text(json.dumps({**keys, "matrix": matrix}))
        code, out, err = run_cli(["uncouple", "--system", str(sysfile), "--component", "0"])
        assert (code, err) == (0, "") and json.loads(out)["step"] == 1, keys
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


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
        ["series", "--which", "d1234", "--qorder", "9", "--format", "csv"],
    ):
        _, a, _ = run_cli(argv)
        _, b, _ = run_cli(argv)
        assert a == b and a.endswith("\n")


def test_verify_all_rejects_low_qorder():
    code, _, _ = run_cli(["verify-all", "--qorder", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["cylindric", "--profile", "0,0,0"],
    ["series", "--which", "d123", "--qorder", "0"],
    ["enumerate", "--max-size", "5", "--cond", "D9"],
    ["verify-all", "--qorder", "10", "--nmax", "-1"],
    ["verify-all", "--qorder", "9"],
    ["certify", "--name", "g111", "--recurrence-check", "-3"],
    # the file arguments below are checked before any file is read
    ["celine", "--term", "term.json", "--order", "3", "--support", "printed"],
    ["certify"],
    ["celine", "--order", "3"],
    ["certify", "--term", "term.json"],
    ["certify", "--name", "g111", "--term", "term.json", "--cert", "cert.json"],
    ["celine", "--name", "g111", "--term", "term.json", "--order", "3"],
    ["cylindric", "--profile", "1,1,1", "--qorder", "5", "--enumerate"],
    ["cylindric", "--profile", "1,1,1", "--enumerate", "--stat", "F", "--qorder", "0"],
    # --emit-words prints the bundled list, so it reads no words file and has one format
    ["dfa", "--emit-words", "--words", "words.txt"],
    ["dfa", "--emit-words", "--format", "dot"],
    # an empty degree range or a negative shift box would decide a vacuous box
    ["celine", "--name", "g111", "--order", "3", "--deg", "-1"],
    ["celine", "--name", "g111", "--order", "3", "--qdeg", "-1"],
    ["celine", "--name", "g111", "--order", "3", "--kbox", "-1"],
    # the box flags do not apply to the printed support
    ["celine", "--name", "g111", "--order", "3", "--support", "printed", "--deg", "3"],
    ["celine", "--name", "g111", "--order", "3", "--support", "printed", "--qdeg", "3"],
    ["celine", "--name", "g111", "--order", "3", "--support", "printed", "--kbox", "-1"],
    # an input file that is not there, or an output directory that is not there
    ["uncouple", "--system", "missing/system.json"],
    ["certify", "--term", "missing/term.json", "--cert", "missing/cert.json"],
    ["celine", "--term", "missing/term.json", "--order", "3"],
    ["dfa", "--words", "missing/words.txt"],
    ["dfa", "--emit-words", "--out", "missing/words.txt"],
    # a report that cannot be written is refused before verify-all runs its battery
    ["verify-all", "--qorder", "10", "--report", "missing/r.json"],
    # an empty path names no file, not the bundled words or stdout; it is
    # refused before verify-all runs its battery
    ["dfa", "--words", ""],
    ["dfa", "--out", ""],
    ["verify-all", "--report", ""],
    # the printed g111 set has no verbatim reading to build
    ["certify", "--name", "g111", "--verbatim"],
    # usage errors: a missing or malformed flag, an unknown or missing subcommand
    ["enumerate"],
    ["series", "--which", "d123", "--qorder", "x"],
    ["series", "--which", "d123", "--format", "dot"],
    ["nonsense"],
    [],
    ["cylindric", "--profile", "-1,4,0"],
    # each output has one command, and json is already cylindric's default --format
    ["emit", "--target", "d123-series", "--format", "csv"],
    ["cylindric", "--profile", "3,0,0", "--json"],
], ids=["zero-profile", "series-qorder-0", "unknown-condition", "verify-all-nmax-negative", "verify-all-qorder-9",
        "certify-recurrence-check-negative", "celine-term-with-printed-support", "certify-no-term",
        "celine-no-term", "certify-term-without-cert", "certify-name-and-term", "celine-name-and-term",
        "cylindric-enumerate-without-stat-f", "cylindric-enumerate-qorder-0",
        "dfa-emit-words-with-words", "dfa-emit-words-with-format",
        "celine-empty-u-range", "celine-empty-q-range", "celine-negative-kbox",
        "celine-printed-with-deg", "celine-printed-with-qdeg", "celine-printed-with-kbox",
        "uncouple-missing-system", "certify-missing-term", "celine-missing-term", "dfa-missing-words",
        "out-into-missing-directory", "verify-all-report-into-missing-directory", "dfa-empty-words-path", "dfa-empty-out-path", "verify-all-empty-report-path",
        "certify-g111-verbatim",
        "enumerate-without-max-size", "series-qorder-not-an-integer", "series-as-dot", "unknown-subcommand",
        "no-subcommand", "cylindric-profile-read-as-a-flag", "emit-is-no-subcommand", "cylindric-json-is-no-flag"])
def test_bad_input_is_a_one_line_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("qpart: error: ") and err.count("\n") == 1
    if argv == ["cylindric", "--profile", "-1,4,0"]:
        # the comma list is read as the flag's value, not as a flag, so the error is the profile's
        assert err == "qpart: error: profile entries must be nonnegative\n"


@pytest.mark.parametrize("profile", ["a,b", ",,,"])
def test_a_profile_that_is_not_integers_is_a_one_line_error_naming_the_flag(profile):
    code, out, err = run_cli(["cylindric", "--profile", profile])
    assert code == 2 and out == ""
    assert err.startswith("qpart: error: ") and err.count("\n") == 1
    assert "--profile" in err and "3,0,0" in err


@pytest.mark.parametrize("argv", [["--help"], ["cylindric", "--help"]])
def test_help_still_prints_usage_and_exits_0(argv):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0 and out.getvalue().startswith("usage: qpart")


def test_a_malformed_input_file_is_a_one_line_error_naming_it(tmp_path):
    term, bad = tmp_path / "term.json", tmp_path / "bad.json"
    term.write_text(json.dumps(catalog.certificate_term("g111").to_json()))
    one, zero = {"vars": ["x", "q"], "terms": [[[0, 0], "1"]]}, {"vars": ["x", "q"], "terms": []}
    short_shift = serialize.certificate_to_json(catalog.certificate("g111"))
    short_shift["families"]["q"][1][0][0] = [0, 0, 0]
    unknown_family = serialize.certificate_to_json(catalog.certificate("g111"))
    unknown_family["families"]["t"] = unknown_family["families"].pop("s")
    # the shift algebra has K1..K3 only, so at most three summation variables
    four_sums = {"nsum": 4, "quad2": [[0] * 5] * 5, "lin": [0] * 5, "const": 0, "pochs": []}
    # a coefficient over (x, y, z, w, t), not (q, u, v1, v2, v3)
    other_vars = serialize.certificate_to_json(catalog.certificate("g111"))
    other_vars["families"]["q"][1][0][1]["vars"] = ["x", "y", "z", "w", "t"]
    # an exponent vector or a shift listed twice: which coefficient was meant is unclear
    twice = {"vars": ["x", "q"], "terms": [[[1, 0], "2"], [[1, 0], "3"]]}
    repeated_cert = serialize.certificate_to_json(catalog.certificate("g111"))
    first = repeated_cert["families"]["q"][1][0][1]["terms"]
    first.append(first[0])
    g111 = serialize.certificate_to_json(catalog.certificate("g111"))
    repeated_shift = serialize.certificate_to_json(catalog.certificate("g111"))
    op = repeated_shift["families"]["q"][1]
    op.append([op[0][0], {"vars": list(TERM_VARS), "terms": [[[0, 0, 0, 0, 0], "1"]]}])

    def p_cert(*coeffs, shift=(0, 0, 0, 0)):
        # sum_j c_j N^j, the last term's shift replaced by ``shift``
        ops = [[[[0, 0, 0, 0], {"vars": list(TERM_VARS), "terms": [[[0] * 5, c]]}]] for c in coeffs]
        ops[-1][0][0] = list(shift)
        return {"order": len(coeffs) - 1, "families": {"p": ops}}

    def coeff(*terms):
        return {"vars": list(TERM_VARS), "terms": [[list(e), c] for e, c in terms]}

    # an order-0 p family over v1, and one that shifts k1: neither is a recurrence in n
    v1_diff = coeff(([-1, 0, 1, 0, 0], "1"), ([0, 0, 1, 0, 0], "-1"))
    p_over_v1 = {"order": 0, "families": {"p": [[[[0, 0, 0, 0], v1_diff]]],
                                          "q": [[[[0, 0, 0, 0], coeff(([0, 0, 1, 0, 0], "1"))]]]}}
    p_shifts = {"order": 0, "families": {"p": [[[[0, 1, 0, 0], coeff(([0] * 5, "1"))],
                                                 [[0, 0, 0, 0], coeff(([0] * 5, "-1"))]]]}}
    t0 = tmp_path / "t0.json"
    t0.write_text(json.dumps({"nsum": 1, "quad2": [[0, 0], [0, 0]], "lin": [0, 0], "const": 0, "pochs": []}))
    # the constant term 1, proved by f_n = f_(n-1), and a certificate proving f_(n-1) = 0
    const, diff, back = tmp_path / "const.json", tmp_path / "diff.json", tmp_path / "back.json"
    const_term = {"nsum": 0, "quad2": [[0]], "lin": [0], "const": 0, "pochs": []}
    const.write_text(json.dumps(const_term))
    diff.write_text(json.dumps(p_cert("1", "-1")))
    back.write_text(json.dumps(p_cert("0", "1")))
    for text, argv in [
        ("{}", ["uncouple", "--system", bad]),
        ("[1, 2]", ["uncouple", "--system", bad]),
        ("not json", ["uncouple", "--system", bad]),
        (json.dumps({"matrix": [[{"num": one, "den": zero}]]}), ["uncouple", "--system", bad]),
        # a row longer than the matrix, and a matrix with no row
        (json.dumps({"matrix": [[one, one]]}), ["uncouple", "--system", bad]),
        (json.dumps({"matrix": []}), ["uncouple", "--system", bad]),
        ("{}", ["certify", "--term", bad, "--cert", term]),
        ("{}", ["celine", "--term", bad, "--order", "3"]),
        (json.dumps(four_sums), ["celine", "--term", bad, "--order", "1"]),
        ("{}", ["certify", "--term", term, "--cert", bad]),
        (json.dumps(short_shift), ["certify", "--term", term, "--cert", bad]),
        (json.dumps(unknown_family), ["certify", "--term", term, "--cert", bad]),
        (json.dumps(other_vars), ["certify", "--term", term, "--cert", bad]),
        (json.dumps({"matrix": [[twice]]}), ["uncouple", "--system", bad]),
        (json.dumps({"matrix": [[{"num": one, "den": twice}]]}), ["uncouple", "--system", bad]),
        # vars as the string "xq", once read as its letters x and q
        (json.dumps({"matrix": [[{"vars": "xq", "terms": [[[0, 0], "1"]]}]]}), ["uncouple", "--system", bad]),
        # a system over (x, y), not (x, q), and systems whose step is not a positive integer
        (json.dumps({"matrix": [[{"vars": ["x", "y"], "terms": [[[0, 0], "1"]]}]]}), ["uncouple", "--system", bad]),
        (json.dumps({"matrix": [[{"num": one, "den": {"vars": ["x", "y"], "terms": [[[0, 0], "1"]]}}]]}),
         ["uncouple", "--system", bad]),
        (json.dumps({"step": 0, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        (json.dumps({"step": -3, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        (json.dumps({"step": 2.5, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        # "shift", as ``qpart system`` writes it, passes the same checks, and may not contradict "step"
        (json.dumps({"shift": 0, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        (json.dumps({"shift": 2.5, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        (json.dumps({"shift": True, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        (json.dumps({"step": 3, "shift": 1, "matrix": [[one]]}), ["uncouple", "--system", bad]),
        (json.dumps(repeated_cert), ["certify", "--term", term, "--cert", bad]),
        (json.dumps(repeated_shift), ["certify", "--term", term, "--cert", bad]),
        # no p family: the certificate states no recurrence
        (json.dumps({"order": 0, "families": {}}), ["certify", "--term", term, "--cert", bad]),
        (json.dumps({"order": 0, "families": {}}),
         ["certify", "--term", term, "--cert", bad, "--recurrence-check", "5"]),
        (json.dumps(p_over_v1), ["certify", "--term", t0, "--cert", bad]),
        (json.dumps(p_shifts), ["certify", "--term", t0, "--cert", bad]),
        (json.dumps(p_shifts), ["certify", "--term", t0, "--cert", bad, "--recurrence-check", "3"]),
        # integers that are not JSON integers, each once read by truncation
        (json.dumps({**p_cert("1", "-1"), "order": 1.7}), ["certify", "--term", const, "--cert", bad]),
        (json.dumps({**p_cert("1", "-1"), "order": "1"}), ["certify", "--term", const, "--cert", bad]),
        # g111's order is 3, one less than its four p entries
        (json.dumps({**g111, "order": 7}), ["certify", "--term", term, "--cert", bad, "--recurrence-check", "3"]),
        (json.dumps({**g111, "order": -3}), ["certify", "--term", term, "--cert", bad, "--recurrence-check", "3"]),
        (json.dumps(p_cert(1.9, "-1")), ["certify", "--term", const, "--cert", bad]),
        (json.dumps(p_cert("1", "-1", shift=(0.5, 0, 0, 0))), ["certify", "--term", const, "--cert", bad]),
        (json.dumps({"matrix": [[{"vars": ["x", "q"], "terms": [[[1.5, 0], "1"]]}]]}), ["uncouple", "--system", bad]),
        (json.dumps({**const_term, "quad2": [[0.9]]}), ["certify", "--term", bad, "--cert", diff]),
        # a Pochhammer base below 1: (q^0; q^0)_n is 0, and (q^-1; q^-1)_n is not a polynomial in q
        (json.dumps({**const_term, "pochs": [[[1], 0, 0]]}), ["certify", "--term", bad, "--cert", back]),
        (json.dumps({**const_term, "pochs": [[[1], 0, 0]]}),
         ["certify", "--term", bad, "--cert", back, "--recurrence-check", "3"]),
        (json.dumps({**const_term, "pochs": [[[1], 0, -1]]}),
         ["certify", "--term", bad, "--cert", back, "--recurrence-check", "3"]),
        # a words file with a letter outside the alphabet, and one with no word
        ("fb\nz\n", ["dfa", "--words", bad]),
        ("", ["dfa", "--words", bad]),
    ]:
        bad.write_text(text)
        code, out, err = run_cli([str(a) for a in argv])
        assert code == 2 and out == "", (text, argv)
        assert err.startswith(f"qpart: error: {bad}: ") and err.count("\n") == 1, (text, argv, err)


def test_a_zero_certificate_fails_certify(tmp_path):
    term, zero = tmp_path / "term.json", tmp_path / "zero.json"
    term.write_text(json.dumps({"nsum": 0, "quad2": [[0]], "lin": [0], "const": 0, "pochs": []}))
    zero.write_text(json.dumps({"order": 1, "families": {"p": [[], []]}}))
    for extra in ([], ["--recurrence-check", "5"]):
        code, out, err = run_cli(["certify", "--term", str(term), "--cert", str(zero), *extra])
        assert (code, out, err) == (1, '{"residual_terms":0,"verified":false}\n', ""), extra


def test_certify_fails_a_recurrence_whose_p0_vanishes(tmp_path):
    # f_n = 1/(q;q)_n satisfies (1 - u) f_n = f_(n-1); shifted once, that
    # recurrence verifies but its p_0 is zero, so it determines no f_n
    term, cert = tmp_path / "tp.json", tmp_path / "cert.json"
    term.write_text(json.dumps({"nsum": 0, "quad2": [[0]], "lin": [0], "const": 0, "pochs": [[[1], 0, 1]]}))
    p = [[], [[[0, 0, 0, 0], {"vars": list(TERM_VARS), "terms": [[[0] * 5, "1"], [[-1, 1, 0, 0, 0], "-1"]]}]],
         [[[0, 0, 0, 0], {"vars": list(TERM_VARS), "terms": [[[0] * 5, "-1"]]}]]]
    cert.write_text(json.dumps({"order": 2, "families": {"p": p}}))
    code, out, err = run_cli(["certify", "--term", str(term), "--cert", str(cert), "--recurrence-check", "5"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"verified": True, "residual_terms": 0, "recurrence_nmax": 5,
                               "recurrence_points": ["2", "3", "7/5"], "recurrence_ok": False}


def test_fail_reports_carry_witnesses():
    from qpart.series import QSeries
    from qpart.verification import RunReport, _witness
    from qpart.series import BiSeries

    a = BiSeries(6, {0: QSeries(6, [1, 2, 3])})
    b = BiSeries(6, {0: QSeries(6, [1, 2, 4])})
    w = _witness("probe", a, b)
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
