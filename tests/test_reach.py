"""What the package's entry points and routes reach.

Every function and method of ``src/qpart`` runs from some entry point, or is
on the allow-list with its reason.  The entry points are those a user or CI
reaches: the CLI subcommands with each flag value CI gives them (at small
settings) and one usage error, the ``highorder`` and ``algebra`` checks of
``benchmarks/workloads.py``, and the demos.  They run in a fresh interpreter
whose profiler is set before ``import qpart``, so calls made at import time
count.  A member that only tests reach is deleted, not listed.

Each route of the verifier reaches only the modules its row names, and only
the automaton and the recursion share the shift-system solver.
"""

import ast
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from qpart import catalog
from qpart.automata import build_avoidance_dfa, derive_transfer_system, solve_language_series
from qpart.colored import COND_D123, enumerate_2colored, gen_fun
from qpart.cylindric import enumerate_cylindric, g_to_f, solve_cw_family
from qpart.holonomic import evaluate_ag_sum
from qpart.series import pochhammer_expand

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpart"

_RATIONAL = "the class goes whole, with catalog.pprime_family, once the algebra workload no longer uses it"

#: the members no entry point runs, each with the reason it stays
ALLOWED = {
    "laurent.LaurentPoly.__eq__": "tests compare LaurentPolys",
    "series.QSeries.__repr__": "pytest prints a QSeries when a comparison fails",
    "series.BiSeries.__repr__": "pytest prints a BiSeries when a comparison fails",
    "holonomic.ShiftOp.__eq__": "CertificateSet's dataclass equality compares ShiftOps",
    "holonomic.ShiftOp.__repr__": "pytest prints a ShiftOp when a comparison fails",
    "series.QSeries.valuation": "only a failing qdiff task's witness reads it",
    "holonomic.HypTerm.to_json": "README names it as the format of --term files",
    "laurent.RationalFunction.__neg__": _RATIONAL,
    "laurent.RationalFunction.__rsub__": _RATIONAL,
    "laurent.RationalFunction.__eq__": _RATIONAL,
    "laurent.RationalFunction.__repr__": _RATIONAL,
}

CHILD = r'''
import sys

reached = set()


def _profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(_profile)

import io, json, runpy
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import qpart
from qpart import cli

root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
one = '{"vars":["x","q"],"terms":[[[0,0],"1"]]}'
zero = '{"vars":["x","q"],"terms":[]}'
den = '{"vars":["x","q"],"terms":[[[0,0],"1"],[[1,1],"-1"]]}'
files = {
    "words.txt": "fb\nabc\nc\nbca\ndd\nmlk\n",
    # F0 = F1(xq) / (1 - xq), F1 = F0(xq), with one {"num", "den"} entry
    "step1.json": f'{{"step":1,"matrix":[[{zero},{{"num":{one},"den":{den}}}],[{one},{zero}]]}}',
    # f_n = 1/(q;q)_n and (1 - u) f_n = f_(n-1) shifted once, whose p_0 is zero
    "term.json": '{"nsum":0,"quad2":[[0]],"lin":[0],"const":0,"pochs":[[[1],0,1]]}',
    "cert.json": '{"order":2,"families":{"p":[[],[[[0,0,0,0],%s]],[[[0,0,0,0],%s]]]}}' % (
        '{"vars":["q","u","v1","v2","v3"],"terms":[[[0,0,0,0,0],"1"],[[-1,1,0,0,0],"-1"]]}',
        '{"vars":["q","u","v1","v2","v3"],"terms":[[[0,0,0,0,0],"-1"]]}'),
}
for name, text in files.items():
    (tmp / name).write_text(text)
t = str(tmp)
CLI = [
    # a vacuous recurrence check: the battery runs and recurrences fails with a witness
    ["verify-all", "--qorder", "10", "--nmax", "0", "--report", f"{t}/report.json"],
    ["verify-all", "--qorder", "10", "--report", f"{t}/missing/report.json"],
    ["verify-all", "--qorder", "9"],
    ["verify-all", "--no-such-flag"],  # a usage error, raised by cli._Parser.error
    ["enumerate", "--max-size", "8", "--cond", "d123"],
    ["enumerate", "--max-size", "8", "--cond", "d1234", "--count-only"],
    ["series", "--which", "d1234", "--qorder", "10"],
    ["series", "--which", "d123", "--qorder", "10", "--format", "csv"],
    ["series", "--which", "d1234", "--qorder", "10", "--x", "eval", "--format", "csv"],
    ["cylindric", "--profile", "3,0,0", "--qorder", "10"],
    ["cylindric", "--profile", "3,0,0", "--qorder", "10", "--stat", "G", "--x", "eval"],
    ["cylindric", "--profile", "1,1,1", "--qorder", "10", "--stat", "F"],
    ["cylindric", "--profile", "2,1,0", "--qorder", "10", "--stat", "F", "--enumerate"],
    ["cylindric", "--profile", "-1,4,0"],
    ["dfa"],
    ["dfa", "--format", "dot"],
    ["dfa", "--emit-words"],
    ["dfa", "--words", f"{t}/words.txt"],
    ["dfa", "--words", f"{t}/words.txt", "--format", "dot"],
    ["dfa", "--emit-words", "--words", f"{t}/words.txt"],
    ["system", "--out", f"{t}/system.json"],
    ["uncouple", "--system", "builtin-2x2", "--component", "0"],
    ["uncouple", "--system", "builtin-5x5", "--component", "1"],
    ["uncouple", "--system", f"{t}/system.json", "--component", "1"],
    ["uncouple", "--system", f"{t}/step1.json", "--component", "0"],
    ["uncouple", "--system", f"{t}/missing.json"],
    ["certify", "--name", "g111"],
    ["certify", "--name", "g111", "--recurrence-check", "3"],
    ["certify", "--name", "g111", "--verbatim"],
    ["certify", "--term", f"{t}/term.json", "--cert", f"{t}/cert.json", "--recurrence-check", "5"],
    ["celine", "--name", "g111", "--order", "3", "--support", "printed"],
    ["celine", "--name", "g111", "--order", "3"],
]
sink = io.StringIO()
with redirect_stdout(sink), redirect_stderr(sink):
    for argv in CLI:
        cli.main(argv)

    sys.path.insert(0, str(root / "benchmarks"))
    import workloads

    class HighOrder(workloads.HighOrder):
        Q, LISTED = 20, 10

    for workload in (HighOrder, workloads.Algebra):
        for name, check in workload().checks():
            assert check()[0], name

    for demo in sorted((root / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

sys.setprofile(None)
print(json.dumps(sorted(reached)))
'''


def defined_members() -> dict[tuple[str, int], str]:
    """(file name, first line) -> qualified name of each function and method in
    src/qpart; a decorated function's code starts at its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[(path.name, line)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def test_every_member_runs_from_an_entry_point_or_is_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(tmp_path)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    reached = {(Path(f).name, line) for f, line in json.loads(out.stdout) if Path(f).parent == SRC}
    members = defined_members()
    gone = sorted(set(ALLOWED) - set(members.values()))
    assert not gone, f"ALLOWED names members that no longer exist: {gone}"
    unreached = {name for key, name in members.items() if key not in reached}
    unused = sorted(unreached - set(ALLOWED))
    assert not unused, f"no entry point runs these; delete them: {unused}"
    used = sorted(set(ALLOWED) - unreached)
    assert not used, f"an entry point runs these; drop them from ALLOWED: {used}"


@cache
def transfer_system():
    return derive_transfer_system(build_avoidance_dfa())


#: per route: its entry point, the qpart modules it reaches, and whether it runs solve_shift_system
ROUTES = {
    "enumeration": (lambda: gen_fun(enumerate_2colored(11, COND_D123), 12), {"colored", "series"}, False),
    "automaton": (lambda: solve_language_series(transfer_system(), 12),
                  {"automata", "holonomic", "laurent", "series"}, True),
    "recursion": (lambda: g_to_f(solve_cw_family((3, 0, 0), 12)[(3, 0, 0)]),
                  {"cylindric", "holonomic", "laurent", "series"}, True),
    "layer-count": (lambda: enumerate_cylindric((2, 1, 0), 8), {"cylindric", "series"}, False),
    "sum": (lambda: evaluate_ag_sum(catalog.AG_D123, 12), {"holonomic", "series"}, False),
    "product": (lambda: pochhammer_expand(catalog.PRODUCT_D123, 12), {"series"}, False),
}


@pytest.mark.parametrize("run, modules, solver", ROUTES.values(), ids=ROUTES.keys())
def test_each_route_reaches_only_its_own_modules(run, modules, solver):
    transfer_system()  # the DFA and its system are built outside the trace
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_globals.get("__name__") or "", frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    assert {m.removeprefix("qpart.") for m, _ in calls if m.startswith("qpart.")} == modules
    assert (("qpart.holonomic", "solve_shift_system") in calls) == solver
