"""Batch command-line front-end.

Subcommands: enumerate | series | dfa | system | cylindric | certify |
celine | uncouple | verify-all, one per output.  All input and output goes
through files or stdout; outputs are deterministic (sorted keys, decimal-string
coefficients) so identical flags produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable

from . import automata, catalog, serialize
from .automata import build_avoidance_dfa, derive_transfer_system
from .celine import celine_solve, default_support, support_of
from .colored import enumerate_2colored, gen_fun, size, to_pairs
from .cylindric import enumerate_cylindric, g_to_f, solve_cw_family
from .holonomic import (
    HypTerm,
    first_recurrence_failure,
    recurrence_from_certificate,
    uncouple_system,
    verify_certificate,
)
from .series import BiSeries
from .verification import RECURRENCE_POINTS, verify_all

#: the box of a bounds search when its flags are not given
BOX_DEFAULTS = {"--deg": 3, "--qdeg": 3, "--kbox": 1}


def _path(text: str) -> str:
    """A file flag's value; an empty one names no file (and never stdout)."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _write(text: str, out: str | None) -> None:
    if out is not None:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_input(path: str, parse, load=json.loads):
    """``parse`` of ``load`` of the text of the file at ``path`` (JSON by default);
    input it cannot parse is a ValueError naming the file."""
    text = Path(path).read_text()
    try:
        return parse(load(text))
    except (ValueError, ZeroDivisionError, KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: malformed input ({type(exc).__name__}: {exc})") from exc


def _parse_conds(raw: str) -> Iterable[str]:
    raw = raw.strip().lower()
    if (entry := catalog.identities().get(raw)) and entry.conds:
        return entry.conds
    return tuple(p.strip().upper() for p in raw.split(",") if p.strip())


def cmd_enumerate(args) -> int:
    conds = _parse_conds(args.cond)
    partitions = enumerate_2colored(args.max_size, conds)
    if args.count_only:
        counts = Counter(map(size, partitions))
        _write(serialize.dumps({str(k): v for k, v in sorted(counts.items())}), args.out)
    else:
        lines = [serialize.dumps(to_pairs(lam)).rstrip("\n") for lam in partitions]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _series_text(series: BiSeries, x: str, fmt: str) -> str:
    """The series (or its x = 1 value for ``x == "eval"``) as CSV or JSON."""
    if x == "eval":
        s = series.eval_x1()
        return serialize.qseries_csv(s) if fmt == "csv" else serialize.dumps(s.to_json())
    return serialize.biseries_csv(series) if fmt == "csv" else serialize.dumps(series.to_json())


def cmd_series(args) -> int:
    if args.qorder < 1:
        raise ValueError("--qorder must be >= 1")
    series = gen_fun(enumerate_2colored(args.qorder - 1, _parse_conds(args.which)), args.qorder)
    _write(_series_text(series, args.x, args.format), args.out)
    return 0


def cmd_dfa(args) -> int:
    if args.emit_words:
        flags = {"--words": args.words, "--format": args.format}
        if given := [flag for flag, value in flags.items() if value is not None]:
            raise ValueError(f"--emit-words prints the bundled words: drop {', '.join(given)}")
        _write("\n".join(automata.FORBIDDEN_WORDS) + "\n", args.out)
        return 0
    dfa = (build_avoidance_dfa() if args.words is None
           else _read_input(args.words, build_avoidance_dfa, serialize.words_from_text))
    _write(dfa.to_dot() if args.format == "dot" else serialize.dumps(dfa.to_json()), args.out)
    return 0


def cmd_system(args) -> int:
    _write(serialize.dumps(derive_transfer_system(build_avoidance_dfa()).to_json()), args.out)
    return 0


def _profile(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers such as 3,0,0, got {text!r}") from None


def cmd_cylindric(args) -> int:
    if args.qorder < 1:
        raise ValueError("qorder must be >= 1")
    if args.enumerate:
        if args.stat != "F":
            raise ValueError("--enumerate counts F; give --stat F")
        series = enumerate_cylindric(args.profile, args.qorder - 1)
    else:
        g = solve_cw_family(args.profile, args.qorder)[args.profile]
        series = g_to_f(g) if args.stat == "F" else g
    _write(_series_text(series, args.x, args.format), args.out)
    return 0


def _load_term(args) -> HypTerm:
    """The bundled term of --name or the term of the --term file; exactly one must be given."""
    if (args.name is None) == (args.term is None):
        raise ValueError("give exactly one of --name and --term")
    if args.name is not None:
        return catalog.certificate_term(args.name)
    return _read_input(args.term, serialize.term_from_json)


def cmd_certify(args) -> int:
    if (args.term is None) != (args.cert is None):
        raise ValueError("--term and --cert go together")
    if args.verbatim and args.name is None:
        raise ValueError("--verbatim applies only to --name")
    term = _load_term(args)
    if args.name is not None:
        cert = catalog.certificate(args.name, verbatim=args.verbatim)
    else:
        cert = _read_input(args.cert, serialize.certificate_from_json)
    res = verify_certificate(term, cert)
    report = {"verified": res.ok, "residual_terms": res.residual_terms}
    if args.recurrence_check is not None and res.ok:
        plist = recurrence_from_certificate(cert)
        report["recurrence_nmax"] = args.recurrence_check
        report["recurrence_points"] = [str(q0) for q0 in RECURRENCE_POINTS]
        failure = first_recurrence_failure(term, plist, args.recurrence_check, RECURRENCE_POINTS)
        report["recurrence_ok"] = failure is None
    _write(serialize.dumps(report), args.out)
    return 0 if res.ok and report.get("recurrence_ok", True) else 1


def cmd_celine(args) -> int:
    box = {"--deg": args.deg, "--qdeg": args.qdeg, "--kbox": args.kbox}
    if args.support == "printed":
        if args.name is None:
            raise ValueError("--support printed needs --name: a --term file has no printed support")
        if given := [flag for flag, value in box.items() if value is not None]:
            raise ValueError(f"--support printed searches no box: drop {', '.join(given)}")
    term = _load_term(args)
    if args.support == "printed":
        support = support_of(catalog.certificate(args.name))
    else:
        deg, qdeg, kbox = (BOX_DEFAULTS[flag] if value is None else value for flag, value in box.items())
        support = default_support(args.order, nsum=term.nsum, kbox=(kbox,) * 3,
                                  u_range=(0, deg), q_range=(-qdeg, qdeg))
    cert = celine_solve(term, args.order, support=support)
    if cert is None:
        _write(serialize.dumps({"found": False}), args.out)
        return 1
    out = {"found": True, "certificate": serialize.certificate_to_json(cert)}
    _write(serialize.dumps(out), args.out)
    return 0


def cmd_uncouple(args) -> int:
    if args.system in ("builtin-2x2", "builtin-5x5"):
        matrix, step = catalog.system_matrix(args.system.removeprefix("builtin-")), 3
    else:
        matrix, step = _read_input(args.system, serialize.system_from_json)
    op = uncouple_system(matrix, args.component, step)
    _write(serialize.dumps(op.to_json()), args.out)
    return 0


def cmd_verify_all(args) -> int:
    if args.report is not None:  # a report that cannot be written fails before the battery runs
        open(args.report, "a").close()
    reports = verify_all(args.qorder, args.nmax)
    for r in reports:
        line = f"{r.status.upper():4} {r.task}"
        if args.timings:
            line += f"  ({r.wall_time:.2f}s)"
        if not r.ok:
            line += f"  witness={json.dumps(r.witness, sort_keys=True)}"
        print(line, file=sys.stderr)
    payload = [r.to_json(timings=args.timings) for r in reports]
    _write(serialize.dumps(payload), args.report)
    return 0 if all(r.ok for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1 as a value, not a flag; so too a comma list such as -1,4,0
        self._negative_number_matcher = re.compile(r"^-\d[\d,-]*$")

    def error(self, message: str):  # a usage error is the ValueError main reports on one line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qpart", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate 2-colored partitions")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--cond", default="", help="comma list of D1..D4, or d123/d1234")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("series", help="generating function of a partition class")
    p.add_argument("--which", required=True, help="d123, d1234, or a comma list of D-conditions")
    p.add_argument("--qorder", type=int, default=30)
    p.add_argument("--x", choices=("eval", "keep"), default="keep")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("dfa", help="the minimal factor-avoidance DFA")
    p.add_argument("--format", choices=("json", "dot"), help="json (the default) or dot")
    p.add_argument("--words", type=_path, help="plain-text forbidden-word list, one word per line")
    p.add_argument("--emit-words", action="store_true", help="print the bundled word list")
    p.set_defaults(func=cmd_dfa)

    p = sub.add_parser("system", help="the coupled q-difference system")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("cylindric", help="profile generating functions")
    p.add_argument("--profile", type=_profile, required=True, help="comma separated, e.g. 3,0,0")
    p.add_argument("--qorder", type=int, default=30)
    p.add_argument("--stat", choices=("F", "G"), default="G")
    p.add_argument("--x", choices=("eval", "keep"), default="keep")
    p.add_argument("--enumerate", action="store_true", help="count F by layers instead of the recursion")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_cylindric)

    p = sub.add_parser("certify", help="verify a certificate against a term")
    p.add_argument("--term", type=_path, help="HypTerm JSON file")
    p.add_argument("--cert", type=_path, help="certificate JSON file")
    p.add_argument("--name", choices=catalog.CERTIFICATE_NAMES, help="bundled set")
    p.add_argument("--verbatim", action="store_true", help="use the unemended bundled data")
    p.add_argument("--recurrence-check", type=int, metavar="NMAX")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("celine", help="search for a certificate")
    p.add_argument("--term", type=_path, help="HypTerm JSON file")
    p.add_argument("--name", choices=catalog.CERTIFICATE_NAMES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--deg", type=int, help="u-degree bound (default 3)")
    p.add_argument("--qdeg", type=int, help="q-degree bound (default 3)")
    p.add_argument("--kbox", type=int, help="shift box per summation variable (default 1)")
    p.add_argument("--support", choices=("bounds", "printed"), default="bounds")
    p.set_defaults(func=cmd_celine)

    p = sub.add_parser("uncouple", help="scalar annihilator of a system component")
    p.add_argument("--system", type=_path, required=True, help="system JSON file, builtin-2x2, or builtin-5x5")
    p.add_argument("--component", type=int, default=0)
    p.set_defaults(func=cmd_uncouple)

    p = sub.add_parser("verify-all", help="run the full verification battery")
    p.add_argument("--qorder", type=int, default=30)
    p.add_argument("--nmax", type=int, default=25, help="recurrence check bound")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--report", type=_path, help="write the JSON report to this file")
    p.set_defaults(func=cmd_verify_all)

    for name, p in sub.choices.items():
        if name != "verify-all":  # which writes its report to --report
            p.add_argument("--out", type=_path)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input (a ValueError, or an OSError on a file) exits 2 with one line."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"qpart: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
