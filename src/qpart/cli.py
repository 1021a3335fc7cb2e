"""Batch command-line front-end.

Subcommands: enumerate | series | dfa | system | cylindric | certify |
celine | uncouple | verify-all | emit.  All input and output goes through
files or stdout; outputs are deterministic (sorted keys, decimal-string
coefficients) so identical flags produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog, serialize
from .automata import FORBIDDEN_WORDS, build_avoidance_dfa, derive_transfer_system
from .celine import celine_solve, default_support, support_of
from .colored import enumerate_2colored, gen_fun, size
from .cylindric import enumerate_cylindric, g_to_f, solve_cw_family
from .holonomic import (
    HypTerm,
    recurrence_from_certificate,
    recurrence_holds_at_point,
    uncouple_system,
    verify_certificate,
)
from .series import BiSeries
from .verification import RECURRENCE_POINTS, verify_all

CONDS = {"d123": ("D1", "D2", "D3"), "d1234": ("D1", "D2", "D3", "D4")}


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_conds(raw: str) -> tuple[str, ...]:
    raw = raw.strip().lower()
    if raw in CONDS:
        return CONDS[raw]
    return tuple(p.strip().upper() for p in raw.split(",") if p.strip())


def cmd_enumerate(args) -> int:
    conds = _parse_conds(args.cond)
    partitions = enumerate_2colored(args.max_size, conds)
    if args.count_only:
        counts: dict[int, int] = {}
        for lam in partitions:
            counts[size(lam)] = counts.get(size(lam), 0) + 1
        _write(serialize.dumps({str(k): v for k, v in sorted(counts.items())}), args.out)
    else:
        lines = [serialize.dumps(serialize.partition_to_json(lam)).rstrip("\n") for lam in partitions]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _class_series(conds: tuple[str, ...], qorder: int) -> BiSeries:
    if qorder < 1:
        raise ValueError("--qorder must be >= 1")
    return gen_fun(enumerate_2colored(qorder - 1, conds), qorder)


def _series_text(series: BiSeries, x: str, fmt: str) -> str:
    """The series (or its x = 1 value for ``x == "eval"``) as CSV or JSON."""
    if x == "eval":
        s = series.eval_x1()
        return serialize.qseries_csv(s) if fmt == "csv" else serialize.dumps(s.to_json())
    return serialize.biseries_csv(series) if fmt == "csv" else serialize.dumps(series.to_json())


def _dfa_text(dfa, fmt: str) -> str:
    return dfa.to_dot() if fmt == "dot" else serialize.dumps(dfa.to_json())


def _system_text() -> str:
    return serialize.dumps(derive_transfer_system(build_avoidance_dfa()).to_json())


def cmd_series(args) -> int:
    series = _class_series(_parse_conds(args.which), args.qorder)
    _write(_series_text(series, args.x, args.format), args.out)
    return 0


def cmd_dfa(args) -> int:
    if args.emit_words:
        _write("\n".join(FORBIDDEN_WORDS) + "\n", args.out)
        return 0
    words = FORBIDDEN_WORDS
    if args.words:
        words = tuple(w.strip() for w in Path(args.words).read_text().splitlines() if w.strip())
    _write(_dfa_text(build_avoidance_dfa(words), args.format), args.out)
    return 0


def cmd_system(args) -> int:
    _write(_system_text(), args.out)
    return 0


def cmd_cylindric(args) -> int:
    profile = tuple(int(c) for c in args.profile.split(","))
    if args.enumerate:
        if args.stat != "F":
            raise ValueError("--enumerate lists F; give --stat F")
        series = enumerate_cylindric(profile, args.qorder - 1)
    else:
        g = solve_cw_family(profile, args.qorder)[profile]
        series = g_to_f(g) if args.stat == "F" else g
    _write(_series_text(series, args.x, args.format), args.out)
    return 0


def _load_term(args) -> HypTerm:
    """The bundled term of --name or the term of the --term file; exactly one must be given."""
    if (args.name is None) == (args.term is None):
        raise ValueError("give exactly one of --name and --term")
    if args.name is not None:
        return catalog.certificate_term(args.name)
    return HypTerm.from_json(json.loads(Path(args.term).read_text()))


def cmd_certify(args) -> int:
    if (args.term is None) != (args.cert is None):
        raise ValueError("--term and --cert go together")
    if args.verbatim and args.name is None:
        raise ValueError("--verbatim applies only to --name")
    term = _load_term(args)
    if args.name is not None:
        cert = catalog.certificate(args.name, verbatim=args.verbatim)
    else:
        cert = serialize.certificate_from_json(json.loads(Path(args.cert).read_text()))
    res = verify_certificate(term, cert)
    report = {"verified": res.ok, "residual_terms": res.residual_terms}
    if args.recurrence_check and res.ok:
        plist = recurrence_from_certificate(cert)
        report["recurrence_nmax"] = args.recurrence_check
        report["recurrence_points"] = [str(q0) for q0 in RECURRENCE_POINTS]
        report["recurrence_ok"] = all(
            recurrence_holds_at_point(term, plist, args.recurrence_check, q0)
            for q0 in RECURRENCE_POINTS
        )
    _write(serialize.dumps(report), args.out)
    return 0 if res.ok and report.get("recurrence_ok", True) else 1


def cmd_celine(args) -> int:
    if args.support == "printed" and args.name is None:
        raise ValueError("--support printed needs --name: a --term file has no printed support")
    term = _load_term(args)
    if args.support == "printed":
        support = support_of(catalog.certificate(args.name))
    else:
        support = default_support(
            args.order,
            nsum=term.nsum,
            kbox=tuple([args.kbox] * 3),
            u_range=(0, args.deg),
            q_range=(-args.qdeg, args.qdeg),
        )
    cert = celine_solve(term, args.order, support=support)
    if cert is None:
        _write(serialize.dumps({"found": False}), args.out)
        return 1
    out = {"found": True, "certificate": serialize.certificate_to_json(cert)}
    _write(serialize.dumps(out), args.out)
    return 0


def cmd_uncouple(args) -> int:
    if args.system == "builtin-2x2":
        matrix, step = catalog.coupled_g_system(), 3
    elif args.system == "builtin-5x5":
        matrix, step = derive_transfer_system(build_avoidance_dfa()).matrix, 3
    else:
        matrix, step = serialize.system_from_json(json.loads(Path(args.system).read_text()))
    op = uncouple_system(matrix, args.component, step)
    _write(serialize.dumps(op.to_json()), args.out)
    return 0


def cmd_verify_all(args) -> int:
    if args.qorder < 10:
        raise ValueError("--qorder must be >= 10")
    reports = verify_all(args.qorder, nmax_recurrence=args.nmax)
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


#: the formats each emit target can encode
EMIT_FORMATS = {
    "d123-series": ("json", "csv"),
    "d1234-series": ("json", "csv"),
    "dfa": ("json", "dot"),
    "transfer-matrix": ("json",),
}


def cmd_emit(args) -> int:
    target, fmt = args.target, args.format
    if target not in EMIT_FORMATS:
        raise ValueError(f"unknown target {target!r}")
    if fmt not in EMIT_FORMATS[target]:
        raise ValueError(f"{target} supports only {' or '.join(EMIT_FORMATS[target])}")
    if target == "dfa":
        text = _dfa_text(build_avoidance_dfa(), fmt)
    elif target == "transfer-matrix":
        text = _system_text()
    else:
        text = _series_text(_class_series(CONDS[target.split("-")[0]], args.qorder), "keep", fmt)
    _write(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qpart", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate 2-colored partitions")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--cond", default="", help="comma list of D1..D4, or d123/d1234")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("series", help="generating function of a partition class")
    p.add_argument("--which", required=True, help="d123, d1234, or a comma list of D-conditions")
    p.add_argument("--qorder", type=int, default=30)
    p.add_argument("--x", choices=("eval", "keep"), default="keep")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("dfa", help="the minimal factor-avoidance DFA")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--words", help="plain-text forbidden-word list, one word per line")
    p.add_argument("--emit-words", action="store_true", help="print the bundled word list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dfa)

    p = sub.add_parser("system", help="the coupled q-difference system")
    p.add_argument("--out")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("cylindric", help="profile generating functions")
    p.add_argument("--profile", required=True, help="comma separated, e.g. 3,0,0")
    p.add_argument("--qorder", type=int, default=30)
    p.add_argument("--stat", choices=("F", "G"), default="G")
    p.add_argument("--x", choices=("eval", "keep"), default="keep")
    p.add_argument("--enumerate", action="store_true", help="brute-force F instead of the recursion")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--json", dest="format", action="store_const", const="json",
                   help="shorthand for --format json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cylindric)

    p = sub.add_parser("certify", help="verify a certificate against a term")
    p.add_argument("--term", help="HypTerm JSON file")
    p.add_argument("--cert", help="certificate JSON file")
    p.add_argument("--name", choices=catalog.CERTIFICATE_NAMES, help="bundled set")
    p.add_argument("--verbatim", action="store_true", help="use the unemended bundled data")
    p.add_argument("--recurrence-check", type=int, default=0, metavar="NMAX")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("celine", help="search for a certificate")
    p.add_argument("--term", help="HypTerm JSON file")
    p.add_argument("--name", choices=catalog.CERTIFICATE_NAMES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--deg", type=int, default=3, help="u-degree bound")
    p.add_argument("--qdeg", type=int, default=3, help="q-degree bound")
    p.add_argument("--kbox", type=int, default=1, help="shift box per summation variable")
    p.add_argument("--support", choices=("bounds", "printed"), default="bounds")
    p.add_argument("--out")
    p.set_defaults(func=cmd_celine)

    p = sub.add_parser("uncouple", help="scalar annihilator of a system component")
    p.add_argument("--system", required=True, help="system JSON file, builtin-2x2, or builtin-5x5")
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_uncouple)

    p = sub.add_parser("verify-all", help="run the full verification battery")
    p.add_argument("--qorder", type=int, default=30)
    p.add_argument("--nmax", type=int, default=25, help="recurrence check bound")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--report", help="write the JSON report to this file")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("emit", help="emit a series or table deterministically")
    p.add_argument("--target", required=True, help=" | ".join(EMIT_FORMATS))
    p.add_argument("--qorder", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_emit)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input (a ValueError) exits 2 with one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"qpart: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
