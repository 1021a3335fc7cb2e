#!/usr/bin/env python3
"""The qpart benchmark: three exact workloads, each pass in a fresh interpreter.

    python3 benchmarks/run.py --workload gate|highorder|algebra --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs passes one after another (a closed loop, one
client) for about ``S`` seconds and prints the end-to-end metrics, their
times scaled to a fixed host speed by a probe timed inside each pass (see
README.md, "Steadiness and bounds").  With ``--trace 1`` it runs
untraced/traced pairs of passes for about ``S`` seconds, including the
scaling points, and prints the per-layer metrics.
Every pass is checked against digests recorded from the seed commit
(``expected.json``).  The metric names and units come from
``BENCHMARK.json`` at the repository root.  The last line of stdout is
the JSON result; a fuller record, with the machine, goes to
``.bench_out/result-<workload>-<seed>-trace<0|1>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = str(HERE / "child.py")

sys.path.insert(0, str(HERE))
from child import SCALING_POINTS  # noqa: E402

SETUP_REPS = 9
#: ``child.probe``'s time on a quiet reference host (2-vCPU Intel Xeon KVM
#: guest, Python 3.11.7); pass times are scaled to the host speed it stands for
REF_PROBE_S = 1.25e-3
RUN_BUDGET_S = 170.0
POINTS_S = 8.0  # about what the scaling points of a traced run take

#: metrics that must be non-zero in a traced pass of each workload: the
#: spans and counters the README maps to that workload's end-to-end metrics
MUST_FIRE = {
    "gate": [
        "cylindric.enumerate_cylindric.calls", "cylindric.objects_found",
        "holonomic.sequence_value.calls", "holonomic.support_points",
        "holonomic.recurrence_holds_at_point.calls", "colored.enumerate_2colored.calls",
        "colored.gen_fun.calls", "colored.check_condition.calls",
        "serialize.dumps.calls", "cli.main.calls",
    ],
    "highorder": [
        "cylindric.solve_cw_family.calls", "cylindric.g_to_f.calls",
        "holonomic.evaluate_ag_sum.calls", "holonomic.apply_qdiff.calls",
        "holonomic.poly_times_biseries.calls", "series.BiSeries.mul.calls",
        "series.QSeries.mul.calls", "series.QSeries.invert.calls",
        "series.pochhammer_expand.calls", "automata.build_avoidance_dfa.calls",
        "automata.derive_transfer_system.calls", "automata.solve_language_series.calls",
        "colored.enumerate_2colored.calls", "colored.gen_fun.calls",
        "colored.partitions_listed", "colored.check_condition.calls",
    ],
    "algebra": [
        "holonomic.verify_certificate.calls", "holonomic.uncouple_system.calls",
        "laurent.LaurentPoly.mul.calls", "laurent.peak_terms", "laurent.poly_gcd.calls",
        "celine.celine_solve.calls", "celine.columns", "catalog.certificate.calls",
    ],
}


@dataclass
class Pass:
    wall_s: float  # spawn to exit, less the time of the probes
    cpu_s: float
    rss_mb: float
    attempted: int
    passed: int
    trace: dict | None = None
    probes: list[float] | None = None  # wall seconds of each probe timed in the pass
    speed: float | None = None  # mean of REF_PROBE_S / probe time: the host's speed during the pass
    ref_wall_s: float | None = None
    ref_cpu_s: float | None = None


def spawn(argv: list[str], tag: str, deadline: float):
    """Run one child to completion; its own rusage comes from wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    err_path = OUT / f"{tag}.err"
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, err_path.read_text()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload: str, seed: int, trace: bool, expected: dict, deadline: float) -> Pass:
    """One pass; a crash, a non-zero exit or a digest mismatch fails every check."""
    out = OUT / f"{workload}.json"
    report = OUT / "gate_report.json"
    out.unlink(missing_ok=True)
    report.unlink(missing_ok=True)
    argv = [sys.executable, CHILD, "pass", workload, "--seed", str(seed), "--out", str(out),
            "--trace" if trace else "--sample"]
    if workload == "gate":
        argv += ["--report", str(report)]
    rc, wall, cpu, rss, err = spawn(argv, workload, deadline)
    result = json.loads(out.read_text()) if rc == 0 and out.exists() else {}
    if workload == "gate":
        attempted = expected["tasks"]
        held = sum(line.startswith("PASS ") for line in err.splitlines())
        same = report.exists() and sha256(report) == expected["report_sha256"]
    else:
        attempted = len(expected)
        checks = result.get("checks", {})
        held = sum(c["ok"] for c in checks.values())
        same = {name: c["digest"] for name, c in checks.items()} == expected
    passed = held if rc == 0 and same else 0
    if passed < attempted:
        sys.stderr.write(f"{workload}: {attempted - passed} of {attempted} checks failed (exit {rc})\n{err[-2000:]}")
    samples = result.get("probes", [])
    wall -= sum(w for w, _ in samples)
    cpu -= sum(c for _, c in samples)
    p = Pass(wall, cpu, rss, attempted, passed, result.get("trace"), [w for w, _ in samples])
    if not trace:
        # The probes are evenly spaced in wall time, so over the pass the host
        # ran at REF_PROBE_S / p_i of the reference speed on average; the pass
        # would have taken wall * that mean on the reference host.
        p.speed = host_speed(p.probes)
        p.ref_wall_s, p.ref_cpu_s = wall * p.speed, cpu * p.speed
    return p


def host_speed(probes: list[float]) -> float:
    """Mean of REF_PROBE_S / probe time; 1.0 if there are none (a crash)."""
    return statistics.fmean(REF_PROBE_S / x for x in probes) if probes else 1.0


def run_setup(workload: str, deadline: float) -> float | None:
    """One set-up child, spawn to exit less its probes, at the reference speed."""
    out = OUT / "setup.json"
    out.unlink(missing_ok=True)
    rc, wall, *_ = spawn([sys.executable, CHILD, "setup", workload, "--out", str(out)], "setup", deadline)
    if rc != 0:
        return None
    probes = [w for w, _ in json.loads(out.read_text())["probes"]]
    return (wall - sum(probes)) * host_speed(probes)


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform()}


def trace_checks(workload: str, p: Pass) -> list[str]:
    """Self-test of one traced pass: the spans fired and self times add up."""
    t = p.trace
    must = MUST_FIRE[workload]
    if workload == "gate":
        must = must + [k for k in t["metrics"] if k.startswith("verification.") and k.endswith(".calls")]
    problems = [f"{name} did not fire" for name in must if not t["metrics"].get(name)]
    self_sum = sum(v for k, v in t["metrics"].items() if k.endswith(".self_s"))
    unattributed = t["body_s"] - t["root_s"]
    if abs(self_sum + unattributed - t["body_s"]) > 1e-6 * max(1.0, t["body_s"]) or unattributed < -1e-9:
        problems.append(f"layer self times {self_sum} + unattributed {unattributed} != traced body {t['body_s']}")
    return problems


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = attempted - sum(p.passed for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.ref_wall_s for p in passes),
        "cpu_s": statistics.median(p.ref_cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "checks_passed": min(p.passed for p in passes),
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer(plain: list[Pass], traced: list[Pass], points: dict) -> dict:
    names = set().union(*(p.trace["metrics"] for p in traced))
    out = {name: statistics.median(p.trace["metrics"].get(name, 0) for p in traced) for name in names}
    wall = statistics.median(p.wall_s for p in traced)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - statistics.median(p.wall_s for p in plain)
    out["trace.unattributed_s"] = statistics.median(
        p.wall_s - sum(v for k, v in p.trace["metrics"].items() if k.endswith(".self_s")) for p in traced)
    out.update(points)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("gate", "highorder", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a TERM while a child runs raises SystemExit in wait4, and spawn kills the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qpart" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qpart sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    deadline = start + RUN_BUDGET_S
    w, seed = args.workload, args.seed

    # the first set-up also compiles the byte code; it is not counted
    setups = [run_setup(w, deadline) for _ in range(SETUP_REPS + 1)][1:]
    if None in setups:
        sys.stderr.write((OUT / "setup.err").read_text())
        return 1

    plain: list[Pass] = []
    traced: list[Pass] = []
    problems: list[str] = []
    rounds: list[float] = []
    reserve = POINTS_S if args.trace else 0.0
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        plain.append(run_pass(w, seed, False, expected, deadline))
        if args.trace:
            traced.append(run_pass(w, seed, True, expected, deadline))
            if traced[-1].trace is None:
                problems.append("traced pass left no trace")
                break
            problems += trace_checks(w, traced[-1])
        now = perf_counter()
        rounds.append(now - r0)
        # start another round only if it should end within half a round of --seconds
        typical = statistics.median(rounds)
        if now - t0 + typical / 2 + reserve >= args.seconds or now + 2 * typical > deadline:
            break

    points: dict[str, float] = {}
    if args.trace and not problems:
        for name in SCALING_POINTS:
            pt = OUT / "point.json"
            if spawn([sys.executable, CHILD, "point", name, "--out", str(pt)], "point", deadline)[0] != 0:
                problems.append(f"scaling point {name} failed")
                break
            points[name] = json.loads(pt.read_text())["s"]

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = attempted - sum(p.passed for p in passes)
    if args.trace:
        values = per_layer(plain, traced, points) if not problems else {}
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain, setups)
        wanted = spec["end_to_end"]
    if values:
        problems += [f"{m['name']} was not measured" for m in wanted if m["name"] not in values]
    for problem in problems:
        sys.stderr.write(f"trace self-test: {problem}\n")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=w, seed=seed, seconds=args.seconds, trace=args.trace, machine=machine(),
                  ref_probe_s=REF_PROBE_S, passes=[p.__dict__ for p in passes], setups=setups,
                  elapsed_s=perf_counter() - start)
    (OUT / f"result-{w}-{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"# {w} seed={seed} passes={len(plain)}+{len(traced)} traced fail_frac={failed / attempted:.4f} "
          f"machine={json.dumps(record['machine'])}")
    print(f"# passes: raw wall_s {[round(p.wall_s, 3) for p in plain]}, host speed "
          f"{[round(p.speed, 3) for p in plain]}, scaled wall_s {[round(p.ref_wall_s, 3) for p in plain]}")
    for name, m in metrics.items():
        print(f"#   {name:52} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
