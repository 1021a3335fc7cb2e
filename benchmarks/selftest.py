#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 benchmarks/selftest.py [WORKLOAD ...]

First checks the span bookkeeping of ``tracer.Tracer`` on small nested and
recursive functions.  Then makes one traced run per workload (default: all
three) and checks that it is correct, which includes that every span the
README maps to that workload fired and that the layer self times plus the
unattributed time add up to the traced time.  It prints the shares that
the README quotes for the seed commit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from child import SCALING_POINTS  # noqa: E402
from tracer import Tracer  # noqa: E402


def check_bookkeeping() -> None:
    tracer = Tracer()
    tracer.self_s["toy"] = 0.0

    def leaf():
        time.sleep(0.01)

    def fact(n):
        return 1 if n <= 1 else n * fact(n - 1)

    leaf = tracer.wrap("toy.leaf", "toy", leaf, None)
    fact = tracer.wrap("toy.fact", "toy", fact, None)

    def outer():
        time.sleep(0.01)
        leaf()
        leaf()
        return fact(5)

    outer = tracer.wrap("toy.outer", "toy", outer, None)
    t0 = time.perf_counter()
    assert outer() == 120
    body = time.perf_counter() - t0
    assert tracer.calls == {"toy.leaf": 2, "toy.fact": 5, "toy.outer": 1}, tracer.calls
    assert tracer.inclusive["toy.outer"] >= tracer.inclusive["toy.leaf"] + tracer.inclusive["toy.fact"]
    assert tracer.inclusive["toy.fact"] <= tracer.inclusive["toy.outer"], "recursion counted twice"
    assert abs(sum(tracer.self_s.values()) - tracer.root_s) < 1e-9
    assert 0 <= body - tracer.root_s < 0.005
    print("tracer bookkeeping: ok")


def check_workload(workload: str) -> None:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run not correct\n{out.stderr}")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    spans = {k: v for k, v in m.items()
             if k.endswith(".s") and not k.startswith(("trace.", "cli.")) and k not in SCALING_POINTS}
    largest = max(spans, key=spans.get)
    line = (f"{workload}: ok; traced wall {m['trace.wall_s']:.2f} s, overhead {m['trace.overhead_s']:.2f} s, "
            f"largest span {largest} {spans[largest]:.2f} s")
    if workload == "gate":
        share = (m["cylindric.enumerate_cylindric.s"] + m["holonomic.sequence_value.s"]) / m["trace.wall_s"]
        line += f", enumerate_cylindric + sequence_value {share:.0%} of the traced wall"
    print(line)


def main(argv: list[str]) -> int:
    check_bookkeeping()
    for workload in argv or ["gate", "highorder", "algebra"]:
        check_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
