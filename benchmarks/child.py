"""The code that runs inside each fresh interpreter the benchmark spawns.

    python3 benchmarks/child.py setup WORKLOAD --out FILE
    python3 benchmarks/child.py pass WORKLOAD --seed N --out FILE [--trace | --sample] [--report FILE]
    python3 benchmarks/child.py point NAME --out FILE

``setup`` imports every qpart module the workload uses, between host-speed
probes, and writes the probe times.  ``pass`` runs one pass (``gate``
in-process through ``qpart.cli.main``, which is what ``python -m qpart.cli``
calls) and writes the checks' results and, with ``--trace``, the spans and
counters, or with ``--sample``, the host-speed probes.  ``point`` times one
scaling point.  Needs ``src`` on ``PYTHONPATH``, which ``run.py`` sets.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

MODULES = {
    "gate": ("qpart.cli",),
    "highorder": ("qpart.automata", "qpart.catalog", "qpart.colored", "qpart.cylindric",
                  "qpart.holonomic", "qpart.series", "qpart.serialize"),
    "algebra": ("qpart.automata", "qpart.catalog", "qpart.celine", "qpart.cylindric",
                "qpart.holonomic", "qpart.laurent", "qpart.serialize"),
}

GATE_ARGS = ["verify-all", "--qorder", "30", "--nmax", "25"]

#: ROADMAP item-1 scaling points, each timed in its own process
SCALING_POINTS = [f"cylindric.solve_cw_family.q{q}.s" for q in (30, 60, 100)] + [
    f"holonomic.sequence_value.g111_n{n}.q0_{q0}.s" for q0 in ("2", "7_5") for n in (25, 40)
]


PROBE_EVERY_S = 0.1
SETUP_PROBES = 4  # before and again after the imports of a set-up child
_PROBE_KEYS = {(i, i * 7 % 1013): i for i in range(2048)}


def probe() -> None:
    """A fixed bit of interpreter work (about 1.3 ms on a quiet host):
    Fraction sums, tuple keys and dict updates, like the library's own."""
    acc, s, d = Fraction(0), 0, {}
    for i in range(1, 150):
        acc += Fraction(i % 13 + 1, i + 2)
    for i in range(3000):
        k = i * 37 % 2048
        s += _PROBE_KEYS[(k, k * 7 % 1013)]
        d[i & 255] = (i, s)


def timed_probe() -> list[float]:
    """``[wall_s, cpu_s]`` of one ``probe``."""
    t0, c0 = perf_counter(), process_time()
    probe()
    return [perf_counter() - t0, process_time() - c0]


def start_sampler() -> list[list[float]]:
    """Time ``probe`` every PROBE_EVERY_S seconds of wall time, from a SIGALRM
    handler in this process, for the whole pass.  Returns the list the
    handler appends each ``timed_probe`` to."""
    samples: list[list[float]] = []

    def handler(signum, frame):
        samples.append(timed_probe())

    probe()  # warm the code and the allocator once, untimed
    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    return samples


def run_pass(workload: str, seed: int, trace: bool, report: str | None) -> dict:
    for mod in MODULES[workload]:
        importlib.import_module(mod)
    result: dict = {"workload": workload, "seed": seed}
    tracer = None
    if trace:
        from tracer import TARGETS, Tracer, task_targets

        tracer = Tracer()
        tracer.install(TARGETS + task_targets())
    t0 = perf_counter()
    if workload == "gate":
        from qpart import cli

        result["exit"] = cli.main(GATE_ARGS + ["--report", report])
    else:
        import workloads

        result["checks"] = workloads.run_checks(workload, seed)
    body_s = perf_counter() - t0
    if tracer is not None:
        result["trace"] = {"body_s": body_s, "root_s": tracer.root_s, "metrics": tracer.metrics()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "pass", "point"))
    ap.add_argument("name")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--sample", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--report")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        samples = [timed_probe() for _ in range(SETUP_PROBES)]
        for mod in MODULES[args.name]:
            importlib.import_module(mod)
        samples += [timed_probe() for _ in range(SETUP_PROBES)]
        Path(args.out).write_text(json.dumps({"probes": samples}))
        return 0
    if args.mode == "point":
        import workloads

        point = workloads.scaling_points()[args.name]
        t0 = perf_counter()
        point()
        Path(args.out).write_text(json.dumps({"s": perf_counter() - t0}))
        return 0
    samples = start_sampler() if args.sample and not args.trace else None
    result = run_pass(args.name, args.seed, args.trace, args.report)
    if samples is not None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        result["probes"] = samples
    Path(args.out).write_text(json.dumps(result))
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
