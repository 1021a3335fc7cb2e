#!/usr/bin/env python3
"""Record expected.json: the digests every benchmark pass is checked against.

    python3 benchmarks/record.py

Run once, on the commit whose outputs are the reference; it refuses to
record unless every check held.  The outputs of qpart are meant to stay
bit-for-bit the same, so a later change should never need to re-record.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from child import GATE_ARGS
from run import CHILD, HERE, OUT, ROOT, sha256, spawn


def main() -> int:
    OUT.mkdir(exist_ok=True)
    deadline = perf_counter() + 600
    report = OUT / "gate_report.json"
    rc, _, _, _, err = spawn([sys.executable, "-m", "qpart.cli", *GATE_ARGS, "--report", str(report)], "gate", deadline)
    tasks = len(json.loads(report.read_text()))
    if rc != 0 or sum(line.startswith("PASS ") for line in err.splitlines()) != tasks:
        sys.stderr.write(err)
        return 1
    expected = {"gate": {"tasks": tasks, "report_sha256": sha256(report)}}
    for workload in ("highorder", "algebra"):
        out = OUT / f"{workload}.json"
        rc = spawn([sys.executable, CHILD, "pass", workload, "--seed", "0", "--out", str(out)], workload, deadline)[0]
        checks = json.loads(out.read_text())["checks"] if rc == 0 else {}
        if not checks or not all(c["ok"] for c in checks.values()):
            sys.stderr.write(f"{workload}: not every check held: {checks}\n")
            return 1
        expected[workload] = {name: c["digest"] for name, c in sorted(checks.items())}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {HERE.relative_to(ROOT) / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
