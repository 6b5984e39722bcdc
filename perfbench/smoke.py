"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Every workload in ``BENCHMARK.json`` runs at the tiny size for one second
three times: clean, with one corrupted output byte (``--inject-fault``), and
traced.  The clean run must be correct with every end-to-end metric; the
faulted run must count exactly one failed op and report itself incorrect;
the traced run must report every per-layer metric.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, *extra: str) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        clean = run(workload, "--trace", "0")
        if not clean["correct"] or clean["failed"] or set(clean["metrics"]) != end_to_end:
            problems.append(f"{workload}: clean run {clean}")
        faulted = run(workload, "--trace", "0", "--inject-fault")
        if faulted["correct"] or faulted["failed"] != 1:
            problems.append(f"{workload}: injected fault counted as {faulted['failed']} failed ops")
        traced = run(workload, "--trace", "1")
        if not traced["correct"] or set(traced["metrics"]) != per_layer:
            problems.append(f"{workload}: traced run misses {sorted(per_layer - set(traced['metrics']))}")
        print(f"{workload}: clean {clean['attempted']} ops, faulted {faulted['failed']} of "
              f"{faulted['attempted']} failed, traced {traced['attempted']} ops", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
