"""The machine's speed, measured between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more over tens of seconds, and every op slows with it.  Between ops
the benchmark times a fixed reference, and reports each op's time scaled to
reference speed: its wall time times the reference's nominal time divided by
the mean of the two references run just before and after it.  That is the
time the op would take on a machine where the reference takes its nominal
time.  The references use the standard library only, so no change to the
program moves them.

* ``UNIT`` runs in the benchmark's process: a pure-Python integer loop plus
  building, dumping, loading and comparing a table of ``Fraction`` s, the
  kind of work gapforge does.  It is the reference of in-process ops.
* ``PROCESS`` starts a fresh interpreter that imports ``STDLIB_MODULES`` and
  runs the unit.  Start-up and imports slow down differently from in-process
  work, so an op that is a process of its own, and a set-up probe, use it.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

STDLIB_MODULES = ("argparse", "asyncio", "csv", "dataclasses", "decimal", "email.parser", "http.client",
                  "logging", "pathlib", "statistics", "typing", "unittest", "xml.dom.minidom")


def unit_s() -> float:
    """Run the reference unit once in this process and return its wall time."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    rows = [[Fraction(7 * i + j, j + 1) for j in range(24)] for i in range(150)]
    text = json.dumps({"rows": [[f"{f.numerator}/{f.denominator}" for f in row] for row in rows]},
                      indent=2, sort_keys=True)
    back = [[Fraction(*map(int, cell.split("/"))) for cell in row] for row in json.loads(text)["rows"]]
    elapsed = time.perf_counter() - t0
    if back != rows or total != 399_999:
        raise RuntimeError("the reference unit computed a wrong result")
    return elapsed


def process_s() -> float:
    """Run the reference process once and return its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__], capture_output=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"the reference process failed: {proc.stderr.decode(errors='replace')}")
    return elapsed


class Reference(NamedTuple):
    measure: Callable[[], float]
    # about the reference's median on the machine the trajectory was recorded on
    nominal_s: float


UNIT = Reference(unit_s, 0.04)
PROCESS = Reference(process_s, 0.2)


if __name__ == "__main__":
    for name in STDLIB_MODULES:
        importlib.import_module(name)
    unit_s()
