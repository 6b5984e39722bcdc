"""The benchmark's workloads: set-up, one op, and the checks on its output.

Every op reads input files, does the user's work, and writes output, so each
workload reports the same end-to-end metrics:

* ``chain_oracle``: the in-process equivalent of ``gapforge check chain
  --in lc.json --out chain.json`` on seeded 6-column instances, alternating
  planted (satisfiable) and frustrated (unsatisfiable) ones.  The five box
  oracles take nearly all of each op; serialization and the CLI are idle.
* ``files_roundtrip``: all four reductions of one seeded planted instance,
  ``write_instance`` for lc/ssat/sis/ncp/lhp, then ``read_instance`` on each
  file.  Serialization does nearly all the work and no oracle runs; rows are
  replicated (``d_rep``, ``U``), so a format that stores them once shows here.
* ``cli_chain``: one ``check chain`` process per op on the shipped
  label-cover fixtures and seeded small instances; interpreter start-up and
  ``import gapforge.cli`` dominate.

An op's time covers the program's work only; the checks run after it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import speed
from gapforge import genlab, oracles, pipeline, reductions, serialize

BENCH_DIR = Path(__file__).resolve().parent
CLI_FIXTURES = ("lc_id2", "lc_cyc", "lc_share", "lc_2to1")
KIND_FILES = (("lc", "label_cover"), ("ssat", "ssat"), ("sis", "sis"), ("ncp", "ncp"), ("lhp", "lhp"))


@dataclass
class Op:
    total_s: float = 0.0
    read_s: float = 0.0
    write_s: float = 0.0
    out_bytes: int = 0
    # mean wall time of the workload's references run just before and after the op
    reference_s: float = 0.0
    output: Any = None
    traced: bool = False
    failures: list[str] = field(default_factory=list)


def flip_byte_after(data: bytes, marker: bytes) -> bytes:
    """Flip the low bit of the byte that follows ``marker``: the injected fault."""
    pos = data.index(marker) + len(marker)
    return data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:]


def spec(shape: tuple[int, ...], seed: int) -> genlab.GenSpec:
    num_a, num_b, d_b, sigma_a, sigma_b, p = shape
    return genlab.GenSpec(num_a, num_b, d_b, sigma_a, sigma_b, p, planted=True, seed=seed)


def unsatisfiable_twist(lc, flips: int, seed: int):
    """The first ``frustrate(lc, flips, s)``, s = seed, seed + 1, ..., that is unsatisfiable."""
    for s in range(seed, seed + 64):
        twisted = genlab.frustrate(lc, flips, s)
        if oracles.solve_lc_max(twisted).best_fraction < 1:
            return twisted
    raise RuntimeError(f"no unsatisfiable {flips}-flip twist for seed {seed}")


class Workload:
    ops_per_step = 1
    # what the op's time is scaled by; see speed.py
    speed_reference = speed.UNIT

    def __init__(self, size: str, seed: int, workdir: Path, tracer=None, inject: bool = False):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.inject = inject

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, i: int, op: Op) -> None:
        raise NotImplementedError


class ChainOracle(Workload):
    """``run_chain`` between reading the label cover and writing the report."""

    # steps of (planted, frustrated) keep every run's mix at one half each
    ops_per_step = 2
    SHAPES = {"default": ((4, 3, 2, 2, 2, 1), 2), "tiny": ((2, 2, 2, 2, 2, 1), 1)}

    def setup(self) -> None:
        shape, flips = self.SHAPES[self.size]
        self.inputs: list[tuple[Path, bool]] = []
        for k in range(2):
            planted = genlab.gen_label_cover(spec(shape, self.seed * 1000 + k))
            twisted = unsatisfiable_twist(planted, flips, self.seed * 1000 + 100 * k)
            for tag, lc in (("planted", planted), ("frustrated", twisted)):
                path = self.workdir / f"lc{k}_{tag}.json"
                serialize.write_instance(path, lc)
                self.inputs.append((path, tag == "planted"))
        self.out_path = self.workdir / "chain.json"
        self.reference: dict[Path, bytes] = {}
        warm = self.workdir / "warm.json"
        serialize.write_instance(warm, genlab.gen_label_cover(spec(self.SHAPES["tiny"][0], self.seed)))
        self._chain(warm)

    def _chain(self, path: Path) -> Op:
        t0 = time.perf_counter()
        lc = serialize.read_instance(path, "label_cover")
        t1 = time.perf_counter()
        report = pipeline.run_chain(lc)
        t2 = time.perf_counter()
        data = serialize.canonical_bytes(report)
        self.out_path.write_bytes(data)
        t3 = time.perf_counter()
        return Op(total_s=t3 - t0, read_s=t1 - t0, write_s=t3 - t2, out_bytes=len(data), output=data)

    def run_op(self, i: int) -> Op:
        return self._chain(self.inputs[i % len(self.inputs)][0])

    def check(self, i: int, op: Op) -> None:
        path, planted = self.inputs[i % len(self.inputs)]
        data = op.output
        op.output = None
        if self.inject and i == 0:
            data = flip_byte_after(data, b'"all_checks_passed": ')
        try:
            doc = json.loads(data)
        except ValueError as exc:
            op.failures.append(f"report is not JSON: {exc}")
            return
        if doc.get("all_checks_passed") is not True:
            op.failures.append("all_checks_passed is not true")
        if doc.get("manifest_consistent") is not True:
            op.failures.append("manifest_consistent is not true")
        if planted:
            tests = doc["sizes"]["tests"]
            limits = (("ssat_l1", 1), ("sis", tests), ("ncp_box", tests), ("lhp_grid", tests))
            for stage, limit in limits:
                minimum = doc["oracles"].get(stage, {}).get("minimum")
                if minimum is None or Fraction(minimum) > limit:
                    op.failures.append(f"planted {stage} minimum {minimum!r} exceeds {limit}")
        reference = self.reference.get(path)
        if reference is None and not op.failures:
            self.reference[path] = data
        elif reference is not None and data != reference:
            op.failures.append("report bytes differ from an earlier run of the same instance")


class FilesRoundtrip(Workload):
    """Reduce, write five instance files, read them back."""

    # (shape, SIS columns): every instance in the pool has the same size, so
    # that the median op does not depend on which sizes a seed happens to draw
    SHAPES = {"default": ((10, 8, 2, 3, 2, 2), 38), "tiny": ((4, 3, 2, 2, 2, 1), 6)}
    POOL = 16

    def setup(self) -> None:
        shape, columns = self.SHAPES[self.size]
        self.pool = []
        candidates = (genlab.gen_label_cover(spec(shape, self.seed * 1000 + k)) for k in range(100 * self.POOL))
        for lc in candidates:
            if sum(len(t.assignments) for t in reductions.lc_to_ssat(lc).tests) == columns:
                self.pool.append(lc)
                if len(self.pool) == self.POOL:
                    break
        else:
            raise RuntimeError(f"too few {columns}-column instances for seed {self.seed}")
        self.paths = {kind: self.workdir / f"{kind}.json" for kind, _ in KIND_FILES}
        self._roundtrip(genlab.gen_label_cover(spec(self.SHAPES["tiny"][0], self.seed)), inject=False)

    def _roundtrip(self, lc, inject: bool) -> Op:
        t0 = time.perf_counter()
        ssat = reductions.lc_to_ssat(lc)
        sis = reductions.ssat_to_sis(ssat)
        originals = {
            "lc": lc,
            "ssat": ssat,
            "sis": sis,
            "ncp": reductions.sis_to_ncp(sis, g=1),
            "lhp": reductions.sis_to_lhp(sis),
        }
        for kind, _ in KIND_FILES:
            serialize.write_instance(self.paths[kind], originals[kind])
        t1 = time.perf_counter()
        if inject:
            sis_path = self.paths["sis"]
            sis_path.write_bytes(flip_byte_after(sis_path.read_bytes(), b'"target": [\n    '))
        t2 = time.perf_counter()
        decoded = {kind: serialize.read_instance(self.paths[kind], name) for kind, name in KIND_FILES}
        t3 = time.perf_counter()
        return Op(total_s=(t1 - t0) + (t3 - t2), read_s=t3 - t2, write_s=t1 - t0, output=(originals, decoded))

    def run_op(self, i: int) -> Op:
        return self._roundtrip(self.pool[i % self.POOL], inject=self.inject and i == 0)

    def check(self, i: int, op: Op) -> None:
        originals, decoded = op.output
        for kind, _ in KIND_FILES:
            written = self.paths[kind].read_bytes()
            op.out_bytes += len(written)
            if decoded[kind] != originals[kind]:
                op.failures.append(f"{kind}: read_instance(write_instance(x)) != x")
            if serialize.canonical_bytes(decoded[kind]) != written:
                op.failures.append(f"{kind}: rewriting the decoded instance changes its bytes")
        op.output = None


class CliChain(Workload):
    """One ``check chain`` process per op, through the benchmark's child wrapper."""

    speed_reference = speed.PROCESS
    SHAPE = (2, 2, 2, 2, 2, 1)

    def setup(self) -> None:
        fixtures = Path(serialize.__file__).resolve().parent / "fixtures"
        self.inputs = [fixtures / f"{name}.json" for name in CLI_FIXTURES]
        for k in range(2):
            planted = genlab.gen_label_cover(spec(self.SHAPE, self.seed * 1000 + k))
            twisted = unsatisfiable_twist(planted, 1, self.seed * 1000 + 100 * k)
            for tag, lc in (("planted", planted), ("frustrated", twisted)):
                path = self.workdir / f"lc{k}_{tag}.json"
                serialize.write_instance(path, lc)
                self.inputs.append(path)
        self.expected = {
            path: serialize.canonical_bytes(pipeline.run_chain(serialize.read_instance(path, "label_cover")))
            for path in self.inputs
        }
        self.env = dict(os.environ)
        self.env.pop("GAPFORGE_MAX_STATES", None)
        src = str(Path(serialize.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.peak_child_kb = 0
        warm = self._spawn(self.inputs[0], traced=False)
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up process failed: {warm.stderr.decode(errors='replace')}")

    def _spawn(self, path: Path, traced: bool) -> subprocess.CompletedProcess:
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        if traced:
            argv.append("--trace")
        argv += ["check", "chain", "--in", str(path)]
        return subprocess.run(argv, capture_output=True, env=self.env, timeout=120)

    def run_op(self, i: int) -> Op:
        path = self.inputs[i % len(self.inputs)]
        span = None
        t0 = time.perf_counter()
        if self.tracer is not None and self.tracer.active:
            with self.tracer.span("cli.process") as span:
                proc = self._spawn(path, traced=True)
        else:
            proc = self._spawn(path, traced=False)
        t1 = time.perf_counter()
        return Op(total_s=t1 - t0, out_bytes=len(proc.stdout), output=(proc, span))

    def check(self, i: int, op: Op) -> None:
        proc, span = op.output
        op.output = None
        stdout = proc.stdout
        if self.inject and i == 0:
            stdout = flip_byte_after(stdout, b'"all_checks_passed": ')
        if proc.returncode != 0:
            op.failures.append(f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
            return
        if stdout != self.expected[self.inputs[i % len(self.inputs)]]:
            op.failures.append("stdout differs from canonical_bytes(run_chain(lc)) computed in-process")
        timings: dict[str, Any] = json.loads(proc.stderr.decode().splitlines()[-1])
        op.read_s = timings["read_s"]
        op.write_s = timings["write_s"]
        self.peak_child_kb = max(self.peak_child_kb, timings["maxrss_kb"])
        if span is not None:
            self.tracer.adopt(timings["trace"], span)


WORKLOADS: dict[str, type[Workload]] = {
    "chain_oracle": ChainOracle,
    "files_roundtrip": FilesRoundtrip,
    "cli_chain": CliChain,
}


def peak_rss_mb(workload: Workload) -> float:
    """The benchmark's own peak RSS, or for ``cli_chain`` the largest ``check chain`` process's.

    ``cli_chain`` takes it from the children's reports, because ``RUSAGE_CHILDREN``
    would also count the reference processes of ``speed.py``.
    """
    import resource

    if isinstance(workload, CliChain):
        return workload.peak_child_kb / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

