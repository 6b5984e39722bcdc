"""The gapforge benchmark: one run of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_oracle --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout, never from an
installed copy.  The run builds its inputs from ``--seed``, sets up, then
runs ops closed loop, one in flight, until ``--seconds`` have passed, and
checks every op's output.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Every time among them is
at reference speed (``speed.py``): a fixed reference runs between ops and
between set-up probes, and each time is scaled by the references around it,
so that the host's drift in speed does not enter the figures.  ``setup_s`` is
the median of five fresh processes that each import, build the inputs and
warm up (``--setup-probe``), then exit.  The wall-clock figures are printed
in the table above the result line, not gated.

``--trace 1`` alternates steps with the span wrappers installed and removed,
reports the per-layer metrics from the traced ops and the traced-minus-
untraced ``op_s_p50`` as the tracing overhead, and writes the spans and a
per-layer self-time table under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("chain_oracle", "files_roundtrip", "cli_chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="input size; tiny is for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one byte of the first op's output (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path and prove it is what loads."""
    src = root / "src"
    if not (src / "gapforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no gapforge sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import gapforge

    if Path(gapforge.__file__).resolve().parent != (src / "gapforge").resolve():
        raise SystemExit(f"error: gapforge was imported from {gapforge.__file__}, not from {src}")


def setup_seconds(args: argparse.Namespace, root: Path) -> tuple[float, float]:
    """The median set-up time of fresh processes, at reference speed and on the wall clock."""
    import speed

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    scaled, wall = [], []
    ref_before = speed.PROCESS.measure()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, capture_output=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
        ref_after = speed.PROCESS.measure()
        scaled.append(wall[-1] * speed.PROCESS.nominal_s * 2 / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(wall)


def run_loop(workload, tracer, seconds: float) -> list:
    """Closed loop, one op in flight; with a tracer, even steps are traced.

    Without a tracer the workload's reference runs after every op, and before the first.
    """
    from workloads import Op

    ops = []
    ref_before = workload.speed_reference.measure() if tracer is None else 0.0
    deadline = time.perf_counter() + seconds
    step = 0
    while True:
        traced = tracer is not None and step % 2 == 0
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        for _ in range(workload.ops_per_step):
            i = len(ops)
            if traced:
                tracer.begin_op(i)
            try:
                op = workload.run_op(i)
            except Exception:
                op = Op(failures=[traceback.format_exc()])
            finally:
                if traced:
                    tracer.end_op()
            if tracer is None:
                ref_after = workload.speed_reference.measure()
                op.reference_s = (ref_before + ref_after) / 2
                ref_before = ref_after
            op.traced = traced
            if not op.failures:
                try:
                    workload.check(i, op)
                except Exception:
                    op.failures.append(traceback.format_exc())
            for failure in op.failures[:1]:
                print(f"op {i} failed: {failure}", file=sys.stderr)
            ops.append(op)
        step += 1
        # a traced run needs at least one untraced step to measure the overhead
        if time.perf_counter() >= deadline and (tracer is None or step >= 2):
            break
    if tracer is not None:
        tracer.uninstall()
    return ops


def end_to_end(ops: list, workload) -> tuple[dict, dict]:
    """The gated metrics but ``setup_s``, and the printed-only ones.

    Times are at reference speed; throughput counts the ops' own time only.
    """
    from workloads import peak_rss_mb

    good = [op for op in ops if not op.failures]
    if not good:
        return {}, {}
    scale = [workload.speed_reference.nominal_s / op.reference_s for op in good]
    total = [op.total_s * k for op, k in zip(good, scale)]
    gated = {
        "ops_per_s": (len(good) / sum(total), "1/s"),
        "op_s_p50": (statistics.median(total), "s"),
        "file_bytes": (statistics.median(op.out_bytes for op in good), "B"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    printed = {
        "write_s_p50": (statistics.median(op.write_s * k for op, k in zip(good, scale)), "s"),
        "read_s_p50": (statistics.median(op.read_s * k for op, k in zip(good, scale)), "s"),
        "wall.ops_per_s": (len(good) / sum(op.total_s for op in good), "1/s"),
        "wall.op_s_p50": (statistics.median(op.total_s for op in good), "s"),
        "wall.reference_s_p50": (statistics.median(op.reference_s for op in good), "s"),
    }
    return gated, printed


def per_layer(ops: list, tracer, args: argparse.Namespace) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced ops, the tracing overhead, and the trace files."""
    import spans

    traced = {i for i, op in enumerate(ops) if op.traced and not op.failures}
    untraced = [op.total_s for op in ops if not op.traced and not op.failures]
    if not traced or not untraced:
        return {}
    metrics = spans.layer_metrics(tracer, traced)
    # every layer's self time, without the benchmark's own time inside the op
    layer_sums, own = [], []
    for i in traced:
        table = spans.self_times(tracer, {i})
        own.append(table.pop(spans.ROOT)[2])
        layer_sums.append(sum(row[2] for row in table.values()))
    layer_sum = statistics.median(layer_sums)
    p50_t = statistics.median(ops[i].total_s for i in traced)
    p50_u = statistics.median(untraced)
    overhead = p50_t - p50_u
    metrics["trace.op_s_p50_traced"] = (p50_t, "s")
    metrics["trace.op_s_p50_untraced"] = (p50_u, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.self_time_sum_s"] = (layer_sum, "s")

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, op, data in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op, "data": data}) + "\n")
        for (name, parent, op), (calls, total) in tracer.kernels.items():
            fh.write(json.dumps({"kernel": name, "parent": parent, "op": op,
                                 "calls": calls, "total_s": total}) + "\n")
    gap = layer_sum - p50_u
    lines = [f"{args.workload} seed {args.seed}: {len(traced)} traced ops, {len(untraced)} untraced ops", ""]
    lines += spans.format_table(spans.self_times(tracer, traced), len(traced))
    lines += [
        "",
        f"layer self times, summed per traced op (p50)   {layer_sum:.6f} s",
        f"benchmark's own time inside a traced op (p50)  {statistics.median(own):.6f} s",
        f"traced op_s_p50                                {p50_t:.6f} s",
        f"untraced op_s_p50                              {p50_u:.6f} s",
        f"tracing overhead (traced - untraced)           {overhead:+.6f} s",
        f"layer sum - untraced op_s_p50 = {gap:+.6f} s: "
        + ("within the tracing overhead" if abs(gap) <= abs(overhead) else
           "NOT within the tracing overhead; traced and untraced ops alternate, so the"
           " machine's speed drift between them enters the overhead estimate"),
    ]
    Path(f"{stem}.selftime.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # before set-up, so that generation is traced
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.size, args.seed, Path(workdir), tracer, args.inject_fault)
        workload.setup()
        if args.setup_probe:
            return 0
        ops = run_loop(workload, tracer, args.seconds)
        printed: dict = {}
        if tracer is None:
            metrics, printed = end_to_end(ops, workload)
            if metrics:
                setup_s, wall_setup_s = setup_seconds(args, root)
                metrics = {"setup_s": (setup_s, "s"), **metrics}
                printed["wall.setup_s"] = (wall_setup_s, "s")
        else:
            metrics = per_layer(ops, tracer, args)
    failed = sum(1 for op in ops if op.failures)
    print(f"{'metric':<44} {'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g}  {unit}")
    for name, (value, unit) in printed.items():
        print(f"{name:<44} {value:>16.6g}  {unit} (printed, not gated)")
    print(f"{'failed_ratio':<44} {failed / len(ops):>16.6g}  ({failed} of {len(ops)} ops)")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
