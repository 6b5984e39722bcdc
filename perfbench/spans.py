"""In-memory spans around the public functions of each gapforge layer.

The tracer wraps functions from outside: it replaces every binding of a
target function in the loaded ``gapforge`` modules (including the names
already imported into ``gapforge.pipeline`` and ``gapforge.cli``), so a call
that ``run_chain`` makes into a layer is attributed to that layer.  Nothing
in the package is edited.

A span is ``[id, name, start, end, parent, op, data]`` with ``perf_counter``
times.  The per-state kernels run tens of thousands of times per op, so they
are not recorded one span per call: each keeps a call count and a total per
(kernel, parent span, op), which bounds the traced run's memory.  The self
time of a span is its duration minus its direct children's durations and the
kernel totals charged to it; the code is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Iterator, Optional

KINDS = ("lc", "ssat", "sis", "ncp", "lhp")
_KIND_OF_CLASS = {
    "LabelCoverInstance": "lc",
    "SsatInstance": "ssat",
    "SisInstance": "sis",
    "NcpInstance": "ncp",
    "LhpSystem": "lhp",
}
REDUCTIONS = ("lc_to_ssat", "ssat_to_sis", "sis_to_ncp", "sis_to_lhp")

# (module, function, span name, where "{kind}" comes from, counter taken after the op)
SPAN_TARGETS = (
    ("oracles", "solve_lc_max", "oracles.solve_lc", None, "oracle"),
    ("oracles", "solve_ssat_min_norm", "oracles.solve_ssat", None, "oracle"),
    ("oracles", "solve_sis_min", "oracles.solve_sis", None, "oracle"),
    ("oracles", "solve_ncp_min", "oracles.solve_ncp", None, "oracle"),
    ("oracles", "solve_lhp_min", "oracles.solve_lhp", None, "oracle"),
    ("reductions", "lc_to_ssat", "reductions.lc_to_ssat", None, None),
    ("reductions", "ssat_to_sis", "reductions.ssat_to_sis", None, None),
    ("reductions", "sis_to_ncp", "reductions.sis_to_ncp", None, "ncp_rows"),
    ("reductions", "sis_to_lhp", "reductions.sis_to_lhp", None, "lhp_rows"),
    ("serialize", "read_instance", "serialize.{kind}.read", "result", None),
    ("serialize", "from_document", "serialize.{kind}.from_document", "result", None),
    ("serialize", "write_instance", "serialize.{kind}.write", 1, None),
    ("serialize", "canonical_bytes", "serialize.{kind}.canonical_bytes", 0, "bytes"),
    ("serialize", "content_hash", "serialize.content_hash", None, None),
    ("pipeline", "run_chain", "pipeline.run_chain", None, None),
    ("genlab", "gen_label_cover", "genlab.gen_label_cover", None, None),
    ("genlab", "frustrate", "genlab.frustrate", None, None),
)
# (module, attribute path, name): per-state kernels, counted rather than spanned
KERNEL_TARGETS = (
    ("instances", "NcpInstance.distance", "instances.ncp_distance"),
    ("instances", "SisInstance.multiply", "instances.sis_multiply"),
    ("oracles", "count_lhp_violations", "oracles.count_lhp_violations"),
    ("superassign", "is_consistent", "superassign.is_consistent"),
)
ROOT = "bench.op"


def kind_of(obj: Any) -> str:
    if isinstance(obj, dict):
        return str(obj.get("kind", "document"))
    return _KIND_OF_CLASS.get(type(obj).__name__, type(obj).__name__)


class Tracer:
    """Spans and kernel totals for one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.kernels: dict[tuple[str, Optional[int], Any], list] = {}
        self.op: Any = None
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self._pending: list[tuple[list[Any], str, Callable, tuple, dict, Any]] = []

    @property
    def active(self) -> bool:
        return bool(self._installed)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list[Any]) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def begin_op(self, op: Any) -> None:
        self.op = op
        self._open(ROOT)

    def end_op(self) -> None:
        self._close(self.spans[self._stack[-1]])
        self.finish_op()
        self.op = None

    def _span_wrapper(self, fn: Callable, name: str, kind_from: Any, counter: Optional[str]) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if kind_from is not None:
                    obj = result if kind_from == "result" else args[kind_from]
                    span[1] = name.format(kind=kind_of(obj) if obj is not None else "unknown")
                if counter is not None and result is not None:
                    self._pending.append((span, counter, fn, args, kwargs, result))

        return wrapper

    def _kernel_wrapper(self, fn: Callable, name: str) -> Callable:
        perf = time.perf_counter
        kernels = self.kernels
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                key = (name, stack[-1] if stack else None, self.op)
                acc = kernels.get(key)
                if acc is None:
                    kernels[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    # -- installation ------------------------------------------------------------

    def _rebind(self, target: Callable, wrapper: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gapforge" or mod_name.startswith("gapforge.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._installed.append((module, attr, target))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target wherever it is bound; ``uninstall`` undoes it."""
        if self._installed:
            return
        for mod in ("cli", "genlab", "oracles", "pipeline", "reductions", "serialize"):
            importlib.import_module(f"gapforge.{mod}")
        for mod, fn_name, name, kind_from, counter in SPAN_TARGETS:
            fn = getattr(sys.modules[f"gapforge.{mod}"], fn_name)
            self._rebind(fn, self._span_wrapper(fn, name, kind_from, counter))
        for mod, path, name in KERNEL_TARGETS:
            owner: Any = sys.modules[f"gapforge.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._kernel_wrapper(fn, name)
            if outer:
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(fn, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- counters taken after the op, outside every span --------------------------

    def finish_op(self) -> None:
        """Fill the counters of the spans recorded since the last call.

        Each oracle call is repeated with ``max_states=0`` so that it raises
        ``SearchSpaceTooLarge`` carrying the number of states it budgets.
        """
        from gapforge.errors import SearchSpaceTooLarge
        from gapforge.oracles import SearchBudget

        for span, counter, fn, args, kwargs, result in self._pending:
            if counter == "bytes":
                span[6] = {"bytes": len(result)}
            elif counter == "ncp_rows":
                span[6] = {"rows": result.num_rows, "distinct": len(set(zip(result.matrix, result.target)))}
            elif counter == "lhp_rows":
                span[6] = {"rows": len(result.inequalities), "distinct": len(set(result.inequalities))}
            else:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                real = bound.arguments["budget"]
                bound.arguments["budget"] = SearchBudget(coeff_box=real.coeff_box, max_states=0, mode=real.mode)
                try:
                    fn(*bound.args, **bound.kwargs)
                    budgeted = result.states_visited
                except SearchSpaceTooLarge as exc:
                    budgeted = exc.states
                span[6] = {"states": result.states_visited, "states_budgeted": budgeted}
        self._pending.clear()

    # -- transport between processes --------------------------------------------

    def export(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "kernels": [[name, parent, calls, total] for (name, parent, _), (calls, total) in self.kernels.items()],
        }

    def adopt(self, exported: dict[str, Any], parent: list[Any]) -> None:
        """Graft a child process's spans under ``parent``, in ``parent``'s op."""
        offset = len(self.spans)
        op = parent[5]
        for sid, name, start, end, par, _, data in exported["spans"]:
            self.spans.append([sid + offset, name, start, end,
                               parent[0] if par is None else par + offset, op, data])
        for name, par, calls, total in exported["kernels"]:
            key = (name, parent[0] if par is None else par + offset, op)
            acc = self.kernels.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += total


# -----------------------------------------------------------------------------
# Aggregation
# -----------------------------------------------------------------------------

def self_times(tracer: Tracer, ops: set) -> dict[str, list]:
    """Per span name over ``ops``: [calls, total seconds, self seconds]."""
    child_time: dict[int, float] = {}
    table: dict[str, list] = {}
    for (name, parent, op), (calls, total) in tracer.kernels.items():
        if op in ops:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + total
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += total
    for span in tracer.spans:
        if span[4] is not None and span[5] in ops:
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
    for span in tracer.spans:
        if span[5] in ops:
            dur = span[3] - span[2]
            row = table.setdefault(span[1], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time.get(span[0], 0.0)
    return table


def layer_metrics(tracer: Tracer, ops: set) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per traced op; genlab's per set-up."""
    n = max(len(ops), 1)
    table = self_times(tracer, ops)
    setup = self_times(tracer, {None})

    def row(name: str, tab: dict = table) -> list:
        return tab.get(name, [0, 0.0, 0.0])

    def data_sum(name: str, key: str) -> float:
        return sum((s[6] or {}).get(key, 0) for s in tracer.spans if s[1] == name and s[5] in ops)

    out: dict[str, tuple[float, str]] = {}
    for kind in KINDS:
        name = f"oracles.solve_{kind}"
        calls, total, _ = row(name)
        states = data_sum(name, "states")
        out[f"{name}.s"] = (total / n, "s")
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.states"] = (states / n, "count")
        out[f"{name}.states_budgeted"] = (data_sum(name, "states_budgeted") / n, "count")
        out[f"{name}.us_per_state"] = (total / states * 1e6 if states else 0.0, "us")
    for _, _, name in KERNEL_TARGETS:
        calls, total, _ = row(name)
        out[f"{name}.s"] = (total / n, "s")
        out[f"{name}.calls"] = (calls / n, "count")
    for kind in KINDS:
        for suffix in ("read", "from_document", "write", "canonical_bytes"):
            calls, total, _ = row(f"serialize.{kind}.{suffix}")
            out[f"serialize.{kind}.{suffix}_s"] = (total / n, "s")
            out[f"serialize.{kind}.{suffix}_calls"] = (calls / n, "count")
        out[f"serialize.{kind}.bytes"] = (data_sum(f"serialize.{kind}.canonical_bytes", "bytes") / n, "B")
    calls, total, _ = row("serialize.content_hash")
    out["serialize.content_hash.s"] = (total / n, "s")
    out["serialize.content_hash.calls"] = (calls / n, "count")
    for fn_name in REDUCTIONS:
        calls, total, _ = row(f"reductions.{fn_name}")
        out[f"reductions.{fn_name}.s"] = (total / n, "s")
        out[f"reductions.{fn_name}.calls"] = (calls / n, "count")
    out["reductions.ncp_rows"] = (data_sum("reductions.sis_to_ncp", "rows") / n, "count")
    out["reductions.ncp_distinct_rows"] = (data_sum("reductions.sis_to_ncp", "distinct") / n, "count")
    out["reductions.lhp_inequalities"] = (data_sum("reductions.sis_to_lhp", "rows") / n, "count")
    out["reductions.lhp_distinct_inequalities"] = (data_sum("reductions.sis_to_lhp", "distinct") / n, "count")
    calls, total, self_s = row("pipeline.run_chain")
    out["pipeline.run_chain.s"] = (total / n, "s")
    out["pipeline.run_chain.self_s"] = (self_s / n, "s")
    out["pipeline.run_chain.calls"] = (calls / n, "count")
    process, imp, main = row("cli.process"), row("cli.import"), row("cli.main")
    out["cli.process_s"] = (process[1] / n, "s")
    out["cli.import_s"] = (imp[1] / n, "s")
    out["cli.main_s"] = (main[1] / n, "s")
    out["cli.startup_s"] = (process[2] / n, "s")
    out["cli.calls"] = (process[0] / n, "count")
    for name in ("genlab.gen_label_cover", "genlab.frustrate"):
        calls, total, _ = row(name, setup)
        out[f"{name}.s"] = (total, "s")
        out[f"{name}.calls"] = (calls, "count")
    return out


def format_table(table: dict[str, list], n: int) -> list[str]:
    lines = [f"{'span':<46} {'calls/op':>10} {'total s/op':>12} {'self s/op':>12}"]
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<46} {calls / n:>10.1f} {total / n:>12.6f} {self_s / n:>12.6f}")
    return lines
