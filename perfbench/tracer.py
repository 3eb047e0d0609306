"""In-memory span tracer that wraps pdmp_lab's public entry points from outside.

Each wrapped call records one span: name, op id, parent span, thread id,
``perf_counter`` start and end, thread CPU time, and counts computed from the
call's arguments and return value. Spans stay in memory until ``dump``.

A function is wrapped at the site where its consuming module imported it
(``pdmp_lab.simulate.invert_holding``, ``pdmp_lab.cli.measure_distance``),
so the program's own call goes through the wrapper; a method is wrapped on
its class. The program's source is not touched.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict


def _replica_steps(ens) -> int:
    return sum(int(taus.shape[0]) * (int(taus.shape[1]) - 1) for taus, _, _ in ens.chunks)


# (layer name, owner path, attribute, counts(args, kwargs, result) -> dict)
# An owner is a module (the consumer's import site) or "module:Class" (a method).
WRAPS = [
    ("hazard.invert_holding", "pdmp_lab.simulate", "invert_holding",
     lambda a, k, r: {"atoms": len(a[2])}),
    ("hazard.invert_holding", "pdmp_lab.transforms", "invert_holding",
     lambda a, k, r: {"atoms": len(a[2])}),
    ("simulate.run_ensemble", "pdmp_lab.cli", "run_ensemble",
     lambda a, k, r: {"replica_steps": _replica_steps(r)}),
    ("simulate.run_ensemble", "pdmp_lab.diagnostics", "run_ensemble",
     lambda a, k, r: {"replica_steps": _replica_steps(r)}),
    ("simulate.jump_count_pmf", "pdmp_lab.simulate", "jump_count_pmf",
     lambda a, k, r: {"replicas": int(a[2])}),
    ("simulate.occupation_from_ensemble", "pdmp_lab.cli", "occupation_from_ensemble",
     lambda a, k, r: {"samples": len(r.ys)}),
    ("simulate.chain_measure", "pdmp_lab.cli", "chain_measure",
     lambda a, k, r: {"atoms": r.n_atoms}),
    ("jumps.sample_vec", "pdmp_lab.jumps:PostJumpKernel", "sample_vec",
     lambda a, k, r: {"atoms": len(a[1])}),
    ("flows.evaluate", "pdmp_lab.flows:AffineExpFlow", "evaluate", None),
    ("flows.evaluate", "pdmp_lab.flows:FrozenFlow", "evaluate", None),
    ("flows.evaluate", "pdmp_lab.flows:ExpandingFlow", "evaluate", None),
    ("transforms.chain_to_flow", "pdmp_lab.cli", "chain_to_flow_stationary",
     lambda a, k, r: {"atoms": a[1].n_atoms}),
    ("transforms.flow_to_chain", "pdmp_lab.cli", "flow_to_chain_stationary",
     lambda a, k, r: {"atoms": a[1].n_atoms}),
    ("metrics.measure_distance", "pdmp_lab.cli", "measure_distance", None),
    ("metrics.bl_lower_bound", "pdmp_lab.metrics", "bl_lower_bound",
     lambda a, k, r: {"atoms": a[0].n_atoms + a[1].n_atoms}),
    ("metrics.wasserstein1_1d", "pdmp_lab.metrics", "wasserstein1_1d",
     lambda a, k, r: {"atoms": len(a[0]) + len(a[2])}),
    ("state.restrict_regime", "pdmp_lab.state:WeightedEmpiricalMeasure", "restrict_regime", None),
    ("grid.build_grid_model", "pdmp_lab.cli", "build_grid_model",
     lambda a, k, r: {"states": r.n_states, "matrix_bytes": 5 * r.n_states ** 2 * 8}),
    ("grid.power_iteration", "pdmp_lab.grid", "power_iteration", None),
    ("grid.check_factorization", "pdmp_lab.cli", "check_factorization", None),
    ("grid.oracle_correspondence", "pdmp_lab.cli", "oracle_correspondence", None),
    ("diagnostics.run_assumption_suite", "pdmp_lab.cli", "run_assumption_suite", None),
    ("diagnostics.verify_drift_empirically", "pdmp_lab.cli", "verify_drift_empirically", None),
    ("cli.main", "pdmp_lab.cli", "main", None),
    ("cli._write_csv", "pdmp_lab.cli", "_write_csv",
     lambda a, k, r: {"rows": len(a[2][0]), "bytes": os.path.getsize(a[0])}),
    ("cli._write_json", "pdmp_lab.cli", "_write_json",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
]

# Per-layer figures reported from one traced job. Counts are summed over
# calls, except matrix_bytes, which is the largest single grid (its working set).
LAYER_FIELDS = {
    "hazard.invert_holding": ("calls", "atoms", "self_s", "wait_s"),
    "simulate.run_ensemble": ("calls", "replica_steps", "self_s", "wait_s"),
    "simulate.jump_count_pmf": ("replicas", "self_s", "wait_s"),
    "simulate.occupation_from_ensemble": ("samples", "self_s"),
    "simulate.chain_measure": ("atoms", "self_s"),
    "jumps.sample_vec": ("atoms", "self_s"),
    "flows.evaluate": ("calls", "self_s"),
    "transforms.chain_to_flow": ("atoms", "self_s"),
    "transforms.flow_to_chain": ("atoms", "self_s"),
    "metrics.bl_lower_bound": ("calls", "atoms", "self_s"),
    "metrics.wasserstein1_1d": ("atoms", "self_s"),
    "metrics.measure_distance": ("self_s",),
    "state.restrict_regime": ("calls", "self_s"),
    "grid.build_grid_model": ("states", "matrix_bytes", "self_s"),
    "grid.power_iteration": ("calls", "self_s"),
    "grid.check_factorization": ("self_s",),
    "grid.oracle_correspondence": ("self_s",),
    "diagnostics.run_assumption_suite": ("self_s",),
    "diagnostics.verify_drift_empirically": ("self_s", "wait_s"),
    "cli.main": ("self_s",),
    "cli._write_csv": ("rows", "bytes", "self_s"),
    "cli._write_json": ("bytes", "self_s"),
}
MAX_FIELDS = {"matrix_bytes"}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans; one op (CLI invocation or library call) is live at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: str) -> None:
        """Mark the calling thread as the op thread for ``op_id``.

        A span opened on another thread (a pool worker) with no enclosing
        span of its own takes this op id and the op thread's innermost span
        as its parent, i.e. the call that dispatched it.
        """
        self.op_id = op_id
        self._op_stack = self._stack()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else None
            op_id = self.op_id
            stack.append(span_id)
            done = False
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                extra = counts(args, kwargs, result) if done and counts is not None else {}
                self.spans.append((span_id, parent, name, op_id, threading.get_ident(),
                                   t0, t1, c1 - c0, extra))
            return result

        return traced

    def install(self) -> None:
        for name, owner_path, attr, counts in WRAPS:
            owner = _resolve(owner_path)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "op", "thread", "start", "end", "cpu", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], op_thread: int) -> dict[str, float]:
    """Per-layer counts, self time and waiting from one traced job.

    Self time is a span's duration minus its child spans on the same thread;
    ``wait_s`` is the part of self time the thread spent off CPU (GIL,
    scheduler, or blocked on a pool). Also returns ``trace.self_sum_s``, the
    self times on the op thread, which partition the traced job's wall time.
    """
    child_dur = defaultdict(float)
    child_cpu = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            child_dur[parent["id"]] += s["end"] - s["start"]
            child_cpu[parent["id"]] += s["cpu"]
    totals = defaultdict(float)
    self_sum = 0.0
    for s in spans:
        self_s = (s["end"] - s["start"]) - child_dur[s["id"]]
        self_cpu = s["cpu"] - child_cpu[s["id"]]
        layer = s["name"]
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_s"] += self_s
        totals[f"{layer}.wait_s"] += max(0.0, self_s - self_cpu)
        for key, value in s["counts"].items():
            full = f"{layer}.{key}"
            totals[full] = max(totals[full], value) if key in MAX_FIELDS else totals[full] + value
        if s["thread"] == op_thread:
            self_sum += self_s
    out = {f"{layer}.{f}": float(totals.get(f"{layer}.{f}", 0.0))
           for layer, fields in LAYER_FIELDS.items() for f in fields}
    out["trace.self_sum_s"] = self_sum
    return out
