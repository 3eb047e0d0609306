"""pdmp-lab benchmark.

    python3 perfbench/run.py --workload sat-verify --seed 1 --seconds 20 --trace 0

Runs one workload (see ``perfbench/README.md``) as a closed loop: one job
after another, each in a fresh worker process (``workloads.py``) that runs its
ops one at a time, until the next job would overrun ``--seconds``. Each job's
inputs are generated from ``--seed``; every repetition in a run sees the same
inputs, and its outputs must be byte-identical to the first repetition's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (medians over the run's jobs); with ``--trace 1`` one more
job runs with every layer wrapped by ``tracer.py`` and the metrics are the
per-layer ones. Earlier lines carry the run metadata and the workload-specific
figures (per-subcommand and serial/threaded times, failure ratio).

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "sat-verify": ("gene_saturating.json",),
    "two-regime-verify": ("two_regime.json",),
    "grid-refine": ("gene_saturating.json", "two_regime.json"),
}
SETUP_PROBES = 4          # extra set-up-only workers per run, after one warm-up
OP_TIMEOUT_S = 60.0       # set-up, or an op with its checks, still running after this fails
TRACE_SLOWDOWN = 1.3      # budget for the traced job, relative to an untraced one
# Op groups whose summed wall time is a workload-specific end-to-end figure
# ("<group>_s"); each exists on only some workloads.
WORKLOAD_GROUPS = ("simulate", "correspondence", "serial", "threaded")


class Rep:
    """What one worker process reported."""

    def __init__(self):
        self.setup_s = None
        self.ops: list[dict] = []
        self.peak_rss_mb = None
        self.op_thread = None
        self.process_s = None
        self.complete = False

    @property
    def wall_s(self) -> float:
        return sum(op["wall_s"] for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op["cpu_s"] for op in self.ops)

    def group_s(self, group: str) -> float:
        return sum(op["wall_s"] for op in self.ops if op["group"] == group)


def spawn(args, tmp: Path, rep: int, setup_only=False, trace_out=None) -> Rep:
    """Run one worker to completion, enforcing the set-up and per-op limits."""
    work = tmp / f"rep{rep}"
    work.mkdir(parents=True)
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep),
           "--tmp", str(work), "--event-fd", str(write_fd)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    result = Rep()
    with open(tmp / "worker.stderr", "ab") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, pass_fds=(write_fd,), stdout=subprocess.DEVNULL,
                                stderr=err, cwd=ROOT)
        os.close(write_fd)
        try:
            current, timed_out = _follow(read_fd, t_spawn, result)
            if timed_out:
                proc.kill()
            try:
                code = proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                timed_out = True
                proc.kill()
                code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result.process_s = time.monotonic() - t_spawn
    if current is not None:
        result.ops.append({"op": current, "group": "", "wall_s": time.monotonic() - t_spawn,
                           "cpu_s": 0.0, "hashes": {},
                           "problems": ["time-out" if timed_out else f"worker exited with {code}"]})
    done = result.setup_s is not None if setup_only else result.op_thread is not None
    result.complete = code == 0 and done
    shutil.rmtree(work, ignore_errors=True)
    return result


def _follow(read_fd: int, t_spawn: float, result: Rep) -> tuple:
    """Read worker events into ``result`` until EOF or a missed deadline.

    Returns the op still running (None if none) and whether a deadline passed.
    """
    current, deadline, buf = None, t_spawn + OP_TIMEOUT_S, b""
    with selectors.DefaultSelector() as sel, os.fdopen(read_fd, "rb", buffering=0) as pipe:
        sel.register(pipe, selectors.EVENT_READ)
        while True:
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                return current, True
            chunk = pipe.read(65536)
            if not chunk:
                return current, False
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                ev = json.loads(line)
                if ev["ev"] == "ready":
                    result.setup_s = ev["t"] - t_spawn
                elif ev["ev"] == "op_start":
                    current = ev["op"]
                elif ev["ev"] == "op_end":
                    current = None
                    result.ops.append({k: ev[k] for k in
                                       ("op", "group", "wall_s", "cpu_s", "problems", "hashes")})
                elif ev["ev"] == "done":
                    result.peak_rss_mb = ev["peak_rss_mb"]
                    result.op_thread = ev["op_thread"]
                deadline = time.monotonic() + OP_TIMEOUT_S


def run_metadata(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
        "closed_loop": "one worker process, one op at a time",
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the worker and
    # remove the temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ["src/pdmp_lab/__init__.py"]
               + [f"configs/{c}" for c in WORKLOADS[args.workload]] if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark needs {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    setups = []
    for k in range(SETUP_PROBES + 1):
        probe = spawn(args, tmp, rep=k, setup_only=True)
        if not probe.complete:
            print(f"worker set-up failed; see stderr below\n"
                  f"{(tmp / 'worker.stderr').read_text()[-4000:]}", file=sys.stderr)
            return 2
        if k:
            setups.append(probe.setup_s)

    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        rep = spawn(args, tmp, rep=len(reps) + SETUP_PROBES + 1)
        reps.append(rep)
        if not rep.complete:
            break
        setups.append(rep.setup_s)
        per_job = statistics.fmean(r.process_s for r in reps)
        reserve = per_job * TRACE_SLOWDOWN if args.trace else 0.0
        if time.monotonic() - start + per_job + reserve > args.seconds:
            break
    traced, trace_out = None, tmp / "spans.jsonl"
    if args.trace and reps[-1].complete:
        traced = spawn(args, tmp, rep=len(reps) + SETUP_PROBES + 1, trace_out=trace_out)

    # Outputs must be byte-identical across repetitions (same config and seed).
    first = {op["op"]: op["hashes"] for op in reps[0].ops}
    for rep in reps[1:] + ([traced] if traced else []):
        for op in rep.ops:
            if not op["problems"] and op["hashes"] != first.get(op["op"]):
                op["problems"].append("outputs differ from the run's first repetition")
    every = [op for rep in reps + ([traced] if traced else []) for op in rep.ops]
    failed = sum(1 for op in every if op["problems"])
    complete = [r for r in reps if r.complete]
    wall = median([r.wall_s for r in complete])

    detail = {
        "reps": len(reps),
        "fail_ratio": failed / max(1, len(every)),
        "wall_s_per_rep": [r.wall_s for r in reps],
        "op_wall_s": {op["op"]: median([o["wall_s"] for r in complete for o in r.ops
                                        if o["op"] == op["op"]]) for op in reps[0].ops},
        **{f"{g}_s": median([r.group_s(g) for r in complete])
           for g in WORKLOAD_GROUPS if any(op["group"] == g for op in every)},
        "problems": sorted({f"{op['op']}: {p}" for op in every for p in op["problems"]}),
    }
    if args.trace:
        ok = traced is not None and traced.complete
        metrics = layer_metrics(load_spans(trace_out) if ok else [], ok and traced.op_thread)
        metrics["trace.wall_s"] = traced.wall_s if ok else 0.0
        metrics["trace.overhead_s"] = traced.wall_s - wall if ok else 0.0
        metrics["process.cpu_s"] = median([r.cpu_s for r in complete])
        for g in WORKLOAD_GROUPS:
            metrics[f"{g}_s"] = detail.get(f"{g}_s", 0.0)
        units = {k: ("s" if k.endswith("_s") else "B" if k.endswith("bytes") else "count")
                 for k in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": median(setups),
            "peak_rss_mb": median([r.peak_rss_mb for r in complete]),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({"meta": run_metadata(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and all(r.complete for r in reps)
        and (traced is None or traced.complete),
        "attempted": max(1, len(every)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
