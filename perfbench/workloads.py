"""One job of one benchmark workload, run in a fresh worker process.

``run.py`` starts this file once per repetition. Set-up is interpreter start,
the numpy and pdmp_lab imports and config generation; it ends when the first
op starts. The ops then run one at a time (closed loop). An op is one
``pdmp_lab.cli.main`` invocation or one ``pdmp_lab.simulate.jump_count_pmf``
call. Its output checks run after it, outside its timing. Progress goes to
the parent as JSON lines on ``--event-fd``, so the parent can time set-up,
enforce a per-op time limit and read each op's result.

Every input is generated from a shipped ``configs/*.json`` with only the seed
and sizes replaced, into a temporary directory; the program sees nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pdmp_lab.cli  # noqa: E402
import pdmp_lab.simulate  # noqa: E402
from pdmp_lab.models import build_model  # noqa: E402
from tracer import Tracer  # noqa: E402

# Sizes. The verify workloads keep the shipped sizes of their config, including
# the default of 20k drift replicas.
GRID_REFINE = (("gene_saturating.json", (400, 800, 1600)), ("two_regime.json", (400, 800)))
PMF_REPLICAS = 20_000
PMF_TIMES = (0.5, 1.0, 2.0)
PMF_MAX_COUNT = 12
# One-sided z for the jump-count envelope. Criterion 07 uses 3 s.e. per cell
# at one fixed seed; here every run draws a new seed, and at y0 = 0 the n = 0
# cells sit exactly on the envelope. 4.0 is the Bonferroni equivalent of a
# 3-s.e. test over the 33 cells checked, so honest runs fail ~1e-4 of the time.
ENVELOPE_Z = 4.0
FIXED_POINT_SUM_TOL = 1e-9
CLI_OUTPUTS = {
    "simulate": ("chain.csv", "occupation.csv", "summary.json"),
    "correspondence": ("distances.json",),
    "oracle": ("oracle.json", "fixed_point.csv"),
    "diagnostics": ("diagnostics.json",),
}


def write_config(tmp: Path, shipped: str, label: str, seed: int,
                 nodes: int | None = None) -> tuple[Path, dict]:
    """Shipped config with its seed, and optionally its grid size, replaced."""
    cfg = json.loads((ROOT / "configs" / shipped).read_text())
    cfg["seed"] = seed
    if nodes is not None:
        cfg["grid"] = {**cfg["grid"], "nodes": nodes}
    cfg["out_dir"] = str(tmp / "out" / label)
    path = tmp / "configs" / f"{label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2))
    return path, cfg


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliOp:
    """One ``pdmp-lab <command>`` invocation and the checks on its outputs."""

    def __init__(self, name: str, group: str, command: str, config: Path, cfg: dict,
                 out: Path, threads: int = 1):
        self.name, self.group, self.command = name, group, command
        self.config, self.cfg, self.out, self.threads = config, cfg, out, threads

    def run(self):
        argv = [self.command, "--config", str(self.config), "--out", str(self.out),
                "--threads", str(self.threads)]
        return pdmp_lab.cli.main(argv)

    def check(self, code) -> tuple[list[str], dict]:
        if code != 0:
            return [f"exit code {code}{self._reason()}"], {}
        problems, hashes = [], {}
        for fname in CLI_OUTPUTS[self.command]:
            path = self.out / fname
            if not path.is_file():
                problems.append(f"{fname} missing")
                continue
            data = path.read_bytes()
            hashes[fname] = _digest(data)
            try:
                problems += self._parse(fname, data)
            except ValueError as exc:
                problems.append(f"{fname} does not parse: {exc}")
        return problems, hashes

    def _reason(self) -> str:
        """What the op's JSON output says failed, when it exited nonzero."""
        failed = []
        for fname in CLI_OUTPUTS[self.command]:
            path = self.out / fname
            if not fname.endswith(".json") or not path.is_file():
                continue
            try:
                payload = json.loads(path.read_bytes())
            except ValueError:
                continue
            failed += payload.get("tolerance_failures") or []
            failed += [c["name"] for c in payload.get("assumptions", {}).get("checks", [])
                       if c["passed"] is False]
            failed += [f"drift probe y={p['location']}"
                       for p in (payload.get("drift") or {}).get("probes", []) if not p["ok"]]
        return f" ({', '.join(map(str, failed))} failed)" if failed else ""

    def _parse(self, fname: str, data: bytes) -> list[str]:
        if fname.endswith(".json"):
            payload = json.loads(data)
            if payload.get("tolerance_failures"):
                return [f"{fname}: {payload['tolerance_failures']}"]
            return []
        header, _, body = data.decode().partition("\n")
        table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        cfg = self.cfg
        regimes = build_model(cfg["model"]["name"], cfg["model"]["params"]).n_regimes
        expected = {
            "chain.csv": ("n,tau,y,xi", cfg["chain_steps"] + 1),
            "occupation.csv": ("t,y,xi", cfg["replicas"] * cfg["occupation_samples_per_replica"]),
            "fixed_point.csv": ("y,i,weight", cfg["grid"]["nodes"] * regimes),
        }[fname]
        problems = []
        if (header, table.shape[0]) != expected:
            problems.append(f"{fname}: header/rows {header!r}/{table.shape[0]}, expected {expected}")
        if not np.isfinite(table).all():
            problems.append(f"{fname}: non-finite entries")
        if fname == "fixed_point.csv" and abs(table[:, 2].sum() - 1.0) > FIXED_POINT_SUM_TOL:
            problems.append(f"fixed_point.csv weights sum to {table[:, 2].sum():.17g}")
        return problems


class PmfOp:
    """One ``jump_count_pmf`` call, checked against the criterion-07 envelope."""

    def __init__(self, name: str, group: str, cfg: dict, seed: int, threads: int):
        self.name, self.group, self.cfg, self.seed, self.threads = name, group, cfg, seed, threads

    def run(self):
        model = build_model(self.cfg["model"]["name"], self.cfg["model"]["params"])
        return pdmp_lab.simulate.jump_count_pmf(
            model, PMF_TIMES, PMF_REPLICAS, (self.seed, 7),
            max_count=PMF_MAX_COUNT, threads=self.threads)

    def check(self, pmf) -> tuple[list[str], dict]:
        params = self.cfg["model"]["params"]
        lo, hi = params["lam_low"], params["lam_high"]
        worst = -math.inf
        for t in PMF_TIMES:
            for n in range(11):
                p = float(pmf[t][n])
                bound = math.exp(-lo * t) * (hi * t) ** n / math.factorial(n)
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / PMF_REPLICAS)
                worst = max(worst, p - bound - ENVELOPE_Z * se)
        problems = [] if worst <= 0.0 else [f"pmf above envelope by {worst:.3e}"]
        stacked = np.stack([pmf[t] for t in PMF_TIMES])
        return problems, {"pmf": _digest(stacked.tobytes())}


def build_job(workload: str, tmp: Path, seed: int, rep: int) -> list:
    out = tmp / "out"
    if workload == "grid-refine":
        ops = []
        for shipped, node_counts in GRID_REFINE:
            for nodes in node_counts:
                label = f"{shipped.split('.')[0]}-{nodes}"
                path, cfg = write_config(tmp, shipped, label, seed, nodes)
                ops.append(CliOp(f"oracle:{label}", "oracle", "oracle", path, cfg, out / label))
        return ops
    shipped = {"sat-verify": "gene_saturating.json", "two-regime-verify": "two_regime.json"}
    if workload not in shipped:
        raise SystemExit(f"unknown workload {workload!r}")
    path, cfg = write_config(tmp, shipped[workload], workload, seed)
    ops = [CliOp(c, c, c, path, cfg, out / c) for c in ("simulate", "correspondence", "oracle")]
    if workload == "two-regime-verify":
        return ops + [CliOp("diagnostics", "diagnostics", "diagnostics", path, cfg,
                            out / "diagnostics")]
    # sat-verify: the diagnostics op and a jump_count_pmf call, once at threads=1
    # and once at threads=nproc; the side that runs first alternates by job.
    sides = [("serial", 1), ("threaded", len(os.sched_getaffinity(0)))]
    if rep % 2:
        sides.reverse()
    for group, threads in sides:
        ops.append(CliOp(f"diagnostics@{group}", group, "diagnostics", path, cfg,
                         out / f"diagnostics-{group}", threads))
        ops.append(PmfOp(f"jump_count_pmf@{group}", group, cfg, seed, threads))
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--event-fd", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    tmp = Path(args.tmp)
    events = os.fdopen(args.event_fd, "w", buffering=1)

    def emit(**fields) -> None:
        events.write(json.dumps(fields) + "\n")

    if not Path(pdmp_lab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"pdmp_lab imported from {pdmp_lab.cli.__file__}, not {SRC}")
    ops = build_job(args.workload, tmp, args.seed, args.rep)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    emit(ev="ready", t=time.monotonic())
    if args.setup_only:
        return
    digests = {}
    for op in ops:
        emit(ev="op_start", op=op.name)
        if tracer is not None:
            tracer.begin_op(op.name)
        problems, result = [], None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        hashes = {}
        if not problems:
            problems, hashes = op.check(result)
        # "x@serial" and "x@threaded" must agree byte for byte (criterion 13).
        base = op.name.split("@")[0]
        problems += [f"output differs from {other}" for other, seen in digests.items()
                     if "@" in other and other.split("@")[0] == base and seen != hashes]
        digests[op.name] = hashes
        emit(ev="op_end", op=op.name, group=op.group, wall_s=wall, cpu_s=cpu,
             problems=problems, hashes=hashes)
    if tracer is not None:
        tracer.dump(args.trace_out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(ev="done", peak_rss_mb=peak_kb / 1024.0, op_thread=threading.get_ident())


if __name__ == "__main__":
    main()
