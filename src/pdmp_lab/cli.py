"""Config-driven experiment runner.

Four subcommands (simulate, correspondence, oracle, diagnostics) read one
JSON config document, run a batch experiment, and write plot-ready CSV/JSON
files. Outputs are byte-identical for identical (config, seed) and do not
depend on the thread count. Exit codes: 0 success, 2 config error, 3 a
declared tolerance or positive-model check failed, 4 a numerical solver
failed (hazard inversion or thinning hit its iteration cap, adaptive
quadrature did not converge, power iteration did not converge); the last
prints one ``solver failure: ...`` line to stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import drift_constants, run_assumption_suite, verify_drift_empirically
from .grid import build_grid_model, check_factorization, oracle_correspondence
from .metrics import measure_distance
from .models import ModelSpec, build_model
from .simulate import chain_measure, occupation_from_ensemble, run_ensemble
from .transforms import chain_to_flow_stationary, flow_to_chain_stationary


class ConfigError(ValueError):
    pass


class ToleranceFailure(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    """Validated form of the JSON config document.

    The seed is mandatory: every run must be reproducible. Tolerances are
    optional expectations; violating one makes the subcommand exit with
    code 3 after still writing its outputs. ``threads`` falls back to the
    PDMP_LAB_THREADS environment variable, then 1, when the document has no
    ``threads`` entry.
    """

    model_name: str
    model_params: dict
    seed: int
    replicas: int = 200
    chain_steps: int = 400
    chain_burn_in_steps: int = 80
    horizon: float = 200.0
    time_burn_in: Optional[float] = None
    occupation_samples_per_replica: int = 400
    grid_nodes: int = 200
    grid_time_cells: int = 2000
    grid_theta_cells: int = 1000
    grid_y_max: Optional[float] = None
    eta_time: float = 2.0
    threads: int = 1
    out_dir: str = "."
    tolerances: dict = field(default_factory=dict)
    drift_probes: tuple = (0.0, 1.0, 2.0, 4.0, 8.0)
    drift_replicas: int = 20_000
    dump_grid_matrices: bool = False

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        model = raw.get("model")
        if not isinstance(model, dict) or "name" not in model:
            raise ConfigError("config needs a 'model' object with a 'name'")
        if "seed" not in raw:
            raise ConfigError("config needs an explicit 'seed' (reproducibility contract)")
        grid = raw.get("grid", {})
        cfg = cls(
            model_name=str(model["name"]),
            model_params=dict(model.get("params", {})),
            seed=int(raw["seed"]),
            replicas=int(raw.get("replicas", 200)),
            chain_steps=int(raw.get("chain_steps", 400)),
            chain_burn_in_steps=int(raw.get("chain_burn_in_steps", 80)),
            horizon=float(raw.get("horizon", 200.0)),
            time_burn_in=(None if raw.get("time_burn_in") is None else float(raw["time_burn_in"])),
            occupation_samples_per_replica=int(raw.get("occupation_samples_per_replica", 400)),
            grid_nodes=int(grid.get("nodes", 200)),
            grid_time_cells=int(grid.get("time_cells", 2000)),
            grid_theta_cells=int(grid.get("theta_cells", 1000)),
            grid_y_max=(None if grid.get("y_max") is None else float(grid["y_max"])),
            eta_time=float(raw.get("eta_time", 2.0)),
            threads=int(raw["threads"] if raw.get("threads") is not None
                        else os.environ.get("PDMP_LAB_THREADS") or 1),
            out_dir=str(raw.get("out_dir", ".")),
            tolerances=dict(raw.get("tolerances", {})),
            drift_probes=tuple(raw.get("drift_probes", (0.0, 1.0, 2.0, 4.0, 8.0))),
            drift_replicas=int(raw.get("drift_replicas", 20_000)),
            dump_grid_matrices=bool(raw.get("dump_grid_matrices", False)),
        )
        if cfg.replicas <= 0 or cfg.chain_steps < 0:
            raise ConfigError("replicas must be positive and chain_steps >= 0")
        if cfg.chain_burn_in_steps >= cfg.chain_steps and cfg.chain_steps > 0:
            raise ConfigError("chain_burn_in_steps must be below chain_steps")
        if cfg.horizon <= 0:
            raise ConfigError("horizon must be positive")
        try:
            cfg.build()
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model block: {exc}") from exc
        return cfg

    def build(self) -> ModelSpec:
        return build_model(self.model_name, self.model_params)

    @property
    def burn_in(self) -> float:
        return 0.2 * self.horizon if self.time_burn_in is None else self.time_burn_in


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


CSV_BLOCK_ROWS = 1024
"""Rows formatted per write, so the text of a large table is never held at once."""


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns as CSV rows: integers as-is, floats with 17 significant digits."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("{}" if np.issubdtype(c.dtype, np.integer) else "{:.17g}"
                   for c in columns) + "\n"
    n_rows = min((c.size for c in columns), default=0)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = zip(*(c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns))
            fh.write("".join([row.format(*cells) for cells in block]))


def _check_range(tolerances: dict, key: str, value: float, failures: list[str]) -> None:
    bounds = tolerances.get(key)
    if bounds is None:
        return
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo <= value <= hi:
        failures.append(f"{key}={value:.6g} outside [{lo:.6g}, {hi:.6g}]")


def _check_max(tolerances: dict, key: str, value: float, failures: list[str]) -> None:
    cap = tolerances.get(key)
    if cap is not None and value > float(cap):
        failures.append(f"{key}={value:.6g} exceeds {float(cap):.6g}")


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = cfg.build()
    ens = run_ensemble(model, cfg.replicas, (cfg.seed, 1), n_steps=cfg.chain_steps,
                       threads=cfg.threads)
    ens.trajectory(0).to_csv(out_dir / "chain.csv")
    occ_ens = run_ensemble(model, cfg.replicas, (cfg.seed, 2), t_end=cfg.horizon,
                           threads=cfg.threads)
    occ = occupation_from_ensemble(occ_ens, cfg.horizon, cfg.occupation_samples_per_replica,
                                   (cfg.seed, 3), burn_in=cfg.burn_in)
    _write_csv(out_dir / "occupation.csv", ["t", "y", "xi"],
               [occ.times, occ.ys, occ.regimes.astype(int)])
    chain = chain_measure(ens, cfg.chain_burn_in_steps) if cfg.chain_steps > 0 else None
    jumps_per_time = [
        (chunk[0].shape[1] - 1) / chunk[0][:, -1].mean() for chunk in occ_ens.chunks]
    eta_counts = np.concatenate([(chunk[0] <= cfg.eta_time).sum(axis=1) - 1
                                 for chunk in occ_ens.chunks])
    hist = np.bincount(eta_counts, minlength=11)[:11] / eta_counts.size
    summary = {
        "model": model.name,
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "occupation_mean": float(occ.ys.mean()),
        "chain_mean": (None if chain is None else chain.mean_location()),
        "jump_rate": float(np.mean(jumps_per_time)),
        "eta_time": cfg.eta_time,
        "eta_histogram": [float(v) for v in hist],
    }
    failures: list[str] = []
    _check_range(cfg.tolerances, "occupation_mean", summary["occupation_mean"], failures)
    if chain is not None:
        _check_range(cfg.tolerances, "chain_mean", summary["chain_mean"], failures)
    summary["tolerance_failures"] = failures
    _write_json(out_dir / "summary.json", summary)
    if failures:
        raise ToleranceFailure("; ".join(failures))
    return summary


def cmd_correspondence(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = cfg.build()
    ens = run_ensemble(model, cfg.replicas, (cfg.seed, 1), n_steps=cfg.chain_steps,
                       threads=cfg.threads)
    mu_chain = chain_measure(ens, cfg.chain_burn_in_steps)
    occ_ens = run_ensemble(model, cfg.replicas, (cfg.seed, 2), t_end=cfg.horizon,
                           threads=cfg.threads)
    mu_flow = occupation_from_ensemble(occ_ens, cfg.horizon, cfg.occupation_samples_per_replica,
                                       (cfg.seed, 3), burn_in=cfg.burn_in).measure()
    rng_f = np.random.default_rng(np.random.SeedSequence((cfg.seed, 4)))
    rng_b = np.random.default_rng(np.random.SeedSequence((cfg.seed, 5)))
    rng_r = np.random.default_rng(np.random.SeedSequence((cfg.seed, 6)))
    to_flow, rep_f = chain_to_flow_stationary(model, mu_chain, rng_f)
    to_chain, rep_b = flow_to_chain_stationary(model, mu_flow, rng_b)
    forward = measure_distance(to_flow, mu_flow, n_regimes=model.n_regimes)
    backward = measure_distance(to_chain, mu_chain, n_regimes=model.n_regimes)
    round_measure, _ = flow_to_chain_stationary(model, to_flow, rng_r)
    roundtrip = measure_distance(round_measure, mu_chain, n_regimes=model.n_regimes)
    payload = {
        "model": model.name,
        "seed": cfg.seed,
        "forward": forward.to_json(),
        "backward": backward.to_json(),
        "roundtrip": roundtrip.to_json(),
        "normalizer_to_flow": rep_f.normalizer,
        "normalizer_to_chain": rep_b.normalizer,
        "normalizer_product": rep_f.normalizer * rep_b.normalizer,
    }
    failures: list[str] = []
    _check_max(cfg.tolerances, "w1_forward_max", forward.combined, failures)
    _check_max(cfg.tolerances, "w1_backward_max", backward.combined, failures)
    _check_max(cfg.tolerances, "w1_roundtrip_max", roundtrip.combined, failures)
    payload["tolerance_failures"] = failures
    _write_json(out_dir / "distances.json", payload)
    if failures:
        raise ToleranceFailure("; ".join(failures))
    return payload


def cmd_oracle(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = cfg.build()
    grid = build_grid_model(model, cfg.grid_nodes, y_max=cfg.grid_y_max,
                            time_cells=cfg.grid_time_cells, theta_cells=cfg.grid_theta_cells)
    fact = check_factorization(grid, tol=float(cfg.tolerances.get("factorization_max", 1e-6)))
    corr = oracle_correspondence(grid, tol=float(cfg.tolerances.get("correspondence_max", 1e-6)))
    payload = {
        "model": model.name,
        "grid_nodes": cfg.grid_nodes,
        "factorization": fact.to_json(),
        "correspondence": corr.to_json(),
        "stationary_leak": grid.stationary_leak,
    }
    _write_csv(out_dir / "fixed_point.csv", ["y", "i", "weight"],
               [np.tile(grid.nodes, grid.n_regimes),
                np.repeat(np.arange(grid.n_regimes), grid.nodes.size).astype(int),
                corr.chain_fixed_point])
    if cfg.dump_grid_matrices:
        grid.dump_matrices(out_dir / "matrices")
    failures: list[str] = []
    if not fact.passed:
        failures.append(f"factorization residuals {fact.residual_plain:.3e}/"
                        f"{fact.residual_weighted:.3e} exceed {fact.tol:.1e}")
    if not corr.passed:
        failures.append("correspondence residuals exceed tolerance")
    payload["tolerance_failures"] = failures
    _write_json(out_dir / "oracle.json", payload)
    if failures:
        raise ToleranceFailure("; ".join(failures))
    return payload


def cmd_diagnostics(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = cfg.build()
    report = run_assumption_suite(model, seed=(cfg.seed, 1))
    payload = {"assumptions": report.to_json(), "model": model.name, "positive": model.positive}
    if report.stability_margin is not None and report.stability_margin > 0:
        constants = drift_constants(model)
        drift = verify_drift_empirically(model, constants, probe_ys=cfg.drift_probes,
                                         replicas=cfg.drift_replicas, seed=(cfg.seed, 2),
                                         threads=cfg.threads)
        payload["drift"] = drift.to_json()
        drift_ok = drift.passed
    else:
        payload["drift"] = None
        drift_ok = report.stability_margin is None  # margin failed outright
    _write_json(out_dir / "diagnostics.json", payload)
    if model.positive and (not report.passed or not drift_ok):
        raise ToleranceFailure(
            f"positive model failed checks: {report.failed_names() or 'drift probes'}")
    return payload


COMMANDS = {
    "simulate": cmd_simulate,
    "correspondence": cmd_correspondence,
    "oracle": cmd_oracle,
    "diagnostics": cmd_diagnostics,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmp-lab",
        description="Batch experiments for piecewise deterministic Markov processes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: config 'threads', then PDMP_LAB_THREADS, "
                            "then 1)")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        out_dir = Path(args.out if args.out is not None else cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        COMMANDS[args.command](cfg, out_dir)
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
