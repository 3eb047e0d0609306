"""Config-driven experiment runner.

Four subcommands (simulate, correspondence, oracle, diagnostics) read one
JSON config document, run a batch experiment, and write plot-ready CSV/JSON
files. Outputs are byte-identical for identical (config, seed). Ensembles run
serially; ``--threads`` is accepted and ignored with one note on stderr.
Each command writes its verdicts as ``checks.Check`` records under the
top-level ``checks`` key of its JSON output: one per tolerance bound the
config sets, the grid residuals of ``oracle``, the assumption and drift
records of ``diagnostics``.
Exit codes: 0 success, 2 config error, 3 a record failed (``diagnostics``
enforces its records on positive models only), 4 a numerical solver failed
(hazard inversion hit its iteration cap, a horizon run hit its step cap, power
iteration did not converge, the flow-contraction fit resolved no pair above
rounding, the grid matrices failed their switching-row, stochasticity,
occupation or window-leak check). Code 3 prints one ``tolerance failure: ...``
line listing each failed record as ``name value side bound``, code 4 one
``solver failure: ...`` line, to stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .checks import Check
from .csvtext import encode_rows
from .diagnostics import drift_constants, run_assumption_suite, verify_drift_empirically
from .grid import build_grid_model, check_factorization, oracle_correspondence
from .metrics import measure_distance, sort_measure
from .models import ModelSpec, build_model
# run_ensemble is not called here: perfbench/tracer.py wraps it at this import site
from .simulate import (ChainEnsemble, EnsembleRun, OccupationSample, chain_measure,
                       count_jumps, occupation_from_ensemble, run_ensemble, run_ensembles)
from .transforms import chain_to_flow_stationary, flow_to_chain_stationary

ETA_TIME = 2.0
"""Time at which ``simulate`` histograms the jump counts of the horizon ensemble."""
OCCUPATION_BURN_IN = 0.2
"""Share of the horizon cut from the start of each run before occupation sampling."""


class ConfigError(ValueError):
    pass


def _finite(value) -> bool:
    """A JSON number (not a bool) that is finite."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _typed(value, kind, label: str):
    """``value`` checked against the field type ``kind``: an integer for a count or
    seed, a finite number for a real (a bool is neither), null or a value for
    ``Optional``, an object of the dataclass's keys for a dataclass."""
    if get_origin(kind) is Union:  # Optional[X]
        if value is None:
            return None
        kind = get_args(kind)[0]
    if is_dataclass(kind):
        return _parse_block(kind, value, label)
    if get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)) and all(_finite(v) for v in value):
            return tuple(value)
        want = "a list of finite numbers"
    elif kind is float:
        if _finite(value):
            return float(value)  # a JSON integer is a valid real; store it as one
        want = "a finite number"
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    else:
        want = {int: "an integer", str: "a string", dict: "a JSON object"}[kind]
    raise ConfigError(f"{label} must be {want}, got {json.dumps(value, default=repr)}")


def _parse_block(cls, raw, name: Optional[str] = None):
    """The dataclass ``cls`` from the JSON object ``raw`` of block ``name`` (None: top
    level): each key a field, each value of its field's type, a key left out its default."""
    where = "the config" if name is None else repr(name)
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; "
                          f"known keys: {', '.join(sorted(known))}")
    for f in known.values():
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} needs the key {f.name!r}")
    hints = get_type_hints(cls)
    return cls(**{key: _typed(value, hints[key], key if name is None else f"{name} {key}")
                  for key, value in raw.items()})


@dataclass(frozen=True)
class ModelBlock:
    """The ``model`` object: a registered model name and its keyword parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.params.items():
            if isinstance(value, (int, float)):  # a bool too: JSON true is not 1.0
                _typed(value, float, f"model params {key}")
        try:
            self.build()
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model block: {exc}") from exc

    def build(self) -> ModelSpec:
        return build_model(self.name, self.params)


@dataclass(frozen=True)
class GridBlock:
    """The ``grid`` object of the matrix oracle; ``y_max`` null is the model's window."""

    nodes: int = 200
    y_max: Optional[float] = None

    def __post_init__(self):
        if self.nodes < 2:
            raise ConfigError(f"grid nodes must be at least 2, got {self.nodes}")
        if self.y_max is not None and not self.y_max > 0:
            raise ConfigError("grid y_max must be positive and finite")


@dataclass(frozen=True)
class Tolerances:
    """The ``tolerances`` object: ranges [lo, hi] and caps >= 0; one left out never fails."""

    occupation_mean: tuple[float, float] = (-math.inf, math.inf)
    chain_mean: tuple[float, float] = (-math.inf, math.inf)
    w1_forward_max: float = math.inf
    w1_backward_max: float = math.inf
    w1_roundtrip_max: float = math.inf

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple) and not (len(value) == 2 and value[0] <= value[1]):
                raise ConfigError(f"tolerances {f.name} must be [lo, hi] with lo <= hi")
            if isinstance(value, float) and value < 0:  # a distance never passes below 0
                raise ConfigError(f"tolerances {f.name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The JSON config document: one field per key, with its type and default.

    The seed is mandatory: every run must be reproducible. A violated
    tolerance makes the subcommand exit with code 3 after still writing its
    outputs. An unknown key is a config error, so a typo cannot fall back to a
    default.
    """

    model: ModelBlock
    seed: int
    replicas: int = 200
    chain_steps: int = 400
    chain_burn_in_steps: int = 80
    horizon: float = 200.0
    occupation_samples_per_replica: int = 400
    grid: GridBlock = field(default_factory=GridBlock)
    out_dir: str = "."
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        for key, least in (("seed", 0), ("replicas", 1), ("chain_steps", 0),  # numpy seeds are >= 0
                           ("chain_burn_in_steps", 0), ("occupation_samples_per_replica", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if self.chain_burn_in_steps >= self.chain_steps > 0:
            raise ConfigError("chain_burn_in_steps must be below chain_steps")
        if self.horizon < ETA_TIME:  # the horizon ensemble must cover ETA_TIME
            raise ConfigError(f"horizon must be at least the jump-count time {ETA_TIME}, "
                              f"got {self.horizon}")

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
        return _parse_block(cls, raw)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


CSV_BLOCK_ROWS = 8192
"""Rows formatted per write, so the text of a large table is never held at once
and a block's scratch arrays stay small."""


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns as CSV rows: integers as "%d", floats as "%.17g".

    Each block of ``CSV_BLOCK_ROWS`` rows is formatted column by column by
    ``csvtext.encode_rows``: a float with 1e-4 <= |x| < 1e16 gets its 17
    digits by exact arithmetic (Dekker's product of x and a power of ten,
    rounded half-even), an integer its digits from 4-digit groups, and any
    other value (0, -0.0, NaN, inf, subnormal, the scientific range, int64's
    minimum) goes through "%.17g" or "%d" on its own. The bytes are those of
    one "%" per value. A header of another width than the columns, or columns
    of unequal length, is a ValueError, raised before the file is opened.
    """
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ValueError(f"{path.name}: {len(header)} header names for {len(columns)} columns")
    sizes = {c.size for c in columns}
    if len(sizes) > 1:
        raise ValueError(f"{path.name}: columns of unequal lengths {sorted(sizes)}")
    n_rows = sizes.pop() if sizes else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            fh.write(encode_rows([c[start:start + CSV_BLOCK_ROWS] for c in columns]))


def _finish(path: Path, payload: dict, checks: Sequence[Check], enforce: bool = True) -> int:
    """Write ``payload`` with its ``checks`` records and return the exit code: 3,
    with each failed record on stderr as ``name value side bound``, if ``enforce``
    and a record failed, else 0."""
    payload["checks"] = [c.to_json() for c in checks]
    _write_json(path, payload)
    failed = [f"{c.name} {float(c.value)!r} {c.side} {float(c.bound)!r}"
              for c in checks if not c.passed]
    if enforce and failed:
        print(f"tolerance failure: {'; '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def _config_checks(tolerances: Tolerances, key: str, value: float) -> list[Check]:
    """The records of ``value`` against tolerance ``key``, one per bound the config
    sets: a range gives ``key:lo`` (>=) and ``key:hi`` (<=), a cap ``key`` (<=). A
    bound left at its infinite default writes none."""
    setting = getattr(tolerances, key)
    if isinstance(setting, tuple):
        bounds = ((f"{key}:lo", setting[0], ">="), (f"{key}:hi", setting[1], "<="))
    else:
        bounds = ((key, setting, "<="),)
    return [Check(name, value, bound, side, "config")
            for name, bound, side in bounds if math.isfinite(bound)]


def _ensembles(cfg: ExperimentConfig, model: ModelSpec) -> tuple[ChainEnsemble, ChainEnsemble]:
    """The chain ensemble, stream (seed, 1), and the horizon ensemble, stream
    (seed, 2), simulated together, as simulate and correspondence see them."""
    return run_ensembles(model, [EnsembleRun(cfg.replicas, (cfg.seed, 1), n_steps=cfg.chain_steps),
                                 EnsembleRun(cfg.replicas, (cfg.seed, 2), t_end=cfg.horizon)])


def _occupation(cfg: ExperimentConfig, occ_ens: ChainEnsemble) -> OccupationSample:
    """The occupation draw of the horizon ensemble, stream (seed, 3)."""
    return occupation_from_ensemble(occ_ens, cfg.horizon, cfg.occupation_samples_per_replica,
                                    (cfg.seed, 3), burn_in=OCCUPATION_BURN_IN * cfg.horizon)


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model.build()
    ens, occ_ens = _ensembles(cfg, model)
    occ = _occupation(cfg, occ_ens)
    taus, ys, regimes = (column[0] for column in ens.chunks[0])
    _write_csv(out_dir / "chain.csv", ["n", "tau", "y", "xi"],
               [np.arange(taus.size), taus, ys, regimes])
    _write_csv(out_dir / "occupation.csv", ["t", "y", "xi"],
               [occ.times, occ.ys, occ.regimes.astype(int)])
    chain = chain_measure(ens, cfg.chain_burn_in_steps) if cfg.chain_steps > 0 else None
    # every replica of a horizon chunk makes that chunk's step count of jumps
    final_clocks = np.concatenate([taus[:, -1] for taus, _, _ in occ_ens.chunks])
    n_jumps = sum(taus.shape[0] * (taus.shape[1] - 1) for taus, _, _ in occ_ens.chunks)
    eta_counts = np.concatenate([count_jumps(chunk[0], ETA_TIME) for chunk in occ_ens.chunks])
    # the last bin reads "10 or more", as in jump_count_pmf
    hist = np.bincount(np.minimum(eta_counts, 10), minlength=11) / eta_counts.size
    summary = {
        "model": model.name,
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "occupation_mean": float(occ.ys.mean()),
        "chain_mean": (None if chain is None else chain.mean_location()),
        "jump_rate": float(n_jumps / final_clocks.size / final_clocks.mean()),
        "eta_time": ETA_TIME,
        "eta_histogram": [float(v) for v in hist],
    }
    checks = _config_checks(cfg.tolerances, "occupation_mean", summary["occupation_mean"])
    if chain is not None:
        checks += _config_checks(cfg.tolerances, "chain_mean", summary["chain_mean"])
    return _finish(out_dir / "summary.json", summary, checks)


def cmd_correspondence(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.chain_steps < 1:  # the chain measure needs a step past the burn-in
        raise ConfigError(f"correspondence needs chain_steps >= 1, got {cfg.chain_steps}")
    model = cfg.model.build()
    # Each ensemble, occupation draw and transform output is dropped after its
    # last use, so at most three measures are alive during a distance; the
    # chain measure is sorted once for its two distances, and the sorted form
    # replaces it once its transform has read it. Every step draws from its
    # own stream, so the order does not change the outputs.
    ens, occ_ens = _ensembles(cfg, model)
    mu_chain = chain_measure(ens, cfg.chain_burn_in_steps)
    del ens
    mu_flow = _occupation(cfg, occ_ens).measure()
    del occ_ens
    rng_f = np.random.default_rng(np.random.SeedSequence((cfg.seed, 4)))
    rng_b = np.random.default_rng(np.random.SeedSequence((cfg.seed, 5)))
    rng_r = np.random.default_rng(np.random.SeedSequence((cfg.seed, 6)))
    to_flow, normalizer_to_flow = chain_to_flow_stationary(model, mu_chain, rng_f)
    chain_sorted = sort_measure(mu_chain, model.n_regimes)
    del mu_chain
    forward = measure_distance(to_flow, mu_flow, n_regimes=model.n_regimes)
    to_chain, normalizer_to_chain = flow_to_chain_stationary(model, mu_flow, rng_b)
    del mu_flow
    backward = measure_distance(to_chain, chain_sorted, n_regimes=model.n_regimes)
    del to_chain
    round_measure, _ = flow_to_chain_stationary(model, to_flow, rng_r)
    del to_flow
    roundtrip = measure_distance(round_measure, chain_sorted, n_regimes=model.n_regimes)
    payload = {
        "model": model.name,
        "seed": cfg.seed,
        "forward": asdict(forward),
        "backward": asdict(backward),
        "roundtrip": asdict(roundtrip),
        "normalizer_to_flow": normalizer_to_flow,
        "normalizer_to_chain": normalizer_to_chain,
        "normalizer_product": normalizer_to_flow * normalizer_to_chain,
    }
    checks = (_config_checks(cfg.tolerances, "w1_forward_max", forward.combined)
              + _config_checks(cfg.tolerances, "w1_backward_max", backward.combined)
              + _config_checks(cfg.tolerances, "w1_roundtrip_max", roundtrip.combined))
    return _finish(out_dir / "distances.json", payload, checks)


def cmd_oracle(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model.build()
    grid = build_grid_model(model, cfg.grid.nodes, y_max=cfg.grid.y_max)
    fact = check_factorization(grid)
    corr = oracle_correspondence(grid)
    payload = {
        "model": model.name,
        "grid_nodes": cfg.grid.nodes,
        "factorization": asdict(fact),
        "correspondence": corr.to_json(),
        "stationary_leak": grid.stationary_leak,
    }
    _write_csv(out_dir / "fixed_point.csv", ["y", "i", "weight"],
               [np.tile(grid.nodes, grid.n_regimes),
                np.repeat(np.arange(grid.n_regimes), grid.nodes.size).astype(int),
                grid.fixed_point])
    return _finish(out_dir / "oracle.json", payload, fact.checks + corr.checks)


def cmd_diagnostics(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model.build()
    report = run_assumption_suite(model, seed=(cfg.seed, 1))
    payload = {"assumptions": report.to_json(), "model": model.name, "positive": model.positive}
    # without a positive margin a record has failed already, and the drift probes are skipped
    checks = report.checks
    drift = None
    if report.stability_margin is not None and report.stability_margin > 0:
        drift = verify_drift_empirically(model, drift_constants(model), seed=(cfg.seed, 2))
        checks += drift.checks
    payload["drift"] = None if drift is None else drift.to_json()
    return _finish(out_dir / "diagnostics.json", payload, checks, enforce=model.positive)


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
                       help="accepted and ignored: ensembles run serially")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.threads is not None:
            print("note: --threads is ignored; ensembles run serially", file=sys.stderr)
        out_dir = Path(args.out if args.out is not None else cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
