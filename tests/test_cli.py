import ast
import dataclasses
import inspect
import json
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pdmp_lab import cli
from pdmp_lab import grid as grid_module
from pdmp_lab import hazard as hazard_module
from pdmp_lab.checks import BASES, SIDES, Check
from pdmp_lab.cli import ConfigError, ExperimentConfig, GridBlock, main
from pdmp_lab.flows import AffineExpFlow
from pdmp_lab.grid import GRID_RESIDUAL_TOL, power_iteration
from pdmp_lab.hazard import CumulativeHazard, Intensity, invert_holding
from pdmp_lab.models import DeclaredConstants

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "model": {"name": "gene", "params": {"kappa": 1.0, "burst_mean": 1.0,
                                         "lam_low": 1.0, "lam_high": 1.0}},
    "seed": 777,
    "replicas": 120,
    "chain_steps": 150,
    "chain_burn_in_steps": 30,
    "horizon": 60.0,
    "occupation_samples_per_replica": 80,
    "grid": {"nodes": 80},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_bytes(folder, names):
    return {n: (Path(folder) / n).read_bytes() for n in names}


def failed_names(payload):
    return {c["name"] for c in payload["checks"] if not c["passed"]}


def test_simulate_writes_expected_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.8 <= summary["occupation_mean"] <= 1.2
    assert 1.8 <= summary["chain_mean"] <= 2.2
    chain_lines = (out / "chain.csv").read_text().splitlines()
    assert chain_lines[0] == "n,tau,y,xi"
    assert len(chain_lines) == BASE_CONFIG["chain_steps"] + 2
    occupation_lines = (out / "occupation.csv").read_text().splitlines()
    assert occupation_lines[0] == "t,y,xi"


def test_simulate_zero_steps_single_row(tmp_path):
    cfg = write_config(tmp_path, {"chain_steps": 0, "chain_burn_in_steps": 0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len((out / "chain.csv").read_text().splitlines()) == 2  # header + initial state


def test_correspondence_outputs_distances(tmp_path):
    cfg = write_config(tmp_path, {"replicas": 400, "chain_steps": 150,
                                  "horizon": 100.0,
                                  "tolerances": {"w1_forward_max": 0.08,
                                                 "w1_backward_max": 0.08,
                                                 "w1_roundtrip_max": 0.08}})
    out = tmp_path / "out"
    assert main(["correspondence", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "distances.json").read_text())
    assert payload["forward"]["combined"] <= 0.08
    assert payload["normalizer_product"] == pytest.approx(1.0, abs=0.02)


def test_oracle_outputs_residuals(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert {c["name"]: (c["bound"], c["passed"]) for c in payload["checks"]} == {
        f"{block}:{key}": (GRID_RESIDUAL_TOL, True)
        for block in ("factorization", "correspondence") for key in payload[block]
        if key.startswith("residual_")}
    assert payload["correspondence"]["normalizer_product_error"] <= 1e-8
    assert (out / "fixed_point.csv").exists()


def test_diagnostics_positive_model(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["diagnostics", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert failed_names(payload) == set()
    assert [c["name"] for c in payload["checks"] if c["name"].startswith("drift:")] == [
        f"drift:mean-at-{p['location']:g}" for p in payload["drift"]["probes"]]
    # the declared block: every plain DeclaredConstants field plus the flow and rate bounds
    plain = {f.name for f in fields(DeclaredConstants)
             if not callable(getattr(DeclaredConstants(), f.name))}
    assert set(payload["assumptions"]["declared"]) == plain | {
        "flow_lipschitz", "flow_rate", "intensity_lipschitz"}


def test_diagnostics_negative_control_reports_without_failing(tmp_path):
    cfg = write_config(tmp_path, {"model": {"name": "control-expanding-flow", "params": {}}})
    out = tmp_path / "out"
    assert main(["diagnostics", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert failed_names(payload) == {"flow-contraction:declared-rate"}
    assert payload["drift"] is None


def test_exit_code_2_on_config_errors(tmp_path):
    missing_seed = json.loads(json.dumps(BASE_CONFIG))
    del missing_seed["seed"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(missing_seed))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    p2 = tmp_path / "bad2.json"
    p2.write_text("{not json")
    assert main(["simulate", "--config", str(p2), "--out", str(tmp_path / "o")]) == 2
    cfg = write_config(tmp_path, {"model": {"name": "no-such-model"}}, name="bad3.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_exit_code_3_on_tolerance_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tolerances": {"occupation_mean": [42.0, 43.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    # outputs are still written for post-mortem
    summary = json.loads((out / "summary.json").read_text())
    mean = summary["occupation_mean"]
    assert summary["checks"] == [
        {"name": "occupation_mean:lo", "value": mean, "bound": 42.0, "side": ">=",
         "basis": "config", "passed": False},
        {"name": "occupation_mean:hi", "value": mean, "bound": 43.0, "side": "<=",
         "basis": "config", "passed": True}]
    assert capsys.readouterr().err == f"tolerance failure: occupation_mean:lo {mean!r} >= 42.0\n"


def test_a_nan_w1_fails_its_cap(tmp_path, monkeypatch, capsys):
    # a NaN compares False on every side, so it fails the cap it is held to
    distance = cli.measure_distance

    def nan_combined(*args, **kwargs):
        return dataclasses.replace(distance(*args, **kwargs), combined=math.nan)
    monkeypatch.setattr(cli, "measure_distance", nan_combined)
    cfg = write_config(tmp_path, {"tolerances": {"w1_backward_max": 0.5}})
    out = tmp_path / "out"
    assert main(["correspondence", "--config", str(cfg), "--out", str(out)]) == 3
    payload = json.loads((out / "distances.json").read_text())
    (record,) = payload["checks"]
    assert math.isnan(record.pop("value"))
    assert record == {"name": "w1_backward_max", "bound": 0.5, "side": "<=",
                      "basis": "config", "passed": False}
    assert capsys.readouterr().err == "tolerance failure: w1_backward_max nan <= 0.5\n"


# every tolerance set: the range of occupation_mean fails (its mean is about 1), the rest pass
SHAPE_TOLERANCES = {"occupation_mean": [0.0, 0.5], "chain_mean": [0.0, 10.0],
                    "w1_forward_max": 1.0, "w1_backward_max": 1.0, "w1_roundtrip_max": 1.0}


@pytest.mark.parametrize("command, output", [
    ("simulate", "summary.json"), ("correspondence", "distances.json"),
    ("oracle", "oracle.json"), ("diagnostics", "diagnostics.json")])
def test_every_command_writes_check_records(tmp_path, command, output):
    cfg = write_config(tmp_path, {"tolerances": SHAPE_TOLERANCES})
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    checks = json.loads((out / output).read_text())["checks"]
    assert checks
    for record in checks:
        assert set(record) == {"name", "value", "bound", "side", "basis", "passed"}
        assert record["side"] in SIDES and record["basis"] in BASES
        assert record["passed"] is Check(**{k: v for k, v in record.items()
                                            if k != "passed"}).passed
    # the test model is positive, so diagnostics enforces its records too
    assert code == (0 if all(record["passed"] for record in checks) else 3)


def test_config_seed_and_threads_overrides(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    cfg = ExperimentConfig.from_file(str(cfg_path))
    assert cfg.seed == 777
    monkeypatch.setenv("PDMP_LAB_THREADS", "3")
    out1 = tmp_path / "a"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    # PDMP_LAB_THREADS is not read: it must not change the numbers
    monkeypatch.delenv("PDMP_LAB_THREADS")
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    files = ["chain.csv", "occupation.csv", "summary.json"]
    assert read_bytes(out1, files) == read_bytes(out2, files)


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out3), "--threads", "4"]) == 0
    files = ["chain.csv", "occupation.csv", "summary.json"]
    b1 = read_bytes(out1, files)
    assert b1 == read_bytes(out2, files)
    assert b1 == read_bytes(out3, files)


def reference_csv(header, columns):
    # one str.format per value: "{}" for integers, "{:.17g}" for floats
    fmts = ["{}" if np.issubdtype(c.dtype, np.integer) else "{:.17g}" for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    return (",".join(header) + "\n"
            + "".join(",".join(f.format(v) for f, v in zip(fmts, row)) + "\n"
                      for row in rows)).encode()


@pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BLOCK_ROWS, 2 * cli.CSV_BLOCK_ROWS + 37])
def test_write_csv_bytes_match_per_value_format(tmp_path, n_rows):
    special = [-0.0, 5e-324, 1e-5, 1e16, 1e17, 0.1, np.inf, -np.inf, np.nan, 1.0 / 3.0, -2.5]
    rng = np.random.default_rng(11)
    floats = np.resize(np.concatenate([special, rng.normal(size=50) * 10.0 ** rng.integers(
        -300, 300, 50)]), n_rows)
    big = np.iinfo(np.int64)
    ints = np.resize(np.array([0, -1, 7, big.max, big.min, 2 ** 53 + 1], dtype=np.int64), n_rows)
    unsigned = np.resize(np.array([2 ** 64 - 1, 5, 2 ** 63], dtype=np.uint64), n_rows)
    columns = [np.arange(n_rows), floats, ints, floats[::-1].copy(), unsigned]
    header = ["n", "x", "k", "z", "u"]
    cli._write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, columns)


def seventeenth_digit_ties(rng, per_decade):
    # n 2^-j = n 5^j / 10^j with n odd and n 5^j of 18 digits: 18 significant
    # digits ending in 5, a half-way case for 17 digits, in [10^(17-j), 10^(18-j))
    out = []
    for j in range(2, 22):
        low = -(-10 ** 17 // 5 ** j)
        high = min(10 ** 18 // 5 ** j, 2 ** 53)
        n = rng.integers(low // 2, high // 2, per_decade) * 2 + 1
        out.append(np.ldexp(n.astype(np.float64), -j))
    return np.concatenate(out + [[1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 3 + 2.0 ** -16]])


def test_write_csv_matches_per_value_format_on_every_branch(tmp_path):
    rng = np.random.default_rng(19)
    edges = []
    for d in range(-7, 19):
        edge = float(f"1e{d}")
        below = above = edge
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges += [edge, edge * (1 + 5e-17), edge * (1 - 5e-17)]
    fallback = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                9.9999999999999995e-5, 1e16, 1.7976931348623157e308, 1e-300]
    special = [0.099999999999999992, 0.99999999999999989, 1e-4, 0.0001000000000000001,
               9999999999999998.0, 1.0, 10.0, 0.5, 123456789012345.67]
    digits17 = rng.integers(10 ** 16, 10 ** 17, 20_000)
    decimals = np.array([float(f"{d}e{e}") for d, e in zip(digits17.tolist(),
                                                          rng.integers(-21, 0, 20_000).tolist())])
    spread = 10.0 ** rng.uniform(-8, 19, 60_000)
    # the first block mixes per-value fallbacks into both columns; later blocks have none
    floats = np.concatenate([fallback, special, edges, seventeenth_digit_ties(rng, 1000),
                             decimals, spread])
    floats *= np.where(rng.random(floats.size) < 0.5, -1.0, 1.0)
    floats = np.concatenate([fallback, floats])
    big = np.iinfo(np.int64)
    powers = 10 ** np.arange(19, dtype=np.int64)
    ints = np.concatenate([[big.min, big.max, big.min + 1, 0, -1], powers, powers - 1, -powers,
                           rng.integers(big.min + 1, big.max, floats.size, endpoint=True)])
    ints = ints[:floats.size]
    assert floats.size >= 100_000
    assert cli.CSV_BLOCK_ROWS < floats.size - cli.CSV_BLOCK_ROWS
    short = rng.integers(-9999, 10_000, floats.size)
    short[5] = big.min  # a per-value fallback beside 4-digit values in one block
    columns = [np.arange(floats.size), floats, ints, short]
    header = ["n", "x", "k", "s"]
    cli._write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, columns)


def test_no_seventeen_digit_rounding_carries_into_the_next_decade():
    # the writer's digits need the largest double below 10^m, m in -3..16, to be
    # more than 5e-18 of 10^m below it, so that rounding to 17 digits stays below 10^17
    for m in range(-3, 17):
        power = Fraction(10) ** m
        below = float(f"1e{m}")
        if Fraction(below) >= power:
            below = np.nextafter(below, 0.0)
        assert Fraction(below) < power * (1 - Fraction(5, 10 ** 18))


def test_write_csv_scratch_is_bounded(tmp_path):
    # occupation-shaped columns of 250k rows write about 10 MB; the writer holds
    # one block of CSV_BLOCK_ROWS rows at a time
    rng = np.random.default_rng(3)
    n_rows = 250_000
    columns = [np.sort(rng.uniform(80.0, 400.0, n_rows)), rng.exponential(1.0, n_rows),
               rng.integers(0, 2, n_rows)]
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "occupation.csv", ["t", "y", "xi"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "occupation.csv").stat().st_size > 9e6
    assert peak <= 6e6


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b", "c"], [np.arange(3), np.arange(2)], "3 header names for 2 columns"),
    (["a", "b"], [np.arange(3), np.arange(2.0)], r"columns of unequal lengths \[2, 3\]"),
])
def test_write_csv_rejects_mismatched_columns(tmp_path, header, columns, message):
    with pytest.raises(ValueError, match=message):
        cli._write_csv(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()


def test_correspondence_peak_memory_per_atom(tmp_path):
    # each ensemble and measure is dropped after its last use; keeping them all
    # alive through every distance peaked at 154 B per chain or flow atom here
    cfg = ExperimentConfig.from_dict({
        **BASE_CONFIG, "model": {"name": "gene", "params": {
            "kappa": 1.0, "burst_mean": 1.0, "lam_low": 1.0, "lam_high": 1.5}},
        "seed": 20260802, "replicas": 200, "chain_steps": 150, "chain_burn_in_steps": 25,
        "occupation_samples_per_replica": 125})
    n_atoms = cfg.replicas * (cfg.chain_steps - cfg.chain_burn_in_steps
                              + cfg.occupation_samples_per_replica)
    tracemalloc.start()
    try:
        cli.cmd_correspondence(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 110 * n_atoms


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "778"]) == 0
    assert (out1 / "chain.csv").read_bytes() != (out2 / "chain.csv").read_bytes()


def test_correspondence_byte_identical_and_thread_safe(tmp_path):
    cfg = write_config(tmp_path, {"replicas": 150, "chain_steps": 120, "horizon": 50.0})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["correspondence", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["correspondence", "--config", str(cfg), "--out", str(out2),
                 "--threads", "2"]) == 0
    assert (out1 / "distances.json").read_bytes() == (out2 / "distances.json").read_bytes()


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": {"name": "gene"}})  # no seed
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seed": 1})  # no model
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": {"name": "gene"}, "seed": 1, "replicas": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": {"name": "gene"}, "seed": 1, "horizon": -5.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": {"name": "gene",
                                              "params": {"kappa": -2.0}}, "seed": 1})


@pytest.mark.parametrize("overrides, flags, message", [
    ({"horizon": 1.5}, [], "horizon"),  # the horizon ensemble must cover ETA_TIME = 2.0
    ({"occupation_samples_per_replica": 0}, [], "occupation_samples_per_replica"),
    ({"horizon": float("inf")}, [], "horizon"),
    ({"seed": -1}, [], "seed"),
    ({}, ["--seed", "-1"], "seed"),
    ({"grid": {"y_max": 0.0}}, [], "y_max"),
    ({"grid": {"y_max": -3.0}}, [], "y_max"),
    ({"grid": {"y_max": float("nan")}}, [], "y_max"),
    ({"tolerances": {"w1_forward_max": "x"}}, [], "w1_forward_max"),
    ({"tolerances": {"w1_forward_max": [1.0]}}, [], "w1_forward_max"),
    ({"tolerances": {"w1_forward_max": -1.0}}, [], "w1_forward_max"),
    ({"tolerances": {"occupation_mean": "x"}}, [], "occupation_mean"),
    ({"tolerances": {"occupation_mean": [1.0]}}, [], "occupation_mean"),
    ({"tolerances": {"occupation_mean": [1.2, 0.8]}}, [], "occupation_mean"),
    ({"model": {"params": [1.0]}}, [], "params"),
    ({"replicas": 2.7}, [], "replicas"),
    ({"seed": True}, [], "seed"),
    ({"grid": {"nodes": 40.9}}, [], "nodes"),
    ({"horizon": True}, [], "horizon"),
    ({"horizon": "20"}, [], "horizon"),
    ({"chain_burn_in_steps": -3}, [], "chain_burn_in_steps"),
    # removed keys: a config that still sets one exits 2 as an unknown key, whatever its value
    ({"time_burn_in": -5.0}, [], "time_burn_in"),
    ({"time_burn_in": 60.0}, [], "time_burn_in"),
    ({"eta_time": -1.0}, [], "eta_time"),
    ({"drift_replicas": 0}, [], "drift_replicas"),
    ({"grid": {"time_cells": 0}}, [], "time_cells"),
    ({"grid": {"theta_cells": 0}}, [], "theta_cells"),
    ({"drift_probes": "abc"}, [], "drift_probes"),
    ({"drift_probes": 3.0}, [], "drift_probes"),
    ({"drift_probes": [-1.0]}, [], "drift_probes"),
    ({"drift_probes": [0.0, float("nan")]}, [], "drift_probes"),
    ({"drift_probes": []}, [], "drift_probes"),
], ids=["eta-time-past-horizon", "no-occupation-samples", "infinite-horizon", "negative-seed",
        "negative-seed-flag", "zero-grid-y-max", "negative-grid-y-max", "nan-grid-y-max",
        "cap-string", "cap-list", "negative-cap", "range-string", "range-one-entry",
        "range-reversed", "params-not-object", "fractional-replicas", "bool-seed",
        "fractional-grid-nodes", "bool-horizon", "string-horizon", "negative-chain-burn-in",
        "negative-burn-in", "burn-in-at-horizon", "negative-eta-time", "no-drift-replicas",
        "no-time-cells", "no-theta-cells", "drift-probes-string", "drift-probes-number",
        "negative-drift-probe", "nan-drift-probe", "no-drift-probes"])
def test_bad_config_values_exit_2_at_load(tmp_path, capsys, overrides, flags, message):
    cfg = write_config(tmp_path, overrides)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "correspondence", "oracle", "diagnostics"])
@pytest.mark.parametrize("key, literal", [("kappa", "NaN"), ("lam", "Infinity"),
                                          ("lam", "1e400"), ("lam", "true")])
def test_non_finite_or_bool_model_params_exit_2_at_load(tmp_path, capsys, command, key, literal):
    # Python's json reads NaN, Infinity and 1e400 (as inf); none is a model parameter
    params = dict(BASE_CONFIG["model"]["params"], **{key: "PLACEHOLDER"})
    cfg = write_config(tmp_path, {"model": {"params": params}})
    cfg.write_text(cfg.read_text().replace('"PLACEHOLDER"', literal))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"model params {key}" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "correspondence", "oracle", "diagnostics"])
def test_old_style_gene_rate_block_exits_2_at_load(tmp_path, capsys, command):
    # the gene rate is set by lam_low and lam_high alone: the old constant-rate
    # switch and its single rate are unknown parameters
    cfg = write_config(tmp_path, {"model": {"name": "gene", "params": {
        "kappa": 1.0, "burst_mean": 1.0, "intensity": "constant", "lam": 1.0}}})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad model block: ") and "'intensity'" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "correspondence", "oracle", "diagnostics"])
@pytest.mark.parametrize("attractor", [{"c1": 30.0}, {"c0": -2.0}], ids=["above", "below"])
def test_two_regime_attractor_outside_window_exits_2_at_load(tmp_path, capsys, command,
                                                             attractor):
    # the diagnostics probe only the window [0, 15] and the grid loses what leaves
    # it, so an attractor outside it is rejected before any command runs
    cfg = write_config(tmp_path, {"model": {"name": "two-regime", "params": attractor}})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad model block: attractors ") and err.count("\n") == 1
    assert "must lie in the model window [0, 15]" in err
    assert not out.exists()


def test_diagnostics_fits_a_very_fast_flow(tmp_path):
    # at kappa = 1e8 an absolute rate slack of 1e-9 resolves no flow pair (exit 4)
    cfg = write_config(tmp_path, {"model": {"name": "two-regime",
                                            "params": {"c0": 0.5, "kappa": 1e8}}})
    out = tmp_path / "out"
    assert main(["diagnostics", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert failed_names(payload) == set()
    assert payload["assumptions"]["estimates"]["flow_rate"] == pytest.approx(-1e8, rel=1e-12)


def test_correspondence_without_chain_steps_exits_2(tmp_path, capsys):
    # simulate runs a zero-step chain; correspondence has no chain measure then
    cfg = write_config(tmp_path, {"chain_steps": 0, "chain_burn_in_steps": 0})
    out = tmp_path / "o"
    assert main(["correspondence", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: correspondence needs chain_steps >= 1, got 0\n"
    assert not (out / "distances.json").exists()


def readme_config_example() -> dict:
    """The JSON block under the README's "Config document" heading."""
    text = (ROOT / "README.md").read_text().split("### Config document", 1)[1]
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_config_example_has_the_declared_keys():
    example = readme_config_example()
    assert set(example) == {f.name for f in fields(ExperimentConfig)}
    assert set(example["grid"]) == {f.name for f in fields(GridBlock)}


@pytest.mark.parametrize("source", sorted(p.name for p in (ROOT / "configs").glob("*.json"))
                         + ["README.md"])
def test_shipped_configs_load_quietly(source, capsys):
    if source == "README.md":
        ExperimentConfig.from_dict(readme_config_example())
    else:
        ExperimentConfig.from_file(str(ROOT / "configs" / source))
    assert capsys.readouterr().err == ""


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    # a typo must not silently run the default of 200 replicas
    cfg = write_config(tmp_path, {"replica": 10})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'replica'" in err
    assert not (tmp_path / "o" / "summary.json").exists()
    base = {"model": {"name": "gene"}, "seed": 1}
    for block, typo in (("grid", {"node": 40}), ("tolerances", {"w1_forwrd_max": 0.05}),
                        ("model", {"name": "gene", "param": {"lam": 2.0}})):
        with pytest.raises(ConfigError, match=f"unknown key '{list(typo)[-1]}' in '{block}'"):
            ExperimentConfig.from_dict({**base, block: typo})
    with pytest.raises(ConfigError, match="'grid' must be a JSON object"):
        ExperimentConfig.from_dict({**base, "grid": 40})
    with pytest.raises(ConfigError, match="grid nodes"):
        ExperimentConfig.from_dict({**base, "grid": {"nodes": 1}})


def test_dump_grid_matrices_is_an_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dump_grid_matrices": True})
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'dump_grid_matrices'" in capsys.readouterr().err


def test_grid_assembly_failure_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"nodes": 50, "y_max": 2.0}})
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: boundary leakage") and err.count("\n") == 1
    assert "Traceback" not in err


def test_thread_settings_are_ignored(tmp_path, monkeypatch, capsys):
    # --threads is accepted with one note; PDMP_LAB_THREADS is not read
    cfg = write_config(tmp_path)
    files = ["chain.csv", "occupation.csv", "summary.json"]
    monkeypatch.delenv("PDMP_LAB_THREADS", raising=False)
    runs = {"plain": ([], {}), "flag": (["--threads", "4"], {}),
            "env": ([], {"PDMP_LAB_THREADS": "3"})}
    outputs, notes = {}, {}
    for run, (extra, env) in runs.items():
        with monkeypatch.context() as m:
            for key, value in env.items():
                m.setenv(key, value)
            out = tmp_path / run
            assert main(["simulate", "--config", str(cfg), "--out", str(out)] + extra) == 0
        outputs[run] = read_bytes(out, files)
        notes[run] = capsys.readouterr().err.splitlines()
    assert all(outputs[run] == outputs["plain"] for run in runs)
    assert notes["plain"] == notes["env"] == []
    assert notes["flag"] == ["note: --threads is ignored; ensembles run serially"]


# the removed keys, each at a value that used to load (its former default)
REMOVED_KEYS = {"time_burn_in": None, "eta_time": 2.0, "drift_probes": [0.0, 1.0, 2.0, 4.0, 8.0],
                "drift_replicas": 20000, "threads": 1, "grid.time_cells": 2000,
                "grid.theta_cells": 1000, "tolerances.factorization_max": 1e-6,
                "tolerances.correspondence_max": 1e-6}


@pytest.mark.parametrize("path", list(REMOVED_KEYS))
def test_removed_config_keys_exit_2(tmp_path, capsys, path):
    block, _, key = path.rpartition(".")
    setting = {key: REMOVED_KEYS[path]}
    cfg = write_config(tmp_path, {block: setting} if block else setting)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown key '{key}'") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_exit_code_4_on_solver_failure(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = ["--out", str(tmp_path / "o")]
    monkeypatch.setattr(hazard_module, "HOLDING_NEWTON_MAX_ITER", 1)
    wide = CumulativeHazard(intensity=Intensity(base=1.0, gain=1.0), flow=AffineExpFlow())
    monkeypatch.setattr(grid_module, "POWER_ITERATION_MAX_ITER", 1)
    solvers = (lambda: power_iteration(np.array([[0.5, 0.5], [0.9, 0.1]])),
               lambda: invert_holding(wide, 0, np.array([2.5]), np.array([3.0])))
    for solve in solvers:
        monkeypatch.setitem(cli.COMMANDS, "oracle", lambda cfg, out_dir, solve=solve: solve())
        assert main(["oracle", "--config", str(cfg)] + out) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and err.count("\n") == 1

    def tolerance(cfg, out_dir):
        return cli._finish(out_dir / "t.json", {}, [Check("w1_forward_max", 0.2, 0.1, "<=",
                                                         "config")])
    monkeypatch.setitem(cli.COMMANDS, "oracle", tolerance)
    assert main(["oracle", "--config", str(cfg)] + out) == 3
    assert capsys.readouterr().err == "tolerance failure: w1_forward_max 0.2 <= 0.1\n"


def test_package_binds_only_its_version():
    # callers import the submodules; the package itself re-exports nothing
    import pdmp_lab

    exported = {name for name, value in vars(pdmp_lab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set()
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'version = "{pdmp_lab.__version__}"' in pyproject


# names in src that no src module loads, each with the reason it stays
TEST_ONLY_NAMES = {
    "sample_holding_thinning_vec": "reads only the rate and the flow, so the KS tests compare "
                                   "inversion with it",
    "holding_occupation_quadrature": "the deterministic reference of the Monte Carlo occupation "
                                     "transform",
    "jump_count_pmf": "perfbench calls it",
    "WeightedEmpiricalMeasure.integrate": "the pairing <f, mu> of a measure with a test function",
    "OracleReport.flow_vector": "the grid flow law: test_fixed_point_matches_closed_form_laws "
                                "checks it against the closed form, and a cross-route check "
                                "in oracle would compare it with the occupation sample",
}


def test_src_names_without_a_src_reader_are_pinned():
    # every module-level function, class and constant, and every method,
    # property and annotated field of src/pdmp_lab, against every name a src
    # module loads (a member is read when any attribute of its name is loaded).
    # A field also counts as read when a string constant passed to a call names
    # it (the getattr keys of Tolerances) or when asdict writes its class whole.
    # Dunder names are implicit. Being name-based, the check cannot see an
    # unread member whose name another class loads: ChainEnsemble.n_replicas
    # went unseen while EnsembleRun.n_replicas was read.
    defined, loaded = set(), set()
    members, field_types, returns, assigned, dumped = {}, {}, {}, {}, []
    for path in sorted((ROOT / "src" / "pdmp_lab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        members.setdefault(node.name, []).append(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        members.setdefault(node.name, []).append(item.target.id)
                        field_types[item.target.id] = ast.unparse(item.annotation)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                returns[node.name] = ast.unparse(node.returns)
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)):
                assigned.update((t.id, node.value.func.id) for t in node.targets
                                if isinstance(t, ast.Name))
            if isinstance(node, ast.Call):
                loaded.update(a.value for a in node.args
                              if isinstance(a, ast.Constant) and isinstance(a.value, str))
                if isinstance(node.func, ast.Name) and node.func.id == "asdict":
                    dumped.append(node.args[0])
    # the class of each asdict argument: a variable from a call, or an annotated field
    for arg in dumped:
        cls = (returns.get(assigned.get(arg.id)) if isinstance(arg, ast.Name)
               else field_types.get(arg.attr))
        assert cls in members, ast.unparse(arg)
        loaded.update(f"{cls}.{name}" for name in members[cls])
    defined.update(f"{cls}.{name}" for cls, names in members.items() for name in names)
    unread = {name for name in defined if not name.split(".")[-1].startswith("__")
              and name.split(".")[-1] not in loaded and name not in loaded}
    assert unread == set(TEST_ONLY_NAMES)
