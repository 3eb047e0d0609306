import json
from pathlib import Path

import numpy as np
import pytest

from pdmp_lab import cli
from pdmp_lab import hazard as hazard_module
from pdmp_lab.cli import ExperimentConfig, ConfigError, main
from pdmp_lab.flows import AffineExpFlow
from pdmp_lab.grid import power_iteration
from pdmp_lab.hazard import CumulativeHazard, SaturatingIntensity, adaptive_simpson, invert_holding

BASE_CONFIG = {
    "model": {"name": "gene", "params": {"kappa": 1.0, "burst_mean": 1.0,
                                         "intensity": "constant", "lam": 1.0}},
    "seed": 777,
    "replicas": 120,
    "chain_steps": 150,
    "chain_burn_in_steps": 30,
    "horizon": 60.0,
    "occupation_samples_per_replica": 80,
    "grid": {"nodes": 80, "time_cells": 600, "theta_cells": 400},
    "eta_time": 2.0,
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
    assert payload["factorization"]["passed"] is True
    assert payload["correspondence"]["normalizer_product_error"] <= 1e-8
    assert (out / "fixed_point.csv").exists()


def test_diagnostics_positive_model(tmp_path):
    cfg = write_config(tmp_path, {"drift_replicas": 4000, "drift_probes": [0.0, 2.0, 4.0]})
    out = tmp_path / "out"
    assert main(["diagnostics", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["assumptions"]["passed"] is True
    assert payload["drift"]["passed"] is True


def test_diagnostics_negative_control_reports_without_failing(tmp_path):
    cfg = write_config(tmp_path, {"model": {"name": "control-expanding-flow", "params": {}}})
    out = tmp_path / "out"
    assert main(["diagnostics", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["assumptions"]["passed"] is False
    failed = [c["name"] for c in payload["assumptions"]["checks"] if c["passed"] is False]
    assert failed == ["flow-contraction"]


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


def test_exit_code_3_on_tolerance_failure(tmp_path):
    cfg = write_config(tmp_path, {"tolerances": {"occupation_mean": [42.0, 43.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    # outputs are still written for post-mortem
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tolerance_failures"]


def test_config_seed_and_threads_overrides(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    cfg = ExperimentConfig.from_file(str(cfg_path))
    assert cfg.seed == 777
    monkeypatch.setenv("PDMP_LAB_THREADS", "3")
    out1 = tmp_path / "a"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    # env var must not change the numbers, only the worker count
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


def test_thread_count_precedence(tmp_path, monkeypatch):
    # --threads, then the config's "threads", then PDMP_LAB_THREADS, then 1
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "simulate", lambda cfg, out_dir: seen.append(cfg.threads))
    with_threads = write_config(tmp_path, {"threads": 2}, name="with.json")
    without = write_config(tmp_path, name="without.json")
    out = ["--out", str(tmp_path / "o")]
    monkeypatch.delenv("PDMP_LAB_THREADS", raising=False)
    assert main(["simulate", "--config", str(without)] + out) == 0
    monkeypatch.setenv("PDMP_LAB_THREADS", "3")
    assert main(["simulate", "--config", str(without)] + out) == 0
    assert main(["simulate", "--config", str(with_threads)] + out) == 0
    assert main(["simulate", "--config", str(with_threads), "--threads", "4"] + out) == 0
    assert seen == [1, 3, 2, 4]


def test_exit_code_4_on_solver_failure(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = ["--out", str(tmp_path / "o")]
    monkeypatch.setattr(hazard_module, "HOLDING_NEWTON_MAX_ITER", 1)
    wide = CumulativeHazard.for_model(AffineExpFlow(), SaturatingIntensity(base=1.0, gain=1.0))
    solvers = (lambda: power_iteration(np.array([[0.5, 0.5], [0.9, 0.1]]), max_iter=1),
               lambda: invert_holding(wide, 0, np.array([2.5]), np.array([3.0])),
               lambda: adaptive_simpson(lambda t: abs(t) ** 0.5, -1.0, 1.0, 1e-14, max_depth=3))
    for solve in solvers:
        monkeypatch.setitem(cli.COMMANDS, "oracle", lambda cfg, out_dir, solve=solve: solve())
        assert main(["oracle", "--config", str(cfg)] + out) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and err.count("\n") == 1

    def tolerance(cfg, out_dir):
        raise cli.ToleranceFailure("w1_forward_max exceeded")
    monkeypatch.setitem(cli.COMMANDS, "oracle", tolerance)
    assert main(["oracle", "--config", str(cfg)] + out) == 3
