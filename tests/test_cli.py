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


@pytest.mark.parametrize("overrides, message", [
    ({"time_burn_in": -5.0}, "time_burn_in"),
    ({"time_burn_in": 60.0}, "time_burn_in"),
    ({"eta_time": -1.0}, "eta_time"),
    ({"eta_time": 61.0}, "eta_time"),
    ({"occupation_samples_per_replica": 0}, "occupation_samples_per_replica"),
    ({"drift_replicas": 0}, "drift_replicas"),
    ({"grid": {"time_cells": 0}}, "time_cells"),
    ({"grid": {"theta_cells": 0}}, "theta_cells"),
], ids=["negative-burn-in", "burn-in-at-horizon", "negative-eta-time", "eta-time-past-horizon",
        "no-occupation-samples", "no-drift-replicas", "no-time-cells", "no-theta-cells"])
def test_bad_config_values_exit_2_at_load(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, overrides)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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
    # --threads and the config key are accepted with one note; PDMP_LAB_THREADS is not read
    without = write_config(tmp_path, name="without.json")
    with_threads = write_config(tmp_path, {"threads": 2}, name="with.json")
    files = ["chain.csv", "occupation.csv", "summary.json"]
    monkeypatch.delenv("PDMP_LAB_THREADS", raising=False)
    runs = {"plain": (without, [], {}), "flag": (without, ["--threads", "4"], {}),
            "config": (with_threads, [], {}), "env": (without, [], {"PDMP_LAB_THREADS": "3"})}
    outputs, notes = {}, {}
    for run, (cfg, extra, env) in runs.items():
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
    assert notes["config"] == ["note: config key 'threads' is ignored; ensembles run serially"]


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
