"""The output comparison tool of tools/ lists its runs and sizes a differing CSV
or JSON file.

The tool is loaded from its file; these tests run no CLI and no git.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from pdmp_lab.models import MODEL_REGISTRY, build_model
from pdmp_lab.simulate import jump_count_pmf

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
largest = compare_outputs.largest_differences


def test_csv_difference_is_sized_at_its_cell():
    a = b"n,tau,y\n0,0,1.5\n1,2.0000000000000004,3\n"
    b = b"n,tau,y\n0,0,1.5\n1,2,3.0000000000003\n"
    assert largest("chain.csv", a, b) == (
        "\n  largest absolute difference over its numbers: 3e-13 at line 3 column 3"
        "\n  largest relative difference over its numbers: 1e-13 at line 3 column 3")


def test_json_difference_is_sized_at_its_key_path():
    a = b'{"forward": {"w1": 0.5, "per_regime": [1.0, 2.0]}, "model": "gene", "ok": true}'
    b = b'{"forward": {"w1": 0.5, "per_regime": [1.0, 2.2]}, "model": "gene", "ok": false}'
    assert largest("distances.json", a, b).endswith(
        "difference over its numbers: 0.0909 at forward.per_regime[1]")


def test_a_round_off_value_gone_to_zero_does_not_hide_the_absolute_size():
    # relative to itself a round-off residual that drops to 0 moves by 1; the
    # absolute difference shows the largest move is at rounding level elsewhere
    a = b'{"correspondence": {"normalizer_product_error": 2.220446049250313e-16}, "mean": 2.5}'
    b = b'{"correspondence": {"normalizer_product_error": 0.0}, "mean": 2.5000000000000004}'
    assert largest("oracle.json", a, b) == (
        "\n  largest absolute difference over its numbers: 4.44e-16 at mean"
        "\n  largest relative difference over its numbers: 1 at "
        "correspondence.normalizer_product_error")


def test_numbers_that_do_not_pair_up_or_other_files_get_no_size():
    assert "do not pair up" in largest("chain.csv", b"n\n0\n1\n", b"n\n0\n")
    assert "do not pair up" in largest("a.json", b'{"x": 1}', b'{"y": 1}')
    assert largest("run.log", b"1", b"2") == ""


def test_a_non_finite_value_against_a_number_is_the_largest():
    assert largest("a.csv", b"1,2\n", b"1,nan\n").endswith("nan at line 1 column 2")
    assert largest("a.csv", b"inf,nan\n", b"1e308,nan\n").endswith("nan at line 1 column 1")
    assert largest("a.csv", b"1.0,nan\n", b"1,nan\n") == "\n  its numbers are equal"


def test_every_command_config_and_seed_runs_then_the_pmf_at_each_seed():
    # 4 commands x 3 configs x 2 seeds, oracle at 2 more grid sizes on two
    # configs, jump_count_pmf at the benchmark's sat-verify sizes, diagnostics
    # on 3 negative controls x 2 seeds, then simulate and oracle on 3 two-regime
    # variants x 2 seeds
    configs = ["gene_constant.json", "gene_saturating.json", "two_regime.json"]
    runs = compare_outputs.cases(configs)
    assert len(runs) == 24 + 8 + 2 + 6 + 12
    assert len({name for _, name, _, _, _ in runs}) == len(runs)
    runs = runs[:-12]  # the variants are checked below
    assert runs[1] == ("simulate gene_constant.json --seed 7", "simulate-gene_constant-None-7",
                       "gene_constant.json", ["-m", "pdmp_lab.cli", "simulate", "--config",
                                              "config.json", "--out", "out", "--seed", "7"], None)
    assert runs[-9][0] == "oracle two_regime.json at 800 nodes --seed 7" and runs[-9][4] == 800
    assert [(label, config, args[:2]) for label, _, config, args, _ in runs[-8:-6]] == [
        ("jump_count_pmf gene_saturating.json", "gene_saturating.json",
         ["-c", compare_outputs.PMF_SCRIPT]),
        ("jump_count_pmf gene_saturating.json --seed 7", "gene_saturating.json",
         ["-c", compare_outputs.PMF_SCRIPT])]
    assert [json.loads(args[2]) for _, _, _, args, _ in runs[-8:-6]] == [
        [[0.5, 1.0, 2.0], 20_000, 12, None], [[0.5, 1.0, 2.0], 20_000, 12, 7]]
    controls = [(label, config["model"]["name"], config["seed"])
                for label, _, config, _, _ in runs[-6:]]
    assert controls == [(f"diagnostics {name} (config seed {seed})", name, seed)
                        for name in compare_outputs.CONTROLS for seed in (1, 7)]
    assert runs[-1][2:] == ({"model": {"name": "control-supercritical", "params": {}}, "seed": 7},
                            ["-m", "pdmp_lab.cli", "diagnostics", "--config", "config.json",
                             "--out", "out"], None)


def test_two_regime_variants_are_the_option_pairs_no_shipped_config_uses():
    # simulate and oracle at seeds 1 and 7 on the shipped two_regime config with
    # its switching and jump options set to each pair no shipped config uses
    variants = compare_outputs.cases(["two_regime.json"])[-12:]
    shipped = json.loads((Path(compare_outputs.ROOT) / "configs" / "two_regime.json").read_text())
    seen = set()
    for label, name, config, args, nodes in variants:
        params = config["model"]["params"]
        pair, command, seed = (params["switching"], params["jumps"]), args[2], args[-1]
        seen.add((pair, command, seed))
        assert label == (f"{command} two_regime.json with switching={pair[0]}, jumps={pair[1]} "
                         f"--seed {seed}")
        assert args == ["-m", "pdmp_lab.cli", command, "--config", "config.json", "--out", "out",
                        "--seed", seed] and nodes is None
        # the shipped config but for the two options
        assert {**config, "model": {**config["model"], "params": shipped["model"]["params"]}} \
            == shipped
    assert seen == {(pair, command, seed) for pair in
                    [("uniform", "halving"), ("ramp", "bursts"), ("uniform", "bursts")]
                    for command in ("simulate", "oracle") for seed in ("1", "7")}
    # no shipped config uses these pairs
    assert (shipped["model"]["params"]["switching"], shipped["model"]["params"]["jumps"]) \
        == ("ramp", "halving")
    assert {(params["switching"], params["jumps"]) for params in
            (json.loads(path.read_text())["model"]["params"]
             for path in (Path(compare_outputs.ROOT) / "configs").glob("*.json"))
            if "switching" in params}.isdisjoint(compare_outputs.VARIANTS)


def test_controls_are_the_registered_negative_models():
    assert list(compare_outputs.CONTROLS) == sorted(
        name for name in MODEL_REGISTRY if not build_model(name).positive)


def test_pmf_script_writes_every_value_exactly(tmp_path, monkeypatch):
    # at a small size, in-process: the CSV reads back to the pmf bit for bit
    root = Path(compare_outputs.ROOT)
    shutil.copyfile(root / "configs" / "gene_saturating.json", tmp_path / "config.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["-c", json.dumps([[0.5, 2.0], 300, 4, 7])])
    exec(compare_outputs.PMF_SCRIPT, {})
    lines = (tmp_path / "out" / "jump_count_pmf.csv").read_text().splitlines()
    assert lines[0] == "t,count,p" and len(lines) == 1 + 2 * 5
    cfg = json.loads((tmp_path / "config.json").read_text())
    pmf = jump_count_pmf(build_model(cfg["model"]["name"], cfg["model"]["params"]),
                         [0.5, 2.0], 300, (7, 7), max_count=4)
    got = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(got[:, 0], np.repeat([0.5, 2.0], 5))
    assert np.array_equal(got[:, 1], np.tile(np.arange(5), 2))
    assert np.array_equal(got[:, 2], np.concatenate([pmf[0.5], pmf[2.0]]))
