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

from pdmp_lab.models import build_model
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
    # configs, then jump_count_pmf at the benchmark's sat-verify sizes
    configs = ["gene_constant.json", "gene_saturating.json", "two_regime.json"]
    runs = compare_outputs.cases(configs)
    assert len(runs) == 24 + 8 + 2
    assert len({name for _, name, _, _, _ in runs}) == len(runs)
    assert runs[1] == ("simulate gene_constant.json --seed 7", "simulate-gene_constant-None-7",
                       "gene_constant.json", ["-m", "pdmp_lab.cli", "simulate", "--config",
                                              "config.json", "--out", "out", "--seed", "7"], None)
    assert runs[-3][0] == "oracle two_regime.json at 800 nodes --seed 7" and runs[-3][4] == 800
    assert [(label, config, args[:2]) for label, _, config, args, _ in runs[-2:]] == [
        ("jump_count_pmf gene_saturating.json", "gene_saturating.json",
         ["-c", compare_outputs.PMF_SCRIPT]),
        ("jump_count_pmf gene_saturating.json --seed 7", "gene_saturating.json",
         ["-c", compare_outputs.PMF_SCRIPT])]
    assert [json.loads(args[2]) for _, _, _, args, _ in runs[-2:]] == [
        [[0.5, 1.0, 2.0], 20_000, 12, None], [[0.5, 1.0, 2.0], 20_000, 12, 7]]


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
