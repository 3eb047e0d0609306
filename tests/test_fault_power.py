"""Fault matrix: planted faults against the CLI commands meant to catch them.

Each fault is planted with ``monkeypatch`` and each command runs in-process on
the fault's shipped config at its shipped seed and sizes; a caught fault makes
the command exit 3. A case that no record catches yet is a
strict xfail whose reason names the ROADMAP item meant to catch it, so the PR
that makes the catch sees the case turn into a failure and drops its marker.
No case is ever re-seeded or resized to make it pass.

On ``configs/gene_saturating.json``:
F5: the rate's base and gain x0.85, with the declared bounds following.
F6: ``coef`` in ``hazard._saturating_hazard`` x0.9.

On ``configs/two_regime.json``, planted in the draw only, so the grid and the
diagnostics still read the true law:
map-probs: the halving maps drawn with probabilities 0.55 / 0.45, not 0.5 / 0.5.
swapped-regime: the ramp switch draws the other regime.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from pdmp_lab import hazard, jumps, models
from pdmp_lab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def plant_f5(monkeypatch):
    # every rate a model builds is scaled; its bounds derive from base and gain
    real = models.Intensity
    monkeypatch.setattr(models, "Intensity",
                        lambda base, gain=0.0: real(0.85 * base, 0.85 * gain))


def plant_f6(monkeypatch):
    # the closed form recompiled with its one coefficient shrunk
    source = inspect.getsource(hazard._saturating_hazard)
    line = "coef = gain / (kappa * one_c)"
    assert source.count(line) == 1
    namespace = dict(vars(hazard))
    exec(source.replace(line, "coef = 0.9 * gain / (kappa * one_c)"), namespace)
    monkeypatch.setattr(hazard, "_saturating_hazard", namespace["_saturating_hazard"])


def plant_map_probs(monkeypatch):
    # every affine IFS draws from the skewed law; its ``law`` and ``probs`` stay true
    skewed = jumps.ProbabilityRows([[0.55, 0.45]])
    monkeypatch.setattr(jumps.FiniteAffineIfs, "thetas",
                        lambda self, ys, us: skewed.pick(0, ys, us))


def plant_swapped_regime(monkeypatch):
    # the ramp law's draw returns the other regime; its rows stay true
    real = models._ramp_switch

    def swapped():
        law = real()
        pick = law.pick
        law.pick = lambda rows, ys, us: 1 - pick(rows, ys, us)
        return law

    monkeypatch.setattr(models, "_ramp_switch", swapped)


PLANTS = {"F5": plant_f5, "F6": plant_f6, "map-probs": plant_map_probs,
          "swapped-regime": plant_swapped_regime}
CONFIG_OF = {"F5": "gene_saturating", "F6": "gene_saturating", "map-probs": "two_regime",
             "swapped-regime": "two_regime"}
CROSS_ROUTE = "ROADMAP item 7: oracle's cross-route records, the chain law against the grid's"
MEANT_TO_CATCH = {
    ("F5", "simulate"): "ROADMAP item 4: exact gene means from the config parameters",
    ("F5", "correspondence"): "ROADMAP item 4: exact gene laws from the config parameters",
    ("F5", "oracle"): "ROADMAP items 4 and 7: exact gene means within the grid's bias bound",
    ("F6", "simulate"): "ROADMAP item 2: holding times re-scored by time rescaling",
    ("F6", "correspondence"): "ROADMAP item 3: normalizer product 1 within its error bar",
    ("F6", "oracle"): "ROADMAP items 7 and 8: survival against quadrature, the forward equation",
    **{(fault, command): CROSS_ROUTE for fault in ("map-probs", "swapped-regime")
       for command in ("simulate", "correspondence", "oracle", "diagnostics")},
}


@pytest.mark.parametrize("fault, command", [
    pytest.param(fault, command, id=f"{fault}-{command}",
                 marks=pytest.mark.xfail(strict=True, reason=f"uncaught; {reason}"))
    for (fault, command), reason in MEANT_TO_CATCH.items()])
def test_planted_fault_fails_the_command(tmp_path, monkeypatch, fault, command):
    PLANTS[fault](monkeypatch)
    config = CONFIGS / f"{CONFIG_OF[fault]}.json"
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 3


def shipped_model(fault):
    block = json.loads((CONFIGS / f"{CONFIG_OF[fault]}.json").read_text())["model"]
    return models.build_model(block["name"], block["params"])


@pytest.mark.parametrize("fault", ["F5", "F6"])
def test_planted_fault_moves_the_shipped_hazard(monkeypatch, fault):
    # guards the plants themselves: an xfail above would also hide a plant that broke
    block = json.loads((CONFIGS / f"{CONFIG_OF[fault]}.json").read_text())["model"]
    clean = models.build_model(block["name"], block["params"]).hazard.value(0, 1.0, 2.0)
    PLANTS[fault](monkeypatch)
    planted = models.build_model(block["name"], block["params"]).hazard.value(0, 1.0, 2.0)
    assert abs(planted - clean) > 0.01 * clean


def test_planted_map_probabilities_move_the_draw(monkeypatch):
    # from y = 0 the halving maps land on 0 and on 1/2; the plant moves every
    # uniform in [0.5, 0.55) to the first, and the kernel's own law stays 0.5 / 0.5
    n = 100_000
    clean = shipped_model("map-probs").jump.sample_vec(np.zeros(n), np.zeros(n, dtype=np.int64),
                                                       np.random.default_rng(1))[0]
    plant_map_probs(monkeypatch)
    model = shipped_model("map-probs")
    us = np.random.default_rng(1).random(n)
    planted = model.jump.sample_vec(np.zeros(n), np.zeros(n, dtype=np.int64),
                                    np.random.default_rng(1))[0]
    assert np.array_equal(clean == 0.0, us < 0.5)
    assert np.array_equal(planted == 0.0, us < 0.55)
    assert np.array_equal(model.jump.ifs.discretize(0, 0.0, np.zeros(1))[1], [[0.5, 0.5]])


def test_planted_swapped_regime_moves_the_draw(monkeypatch):
    # every switch lands in the other regime; the jumps and the rows the grid
    # reads stay as they were
    rng = np.random.default_rng(2)
    ys, regimes = rng.uniform(0.0, 1.2, 1000), rng.integers(0, 2, 1000)
    clean = shipped_model("swapped-regime").jump
    plant_swapped_regime(monkeypatch)
    planted = shipped_model("swapped-regime").jump
    (ys_clean, to_clean), (ys_planted, to_planted) = (
        kernel.sample_vec(ys, regimes, np.random.default_rng(3)) for kernel in (clean, planted))
    assert np.array_equal(ys_planted, ys_clean)
    assert np.array_equal(to_planted, 1 - to_clean)
    assert np.array_equal(planted.switching.rows_at(ys), clean.switching.rows_at(ys))
