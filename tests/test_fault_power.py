"""Fault matrix: planted faults against the CLI commands meant to catch them.

Each fault is planted with ``monkeypatch`` and each command runs in-process on
the shipped ``configs/gene_saturating.json`` at its shipped seed and sizes; a
caught fault makes the command exit 3. A case that no record catches yet is a
strict xfail whose reason names the ROADMAP item meant to catch it, so the PR
that makes the catch sees the case turn into a failure and drops its marker.
No case is ever re-seeded or resized to make it pass.

F5: the rate's base and gain x0.85, with the declared bounds following.
F6: ``coef`` in ``hazard._saturating_hazard`` x0.9.
"""

import inspect
import json
from pathlib import Path

import pytest

from pdmp_lab import hazard, models
from pdmp_lab.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gene_saturating.json"


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


PLANTS = {"F5": plant_f5, "F6": plant_f6}
MEANT_TO_CATCH = {
    ("F5", "simulate"): "ROADMAP item 4: exact gene means from the config parameters",
    ("F5", "correspondence"): "ROADMAP item 4: exact gene laws from the config parameters",
    ("F5", "oracle"): "ROADMAP items 4 and 7: exact gene means within the grid's bias bound",
    ("F6", "simulate"): "ROADMAP item 2: holding times re-scored by time rescaling",
    ("F6", "correspondence"): "ROADMAP item 3: normalizer product 1 within its error bar",
    ("F6", "oracle"): "ROADMAP items 7 and 8: survival against quadrature, the forward equation",
}


@pytest.mark.parametrize("fault, command", [
    pytest.param(fault, command, id=f"{fault}-{command}",
                 marks=pytest.mark.xfail(strict=True, reason=f"uncaught; {reason}"))
    for (fault, command), reason in MEANT_TO_CATCH.items()])
def test_planted_fault_fails_the_command(tmp_path, monkeypatch, fault, command):
    PLANTS[fault](monkeypatch)
    assert main([command, "--config", str(CONFIG), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("fault", PLANTS)
def test_planted_fault_moves_the_shipped_hazard(monkeypatch, fault):
    # guards the plants themselves: an xfail above would also hide a plant that broke
    block = json.loads(CONFIG.read_text())["model"]
    clean = models.build_model(block["name"], block["params"]).hazard.value(0, 1.0, 2.0)
    PLANTS[fault](monkeypatch)
    planted = models.build_model(block["name"], block["params"]).hazard.value(0, 1.0, 2.0)
    assert abs(planted - clean) > 0.01 * clean
