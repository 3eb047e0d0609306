import numpy as np
import pytest

from pdmp_lab.diagnostics import stability_margin
from pdmp_lab.flows import AffineExpFlow
from pdmp_lab.hazard import ConstantIntensity, CumulativeHazard
from pdmp_lab.jumps import AdditiveBurstKernel, PostJumpKernel, SwitchingMatrix
from pdmp_lab.models import (
    DeclaredConstants,
    ModelSpec,
    build_model,
    control_degenerate_switching,
    control_expanding_flow,
    control_supercritical,
    gene_expression_model,
    two_regime_model,
)


def test_gene_margin_constant_rate():
    # 1 - (1 * 1 * 1 - 1) = 1
    assert stability_margin(gene_expression_model()) == pytest.approx(1.0)


def test_gene_margin_saturating_default():
    # shipped band [1, 1.5]: margin 1 - (1.5 - 1) = 0.5
    assert stability_margin(gene_expression_model(intensity="saturating")) == pytest.approx(0.5)


def test_gene_margin_wide_band_boundary():
    # band [1, 2] with unit decay sits exactly at the stability boundary
    model = gene_expression_model(intensity="saturating", lam_low=1.0, lam_high=2.0)
    assert stability_margin(model) == pytest.approx(0.0)


def test_gene_parameter_validation():
    with pytest.raises(ValueError):
        gene_expression_model(kappa=0.0)
    with pytest.raises(ValueError):
        gene_expression_model(burst_mean=-1.0)
    with pytest.raises(ValueError):
        gene_expression_model(intensity="saturating", lam_low=2.0, lam_high=1.0)
    with pytest.raises(ValueError):
        gene_expression_model(intensity="nope")


def test_two_regime_declared_constants():
    model = two_regime_model()
    d = model.declared
    assert d.jump_mean_contraction == 0.5
    assert d.flow_displacement == pytest.approx(0.5)
    assert d.jump_displacement == pytest.approx(0.25)
    assert d.switch_overlap == pytest.approx(0.2)
    assert stability_margin(model) == pytest.approx(1.5)


def test_two_regime_flow_gap_closed_form():
    model = two_regime_model()
    ts = np.linspace(0.0, 6.0, 50)
    ys = np.linspace(0.0, 10.0, 50)
    gap = np.abs(model.flow.evaluate(0, ts, ys) - model.flow.evaluate(1, ts, ys))
    expect = 1.0 - np.exp(-ts)
    assert np.allclose(gap, expect, atol=1e-12)
    bound = model.declared.flow_gap_time(ts) * model.declared.flow_gap_scale(ys)
    assert (gap <= bound + 1e-12).all()


def test_negative_controls_flagged_not_positive():
    for factory in (control_expanding_flow, control_supercritical,
                    control_degenerate_switching):
        assert factory().positive is False


def test_registry_round_trip():
    model = build_model("gene", {"kappa": 1.0, "burst_mean": 1.0, "intensity": "constant",
                                 "lam": 1.0})
    assert model.name == "gene-constant"
    assert build_model("two-regime").n_regimes == 2
    with pytest.raises(KeyError):
        build_model("unknown-model")


def test_registry_covers_all_shipped_models():
    for name in ("gene", "gene-constant", "gene-saturating", "two-regime",
                 "control-expanding-flow", "control-supercritical",
                 "control-degenerate-switching"):
        assert build_model(name) is not None


def switching_window_model(edge, y_max):
    """Two-regime model whose switching rows sum to 1 up to ``edge`` and to 1.5 above."""
    def stay(y):
        return np.where(np.asarray(y, dtype=float) <= edge, 0.5, 1.0)

    def leave(y):
        return np.full_like(np.asarray(y, dtype=float), 0.5)

    flow = AffineExpFlow(rates=(1.0, 1.0), anchors=(0.0, 1.0))
    intensity = ConstantIntensity(1.0)
    return ModelSpec(name="switching-window", flow=flow, intensity=intensity,
                     hazard=CumulativeHazard.for_model(flow, intensity),
                     jump=PostJumpKernel(AdditiveBurstKernel(1.0),
                                         SwitchingMatrix([[stay, leave], [0.5, 0.5]])),
                     declared=DeclaredConstants(), y_max=y_max)


def test_switching_rows_checked_on_the_whole_model_window():
    # stochastic on [0, 15] only: a window reaching 20 must be rejected
    with pytest.raises(ValueError, match="switching rows must sum to 1"):
        switching_window_model(edge=15.0, y_max=20.0)


def test_switching_rows_checked_only_on_the_model_window():
    # rows fail only above 10, outside a window of [0, 10]
    model = switching_window_model(edge=10.0, y_max=10.0)
    rows = model.jump.switching.rows_at(np.linspace(0.0, 10.0, 101))
    assert np.abs(rows.sum(axis=2) - 1.0).max() == 0.0


def test_switching_entries_checked_on_the_model_window():
    def stay(y):
        return np.where(np.asarray(y, dtype=float) <= 12.0, 0.5, 1.5)

    def leave(y):
        return np.where(np.asarray(y, dtype=float) <= 12.0, 0.5, -0.5)

    # rows sum to 1 everywhere, but entries leave [0, 1] above 12
    switching = SwitchingMatrix([[stay, leave], [0.5, 0.5]])
    flow = AffineExpFlow(rates=(1.0, 1.0), anchors=(0.0, 1.0))
    intensity = ConstantIntensity(1.0)
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
        ModelSpec(name="switching-entries", flow=flow, intensity=intensity,
                  hazard=CumulativeHazard.for_model(flow, intensity),
                  jump=PostJumpKernel(AdditiveBurstKernel(1.0), switching),
                  declared=DeclaredConstants(), y_max=15.0)
