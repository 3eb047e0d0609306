import numpy as np
import pytest

from pdmp_lab.diagnostics import (
    drift_constants,
    estimate_flow_contraction,
    estimate_ifs_constants,
    estimate_switch_constants,
    flow_displacement_integral,
    intensity_lipschitz_scan,
    jump_displacement_bound,
    run_assumption_suite,
    stability_margin,
    verify_drift_empirically,
)
from pdmp_lab.flows import FrozenFlow
from pdmp_lab.hazard import ConstantIntensity, CumulativeHazard
from pdmp_lab.jumps import AdditiveBurstKernel, FiniteAffineIfs, PostJumpKernel, SwitchingMatrix
from pdmp_lab.models import (
    DeclaredConstants,
    ModelSpec,
    control_degenerate_switching,
    control_expanding_flow,
    control_supercritical,
    gene_expression_model,
    two_regime_model,
)

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")
TWO = two_regime_model()


def test_flow_contraction_gene_exact():
    lip, rate = estimate_flow_contraction(GENE, np.random.default_rng(0))
    assert lip == pytest.approx(1.0, abs=1e-9)
    assert rate == pytest.approx(-1.0, abs=1e-9)


def test_flow_contraction_frozen_flow():
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(name="frozen", flow=flow, intensity=intensity,
                      hazard=CumulativeHazard.for_model(flow, intensity),
                      jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]])),
                      declared=DeclaredConstants(flow_rate=0.0))
    lip, rate = estimate_flow_contraction(model, np.random.default_rng(1))
    assert lip == pytest.approx(1.0, abs=1e-9)
    assert rate == pytest.approx(0.0, abs=1e-9)


def test_flow_contraction_expanding_negative_control():
    model = control_expanding_flow()
    lip, rate = estimate_flow_contraction(model, np.random.default_rng(2))
    assert rate == pytest.approx(1.0, abs=1e-9)
    assert rate >= model.intensity.lower - 1e-9  # no admissible envelope


def test_flow_displacement_fixed_point_anchor():
    assert flow_displacement_integral(GENE) == pytest.approx(0.0, abs=1e-10)


def test_flow_displacement_two_regime_closed_form():
    # pull toward the far attractor: integral of e^{-t}(1 - e^{-t}) = 1/2
    assert flow_displacement_integral(TWO) == pytest.approx(0.5, abs=1e-8)


def test_jump_displacement_gene():
    # the estimator reports sup over probes of (mean + 3 s.e.), so it sits
    # a hair above the exact burst mean
    val = jump_displacement_bound(GENE, np.random.default_rng(3))
    assert 1.0 - 0.02 <= val <= 1.0 + 0.05


def test_jump_displacement_identity_map():
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(name="idmap", flow=flow, intensity=intensity,
                      hazard=CumulativeHazard.for_model(flow, intensity),
                      jump=PostJumpKernel(FiniteAffineIfs(maps=((1.0, 0.0),), probs=(1.0,)),
                                          SwitchingMatrix([[1.0]])),
                      declared=DeclaredConstants(flow_rate=0.0, jump_displacement=0.0))
    assert jump_displacement_bound(model, np.random.default_rng(4)) == pytest.approx(0.0, abs=1e-12)


def test_jump_displacement_scales_with_burst_mean():
    model = gene_expression_model(burst_mean=0.7)
    val = jump_displacement_bound(model, np.random.default_rng(5))
    assert 0.7 - 0.015 <= val <= 0.7 + 0.04


def test_ifs_constants_additive_bursts():
    lw, lp, dp = estimate_ifs_constants(GENE, np.random.default_rng(6))
    assert lw == pytest.approx(1.0, abs=1e-9)  # isometries
    assert lp == 0.0
    assert dp == 1.0


def test_ifs_constants_halving_maps():
    lw, lp, dp = estimate_ifs_constants(TWO, np.random.default_rng(7))
    assert lw == pytest.approx(0.5, abs=1e-9)
    assert lp == 0.0
    assert dp == 1.0


def test_ifs_constants_state_dependent_density():
    # state-dependent selection probabilities: estimate stays below declared
    def probs(y):
        q = 0.3 + 0.2 * float(np.asarray(y)) / (1.0 + float(np.asarray(y)))
        return np.array([q, 1.0 - q])

    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(
        name="state-dep", flow=flow, intensity=intensity,
        hazard=CumulativeHazard.for_model(flow, intensity),
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=probs),
                            SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants(flow_rate=0.0, jump_mean_contraction=0.5,
                                   density_lipschitz=0.4, density_overlap=0.6))
    lw, lp, dp = estimate_ifs_constants(model, np.random.default_rng(8), n_pairs=100,
                                        n_theta=5000)
    assert lp <= 0.4 + 1e-9  # 2 * 0.2 * sup d/dy [y/(1+y)]
    assert lp > 0.0
    assert dp >= 0.6
    assert lw <= 0.5 + 0.05


def test_switch_constants_uniform():
    model = two_regime_model(switching="uniform")
    lip, overlap = estimate_switch_constants(model)
    assert lip == 0.0
    assert overlap == pytest.approx(1.0)


def test_switch_constants_single_regime():
    lip, overlap = estimate_switch_constants(GENE)
    assert lip == 0.0
    assert overlap == pytest.approx(1.0)


def test_switch_constants_ramp_enumerated():
    # clamp row against the constant row: infimum over pairs is
    # min(0.1, 0.9) + min(0.9, 0.1) = 0.2, slope 2 inside the ramp
    lip, overlap = estimate_switch_constants(TWO)
    assert lip == pytest.approx(2.0, abs=0.01)
    assert overlap == pytest.approx(0.2, abs=1e-9)


def test_flow_gap_two_regime():
    report = [c for c in run_assumption_suite(TWO, seed=1).checks if c.name == "flow-gap"][0]
    assert report.passed


def test_intensity_lipschitz_scan():
    assert intensity_lipschitz_scan(GENE) == 0.0
    val = intensity_lipschitz_scan(GENE_SAT)
    assert 0.45 <= val <= 0.5 + 1e-9  # sup slope 0.5 attained at the origin


def test_drift_constants_gene():
    c = drift_constants(GENE)
    assert c.multiplier == pytest.approx(0.5)
    assert c.offset == pytest.approx(1.0)


def test_drift_constants_two_regime():
    c = drift_constants(TWO)
    assert c.multiplier == pytest.approx(0.25)
    assert c.offset == pytest.approx(0.5)


def test_stability_margin_values():
    assert stability_margin(GENE) == pytest.approx(1.0)
    assert stability_margin(GENE_SAT) == pytest.approx(0.5)
    assert stability_margin(control_supercritical()) == pytest.approx(-0.5)


def test_margin_sign_iff_multiplier_below_one():
    for model in (GENE, GENE_SAT, TWO, control_supercritical()):
        margin = stability_margin(model)
        c = drift_constants(model)
        assert (c.multiplier < 1.0) == (margin > 0.0)


def test_drift_constants_reject_closed_gap():
    model = control_expanding_flow()
    with pytest.raises(ValueError):
        drift_constants(model)


def test_empirical_drift_gene_probes():
    report = verify_drift_empirically(GENE, drift_constants(GENE),
                                      probe_ys=(0.0, 1.0, 2.0, 4.0, 8.0),
                                      replicas=40_000, seed=9)
    assert report.passed
    probe4 = [p for p in report.probes if p.location == 4.0][0]
    # E[4 e^{-T} + burst] = 4/2 + 1 = 3: the bound is tight here
    assert probe4.estimate == pytest.approx(3.0, abs=0.03)
    assert probe4.bound == pytest.approx(3.0)


def test_empirical_drift_detects_false_constants():
    # frozen flow has no drift toward the anchor: multiplier 0.5 is a lie
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(name="no-drift", flow=flow, intensity=intensity,
                      hazard=CumulativeHazard.for_model(flow, intensity),
                      jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]])),
                      declared=DeclaredConstants(flow_rate=0.0))
    from pdmp_lab.diagnostics import DriftConstants
    false_constants = DriftConstants(multiplier=0.5, offset=1.0, jump_multiplier=1.0,
                                     jump_offset=1.0, flow_displacement=0.0,
                                     jump_displacement=1.0)
    report = verify_drift_empirically(model, false_constants, probe_ys=(4.0, 8.0),
                                      replicas=20_000, seed=10)
    assert not report.passed


def test_suite_positive_models_pass():
    for model in (GENE, GENE_SAT, TWO):
        report = run_assumption_suite(model, seed=11)
        assert report.passed, (model.name, report.failed_names())


def test_suite_flow_contraction_ignores_rounding_of_near_pairs():
    # this seed drew pairs a few 1e-7 apart whose ratio rounding (~1e-8) once
    # pushed the fitted rate past the 1e-9 slack of the rate check
    report = run_assumption_suite(GENE_SAT, seed=(257464735, 1))
    assert report.passed, report.failed_names()
    assert report.estimates["flow_rate"] == pytest.approx(-1.0, abs=1e-9)


def test_flow_contraction_resolves_fast_decay_toward_nonzero_attractor():
    # regime 1 relaxes to c = 1 at kappa = 3, so by t = 4 two flow values near 1
    # differ by ~e^-12 |u - v|; these seeds once fitted a rate 1.07e-9 and
    # 1.03e-9 above the declared -3, past the 1e-9 slack of the rate check
    model = two_regime_model(kappa=3.0)
    for seed in (157, 208):
        lip, rate = estimate_flow_contraction(model, np.random.default_rng((seed, 1)))
        assert rate <= -3.0 + 1e-9
        assert rate == pytest.approx(-3.0, abs=1e-9) and lip == pytest.approx(1.0, abs=1e-9)
    # at kappa = 10 with both attractors off zero every t = 4 difference is
    # below rounding; that time is left out of the fit instead of faking a rate
    lip, rate = estimate_flow_contraction(two_regime_model(kappa=10.0, c0=0.5),
                                          np.random.default_rng(0))
    assert rate == pytest.approx(-10.0, abs=1e-9)


def test_suite_negative_controls_fail_exactly_designated():
    expected = {
        "control-expanding-flow": ["flow-contraction"],
        "control-supercritical": ["stability-margin"],
        "control-degenerate-switching": ["switch-regularity"],
    }
    for factory in (control_expanding_flow, control_supercritical,
                    control_degenerate_switching):
        model = factory()
        report = run_assumption_suite(model, seed=12)
        assert report.failed_names() == expected[model.name]


def test_suite_margin_skipped_without_envelope():
    report = run_assumption_suite(control_expanding_flow(), seed=13)
    margin_check = [c for c in report.checks if c.name == "stability-margin"][0]
    assert margin_check.passed is None
    assert report.stability_margin is None


def test_suite_report_serializes():
    report = run_assumption_suite(GENE, seed=14)
    payload = report.to_json()
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "flow-contraction", "flow-displacement", "jump-displacement",
        "switch-regularity", "jump-regularity", "intensity-lipschitz",
        "stability-margin"}
