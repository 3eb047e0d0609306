import dataclasses
import math

import numpy as np
import pytest

from pdmp_lab import diagnostics
from pdmp_lab.diagnostics import (
    IFS_PAIRS,
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
from pdmp_lab.hazard import ConstantIntensity
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
from oracles import (
    estimate_ifs_constants_two_calls,
    ifs_pairs_two_calls,
    jump_displacement_bound_sampled,
)

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")
TWO = two_regime_model()


def failed(checks):
    """Names of the records that failed, in order."""
    return [c.name for c in checks if not c.passed]


def test_flow_contraction_gene_exact():
    lip, rate = estimate_flow_contraction(GENE, np.random.default_rng(0))
    assert lip == pytest.approx(1.0, abs=1e-9)
    assert rate == pytest.approx(-1.0, abs=1e-9)


def test_flow_contraction_frozen_flow():
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(name="frozen", flow=flow, intensity=intensity,
                      jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]])),
                      declared=DeclaredConstants())
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


def test_flow_displacement_reports_a_divergent_integral():
    # the expanding flow moves an anchor off its fixed point 0 at the discount's
    # own rate, so e^{-t} |e^t - 1| tends to 1 and the horizon probe reports it
    model = dataclasses.replace(control_expanding_flow(), declared=DeclaredConstants(anchor=1.0))
    with pytest.raises(RuntimeError, match="integrand does not decay; integral diverges"):
        flow_displacement_integral(model)
    assert "flow-displacement:deviation" in failed(run_assumption_suite(model, seed=3).checks)


def test_jump_displacement_gene():
    # exactly the burst mean; the Monte Carlo reference (mean + 3 s.e.) sits a hair above it
    assert jump_displacement_bound(GENE) == 1.0
    sampled = jump_displacement_bound_sampled(GENE, np.random.default_rng(3))
    assert 1.0 - 0.02 <= sampled <= 1.0 + 0.05


def test_jump_displacement_two_regime():
    # the halving maps move the anchor 0 by 0 and by 0.5, each with probability 1/2
    assert jump_displacement_bound(TWO) == 0.25


def test_jump_displacement_identity_map():
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(name="idmap", flow=flow, intensity=intensity,
                      jump=PostJumpKernel(FiniteAffineIfs(maps=((1.0, 0.0),), probs=(1.0,)),
                                          SwitchingMatrix([[1.0]])),
                      declared=DeclaredConstants(jump_displacement=0.0))
    assert jump_displacement_bound(model) == 0.0


def test_jump_displacement_scales_with_burst_mean():
    model = gene_expression_model(burst_mean=0.7)
    assert jump_displacement_bound(model) == 0.7
    sampled = jump_displacement_bound_sampled(model, np.random.default_rng(5))
    assert 0.7 - 0.015 <= sampled <= 0.7 + 0.04


def test_jump_displacement_record_does_not_depend_on_the_seed():
    # no theta is drawn, so no seed can push the record past its bound
    values = {next(c.value for c in run_assumption_suite(GENE, seed).checks
                   if c.name == "jump-displacement:sup") for seed in range(20)}
    assert values == {1.0}


def test_assumption_suite_draws_no_jump_variate(monkeypatch):
    def no_draw(self, rng, out):
        raise AssertionError("the assumption suite drew a jump variate")

    for kernel in (AdditiveBurstKernel, FiniteAffineIfs):
        monkeypatch.setattr(kernel, "draw", no_draw)
    for model in (GENE, GENE_SAT, TWO):
        assert failed(run_assumption_suite(model, seed=9).checks) == []


def test_ifs_constants_additive_bursts():
    lw, lp, dp = estimate_ifs_constants(GENE, np.random.default_rng(6))
    assert lw == 1.0  # isometries, in closed form
    assert lp == 0.0
    assert dp == 1.0


def test_ifs_constants_halving_maps():
    lw, lp, dp = estimate_ifs_constants(TWO, np.random.default_rng(7))
    assert lw == 0.5
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
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=probs),
                            SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants(jump_mean_contraction=0.5, density_lipschitz=0.4,
                                   density_overlap=0.6))
    lw, lp, dp = estimate_ifs_constants(model, np.random.default_rng(8))
    assert lp <= 0.4 + 1e-9  # 2 * 0.2 * sup d/dy [y/(1+y)]
    assert lp > 0.0
    assert dp >= 0.6
    assert lw <= 0.5 + 0.05


def _state_dependent_ifs_model():
    def probs(y):
        q = 0.3 + 0.2 * float(np.asarray(y)) / (1.0 + float(np.asarray(y)))
        return np.array([q, 1.0 - q])

    return ModelSpec(
        name="state-dep", flow=FrozenFlow(), intensity=ConstantIntensity(1.0),
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.5, 0.0), (1.0, 0.25)), probs=probs),
                            SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants(jump_mean_contraction=0.5))


@pytest.mark.parametrize("model", [GENE, TWO, _state_dependent_ifs_model()],
                         ids=["bursts", "halving", "state-dependent-affine"])
def test_ifs_constants_are_bitwise_the_two_call_estimate(model):
    new_rng = np.random.default_rng(25)
    lw, lp, dp = estimate_ifs_constants(model, new_rng)
    _, lp_ref, dp_ref = estimate_ifs_constants_two_calls(model, np.random.default_rng(25))
    assert (lp, dp) == (lp_ref, dp_ref)
    # the closed-form mean contraction at each pair agrees with the Monte Carlo one
    pairs = ifs_pairs_two_calls(model, np.random.default_rng(25))
    exact = [model.jump.ifs.mean_contraction(p.u, p.v) for p in pairs]
    for p, value in zip(pairs, exact):
        assert abs(value - p.contraction) <= 4.0 * p.contraction_se + p.contraction_rounding
    assert lw == max(exact)
    # only the pair locations are drawn
    ref_rng = np.random.default_rng(25)
    ref_rng.uniform(0.0, model.y_max, IFS_PAIRS)
    ref_rng.uniform(0.0, model.y_max, IFS_PAIRS)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_switch_constants_uniform():
    model = two_regime_model(switching="uniform")
    lip, overlap = estimate_switch_constants(model)
    assert lip == 0.0
    assert overlap == pytest.approx(1.0)


def test_switch_constants_single_regime():
    lip, overlap = estimate_switch_constants(GENE)
    assert lip == 0.0
    assert overlap == pytest.approx(1.0)


def switch_constants_pair_loop(model):
    """The pair-by-pair enumeration estimate_switch_constants replaced."""
    probes = np.linspace(0.0, model.y_max, 200)
    rows = model.jump.switching.rows_at(probes)
    lip_hat = 0.0
    for a in range(probes.size):
        for b in range(a + 1, probes.size):
            gap = abs(probes[a] - probes[b])
            if gap < 1e-12:
                continue
            diff = np.abs(rows[a] - rows[b]).sum(axis=1).max()
            lip_hat = max(lip_hat, float(diff) / gap)
    overlap = math.inf
    for i in range(model.n_regimes):
        for k in range(model.n_regimes):
            pair = np.minimum(rows[:, None, i, :], rows[None, :, k, :]).sum(axis=2)
            overlap = min(overlap, float(pair.min()))
    return lip_hat, overlap


@pytest.mark.parametrize("model", [GENE_SAT, TWO, two_regime_model(switching="uniform"),
                                   control_degenerate_switching()],
                         ids=["gene-saturating", "two-regime-ramp", "two-regime-uniform",
                              "control-degenerate-switching"])
def test_switch_constants_match_pair_loop(model):
    assert estimate_switch_constants(model) == switch_constants_pair_loop(model)


def test_switch_constants_ramp_enumerated():
    # clamp row against the constant row: infimum over pairs is
    # min(0.1, 0.9) + min(0.9, 0.1) = 0.2, slope 2 inside the ramp
    lip, overlap = estimate_switch_constants(TWO)
    assert lip == pytest.approx(2.0, abs=0.01)
    assert overlap == pytest.approx(0.2, abs=1e-9)


def test_flow_gap_two_regime():
    records = [c for c in run_assumption_suite(TWO, seed=1).checks if c.name.startswith("flow-gap")]
    assert [c.name for c in records] == ["flow-gap:excess", "flow-gap:integral"]
    assert all(c.passed for c in records)
    # one regime has no gap to bound, so no record
    assert not [c for c in run_assumption_suite(GENE, seed=1).checks
                if c.name.startswith("flow-gap")]


def test_flow_gap_keeps_a_nan_bound():
    # the builtin max(-inf, nan) is -inf, which would pass; np.maximum keeps the NaN
    declared = dataclasses.replace(TWO.declared, flow_gap_time=lambda t: np.full_like(
        np.asarray(t, dtype=float), np.nan))
    model = dataclasses.replace(TWO, declared=declared)
    excess, integral = diagnostics.check_flow_gap(model, np.random.default_rng(1))
    assert excess.name == "flow-gap:excess" and math.isnan(excess.value) and not excess.passed
    assert integral.name == "flow-gap:integral" and not integral.passed


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


def test_empirical_drift_gene_probes(monkeypatch):
    monkeypatch.setattr(diagnostics, "DRIFT_REPLICAS", 40_000)  # tighter than the default
    report = verify_drift_empirically(GENE, drift_constants(GENE), seed=9)
    assert failed(report.checks) == []
    assert [(c.value, c.bound) for c in report.checks] == [
        (p.estimate, p.bound + 3.0 * p.stderr) for p in report.probes]
    probe4 = [p for p in report.probes if p.location == 4.0][0]
    # E[4 e^{-T} + burst] = 4/2 + 1 = 3: the bound is tight here
    assert probe4.estimate == pytest.approx(3.0, abs=0.03)
    assert probe4.bound == pytest.approx(3.0)


def test_empirical_drift_detects_false_constants():
    # frozen flow has no drift toward the anchor: multiplier 0.5 is a lie
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    model = ModelSpec(name="no-drift", flow=flow, intensity=intensity,
                      jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]])),
                      declared=DeclaredConstants())
    from pdmp_lab.diagnostics import DriftConstants
    false_constants = DriftConstants(multiplier=0.5, offset=1.0)
    report = verify_drift_empirically(model, false_constants, seed=10)
    assert failed(report.checks)


def test_suite_positive_models_pass():
    for model in (GENE, GENE_SAT, TWO):
        report = run_assumption_suite(model, seed=11)
        assert failed(report.checks) == [], model.name


def test_suite_flow_contraction_ignores_rounding_of_near_pairs():
    # this seed drew pairs a few 1e-7 apart whose ratio rounding (~1e-8) once
    # pushed the fitted rate past the 1e-9 slack of the rate check
    report = run_assumption_suite(GENE_SAT, seed=(257464735, 1))
    assert failed(report.checks) == []
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
    # below rounding; that time is left out of the fit instead of faking a rate.
    # At kappa = 60 and 1000 fewer than two of the times 0.25..4 resolve a pair,
    # so every time is halved (twice, six times) on the same pairs until two do,
    # and the generator is left where the two pair draws leave it. At 1e8 and
    # 1e12 the slack is 64 eps kappa: an absolute 1e-9 resolved no pair at 1e8
    for kappa in (10.0, 60.0, 1000.0, 1e8, 1e12):
        rng = np.random.default_rng(0)
        lip, rate = estimate_flow_contraction(two_regime_model(kappa=kappa, c0=0.5), rng)
        slack = diagnostics.flow_rate_slack(-kappa)
        assert slack == (1e-9 if kappa <= 1000.0 else 64 * np.finfo(float).eps * kappa)
        assert rate == pytest.approx(-kappa, abs=slack) and lip == pytest.approx(1.0, abs=1e-9)
        after_pairs = np.random.default_rng(0)
        after_pairs.random(2 * diagnostics.FLOW_CONTRACTION_PAIRS)
        assert rng.random() == after_pairs.random()


def test_suite_negative_controls_fail_exactly_designated():
    expected = {
        "control-expanding-flow": ["flow-contraction:declared-rate"],
        "control-supercritical": ["stability-margin:margin"],
        "control-degenerate-switching": ["switch-regularity:overlap-positive"],
    }
    for factory in (control_expanding_flow, control_supercritical,
                    control_degenerate_switching):
        model = factory()
        report = run_assumption_suite(model, seed=12)
        assert failed(report.checks) == expected[model.name]


def test_suite_margin_skipped_without_envelope():
    report = run_assumption_suite(control_expanding_flow(), seed=13)
    assert not [c for c in report.checks if c.name.startswith("stability-margin")]
    assert report.stability_margin is None


def test_suite_report_serializes():
    report = run_assumption_suite(GENE, seed=14)
    assert set(report.to_json()) == {"model", "estimates", "declared", "stability_margin"}
    assert failed(report.checks) == []
    assert {c.to_json()["name"].split(":")[0] for c in report.checks} >= {
        "flow-contraction", "flow-displacement", "jump-displacement",
        "switch-regularity", "jump-regularity", "intensity-lipschitz",
        "stability-margin"}
