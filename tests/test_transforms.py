import numpy as np
import pytest

from pdmp_lab.flows import FrozenFlow
from pdmp_lab.hazard import ConstantIntensity, CumulativeHazard, SaturatingIntensity
from pdmp_lab.jumps import FiniteAffineIfs, PostJumpKernel, SwitchingMatrix
from pdmp_lab.metrics import (
    effective_sample_size,
    ks_critical,
    ks_statistic_weighted,
    wasserstein1_1d,
)
from pdmp_lab.models import DeclaredConstants, ModelSpec, gene_expression_model
from pdmp_lab.simulate import chain_measure, run_ensemble
from pdmp_lab.state import StatePoint, WeightedEmpiricalMeasure, ZeroMassError
from pdmp_lab.transforms import (
    chain_step_transform,
    chain_to_flow_stationary,
    expected_holding_time,
    expected_holding_time_gl,
    flow_to_chain_stationary,
    holding_occupation_transform,
    weighted_jump_transform,
)

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")


def linear_rate_model():
    """Deterministic hand-checkable model: halving jumps, frozen flow."""
    flow = FrozenFlow()
    intensity = SaturatingIntensity(base=1.0, gain=1.0)
    return ModelSpec(
        name="hand", flow=flow, intensity=intensity,
        hazard=CumulativeHazard.for_model(flow, intensity),
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,)),
                            SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants(flow_rate=0.0))


def chain_stationary(model, seed, replicas=2000, steps=120, burn=40):
    ens = run_ensemble(model, replicas, seed, n_steps=steps)
    return chain_measure(ens, burn)


def test_expected_holding_time_constant_rate():
    m = gene_expression_model(lam=2.0)
    assert expected_holding_time(m, StatePoint(3.0, 0)) == pytest.approx(0.5, abs=1e-9)


def test_expected_holding_time_bracket():
    rng = np.random.default_rng(0)
    for y in rng.uniform(0, 12, 25):
        val = expected_holding_time(GENE_SAT, StatePoint(y, 0))
        assert 1.0 / 1.5 - 1e-9 <= val <= 1.0 + 1e-9


def test_expected_holding_time_dual_quadrature():
    # adaptive Simpson against Gauss-Laguerre, two independent rules
    for y in (0.0, 0.5, 1.0, 4.0, 10.0):
        a = expected_holding_time(GENE_SAT, StatePoint(y, 0))
        b = expected_holding_time_gl(GENE_SAT, StatePoint(y, 0))
        assert a == pytest.approx(b, abs=1e-8)


def test_occupation_transform_mass_constant_rate():
    lam = 2.0
    m = gene_expression_model(lam=lam)
    mu = WeightedEmpiricalMeasure.from_samples(np.linspace(0, 3, 50)).normalize()
    quad, rep_q = holding_occupation_transform(m, mu, variant="quadrature")
    assert rep_q.output_mass == pytest.approx(1.0 / lam, abs=1e-8)
    mc, rep_m = holding_occupation_transform(m, mu, rng=np.random.default_rng(1),
                                             samples_per_atom=200)
    assert abs(rep_m.output_mass - 1.0 / lam) <= 3 * rep_m.stderr + 1e-12


def test_occupation_transform_frozen_flow_point_mass():
    flow = FrozenFlow()
    lam = 2.0
    intensity = ConstantIntensity(lam)
    m = ModelSpec(name="frozen", flow=flow, intensity=intensity,
                  hazard=CumulativeHazard.for_model(flow, intensity),
                  jump=PostJumpKernel(FiniteAffineIfs(maps=((1.0, 0.0),), probs=(1.0,)),
                                      SwitchingMatrix([[1.0]])),
                  declared=DeclaredConstants(flow_rate=0.0))
    mu = WeightedEmpiricalMeasure.from_samples([2.5])
    out, rep = holding_occupation_transform(m, mu, variant="quadrature")
    assert np.allclose(out.ys, 2.5)
    assert rep.output_mass == pytest.approx(1.0 / lam, abs=1e-8)


def test_occupation_transform_zero_mass_rejected():
    mu = WeightedEmpiricalMeasure.from_samples([1.0], weights=[0.0])
    with pytest.raises(ZeroMassError):
        holding_occupation_transform(GENE, mu, rng=np.random.default_rng(2))


def test_occupation_transform_mc_vs_quadrature_w1():
    # quadrature variant is the oracle for the sampled variant
    mu = chain_stationary(GENE_SAT, 3, replicas=2000, steps=60, burn=20)
    sub = WeightedEmpiricalMeasure.from_samples(mu.ys[:30_000]).normalize()
    mc, _ = holding_occupation_transform(GENE_SAT, sub, rng=np.random.default_rng(4),
                                         samples_per_atom=33)
    quad, _ = holding_occupation_transform(GENE_SAT, sub, variant="quadrature",
                                           time_cells=200)
    w1 = wasserstein1_1d(mc.ys, mc.weights / mc.total_mass,
                         quad.ys, quad.weights / quad.total_mass)
    assert w1 <= 0.01


def test_weighted_jump_mass_constant_rate():
    lam = 2.0
    m = gene_expression_model(lam=lam)
    mu = WeightedEmpiricalMeasure.from_samples(np.linspace(0, 3, 40)).normalize()
    out, rep = weighted_jump_transform(m, mu, np.random.default_rng(5))
    assert rep.output_mass == pytest.approx(lam, rel=1e-12)


def test_weighted_jump_hand_example():
    # deterministic halving jump with rate 1 + y/(1+y): atoms map by hand
    m = linear_rate_model()
    mu = WeightedEmpiricalMeasure.from_samples([1.0, 2.0], weights=[1.0, 1.0])
    out, rep = weighted_jump_transform(m, mu, np.random.default_rng(6))
    assert np.allclose(sorted(out.ys), [0.5, 1.0])
    expect = {0.5: 1.5, 1.0: 1.0 + 2.0 / 3.0}
    for y, w in zip(out.ys, out.weights):
        assert w == pytest.approx(expect[round(float(y), 6)], rel=1e-12)


def test_weighted_jump_mass_bracket():
    mu = chain_stationary(GENE_SAT, 7, replicas=500, steps=60, burn=20)
    out, rep = weighted_jump_transform(GENE_SAT, mu, np.random.default_rng(8))
    assert 1.0 <= rep.normalizer <= 1.5


def test_correspondence_constant_rate_reduces_to_plain_kernels():
    # with a constant rate the normalizers are exactly (1/rate, rate)
    lam = 2.0
    m = gene_expression_model(lam=lam)
    mu = chain_stationary(m, 9, replicas=1000, steps=80, burn=30)
    to_flow, rep_f = chain_to_flow_stationary(m, mu, np.random.default_rng(10))
    assert rep_f.normalizer == pytest.approx(1.0 / lam, abs=3 * rep_f.stderr + 1e-9)
    to_chain, rep_b = flow_to_chain_stationary(m, to_flow, np.random.default_rng(11))
    assert rep_b.normalizer == pytest.approx(lam, rel=1e-12)


def test_correspondence_normalizer_brackets():
    mu = chain_stationary(GENE_SAT, 12, replicas=1000, steps=80, burn=30)
    to_flow, rep_f = chain_to_flow_stationary(GENE_SAT, mu, np.random.default_rng(13))
    assert 1.0 / 1.5 <= rep_f.normalizer <= 1.0
    to_chain, rep_b = flow_to_chain_stationary(GENE_SAT, to_flow, np.random.default_rng(14))
    assert 1.0 <= rep_b.normalizer <= 1.5


def test_correspondence_stationary_means_constant_rate():
    # chain-stationary Gamma(2,1) -> flow-stationary Exp(1) and back
    mu_chain = chain_stationary(GENE, 15, replicas=4000, steps=150, burn=50)
    assert mu_chain.mean_location() == pytest.approx(2.0, abs=0.05)
    to_flow, _ = chain_to_flow_stationary(GENE, mu_chain, np.random.default_rng(16))
    assert to_flow.mean_location() == pytest.approx(1.0, abs=0.05)
    back, _ = flow_to_chain_stationary(GENE, to_flow, np.random.default_rng(17))
    assert back.mean_location() == pytest.approx(2.0, abs=0.05)


def test_round_trip_fixed_point_consistency():
    mu_chain = chain_stationary(GENE, 18, replicas=4000, steps=150, burn=50)
    to_flow, _ = chain_to_flow_stationary(GENE, mu_chain, np.random.default_rng(19))
    back, _ = flow_to_chain_stationary(GENE, to_flow, np.random.default_rng(20))
    w1 = wasserstein1_1d(back.ys, back.weights, mu_chain.ys, mu_chain.weights)
    assert w1 <= 0.05


def test_factorization_in_law():
    # occupation transform then weighted jump, normalized, equals one chain step
    mu = chain_stationary(GENE_SAT, 21, replicas=1000, steps=100, burn=0)
    base = WeightedEmpiricalMeasure.from_samples(mu.ys[:100_000]).normalize()
    mid, _ = holding_occupation_transform(GENE_SAT, base, rng=np.random.default_rng(22))
    composite, _ = weighted_jump_transform(GENE_SAT, mid, np.random.default_rng(23))
    direct = chain_step_transform(GENE_SAT, base, np.random.default_rng(24))
    stat = ks_statistic_weighted(composite.ys, composite.weights, direct.ys, direct.weights)
    n_eff = effective_sample_size(composite.weights)
    assert stat <= ks_critical(n_eff, direct.n_atoms, alpha=0.01)


def test_moment_propagation_bounds():
    # unnormalized transform outputs inherit finite first moments with the
    # declared drift coefficients
    mu = chain_stationary(GENE, 25, replicas=1000, steps=80, burn=30)
    gauge = lambda ys, regimes: np.abs(ys)
    in_moment = mu.integrate(gauge)
    lam_low, lam_high = 1.0, 1.0
    lip, rate = 1.0, -1.0
    occ, rep_occ = holding_occupation_transform(GENE, mu, rng=np.random.default_rng(26))
    occ_moment = occ.integrate(gauge)
    bound_occ = lip / (lam_low - rate) * in_moment + 0.0  # anchor fixed by the flow
    se = 3.0 * rep_occ.stderr * max(1.0, occ_moment / max(rep_occ.output_mass, 1e-12))
    assert np.isfinite(occ_moment)
    assert occ_moment <= bound_occ + se + 0.05
    jumped, _ = weighted_jump_transform(GENE, mu, np.random.default_rng(27))
    jump_moment = jumped.integrate(gauge)
    bound_jump = lam_high * 1.0 * in_moment + lam_high * 1.0
    assert np.isfinite(jump_moment)
    assert jump_moment <= bound_jump + 0.05


def test_chain_step_transform_is_the_simulator_step():
    # atoms at y0 stepped with a chunk's stream land where run_ensemble's first step does
    ens = run_ensemble(GENE_SAT, 300, 29, y0=2.0, n_steps=1)
    stream = np.random.default_rng(np.random.SeedSequence(29).spawn(1)[0])
    out = chain_step_transform(GENE_SAT, WeightedEmpiricalMeasure.from_samples(np.full(300, 2.0)),
                               stream)
    _, ys, regimes = ens.chunks[0]
    assert np.array_equal(out.ys, ys[:, 1]) and np.array_equal(out.regimes, regimes[:, 1])


def test_chain_step_transform_preserves_weights():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], weights=[0.2, 0.3, 0.5])
    out = chain_step_transform(GENE, mu, np.random.default_rng(28))
    assert np.array_equal(out.weights, mu.weights)
    assert out.total_mass == pytest.approx(mu.total_mass)
