import numpy as np
import pytest

from pdmp_lab.flows import FrozenFlow
from pdmp_lab.hazard import Intensity
from pdmp_lab.jumps import FiniteAffineIfs, PostJumpKernel, ProbabilityRows
from pdmp_lab.metrics import wasserstein1_1d
from pdmp_lab.models import DeclaredConstants, ModelSpec, gene_expression_model
from pdmp_lab.simulate import chain_measure, run_ensemble
from pdmp_lab.state import WeightedEmpiricalMeasure, ZeroMassError
from pdmp_lab.transforms import (
    chain_to_flow_stationary,
    flow_to_chain_stationary,
    holding_occupation_quadrature,
    holding_occupation_transform,
    weighted_jump_transform,
)

from oracles import (
    chain_step_transform,
    effective_sample_size,
    expected_holding_time_gl,
    ks_critical,
    ks_statistic_weighted,
)

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(lam_high=1.5)


def linear_rate_model():
    """Deterministic hand-checkable model: halving jumps, frozen flow."""
    flow = FrozenFlow()
    intensity = Intensity(base=1.0, gain=1.0)
    return ModelSpec(
        name="hand", flow=flow, intensity=intensity,
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,)),
                            ProbabilityRows([[1.0]])),
        declared=DeclaredConstants())


def chain_stationary(model, seed, replicas=2000, steps=120, burn=40):
    ens = run_ensemble(model, replicas, seed, n_steps=steps)
    return chain_measure(ens, burn)


def expected_holding_times(model, ys):
    """Mean holding time from each (y, 0): the quadrature occupation mass of a unit atom at y."""
    out, _ = holding_occupation_quadrature(model, WeightedEmpiricalMeasure.from_samples(ys))
    return out.weights.reshape(len(ys), -1).sum(axis=1)


def holding_stderr(mu, out):
    """Delta-method standard error of the occupation output mass, from the
    holding times out.weights / mu.weights drawn independently per atom; for
    equal weights 1/n it is the population std of the holding times over sqrt(n)."""
    holding = out.weights / mu.weights
    mean = np.dot(mu.weights, holding) / mu.weights.sum()
    return float(np.sqrt(np.sum((mu.weights * (holding - mean)) ** 2)))


def repeated(mu, reps):
    """``mu`` with each atom repeated ``reps`` times at 1/reps of its weight."""
    return WeightedEmpiricalMeasure(np.repeat(mu.ys, reps), np.repeat(mu.regimes, reps),
                                    np.repeat(mu.weights, reps) / reps)


def test_expected_holding_time_constant_rate():
    m = gene_expression_model(lam_low=2.0, lam_high=2.0)
    assert expected_holding_times(m, [3.0])[0] == pytest.approx(0.5, abs=1e-9)


def test_expected_holding_time_bracket():
    rng = np.random.default_rng(0)
    for val in expected_holding_times(GENE_SAT, rng.uniform(0, 12, 25)):
        assert 1.0 / 1.5 - 1e-9 <= val <= 1.0 + 1e-9


def test_expected_holding_time_dual_quadrature():
    # Gauss-Legendre occupation cells against Gauss-Laguerre, two independent rules
    ys = (0.0, 0.5, 1.0, 4.0, 10.0)
    for y, a in zip(ys, expected_holding_times(GENE_SAT, ys)):
        b = expected_holding_time_gl(GENE_SAT, y)
        assert a == pytest.approx(b, abs=1e-8)


def test_occupation_transform_mass_constant_rate():
    lam = 2.0
    m = gene_expression_model(lam_low=lam, lam_high=lam)
    mu = WeightedEmpiricalMeasure.from_samples(np.linspace(0, 3, 50)).normalize()
    quad, _ = holding_occupation_quadrature(m, mu)
    assert quad.total_mass == pytest.approx(1.0 / lam, abs=1e-8)
    mu_rep = repeated(mu, 200)
    mc, _ = holding_occupation_transform(m, mu_rep, np.random.default_rng(1))
    assert abs(mc.total_mass - 1.0 / lam) <= 3 * holding_stderr(mu_rep, mc) + 1e-12


def test_occupation_transform_frozen_flow_point_mass():
    flow = FrozenFlow()
    lam = 2.0
    intensity = Intensity(lam)
    m = ModelSpec(name="frozen", flow=flow, intensity=intensity,
                  jump=PostJumpKernel(FiniteAffineIfs(maps=((1.0, 0.0),), probs=(1.0,)),
                                      ProbabilityRows([[1.0]])),
                  declared=DeclaredConstants())
    mu = WeightedEmpiricalMeasure.from_samples([2.5])
    out, _ = holding_occupation_quadrature(m, mu)
    assert np.allclose(out.ys, 2.5)
    assert out.total_mass == pytest.approx(1.0 / lam, abs=1e-8)


def test_occupation_transform_zero_mass_rejected():
    mu = WeightedEmpiricalMeasure.from_samples([1.0], weights=[0.0])
    with pytest.raises(ZeroMassError):
        holding_occupation_transform(GENE, mu, rng=np.random.default_rng(2))


def test_occupation_transform_mc_vs_quadrature_w1():
    # the quadrature reference is the oracle for the Monte Carlo transform
    mu = chain_stationary(GENE_SAT, 3, replicas=2000, steps=60, burn=20)
    sub = WeightedEmpiricalMeasure.from_samples(mu.ys[:30_000]).normalize()
    mc, _ = holding_occupation_transform(GENE_SAT, repeated(sub, 33), np.random.default_rng(4))
    quad, _ = holding_occupation_quadrature(GENE_SAT, sub)
    w1 = wasserstein1_1d(mc.ys, mc.weights / mc.total_mass,
                         quad.ys, quad.weights / quad.total_mass)
    assert w1 <= 0.01


def test_weighted_jump_mass_constant_rate():
    lam = 2.0
    m = gene_expression_model(lam_low=lam, lam_high=lam)
    mu = WeightedEmpiricalMeasure.from_samples(np.linspace(0, 3, 40)).normalize()
    out, _ = weighted_jump_transform(m, mu, np.random.default_rng(5))
    assert out.total_mass == pytest.approx(lam, rel=1e-12)


def test_weighted_jump_hand_example():
    # deterministic halving jump with rate 1 + y/(1+y): atoms map by hand
    m = linear_rate_model()
    mu = WeightedEmpiricalMeasure.from_samples([1.0, 2.0], weights=[1.0, 1.0])
    out, _ = weighted_jump_transform(m, mu, np.random.default_rng(6))
    assert np.allclose(sorted(out.ys), [0.5, 1.0])
    expect = {0.5: 1.5, 1.0: 1.0 + 2.0 / 3.0}
    for y, w in zip(out.ys, out.weights):
        assert w == pytest.approx(expect[round(float(y), 6)], rel=1e-12)


def test_weighted_jump_mass_bracket():
    mu = chain_stationary(GENE_SAT, 7, replicas=500, steps=60, burn=20)
    out, normalizer = weighted_jump_transform(GENE_SAT, mu, np.random.default_rng(8))
    assert 1.0 <= normalizer <= 1.5


def test_correspondence_constant_rate_reduces_to_plain_kernels():
    # with a constant rate the normalizers are exactly (1/rate, rate)
    lam = 2.0
    m = gene_expression_model(lam_low=lam, lam_high=lam)
    mu = chain_stationary(m, 9, replicas=1000, steps=80, burn=30)
    to_flow, to_flow_normalizer = chain_to_flow_stationary(m, mu, np.random.default_rng(10))
    # the same draws unnormalized: to_flow is this occupation image over its mass
    mu = mu.normalize()
    occ, _ = holding_occupation_transform(m, mu, np.random.default_rng(10))
    assert to_flow_normalizer == occ.total_mass / mu.total_mass
    assert to_flow_normalizer == pytest.approx(1.0 / lam, abs=3 * holding_stderr(mu, occ) + 1e-9)
    _, to_chain_normalizer = flow_to_chain_stationary(m, to_flow, np.random.default_rng(11))
    assert to_chain_normalizer == pytest.approx(lam, rel=1e-12)


def test_correspondence_normalizer_brackets():
    mu = chain_stationary(GENE_SAT, 12, replicas=1000, steps=80, burn=30)
    to_flow, to_flow_normalizer = chain_to_flow_stationary(GENE_SAT, mu, np.random.default_rng(13))
    assert 1.0 / 1.5 <= to_flow_normalizer <= 1.0
    _, to_chain_normalizer = flow_to_chain_stationary(GENE_SAT, to_flow, np.random.default_rng(14))
    assert 1.0 <= to_chain_normalizer <= 1.5


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
    occ, _ = holding_occupation_transform(GENE, mu, rng=np.random.default_rng(26))
    occ_moment = occ.integrate(gauge)
    bound_occ = lip / (lam_low - rate) * in_moment + 0.0  # anchor fixed by the flow
    se = 3.0 * holding_stderr(mu, occ) * max(1.0, occ_moment / max(occ.total_mass, 1e-12))
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
