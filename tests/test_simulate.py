import math

import numpy as np
import pytest

from pdmp_lab.flows import FrozenFlow
from pdmp_lab.hazard import ConstantIntensity, CumulativeHazard
from pdmp_lab.jumps import AdditiveBurstKernel, PostJumpKernel, SwitchingMatrix
from pdmp_lab.metrics import ks_critical, ks_statistic
from pdmp_lab.models import ModelSpec, DeclaredConstants, gene_expression_model, two_regime_model
from pdmp_lab.simulate import (
    JumpTrajectory,
    PdmpPath,
    chain_measure,
    count_jumps,
    jump_count_pmf,
    occupation_from_ensemble,
    occupation_measure,
    run_chain,
    run_ensemble,
    step_chain,
)
from pdmp_lab.state import ExtendedState, StatePoint

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")
TWO = two_regime_model()


def frozen_model(lam=1.0):
    flow = FrozenFlow()
    intensity = ConstantIntensity(lam)
    return ModelSpec(
        name="frozen", flow=flow, intensity=intensity,
        hazard=CumulativeHazard.for_model(flow, intensity),
        jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]]), intensity),
        declared=DeclaredConstants(flow_rate=0.0))


def test_step_with_forced_holding_time():
    state = ExtendedState(StatePoint(4.0, 0), 0.0)
    rng = np.random.default_rng(0)
    out = step_chain(GENE, state, rng, holding_time=math.log(2.0))
    # pre-jump point is exactly the flow at the forced time; bursts only add
    assert out.x.y >= 2.0
    assert out.s == pytest.approx(math.log(2.0))


def test_clock_strictly_increases():
    rng = np.random.default_rng(1)
    state = ExtendedState(StatePoint(0.0, 0), 0.0)
    for _ in range(200):
        nxt = step_chain(GENE_SAT, state, rng)
        assert nxt.s > state.s
        state = nxt


def test_first_step_marginal_constant_rate():
    # from y = 0 the post-jump location is exp(-T)*0 + burst = Exp(1)
    rng = np.random.default_rng(2)
    ens = run_ensemble(GENE, 100_000, 3, n_steps=1)
    ys = np.concatenate([chunk[1][:, 1] for chunk in ens.chunks])
    stat = ks_statistic(ys, cdf=lambda t: 1.0 - np.exp(-t))
    assert stat <= 1.36 / math.sqrt(ys.size)


def test_run_chain_zero_steps():
    traj = run_chain(GENE, ExtendedState(StatePoint(1.5, 0), 0.0), 0, np.random.default_rng(3))
    assert traj.n_steps == 0
    assert traj.ys.tolist() == [1.5]


def test_run_chain_seed_determinism():
    init = ExtendedState(StatePoint(0.0, 0), 0.0)
    a = run_chain(GENE_SAT, init, 100, np.random.default_rng(42))
    b = run_chain(GENE_SAT, init, 100, np.random.default_rng(42))
    assert np.array_equal(a.taus, b.taus)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.regimes, b.regimes)


def test_mean_interjump_time_bracket():
    rng = np.random.default_rng(4)
    traj = run_chain(GENE_SAT, ExtendedState(StatePoint(0.0, 0), 0.0), 3000, rng)
    dts = np.diff(traj.taus)
    se = dts.std() / math.sqrt(dts.size)
    # bracket [1/upper, 1/lower] for rates in [1, 1.5]
    assert 1.0 / 1.5 - 3 * se <= dts.mean() <= 1.0 + 3 * se


def test_trajectory_validation():
    with pytest.raises(ValueError):
        JumpTrajectory(taus=np.array([0.0, 0.0]), ys=np.zeros(2), regimes=np.zeros(2, dtype=int))


def test_pdmp_evaluate_at_jump_times():
    rng = np.random.default_rng(5)
    traj = run_chain(TWO, ExtendedState(StatePoint(0.3, 0), 0.0), 50, rng)
    path = PdmpPath(TWO, traj)
    for n in (0, 10, 50):
        pt = path.evaluate(float(traj.taus[n]))
        assert pt.y == pytest.approx(traj.ys[n], rel=1e-12)
        assert pt.i == traj.regimes[n]


def test_pdmp_evaluate_single_segment_flow():
    traj = JumpTrajectory(taus=np.array([0.0, 10.0]), ys=np.array([4.0, 0.0]),
                          regimes=np.zeros(2, dtype=int))
    path = PdmpPath(GENE, traj)
    assert path.evaluate(math.log(2.0)).y == pytest.approx(2.0, rel=1e-12)


def test_pdmp_evaluate_left_limit_before_jump():
    traj = JumpTrajectory(taus=np.array([0.0, 1.0, 2.0]), ys=np.array([1.0, 3.0, 0.5]),
                          regimes=np.zeros(3, dtype=int))
    path = PdmpPath(GENE, traj)
    eps = 1e-9
    val = path.evaluate(1.0 - eps).y
    assert val == pytest.approx(1.0 * math.exp(-(1.0 - eps)), rel=1e-9)
    # right-continuity: at the jump, the post-jump value rules
    assert path.evaluate(1.0).y == pytest.approx(3.0)


def test_pdmp_evaluate_outside_horizon():
    traj = JumpTrajectory(taus=np.array([0.5, 1.0]), ys=np.array([1.0, 2.0]),
                          regimes=np.zeros(2, dtype=int))
    path = PdmpPath(GENE, traj)
    with pytest.raises(ValueError):
        path.evaluate(1.5)
    with pytest.raises(ValueError):
        path.evaluate(0.2)


def test_count_jumps_examples():
    traj = JumpTrajectory(taus=np.array([0.0, 1.0, 2.5]), ys=np.zeros(3),
                          regimes=np.zeros(3, dtype=int))
    assert count_jumps(traj, 2.0) == 1
    assert count_jumps(traj, 0.0) == 0
    assert count_jumps(traj, 2.5) == 2  # boundary inclusive
    with pytest.raises(ValueError):
        count_jumps(traj, -0.5)


def test_occupation_frozen_flow_point_mass():
    model = frozen_model()
    traj = JumpTrajectory(taus=np.array([0.0, 100.0]), ys=np.array([2.0, 3.0]),
                          regimes=np.zeros(2, dtype=int))
    path = PdmpPath(model, traj)
    mu = occupation_measure([path], burn_in=10.0, horizon=90.0, samples_per_path=500,
                            rng=np.random.default_rng(6))
    assert np.allclose(mu.ys, 2.0)


def test_occupation_rejects_short_paths():
    traj = JumpTrajectory(taus=np.array([0.0, 5.0]), ys=np.array([0.0, 1.0]),
                          regimes=np.zeros(2, dtype=int))
    path = PdmpPath(GENE, traj)
    with pytest.raises(ValueError):
        occupation_measure([path], burn_in=1.0, horizon=10.0, samples_per_path=10,
                           rng=np.random.default_rng(7))
    with pytest.raises(ValueError):
        occupation_measure([path], burn_in=4.0, horizon=2.0, samples_per_path=10,
                           rng=np.random.default_rng(8))


def test_ensemble_matches_scalar_chain_in_distribution():
    # the vectorized ensemble and the scalar reference chain sample the same law
    n_steps = 25
    ens = run_ensemble(GENE_SAT, 20_000, 9, n_steps=n_steps)
    ens_final = np.concatenate([chunk[1][:, -1] for chunk in ens.chunks])
    rng = np.random.default_rng(10)
    scalar_final = np.array([
        run_chain(GENE_SAT, ExtendedState(StatePoint(0.0, 0), 0.0), n_steps, rng).ys[-1]
        for _ in range(600)])
    assert ks_statistic(scalar_final, ens_final) <= ks_critical(600, 20_000, alpha=0.01)


def test_ensemble_threads_do_not_change_results():
    a = run_ensemble(GENE_SAT, 1500, 11, n_steps=30, threads=1)
    b = run_ensemble(GENE_SAT, 1500, 11, n_steps=30, threads=4)
    for (ta, ya, ra), (tb, yb, rb) in zip(a.chunks, b.chunks):
        assert np.array_equal(ta, tb) and np.array_equal(ya, yb) and np.array_equal(ra, rb)


def test_ensemble_horizon_mode_covers_t_end():
    ens = run_ensemble(GENE, 300, 12, t_end=25.0)
    assert ens.min_horizon >= 25.0
    occ = occupation_from_ensemble(ens, horizon=25.0, samples_per_replica=40, seed=13)
    assert occ.ys.size == 300 * 40
    assert (occ.times >= 5.0).all() and (occ.times <= 25.0).all()  # default 20% burn-in


def test_chain_measure_counts_and_normalization():
    ens = run_ensemble(GENE, 100, 14, n_steps=60)
    mu = chain_measure(ens, 20)
    assert mu.n_atoms == 100 * 40
    assert mu.total_mass == pytest.approx(1.0)


def test_jump_count_bound_and_poisson_equality():
    # count distribution against the closed-form envelope
    # exp(-low t)(high t)^n / n!; equality at constant rate (true Poisson law)
    n_rep = 200_000
    pmf_sat = jump_count_pmf(GENE_SAT, (0.5, 1.0, 2.0), n_rep, 15, max_count=10)
    for t, pmf in pmf_sat.items():
        for n in range(11):
            bound = math.exp(-1.0 * t) * (1.5 * t) ** n / math.factorial(n)
            se = math.sqrt(max(pmf[n] * (1 - pmf[n]), 1e-12) / n_rep)
            assert pmf[n] <= bound + 3 * se, (t, n)
    pmf_const = jump_count_pmf(GENE, (0.5, 1.0, 2.0), n_rep, 16, max_count=10)
    for t, pmf in pmf_const.items():
        for n in range(11):
            poisson = math.exp(-t) * t ** n / math.factorial(n)
            se = math.sqrt(max(poisson * (1 - poisson), 1e-12) / n_rep)
            assert abs(pmf[n] - poisson) <= 3 * se + 1e-12, (t, n)


def test_discounted_jump_time_transform_bound():
    # mean of exp(low * tau_n) on {tau_n <= t} stays below (high t)^n / n!
    n_rep = 200_000
    t_grid = (0.5, 1.0, 2.0)
    ens = run_ensemble(GENE_SAT, n_rep, 17, n_steps=5)
    taus = np.vstack([chunk[0] for chunk in ens.chunks])
    lam_low, lam_high = 1.0, 1.5
    for n in range(1, 6):
        tau_n = taus[:, n]
        for t in t_grid:
            vals = np.exp(lam_low * tau_n) * (tau_n <= t)
            se = vals.std() / math.sqrt(n_rep)
            assert vals.mean() <= (lam_high * t) ** n / math.factorial(n) + 3 * se, (n, t)


def test_trajectory_csv_round_trip(tmp_path):
    traj = run_chain(GENE, ExtendedState(StatePoint(0.0, 0), 0.0), 5, np.random.default_rng(18))
    path = tmp_path / "chain.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,tau,y,xi"
    assert len(lines) == 7
