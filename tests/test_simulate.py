import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from pdmp_lab.flows import FrozenFlow
from pdmp_lab.hazard import ConstantIntensity, SaturatingIntensity, invert_holding
from pdmp_lab.jumps import AdditiveBurstKernel, PostJumpKernel, SwitchingMatrix
from pdmp_lab.models import ModelSpec, DeclaredConstants, gene_expression_model, two_regime_model
from pdmp_lab import simulate
from pdmp_lab.cli import ETA_TIME, main as cli_main
from pdmp_lab.simulate import (
    REPLICA_CHUNK,
    ChainEnsemble,
    EnsembleRun,
    chain_measure,
    count_jumps,
    evaluate_paths,
    horizon_step_cap,
    jump_count_pmf,
    occupation_from_ensemble,
    run_ensemble,
    run_ensembles,
)

import oracles
from oracles import ks_critical, ks_statistic, ks_statistic_weighted, reference_chunk

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")
TWO = two_regime_model()
# two regimes whose holding times need Newton: mixed regimes in one inversion call
TWO_SAT = dataclasses.replace(TWO, intensity=SaturatingIntensity(base=1.0, gain=0.5))


def frozen_model(lam=1.0):
    flow = FrozenFlow()
    intensity = ConstantIntensity(lam)
    return ModelSpec(
        name="frozen", flow=flow, intensity=intensity,
        jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants())


def one_chunk(model, taus, ys, regimes):
    """A one-replica ensemble holding the given path."""
    chunk = tuple(np.asarray(a)[None, :] for a in (taus, ys, regimes))
    return ChainEnsemble(model=model, chunks=(chunk,))


def reference_chain(model, n_steps, rng):
    """Scalar reference chain from (0, 0): one replica, holding, flow, jump and switch per step."""
    y, i = 0.0, 0
    for _ in range(n_steps):
        target = -math.log1p(-rng.random())
        dt = float(invert_holding(model.hazard, i, np.array([y]), np.array([target]))[0])
        pre = float(model.flow.evaluate(i, dt, y))
        ys_post, regimes_post = model.jump.sample_vec(np.array([pre]), np.array([i]), rng)
        y, i = float(ys_post[0]), int(regimes_post[0])
    return y


def test_step_with_forced_holding_time():
    # the holding time is fixed by replaying the chunk's stream: holding
    # uniform, burst, switch uniform, in that order
    ens = run_ensemble(GENE, 64, 0, y0=4.0, n_steps=1)
    taus, ys, regimes = ens.chunks[0]
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    dts = -np.log1p(-rng.random(64))  # rate 1: the hazard target is the holding time
    pre = GENE.flow.evaluate(0, dts, np.full(64, 4.0))
    bursts = rng.exponential(1.0, 64)
    rng.random(64)  # the single-regime switch still draws
    assert np.array_equal(taus[:, 1], dts)
    assert np.array_equal(ys[:, 1], pre + bursts)
    # pre-jump point is exactly the flow at the holding time; bursts only add
    assert (ys[:, 1] >= 4.0 * np.exp(-dts)).all()
    assert (regimes == 0).all()
    # the second step's holding time is the fourth draw
    two = run_ensemble(GENE, 64, 0, y0=4.0, n_steps=2).chunks[0][0]
    assert np.array_equal(two[:, 2], dts + -np.log1p(-rng.random(64)))


def test_clock_strictly_increases():
    ens = run_ensemble(GENE_SAT, 50, 1, n_steps=200)
    assert (np.diff(ens.chunks[0][0], axis=1) > 0).all()


def test_first_step_marginal_constant_rate():
    # from y = 0 the post-jump location is exp(-T)*0 + burst = Exp(1)
    rng = np.random.default_rng(2)
    ens = run_ensemble(GENE, 100_000, 3, n_steps=1)
    ys = np.concatenate([chunk[1][:, 1] for chunk in ens.chunks])
    stat = ks_statistic(ys, cdf=lambda t: 1.0 - np.exp(-t))
    assert stat <= 1.36 / math.sqrt(ys.size)


def test_run_chain_zero_steps():
    ens = run_ensemble(GENE, 1, 3, y0=1.5, n_steps=0)
    taus, ys, regimes = ens.chunks[0]
    assert taus.shape == (1, 1)
    assert ys.tolist() == [[1.5]]


def test_run_chain_seed_determinism():
    a = run_ensemble(GENE_SAT, 20, 42, n_steps=100)
    b = run_ensemble(GENE_SAT, 20, 42, n_steps=100)
    for chunk_a, chunk_b in zip(a.chunks, b.chunks):
        assert all(np.array_equal(x, y) for x, y in zip(chunk_a, chunk_b))


def test_mean_interjump_time_bracket():
    ens = run_ensemble(GENE_SAT, 1, 4, n_steps=3000)
    dts = np.diff(ens.chunks[0][0][0])
    se = dts.std() / math.sqrt(dts.size)
    # bracket [1/upper, 1/lower] for rates in [1, 1.5]
    assert 1.0 / 1.5 - 3 * se <= dts.mean() <= 1.0 + 3 * se


def test_pdmp_evaluate_at_jump_times():
    ens = run_ensemble(TWO, 1, 5, y0=0.3, n_steps=50)
    taus, ys, regimes = ens.chunks[0]
    ys_at, regimes_at = evaluate_paths(TWO, ens.chunks[0], taus[:, [0, 10, 50]])
    assert ys_at == pytest.approx(ys[:, [0, 10, 50]], rel=1e-12)
    assert np.array_equal(regimes_at, regimes[:, [0, 10, 50]])


def test_pdmp_evaluate_single_segment_flow():
    chunk = one_chunk(GENE, [0.0, 10.0], [4.0, 0.0], [0, 0]).chunks[0]
    ys_at, _ = evaluate_paths(GENE, chunk, np.array([[math.log(2.0)]]))
    assert ys_at[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_pdmp_evaluate_left_limit_before_jump():
    chunk = one_chunk(GENE, [0.0, 1.0, 2.0], [1.0, 3.0, 0.5], [0, 0, 0]).chunks[0]
    eps = 1e-9
    ys_at, _ = evaluate_paths(GENE, chunk, np.array([[1.0 - eps, 1.0]]))
    assert ys_at[0, 0] == pytest.approx(1.0 * math.exp(-(1.0 - eps)), rel=1e-9)
    # right-continuity: at the jump, the post-jump value rules
    assert ys_at[0, 1] == pytest.approx(3.0)


def test_pdmp_evaluate_outside_horizon():
    chunk = one_chunk(GENE, [0.5, 1.0], [1.0, 2.0], [0, 0]).chunks[0]
    for t in (1.5, 0.2):
        with pytest.raises(ValueError, match="outside the covered horizon"):
            evaluate_paths(GENE, chunk, np.array([[0.7, t]]))


def test_evaluate_paths_checks_each_row_horizon():
    chunk = (np.array([[0.0, 1.0, 4.0], [0.5, 1.5, 2.0]]), np.ones((2, 3)),
             np.zeros((2, 3), dtype=np.int64))
    evaluate_paths(GENE, chunk, np.array([[3.0], [1.0]]))
    # inside row 0's horizon but past row 1's, or before row 1's start
    for ts in ([[3.0], [3.0]], [[0.2], [0.2]]):
        with pytest.raises(ValueError, match="outside the covered horizon"):
            evaluate_paths(GENE, chunk, np.array(ts))


def test_evaluate_paths_rows_match_single_row_calls():
    ens = run_ensemble(TWO, 7, 19, y0=0.3, n_steps=40)
    chunk = ens.chunks[0]
    ts = np.random.default_rng(20).uniform(0.0, ens.min_horizon, (7, 30))
    ys_at, regimes_at = evaluate_paths(TWO, chunk, ts)
    for r in range(7):
        row = tuple(a[r:r + 1] for a in chunk)
        ys_r, regimes_r = evaluate_paths(TWO, row, ts[r:r + 1])
        assert np.array_equal(ys_at[r], ys_r[0]) and np.array_equal(regimes_at[r], regimes_r[0])


def test_count_jumps_examples():
    taus = np.array([[0.0, 1.0, 2.5], [0.0, 2.0, 3.0]])
    assert count_jumps(taus, 2.0).tolist() == [1, 1]
    assert count_jumps(taus, 0.0).tolist() == [0, 0]
    assert count_jumps(taus, 2.5).tolist() == [2, 1]  # boundary inclusive
    with pytest.raises(ValueError):
        count_jumps(taus, -0.5)


def test_jump_count_pmf_rejects_time_before_start():
    with pytest.raises(ValueError, match="precedes the start"):
        jump_count_pmf(GENE, (1.0, -0.5), 10, 21)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_count_jumps_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
        count_jumps(np.array([[0.0, 0.5, 1.2]]), t)


@pytest.mark.parametrize("t, message", [
    (np.nan, "t_values must be finite, got nan"),
    (np.inf, "t_values must be finite, got inf"),
    (-0.5, "time -0.5 precedes the start of the trajectory at 0"),
])
def test_jump_count_pmf_checks_its_times_before_simulating(t, message, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking t_values")

    monkeypatch.setattr(simulate, "_advance", no_run)
    with pytest.raises(ValueError, match=message):
        jump_count_pmf(GENE, (1.0, t), 100, 1, max_count=5)


def test_occupation_frozen_flow_point_mass():
    model = frozen_model()
    ens = one_chunk(model, [0.0, 100.0], [2.0, 3.0], [0, 0])
    occ = occupation_from_ensemble(ens, horizon=90.0, samples_per_replica=500, seed=6,
                                   burn_in=10.0)
    assert np.allclose(occ.measure().ys, 2.0)


def test_occupation_rejects_short_paths():
    ens = one_chunk(GENE, [0.0, 5.0], [0.0, 1.0], [0, 0])
    with pytest.raises(ValueError):
        occupation_from_ensemble(ens, horizon=10.0, samples_per_replica=10, seed=7, burn_in=1.0)
    with pytest.raises(ValueError):
        occupation_from_ensemble(ens, horizon=2.0, samples_per_replica=10, seed=8, burn_in=4.0)


def test_ensemble_matches_scalar_chain_in_distribution():
    # the vectorized ensemble and the scalar reference chain sample the same law
    n_steps = 25
    ens = run_ensemble(GENE_SAT, 20_000, 9, n_steps=n_steps)
    ens_final = np.concatenate([chunk[1][:, -1] for chunk in ens.chunks])
    rng = np.random.default_rng(10)
    scalar_final = np.array([reference_chain(GENE_SAT, n_steps, rng) for _ in range(600)])
    stat = ks_statistic_weighted(scalar_final, np.ones(600), ens_final, np.ones(20_000))
    assert stat <= ks_critical(600, 20_000, alpha=0.01)


def test_ensemble_horizon_mode_covers_t_end():
    ens = run_ensemble(GENE, 300, 12, t_end=25.0)
    assert ens.min_horizon >= 25.0
    occ = occupation_from_ensemble(ens, horizon=25.0, samples_per_replica=40, seed=13,
                                   burn_in=0.2 * 25.0)
    assert occ.ys.size == 300 * 40
    assert (occ.times >= 5.0).all() and (occ.times <= 25.0).all()


def test_horizon_mode_step_cap_names_slowest_replica(monkeypatch):
    # holding times of zero never move the clocks: the capped loop must end
    monkeypatch.setattr(simulate, "invert_holding",
                        lambda h, i, ys, targets: np.zeros(np.shape(ys)))
    cap = horizon_step_cap(GENE_SAT.intensity.upper * 2.0)
    assert cap == math.ceil(3.0 + 64 / 3 + math.sqrt((64 / 3) ** 2 + 128 * 3.0)) == 54
    with pytest.raises(RuntimeError, match=rf"cap of {cap} steps .*slowest replica 0 of its "
                                           r"chunk of 8 is at clock 0\b"):
        run_ensemble(GENE_SAT, 8, 15, t_end=2.0)
    with pytest.raises(RuntimeError, match="slowest replica"):
        jump_count_pmf(GENE_SAT, [1.0, 2.0], 8, 15)


def assert_matches_reference(model, ens, run):
    # every chunk bitwise the serial per-step loop run alone on the chunk's own stream
    seeds = np.random.SeedSequence(run.seed).spawn(len(ens.chunks))
    assert sum(chunk[0].shape[0] for chunk in ens.chunks) == run.n_replicas
    for chunk, seed in zip(ens.chunks, seeds):
        expected = reference_chunk(model, chunk[0].shape[0], seed, run.y0, run.i0,
                                   n_steps=run.n_steps, t_end=run.t_end)
        for got, want in zip(chunk, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("model, runs", [
    # the fixed-step run finishes first, then last
    (GENE_SAT, [EnsembleRun(40, 3, n_steps=5), EnsembleRun(70, 4, y0=2.0, t_end=30.0)]),
    (GENE_SAT, [EnsembleRun(70, 4, y0=2.0, t_end=3.0), EnsembleRun(40, 3, n_steps=60)]),
    (TWO_SAT, [EnsembleRun(25, 5, y0=0.3, i0=1, n_steps=8),
               EnsembleRun(60, 6, y0=1.7, t_end=20.0)]),
    (TWO_SAT, [EnsembleRun(60, 6, t_end=2.0), EnsembleRun(25, 5, i0=1, n_steps=50),
               EnsembleRun(9, 7, y0=4.0, n_steps=0)]),
    (TWO, [EnsembleRun(33, 8, n_steps=30), EnsembleRun(50, 9, y0=0.5, t_end=10.0)]),
    # the middle run stops first (after 9 steps), leaving survivors on both sides of it
    (TWO_SAT, [EnsembleRun(40, 21, n_steps=50), EnsembleRun(30, 22, y0=1.0, t_end=2.0),
               EnsembleRun(35, 23, i0=1, n_steps=30)]),
    # a run of two chunks beside a one-chunk run
    (GENE_SAT, [EnsembleRun(REPLICA_CHUNK + 88, 10, n_steps=4),
                EnsembleRun(30, 11, t_end=6.0)]),
], ids=["fixed-first", "fixed-last", "two-regime", "three-runs", "two-regime-constant",
        "middle-stops-first", "two-chunks"])
def test_runs_side_by_side_are_bitwise_each_run_alone(model, runs):
    together = run_ensembles(model, runs)
    assert len(together) == len(runs)
    for ens, run in zip(together, runs):
        alone = run_ensemble(model, run.n_replicas, run.seed, run.y0, run.i0,
                             n_steps=run.n_steps, t_end=run.t_end)
        for chunk_together, chunk_alone in zip(ens.chunks, alone.chunks, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(chunk_together, chunk_alone))
        assert_matches_reference(model, ens, run)


def log_poisson_tail(mu, n):
    """log P(Poisson(mu) >= n) for an integer n > mu, summed term by term in log space.

    The terms past n fall at least by the ratio mu / (n + 1) < 1 each; they
    are summed until one is below e^-60 of the first, where the rest of the
    series is too small to move the sum by a rounding unit.
    """
    if mu == 0:
        return -math.inf
    first = -mu + n * math.log(mu) - math.lgamma(n + 1)
    relative, k, log_term = [], n, first
    while log_term > first - 60:
        relative.append(math.exp(log_term - first))
        k += 1
        log_term += math.log(mu / k)
    return first + math.log(math.fsum(relative))


def test_log_poisson_tail_matches_the_summed_pmf():
    for mu, n in ((3.0, 5), (3.0, 12), (60.0, 80)):
        pmf = [math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1)) for k in range(n)]
        assert log_poisson_tail(mu, n) == pytest.approx(math.log1p(-math.fsum(pmf)), rel=1e-9)


@pytest.mark.parametrize("mu", [0.0, 3.0, 60.0, 400.0, 600.0, 1e4])
def test_horizon_step_cap_is_the_bernstein_bound_at_exp_minus_64(mu):
    # an honest replica is short of t_end after n steps with probability
    # P(Poisson(mu) >= n); Bernstein's bound exp(-x^2 / (2 (mu + x / 3))) at
    # x = n - mu reaches exp(-64) first at the cap
    cap = horizon_step_cap(mu)

    def bernstein_exponent(x):
        return x * x / (2 * (mu + x / 3))

    assert bernstein_exponent(cap - mu) >= 64 > bernstein_exponent(cap - 1 - mu)
    assert log_poisson_tail(mu, cap) <= -64
    assert cap <= math.ceil(math.e ** 2 * mu) + 64
    assert horizon_step_cap(-mu) == horizon_step_cap(0.0)


def test_chunk_history_is_allocated_once_at_its_step_cap():
    # the shipped gene_saturating horizon: one (cap + 1, replicas) array each
    # for clocks, locations and regimes, and n_steps + 1 rows for a fixed run
    horizon = EnsembleRun(20, 12, t_end=400.0)
    cap = horizon_step_cap(GENE_SAT.intensity.upper * horizon.t_end)
    fixed = EnsembleRun(20, 12, n_steps=7)
    for run, width in ((horizon, cap + 1), (fixed, 8)):
        fresh = simulate._Chunk(GENE_SAT, run, run.n_replicas, 12)
        assert fresh.cap + 1 == width
        assert [(a.shape, a.dtype) for a in fresh.history] == [
            ((width, 20), np.float64), ((width, 20), np.float64), ((width, 20), np.int64)]


def scaled_holding(monkeypatch, factor):
    # holding times at a fraction of the law's, in the stepping loop and the reference
    def scaled(h, i, ys, targets):
        return factor * invert_holding(h, i, ys, targets)

    monkeypatch.setattr(simulate, "invert_holding", scaled)
    monkeypatch.setattr(oracles, "invert_holding", scaled)


def test_half_time_horizon_run_beside_a_fixed_run_is_the_reference(monkeypatch):
    # holding times at half the law's need about twice the law's steps, past
    # the Poisson mean mu but within the cap; the chunk hands out C-contiguous
    # (replicas, steps + 1) arrays bitwise the serial reference's, and keeps nothing
    scaled_holding(monkeypatch, 0.5)
    run = EnsembleRun(37, 21, y0=1.5, t_end=40.0)
    mu = GENE_SAT.intensity.upper * run.t_end
    seed = np.random.SeedSequence(run.seed).spawn(1)[0]
    fixed = simulate._Chunk(GENE_SAT, EnsembleRun(15, 13, n_steps=3), 15, 13)
    chunk = simulate._Chunk(GENE_SAT, run, run.n_replicas, seed)
    simulate._advance(GENE_SAT, [fixed, chunk])
    assert mu < chunk.steps < chunk.cap
    got = chunk.arrays()
    assert chunk.history == ()
    assert got[0].shape == (run.n_replicas, chunk.steps + 1)
    assert all(a.flags.c_contiguous for a in got)
    ens = ChainEnsemble(GENE_SAT, (got,))
    assert ens.min_horizon >= run.t_end
    assert_matches_reference(GENE_SAT, ens, run)


def test_quarter_time_horizon_run_hits_its_step_cap(monkeypatch):
    # holding times at a quarter of the law's need about four times the law's
    # steps, past the cap of 172 at mu = 60
    scaled_holding(monkeypatch, 0.25)
    run = EnsembleRun(37, 21, y0=1.5, t_end=40.0)
    cap = horizon_step_cap(GENE_SAT.intensity.upper * run.t_end)
    assert cap == 172
    with pytest.raises(RuntimeError, match=rf"cap of {cap} steps short of t_end=40: slowest "
                                           r"replica \d+ of its chunk of 37 is at clock "):
        run_ensembles(GENE_SAT, [EnsembleRun(15, 13, n_steps=3), run])


def test_step_cap_names_the_slowest_replica_of_its_chunk_beside_another_run(monkeypatch):
    # holding times a millionth of the law's leave every clock short of t_end
    def tiny(h, i, ys, targets):
        return 1e-6 * np.asarray(targets)

    monkeypatch.setattr(simulate, "invert_holding", tiny)
    horizon = EnsembleRun(8, 15, t_end=2.0)
    with pytest.raises(RuntimeError) as alone:
        run_ensembles(GENE_SAT, [horizon])
    assert "of its chunk of 8 " in str(alone.value)
    assert "slowest replica 0 " not in str(alone.value)
    for other in (EnsembleRun(5, 16, n_steps=3), EnsembleRun(5, 16, n_steps=500)):
        with pytest.raises(RuntimeError) as beside:
            run_ensembles(GENE_SAT, [other, horizon])
        assert str(beside.value) == str(alone.value)


def test_jump_count_pmf_holds_one_chunk_at_a_time():
    # ten times the replicas, ten chunks in turn: the traced peak stays that of one
    def peak(n_replicas):
        tracemalloc.start()
        try:
            jump_count_pmf(GENE_SAT, (0.5, 1.0, 2.0), n_replicas, 23, max_count=6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, ten = peak(REPLICA_CHUNK), peak(10 * REPLICA_CHUNK)
    assert one > 1_000_000
    assert ten <= 1.25 * one


def test_horizon_step_cap_rejects_infinite_horizon():
    with pytest.raises(ValueError, match="finite t_end"):
        run_ensemble(GENE, 4, 16, t_end=math.inf)


def test_ensemble_run_rejects_a_negative_step_count_or_horizon():
    # n_steps=-3 used to fail inside the chunk's history allocation, and
    # t_end=-1.0 to give a zero-step ensemble
    for kwargs, field in (({"n_steps": -3}, "n_steps"), ({"t_end": -1.0}, "t_end"),
                          ({"t_end": math.nan}, "t_end")):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got "):
            run_ensemble(GENE, 10, 1, **kwargs)
        with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
            EnsembleRun(10, 1, **kwargs)
    assert run_ensemble(GENE, 10, 1, n_steps=0).chunks[0][0].shape == (10, 1)
    assert run_ensemble(GENE, 10, 1, t_end=0.0).chunks[0][0].shape == (10, 1)


def test_chain_measure_counts_and_normalization():
    ens = run_ensemble(GENE, 100, 14, n_steps=60)
    mu = chain_measure(ens, 20)
    assert mu.n_atoms == 100 * 40
    assert mu.total_mass == pytest.approx(1.0)


def test_chain_measure_rejects_negative_burn_in():
    # a negative burn-in used to slice off all but the last columns
    ens = run_ensemble(GENE, 20, 14, n_steps=30)
    with pytest.raises(ValueError, match="burn_in_steps must be >= 0"):
        chain_measure(ens, -3)
    assert chain_measure(ens, 0).n_atoms == 20 * 30


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


def test_jump_count_pmf_matches_run_ensemble_counts():
    # same chunks and streams as the horizon ensemble, across a chunk boundary
    n, ts, max_count = REPLICA_CHUNK + 904, (0.5, 1.0, 2.0), 6
    pmf = jump_count_pmf(GENE_SAT, ts, n, 18, max_count=max_count)
    ens = run_ensemble(GENE_SAT, n, 18, t_end=max(ts))
    assert len(ens.chunks) == 2
    for t in ts:
        counts = np.concatenate([count_jumps(taus, t) for taus, _, _ in ens.chunks])
        expected = np.bincount(np.minimum(counts, max_count), minlength=max_count + 1) / n
        assert np.array_equal(pmf[t], expected), t


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
    # chain.csv of `pdmp-lab simulate` is row 0 of the (seed, 1) chain ensemble
    config = {"model": {"name": "gene-saturating"}, "seed": 18, "replicas": 40,
              "chain_steps": 25, "chain_burn_in_steps": 5, "horizon": 20.0,
              "occupation_samples_per_replica": 10}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    ens = run_ensemble(GENE_SAT, 40, (18, 1), n_steps=25)
    taus, ys, regimes = (column[0] for column in ens.chunks[0])
    lines = (tmp_path / "chain.csv").read_text().splitlines()
    assert lines[0] == "n,tau,y,xi"
    n, tau, y, xi = zip(*(line.split(",") for line in lines[1:]))
    assert [int(v) for v in n] == list(range(26))
    # 17 significant digits parse back to the same doubles
    assert np.array_equal(np.array(tau, dtype=float), taus)
    assert np.array_equal(np.array(y, dtype=float), ys)
    assert np.array_equal(np.array(xi, dtype=np.int64), regimes)


def test_eta_histogram_counts_jumps_of_the_horizon_ensemble(tmp_path):
    config = {"model": {"name": "gene-saturating"}, "seed": 22, "replicas": 600,
              "chain_steps": 10, "chain_burn_in_steps": 2, "horizon": 8.0,
              "occupation_samples_per_replica": 5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    ens = run_ensemble(GENE_SAT, 600, (22, 2), t_end=8.0)
    counts = np.concatenate([count_jumps(taus, ETA_TIME) for taus, _, _ in ens.chunks])
    assert summary["eta_histogram"] == (np.bincount(counts, minlength=11)[:11] / 600).tolist()


@pytest.mark.parametrize("t_values, max_count, n_replicas, message", [
    ((), 30, 10, "t_values must hold at least one time"),
    ((1.0,), -1, 10, "max_count must be >= 0, got -1"),
    ((1.0,), 30, 0, "n_replicas must be > 0"),
])
def test_jump_count_pmf_rejects_bad_arguments(t_values, max_count, n_replicas, message):
    with pytest.raises(ValueError, match=message):
        jump_count_pmf(GENE, t_values, n_replicas, 21, max_count=max_count)
