import math

import numpy as np
import pytest

from pdmp_lab.jumps import (
    AdditiveBurstKernel,
    FiniteAffineIfs,
    PostJumpKernel,
    SwitchingMatrix,
)


def test_sample_theta_exponential_mean():
    rng = np.random.default_rng(0)
    kernel = AdditiveBurstKernel(mean=1.0)
    draws = kernel.sample_vec(np.zeros(100_000), rng)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_sample_theta_singleton_support():
    rng = np.random.default_rng(1)
    kernel = FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,))
    assert np.array_equal(kernel.sample_vec(np.full(10, 2.0), rng), np.zeros(10, dtype=np.int64))


def test_sample_theta_degenerate_two_atom_density():
    rng = np.random.default_rng(2)
    kernel = FiniteAffineIfs(maps=((1.0, 0.0), (1.0, 5.0)), probs=(1.0, 0.0))
    assert np.array_equal(kernel.sample_vec(np.zeros(100), rng), np.zeros(100, dtype=np.int64))


def test_state_dependent_selection_is_per_atom_inverse_cdf():
    # one uniform per atom, looked up in the cdf at that atom's own location
    def probs(y):
        q = 0.2 + 0.6 * float(y) / (1.0 + float(y))
        return np.array([q, 0.5 * (1.0 - q), 0.5 * (1.0 - q)])

    kernel = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5), (1.0, 0.0)), probs=probs)
    ys = np.random.default_rng(20).choice([0.0, 0.5, 3.0, 7.25], size=2000)
    draws = kernel.sample_vec(ys, np.random.default_rng(21))
    us = np.random.default_rng(21).random(ys.size)
    expect = [np.searchsorted(np.cumsum(probs(y)), u, side="right") for y, u in zip(ys, us)]
    assert draws.dtype == np.int64
    assert np.array_equal(draws, expect)


def test_sample_jump_additive_bursts():
    rng = np.random.default_rng(3)
    kernel = AdditiveBurstKernel(mean=1.0)
    y = 1.3
    out = kernel.apply(kernel.sample_vec(np.full(100_000, y), rng), np.full(100_000, y))
    assert (out >= y).all()
    assert (out - y).mean() == pytest.approx(1.0, abs=0.02)


def test_sample_jump_deterministic_map():
    rng = np.random.default_rng(4)
    kernel = FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,))
    ys = np.full(10, 4.0)
    assert kernel.apply(kernel.sample_vec(ys, rng), ys) == pytest.approx(np.full(10, 2.0))


def test_jump_displacement_from_anchor():
    # displacement of the anchor 0 has mean exactly the burst mean
    rng = np.random.default_rng(5)
    kernel = AdditiveBurstKernel(mean=1.0)
    out = kernel.apply(kernel.sample_vec(np.zeros(100_000), rng), np.zeros(100_000))
    assert np.abs(out).mean() == pytest.approx(1.0, abs=0.02)


def test_density_normalization_over_quadrature():
    kernel = AdditiveBurstKernel(mean=1.0)
    quad = kernel.discretize(1000, 15.0)
    rng = np.random.default_rng(6)
    for y in rng.uniform(0, 15, 1000):
        assert quad.masses_at(y).sum() == pytest.approx(1.0, abs=1e-12)


def test_switching_single_regime():
    rng = np.random.default_rng(7)
    pi = SwitchingMatrix([[1.0]])
    assert np.array_equal(pi.sample_vec(np.zeros(10, dtype=np.int64), np.full(10, 3.0), rng),
                          np.zeros(10, dtype=np.int64))


def test_switching_uniform_frequencies():
    rng = np.random.default_rng(8)
    pi = SwitchingMatrix.constant([[0.5, 0.5], [0.5, 0.5]])
    draws = pi.sample_vec(np.zeros(100_000, dtype=np.int64), np.zeros(100_000), rng)
    assert (draws == 0).mean() == pytest.approx(0.5, abs=0.005)


def test_switching_absorbing_row():
    rng = np.random.default_rng(9)
    pi = SwitchingMatrix.constant([[1.0, 0.0], [1.0, 0.0]])
    ys = np.repeat([0.0, 2.0, 7.5], 2)
    draws = pi.sample_vec(np.tile([0, 1], 3), ys, rng)
    assert np.array_equal(draws, np.zeros(6, dtype=np.int64))


def test_switching_row_sum_validation():
    with pytest.raises(ValueError):
        SwitchingMatrix.constant([[0.7, 0.2], [0.5, 0.5]])


def test_switching_rows_stochastic_at_random_locations():
    def stay(y):
        return np.clip(np.asarray(y, dtype=float), 0.1, 0.9)

    pi = SwitchingMatrix([[stay, lambda y: 1.0 - stay(y)], [0.5, 0.5]])
    rng = np.random.default_rng(10)
    rows = pi.rows_at(rng.uniform(0, 15, 1000))
    assert np.abs(rows.sum(axis=2) - 1.0).max() < 1e-12
    assert rows.min() >= 0.0 and rows.max() <= 1.0


def _toy_post_jump():
    # two maps, two regimes, everything hand-computable
    ifs = FiniteAffineIfs(maps=((0.5, 0.0), (1.0, 1.0)), probs=(0.3, 0.7))
    pi = SwitchingMatrix.constant([[0.25, 0.75], [0.6, 0.4]])
    return PostJumpKernel(ifs=ifs, switching=pi)


def test_post_jump_evaluates_switch_at_post_location():
    # switch row depends on the post-jump location, not the origin
    def stay(y):
        return np.where(np.asarray(y, dtype=float) > 1.5, 1.0, 0.0)

    ifs = FiniteAffineIfs(maps=((1.0, 2.0),), probs=(1.0,))  # y -> y + 2
    pi = SwitchingMatrix([[stay, lambda y: 1.0 - stay(y)],
                          [stay, lambda y: 1.0 - stay(y)]])
    kernel = PostJumpKernel(ifs=ifs, switching=pi)
    rng = np.random.default_rng(11)
    # origin y = 0 (stay prob there would be 0) but post-jump y = 2 forces regime 0
    ys, regimes = kernel.sample_vec(np.zeros(10), np.ones(10, dtype=np.int64), rng)
    assert ys == pytest.approx(np.full(10, 2.0))
    assert np.array_equal(regimes, np.zeros(10, dtype=np.int64))


def test_post_jump_joint_law_factorizes():
    kernel = _toy_post_jump()
    rng = np.random.default_rng(12)
    n = 200_000
    ys, regimes = kernel.sample_vec(np.full(n, 2.0), np.zeros(n, dtype=np.int64), rng)
    # exact joint law: map 0 -> y=1 then switch row (0.25, 0.75); map 1 -> y=3
    for target_y, p_map in ((1.0, 0.3), (3.0, 0.7)):
        for j, p_switch in ((0, 0.25), (1, 0.75)):
            freq = float(np.mean((np.isclose(ys, target_y)) & (regimes == j)))
            expect = p_map * p_switch
            assert freq == pytest.approx(expect, abs=3 * math.sqrt(expect * (1 - expect) / n))


def test_post_jump_deterministic_composition():
    ifs = FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,))
    pi = SwitchingMatrix.constant([[0.0, 1.0], [0.0, 1.0]])
    kernel = PostJumpKernel(ifs=ifs, switching=pi)
    ys, regimes = kernel.sample_vec(np.array([4.0]), np.array([0]), np.random.default_rng(13))
    assert (ys[0], regimes[0]) == (2.0, 1)


def test_mean_contraction_of_shipped_kernels():
    rng = np.random.default_rng(15)
    bursts = AdditiveBurstKernel(mean=1.0)
    halving = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=None)
    for kernel, factor in ((bursts, 1.0), (halving, 0.5)):
        for _ in range(50):
            u, v = rng.uniform(0, 10, 2)
            if abs(u - v) < 1e-9:
                continue
            thetas = kernel.sample_vec(np.full(5000, u), rng)
            spread = np.abs(kernel.apply(thetas, np.full(5000, u))
                            - kernel.apply(thetas, np.full(5000, v)))
            se = spread.std() / math.sqrt(spread.size)
            assert spread.mean() <= factor * abs(u - v) + 3 * se + 1e-12


def test_drift_of_jump_gauge():
    # mean distance of the jump image to the anchor is bounded by
    # contraction * current distance + mean displacement at the anchor
    rng = np.random.default_rng(16)
    kernel = AdditiveBurstKernel(mean=1.0)
    for y in (0.0, 1.0, 4.0, 9.0):
        thetas = kernel.sample_vec(np.full(20_000, y), rng)
        dist = np.abs(kernel.apply(thetas, np.full(20_000, y)))
        se = dist.std() / math.sqrt(dist.size)
        assert dist.mean() <= 1.0 * y + 1.0 + 3 * se


def test_jump_kernel_continuity_in_origin():
    # bounded Lipschitz test functions vary continuously in the jump origin
    rng = np.random.default_rng(17)
    kernel = AdditiveBurstKernel(mean=1.0)
    g = lambda y: np.clip(np.sin(y), -1.0, 1.0)  # 1-Lipschitz, bounded by 1
    lip_g, sup_g = 1.0, 1.0
    contraction, density_modulus = 1.0, 0.0
    n = 200_000
    for y0, y1 in ((1.0, 1.2), (3.0, 3.05), (0.0, 0.5)):
        m0 = g(kernel.apply(kernel.sample_vec(np.full(n, y0), rng), np.full(n, y0))).mean()
        m1 = g(kernel.apply(kernel.sample_vec(np.full(n, y1), rng), np.full(n, y1))).mean()
        bound = (lip_g * contraction + sup_g * density_modulus) * abs(y1 - y0)
        assert abs(m0 - m1) <= bound + 4.0 / math.sqrt(n) + 1e-12
