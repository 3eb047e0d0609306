import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from pdmp_lab.jumps import (
    AdditiveBurstKernel,
    FiniteAffineIfs,
    PostJumpKernel,
    SwitchingMatrix,
)
from oracles import sample_thetas, sampled_displacements, searchsorted_ifs_draw


def test_sample_theta_exponential_mean():
    rng = np.random.default_rng(0)
    kernel = AdditiveBurstKernel(mean=1.0)
    draws = sample_thetas(kernel, np.zeros(100_000), rng)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_sample_theta_singleton_support():
    rng = np.random.default_rng(1)
    kernel = FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,))
    assert np.array_equal(sample_thetas(kernel, np.full(10, 2.0), rng),
                          np.zeros(10, dtype=np.int64))


def test_sample_theta_degenerate_two_atom_density():
    rng = np.random.default_rng(2)
    kernel = FiniteAffineIfs(maps=((1.0, 0.0), (1.0, 5.0)), probs=(1.0, 0.0))
    assert np.array_equal(sample_thetas(kernel, np.zeros(100), rng), np.zeros(100, dtype=np.int64))


class FixedUniform:
    """Stands in for a Generator whose every uniform draw is ``u``, into a new
    array of shape ``size`` or into ``out``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.u)
        out[...] = self.u
        return out


@pytest.mark.parametrize("probs", [(0.5, 0.5 - 1e-10), lambda y: (0.5, 0.5 - 1e-10)])
def test_uniform_past_a_short_cdf_selects_the_last_map(probs):
    # the probabilities sum to within ROW_SUM_TOL below 1, so u can exceed every cdf entry
    kernel = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=probs)
    ys = np.array([0.0, 1.0, 1.0])
    thetas = sample_thetas(kernel, ys, FixedUniform(0.99999999995))
    assert np.array_equal(thetas, np.ones(3, dtype=np.int64))
    assert np.array_equal(kernel.apply(thetas, ys), 0.5 * ys + 0.5)
    assert np.array_equal(sample_thetas(kernel, ys, FixedUniform(0.25)),
                          np.zeros(3, dtype=np.int64))


class GivenUniforms:
    """Stands in for a Generator whose uniform draws are ``us``, in order, into a
    new array of shape ``size`` or into ``out``."""

    def __init__(self, us):
        self.us = np.asarray(us, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            return self.us.reshape(size)
        out[...] = self.us.reshape(out.shape)
        return out


def _three_way(y):
    q = 0.2 + 0.6 * float(y) / (1.0 + float(y))
    return np.array([q, 0.5 * (1.0 - q), 0.5 * (1.0 - q)])


IFS_DRAWS = {
    "uniform": (((0.5, 0.0), (0.5, 0.5)), None),
    "constant": (((0.5, 0.0), (1.0, 1.0)), (0.3, 0.7)),
    "constant-three": (((0.5, 0.0), (0.5, 0.5), (1.0, 0.0)), (0.2, 0.0, 0.8)),
    "callable": (((0.5, 0.0), (0.5, 0.5), (1.0, 0.0)), _three_way),
    "one-map": (((0.5, 0.0),), (1.0,)),
    "one-map-callable": (((0.5, 0.0),), lambda y: (1.0,)),
    "short-cdf": (((0.5, 0.0), (0.5, 0.5)), (0.5, 0.5 - 1e-10)),
    "short-cdf-callable": (((0.5, 0.0), (0.5, 0.5)), lambda y: (0.5, 0.5 - 1e-10)),
}


@pytest.mark.parametrize("maps, probs", IFS_DRAWS.values(), ids=IFS_DRAWS.keys())
def test_ifs_draw_is_bitwise_the_searchsorted_draw(maps, probs):
    kernel = FiniteAffineIfs(maps=maps, probs=probs)
    rng = np.random.default_rng(22)
    flat = np.concatenate([np.repeat([0.0, 0.5, 3.0], 40), rng.uniform(0.0, 8.0, 1880)])
    for ys in (flat, flat.reshape(40, 50), np.full(700, 0.5)):
        new_rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        draws = sample_thetas(kernel, ys, new_rng)
        assert draws.dtype == np.int64 and draws.shape == ys.shape
        assert np.array_equal(draws, searchsorted_ifs_draw(kernel, ys, ref_rng))
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    # uniforms on every CDF entry (a tie goes to the next map), between them,
    # and above the last entry of a short CDF
    cdf = np.cumsum(kernel._prob_vector(0.5))
    us = np.concatenate([[0.0], cdf, cdf - 1e-12, [np.nextafter(1.0, 0.0)]])
    ys = np.full(us.size, 0.5)
    assert np.array_equal(sample_thetas(kernel, ys, GivenUniforms(us)),
                          searchsorted_ifs_draw(kernel, ys, GivenUniforms(us)))


@pytest.mark.parametrize("probs", [(1.0,), (1.5, -0.5), (0.6, 0.4 + 2e-9)],
                         ids=["wrong-shape", "negative", "sum-off"])
def test_bad_constant_probabilities_fail_at_build(probs):
    with pytest.raises(ValueError, match="probability vector"):
        FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=probs)


def test_an_ifs_without_maps_fails_at_build():
    with pytest.raises(ValueError, match="at least one map"):
        FiniteAffineIfs(maps=())


def test_bad_callable_probabilities_fail_at_evaluation():
    kernel = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)),
                             probs=lambda y: (0.5, 0.6) if y > 1.0 else (0.5, 0.5))
    assert np.array_equal(sample_thetas(kernel, np.zeros(4), GivenUniforms(np.full(4, 0.75))),
                          np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError, match="probability vector"):
        sample_thetas(kernel, np.array([0.0, 2.0]), np.random.default_rng(24))


def test_state_dependent_selection_is_per_atom_inverse_cdf():
    # one uniform per atom, looked up in the cdf at that atom's own location
    def probs(y):
        q = 0.2 + 0.6 * float(y) / (1.0 + float(y))
        return np.array([q, 0.5 * (1.0 - q), 0.5 * (1.0 - q)])

    kernel = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5), (1.0, 0.0)), probs=probs)
    ys = np.random.default_rng(20).choice([0.0, 0.5, 3.0, 7.25], size=2000)
    draws = sample_thetas(kernel, ys, np.random.default_rng(21))
    us = np.random.default_rng(21).random(ys.size)
    expect = [np.searchsorted(np.cumsum(probs(y)), u, side="right") for y, u in zip(ys, us)]
    assert draws.dtype == np.int64
    assert np.array_equal(draws, expect)


def test_sample_jump_additive_bursts():
    rng = np.random.default_rng(3)
    kernel = AdditiveBurstKernel(mean=1.0)
    y = 1.3
    out = kernel.apply(sample_thetas(kernel, np.full(100_000, y), rng), np.full(100_000, y))
    assert (out >= y).all()
    assert (out - y).mean() == pytest.approx(1.0, abs=0.02)


def test_sample_jump_deterministic_map():
    rng = np.random.default_rng(4)
    kernel = FiniteAffineIfs(maps=((0.5, 0.0),), probs=(1.0,))
    ys = np.full(10, 4.0)
    assert kernel.apply(sample_thetas(kernel, ys, rng), ys) == pytest.approx(np.full(10, 2.0))


def test_jump_displacement_from_anchor():
    # displacement of the anchor 0 has mean exactly the burst mean
    rng = np.random.default_rng(5)
    kernel = AdditiveBurstKernel(mean=1.0)
    out = kernel.apply(sample_thetas(kernel, np.zeros(100_000), rng), np.zeros(100_000))
    assert np.abs(out).mean() == pytest.approx(1.0, abs=0.02)


def test_density_normalization_over_quadrature():
    kernel = AdditiveBurstKernel(mean=1.0)
    rng = np.random.default_rng(6)
    _, masses = kernel.discretize(1000, 15.0, rng.uniform(0, 15, 1000))
    assert masses.shape == (1000, 1000)
    for row in masses:
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_switching_single_regime():
    rng = np.random.default_rng(7)
    pi = SwitchingMatrix([[1.0]])
    draws = pi.switch(np.zeros(10, dtype=np.int64), np.full(10, 3.0), pi.draw(rng, np.empty(10)))
    assert np.array_equal(draws, np.zeros(10, dtype=np.int64))


def test_switching_uniform_frequencies():
    rng = np.random.default_rng(8)
    pi = SwitchingMatrix([[0.5, 0.5], [0.5, 0.5]])
    draws = pi.switch(np.zeros(100_000, dtype=np.int64), np.zeros(100_000),
                      pi.draw(rng, np.empty(100_000)))
    assert (draws == 0).mean() == pytest.approx(0.5, abs=0.005)


def test_switching_absorbing_row():
    rng = np.random.default_rng(9)
    pi = SwitchingMatrix([[1.0, 0.0], [1.0, 0.0]])
    ys = np.repeat([0.0, 2.0, 7.5], 2)
    draws = pi.switch(np.tile([0, 1], 3), ys, pi.draw(rng, np.empty(6)))
    assert np.array_equal(draws, np.zeros(6, dtype=np.int64))


def test_switching_row_sum_validation():
    with pytest.raises(ValueError, match="off by 1.000e-01"):
        SwitchingMatrix([[0.7, 0.2], [0.5, 0.5]])


def test_switching_callable_entries_wait_for_check_rows():
    calls = []

    def stay(y):
        calls.append(np.size(y))
        return np.full_like(np.asarray(y, dtype=float), 0.7)

    pi = SwitchingMatrix([[stay, 0.2], [0.5, 0.5]])
    assert calls == []
    with pytest.raises(ValueError, match="off by 1.000e-01"):
        pi.check_rows([0.0, 1.0])
    assert calls == [2]


def test_switching_rows_stochastic_at_random_locations():
    def stay(y):
        return np.clip(np.asarray(y, dtype=float), 0.1, 0.9)

    pi = SwitchingMatrix([[stay, lambda y: 1.0 - stay(y)], [0.5, 0.5]])
    rng = np.random.default_rng(10)
    rows = pi.rows_at(rng.uniform(0, 15, 1000))
    assert np.abs(rows.sum(axis=2) - 1.0).max() < 1e-12
    assert rows.min() >= 0.0 and rows.max() <= 1.0


def test_switching_rejects_labels_outside_the_regimes():
    ys = np.full(3, 0.5)
    for pi, bad in ((SwitchingMatrix([[1.0]]), 1), (SwitchingMatrix([[1.0]]), -1),
                    (SwitchingMatrix([[0.5, 0.5], [0.5, 0.5]]), 2),
                    (SwitchingMatrix([[0.5, 0.5], [0.5, 0.5]]), -3)):
        n = pi.n_regimes
        with pytest.raises(ValueError, match=rf"regime {bad} outside 0\.\.{n - 1}"):
            pi.switch(np.array([0, bad, 0]), ys, pi.draw(np.random.default_rng(14), np.empty(3)))


def _clip_stay(y):
    return np.clip(np.asarray(y, dtype=float), 0.1, 0.9)


SWITCHES = {
    "one": [[1.0]],
    "two-constant": [[0.25, 0.75], [0.6, 0.4]],
    "two-ramp": [[_clip_stay, lambda y: 1.0 - _clip_stay(y)], [0.5, 0.5]],
    "three-mixed": [[lambda y: 0.5 * _clip_stay(y), lambda y: 0.5 - 0.5 * _clip_stay(y), 0.5],
                    [0.2, 0.3, 0.5],
                    [0.0, _clip_stay, lambda y: 1.0 - _clip_stay(y)]],
}


def full_stack_switch(pi, regimes, ys, rng):
    """The switch draw as it was written before it read only each atom's own row."""
    rows = pi.rows_at(ys)[np.arange(ys.size), regimes]
    cdf = np.cumsum(rows, axis=1)
    us = rng.random(ys.shape)
    out = (us[:, None] > cdf).sum(axis=1)
    return np.minimum(out, pi.n_regimes - 1).astype(np.int64)


@pytest.mark.parametrize("entries", SWITCHES.values(), ids=SWITCHES.keys())
def test_switch_draw_is_bitwise_the_full_stack_draw(entries):
    pi = SwitchingMatrix(entries)
    pi.check_rows(np.linspace(0.0, 2.0, 64))
    rng = np.random.default_rng(16)
    n = 20_000
    ys = np.concatenate([np.repeat([0.1, 0.9], 50), rng.uniform(0.0, 2.0, n - 100)])
    regimes = rng.integers(0, pi.n_regimes, n)
    new_rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    draws = pi.switch(regimes, ys, pi.draw(new_rng, np.empty(n)))
    assert draws.dtype == np.int64
    assert np.array_equal(draws, full_stack_switch(pi, regimes, ys, ref_rng))
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_switch_draw_scratch_is_bounded():
    # one column of own-row entries at a time: 8.5 MB traced here. The full
    # (n, 2, 2) stack alone took 16 MB, and np.choose over every row's column 10.01 MB
    pi = SwitchingMatrix(SWITCHES["two-ramp"])
    rng = np.random.default_rng(18)
    n = 250_000
    ys, regimes = rng.uniform(0.0, 1.2, n), rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pi.switch(regimes, ys, pi.draw(rng, np.empty(n)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def _toy_post_jump():
    # two maps, two regimes, everything hand-computable
    ifs = FiniteAffineIfs(maps=((0.5, 0.0), (1.0, 1.0)), probs=(0.3, 0.7))
    pi = SwitchingMatrix([[0.25, 0.75], [0.6, 0.4]])
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
    pi = SwitchingMatrix([[0.0, 1.0], [0.0, 1.0]])
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
            assert kernel.mean_contraction(u, v) == factor
            thetas = sample_thetas(kernel, np.full(5000, u), rng)
            spread = np.abs(kernel.apply(thetas, np.full(5000, u))
                            - kernel.apply(thetas, np.full(5000, v)))
            se = spread.std() / math.sqrt(spread.size)
            assert spread.mean() <= factor * abs(u - v) + 3 * se + 1e-12


NEGATIVE_SCALE = FiniteAffineIfs(maps=((0.5, 0.0), (-1.0, 2.0), (0.25, 1.0)), probs=_three_way)


def test_mean_contraction_of_a_state_dependent_kernel():
    # sum_k p_k(u) |s_k|: the law at the first point of the pair, a negative scale by its size
    kernel = NEGATIVE_SCALE
    for u, v in ((0.0, 1.0), (3.0, 0.5), (7.25, 7.5)):
        p = _three_way(u)
        assert kernel.mean_contraction(u, v) == p[0] * 0.5 + p[1] * 1.0 + p[2] * 0.25
        assert kernel.mean_contraction(u, v) == kernel.mean_contraction(u, v + 1.0)


JUMP_FAMILIES = {
    "bursts": AdditiveBurstKernel(mean=0.7),
    "constant": FiniteAffineIfs(maps=((0.5, 0.0), (1.0, 1.0)), probs=(0.3, 0.7)),
    "callable": FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5), (1.0, 0.0)), probs=_three_way),
}


@pytest.mark.parametrize("kernel", [*JUMP_FAMILIES.values(), NEGATIVE_SCALE],
                         ids=[*JUMP_FAMILIES, "negative-scale"])
def test_mean_displacement_matches_sampling(kernel):
    # E_{theta ~ p(y)} |w_theta(anchor) - anchor| against thetas drawn as the stepping loop does
    rng = np.random.default_rng(31)
    anchor = 1.5
    for y in (0.0, 0.5, 3.0, 7.25):
        dist = sampled_displacements(kernel, y, anchor, rng)
        se = dist.std() / math.sqrt(dist.size)
        assert abs(dist.mean() - kernel.mean_displacement(y, anchor)) <= 4 * se


def pre_split_jump(kernel, ys, regimes, rng):
    """The post-jump draw as it was written before it was split into a draw and a
    map: the theta law sampled whole, then the switch."""
    if isinstance(kernel.ifs, AdditiveBurstKernel):
        thetas = rng.exponential(kernel.ifs.mean, size=ys.shape)
    else:
        thetas = searchsorted_ifs_draw(kernel.ifs, ys, rng)
    ys_post = kernel.ifs.apply(thetas, ys)
    return ys_post, full_stack_switch(kernel.switching, regimes, ys_post, rng)


@pytest.mark.parametrize("switches", ["one", "two-ramp", "three-mixed"])
@pytest.mark.parametrize("family", JUMP_FAMILIES.keys())
def test_split_draw_over_chunks_is_bitwise_each_chunks_sample_vec(family, switches):
    # each chunk draws from its own stream into its slice; one map over all chunks
    kernel = PostJumpKernel(JUMP_FAMILIES[family], SwitchingMatrix(SWITCHES[switches]))
    data = np.random.default_rng(30)
    sizes = (7, 300, 1, 45)
    ys = [np.concatenate([[0.5], data.uniform(0.0, 3.0, n - 1)]) for n in sizes]
    regimes = [data.integers(0, kernel.switching.n_regimes, n) for n in sizes]
    jump, switch = np.empty(sum(sizes)), np.empty(sum(sizes))
    parts = [slice(stop - n, stop) for n, stop in zip(sizes, np.cumsum(sizes))]
    streams = [np.random.default_rng(40 + k) for k in range(len(sizes))]
    for rng, part in zip(streams, parts):
        kernel.draw(rng, jump[part], switch[part])
    ys_post, regimes_post = kernel.move(np.concatenate(ys), np.concatenate(regimes), jump, switch)
    assert regimes_post.dtype == np.int64
    for k, part in enumerate(parts):
        for reference in (kernel.sample_vec, partial(pre_split_jump, kernel)):
            ref_rng = np.random.default_rng(40 + k)
            want_ys, want_regimes = reference(ys[k], regimes[k], ref_rng)
            assert np.array_equal(ys_post[part], want_ys)
            assert np.array_equal(regimes_post[part], want_regimes)
            assert streams[k].bit_generator.state == ref_rng.bit_generator.state


def test_drift_of_jump_gauge():
    # mean distance of the jump image to the anchor is bounded by
    # contraction * current distance + mean displacement at the anchor
    rng = np.random.default_rng(16)
    kernel = AdditiveBurstKernel(mean=1.0)
    for y in (0.0, 1.0, 4.0, 9.0):
        thetas = sample_thetas(kernel, np.full(20_000, y), rng)
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
        m0 = g(kernel.apply(sample_thetas(kernel, np.full(n, y0), rng), np.full(n, y0))).mean()
        m1 = g(kernel.apply(sample_thetas(kernel, np.full(n, y1), rng), np.full(n, y1))).mean()
        bound = (lip_g * contraction + sup_g * density_modulus) * abs(y1 - y0)
        assert abs(m0 - m1) <= bound + 4.0 / math.sqrt(n) + 1e-12
