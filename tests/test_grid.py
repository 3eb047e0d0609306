import dataclasses
import tracemalloc

import numpy as np
import pytest

from pdmp_lab import grid as grid_module
from pdmp_lab.flows import AffineExpFlow, FrozenFlow
from pdmp_lab.grid import (
    GRID_NODE_BLOCK,
    GRID_THETA_CELLS,
    GRID_TIME_CELLS,
    ConvergenceError,
    GridAssemblyError,
    build_grid_model,
    check_factorization,
    oracle_correspondence,
    power_iteration,
)
from pdmp_lab.hazard import (
    ConstantIntensity,
    SaturatingIntensity,
    quantile_edges,
    survival_horizon,
)
from pdmp_lab.jumps import AdditiveBurstKernel, FiniteAffineIfs, PostJumpKernel, SwitchingMatrix
from pdmp_lab.metrics import wasserstein1_1d
from pdmp_lab.models import DeclaredConstants, ModelSpec, gene_expression_model, two_regime_model
from pdmp_lab.simulate import chain_measure, run_ensemble

from oracles import grid_measure

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")


def reference_grid(model, m):
    """Brute-force assembly, one (regime, node) row at a time with np.add.at.

    The per-row loop build_grid_model used before it worked on node blocks;
    returns the five matrices and, per row, the pre-jump plus jump mass that
    leaves the window (below, above).
    """
    y_max = model.y_max
    nodes = np.linspace(0.0, y_max, m)
    spacing = nodes[1] - nodes[0]
    n_regimes = model.n_regimes
    n_states = m * n_regimes
    t_max = survival_horizon(model.intensity)
    edges = quantile_edges(model.intensity, GRID_TIME_CELLS, t_max)
    reps = 0.5 * (edges[:-1] + edges[1:])

    points, node_masses = model.jump.ifs.discretize(GRID_THETA_CELLS, y_max, nodes)
    post_jump = np.zeros((n_states, n_states))
    leak = np.zeros((2, n_states))
    lo, hi = nodes[0] - 0.5 * spacing, nodes[-1] + 0.5 * spacing
    for node in range(m):
        y = nodes[node]
        masses = node_masses[node]
        images = np.asarray(model.jump.ifs.apply(points, y), dtype=float)
        idx = np.clip(np.round(images / spacing).astype(np.int64), 0, m - 1)
        switch = model.jump.switching.rows_at(nodes[idx])
        for i in range(n_regimes):
            for j in range(n_regimes):
                np.add.at(post_jump[i * m + node], j * m + idx, masses * switch[:, i, j])
            leak[0, i * m + node] = masses[images < lo].sum()
            leak[1, i * m + node] = masses[images > hi].sum()

    rate_at = np.asarray(model.intensity(nodes), dtype=float)
    pre_jump = np.zeros((n_states, n_states))
    occupation = np.zeros((n_states, n_states))
    transition = np.zeros((n_states, n_states))
    for i in range(n_regimes):
        for node in range(m):
            y = nodes[node]
            surv = np.asarray(model.hazard.survival(i, edges, np.full(edges.shape, y)), dtype=float)
            cell_mass = surv[:-1] - surv[1:]
            pos = model.flow.evaluate(i, reps, np.full(reps.shape, y))
            img = np.clip(np.round(pos / spacing).astype(np.int64), 0, m - 1)
            tail = float(model.flow.evaluate(i, t_max, y))
            tail_img = int(np.clip(round(tail / spacing), 0, m - 1))
            leak[0, i * m + node] += cell_mass[pos < lo].sum() + (surv[-1] if tail < lo else 0.0)
            leak[1, i * m + node] += cell_mass[pos > hi].sum() + (surv[-1] if tail > hi else 0.0)
            row_arrival = np.zeros(m)
            np.add.at(row_arrival, img, cell_mass)
            row_arrival[tail_img] += surv[-1]
            pre_jump[i * m + node, i * m: (i + 1) * m] = row_arrival
            row_occupation = np.zeros(m)
            np.add.at(row_occupation, img, cell_mass / rate_at[img])
            row_occupation[tail_img] += surv[-1] / rate_at[tail_img]
            occupation[i * m + node, i * m: (i + 1) * m] = row_occupation
            transition[i * m + node] = row_arrival @ post_jump[i * m: (i + 1) * m]
    return {"pre_jump": pre_jump, "post_jump": post_jump, "occupation": occupation,
            "weighted_post_jump": post_jump * np.tile(rate_at, n_regimes)[:, None],
            "transition": transition, "leak": leak}


def assembly_factors(model, m):
    """pre_jump, post_jump and occupation from the assembly helpers, as they are
    before build_grid_model overwrites pre_jump and scales post_jump, and the
    jump plus flow leak of each row."""
    nodes = np.linspace(0.0, model.y_max, m)
    post_jump, jump_leak = grid_module._jump_rows(model, nodes, model.n_regimes, model.y_max)
    pre_jump, occupation, flow_leak = grid_module._flow_rows(
        model, nodes, np.asarray(model.intensity(nodes), dtype=float))
    return pre_jump, post_jump, occupation, jump_leak + flow_leak


def state_dependent_ifs_model():
    """Two regimes, halving maps whose selection law depends on the location."""
    flow = AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0))
    intensity = SaturatingIntensity(base=1.0, gain=0.5)
    ifs = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)),
                          probs=lambda y: [0.2 + 0.6 * y, 0.8 - 0.6 * y])
    stay = lambda y: np.clip(np.asarray(y, dtype=float), 0.1, 0.9)  # noqa: E731
    switching = SwitchingMatrix([[stay, lambda y: 1.0 - stay(y)], [0.5, 0.5]])
    return ModelSpec(
        name="state-dependent-ifs", flow=flow, intensity=intensity,
        jump=PostJumpKernel(ifs, switching),
        declared=DeclaredConstants(), y_max=1.0)


ASSEMBLY_CASES = [
    pytest.param(GENE_SAT, 2 * GRID_NODE_BLOCK + 44,  # one regime, last block partial
                 id="gene-saturating"),
    pytest.param(two_regime_model(switching="ramp"), GRID_NODE_BLOCK + 22, id="two-regime-ramp"),
    pytest.param(state_dependent_ifs_model(), 90,  # state-dependent masses, a single partial block
                 id="state-dependent-ifs"),
    pytest.param(GENE, GRID_NODE_BLOCK, id="gene-one-full-block"),
]


@pytest.mark.parametrize("model, m", ASSEMBLY_CASES)
def test_blocked_assembly_matches_per_row_reference(model, m):
    grid = build_grid_model(model, m)
    ref = reference_grid(model, m)
    pre_jump, post_jump, occupation, leak = assembly_factors(model, m)
    factors = {"pre_jump": pre_jump, "post_jump": post_jump, "occupation": occupation}
    for name, mat in factors.items():
        assert np.array_equal(mat, ref[name]), name
    for name in ("occupation", "weighted_post_jump"):
        assert np.array_equal(getattr(grid, name), ref[name]), name
    assert np.abs(grid.transition - ref["transition"]).max() <= 1e-15
    assert np.abs(leak - ref["leak"]).max() <= 1e-15
    # the fused pass writes the transition the grid holds over its pre_jump argument
    grid_module._transition_over_pre_jump(pre_jump, post_jump, model.n_regimes)
    assert np.array_equal(pre_jump, grid.transition)


@pytest.mark.parametrize("model, m", ASSEMBLY_CASES + [
    # the shipped size, where the two products' bits differ
    pytest.param(GENE_SAT, 400, id="gene-saturating-400"),
])
def test_span_transition_is_the_band_product_up_to_gemm_rounding(model, m):
    # each computed product of inner length at most K lies within gamma_K |A| |B|
    # of the exact one, gamma_K = K u / (1 - K u) (Higham 2002, section 3.5), so
    # the span and the full-band products differ by at most twice that
    grid = build_grid_model(model, m)
    pre_jump, post_jump, _, _ = assembly_factors(model, m)
    u = 2.0 ** -53
    gamma = m * u / (1.0 - m * u)
    for i in range(model.n_regimes):
        band = slice(i * m, (i + 1) * m)
        for blk in grid_module._node_blocks(m):
            rows = slice(i * m + blk.start, i * m + blk.stop)
            full = pre_jump[rows, band] @ post_jump[band]
            bound = 2.0 * gamma * (np.abs(pre_jump[rows, band]) @ np.abs(post_jump[band]))
            assert np.all(np.abs(grid.transition[rows] - full) <= bound), (i, blk)


def test_grid_holds_three_matrices():
    grid = build_grid_model(two_regime_model(), 60)
    held = {f.name for f in dataclasses.fields(grid)
            if np.shape(getattr(grid, f.name)) == (grid.n_states, grid.n_states)}
    assert held == {"transition", "occupation", "weighted_post_jump"}


def test_grid_memory_grows_by_three_matrices_per_state_squared():
    # the tracemalloc peak of a full oracle pass grows by 3 n_states^2 floats
    # (5 before pre_jump and post_jump were overwritten in place); the block
    # scratch is the same at both sizes, so the difference isolates the matrices
    peaks = {}
    for m in (1024, 1600):
        tracemalloc.start()
        try:
            grid = build_grid_model(GENE_SAT, m)
            check_factorization(grid)
            oracle_correspondence(grid)
            del grid
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    growth = (peaks[1600] - peaks[1024]) / (8 * (1600 ** 2 - 1024 ** 2))
    assert growth <= 3.5


@pytest.mark.parametrize("y_max", [0.0, -5.0, np.nan, np.inf])
def test_y_max_must_be_positive_and_finite(y_max):
    with pytest.raises(ValueError, match="y_max must be positive and finite"):
        build_grid_model(GENE, 40, y_max=y_max)


def test_oracle_reuses_the_build_fixed_point(monkeypatch):
    calls = []

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return power_iteration(matrix, *args, **kwargs)

    monkeypatch.setattr(grid_module, "power_iteration", counted)
    grid = build_grid_model(two_regime_model(), 120)
    check_factorization(grid)
    oracle_correspondence(grid)
    assert len(calls) == 1
    assert np.array_equal(grid.fixed_point, power_iteration(grid.transition))


def test_blocked_residuals_equal_unblocked_expression():
    grid = build_grid_model(GENE_SAT, GRID_NODE_BLOCK + 72)
    transition = grid.transition.copy()
    transition[-1, 7] += 3e-7  # planted in the last, partial row block
    planted = dataclasses.replace(grid, transition=transition)
    for g in (grid, planted):
        fact = check_factorization(g)
        assert fact.residual_plain == g.residual_plain
        assert fact.residual_weighted == float(
            np.abs(g.occupation @ g.weighted_post_jump - g.transition).max())
    fact = check_factorization(planted)
    assert fact.residual_weighted == pytest.approx(3e-7, rel=1e-6) and fact.passed
    transition[3, 0] = np.nan
    assert not check_factorization(planted).passed
    assert np.isnan(check_factorization(planted).residual_weighted)


def test_column_span_is_first_to_last_nonzero_column():
    block = np.zeros((3, 8))
    assert grid_module._column_span(block) == slice(0, 0)
    block[2, 3] = np.nan
    assert grid_module._column_span(block) == slice(3, 4)
    block[0, 6] = -1e-300
    assert grid_module._column_span(block) == slice(3, 7)


@pytest.mark.parametrize("model, m", [
    (GENE_SAT, 400),
    (two_regime_model(), GRID_NODE_BLOCK + 72),
], ids=["gene-saturating", "two-regime"])
def test_span_residual_matches_the_full_product(model, m):
    grid = build_grid_model(model, m)
    full = np.abs(grid.occupation @ grid.weighted_post_jump - grid.transition).max()
    assert abs(check_factorization(grid).residual_weighted - full) <= 1e-16
    transition = grid.transition.copy()
    transition[-1, 7] += 3e-7  # planted in the last, partial row block
    fact = check_factorization(dataclasses.replace(grid, transition=transition))
    assert fact.residual_weighted == pytest.approx(3e-7, rel=1e-6) and fact.passed


@pytest.mark.parametrize("model", [GENE_SAT, two_regime_model()],
                         ids=["gene-saturating", "two-regime"])
def test_a_nan_in_either_weighted_factor_fails(model):
    m = GRID_NODE_BLOCK + 72
    grid = build_grid_model(model, m)
    assert check_factorization(grid).passed
    # check_factorization's row blocks; the last one is partial
    starts = range(0, grid.n_states, GRID_NODE_BLOCK)
    spans = [grid_module._column_span(grid.occupation[s:s + GRID_NODE_BLOCK]) for s in starts]
    # a weighted_post_jump row outside some block's span: only other blocks' products reach it
    span = next(sp for sp in spans if sp != slice(0, grid.n_states))
    outside = 0 if span.start > 0 else span.stop
    assert not span.start <= outside < span.stop
    for name, entry in (("occupation", (-1, 0)), ("weighted_post_jump", (-1, 3)),
                        ("weighted_post_jump", (outside, 3))):
        planted = getattr(grid, name).copy()
        planted[entry] = np.nan
        fact = check_factorization(dataclasses.replace(grid, **{name: planted}))
        assert np.isnan(fact.residual_weighted) and not fact.passed, (name, entry)


def test_plain_residual_sees_pre_jump_mass_outside_its_band():
    # one regime: there is no off-band column, so the residual is exactly 0
    m = GRID_NODE_BLOCK + 72
    grid = build_grid_model(GENE_SAT, m)
    assert grid.residual_plain == 0.0
    pre_jump, post_jump, _, _ = assembly_factors(GENE_SAT, m)
    assert grid_module._transition_over_pre_jump(pre_jump, post_jump, 1) == 0.0

    # two regimes: a correct assembly holds no off-band mass, so again exactly 0
    model = two_regime_model()
    grid = build_grid_model(model, m)
    assert grid.residual_plain == 0.0
    pre_jump, post_jump, _, _ = assembly_factors(model, m)
    clean = pre_jump.copy()
    assert grid_module._transition_over_pre_jump(clean, post_jump, 2) == grid.residual_plain
    assert grid.residual_plain <= 1e-15
    # each block's transition rows are its one product over its column span
    # within the band, byte for byte
    for i in range(model.n_regimes):
        band = slice(i * m, (i + 1) * m)
        for blk in grid_module._node_blocks(m):
            rows = slice(i * m + blk.start, i * m + blk.stop)
            span = grid_module._column_span(pre_jump[rows, band])
            inner = slice(band.start + span.start, band.start + span.stop)
            assert inner.start < inner.stop
            assert np.array_equal(grid.transition[rows], pre_jump[rows, inner] @ post_jump[inner])
    # regime-0 row in the last, partial block of its band; its mass leaks into regime 1
    row, col = m - 1, m + 5
    pre_jump[row, col] += 3e-7
    planted = pre_jump.copy()
    residual = grid_module._transition_over_pre_jump(pre_jump, post_jump, 2)
    rows, off_band = slice(GRID_NODE_BLOCK, m), slice(m, 2 * m)
    assert residual == float(np.abs(planted[rows, off_band] @ post_jump[off_band]).max())
    assert residual == pytest.approx(3e-7 * post_jump[col].max(), rel=1e-6)
    # the band product that became the transition ignores the planted mass
    assert np.array_equal(pre_jump, grid.transition)
    planted[row, col] = np.nan
    residual = grid_module._transition_over_pre_jump(planted, post_jump, 2)
    assert np.isnan(residual)
    assert not dataclasses.replace(check_factorization(grid), residual_plain=residual).passed


def test_plain_residual_sums_off_band_mass_on_both_sides():
    # three regimes, block-diagonal pre_jump; a middle-band row holds mass in
    # bands 0 and 2, powers of two so every product term is exact
    m, n_regimes = 40, 3
    rng = np.random.default_rng(5)
    pre_jump = np.zeros((m * n_regimes, m * n_regimes))
    for i in range(n_regimes):
        pre_jump[i * m:(i + 1) * m, i * m:(i + 1) * m] = rng.random((m, m))
    post_jump = rng.random((m * n_regimes, m * n_regimes))
    row = m + 3
    pre_jump[row, 7] = 2.0 ** -21
    pre_jump[row, 2 * m + 11] = 2.0 ** -22
    off_band = np.r_[0:m, 2 * m:3 * m]
    expected = float(np.abs(pre_jump[row, off_band] @ post_jump[off_band]).max())
    assert grid_module._transition_over_pre_jump(pre_jump, post_jump, n_regimes) == expected
    assert expected > 2.0 ** -21 * post_jump[7].max()


def two_node_model():
    """Frozen flow plus a deterministic jump onto the upper node."""
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    return ModelSpec(
        name="two-node", flow=flow, intensity=intensity,
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.0, 1.0),), probs=(1.0,)),
                            SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants(), y_max=1.0)


def test_two_node_transition_row():
    grid = build_grid_model(two_node_model(), 2, y_max=1.0)
    assert np.allclose(grid.transition, [[0.0, 1.0], [0.0, 1.0]])
    fact = check_factorization(grid)
    assert fact.residual_plain <= 1e-12 and fact.residual_weighted <= 1e-12


def test_row_sums_are_stochastic():
    grid = build_grid_model(GENE_SAT, 100)
    pre_jump, post_jump, _, _ = assembly_factors(GENE_SAT, 100)
    for mat in (grid.transition, pre_jump, post_jump):
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-8
    occ = grid.occupation.sum(axis=1)
    assert occ.min() >= 1.0 / 1.5 - 1e-8 and occ.max() <= 1.0 + 1e-8
    wpj = grid.weighted_post_jump.sum(axis=1)
    assert wpj.min() >= 1.0 - 1e-8 and wpj.max() <= 1.5 + 1e-8


def test_boundary_leak_small_on_gene_window():
    grid = build_grid_model(GENE, 200, y_max=15.0)
    assert grid.stationary_leak < 1e-4  # exponential tail beyond the window


def test_boundary_leak_error_when_window_too_small():
    with pytest.raises(GridAssemblyError, match="boundary leakage"):
        build_grid_model(GENE, 50, y_max=2.0)


@pytest.mark.parametrize("params, message", [
    ({"c1": 30.0}, r"\(0\.000e\+00 below 0, 2\.420e-01 above y_max=15\); .*; increase y_max$"),
    ({"c0": -2.0}, r"\(3\.337e-01 below 0, 0\.000e\+00 above .*; no y_max holds mass below 0$"),
    ({"c1": 14.9}, None),
], ids=["attractor-above-window", "attractor-below-zero", "attractor-inside-window"])
def test_window_check_counts_flow_images(params, message):
    # halving jumps stay inside [0, 15]; only the regime-1 or regime-0 flow leaves it.
    # two_regime_model rejects an attractor outside its window, so the flow is
    # swapped in through ModelSpec
    attractors = {"c0": 0.0, "c1": 1.0, **params}
    model = dataclasses.replace(two_regime_model(), flow=AffineExpFlow(
        rates=(1.0, 1.0), anchors=(attractors["c0"], attractors["c1"])))
    _, _, _, leak = assembly_factors(model, 60)
    assert leak.any() == (message is not None)
    assert np.abs(leak - reference_grid(model, 60)["leak"]).max() <= 1e-15
    if message is None:
        assert build_grid_model(model, 200).stationary_leak == 0.0
    else:
        with pytest.raises(GridAssemblyError, match=message):
            build_grid_model(model, 200)


def test_switching_rows_are_checked_on_the_grid_nodes():
    # stay-probability 1 - y/20 is a valid row on the model window [0, 15] only
    flow = AffineExpFlow(rates=(1.0, 1.0), anchors=(0.0, 1.0))
    intensity = ConstantIntensity(1.0)
    stay = lambda y: 1.0 - np.asarray(y, dtype=float) / 20.0  # noqa: E731
    model = ModelSpec(
        name="stay-ramp", flow=flow, intensity=intensity,
        jump=PostJumpKernel(AdditiveBurstKernel(1.0),
                            SwitchingMatrix([[stay, lambda y: 1.0 - stay(y)], [0.5, 0.5]])),
        declared=DeclaredConstants(), y_max=15.0)
    build_grid_model(model, 120)
    _, post_jump, _, _ = assembly_factors(model, 120)
    assert post_jump.min() >= 0.0
    with pytest.raises(GridAssemblyError, match=r"y_max=30: switching entries must lie in"):
        build_grid_model(model, 120, y_max=30.0)


def test_assembly_failures_are_solver_errors():
    with pytest.raises(GridAssemblyError, match="boundary leakage") as exc:
        build_grid_model(GENE, 50, y_max=2.0)
    assert isinstance(exc.value, RuntimeError)


def test_factorization_residuals_gene():
    grid = build_grid_model(GENE_SAT, 200)
    fact = check_factorization(grid)
    assert fact.residual_plain <= 1e-6
    assert fact.residual_weighted <= 1e-6


def test_factorization_negative_control_mismatched_horizon(monkeypatch):
    # rebuilding only the pre-jump factor with a shorter horizon must break
    # the identity well beyond the tolerance
    grid = build_grid_model(GENE, 100)
    _, post_jump, _, _ = assembly_factors(GENE, 100)
    monkeypatch.setattr(grid_module, "survival_horizon", lambda intensity: 2.0)
    short_pre_jump, _, _, _ = assembly_factors(GENE, 100)
    residual = np.abs(short_pre_jump @ post_jump - grid.transition).max()
    assert residual > 1e-6


def test_power_iteration_doubly_stochastic():
    v = power_iteration(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(v, [0.5, 0.5], atol=1e-12)


def test_power_iteration_identity_flags_non_uniqueness():
    eye = np.eye(2)
    a = power_iteration(eye, v0=np.array([1.0, 0.0]))
    b = power_iteration(eye, v0=np.array([0.0, 1.0]))
    assert np.allclose(a, [1.0, 0.0])
    # a second start exposes the non-uniqueness
    assert not np.allclose(a, b)


def test_power_iteration_requires_stochastic_rows():
    with pytest.raises(ValueError):
        power_iteration(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_power_iteration_non_convergence_reports_residual(monkeypatch):
    # period-2 chain never settles in l1: each step moves |0.9 - 0.1| twice
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(grid_module, "POWER_ITERATION_MAX_ITER", 50)
    with pytest.raises(ConvergenceError,
                       match=r"no fixed point within 50 iterations \(residual 1\.600e\+00\)"):
        power_iteration(flip, v0=np.array([0.9, 0.1]))


def test_gene_fixed_point_moments():
    grid = build_grid_model(GENE, 400)
    report = oracle_correspondence(grid)
    assert report.mean_chain == pytest.approx(2.0, abs=0.02)
    assert report.mean_flow == pytest.approx(1.0, abs=0.02)


def test_oracle_correspondence_residuals():
    grid = build_grid_model(GENE_SAT, 200)
    report = oracle_correspondence(grid)
    assert report.residual_flow_invariance <= 1e-6
    assert report.residual_chain_roundtrip <= 1e-6
    assert report.normalizer_product_error <= 1e-8


def test_oracle_constant_rate_normalizers():
    lam = 2.0
    # rate 2 pushes the stationary law higher, so the window must widen
    grid = build_grid_model(gene_expression_model(lam=lam), 150, y_max=20.0)
    report = oracle_correspondence(grid)
    assert report.normalizer_to_flow == pytest.approx(1.0 / lam, abs=1e-10)
    assert report.normalizer_to_chain == pytest.approx(lam, abs=1e-8)


def test_two_regime_grid_correspondence():
    grid = build_grid_model(two_regime_model(), 120)
    fact = check_factorization(grid)
    assert fact.passed
    report = oracle_correspondence(grid)
    assert report.passed


def test_grid_refinement_converges_to_mc_law():
    ens = run_ensemble(GENE, 2000, 31, n_steps=150)
    mu = chain_measure(ens, 50)
    prev_gap = None
    for m in (50, 100, 200, 400):
        grid = build_grid_model(GENE, m)
        fp = power_iteration(grid.transition)
        vec = grid_measure(grid, fp)
        gap = wasserstein1_1d(vec.ys, vec.weights, mu.ys, mu.weights / mu.total_mass)
        if prev_gap is not None:
            assert gap <= prev_gap + 0.002
        prev_gap = gap
        # mean error bounded by the node resolution (nearest-node rounding
        # bias flips sign with grid parity, so it is not itself monotone)
        spacing = grid.nodes[1] - grid.nodes[0]
        assert abs(grid.mean_location(fp) - 2.0) <= 0.5 * spacing
    assert prev_gap <= 0.03
    grid = build_grid_model(GENE, 400)
    assert abs(grid.mean_location(power_iteration(grid.transition)) - 2.0) <= 0.02


def test_fixed_point_matches_closed_form_laws():
    # chain law Gamma(2,1), flow law Exp(1): compare CDFs on the grid
    grid = build_grid_model(GENE, 400)
    report = oracle_correspondence(grid)
    chain_cdf = np.cumsum(grid.fixed_point)
    gamma_cdf = 1.0 - np.exp(-grid.nodes) * (1.0 + grid.nodes)
    w1_chain = np.trapezoid(np.abs(chain_cdf - gamma_cdf), grid.nodes)
    flow_cdf = np.cumsum(report.flow_vector)
    exp_cdf = 1.0 - np.exp(-grid.nodes)
    w1_flow = np.trapezoid(np.abs(flow_cdf - exp_cdf), grid.nodes)
    assert w1_chain <= 0.02
    assert w1_flow <= 0.02


def test_power_iteration_names_a_nan_row_at_once():
    matrix = np.full((400, 400), 1.0 / 400)
    matrix[3, 5] = np.nan
    with pytest.raises(ValueError, match="row 3 sums to nan"):
        power_iteration(matrix)


@pytest.mark.parametrize("v0", [[1.0, -1.0], [np.nan, 1.0], [0.0, 0.0]])
def test_power_iteration_rejects_bad_start_vector(v0):
    with pytest.raises(ValueError, match="start vector must be finite with a positive sum"):
        power_iteration(np.full((2, 2), 0.5), v0=np.array(v0))


def test_power_iteration_stops_at_first_non_finite_residual():
    # rows sum to 1, but the negative entries make the iterate grow without bound
    growing = np.array([[2.0, -1.0], [-1.0, 2.0]])
    with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match=r"finite range at step \d+ \(residual (nan|inf)\)$"):
        power_iteration(growing, v0=np.array([1.0, 0.0]))


def test_grid_checks_name_a_nan_row(monkeypatch):
    real_jump_rows = grid_module._jump_rows

    def nan_jump_rows(*args):
        post_jump, leak = real_jump_rows(*args)
        post_jump[7, 0] = np.nan
        return post_jump, leak

    monkeypatch.setattr(grid_module, "_jump_rows", nan_jump_rows)
    # the NaN reaches every transition row that can jump from node 7, the first of them row 0
    with pytest.raises(GridAssemblyError,
                       match="transition row 0 deviates from stochasticity by nan"):
        build_grid_model(GENE, 40)
