import dataclasses

import numpy as np
import pytest

from pdmp_lab.flows import AffineExpFlow, FrozenFlow
from pdmp_lab.grid import (
    GRID_NODE_BLOCK,
    ConvergenceError,
    GridAssemblyError,
    build_grid_model,
    check_factorization,
    oracle_correspondence,
    power_iteration,
)
from pdmp_lab.hazard import (
    ConstantIntensity,
    CumulativeHazard,
    SaturatingIntensity,
    quantile_edges,
    survival_horizon,
)
from pdmp_lab.jumps import FiniteAffineIfs, PostJumpKernel, SwitchingMatrix
from pdmp_lab.metrics import wasserstein1_1d
from pdmp_lab.models import DeclaredConstants, ModelSpec, gene_expression_model, two_regime_model
from pdmp_lab.simulate import chain_measure, run_ensemble

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(intensity="saturating")


def reference_grid(model, m, time_cells, theta_cells):
    """Brute-force assembly, one (regime, node) row at a time with np.add.at.

    The per-row loop build_grid_model used before it worked on node blocks;
    returns the five matrices and the clipped jump mass per row.
    """
    y_max = model.y_max
    nodes = np.linspace(0.0, y_max, m)
    spacing = nodes[1] - nodes[0]
    n_regimes = model.n_regimes
    n_states = m * n_regimes
    t_max = survival_horizon(model.intensity)
    edges = quantile_edges(model.intensity, time_cells, t_max)
    reps = 0.5 * (edges[:-1] + edges[1:])

    quad = model.jump.ifs.discretize(theta_cells, y_max)
    post_jump = np.zeros((n_states, n_states))
    leak = np.zeros(n_states)
    for node in range(m):
        y = nodes[node]
        masses = quad.masses_at(y)
        images = np.asarray(model.jump.ifs.apply(quad.points, y), dtype=float)
        idx = np.clip(np.round(images / spacing).astype(np.int64), 0, m - 1)
        out_of_window = (images > nodes[-1] + 0.5 * spacing) | (images < nodes[0] - 0.5 * spacing)
        switch = model.jump.switching.rows_at(nodes[idx])
        for i in range(n_regimes):
            for j in range(n_regimes):
                np.add.at(post_jump[i * m + node], j * m + idx, masses * switch[:, i, j])
            leak[i * m + node] = masses[out_of_window].sum()

    rate_at = np.asarray(model.intensity(nodes), dtype=float)
    pre_jump = np.zeros((n_states, n_states))
    occupation = np.zeros((n_states, n_states))
    transition = np.zeros((n_states, n_states))
    for i in range(n_regimes):
        for node in range(m):
            y = nodes[node]
            surv = np.asarray(model.hazard.survival(i, edges, np.full(edges.shape, y)), dtype=float)
            cell_mass = surv[:-1] - surv[1:]
            img = np.clip(np.round(model.flow.evaluate(i, reps, np.full(reps.shape, y)) / spacing)
                          .astype(np.int64), 0, m - 1)
            tail_img = int(np.clip(round(float(model.flow.evaluate(i, t_max, y)) / spacing), 0, m - 1))
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
            "transition": transition, "leak_per_row": leak}


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
        hazard=CumulativeHazard.for_model(flow, intensity),
        jump=PostJumpKernel(ifs, switching),
        declared=DeclaredConstants(), y_max=1.0)


@pytest.mark.parametrize("model, m", [
    (GENE_SAT, 2 * GRID_NODE_BLOCK + 44),  # one regime, last block partial
    (two_regime_model(switching="ramp"), GRID_NODE_BLOCK + 22),
    (state_dependent_ifs_model(), 90),  # state-dependent masses, a single partial block
    (GENE, GRID_NODE_BLOCK),
], ids=["gene-saturating", "two-regime-ramp", "state-dependent-ifs", "gene-one-full-block"])
def test_blocked_assembly_matches_per_row_reference(model, m):
    grid = build_grid_model(model, m, time_cells=400, theta_cells=300)
    ref = reference_grid(model, m, time_cells=400, theta_cells=300)
    for name in ("pre_jump", "post_jump", "occupation", "weighted_post_jump"):
        assert np.array_equal(getattr(grid, name), ref[name]), name
    assert np.abs(grid.transition - ref["transition"]).max() <= 1e-15
    assert np.abs(grid.leak_per_row - ref["leak_per_row"]).max() <= 1e-15


def test_oracle_reuses_the_build_fixed_point():
    grid = build_grid_model(two_regime_model(), 120)
    assert np.array_equal(grid.fixed_point, power_iteration(grid.transition, tol=1e-12))
    assert oracle_correspondence(grid).chain_fixed_point is grid.fixed_point


def test_blocked_residuals_equal_unblocked_expression():
    grid = build_grid_model(GENE_SAT, GRID_NODE_BLOCK + 72)
    transition = grid.transition.copy()
    transition[-1, 7] += 3e-7  # planted in the last, partial row block
    planted = dataclasses.replace(grid, transition=transition)
    for g in (grid, planted):
        fact = check_factorization(g)
        assert fact.residual_plain == float(np.abs(g.pre_jump @ g.post_jump - g.transition).max())
        assert fact.residual_weighted == float(
            np.abs(g.occupation @ g.weighted_post_jump - g.transition).max())
    fact = check_factorization(planted, tol=1e-6)
    assert fact.residual_plain == pytest.approx(3e-7, rel=1e-6) and fact.passed
    transition[3, 0] = np.nan
    assert not check_factorization(planted).passed
    assert np.isnan(check_factorization(planted).residual_weighted)


def two_node_model():
    """Frozen flow plus a deterministic jump onto the upper node."""
    flow = FrozenFlow()
    intensity = ConstantIntensity(1.0)
    return ModelSpec(
        name="two-node", flow=flow, intensity=intensity,
        hazard=CumulativeHazard.for_model(flow, intensity),
        jump=PostJumpKernel(FiniteAffineIfs(maps=((0.0, 1.0),), probs=(1.0,)),
                            SwitchingMatrix([[1.0]])),
        declared=DeclaredConstants(flow_rate=0.0), y_max=1.0)


def test_two_node_transition_row():
    grid = build_grid_model(two_node_model(), 2, y_max=1.0, time_cells=16, theta_cells=4)
    assert np.allclose(grid.transition, [[0.0, 1.0], [0.0, 1.0]])
    fact = check_factorization(grid, tol=1e-12)
    assert fact.passed


def test_row_sums_are_stochastic():
    grid = build_grid_model(GENE_SAT, 100)
    for mat in (grid.transition, grid.pre_jump, grid.post_jump):
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-8
    occ = grid.occupation.sum(axis=1)
    assert occ.min() >= 1.0 / 1.5 - 1e-8 and occ.max() <= 1.0 + 1e-8
    wpj = grid.weighted_post_jump.sum(axis=1)
    assert wpj.min() >= 1.0 - 1e-8 and wpj.max() <= 1.5 + 1e-8


def test_boundary_leak_small_on_gene_window():
    grid = build_grid_model(GENE, 200, y_max=15.0)
    assert grid.stationary_leak < 1e-4  # exponential tail beyond the window


def test_boundary_leak_error_when_window_too_small():
    with pytest.raises(ValueError, match="boundary leakage"):
        build_grid_model(GENE, 50, y_max=2.0)


def test_assembly_failures_are_solver_errors():
    with pytest.raises(GridAssemblyError, match="boundary leakage") as exc:
        build_grid_model(GENE, 50, y_max=2.0)
    assert isinstance(exc.value, RuntimeError)


def test_factorization_residuals_gene():
    grid = build_grid_model(GENE_SAT, 200)
    fact = check_factorization(grid, tol=1e-6)
    assert fact.residual_plain <= 1e-6
    assert fact.residual_weighted <= 1e-6


def test_factorization_negative_control_mismatched_horizon():
    # rebuilding only the pre-jump factor with a shorter horizon must break
    # the identity well beyond the tolerance
    grid = build_grid_model(GENE, 100)
    short = build_grid_model(GENE, 100, t_max=2.0)
    residual = np.abs(short.pre_jump @ grid.post_jump - grid.transition).max()
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


def test_power_iteration_non_convergence_reports_residual():
    # period-2 chain never settles in l1
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConvergenceError) as exc:
        power_iteration(flip, v0=np.array([0.9, 0.1]), max_iter=50)
    assert exc.value.residual > 0


def test_gene_fixed_point_moments():
    grid = build_grid_model(GENE, 400)
    report = oracle_correspondence(grid)
    assert report.mean_chain == pytest.approx(2.0, abs=0.02)
    assert report.mean_flow == pytest.approx(1.0, abs=0.02)


def test_oracle_correspondence_residuals():
    grid = build_grid_model(GENE_SAT, 200)
    report = oracle_correspondence(grid, tol=1e-6)
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
    fact = check_factorization(grid, tol=1e-6)
    assert fact.passed
    report = oracle_correspondence(grid, tol=1e-6)
    assert report.passed


def test_grid_refinement_converges_to_mc_law():
    ens = run_ensemble(GENE, 2000, 31, n_steps=150)
    mu = chain_measure(ens, 50)
    prev_gap = None
    for m in (50, 100, 200, 400):
        grid = build_grid_model(GENE, m)
        fp = power_iteration(grid.transition, tol=1e-12)
        vec = grid.measure_from_vector(fp)
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
    assert abs(grid.mean_location(power_iteration(grid.transition, tol=1e-12)) - 2.0) <= 0.02


def test_fixed_point_matches_closed_form_laws():
    # chain law Gamma(2,1), flow law Exp(1): compare CDFs on the grid
    grid = build_grid_model(GENE, 400)
    report = oracle_correspondence(grid)
    chain_cdf = np.cumsum(report.chain_fixed_point)
    gamma_cdf = 1.0 - np.exp(-grid.nodes) * (1.0 + grid.nodes)
    w1_chain = np.trapezoid(np.abs(chain_cdf - gamma_cdf), grid.nodes)
    flow_cdf = np.cumsum(report.flow_vector)
    exp_cdf = 1.0 - np.exp(-grid.nodes)
    w1_flow = np.trapezoid(np.abs(flow_cdf - exp_cdf), grid.nodes)
    assert w1_chain <= 0.02
    assert w1_flow <= 0.02
