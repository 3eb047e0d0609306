"""Cross-module edge cases not owned by any single module's test file."""

import math

import numpy as np
import pytest

from pdmp_lab.diagnostics import run_assumption_suite, stability_margin
from pdmp_lab.grid import build_grid_model
from pdmp_lab.hazard import sample_holding_thinning_vec
from pdmp_lab.metrics import measure_distance
from pdmp_lab.models import gene_expression_model, two_regime_model
from pdmp_lab.simulate import REPLICA_CHUNK, evaluate_paths, occupation_from_ensemble, run_ensemble
from pdmp_lab.state import WeightedEmpiricalMeasure

from oracles import ks_statistic

GENE = gene_expression_model()


def test_two_regime_burst_variant_passes_suite():
    model = two_regime_model(jumps="bursts")
    report = run_assumption_suite(model, seed=3)
    assert [c.name for c in report.checks if not c.passed] == []
    assert stability_margin(model) == pytest.approx(1.0)


def test_two_regime_uniform_switch_grid():
    grid = build_grid_model(two_regime_model(switching="uniform"), 80)
    # symmetric switching: the fixed point splits regime mass evenly
    from pdmp_lab.grid import power_iteration
    fp = power_iteration(grid.transition)
    m = grid.nodes.size
    assert fp[:m].sum() == pytest.approx(0.5, abs=1e-9)


def test_measure_distance_with_absent_regime():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], regimes=[0, 0])
    nu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], regimes=[0, 1])
    report = measure_distance(mu, nu, n_regimes=2)
    # regime 1 carries no mu mass: only the shared regime contributes W1
    assert report.regime_mass_gap == pytest.approx(1.0)
    assert 1 not in report.per_regime_w1
    assert report.combined >= report.bl_lower


def test_occupation_measure_pools_paths():
    ens = run_ensemble(GENE, 3, 4, n_steps=80)
    horizon = ens.min_horizon
    mu = occupation_from_ensemble(ens, horizon=horizon, samples_per_replica=200, seed=4,
                                  burn_in=0.2 * horizon).measure()
    assert mu.n_atoms == 600
    assert mu.total_mass == pytest.approx(1.0)


def test_pdmp_path_two_regime_segments():
    model = two_regime_model()
    taus = np.array([0.0, 1.0, 3.0])
    ys = np.array([0.0, 2.0, 0.5])
    regimes = np.array([0, 1, 0])
    ys_at, regimes_at = evaluate_paths(model, (taus[None], ys[None], regimes[None]),
                                       np.array([[2.0, 0.5]]))
    # inside segment 1 the motion relaxes toward attractor 1
    assert regimes_at[0, 0] == 1
    assert ys_at[0, 0] == pytest.approx(2.0 * math.exp(-1.0) + 1.0 * (1.0 - math.exp(-1.0)))
    assert regimes_at[0, 1] == 0
    assert ys_at[0, 1] == pytest.approx(0.0)


def test_thinning_agrees_with_law_gene_saturating():
    model = gene_expression_model(intensity="saturating")
    rng = np.random.default_rng(5)
    draws = sample_holding_thinning_vec(model.hazard, 0, np.full(20_000, 1.0), rng)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return 1.0 - np.exp(-model.hazard.value(0, t, np.full(t.shape, 1.0)))

    assert ks_statistic(draws, cdf=cdf) <= 1.36 / math.sqrt(draws.size)


def test_ensemble_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_ensemble(GENE, 10, 1)  # neither steps nor horizon
    with pytest.raises(ValueError):
        run_ensemble(GENE, 10, 1, n_steps=5, t_end=3.0)  # both
    with pytest.raises(ValueError):
        run_ensemble(GENE, 0, 1, n_steps=5)


def test_trajectory_access_by_replica_index():
    # replica r is row r of the concatenated chunks, every row as long as the run
    ens = run_ensemble(GENE, REPLICA_CHUNK + 88, 7, n_steps=4)
    assert [c[0].shape for c in ens.chunks] == [(REPLICA_CHUNK, 5), (88, 5)]
    assert sum(c[0].shape[0] for c in ens.chunks) == REPLICA_CHUNK + 88
    first = tuple(a[0] for a in ens.chunks[0])
    last = tuple(a[-1] for a in ens.chunks[1])
    assert first[0][0] == last[0][0] == 0.0 and (np.diff(last[0]) > 0).all()


def test_ensemble_chunk_boundary_sizes():
    # full chunks of REPLICA_CHUNK replicas, then the remainder
    c = REPLICA_CHUNK
    for n, sizes in ((1, [1]), (c - 1, [c - 1]), (c, [c]), (c + 1, [c, 1]), (2 * c + 1, [c, c, 1])):
        ens = run_ensemble(GENE, n, 6, n_steps=3)
        assert sum(chunk[0].shape[0] for chunk in ens.chunks) == n
        assert [chunk[0].shape for chunk in ens.chunks] == [(size, 4) for size in sizes]
