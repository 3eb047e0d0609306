"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line. Heavy Monte Carlo artifacts are built
once per session and shared where several criteria consume the same runs
(the timed criterion builds its own inside the timer).
"""

import json
import math
import time

import numpy as np
import pytest

from pdmp_lab import diagnostics
from pdmp_lab.cli import main as cli_main
from pdmp_lab.diagnostics import drift_constants, run_assumption_suite, verify_drift_empirically
from pdmp_lab.grid import build_grid_model, check_factorization, oracle_correspondence
from pdmp_lab.hazard import invert_holding, sample_holding_thinning_vec
from pdmp_lab.metrics import measure_distance, wasserstein1_1d
from pdmp_lab.models import (
    control_degenerate_switching,
    control_expanding_flow,
    control_supercritical,
    gene_expression_model,
    two_regime_model,
)
from pdmp_lab.simulate import (
    chain_measure,
    jump_count_pmf,
    occupation_from_ensemble,
    run_ensemble,
)
from pdmp_lab.state import WeightedEmpiricalMeasure
from pdmp_lab.transforms import (
    chain_to_flow_stationary,
    flow_to_chain_stationary,
    holding_occupation_transform,
    weighted_jump_transform,
)

from oracles import (
    chain_step_transform,
    check_semigroup,
    effective_sample_size,
    grid_measure,
    ks_critical,
    ks_statistic,
    ks_statistic_weighted,
)

GENE = gene_expression_model()
GENE_SAT = gene_expression_model(lam_high=1.5)
TWO = two_regime_model()

REPLICAS = 1000
STEPS = 1100
BURN_STEPS = 100           # leaves 10^6 post-burn-in chain atoms
HORIZON = 1250.0
TIME_BURN = 250.0
SAMPLES_PER_REPLICA = 1000  # 10^6 occupation samples


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _stationary_pair(model, seed):
    """Chain-stationary and occupation estimates at acceptance scale."""
    ens = run_ensemble(model, REPLICAS, (seed, 1), n_steps=STEPS)
    mu_chain = chain_measure(ens, BURN_STEPS)
    occ_ens = run_ensemble(model, REPLICAS, (seed, 2), t_end=HORIZON)
    mu_flow = occupation_from_ensemble(
        occ_ens, HORIZON, SAMPLES_PER_REPLICA, (seed, 3), burn_in=TIME_BURN).measure()
    return mu_chain, mu_flow


def _w1(mu, nu):
    return wasserstein1_1d(mu.ys, mu.weights / mu.total_mass,
                           nu.ys, nu.weights / nu.total_mass)


_CACHE = {}


@pytest.fixture(scope="module")
def gene_runs():
    if "gene" not in _CACHE:
        _CACHE["gene"] = _stationary_pair(GENE, 101)
    return _CACHE["gene"]


@pytest.fixture(scope="module")
def gene_sat_runs():
    if "gene_sat" not in _CACHE:
        _CACHE["gene_sat"] = _stationary_pair(GENE_SAT, 202)
    return _CACHE["gene_sat"]


def test_criterion_01_correspondence_constant_rate():
    t0 = time.perf_counter()
    mu_chain, mu_flow = _stationary_pair(GENE, 101)
    to_flow, _ = chain_to_flow_stationary(GENE, mu_chain, np.random.default_rng(11))
    to_chain, _ = flow_to_chain_stationary(GENE, mu_flow, np.random.default_rng(12))
    w1_forward = _w1(to_flow, mu_flow)
    w1_backward = _w1(to_chain, mu_chain)
    elapsed = time.perf_counter() - t0
    _CACHE["gene"] = (mu_chain, mu_flow)
    ok = w1_forward <= 0.05 and w1_backward <= 0.05 and elapsed <= 120.0
    _report(1, ok, f"W1 forward {w1_forward:.4f} <= 0.05, backward {w1_backward:.4f} <= 0.05, "
                   f"runtime {elapsed:.1f}s <= 120s (single-threaded)")


def test_criterion_02_correspondence_state_dependent_rate(gene_sat_runs):
    mu_chain, mu_flow = gene_sat_runs
    to_flow, _ = chain_to_flow_stationary(GENE_SAT, mu_chain, np.random.default_rng(21))
    to_chain, _ = flow_to_chain_stationary(GENE_SAT, mu_flow, np.random.default_rng(22))
    w1_forward = _w1(to_flow, mu_flow)
    w1_backward = _w1(to_chain, mu_chain)
    grid = build_grid_model(GENE_SAT, 400)
    fixed = grid.fixed_point
    w1_oracle = _w1(mu_chain, grid_measure(grid, fixed))
    ok = w1_forward <= 0.05 and w1_backward <= 0.05 and w1_oracle <= 0.03
    _report(2, ok, f"W1 forward {w1_forward:.4f}, backward {w1_backward:.4f} (<= 0.05); "
                   f"MC vs grid fixed point {w1_oracle:.4f} <= 0.03")


def test_criterion_03_closed_form_stationary_laws(gene_runs):
    mu_chain, mu_flow = gene_runs
    occ_mean = mu_flow.mean_location()
    chain_mean = mu_chain.mean_location()
    grid = build_grid_model(GENE, 400)
    report = oracle_correspondence(grid)
    ok = (abs(occ_mean - 1.0) <= 0.05 and abs(chain_mean - 2.0) <= 0.05
          and abs(report.mean_flow - 1.0) <= 0.02 and abs(report.mean_chain - 2.0) <= 0.02)
    _report(3, ok, f"occupation mean {occ_mean:.4f} (1 +- 0.05), chain mean {chain_mean:.4f} "
                   f"(2 +- 0.05); oracle means {report.mean_flow:.4f}/{report.mean_chain:.4f} "
                   f"(+- 0.02 at 400 nodes)")


def test_criterion_04_factorization(gene_sat_runs):
    grid = build_grid_model(GENE_SAT, 200)
    fact = check_factorization(grid)
    mu_chain, _ = gene_sat_runs
    base = WeightedEmpiricalMeasure.from_samples(mu_chain.ys[:100_000]).normalize()
    mid, _ = holding_occupation_transform(GENE_SAT, base, rng=np.random.default_rng(41))
    composite, _ = weighted_jump_transform(GENE_SAT, mid, np.random.default_rng(42))
    direct = chain_step_transform(GENE_SAT, base, np.random.default_rng(43))
    stat = ks_statistic_weighted(composite.ys, composite.weights, direct.ys, direct.weights)
    crit = ks_critical(effective_sample_size(composite.weights), direct.n_atoms, alpha=0.01)
    ok = fact.residual_plain <= 1e-6 and fact.residual_weighted <= 1e-6 and stat <= crit
    _report(4, ok, f"grid residuals {fact.residual_plain:.2e}/{fact.residual_weighted:.2e} "
                   f"<= 1e-6; in-law KS {stat:.5f} <= {crit:.5f} (1% level, n=1e5)")


def test_criterion_05_normalizer_identity(gene_sat_runs):
    mu_chain, mu_flow = gene_sat_runs
    _, to_flow = chain_to_flow_stationary(GENE_SAT, mu_chain, np.random.default_rng(51))
    _, to_chain = flow_to_chain_stationary(GENE_SAT, mu_flow, np.random.default_rng(52))
    product = to_flow * to_chain
    grid_err = oracle_correspondence(build_grid_model(GENE_SAT, 400)).normalizer_product_error
    ok = abs(product - 1.0) <= 0.01 and grid_err <= 1e-8
    _report(5, ok, f"MC normalizer product {product:.4f} = 1 +- 0.01; "
                   f"oracle product error {grid_err:.2e} <= 1e-8")


def test_criterion_06_holding_time_law():
    n = 100_000
    y = 1.0

    def analytic_cdf(t):
        t = np.asarray(t, dtype=float)
        hazard = GENE_SAT.hazard.value(0, t, np.full(t.shape, y))
        return 1.0 - np.exp(-hazard)

    rng = np.random.default_rng(61)
    inv = invert_holding(GENE_SAT.hazard, 0, np.full(n, y), -np.log1p(-rng.random(n)))
    thin = sample_holding_thinning_vec(GENE_SAT.hazard, 0, np.full(n, y),
                                       np.random.default_rng(62))
    ks_inv = ks_statistic(inv, cdf=analytic_cdf)
    ks_thin = ks_statistic(thin, cdf=analytic_cdf)
    ks_two = ks_statistic_weighted(inv, np.ones(n), thin, np.ones(n))
    bound_one = 1.36 / math.sqrt(n)
    bound_two = ks_critical(n, n, alpha=0.01)
    ok = ks_inv <= bound_one and ks_thin <= bound_one and ks_two <= bound_two
    _report(6, ok, f"KS inversion {ks_inv:.5f}, thinning {ks_thin:.5f} (<= {bound_one:.5f}); "
                   f"two-sample {ks_two:.5f} <= {bound_two:.5f}")


def test_criterion_07_jump_count_bound():
    n_rep = 1_000_000
    t_values = (0.5, 1.0, 2.0)
    worst_excess = -math.inf
    pmf_sat = jump_count_pmf(GENE_SAT, t_values, n_rep, 71, max_count=12)
    for t, pmf in pmf_sat.items():
        for n in range(11):
            bound = math.exp(-1.0 * t) * (1.5 * t) ** n / math.factorial(n)
            se = math.sqrt(max(pmf[n] * (1.0 - pmf[n]), 1e-12) / n_rep)
            worst_excess = max(worst_excess, pmf[n] - bound - 3.0 * se)
    worst_gap = -math.inf
    pmf_const = jump_count_pmf(GENE, t_values, n_rep, 73, max_count=12)
    for t, pmf in pmf_const.items():
        for n in range(11):
            poisson = math.exp(-t) * t ** n / math.factorial(n)
            se = math.sqrt(max(poisson * (1.0 - poisson), 1e-12) / n_rep)
            worst_gap = max(worst_gap, abs(pmf[n] - poisson) - 3.0 * se)
    ok = worst_excess <= 0.0 and worst_gap <= 1e-12
    _report(7, ok, f"count pmf below envelope (worst excess {worst_excess:.2e}); "
                   f"constant-rate pmf matches Poisson (worst gap {worst_gap:.2e}), 1e6 replicas")


def test_criterion_08_holding_moment_brackets():
    ok = True
    details = []
    for model, seed in ((GENE, 81), (GENE_SAT, 82), (TWO, 83)):
        ens = run_ensemble(model, 1000, seed, n_steps=1000)
        dts = np.concatenate([np.diff(taus, axis=1).ravel() for taus, _, _ in ens.chunks])
        lo, hi = model.intensity.lower, model.intensity.upper
        for r in (1, 2, 3):
            vals = dts ** r
            se = vals.std() / math.sqrt(vals.size)
            lower = lo * hi ** -(r + 1) * math.factorial(r)
            upper = hi * lo ** -(r + 1) * math.factorial(r)
            inside = lower - 3 * se <= vals.mean() <= upper + 3 * se
            ok = ok and inside
            if not inside:
                details.append(f"{model.name} r={r}")
    _report(8, ok, "holding-time moments r=1,2,3 inside the rate-band bracket "
                   f"on all shipped models{'; failed: ' + ', '.join(details) if details else ''}")


def test_criterion_09_drift_constants_and_probes(monkeypatch):
    monkeypatch.setattr(diagnostics, "DRIFT_REPLICAS", 100_000)  # for the 0.02 band at probe 4
    constants = drift_constants(GENE)
    exact = constants.multiplier == pytest.approx(0.5) and constants.offset == pytest.approx(1.0)
    report = verify_drift_empirically(GENE, constants, seed=91)
    probe4 = [p for p in report.probes if p.location == 4.0][0]
    tight = abs(probe4.estimate - 3.0) <= 0.02
    ok = bool(exact and all(c.passed for c in report.checks) and tight)
    _report(9, ok, f"constants (a, b) = ({constants.multiplier}, {constants.offset}) exact; "
                   f"all probes below bound + 3 s.e.; tight probe at 4: "
                   f"{probe4.estimate:.4f} = 3.00 +- 0.02")


def test_criterion_10_assumption_suite():
    ok = True
    details = []
    for model in (GENE, GENE_SAT, TWO):
        failed = [c.name for c in run_assumption_suite(model, seed=100).checks if not c.passed]
        if failed:
            ok = False
            details.append(f"{model.name} failed {failed}")
    designated = {
        "control-expanding-flow": ["flow-contraction:declared-rate"],
        "control-supercritical": ["stability-margin:margin"],
        "control-degenerate-switching": ["switch-regularity:overlap-positive"],
    }
    for factory in (control_expanding_flow, control_supercritical,
                    control_degenerate_switching):
        model = factory()
        failed = [c.name for c in run_assumption_suite(model, seed=100).checks if not c.passed]
        if failed != designated[model.name]:
            ok = False
            details.append(f"{model.name} failed {failed} instead of {designated[model.name]}")
    _report(10, ok, "positive models pass all checks; each negative control fails exactly "
                    f"its designated check{'; ' + '; '.join(details) if details else ''}")


def test_criterion_11_uniqueness_probe():
    runs = {}
    for tag, (y0, i0, seed) in {"low": (0.0, 0, 111), "high": (15.0, 1, 112)}.items():
        ens = run_ensemble(TWO, REPLICAS, (seed, 1), y0=y0, i0=i0, n_steps=STEPS)
        mu_chain = chain_measure(ens, BURN_STEPS)
        occ_ens = run_ensemble(TWO, REPLICAS, (seed, 2), y0=y0, i0=i0, t_end=HORIZON)
        mu_flow = occupation_from_ensemble(
            occ_ens, HORIZON, SAMPLES_PER_REPLICA, (seed, 3), burn_in=TIME_BURN).measure()
        runs[tag] = (mu_chain, mu_flow)
    chain_gap = measure_distance(runs["low"][0], runs["high"][0], n_regimes=2).combined
    flow_gap = measure_distance(runs["low"][1], runs["high"][1], n_regimes=2).combined
    ok = chain_gap <= 0.02 and flow_gap <= 0.02
    _report(11, ok, f"two extreme starts agree: chain W1 {chain_gap:.4f} <= 0.02, "
                    f"occupation W1 {flow_gap:.4f} <= 0.02 (1e6 samples each)")


def test_criterion_12_flow_axioms():
    models = (GENE, GENE_SAT, TWO, control_expanding_flow(), control_supercritical(),
              control_degenerate_switching())
    worst = 0.0
    exact_identity = True
    seen = set()
    for model in models:
        key = (type(model.flow).__name__, getattr(model.flow, "rates", None),
               getattr(model.flow, "anchors", None), getattr(model.flow, "rate", None))
        if key in seen:
            continue
        seen.add(key)
        rep = check_semigroup(model.flow, n_samples=10_000, tol=1e-10,
                              rng=np.random.default_rng(121))
        worst = max(worst, rep.max_violation)
        ys = np.linspace(0.0, 15.0, 301)
        for i in range(model.flow.n_regimes):
            if not np.array_equal(np.asarray(model.flow.evaluate(i, 0.0, ys)), ys):
                exact_identity = False
    ok = worst <= 1e-10 and exact_identity
    _report(12, ok, f"semigroup identity within 1e-10 on 1e4 triples per shipped flow "
                    f"(worst {worst:.2e}); zero-time identity exact")


def test_criterion_13_cli_determinism(tmp_path):
    config = {
        "model": {"name": "gene", "params": {"kappa": 1.0, "burst_mean": 1.0,
                                             "lam_low": 1.0, "lam_high": 1.0}},
        "seed": 1313,
        "replicas": 200,
        "chain_steps": 200,
        "chain_burn_in_steps": 40,
        "horizon": 80.0,
        "occupation_samples_per_replica": 100,
        "grid": {"nodes": 80},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    produced = {
        "simulate": ["chain.csv", "occupation.csv", "summary.json"],
        "correspondence": ["distances.json"],
        "oracle": ["oracle.json", "fixed_point.csv"],
        "diagnostics": ["diagnostics.json"],
    }
    ok = True
    for command, files in produced.items():
        outs = []
        for run, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
            out_dir = tmp_path / f"{command}-{run}"
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out_dir)] + extra)
            ok = ok and code == 0
            outs.append({f: (out_dir / f).read_bytes() for f in files})
        ok = ok and outs[0] == outs[1] == outs[2]
    _report(13, ok, "all four subcommands byte-identical across reruns and with "
                    "--threads 4, which is ignored")
