import math
import tracemalloc

import numpy as np
import pytest

from pdmp_lab import metrics
from pdmp_lab.metrics import bl_lower_bound, measure_distance, sort_measure, wasserstein1_1d
from pdmp_lab.state import WeightedEmpiricalMeasure

from oracles import (
    effective_sample_size,
    ks_critical,
    ks_statistic,
    ks_statistic_weighted,
    wasserstein1_concat,
)


def w1(a, b, wa=None, wb=None):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    wa = np.ones(a.size) / a.size if wa is None else np.asarray(wa)
    wb = np.ones(b.size) / b.size if wb is None else np.asarray(wb)
    return wasserstein1_1d(a, wa, b, wb)


def test_w1_point_masses():
    assert w1([0.0], [1.0]) == pytest.approx(1.0)


def test_w1_identical_samples():
    xs = np.linspace(0, 5, 11)
    assert w1(xs, xs) == 0.0


def test_w1_hand_computed_coupling():
    assert w1([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)


def test_w1_weighted_atoms():
    # 0.75 mass moves from 0 to 1
    assert w1([0.0, 1.0], [1.0], wa=[0.75, 0.25], wb=[1.0]) == pytest.approx(0.75)


def test_w1_mass_mismatch_rejected():
    with pytest.raises(ValueError):
        wasserstein1_1d(np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([0.5]))


def test_w1_unpaired_weights_rejected():
    one, two = np.array([0.0]), np.array([0.0, 1.0])
    for args in ((two, np.array([1.0]), one, np.array([1.0])),
                 (one, np.array([1.0]), one, np.array([0.5, 0.5])),
                 (two.reshape(1, 2), np.full((1, 2), 0.5), one, np.array([1.0]))):
        with pytest.raises(ValueError, match="1-D values and weights"):
            wasserstein1_1d(*args)


def test_w1_symmetry_and_triangle_on_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=rng.integers(2, 30))
        b = rng.normal(size=rng.integers(2, 30))
        c = rng.normal(size=rng.integers(2, 30))
        dab, dba = w1(a, b), w1(b, a)
        assert dab == pytest.approx(dba, abs=1e-10)
        assert dab <= w1(a, c) + w1(c, b) + 1e-10


def test_w1_against_quantile_coupling():
    # equal-size equal-weight sets: W1 equals the sorted-sample L1 average
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.normal(size=40), rng.normal(size=40)
        expect = np.abs(np.sort(a) - np.sort(b)).mean()
        assert w1(a, b) == pytest.approx(expect, abs=1e-12)


def test_w1_equals_concatenated_sort_without_ties():
    # tie-free sets: the per-side sorts and the merge give the reference's exact order
    rng = np.random.default_rng(6)
    cases = []
    for _ in range(100):
        n_a, n_b = rng.integers(1, 400, 2)
        cases.append((rng.normal(size=n_a), rng.random(n_a),
                      rng.normal(0.3, 1.5, size=n_b), rng.random(n_b)))
    a, b = np.sort(rng.normal(size=300)), np.sort(rng.normal(size=200))
    cases.append((a, rng.random(300), b, rng.random(200)))              # already sorted
    cases.append((a[::-1], rng.random(300), b[::-1], rng.random(200)))  # reversed
    cases.append((np.array([0.5]), np.ones(1), np.array([-2.0]), np.ones(1)))
    cases.append((np.array([0.5]), np.ones(1), rng.normal(size=50), rng.random(50)))
    cases.append((rng.normal(size=50), rng.random(50), np.array([0.5]), np.ones(1)))
    for ya, wa, yb, wb in cases:
        wa, wb = wa / wa.sum(), wb / wb.sum()
        assert wasserstein1_1d(ya, wa, yb, wb) == wasserstein1_concat(ya, wa, yb, wb)


def test_w1_matches_concatenated_sort_with_ties():
    # Ties inside a measure may reorder the terms of its CDF gap's cumulative sum.
    # Each sum of n terms of total |mass| 2 is within 2 n eps of exact, so the two
    # gaps differ by at most 4 n eps per step, times the support width in W1; the
    # two dot products each add n eps relative.
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for _ in range(100):
        n_a, n_b = rng.integers(1, 400, 2)
        ya = np.round(rng.normal(size=n_a), 1)
        yb = np.concatenate([np.round(rng.normal(0.5, 1.0, size=n_b - 1), 1), ya[:1]])
        wa, wb = rng.random(n_a), rng.random(n_b)
        wa, wb = wa / wa.sum(), wb / wb.sum()
        expect = wasserstein1_concat(ya, wa, yb, wb)
        n = n_a + n_b
        width = max(ya.max(), yb.max()) - min(ya.min(), yb.min())
        bound = 4 * n * eps * width + 2 * n * eps * expect
        assert abs(wasserstein1_1d(ya, wa, yb, wb) - expect) <= bound


def test_w1_peak_scratch_per_atom():
    # two sorted runs and the merged order: no concatenated mergesort of the union
    rng = np.random.default_rng(8)
    n = 100_000
    ya, yb = rng.normal(size=n), rng.normal(0.5, 1.0, size=n)
    wa, wb = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
    tracemalloc.start()
    try:
        wasserstein1_1d(ya, wa, yb, wb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2 * n


def test_bl_lower_bound_examples():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0])
    assert bl_lower_bound(mu, mu) == 0.0
    d0 = WeightedEmpiricalMeasure.from_samples([0.0])
    d1 = WeightedEmpiricalMeasure.from_samples([1.0])
    assert bl_lower_bound(d0, d1) == pytest.approx(1.0)  # ramp anchored at 0 attains it


def test_bl_below_combined_score():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = WeightedEmpiricalMeasure.from_samples(
            rng.normal(size=60), regimes=rng.integers(0, 2, 60))
        nu = WeightedEmpiricalMeasure.from_samples(
            rng.normal(1.0, 1.0, size=60), regimes=rng.integers(0, 2, 60))
        report = measure_distance(mu, nu, n_regimes=2)
        assert report.bl_lower <= report.combined + 1e-9


def test_combined_score_zero_iff_identical():
    xs = np.array([0.0, 1.0, 2.0])
    mu = WeightedEmpiricalMeasure.from_samples(xs, regimes=[0, 1, 0])
    report = measure_distance(mu, mu, n_regimes=2)
    assert report.combined == 0.0
    nu = WeightedEmpiricalMeasure.from_samples(xs + 0.5, regimes=[0, 1, 0])
    assert measure_distance(mu, nu, n_regimes=2).combined > 0.0


def test_combined_score_splits_regime_mass():
    mu = WeightedEmpiricalMeasure.from_samples([0.0], regimes=[0])
    nu = WeightedEmpiricalMeasure.from_samples([0.0], regimes=[1])
    report = measure_distance(mu, nu, n_regimes=2)
    assert report.combined == pytest.approx(2.0)  # both regime masses mismatch by 1
    assert report.regime_mass_gap == pytest.approx(2.0)


def test_ks_statistic_examples():
    xs = np.linspace(0, 1, 100)
    assert ks_statistic_weighted(xs, np.ones(100), xs, np.ones(100)) == 0.0
    a = np.linspace(0, 1, 50)
    b = np.linspace(5, 6, 50)
    assert ks_statistic_weighted(a, np.ones(50), b, np.ones(50)) == pytest.approx(1.0)


def test_ks_exponential_sampler_against_cdf():
    rng = np.random.default_rng(3)
    n = 100_000
    draws = rng.exponential(0.5, size=n)
    stat = ks_statistic(draws, cdf=lambda t: 1.0 - np.exp(-2.0 * t))
    assert stat <= 1.36 / math.sqrt(n)


def test_ks_critical_constants():
    # classical table values
    assert ks_critical(1, alpha=0.05) == pytest.approx(1.3581, abs=2e-4)
    assert ks_critical(1, alpha=0.01) == pytest.approx(1.6276, abs=2e-4)
    assert ks_critical(100, 100, alpha=0.01) == pytest.approx(1.6276 * math.sqrt(2 / 100), rel=1e-3)


def test_weighted_ks_matches_plain_on_equal_weights():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=500), rng.normal(size=400)
    # the plain two-sample statistic: empirical CDFs of both sets on the pooled points
    pooled = np.concatenate([a, b])
    plain = float(np.abs(np.searchsorted(np.sort(a), pooled, side="right") / a.size
                         - np.searchsorted(np.sort(b), pooled, side="right") / b.size).max())
    weighted = ks_statistic_weighted(a, np.ones(500), b, np.ones(400))
    assert weighted == pytest.approx(plain, abs=1e-12)


def test_effective_sample_size():
    assert effective_sample_size(np.ones(100)) == pytest.approx(100.0)
    w = np.array([1.0, 0.0, 0.0])
    assert effective_sample_size(w) == pytest.approx(1.0)


def brute_force_bl_lower_bound(mu, nu, n_anchors):
    # the ramp dictionary spelled out: both mirror ramps at every anchor,
    # regime-blind and restricted to each regime present in either measure
    mu, nu = mu.normalize(), nu.normalize()
    anchors = np.linspace(min(mu.ys.min(), nu.ys.min()), max(mu.ys.max(), nu.ys.max()), n_anchors)
    fns = []
    for a in anchors:
        fns.append(lambda y, a=a: np.clip(y - a, -1.0, 1.0))
        fns.append(lambda y, a=a: np.clip(a - y, -1.0, 1.0))
    regimes = sorted(set(np.unique(mu.regimes)) | set(np.unique(nu.regimes)))
    best = 0.0
    for f in fns:
        best = max(best, abs(float(np.dot(mu.weights, f(mu.ys)) - np.dot(nu.weights, f(nu.ys)))))
        for i in regimes:
            ya, wa = mu.restrict_regime(i)
            yb, wb = nu.restrict_regime(i)
            ga = float(np.dot(wa, f(ya))) if ya.size else 0.0
            gb = float(np.dot(wb, f(yb))) if yb.size else 0.0
            best = max(best, abs(ga - gb))
    return best


def test_bl_lower_bound_matches_brute_force_dictionary(monkeypatch):
    rng = np.random.default_rng(5)
    for n_regimes in (1, 2, 3):
        for trial in range(15):
            n_a, n_b = rng.integers(1, 200, 2)
            ya = rng.normal(0.0, 2.0, n_a)
            yb = rng.normal(0.5, 1.5, n_b)
            ra = rng.integers(0, n_regimes, n_a)
            # the last regime is present only in mu
            rb = rng.integers(0, max(n_regimes - 1, 1), n_b)
            n_anchors = int(rng.integers(1, 70))
            lo, hi = min(ya.min(), yb.min()), max(ya.max(), yb.max())
            anchors = np.linspace(lo, hi, n_anchors)
            # atoms exactly on ramp breakpoints a +- 1
            on_breaks = rng.choice(np.concatenate([anchors - 1.0, anchors + 1.0]), 10)
            ya = np.concatenate([ya, np.clip(on_breaks, lo, hi)])
            ra = np.concatenate([ra, rng.integers(0, n_regimes, 10)])
            yb = np.concatenate([yb, np.clip(on_breaks[::-1], lo, hi)])
            rb = np.concatenate([rb, np.zeros(10, dtype=int)])
            mu = WeightedEmpiricalMeasure.from_samples(ya, ra, rng.random(ya.size))
            nu = WeightedEmpiricalMeasure.from_samples(yb, rb, rng.random(yb.size))
            expect = brute_force_bl_lower_bound(mu, nu, n_anchors)
            monkeypatch.setattr(metrics, "BL_ANCHORS", n_anchors)
            assert abs(bl_lower_bound(mu, nu) - expect) <= 1e-12


def test_bl_lower_bound_atoms_on_breakpoints(monkeypatch):
    # anchors 0, 1, 2 put breakpoints at -1, 0, 1, 1, 2, 3; every atom sits on one
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], regimes=[0, 1, 0])
    nu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 1.0, 2.0], regimes=[1, 1, 0, 0],
                                               weights=[0.5, 1.0, 1.0, 0.5])
    for n_anchors in (1, 2, 3, 5):
        expect = brute_force_bl_lower_bound(mu, nu, n_anchors)
        monkeypatch.setattr(metrics, "BL_ANCHORS", n_anchors)
        assert abs(bl_lower_bound(mu, nu) - expect) <= 1e-12


def two_regime_measures_with_ties(rng, n_regimes):
    # locations on a 0.1 grid: ties inside each measure and across the two;
    # the last regime carries atoms of the first measure only
    n_a, n_b = 3000, 2000
    ya, yb = np.round(rng.normal(0.0, 1.0, n_a), 1), np.round(rng.normal(0.3, 1.0, n_b), 1)
    ra = rng.integers(0, n_regimes, n_a)
    rb = rng.integers(0, n_regimes - 1, n_b)
    mu = WeightedEmpiricalMeasure(ya, ra, rng.random(n_a))
    nu = WeightedEmpiricalMeasure(yb, rb, rng.random(n_b))
    return mu, nu


def test_sorted_distance_is_bitwise_w1_on_each_regimes_raw_arrays():
    # each measure is sorted once per regime; the per-regime W1, the mass gap
    # and the combined score keep the bits of wasserstein1_1d on the regime's
    # unsorted arrays, whether a side comes raw or presorted
    rng = np.random.default_rng(11)
    for n_regimes in (2, 3):
        mu, nu = two_regime_measures_with_ties(rng, n_regimes)
        mu_n, nu_n = mu.normalize(), nu.normalize()
        mass_mu, mass_nu = mu_n.regime_mass(n_regimes), nu_n.regime_mass(n_regimes)
        expect, combined = {}, 0.0
        for i in range(n_regimes):
            shared = min(mass_mu[i], mass_nu[i])
            if shared > 0:
                ya, wa = mu_n.restrict_regime(i)
                yb, wb = nu_n.restrict_regime(i)
                expect[i] = wasserstein1_1d(ya, wa / wa.sum(), yb, wb / wb.sum())
                combined += shared * expect[i]
        gap = float(np.abs(mass_mu - mass_nu).sum())
        combined += gap
        assert n_regimes - 1 not in expect  # the regime empty in nu has no W1
        for sides in ((mu, nu), (sort_measure(mu, n_regimes), nu),
                      (mu, sort_measure(nu, n_regimes))):
            report = measure_distance(*sides, n_regimes=n_regimes)
            assert report.per_regime_w1 == expect
            assert report.regime_mass_gap == gap and report.combined == combined
        assert measure_distance(mu, nu, n_regimes + 1).per_regime_w1 == expect
        # a presorted run beside raw arrays
        yb, wb = nu_n.restrict_regime(0)
        run = sort_measure(mu, n_regimes).runs[0]
        assert wasserstein1_1d(run, None, yb, wb / wb.sum()) == expect[0]


def test_measure_distance_rejects_a_sorted_side_of_other_regimes():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], regimes=[0, 1])
    with pytest.raises(ValueError, match="^the first measure is sorted over 2 regimes, not 3"):
        measure_distance(sort_measure(mu, 2), mu, n_regimes=3)
    with pytest.raises(ValueError, match="^the measure is sorted over 3 regimes, not 2"):
        bl_lower_bound(sort_measure(mu, 2), sort_measure(mu, 3))


def test_bl_lower_bound_within_rounding_of_an_fsum_reference():
    # the dictionary maximum with every ramp integral summed exactly by fsum.
    # On these measures the sums over sorted runs are 0.5 to 2.1 eps from it,
    # and the bincount sums in atom order they replaced were 0.3 to 2.8 eps
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for _ in range(3):
        n = 20_000
        mu, nu = (WeightedEmpiricalMeasure(rng.normal(shift, 2.0, n), rng.integers(0, 2, n),
                                           rng.random(n)) for shift in (0.0, 0.2))
        mu_n, nu_n = mu.normalize(), nu.normalize()
        anchors = np.linspace(min(mu.ys.min(), nu.ys.min()), max(mu.ys.max(), nu.ys.max()),
                              metrics.BL_ANCHORS)
        expect = 0.0
        for a in anchors:
            rows = [math.fsum(np.concatenate([
                m.weights[m.regimes == i] * np.clip(m.ys[m.regimes == i] - a, -1.0, 1.0) * sign
                for m, sign in ((mu_n, 1.0), (nu_n, -1.0))])) for i in (0, 1)]
            expect = max(expect, abs(rows[0]), abs(rows[1]), abs(math.fsum(rows)))
        assert abs(bl_lower_bound(mu, nu) - expect) <= 16 * eps
        assert abs(measure_distance(mu, nu, 2).bl_lower - expect) <= 16 * eps


def test_ramp_sums_cut_runs_into_blocks_within_bins(monkeypatch):
    # blocks of 1 to 7 atoms against one block per bin: the cuts of a sorted
    # run never drop or double an atom, on ties and on breakpoints
    rng = np.random.default_rng(13)
    ys = np.round(rng.normal(0.0, 2.0, 500), 1)
    mu = WeightedEmpiricalMeasure(ys, rng.integers(0, 2, 500), np.ones(500))
    nu = WeightedEmpiricalMeasure.from_samples(np.concatenate([ys[:200], [-1.0, 1.0]]))
    expect = brute_force_bl_lower_bound(mu, nu, metrics.BL_ANCHORS)
    for block in (1, 2, 7, 10_000):
        monkeypatch.setattr(metrics, "BL_SUM_BLOCK", block)
        assert abs(bl_lower_bound(mu, nu) - expect) <= 1e-12


def test_measure_distance_rejects_regimes_outside_range():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], regimes=[0, 1, 2])
    nu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 7.0], regimes=[0, 1, 2])
    with pytest.raises(ValueError, match=r"first measure has an atom in regime 2, outside 0\.\.1"):
        measure_distance(mu, nu, n_regimes=2)
    inside = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 7.0], regimes=[0, 1, 1])
    with pytest.raises(ValueError, match="second measure has an atom in regime 2"):
        measure_distance(inside, mu, n_regimes=2)
    assert measure_distance(mu, nu, n_regimes=3).combined > 0
