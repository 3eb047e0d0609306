import math
import time

import numpy as np
import pytest

from pdmp_lab import hazard as hazard_module
from pdmp_lab.flows import AffineExpFlow
from pdmp_lab.hazard import (
    ConstantIntensity,
    CumulativeHazard,
    SaturatingIntensity,
    adaptive_simpson,
    invert_holding,
    sample_holding_thinning_vec,
)
from pdmp_lab.metrics import ks_critical, ks_statistic
from pdmp_lab.models import build_model
from pdmp_lab.state import StatePoint

FLOW = AffineExpFlow(rates=(1.0,), anchors=(0.0,))
# rate band [1, 2]: the variant used in the worked closed-form example
WIDE = CumulativeHazard.for_model(FLOW, SaturatingIntensity(base=1.0, gain=1.0))
CONST2 = CumulativeHazard.for_model(FLOW, ConstantIntensity(2.0))


def closed_gene_hazard(y, t):
    # integral of 1 + u/(1+u) along u = y e^{-h}
    return t + math.log((1.0 + y) / (1.0 + y * math.exp(-t)))


def test_constant_hazard_is_linear():
    assert CONST2.value(0, 3.0, 3.3) == pytest.approx(6.0)


def test_hazard_zero_time():
    assert WIDE.value(0, 0.0, 1.0) == 0.0


def test_closed_form_value():
    expected = 1.0 + math.log(2.0 / (1.0 + math.exp(-1.0)))
    assert expected == pytest.approx(1.37988549, abs=1e-7)
    assert WIDE.value(0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_quadrature_matches_closed_form():
    quad = CumulativeHazard(intensity=WIDE.intensity, flow=FLOW, closed_form=None)
    for t in (0.3, 1.0, 2.7):
        assert quad.value(0, t, 1.0) == pytest.approx(closed_gene_hazard(1.0, t), abs=1e-9)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        WIDE.value(0, -1.0, 1.0)


def test_survival_examples_and_bracket():
    assert WIDE.survival(0, 0.0, 1.0) == 1.0
    assert CONST2.survival(0, 1.0, 0.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = StatePoint(rng.uniform(0, 10), 0)
        t = rng.uniform(0, 5)
        s = WIDE.survival(x.i, t, x.y)
        assert math.exp(-2.0 * t) - 1e-12 <= s <= math.exp(-1.0 * t) + 1e-12


def test_hazard_bracket_property():
    rng = np.random.default_rng(1)
    for _ in range(500):
        y, t = rng.uniform(0, 10), rng.uniform(0, 5)
        val = WIDE.value(0, t, y)
        assert 1.0 * t - 1e-12 <= val <= 2.0 * t + 1e-12


def test_hazard_strictly_increasing_in_time():
    ts = np.linspace(0.0, 5.0, 200)
    vals = WIDE.value(0, ts, np.full(ts.shape, 2.0))
    assert (np.diff(vals) > 0).all()


def quantile(hz, y, u):
    """Holding-time quantile at u from location y in regime 0, by hazard inversion."""
    return float(invert_holding(hz, 0, np.array([y]), np.array([-math.log1p(-u)]))[0])


def test_inversion_constant_rate_quantile():
    u = 1.0 - math.exp(-1.0)
    assert quantile(CONST2, 0.0, u) == pytest.approx(0.5, abs=1e-10)


def test_inversion_small_u_goes_to_zero():
    t = quantile(WIDE, 1.0, 1e-14)
    assert 0.0 <= t < 1e-12


def test_inversion_recovers_closed_form_time():
    u = 1.0 - math.exp(-closed_gene_hazard(1.0, 1.0))
    assert quantile(WIDE, 1.0, u) == pytest.approx(1.0, abs=1e-9)


def test_inversion_u_domain():
    # u = 1 and u outside [0, 1] give hazard targets that are infinite, NaN or negative
    for bad in (math.inf, math.nan, -math.log1p(0.2)):
        with pytest.raises(ValueError, match="targets must be finite and >= 0"):
            invert_holding(WIDE, 0, np.array([1.0]), np.array([bad]))
    assert quantile(WIDE, 1.0, 0.0) == 0.0


def test_thinning_constant_rate_is_exponential():
    # every proposal is accepted, so the output is exactly the proposal law
    rng = np.random.default_rng(2)
    draws = sample_holding_thinning_vec(CONST2, 0, np.zeros(20_000), rng)
    stat = ks_statistic(draws, cdf=lambda t: 1.0 - np.exp(-2.0 * t))
    assert stat <= 1.36 / math.sqrt(draws.size)


def test_thinning_mean_within_rate_bracket():
    rng = np.random.default_rng(3)
    draws = sample_holding_thinning_vec(WIDE, 0, np.full(100_000, 1.0), rng)
    se = draws.std() / math.sqrt(draws.size)
    assert 0.5 - 3 * se <= draws.mean() <= 1.0 + 3 * se


def test_thinning_matches_analytic_cdf():
    rng = np.random.default_rng(4)
    n = 100_000
    draws = sample_holding_thinning_vec(WIDE, 0, np.full(n, 1.0), rng)
    cdf = lambda t: 1.0 - np.exp(-np.vectorize(closed_gene_hazard)(1.0, t))
    assert ks_statistic(draws, cdf=cdf) <= 1.36 / math.sqrt(n)


def test_inversion_matches_analytic_cdf():
    rng = np.random.default_rng(5)
    n = 100_000
    draws = invert_holding(WIDE, 0, np.full(n, 1.0), -np.log1p(-rng.random(n)))
    cdf = lambda t: 1.0 - np.exp(-np.vectorize(closed_gene_hazard)(1.0, t))
    assert ks_statistic(draws, cdf=cdf) <= 1.36 / math.sqrt(n)


def test_samplers_agree_in_distribution():
    # two-sample KS below the 1% critical value for each shipped hazard
    n = 100_000
    for hz, y in ((WIDE, 1.0), (CONST2, 0.7)):
        rng = np.random.default_rng(6)
        inv = invert_holding(hz, 0, np.full(n, y), -np.log1p(-rng.random(n)))
        thin = sample_holding_thinning_vec(hz, 0, np.full(n, y), rng)
        assert ks_statistic(inv, thin) <= ks_critical(n, n, alpha=0.01)


def test_holding_moment_bracket():
    # moments of the holding time against the rate-band bracket, r = 1, 2, 3
    rng = np.random.default_rng(7)
    n = 200_000
    lo, hi = 1.0, 2.0
    draws = invert_holding(WIDE, 0, np.full(n, 1.0), -np.log1p(-rng.random(n)))
    for r in (1, 2, 3):
        vals = draws ** r
        se = vals.std() / math.sqrt(n)
        lower = lo * hi ** -(r + 1) * math.factorial(r)
        upper = hi * lo ** -(r + 1) * math.factorial(r)
        assert lower - 3 * se <= vals.mean() <= upper + 3 * se


def test_inversion_detects_invalid_rate_bounds():
    # declared bounds that exclude the true rates leave the root outside the
    # bracket; the residual guard must trip instead of returning junk
    class LyingIntensity(SaturatingIntensity):
        def __post_init__(self):
            super().__post_init__()
            object.__setattr__(self, "lower", 5.0)
            object.__setattr__(self, "upper", 6.0)

    bad = CumulativeHazard.for_model(FLOW, LyingIntensity(base=1.0, gain=0.5))
    with pytest.raises(RuntimeError, match="rate bounds"):
        invert_holding(bad, 0, np.array([1.0]), np.array([2.0]))


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda t: math.exp(-t), 0.0, 30.0, 1e-12) == pytest.approx(1.0, abs=1e-10)


def test_regime_array_matches_per_regime_calls():
    flow = AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0))
    hz = CumulativeHazard.for_model(flow, SaturatingIntensity(base=1.0, gain=0.5))
    rng = np.random.default_rng(22)
    n = 2000
    regimes = rng.integers(0, 2, n)
    ts, ys = rng.uniform(0, 5, n), rng.uniform(0, 15, n)
    targets = -np.log1p(-rng.random(n))
    values = hz.value(regimes, ts, ys)
    times = invert_holding(hz, regimes, ys, targets)
    for i in (0, 1):
        mask = regimes == i
        assert np.array_equal(values[mask], hz.value(i, ts[mask], ys[mask]))
        assert np.abs(times[mask] - invert_holding(hz, i, ys[mask], targets[mask])).max() <= 2e-12


def test_out_of_range_regime_entry_rejected():
    flow = AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0))
    regimes = np.array([0, 1, 2, 0])
    ys = np.ones(4)
    for intensity in (SaturatingIntensity(base=1.0, gain=0.5), ConstantIntensity(1.0)):
        hz = CumulativeHazard.for_model(flow, intensity)
        with pytest.raises(ValueError, match="regime"):
            hz.value(regimes, 1.0, ys)
        with pytest.raises(ValueError, match="regime"):
            hz.survival(np.array([-1, 0, 0, 0]), 1.0, ys)
        with pytest.raises(ValueError, match="regime"):
            invert_holding(hz, regimes, ys, np.ones(4))


def test_inversion_terminates_where_float_steps_exceed_tolerance():
    # at t ~ 8192 one float step (1.8e-12) is wider than 1e-12, so an
    # absolute 1e-12 stop could never be met there
    model = build_model("gene", {"intensity": "saturating", "lam_low": 1e-3, "lam_high": 2e-3})
    ys, targets = np.array([1.0]), np.array([30.0])
    start = time.perf_counter()
    t = invert_holding(model.hazard, 0, ys, targets)
    assert time.perf_counter() - start < 1.0
    assert t[0] > 8192.0 and np.spacing(t[0]) > 1e-12
    assert abs(float(model.hazard.value(0, t, ys)[0]) - 30.0) <= 1e-8


def test_inversion_rejects_non_finite_starts():
    model = build_model("gene", {"intensity": "saturating"})
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            invert_holding(model.hazard, 0, np.array([bad, 1.0]), np.array([1.0, 1.0]))


def test_newton_residual_on_gene_saturating():
    model = build_model("gene", {"intensity": "saturating"})
    rng = np.random.default_rng(8)
    ys = np.concatenate([[0.0, 1e-9, 1e3], rng.uniform(0.0, 50.0, 4000)])
    targets = np.concatenate([[0.0, 1e-14, 40.0], -np.log1p(-rng.random(4000))])
    t = invert_holding(model.hazard, 0, ys, targets)
    residual = np.abs(model.hazard.value(0, t, ys) - targets)
    assert (residual <= 1e-12 * (1.0 + targets)).all()


def test_inversion_of_an_atom_does_not_depend_on_its_batch():
    flow = AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0))
    hz = CumulativeHazard.for_model(flow, SaturatingIntensity(base=1.0, gain=0.5))
    rng = np.random.default_rng(9)
    n = 300
    regimes = rng.integers(0, 2, n)
    ys = rng.uniform(0.0, 15.0, n)
    targets = np.concatenate([[0.0, 35.0], -np.log1p(-rng.random(n - 2))])
    batch = invert_holding(hz, regimes, ys, targets)
    single = np.array([invert_holding(hz, int(r), np.array([y]), np.array([g]))[0]
                       for r, y, g in zip(regimes, ys, targets)])
    assert (np.abs(batch - single) <= 1e-15 * np.abs(single)).all()


def test_inversion_iteration_cap_names_the_atom(monkeypatch):
    monkeypatch.setattr(hazard_module, "HOLDING_NEWTON_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match=r"did not converge in 1 iterations.*y=2.5, regime 0, "
                                           r"target 3"):
        invert_holding(WIDE, 0, np.array([0.0, 2.5]), np.array([0.0, 3.0]))
