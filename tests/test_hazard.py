import math
import time

import numpy as np
import pytest

from pdmp_lab import hazard as hazard_module
from pdmp_lab.diagnostics import flow_displacement_integral
from pdmp_lab.flows import AffineExpFlow, ExpandingFlow, FrozenFlow
from pdmp_lab.hazard import (
    ConstantIntensity,
    CumulativeHazard,
    Intensity,
    SaturatingIntensity,
    holding_time_rule,
    invert_holding,
    sample_holding_thinning_vec,
)
from pdmp_lab.jumps import AdditiveBurstKernel, PostJumpKernel, SwitchingMatrix
from pdmp_lab.models import MODEL_REGISTRY, DeclaredConstants, ModelSpec, build_model, two_regime_model

from oracles import (
    affine_flow_out_of_place,
    hazard_by_legendre,
    ks_critical,
    ks_statistic,
    ks_statistic_weighted,
    saturating_hazard_out_of_place,
    survival_out_of_place,
)

FLOW = AffineExpFlow(rates=(1.0,), anchors=(0.0,))
# rate band [1, 2]: the variant used in the worked closed-form example
WIDE = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=1.0), flow=FLOW)
CONST2 = CumulativeHazard(intensity=ConstantIntensity(2.0), flow=FLOW)


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
    # Gauss-Legendre of the rate along the flow reads only the intensity and the flow
    y, t = np.meshgrid([0.0, 1.0, 7.5], [0.3, 1.0, 2.7])
    assert np.abs(WIDE.value(0, t, y) - hazard_by_legendre(WIDE, 0, t, y)).max() <= 1e-9


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        WIDE.value(0, -1.0, 1.0)


def test_survival_examples_and_bracket():
    assert WIDE.survival(0, 0.0, 1.0) == 1.0
    assert CONST2.survival(0, 1.0, 0.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.uniform(0, 10)
        t = rng.uniform(0, 5)
        s = WIDE.survival(0, t, y)
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
        stat = ks_statistic_weighted(inv, np.ones(n), thin, np.ones(n))
        assert stat <= ks_critical(n, n, alpha=0.01)


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

    bad = CumulativeHazard(intensity=LyingIntensity(base=1.0, gain=0.5), flow=FLOW)
    with pytest.raises(RuntimeError, match="rate bounds"):
        invert_holding(bad, 0, np.array([1.0]), np.array([2.0]))


def gl4_error_bound(nodes, weights, mu):
    """Bound on |rule - integral| of exp(-mu t) over the cells of the rule.

    On a cell [a, a + h] with z = mu h the 4-point Gauss-Legendre remainder is
    h^9 C times the 8th derivative, C = (4!)^4 / (9 (8!)^3), and that derivative
    is at most mu^8 e^{-mu a}: h e^{-mu a} C z^8. Where z is large (the unresolved e^{-kappa t} layer in
    the first cell) both the integral, h e^{-mu a} (1 - e^{-z}) / z, and the
    rule, at most h e^{-mu a} e^{-z x1} with x1 the lowest node in [0, 1], lie
    in [0, their larger], which bounds their difference instead.
    """
    h = weights.sum(axis=1)
    a = nodes.mean(axis=1) - 0.5 * h
    z = mu * h
    remainder = math.factorial(4) ** 4 / (9 * math.factorial(8) ** 3) * z ** 8
    layer = np.maximum(-np.expm1(-z) / z, np.exp(-z * (nodes[:, 0] - a) / h))
    return float(np.sum(h * np.exp(-mu * a) * np.minimum(remainder, layer)))


def test_holding_time_rule_known_integrals():
    # the rule against two closed forms, each within the rule's own error bound,
    # the tail past the horizon, e^{-lam t_max} / lam, and 16 eps / lam of
    # rounding (a few eps per term, log2(800) ~ 10 more for the sum)
    eps = np.finfo(float).eps
    for lam in (0.3, 1.0, 5.0):
        nodes, weights = holding_time_rule(ConstantIntensity(lam))
        slack = (hazard_module.SURVIVAL_TAIL_EPS + 16 * eps) / lam
        integral = float(np.sum(weights * np.exp(-lam * nodes)))
        assert abs(integral - 1.0 / lam) <= gl4_error_bound(nodes, weights, lam) + slack
        # the two_regime displacement integrates e^{-lam t} - e^{-(lam + kappa) t}
        for kappa in np.logspace(-3.0, 9.0, 49):
            exact = kappa / (lam * (lam + kappa))
            bound = (gl4_error_bound(nodes, weights, lam)
                     + gl4_error_bound(nodes, weights, lam + kappa) + slack)
            model = two_regime_model(kappa=kappa, lam=lam)
            assert abs(flow_displacement_integral(model) - exact) <= bound


def test_regime_array_matches_per_regime_calls():
    flow = AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0))
    hz = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5), flow=flow)
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
        hz = CumulativeHazard(intensity=intensity, flow=flow)
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
    hz = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5), flow=flow)
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


@pytest.mark.parametrize("flow", [AffineExpFlow(rates=(1.0,), anchors=(0.0,)),
                                  AffineExpFlow(rates=(1.0, 2.5), anchors=(0.0, 1.5))])
def test_fused_newton_terms_match_the_generic_hazard_and_slope(flow):
    # the Newton's fused H and slope, from the one closed form, against routes that
    # read only the intensity and the flow: H against Gauss-Legendre of
    # lambda(S_i(h, y)), the slope against lambda(S_i(t, y)) within 2 eps upper
    # (upper bounds each term of the sum), at every regime of the flow
    hz = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5), flow=flow)
    eps, upper = np.finfo(float).eps, hz.intensity.upper
    rng = np.random.default_rng(10)
    n = 10_000
    regimes = np.concatenate([np.arange(6) % flow.n_regimes,
                              rng.integers(0, flow.n_regimes, n - 6)])
    ys = np.concatenate([[0.0, 0.0, 1e-9, 1e-9, 1e3, 1e3], rng.uniform(0.0, 30.0, n - 6)])
    hazard = hazard_module._saturating_hazard(hz, regimes, ys)
    for t in (np.zeros(n), np.full(n, 1e-14), rng.exponential(1.0, n), np.full(n, 40.0)):
        value, slope = hazard(t, slope=True)
        assert np.array_equal(value, hazard(t))
        assert np.array_equal(value, hz.value(regimes, t, ys))
        assert (np.abs(slope - hz.intensity(flow.evaluate(regimes, t, ys))) <= 2 * eps * upper).all()
    assert np.array_equal(hazard(np.zeros(n)), np.zeros(n))
    # the quadrature reference at the six edge starts and 30 more, every regime
    ts = np.concatenate([[1e-14, 40.0, 0.7, 3.0, 40.0, 1e-14], rng.exponential(1.0, 30)])
    head = slice(0, ts.size)
    quad = hazard_by_legendre(hz, regimes[head], ts, ys[head])
    assert np.abs(hz.value(regimes[head], ts, ys[head]) - quad).max() <= 1e-9
    assert set(regimes[head]) == set(range(flow.n_regimes))


def _same_bits(new, old):
    """Equal type, shape and bytes: a 0-d result stays a numpy scalar, and a
    zero keeps its sign."""
    return (type(new) is type(old) and np.shape(new) == np.shape(old)
            and np.asarray(new).tobytes() == np.asarray(old).tobytes())


_RNG = np.random.default_rng(31)
# (regime, t, y): 0-d arrays, scalars, 1-D arrays, a regime array, and the
# grid's (b, 1) starts against (1, k) times; t = 0 gives H = 0 exactly
CLOSED_FORM_INPUTS = {
    "0-d": (np.array(1), np.array(0.7), np.array(2.5)),
    "scalar": (0, 0.7, 2.5),
    "scalar-t-zero": (1, 0.0, 2.5),
    "1-d": (1, _RNG.exponential(1.0, 50), _RNG.uniform(0.0, 30.0, 50)),
    "1-d-t-scalar": (0, 1.3, np.concatenate([[0.0, 1.5], _RNG.uniform(0.0, 30.0, 48)])),
    "regime-array": (_RNG.integers(0, 2, 50), np.concatenate([[0.0], _RNG.exponential(1.0, 49)]),
                     _RNG.uniform(0.0, 30.0, 50)),
    "block-by-cells": (1, np.concatenate([[0.0], np.geomspace(1e-6, 40.0, 30)])[None, :],
                       np.linspace(0.0, 15.0, 7)[:, None]),
}
INPLACE_FLOW = AffineExpFlow(rates=(1.0, 2.5), anchors=(0.0, 1.5))


@pytest.mark.parametrize("i, t, y", CLOSED_FORM_INPUTS.values(), ids=CLOSED_FORM_INPUTS.keys())
def test_in_place_closed_forms_are_bitwise_the_out_of_place_expressions(i, t, y):
    saturating = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5),
                                  flow=INPLACE_FLOW)
    hazard = hazard_module._saturating_hazard(saturating, i, y)
    assert _same_bits(hazard(t), saturating_hazard_out_of_place(saturating, i, t, y))
    for new, old in zip(hazard(t, slope=True),
                        saturating_hazard_out_of_place(saturating, i, t, y, slope=True)):
        assert _same_bits(new, old)
    assert _same_bits(saturating.value(i, t, y), saturating_hazard_out_of_place(saturating, i, t, y))
    for hz in (saturating,
               CumulativeHazard(intensity=ConstantIntensity(2.0), flow=INPLACE_FLOW),
               CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5),
                                flow=FrozenFlow(n_regimes=2))):
        assert _same_bits(hz.survival(i, t, y), survival_out_of_place(hz, i, t, y))
    assert _same_bits(INPLACE_FLOW.evaluate(i, t, y), affine_flow_out_of_place(INPLACE_FLOW, i, t, y))


def test_declared_bounds_enter_only_the_bracket():
    # a loose but valid upper bound widens the Newton bracket; the hazard is
    # written on the rate's own base + gain, so every root keeps its bits
    class LooseIntensity(SaturatingIntensity):
        def __post_init__(self):
            super().__post_init__()
            object.__setattr__(self, "upper", 3.0)

    flow = AffineExpFlow(rates=(1.0, 2.5), anchors=(0.0, 1.5))
    honest = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5), flow=flow)
    loose = CumulativeHazard(intensity=LooseIntensity(base=1.0, gain=0.5), flow=flow)
    rng = np.random.default_rng(14)
    n = 1000
    regimes = rng.integers(0, 2, n)
    ys = np.concatenate([[0.0, 1e3], rng.uniform(0.0, 30.0, n - 2)])
    targets = np.concatenate([[40.0, 1e-14], -np.log1p(-rng.random(n - 2))])
    assert np.array_equal(invert_holding(loose, regimes, ys, targets),
                          invert_holding(honest, regimes, ys, targets))


def test_newton_iterates_approach_the_root_from_one_side(monkeypatch):
    # above its anchor a start's rate falls along the path (H concave), below it
    # the rate rises (H convex): every iterate, the start included, stays below
    # the root in the first case and above it in the second, moving toward it
    flow = AffineExpFlow(rates=(1.0, 2.5), anchors=(0.0, 1.5))
    hz = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=1.0), flow=flow)
    iterates = []
    kernel = hazard_module._saturating_hazard

    def recording(h, i, y):
        inner = kernel(h, i, y)

        def record(t, slope=False):
            if slope:  # a Newton iteration, not the residual check
                iterates.append(t.copy())
            return inner(t, slope)

        return record

    monkeypatch.setattr(hazard_module, "_saturating_hazard", recording)
    rng = np.random.default_rng(13)
    n = 2000
    regimes = rng.integers(0, 2, n)
    ys = np.concatenate([[1.5, 1e3], rng.uniform(0.0, 4.0, n - 2)])
    regimes[:2] = 1
    targets = np.concatenate([[2.0, 7.0], -np.log1p(-rng.random(n - 2))])
    root = invert_holding(hz, regimes, ys, targets)
    path = np.array(iterates)
    assert len(path) >= 3
    above = ys > flow.anchor_of[regimes]
    below = ys < flow.anchor_of[regimes]
    assert above.sum() > 100 and below.sum() > 100
    # near the root H is known to a few eps (1 + target), so t to that over the rate
    slack = 8 * np.finfo(float).eps * (1.0 + targets) / hz.intensity.lower
    assert (path[:, above] <= root[above] + slack[above]).all()
    assert (np.diff(path[:, above], axis=0) >= -slack[above]).all()
    assert (path[:, below] >= root[below] - slack[below]).all()
    assert (np.diff(path[:, below], axis=0) <= slack[below]).all()
    # a start on its anchor moves along a constant rate: the first step lands on the root
    assert np.all(path[1:, 0] == root[0])


def test_inversion_residual_check_runs_per_block(monkeypatch):
    # the residual check reads the hazard one block of atoms at a time, so its
    # scratch is bounded by the block size, not the batch size
    monkeypatch.setattr(hazard_module, "HOLDING_NEWTON_BLOCK", 16)
    sizes = []
    kernel = hazard_module._saturating_hazard

    def recording(h, i, y):
        inner = kernel(h, i, y)

        def record(t, slope=False):
            if not slope:  # the residual check, not a Newton iteration
                sizes.append(np.size(t))
            return inner(t, slope)

        return record

    monkeypatch.setattr(hazard_module, "_saturating_hazard", recording)
    rng = np.random.default_rng(11)
    ys = rng.uniform(0.0, 10.0, 40)
    targets = -np.log1p(-rng.random(40))
    t = invert_holding(WIDE, 0, ys, targets)
    assert sizes == [16, 16, 8]
    assert np.abs(WIDE.value(0, t, ys) - targets).max() <= 1e-12 * (1.0 + targets.max())


def test_every_registered_model_builds():
    # each registered flow/intensity pair has a closed-form hazard
    for name in MODEL_REGISTRY:
        model = build_model(name)
        assert model.hazard.path_constant == isinstance(model.intensity, ConstantIntensity)


class PlainRate(Intensity):
    """A bounded rate that is neither constant nor saturating."""

    lower, upper, lipschitz = 1.0, 2.0, 1.0

    def __call__(self, y):
        return 1.0 + 0.5 * (1.0 + np.tanh(np.asarray(y, dtype=float)))


@pytest.mark.parametrize("flow, intensity, message", [
    (ExpandingFlow(), SaturatingIntensity(), "SaturatingIntensity on ExpandingFlow"),
    (AffineExpFlow(), PlainRate(), "PlainRate on AffineExpFlow"),
], ids=["expanding-saturating", "affine-plain"])
def test_pair_without_closed_form_fails_at_model_build(flow, intensity, message):
    with pytest.raises(ValueError, match=f"no closed-form hazard for {message}"):
        ModelSpec(name="no-hazard", flow=flow, intensity=intensity,
                  jump=PostJumpKernel(AdditiveBurstKernel(1.0), SwitchingMatrix([[1.0]])),
                  declared=DeclaredConstants())


def test_frozen_flow_with_saturating_rate_inverts_to_target_over_rate():
    # the rate does not change along a frozen path, so H = lambda(y) * t
    hz = CumulativeHazard(intensity=SaturatingIntensity(base=1.0, gain=0.5), flow=FrozenFlow())
    assert hz.path_constant
    rng = np.random.default_rng(12)
    ys = np.concatenate([[0.0, 1e3], rng.uniform(0.0, 30.0, 998)])
    targets = np.concatenate([[40.0, 1e-14], -np.log1p(-rng.random(998))])
    t = invert_holding(hz, 0, ys, targets)
    assert np.array_equal(t, targets / hz.intensity(ys))
    assert (np.abs(hz.value(0, t, ys) - targets) <= 1e-12 * targets).all()
