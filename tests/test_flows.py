import math

import numpy as np
import pytest

from pdmp_lab.flows import AffineExpFlow, ExpandingFlow, FrozenFlow, Semiflow

from oracles import check_semigroup


class QuadraticDriftFlow(Semiflow):
    """Deliberately broken: S(t, y) = y + t^2 violates the semigroup law."""

    n_regimes = 1

    def evaluate(self, i, t, y):
        return np.asarray(y, dtype=float) + np.asarray(t, dtype=float) ** 2


def test_time_zero_is_identity():
    flow = AffineExpFlow(rates=(1.0,), anchors=(0.0,))
    assert flow.evaluate(0, 0.0, 5.0) == 5.0


def test_closed_form_decay():
    flow = AffineExpFlow(rates=(1.0,), anchors=(0.0,))
    assert flow.evaluate(0, math.log(2.0), 4.0) == pytest.approx(2.0, rel=1e-14)


def test_attractor_limit():
    flow = AffineExpFlow(rates=(1.0,), anchors=(1.0,))
    assert flow.evaluate(0, 50.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_negative_time_rejected():
    flow = AffineExpFlow()
    with pytest.raises(ValueError):
        flow.evaluate(0, -0.1, 1.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        AffineExpFlow(rates=(0.0,), anchors=(0.0,))
    with pytest.raises(ValueError):
        AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0,))
    with pytest.raises(ValueError):
        ExpandingFlow(rate=-1.0)


@pytest.mark.parametrize("flow", [
    AffineExpFlow(rates=(1.0,), anchors=(0.0,)),
    AffineExpFlow(rates=(1.0, 1.0), anchors=(0.0, 1.0)),
    AffineExpFlow(rates=(0.5,), anchors=(0.0,)),
    ExpandingFlow(rate=1.0),
    FrozenFlow(),
])
def test_semigroup_identity_within_tolerance(flow):
    report = check_semigroup(flow, n_samples=10_000, tol=1e-10,
                             rng=np.random.default_rng(17))
    assert report.passed, f"max violation {report.max_violation}"


def test_semigroup_zero_time_exact():
    flow = AffineExpFlow(rates=(2.0,), anchors=(0.3,))
    ys = np.linspace(0, 10, 101)
    assert np.array_equal(flow.evaluate(0, 0.0, flow.evaluate(0, 0.0, ys)),
                          flow.evaluate(0, 0.0, ys))


def test_broken_flow_detected():
    report = check_semigroup(QuadraticDriftFlow(), n_samples=1000, tol=1e-10,
                             rng=np.random.default_rng(3))
    assert not report.passed  # (s+t)^2 != s^2 + t^2 for s, t > 0


def test_affine_flow_contraction_is_exact():
    # |S(t,u) - S(t,v)| = exp(-kappa t) |u - v| as an identity
    flow = AffineExpFlow(rates=(1.0,), anchors=(0.0,))
    rng = np.random.default_rng(9)
    u, v = rng.uniform(0, 10, 500), rng.uniform(0, 10, 500)
    t = rng.uniform(0, 5, 500)
    lhs = np.abs(flow.evaluate(0, t, u) - flow.evaluate(0, t, v))
    rhs = np.exp(-t) * np.abs(u - v)
    assert np.abs(lhs - rhs).max() < 1e-12
    lip, rate = flow.contraction
    assert (lip, rate) == (1.0, -1.0)


def test_regime_array_matches_per_regime_calls():
    flow = AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0))
    rng = np.random.default_rng(21)
    regimes = rng.integers(0, 2, 1000)
    ts, ys = rng.uniform(0, 5, 1000), rng.uniform(0, 15, 1000)
    batch = flow.evaluate(regimes, ts, ys)
    for i in (0, 1):
        mask = regimes == i
        assert np.array_equal(batch[mask], flow.evaluate(i, ts[mask], ys[mask]))


@pytest.mark.parametrize("flow", [AffineExpFlow(rates=(1.0, 2.0), anchors=(0.0, 1.0)),
                                  FrozenFlow(n_regimes=2), ExpandingFlow(rate=1.0)])
def test_out_of_range_regime_rejected(flow):
    with pytest.raises(ValueError, match="regime"):
        flow.evaluate(flow.n_regimes, 1.0, 1.0)
    with pytest.raises(ValueError, match="regime"):
        flow.evaluate(-1, 1.0, 1.0)
    regimes = np.zeros(5, dtype=np.int64)
    regimes[3] = flow.n_regimes
    with pytest.raises(ValueError, match="regime"):
        flow.evaluate(regimes, np.ones(5), np.ones(5))
