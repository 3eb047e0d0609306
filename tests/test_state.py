import numpy as np
import pytest

from pdmp_lab.state import WeightedEmpiricalMeasure, ZeroMassError


def test_integrate_normalization_and_hand_sum():
    mu = WeightedEmpiricalMeasure.from_samples([1.0, 3.0], weights=[0.5, 0.5])
    assert mu.integrate(lambda y, i: np.ones_like(y)) == pytest.approx(1.0)
    assert mu.integrate(lambda y, i: np.zeros_like(y)) == 0.0
    assert mu.integrate(lambda y, i: y) == pytest.approx(2.0)


def test_integrate_rejects_non_finite():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            mu.integrate(lambda y, i: 1.0 / y)


def test_integrate_linearity():
    rng = np.random.default_rng(5)
    mu = WeightedEmpiricalMeasure.from_samples(rng.normal(size=50), weights=rng.random(50))
    f = lambda y, i: np.sin(y)
    g = lambda y, i: y ** 2
    a, b = 1.7, -0.3
    lhs = mu.integrate(lambda y, i: a * f(y, i) + b * g(y, i))
    rhs = a * mu.integrate(f) + b * mu.integrate(g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_normalize_examples_and_idempotence():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], weights=[2.0, 2.0])
    nu = mu.normalize()
    assert np.allclose(nu.weights, [0.5, 0.5])
    assert nu.total_mass == pytest.approx(1.0)
    again = nu.normalize()
    assert np.allclose(again.weights, nu.weights)
    single = WeightedEmpiricalMeasure.from_samples([4.0], weights=[1.0]).normalize()
    assert np.allclose(single.weights, [1.0])


def test_normalize_preserves_weight_ratios():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], weights=[1.0, 2.0, 5.0])
    nu = mu.normalize()
    assert nu.weights[1] / nu.weights[0] == pytest.approx(2.0, rel=1e-12)
    assert nu.weights[2] / nu.weights[0] == pytest.approx(5.0, rel=1e-12)


def test_normalize_zero_mass_rejected():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], weights=[0.0, 0.0])
    with pytest.raises(ZeroMassError):
        mu.normalize()


def test_total_mass_matches_weight_sum():
    rng = np.random.default_rng(2)
    w = rng.random(1000)
    mu = WeightedEmpiricalMeasure.from_samples(rng.normal(size=1000), weights=w)
    assert mu.total_mass == pytest.approx(w.sum(), rel=1e-12)


def test_normalize_returns_itself_only_at_unit_mass():
    unit = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], weights=[0.25, 0.25, 0.5])
    assert unit.total_mass == 1.0
    assert unit.normalize() is unit
    near = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], weights=[0.5, 0.5 + 2e-16])
    assert near.total_mass != 1.0
    scaled = near.normalize()
    assert scaled is not near and scaled.weights is not near.weights
    assert np.array_equal(scaled.weights, near.weights / near.total_mass)
    double = WeightedEmpiricalMeasure.from_samples([0.0, 1.0], weights=[1.0, 1.0])
    assert double.normalize() is not double


def test_restrict_regime_shares_arrays_only_when_every_atom_is_in_it():
    mu = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], regimes=[1, 1, 1],
                                               weights=[1.0, 2.0, 3.0])
    ys, weights = mu.restrict_regime(1)
    assert ys is mu.ys and weights is mu.weights
    empty_ys, empty_weights = mu.restrict_regime(0)
    assert empty_ys.size == 0 and empty_weights.size == 0
    mixed = WeightedEmpiricalMeasure.from_samples([0.0, 1.0, 2.0], regimes=[0, 1, 0],
                                                  weights=[1.0, 2.0, 3.0])
    ys, weights = mixed.restrict_regime(0)
    assert np.array_equal(ys, [0.0, 2.0]) and np.array_equal(weights, [1.0, 3.0])
    assert not np.shares_memory(ys, mixed.ys) and not np.shares_memory(weights, mixed.weights)


def test_negative_regime_label_rejected():
    with pytest.raises(ValueError, match="regime labels must be >= 0, got -1"):
        WeightedEmpiricalMeasure([0.0, 1.0], [0, -1], [1.0, 1.0])
