"""Core state and measure types shared by every other module.

The state space is a product of a 1-D location interval and a finite set of
regime labels. Measures are finite weighted atom sets; they are the common
currency passed between the simulator, the measure transforms and the
finite-grid oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ZeroMassError(ValueError):
    """Raised when a transform or normalization receives an empty measure.

    Transforms of non-zero measures are non-zero by construction, so hitting
    this signals a bug upstream rather than a legitimate input.
    """


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """A finite weighted atom set over the product state space.

    Atoms are stored as parallel arrays (locations, regimes, weights).
    Weights are nonnegative and unnormalized by default; several transforms
    deliberately produce sub- or super-probability masses, so normalization
    is an explicit step.
    """

    ys: np.ndarray
    regimes: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        ys = np.ascontiguousarray(self.ys, dtype=float)
        regimes = np.ascontiguousarray(self.regimes, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if not (ys.ndim == regimes.ndim == weights.ndim == 1):
            raise ValueError("atom arrays must be 1-D")
        if not (ys.size == regimes.size == weights.size):
            raise ValueError("atom arrays must have equal length")
        if not np.isfinite(ys).all():
            raise ValueError("atom locations must be finite")
        if regimes.size and regimes.min() < 0:
            raise ValueError(f"regime labels must be >= 0, got {int(regimes.min())}")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValueError("weights must be finite and >= 0")
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "regimes", regimes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total_mass", float(weights.sum()))

    @classmethod
    def from_samples(cls, ys, regimes=None, weights=None) -> "WeightedEmpiricalMeasure":
        ys = np.asarray(ys, dtype=float)
        if regimes is None:
            regimes = np.zeros(ys.size, dtype=np.int64)
        if weights is None:
            weights = np.ones(ys.size, dtype=float)
        return cls(ys=ys, regimes=np.asarray(regimes), weights=np.asarray(weights))

    @property
    def n_atoms(self) -> int:
        return self.ys.size

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        """<f, mu> = sum of w_k f(y_k, i_k); f must be finite on every atom."""
        vals = np.broadcast_to(np.asarray(f(self.ys, self.regimes), dtype=float), self.ys.shape)
        if not np.isfinite(vals).all():
            raise ValueError("integrand is non-finite on some atom")
        return float(np.dot(self.weights, vals))

    def normalize(self) -> "WeightedEmpiricalMeasure":
        """The measure scaled to unit mass; itself when its mass is exactly 1.0,
        where dividing by the mass would give back the same weights."""
        if self.total_mass <= 0.0:
            raise ZeroMassError("cannot normalize a zero-mass measure")
        if self.total_mass == 1.0:
            return self
        return WeightedEmpiricalMeasure(self.ys, self.regimes, self.weights / self.total_mass)

    def mean_location(self) -> float:
        if self.total_mass <= 0.0:
            raise ZeroMassError("mean of a zero-mass measure is undefined")
        return float(np.dot(self.weights, self.ys) / self.total_mass)

    def regime_mass(self, n_regimes: int) -> np.ndarray:
        return np.bincount(self.regimes, weights=self.weights, minlength=n_regimes)

    def restrict_regime(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Locations and weights of the atoms carried by regime ``i``: the measure's
        own arrays when every atom is in it, copies otherwise. Do not write to them."""
        mask = self.regimes == i
        if mask.all():
            return self.ys, self.weights
        return self.ys[mask], self.weights[mask]
