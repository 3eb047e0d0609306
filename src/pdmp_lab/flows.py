"""Deterministic motion between jumps: semiflows in closed form.

Flows are supplied in closed form rather than integrated from vector fields,
so flow evaluation is exact and no ODE-solver error leaks into the hazard
inversion. An ODE-backed flow would slot in behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class Semiflow:
    """Per-regime motion (i, t, y) -> y' with the semigroup property.

    Subclasses implement ``evaluate`` (numpy broadcasting over i, t and y:
    the regime ``i`` is an int or an int array, so one call moves a batch of
    mixed regimes) and may declare a contraction envelope (lipschitz, rate)
    meaning |S_i(t,u) - S_i(t,v)| <= lipschitz * exp(rate * t) * |u - v|.
    """

    n_regimes: int = 1
    contraction: Optional[tuple[float, float]] = None

    def evaluate(self, i, t, y):
        raise NotImplementedError

    def check_regime(self, i) -> None:
        """Reject a regime index, or any entry of an index array, outside 0..n-1."""
        idx = np.asarray(i)
        bad = (idx < 0) | (idx >= self.n_regimes)
        if bad.any():
            raise ValueError(f"regime {idx[bad].flat[0]} outside 0..{self.n_regimes - 1}")

    def _checked_time(self, i, t) -> np.ndarray:
        self.check_regime(i)
        t = np.asarray(t, dtype=float)
        if (t < 0).any():
            raise ValueError("flow time must be >= 0")
        return t


@dataclass(frozen=True)
class AffineExpFlow(Semiflow):
    """Exponential relaxation toward per-regime attractors.

    Regime i moves as c_i + (y - c_i) * exp(-kappa_i * t): contraction with
    lipschitz 1 and rate -min(kappa).
    """

    rates: tuple[float, ...] = (1.0,)
    anchors: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if len(self.rates) != len(self.anchors):
            raise ValueError("rates and anchors must pair up")
        if any(k <= 0 for k in self.rates):
            raise ValueError("decay rates must be > 0")
        object.__setattr__(self, "n_regimes", len(self.rates))
        object.__setattr__(self, "contraction", (1.0, -min(self.rates)))
        # array copies so a regime array gathers its (kappa, c) in one index
        object.__setattr__(self, "rate_of", np.array(self.rates, dtype=float))
        object.__setattr__(self, "anchor_of", np.array(self.anchors, dtype=float))

    def evaluate(self, i, t, y):
        # written as y*decay + c*(1-decay) so S(0, y) returns y exactly; the
        # sum is formed in place of y*decay, the one array of the full shape
        t = self._checked_time(i, t)
        c = self.anchor_of[i]
        decay = np.exp(-self.rate_of[i] * t)
        out = np.asarray(y, dtype=float) * decay
        decay = 1.0 - decay
        decay *= c
        out += decay
        return out


@dataclass(frozen=True)
class FrozenFlow(Semiflow):
    """Identity motion S_i(t, y) = y; isometry with rate 0."""

    n_regimes: int = 1

    def __post_init__(self):
        object.__setattr__(self, "contraction", (1.0, 0.0))

    def evaluate(self, i, t, y):
        t = self._checked_time(i, t)
        return np.broadcast_arrays(np.asarray(y, dtype=float), t, np.asarray(i))[0].copy()


@dataclass(frozen=True)
class ExpandingFlow(Semiflow):
    """Exponential blow-up y * exp(rate * t); negative-control flow."""

    rate: float = 1.0
    n_regimes: int = 1

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("expansion rate must be > 0")
        object.__setattr__(self, "contraction", (1.0, self.rate))

    def evaluate(self, i, t, y):
        t = self._checked_time(i, t)
        return np.asarray(y, dtype=float) * np.exp(self.rate * t)
