"""Post-jump randomness: transformation-family jump kernels and regime switching.

A jump from location y applies a random transformation w_theta(y), where
theta is drawn from a place-dependent density against a reference measure.
After the jump the regime switches according to a row-stochastic matrix of
continuous functions evaluated at the *post-jump* location. That evaluation
order is fixed here on purpose: it is easy to get wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ThetaQuadrature:
    """Discretized conditional theta-law for grid assembly.

    ``points`` are representative theta values; ``masses_at(y)`` returns the
    conditional probability mass of each cell given pre-jump location y
    (summing to ~1).
    """

    points: np.ndarray
    _masses: Callable[[float], np.ndarray]
    state_independent: bool = False

    def masses_at(self, y: float) -> np.ndarray:
        return self._masses(y)


class IfsKernel:
    """Family of continuous maps indexed by theta plus a sampling density."""

    def sample_vec(self, ys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def apply(self, theta, y):
        """w_theta(y), broadcasting over theta and/or y."""
        raise NotImplementedError

    def density(self, theta, y):
        """p_theta(y) against the reference measure."""
        raise NotImplementedError

    def density_l1_gap(self, u: float, v: float) -> float:
        """Integral of |p_theta(u) - p_theta(v)| over the reference measure."""
        raise NotImplementedError

    def overlap_on(self, u: float, v: float, mean_contraction: float) -> float:
        """Mass of min(p(u), p(v)) on thetas contracting the pair (u, v)."""
        raise NotImplementedError

    def discretize(self, n_cells: int, theta_max: float) -> ThetaQuadrature:
        raise NotImplementedError


@dataclass(frozen=True)
class AdditiveBurstKernel(IfsKernel):
    """w_theta(y) = y + theta with theta exponential of the given mean.

    State-independent density; every map is an isometry, so pairs contract
    with factor exactly 1 and the overlap is total.
    """

    mean: float = 1.0

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError("burst mean must be > 0")

    def sample_vec(self, ys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(self.mean, size=np.asarray(ys).shape)

    def apply(self, theta, y):
        return np.asarray(y, dtype=float) + np.asarray(theta, dtype=float)

    def density(self, theta, y):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta >= 0, np.exp(-theta / self.mean) / self.mean, 0.0)

    def density_l1_gap(self, u: float, v: float) -> float:
        return 0.0

    def overlap_on(self, u: float, v: float, mean_contraction: float) -> float:
        return 1.0 if mean_contraction >= 1.0 else 0.0

    def discretize(self, n_cells: int, theta_max: float) -> ThetaQuadrature:
        edges = np.linspace(0.0, theta_max, n_cells + 1)
        reps = 0.5 * (edges[:-1] + edges[1:])
        cdf = -np.expm1(-edges / self.mean)
        masses = np.diff(cdf)
        masses[-1] += np.exp(-edges[-1] / self.mean)  # fold the tail into the last cell
        return ThetaQuadrature(points=reps, _masses=lambda y, m=masses: m, state_independent=True)


@dataclass(frozen=True)
class FiniteAffineIfs(IfsKernel):
    """Finitely many affine maps y -> scale*y + shift with selection probabilities.

    Probabilities may depend on the pre-jump location (callable returning a
    probability vector) or be constant.
    """

    maps: tuple[tuple[float, float], ...] = ((0.5, 0.0), (0.5, 0.5))
    probs: object = None  # None -> uniform; array-like -> constant; callable(y) -> vector

    def _prob_vector(self, y) -> np.ndarray:
        k = len(self.maps)
        if self.probs is None:
            return np.full(k, 1.0 / k)
        if callable(self.probs):
            p = np.asarray(self.probs(y), dtype=float)
        else:
            p = np.asarray(self.probs, dtype=float)
        if p.shape != (k,) or (p < 0).any() or abs(p.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("selection probabilities must be a probability vector")
        return p

    def sample_vec(self, ys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Map indices by inverse CDF, one uniform per atom.

        State-dependent probabilities are evaluated once per distinct location.
        """
        ys = np.asarray(ys, dtype=float)
        if self.probs is None or not callable(self.probs):
            cdf = np.cumsum(self._prob_vector(0.0))
            return np.searchsorted(cdf, rng.random(ys.shape), side="right").astype(np.int64)
        us = rng.random(ys.shape)
        locs, inverse = np.unique(ys.ravel(), return_inverse=True)
        cdfs = np.array([np.cumsum(self._prob_vector(y)) for y in locs])
        # entries of a nondecreasing cdf at or below u: searchsorted(cdf, u, side="right")
        out = (cdfs[inverse] <= us.reshape(-1, 1)).sum(axis=1)
        return out.reshape(ys.shape).astype(np.int64)

    def apply(self, theta, y):
        theta = np.asarray(theta, dtype=np.int64)
        scales = np.array([m[0] for m in self.maps])
        shifts = np.array([m[1] for m in self.maps])
        return scales[theta] * np.asarray(y, dtype=float) + shifts[theta]

    def density(self, theta, y):
        return self._prob_vector(y)[np.asarray(theta, dtype=np.int64)]

    def density_l1_gap(self, u: float, v: float) -> float:
        return float(np.abs(self._prob_vector(u) - self._prob_vector(v)).sum())

    def overlap_on(self, u: float, v: float, mean_contraction: float) -> float:
        pu, pv = self._prob_vector(u), self._prob_vector(v)
        gap = abs(u - v)
        contracting = np.array(
            [abs(self.apply(k, u) - self.apply(k, v)) <= mean_contraction * gap + 1e-12
             for k in range(len(self.maps))]
        )
        return float(np.minimum(pu, pv)[contracting].sum())

    def discretize(self, n_cells: int, theta_max: float) -> ThetaQuadrature:
        points = np.arange(len(self.maps))
        if self.probs is None or not callable(self.probs):
            masses = self._prob_vector(0.0)
            return ThetaQuadrature(points=points, _masses=lambda y, m=masses: m,
                                   state_independent=True)
        return ThetaQuadrature(points=points, _masses=lambda y: self._prob_vector(y))


class SwitchingMatrix:
    """Row-stochastic matrix of continuous functions of the location.

    ``entries[i][j]`` is either a number or a callable y -> probability.
    ``check_rows`` validates the rows at given locations; ``ModelSpec``
    checks them on its own location window, and ``constant`` at once.
    """

    def __init__(self, entries: Sequence[Sequence]):
        self.n_regimes = len(entries)
        if any(len(row) != self.n_regimes for row in entries):
            raise ValueError("switching matrix must be square")
        self._fns = tuple(
            tuple(e if callable(e) else (lambda y, v=float(e): np.full_like(np.asarray(y, dtype=float), v))
                  for e in row)
            for row in entries
        )

    @classmethod
    def constant(cls, matrix) -> "SwitchingMatrix":
        pi = cls([[float(v) for v in row] for row in np.asarray(matrix, dtype=float)])
        pi.check_rows(np.zeros(1))  # rows that ignore the location: one location checks them
        return pi

    def check_rows(self, ys) -> None:
        """Raise ValueError unless every row is a probability vector at each of ``ys``."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        rows = self.rows_at(ys)
        gaps = np.abs(rows.sum(axis=2) - 1.0).max(axis=1)
        if gaps.max() > ROW_SUM_TOL:
            k = int(np.argmax(gaps))
            raise ValueError(f"switching rows must sum to 1; off by {gaps[k]:.3e} at y={ys[k]:.6g}")
        if rows.min() < -ROW_SUM_TOL or rows.max() > 1.0 + ROW_SUM_TOL:
            raise ValueError("switching entries must lie in [0, 1]")

    def rows_at(self, ys) -> np.ndarray:
        """Stacked matrices: shape (len(ys), n_regimes, n_regimes)."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        out = np.empty((ys.size, self.n_regimes, self.n_regimes))
        for i, row in enumerate(self._fns):
            for j, fn in enumerate(row):
                out[:, i, j] = fn(ys)
        return out

    def sample_vec(self, regimes: np.ndarray, ys_post: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        ys_post = np.asarray(ys_post, dtype=float)
        regimes = np.asarray(regimes, dtype=np.int64)
        if self.n_regimes == 1:
            rng.random(ys_post.shape)  # keep the draw count regime-independent
            return np.zeros(ys_post.shape, dtype=np.int64)
        rows = self.rows_at(ys_post)[np.arange(ys_post.size), regimes]
        cdf = np.cumsum(rows, axis=1)
        us = rng.random(ys_post.shape)
        out = (us[:, None] > cdf).sum(axis=1)
        return np.minimum(out, self.n_regimes - 1).astype(np.int64)


@dataclass(frozen=True)
class PostJumpKernel:
    """Composite jump: location jump, then regime switch at the new location."""

    ifs: IfsKernel
    switching: SwitchingMatrix

    def sample_vec(self, ys: np.ndarray, regimes: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        thetas = self.ifs.sample_vec(ys, rng)
        ys_post = self.ifs.apply(thetas, ys)
        regimes_post = self.switching.sample_vec(regimes, ys_post, rng)
        return ys_post, regimes_post
