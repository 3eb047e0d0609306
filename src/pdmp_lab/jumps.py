"""Post-jump randomness: transformation-family jump kernels and regime switching.

A jump from location y applies a random transformation w_theta(y), where
theta is drawn from a place-dependent density against a reference measure.
After the jump the regime switches according to a row-stochastic matrix of
continuous functions evaluated at the *post-jump* location. That evaluation
order is fixed here on purpose: it is easy to get wrong.

Each kernel splits its sampling into a ``draw``, which takes one variate per
atom from a generator, and a map from those variates to the outcome, which
takes no randomness and works elementwise over any batch of atoms. So the
simulator's stepping loop draws each chunk's variates from the chunk's own
stream and maps all chunks' atoms at once; ``sample_vec`` is the two in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9


class IfsKernel:
    """Family of continuous maps indexed by theta plus a sampling density."""

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with one variate per atom from ``rng`` and return it."""
        raise NotImplementedError

    def thetas(self, ys: np.ndarray, variates: np.ndarray) -> np.ndarray:
        """Each atom's theta from its ``draw`` variate and its pre-jump location."""
        raise NotImplementedError

    def apply(self, theta, y):
        """w_theta(y), broadcasting over theta and/or y."""
        raise NotImplementedError

    def mean_contraction(self, u: float, v: float) -> float:
        """E_{theta ~ p(u)} |w_theta(u) - w_theta(v)| / |u - v|, in closed form."""
        raise NotImplementedError

    def mean_displacement(self, y: float, anchor: float) -> float:
        """E_{theta ~ p(y)} |w_theta(anchor) - anchor|, in closed form."""
        raise NotImplementedError

    def density_l1_gap(self, u: float, v: float) -> float:
        """Integral of |p_theta(u) - p_theta(v)| over the reference measure."""
        raise NotImplementedError

    def overlap_on(self, u: float, v: float, mean_contraction: float) -> float:
        """Mass of min(p(u), p(v)) on thetas contracting the pair (u, v)."""
        raise NotImplementedError

    def discretize(self, n_cells: int, theta_max: float,
                   ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representative thetas (k,) and the cell masses of the theta law at each pre-jump
        location of ``ys`` (len(ys), k); a law that ignores the location is broadcast."""
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

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Standard exponentials; ``thetas`` scales them, which gives bitwise
        ``rng.exponential(mean)``."""
        return rng.standard_exponential(out=out)

    def thetas(self, ys: np.ndarray, variates: np.ndarray) -> np.ndarray:
        return self.mean * variates

    def apply(self, theta, y):
        return np.asarray(y, dtype=float) + np.asarray(theta, dtype=float)

    def mean_contraction(self, u: float, v: float) -> float:
        return 1.0

    def mean_displacement(self, y: float, anchor: float) -> float:
        """Every map moves the anchor by its theta >= 0, whose mean is the burst mean."""
        return float(self.mean)

    def density_l1_gap(self, u: float, v: float) -> float:
        return 0.0

    def overlap_on(self, u: float, v: float, mean_contraction: float) -> float:
        return 1.0 if mean_contraction >= 1.0 else 0.0

    def discretize(self, n_cells: int, theta_max: float,
                   ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        edges = np.linspace(0.0, theta_max, n_cells + 1)
        reps = 0.5 * (edges[:-1] + edges[1:])
        cdf = -np.expm1(-edges / self.mean)
        masses = np.diff(cdf)
        masses[-1] += np.exp(-edges[-1] / self.mean)  # fold the tail into the last cell
        return reps, np.broadcast_to(masses, (len(ys), n_cells))


@dataclass(frozen=True)
class FiniteAffineIfs(IfsKernel):
    """Finitely many affine maps y -> scale*y + shift with selection probabilities.

    Probabilities may depend on the pre-jump location (callable returning a
    probability vector) or be constant.
    """

    maps: tuple[tuple[float, float], ...] = ((0.5, 0.0), (0.5, 0.5))
    probs: object = None  # None -> uniform; array-like -> constant; callable(y) -> vector

    def __post_init__(self):
        if not self.maps:
            raise ValueError("an affine IFS needs at least one map")
        # array copies so an index array gathers its maps' (scale, shift) in one index
        object.__setattr__(self, "scales", np.array([m[0] for m in self.maps], dtype=float))
        object.__setattr__(self, "shifts", np.array([m[1] for m in self.maps], dtype=float))
        # a constant law's CDF, checked and summed once; None when the law moves with y
        object.__setattr__(self, "cdf", None if callable(self.probs)
                           else np.cumsum(self._prob_vector(0.0)))

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

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """One uniform per atom."""
        return rng.random(out=out)

    def thetas(self, ys: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Map indices by inverse CDF.

        Each atom gets the number of CDF entries before the last that are at
        or below its uniform: ``searchsorted(cdf, u, side="right")``, except
        that a vector summing to within ROW_SUM_TOL below 1 leaves a uniform
        above its last entry, which is given to the last map. State-dependent
        probabilities are evaluated once per distinct location.
        """
        ys = np.asarray(ys, dtype=float)
        cdf = self.cdf
        if cdf is None:
            locs, inverse = np.unique(ys.ravel(), return_inverse=True)
            cdfs = np.array([np.cumsum(self._prob_vector(y)) for y in locs])
            # the reshape keeps an empty ys's CDF two-dimensional
            cdf = cdfs.reshape(locs.size, len(self.maps))[inverse.reshape(ys.shape)]
        return (cdf[..., :-1] <= us[..., None]).sum(-1)

    def apply(self, theta, y):
        theta = np.asarray(theta, dtype=np.int64)
        return self.scales[theta] * np.asarray(y, dtype=float) + self.shifts[theta]

    def mean_contraction(self, u: float, v: float) -> float:
        """sum_k p_k(u) |scale_k|: map k moves the pair's gap by the factor |scale_k|."""
        return float(np.sum(self._prob_vector(u) * np.abs(self.scales)))

    def mean_displacement(self, y: float, anchor: float) -> float:
        """sum_k p_k(y) |scale_k anchor + shift_k - anchor|: map k moves the anchor that far."""
        return float(self._prob_vector(y) @ np.abs(self.scales * anchor + self.shifts - anchor))

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

    def discretize(self, n_cells: int, theta_max: float,
                   ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        points = np.arange(len(self.maps))
        if not callable(self.probs):
            return points, np.broadcast_to(self._prob_vector(0.0), (len(ys), points.size))
        return points, np.stack([self._prob_vector(y) for y in ys])


class SwitchingMatrix:
    """Row-stochastic matrix of continuous functions of the location.

    ``entries[i][j]`` is either a number or a callable y -> probability.
    ``check_rows`` validates the rows at given locations; ``ModelSpec``
    checks them on its own location window. A matrix of numbers only is
    checked at construction; a callable entry is first called by ``check_rows``.
    ``rows_at`` stacks whole matrices for the grid and the diagnostics;
    ``switch`` holds one column of entries at a time, each atom's from its
    own regime's row.
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
        if not any(callable(e) for row in entries for e in row):
            self.check_rows(np.zeros(1))  # rows that ignore the location: one location checks them

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

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """One uniform per atom, whatever the regime count."""
        return rng.random(out=out)

    def switch(self, regimes: np.ndarray, ys_post: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Post-jump regimes by inverse CDF of the uniforms ``us``.

        For each column j before the last, one full-length array holds every
        atom's own-row entry: column j of the last row at every atom, then
        column j of each other row i copied in at the atoms in regime i. The
        entries are added to one running CDF in the order ``cumsum`` uses, and
        each atom gets the number of CDF entries its uniform exceeds. Only the
        entries before the last are needed: a row summing to within
        ROW_SUM_TOL below 1 leaves a uniform above its last entry, which is
        given to the last regime. With one regime that leaves nothing to
        evaluate.
        """
        ys_post = np.asarray(ys_post, dtype=float)
        regimes = np.asarray(regimes, dtype=np.int64)
        bad = (regimes < 0) | (regimes >= self.n_regimes)
        if bad.any():
            raise ValueError(f"regime {regimes[bad].flat[0]} outside 0..{self.n_regimes - 1}")
        out = np.zeros(ys_post.shape, dtype=np.int64)
        cdf = 0.0
        for j in range(self.n_regimes - 1):
            entry = np.empty(ys_post.shape)
            np.copyto(entry, self._fns[-1][j](ys_post))
            for i, row in enumerate(self._fns[:-1]):
                np.copyto(entry, row[j](ys_post), where=regimes == i)
            entry += cdf  # the running CDF, built in place of the entries
            cdf = entry
            out += us > cdf
        return out


@dataclass(frozen=True)
class PostJumpKernel:
    """Composite jump: location jump, then regime switch at the new location."""

    ifs: IfsKernel
    switching: SwitchingMatrix

    def draw(self, rng: np.random.Generator, jump_out: np.ndarray,
             switch_out: np.ndarray) -> None:
        """Fill ``jump_out`` with the jump variates, then ``switch_out`` with the
        switch uniforms, from ``rng``."""
        self.ifs.draw(rng, jump_out)
        self.switching.draw(rng, switch_out)

    def move(self, ys: np.ndarray, regimes: np.ndarray, jump_variates: np.ndarray,
             switch_uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Post-jump locations and regimes of atoms at pre-jump (ys, regimes)
        from their ``draw`` variates."""
        ys_post = self.ifs.apply(self.ifs.thetas(ys, jump_variates), ys)
        return ys_post, self.switching.switch(regimes, ys_post, switch_uniforms)

    def sample_vec(self, ys: np.ndarray, regimes: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``draw`` into fresh arrays, then ``move``."""
        ys = np.asarray(ys, dtype=float)
        jump, switch = np.empty(ys.shape), np.empty(ys.shape)
        self.draw(rng, jump, switch)
        return self.move(ys, regimes, jump, switch)
