"""Post-jump randomness: transformation-family jump kernels and regime switching.

A jump from location y applies a random transformation w_theta(y), where
theta is drawn from a place-dependent density against a reference measure.
After the jump the regime switches according to a row-stochastic matrix of
continuous functions evaluated at the *post-jump* location. That evaluation
order is fixed here on purpose: it is easy to get wrong. Both laws that move
with the location, the map selection of a ``FiniteAffineIfs`` and the regime
switch, are ``ProbabilityRows``, drawn by its one inverse-CDF loop, ``pick``.

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


class ProbabilityRows:
    """Rows of probability vectors that may move with the location: the one
    law of every location-dependent draw, the map selection of a
    ``FiniteAffineIfs`` (one row) and the regime switch (one row per regime).

    ``entries[i][j]`` is either a number or a callable y -> probability
    evaluated over arrays; every row has the same length. Rows of numbers only
    are checked at construction, since they do not depend on the location; a
    callable entry is first called when ``check_rows`` checks it, and the
    callers decide where that is. ``rows_at`` stacks the rows at given
    locations; ``pick`` draws a column from each atom's own row.
    """

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = tuple(tuple(e if callable(e) else float(e) for e in row) for row in entries)
        self.shape = (len(self.entries), len(self.entries[0]) if self.entries else 0)
        if not self.shape[1] or any(len(row) != self.shape[1] for row in self.entries):
            raise ValueError("probability rows must be non-empty and of equal length")
        self.moves = any(callable(e) for row in self.entries for e in row)
        if not self.moves:
            self.check_rows(np.zeros(1))

    def check_rows(self, ys) -> np.ndarray:
        """``rows_at(ys)``, after raising ValueError unless every row is a
        probability vector at each of ``ys``."""
        ys = np.asarray(ys, dtype=float).ravel()
        rows = self.rows_at(ys)
        gaps = np.abs(rows.sum(axis=2) - 1.0).max(axis=1)
        if gaps.max() > ROW_SUM_TOL:
            k = int(np.argmax(gaps))
            raise ValueError(f"probability rows must sum to 1; off by {gaps[k]:.3e} "
                             f"at y={ys[k]:.6g}")
        if rows.min() < -ROW_SUM_TOL or rows.max() > 1.0 + ROW_SUM_TOL:
            raise ValueError("probability entries must lie in [0, 1]")
        return rows

    def rows_at(self, ys) -> np.ndarray:
        """Stacked rows: shape (len(ys), n_rows, n_columns)."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        out = np.empty((ys.size, *self.shape))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[:, i, j] = e(ys) if callable(e) else e
        return out

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """One uniform per atom, whatever the shape."""
        return rng.random(out=out)

    def pick(self, rows, ys: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Columns by inverse CDF of the uniforms ``us``: each atom's from its own
        row of ``rows`` (row labels, or one label for all) at its location ``ys``.
        Unchecked: the callers check the rows where they evaluate them.

        Column by column before the last, one full-length array takes every
        atom's own-row entry (column j of the last row, then of each other row
        copied in at its atoms; a number that every row shares stays a number)
        and adds it in place to one running CDF, in the order ``cumsum`` uses.
        Each atom gets the count of CDF entries at or below its uniform, as
        ``searchsorted(cdf, u, side="right")``: a uniform on an entry goes to the
        next column, so a column of probability 0 is never drawn, and a row
        summing to within ROW_SUM_TOL below 1 gives a uniform past its last
        entry to the last column.
        """
        ys = np.asarray(ys, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            bad = (rows < 0) | (rows >= self.shape[0])
            raise ValueError(f"row {rows[bad].flat[0]} outside 0..{self.shape[0] - 1}")
        out = np.zeros(ys.shape, dtype=np.int64)
        cdf = 0.0
        for j in range(self.shape[1] - 1):
            last = self.entries[-1][j]
            if not callable(last) and all(row[j] == last for row in self.entries):
                cdf = cdf + last  # one number in every row: no array of entries
            else:
                entry = np.empty(ys.shape)
                np.copyto(entry, last(ys) if callable(last) else last)
                for i, row in enumerate(self.entries[:-1]):
                    np.copyto(entry, row[j](ys) if callable(row[j]) else row[j], where=rows == i)
                entry += cdf  # the running CDF, built in place of the entries
                cdf = entry
            out += cdf <= us
        return out


@dataclass(frozen=True)
class FiniteAffineIfs(IfsKernel):
    """Finitely many affine maps y -> scale*y + shift with selection probabilities.

    ``probs`` is None (the uniform law) or one entry per map, each a number or
    a callable y -> probability evaluated over arrays. ``law`` holds them as
    the one row of a ``ProbabilityRows``: a row of numbers is checked when the
    kernel is built, a row with a callable wherever it is evaluated (each
    draw, ``discretize`` and the scalar constants).
    """

    maps: tuple[tuple[float, float], ...] = ((0.5, 0.0), (0.5, 0.5))
    probs: object = None

    def __post_init__(self):
        k = len(self.maps)
        if not k:
            raise ValueError("an affine IFS needs at least one map")
        probs = (1.0 / k,) * k if self.probs is None else self.probs
        if callable(probs) or len(probs) != k:
            raise ValueError("selection probabilities must be None or one entry per map")
        object.__setattr__(self, "law", ProbabilityRows([probs]))
        # array copies so an index array gathers its maps' (scale, shift) in one index
        object.__setattr__(self, "scales", np.array([m[0] for m in self.maps], dtype=float))
        object.__setattr__(self, "shifts", np.array([m[1] for m in self.maps], dtype=float))

    def _rows(self, ys) -> np.ndarray:
        """The selection probabilities at each of ``ys``, one row per location,
        checked when the law moves with the location; else one row for all."""
        return self.law.check_rows(ys)[:, 0] if self.law.moves else np.array(self.law.entries)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """One uniform per atom."""
        return rng.random(out=out)

    def thetas(self, ys: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Map indices: ``law.pick`` from its one row, checked first at every
        location when it moves with the location."""
        if self.law.moves:
            self.law.check_rows(ys)
        return self.law.pick(0, ys, us)

    def apply(self, theta, y):
        theta = np.asarray(theta, dtype=np.int64)
        return self.scales[theta] * np.asarray(y, dtype=float) + self.shifts[theta]

    def mean_contraction(self, u: float, v: float) -> float:
        """sum_k p_k(u) |scale_k|: map k moves the pair's gap by the factor |scale_k|."""
        return float(np.sum(self._rows(u)[0] * np.abs(self.scales)))

    def mean_displacement(self, y: float, anchor: float) -> float:
        """sum_k p_k(y) |scale_k anchor + shift_k - anchor|: map k moves the anchor that far."""
        return float(self._rows(y)[0] @ np.abs(self.scales * anchor + self.shifts - anchor))

    def density_l1_gap(self, u: float, v: float) -> float:
        return float(np.abs(self._rows(u)[0] - self._rows(v)[0]).sum())

    def overlap_on(self, u: float, v: float, mean_contraction: float) -> float:
        pu, pv = self._rows(u)[0], self._rows(v)[0]
        gap = abs(u - v)
        contracting = np.array(
            [abs(self.apply(k, u) - self.apply(k, v)) <= mean_contraction * gap + 1e-12
             for k in range(len(self.maps))]
        )
        return float(np.minimum(pu, pv)[contracting].sum())

    def discretize(self, n_cells: int, theta_max: float,
                   ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        points = np.arange(len(self.maps))
        return points, np.broadcast_to(self._rows(ys), (len(ys), points.size))


@dataclass(frozen=True)
class PostJumpKernel:
    """Composite jump: location jump, then regime switch at the new location."""

    ifs: IfsKernel
    switching: ProbabilityRows

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
        return ys_post, self.switching.pick(regimes, ys_post, switch_uniforms)

    def sample_vec(self, ys: np.ndarray, regimes: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``draw`` into fresh arrays, then ``move``."""
        ys = np.asarray(ys, dtype=float)
        jump, switch = np.empty(ys.shape), np.empty(ys.shape)
        self.draw(rng, jump, switch)
        return self.move(ys, regimes, jump, switch)
