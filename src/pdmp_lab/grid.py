"""Finite-grid oracle: every kernel becomes a dense matrix.

Locations are discretized to M nodes on [0, y_max]; the regime label stays
exact, so states are flat indices i*M + m. Time and map-index integrals are
replaced by quadrature cells whose masses come from the exact survival
function; images are projected to the nearest node. Rows are assembled
GRID_NODE_BLOCK nodes at a time, each block's cells binned into its rows by
one ``np.bincount``.

The transition matrix is pre_jump @ post_jump per regime block by
construction, so the plain factorization identity holds up to matmul
round-off. The weighted identity occupation @ weighted_post_jump =
transition is the one with content: occupation divides each cell's mass by
the rate at the node the flow reaches, weighted_post_jump multiplies each
jump row by the rate at its origin node, and the two must cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hazard import quantile_edges, survival_horizon
from .models import ModelSpec
from .state import WeightedEmpiricalMeasure

DEFAULT_ROW_TOL = 1e-8
"""Allowed deviation of a grid matrix row sum from 1, and of occupation rows from their bracket."""
DEFAULT_MASS_TOL = 1e-4
"""Largest stationary mass that jumps may carry out of the location window."""
GRID_NODE_BLOCK = 128
"""Nodes assembled together, and matrix rows per factorization residual block.
At 2000 time cells one (block, cell) array is 2 MB."""


class GridAssemblyError(RuntimeError, ValueError):
    """The assembled matrices failed a check: stochastic rows, occupation bracket, window leak.

    A RuntimeError, so the CLI reports it as a solver failure (exit 4); also a
    ValueError, the type these checks raised before.
    """


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def power_iteration(matrix: np.ndarray, tol: float = 1e-10, max_iter: int = 100_000,
                    v0: Optional[np.ndarray] = None, row_tol: float = DEFAULT_ROW_TOL) -> np.ndarray:
    """Left fixed-point probability vector of a row-stochastic matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if np.abs(matrix.sum(axis=1) - 1.0).max() > row_tol:
        raise ValueError("matrix is not row-stochastic within tolerance")
    n = matrix.shape[0]
    v = np.full(n, 1.0 / n) if v0 is None else np.asarray(v0, dtype=float) / np.sum(v0)
    for _ in range(max_iter):
        nxt = v @ matrix
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - v).sum())
        v = nxt
        if residual <= tol:
            return v
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations (residual {residual:.3e})", residual)


@dataclass(frozen=True)
class GridModel:
    """All five kernel matrices of a model on a fixed location grid.

    transition:          one full chain step
    pre_jump:            law of the position just before the next jump
    post_jump:           jump plus regime switch
    occupation:          expected time spent per node before the next jump
    weighted_post_jump:  post_jump scaled by the jump rate at the origin

    ``fixed_point`` is the left fixed point of ``transition``, computed once
    for the leak check and reused by ``oracle_correspondence``.
    """

    model: ModelSpec
    nodes: np.ndarray
    n_regimes: int
    transition: np.ndarray
    pre_jump: np.ndarray
    post_jump: np.ndarray
    occupation: np.ndarray
    weighted_post_jump: np.ndarray
    t_max: float
    leak_per_row: np.ndarray
    stationary_leak: float
    fixed_point: np.ndarray

    @property
    def n_states(self) -> int:
        return self.nodes.size * self.n_regimes

    def measure_from_vector(self, v: np.ndarray) -> WeightedEmpiricalMeasure:
        m = self.nodes.size
        ys = np.tile(self.nodes, self.n_regimes)
        regimes = np.repeat(np.arange(self.n_regimes, dtype=np.int64), m)
        return WeightedEmpiricalMeasure(ys, regimes, np.asarray(v, dtype=float))

    def mean_location(self, v: np.ndarray) -> float:
        ys = np.tile(self.nodes, self.n_regimes)
        return float(np.dot(v, ys) / np.sum(v))


def _node_blocks(m: int):
    """Consecutive slices of at most GRID_NODE_BLOCK nodes covering 0..m-1."""
    return [slice(s, min(s + GRID_NODE_BLOCK, m)) for s in range(0, m, GRID_NODE_BLOCK)]


def _jump_rows(model: ModelSpec, nodes: np.ndarray, n_regimes: int,
               theta_cells: int, theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Post-jump matrix rows from every (node, regime), plus clipped mass.

    For each origin node the map-index law is discretized, the images are
    projected to nodes, and the switch row is evaluated at the projected
    post-jump node value.
    """
    m = nodes.size
    n_states = m * n_regimes
    quad = model.jump.ifs.discretize(theta_cells, theta_max)
    k = quad.points.size
    rows = np.zeros((n_states, n_states))
    clipped = np.zeros(n_states)
    spacing = nodes[1] - nodes[0]
    for blk in _node_blocks(m):
        ys = nodes[blk]
        b = ys.size
        if quad.state_independent:
            masses = np.broadcast_to(quad.masses_at(ys[0]), (b, k))
        else:
            masses = np.stack([quad.masses_at(y) for y in ys])
        images = np.asarray(model.jump.ifs.apply(quad.points[None, :], ys[:, None]), dtype=float)
        idx = np.clip(np.round(images / spacing).astype(np.int64), 0, m - 1)
        out_of_window = (images > nodes[-1] + 0.5 * spacing) | (images < nodes[0] - 0.5 * spacing)
        leak = np.where(out_of_window, masses, 0.0).sum(axis=1)
        switch = model.jump.switching.rows_at(nodes[idx.ravel()]).reshape(b, k, n_regimes, n_regimes)
        # bin of (row r, target regime j, theta): r*n_states + j*m + idx; the
        # flat (r, j, theta) order adds each bin's terms in theta order
        bins = (np.arange(b)[:, None, None] * n_states + np.arange(n_regimes)[None, :, None] * m
                + idx[:, None, :]).ravel()
        for i in range(n_regimes):
            weights = masses[:, None, :] * switch[:, :, i, :].transpose(0, 2, 1)
            rows[i * m + blk.start: i * m + blk.stop] = np.bincount(
                bins, weights.ravel(), minlength=b * n_states).reshape(b, n_states)
            clipped[i * m + blk.start: i * m + blk.stop] = leak
    return rows, clipped


def build_grid_model(model: ModelSpec, m: int, y_max: Optional[float] = None,
                     time_cells: int = 2000, theta_cells: int = 1000,
                     t_max: Optional[float] = None) -> GridModel:
    """Assemble all five matrices; validates stochasticity and window leakage.

    The map-index law is discretized on [0, y_max], like the locations. The
    window check weighs each row's clipped jump mass by the stationary
    fixed point, so a y_max too small for the model fails loudly with the
    offending rows named. Failed checks raise GridAssemblyError.
    """
    if m < 2:
        raise ValueError("need at least two grid nodes")
    y_max = model.y_max if y_max is None else y_max
    t_max = survival_horizon(model.intensity) if t_max is None else t_max
    nodes = np.linspace(0.0, y_max, m)
    spacing = nodes[1] - nodes[0]
    n_regimes = model.n_regimes
    n_states = m * n_regimes
    # cell edges on the quantile scale of the slowest admissible clock
    edges = quantile_edges(model.intensity, time_cells, t_max)
    # each cell's midpoint, then t_max, where the survival tail is placed
    times = np.append(0.5 * (edges[:-1] + edges[1:]), t_max)

    post_jump, leak = _jump_rows(model, nodes, n_regimes, theta_cells, y_max)
    rate_at = np.asarray(model.intensity(nodes), dtype=float)
    weighted_post_jump = post_jump * np.tile(rate_at, n_regimes)[:, None]

    pre_jump = np.zeros((n_states, n_states))
    occupation = np.zeros((n_states, n_states))
    transition = np.zeros((n_states, n_states))
    for i in range(n_regimes):
        band = slice(i * m, (i + 1) * m)
        for blk in _node_blocks(m):
            ys = nodes[blk]
            b = ys.size
            # survival at the edges becomes, in place, each cell's mass with
            # the tail survival(t_max) as the last column
            mass = np.asarray(model.hazard.survival(i, edges[None, :], ys[:, None]), dtype=float)
            mass[:, :-1] -= mass[:, 1:]
            pos = model.flow.evaluate(i, times[None, :], ys[:, None])
            pos /= spacing
            img = np.round(pos, out=pos).astype(np.int64)
            del pos
            np.clip(img, 0, m - 1, out=img)
            occ_mass = rate_at[img]
            np.divide(mass, occ_mass, out=occ_mass)
            # bin r*m + img of row r; each bin adds its cells in time order
            img += m * np.arange(b)[:, None]
            rows = slice(i * m + blk.start, i * m + blk.stop)
            pre_jump[rows, band] = np.bincount(img.ravel(), mass.ravel(),
                                               minlength=b * m).reshape(b, m)
            occupation[rows, band] = np.bincount(img.ravel(), occ_mass.ravel(),
                                                 minlength=b * m).reshape(b, m)
        np.matmul(pre_jump[band, band], post_jump[band], out=transition[band])

    for name, mat in (("transition", transition), ("pre_jump", pre_jump), ("post_jump", post_jump)):
        gap = np.abs(mat.sum(axis=1) - 1.0).max()
        if gap > DEFAULT_ROW_TOL:
            raise GridAssemblyError(f"{name} rows deviate from stochasticity by {gap:.3e}")
    occ_rows = occupation.sum(axis=1)
    if occ_rows.min() < 1.0 / model.intensity.upper - DEFAULT_ROW_TOL or \
       occ_rows.max() > 1.0 / model.intensity.lower + DEFAULT_ROW_TOL:
        raise GridAssemblyError("occupation row masses leave the admissible bracket")

    fixed = power_iteration(transition, tol=1e-12)
    stationary_leak = float(np.dot(fixed, leak))
    if stationary_leak > DEFAULT_MASS_TOL:
        worst = np.argsort(fixed * leak)[::-1][:5]
        raise GridAssemblyError(
            f"boundary leakage {stationary_leak:.3e} exceeds {DEFAULT_MASS_TOL:.1e}; "
            f"worst rows {worst.tolist()}; increase y_max")
    return GridModel(model=model, nodes=nodes, n_regimes=n_regimes, transition=transition,
                     pre_jump=pre_jump, post_jump=post_jump, occupation=occupation,
                     weighted_post_jump=weighted_post_jump, t_max=t_max,
                     leak_per_row=leak, stationary_leak=stationary_leak, fixed_point=fixed)


@dataclass(frozen=True)
class FactorizationReport:
    """Max-abs residuals of the two discrete factorization identities."""

    residual_plain: float
    residual_weighted: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.residual_plain, self.residual_weighted) <= self.tol

    def to_json(self) -> dict:
        return {"residual_plain": self.residual_plain,
                "residual_weighted": self.residual_weighted,
                "tol": self.tol, "passed": self.passed}


def _max_residual(left: np.ndarray, right: np.ndarray, target: np.ndarray) -> float:
    """max |left @ right - target|, GRID_NODE_BLOCK rows at a time in one reused buffer."""
    n = target.shape[0]
    buf = np.empty((min(GRID_NODE_BLOCK, n), target.shape[1]))
    worst = 0.0
    for start in range(0, n, GRID_NODE_BLOCK):
        rows = slice(start, start + GRID_NODE_BLOCK)
        out = buf[:min(GRID_NODE_BLOCK, n - start)]
        np.matmul(left[rows], right, out=out)
        np.subtract(out, target[rows], out=out)
        np.abs(out, out=out)
        worst = np.maximum(worst, out.max())  # np.maximum keeps a NaN
    return float(worst)


def check_factorization(grid: GridModel, tol: float = 1e-6) -> FactorizationReport:
    """Verify pre_jump@post_jump and occupation@weighted_post_jump equal transition."""
    res_plain = _max_residual(grid.pre_jump, grid.post_jump, grid.transition)
    res_weighted = _max_residual(grid.occupation, grid.weighted_post_jump, grid.transition)
    return FactorizationReport(residual_plain=res_plain, residual_weighted=res_weighted, tol=tol)


@dataclass(frozen=True)
class OracleReport:
    """Matrix-level verification of the stationarity correspondence."""

    chain_fixed_point: np.ndarray
    flow_vector: np.ndarray
    normalizer_to_flow: float
    normalizer_to_chain: float
    residual_flow_invariance: float
    residual_chain_roundtrip: float
    normalizer_product_error: float
    mean_chain: float
    mean_flow: float
    tol: float

    @property
    def passed(self) -> bool:
        return (self.residual_flow_invariance <= self.tol
                and self.residual_chain_roundtrip <= self.tol)

    def to_json(self) -> dict:
        return {
            "normalizer_to_flow": self.normalizer_to_flow,
            "normalizer_to_chain": self.normalizer_to_chain,
            "residual_flow_invariance": self.residual_flow_invariance,
            "residual_chain_roundtrip": self.residual_chain_roundtrip,
            "normalizer_product_error": self.normalizer_product_error,
            "mean_chain": self.mean_chain,
            "mean_flow": self.mean_flow,
            "tol": self.tol,
            "passed": self.passed,
        }


def oracle_correspondence(grid: GridModel, tol: float = 1e-6) -> OracleReport:
    """Check both correspondence directions at the matrix level.

    From the chain fixed point, the normalized occupation image must be
    invariant for the composite weighted-jump/occupation kernel, its
    weighted-jump image must normalize back to the chain fixed point, and
    the two normalizers must be reciprocal. The chain fixed point is the
    one build_grid_model computed.
    """
    chain_fp = grid.fixed_point
    raw_flow = chain_fp @ grid.occupation
    normalizer_to_flow = float(raw_flow.sum())
    flow_vec = raw_flow / normalizer_to_flow
    back = flow_vec @ grid.weighted_post_jump
    normalizer_to_chain = float(back.sum())
    residual_chain = float(np.abs(back / normalizer_to_chain - chain_fp).sum())
    forward_again = back @ grid.occupation
    residual_flow = float(np.abs(forward_again / forward_again.sum() - flow_vec).sum())
    product_err = abs(normalizer_to_flow * normalizer_to_chain - 1.0)
    return OracleReport(
        chain_fixed_point=chain_fp,
        flow_vector=flow_vec,
        normalizer_to_flow=normalizer_to_flow,
        normalizer_to_chain=normalizer_to_chain,
        residual_flow_invariance=residual_flow,
        residual_chain_roundtrip=residual_chain,
        normalizer_product_error=product_err,
        mean_chain=grid.mean_location(chain_fp),
        mean_flow=grid.mean_location(flow_vec),
        tol=tol,
    )
