"""Finite-grid oracle: every kernel becomes a dense matrix.

Locations are discretized to M nodes on [0, y_max]; the regime label stays
exact, so states are flat indices i*M + m. Time and map-index integrals are
replaced by quadrature cells whose masses come from the exact survival
function; images are projected to the nearest node. The transition matrix is
assembled through its own time aggregation but shares the jump rows with the
post-jump matrix, making the discrete factorization identity exact up to
round-off, which is what the factorization check verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hazard import quantile_edges, survival_horizon
from .models import ModelSpec
from .state import WeightedEmpiricalMeasure

DEFAULT_ROW_TOL = 1e-8
DEFAULT_MASS_TOL = 1e-4


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
    row_tol: float
    leak_per_row: np.ndarray
    stationary_leak: float

    @property
    def n_states(self) -> int:
        return self.nodes.size * self.n_regimes

    def flat(self, node: int, regime: int) -> int:
        return regime * self.nodes.size + node

    def measure_from_vector(self, v: np.ndarray) -> WeightedEmpiricalMeasure:
        m = self.nodes.size
        ys = np.tile(self.nodes, self.n_regimes)
        regimes = np.repeat(np.arange(self.n_regimes, dtype=np.int64), m)
        return WeightedEmpiricalMeasure(ys, regimes, np.asarray(v, dtype=float))

    def mean_location(self, v: np.ndarray) -> float:
        ys = np.tile(self.nodes, self.n_regimes)
        return float(np.dot(v, ys) / np.sum(v))

    def dump_matrices(self, directory) -> list:
        """Write every kernel matrix to CSV (debugging aid); returns the paths."""
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for name, mat in (("transition", self.transition), ("pre_jump", self.pre_jump),
                          ("post_jump", self.post_jump), ("occupation", self.occupation),
                          ("weighted_post_jump", self.weighted_post_jump)):
            path = directory / f"{name}.csv"
            np.savetxt(path, mat, delimiter=",", fmt="%.17g")
            written.append(path)
        return written


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
    rows = np.zeros((n_states, n_states))
    clipped = np.zeros(n_states)
    spacing = nodes[1] - nodes[0]
    for node in range(m):
        y = nodes[node]
        masses = quad.masses_at(y)
        images = np.asarray(model.jump.ifs.apply(quad.points, y), dtype=float)
        idx = np.clip(np.round(images / spacing).astype(np.int64), 0, m - 1)
        out_of_window = (images > nodes[-1] + 0.5 * spacing) | (images < nodes[0] - 0.5 * spacing)
        leak = float(masses[out_of_window].sum())
        switch = model.jump.switching.rows_at(nodes[idx])  # (theta, |I|, |I|)
        for i in range(n_regimes):
            row = np.zeros(n_states)
            for j in range(n_regimes):
                np.add.at(row, j * m + idx, masses * switch[:, i, j])
            rows[i * m + node] = row
            clipped[i * m + node] = leak
    return rows, clipped


def build_grid_model(model: ModelSpec, m: int, y_max: Optional[float] = None,
                     time_cells: int = 2000, theta_cells: int = 1000,
                     theta_max: Optional[float] = None, t_max: Optional[float] = None,
                     row_tol: float = DEFAULT_ROW_TOL,
                     mass_tol: float = DEFAULT_MASS_TOL) -> GridModel:
    """Assemble all five matrices; validates stochasticity and window leakage.

    The window check weighs each row's clipped jump mass by the stationary
    fixed point, so a y_max too small for the model fails loudly with the
    offending rows named.
    """
    if m < 2:
        raise ValueError("need at least two grid nodes")
    y_max = model.y_max if y_max is None else y_max
    theta_max = y_max if theta_max is None else theta_max
    t_max = survival_horizon(model.intensity) if t_max is None else t_max
    nodes = np.linspace(0.0, y_max, m)
    spacing = nodes[1] - nodes[0]
    n_regimes = model.n_regimes
    n_states = m * n_regimes
    # cell edges on the quantile scale of the slowest admissible clock
    edges = quantile_edges(model.intensity, time_cells, t_max)
    reps = 0.5 * (edges[:-1] + edges[1:])

    post_jump, leak = _jump_rows(model, nodes, n_regimes, theta_cells, theta_max)
    rate_at = np.asarray(model.intensity(nodes), dtype=float)
    weighted_post_jump = post_jump * np.tile(rate_at, n_regimes)[:, None]

    pre_jump = np.zeros((n_states, n_states))
    occupation = np.zeros((n_states, n_states))
    transition = np.zeros((n_states, n_states))
    for i in range(n_regimes):
        for node in range(m):
            y = nodes[node]
            surv = np.asarray(model.hazard.survival(i, edges, np.full(edges.shape, y)), dtype=float)
            cell_mass = surv[:-1] - surv[1:]
            img = np.clip(np.round(model.flow.evaluate(i, reps, np.full(reps.shape, y)) / spacing)
                          .astype(np.int64), 0, m - 1)
            tail_img = int(np.clip(round(float(model.flow.evaluate(i, t_max, y)) / spacing), 0, m - 1))
            row_arrival = np.zeros(m)
            np.add.at(row_arrival, img, cell_mass)
            row_arrival[tail_img] += surv[-1]
            pre_jump[i * m + node, i * m: (i + 1) * m] = row_arrival
            row_occupation = np.zeros(m)
            np.add.at(row_occupation, img, cell_mass / rate_at[img])
            row_occupation[tail_img] += surv[-1] / rate_at[tail_img]
            occupation[i * m + node, i * m: (i + 1) * m] = row_occupation
            transition[i * m + node] = row_arrival @ post_jump[i * m: (i + 1) * m]

    for name, mat in (("transition", transition), ("pre_jump", pre_jump), ("post_jump", post_jump)):
        gap = np.abs(mat.sum(axis=1) - 1.0).max()
        if gap > row_tol:
            raise ValueError(f"{name} rows deviate from stochasticity by {gap:.3e}")
    occ_rows = occupation.sum(axis=1)
    if occ_rows.min() < 1.0 / model.intensity.upper - row_tol or \
       occ_rows.max() > 1.0 / model.intensity.lower + row_tol:
        raise ValueError("occupation row masses leave the admissible bracket")

    fixed = power_iteration(transition, tol=1e-12, row_tol=row_tol)
    stationary_leak = float(np.dot(fixed, leak))
    if stationary_leak > mass_tol:
        worst = np.argsort(fixed * leak)[::-1][:5]
        raise ValueError(
            f"boundary leakage {stationary_leak:.3e} exceeds {mass_tol:.1e}; "
            f"worst rows {worst.tolist()}; increase y_max")
    return GridModel(model=model, nodes=nodes, n_regimes=n_regimes, transition=transition,
                     pre_jump=pre_jump, post_jump=post_jump, occupation=occupation,
                     weighted_post_jump=weighted_post_jump, t_max=t_max, row_tol=row_tol,
                     leak_per_row=leak, stationary_leak=stationary_leak)


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


def check_factorization(grid: GridModel, tol: float = 1e-6) -> FactorizationReport:
    """Verify pre_jump@post_jump and occupation@weighted_post_jump equal transition."""
    res_plain = float(np.abs(grid.pre_jump @ grid.post_jump - grid.transition).max())
    res_weighted = float(np.abs(grid.occupation @ grid.weighted_post_jump - grid.transition).max())
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


def oracle_correspondence(grid: GridModel, tol: float = 1e-6,
                          fp_tol: float = 1e-12) -> OracleReport:
    """Check both correspondence directions at the matrix level.

    From the chain fixed point, the normalized occupation image must be
    invariant for the composite weighted-jump/occupation kernel, its
    weighted-jump image must normalize back to the chain fixed point, and
    the two normalizers must be reciprocal.
    """
    chain_fp = power_iteration(grid.transition, tol=fp_tol, row_tol=grid.row_tol)
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
