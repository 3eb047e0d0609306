"""Finite-grid oracle: every kernel becomes a dense matrix.

Locations are discretized to M nodes on [0, y_max]; the regime label stays
exact, so states are flat indices i*M + m. Time and map-index integrals are
replaced by quadrature cells whose masses come from the exact survival
function; images are projected to the nearest node. Rows are assembled
GRID_ASSEMBLY_NODES nodes at a time, each block's cells binned into its rows
by one ``np.bincount``.

Five kernels are assembled, three are kept, each n_states^2 floats: ``pre_jump``
is overwritten block by block with ``transition`` = pre_jump @ post_jump per
regime band, and ``post_jump`` is scaled in place by the rate at each origin
node into ``weighted_post_jump``. Beside those three, an oracle pass (build,
factorization check, correspondence) holds at most four (GRID_ASSEMBLY_NODES,
cell) assembly arrays or one product row block, GRID_NODE_BLOCK x n_states
floats with its nonzero mask, whichever is larger, plus vectors.

The transition pass and both factorization residuals form each row block's
products over its column span only, skipping columns that can only add zeros.
Both residuals are assembly checks. ``residual_plain`` is the off-band term of
the transition pass: exactly 0 on a correct assembly, it still catches planted
off-band ``pre_jump`` mass or a NaN. ``residual_weighted`` is an identity up to
rounding: occupation divides each cell's mass by the rate at the node the flow
reaches while weighted_post_jump multiplies each jump row by the rate there.
The two correspondence residuals of ``oracle_correspondence`` are assembly
checks too: given occupation @ weighted_post_jump = transition, both reduce
to fixed_point @ transition = fixed_point. None of the four catches a wrong
hazard, flow or rate. What stays independent is the MC-vs-grid comparison of
acceptance criteria 02 (W1 of the Monte Carlo chain law to the fixed point)
and 03 (stationary means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import Check
from .hazard import quantile_edges, survival_horizon
from .models import ModelSpec

DEFAULT_ROW_TOL = 1e-8
"""Allowed deviation of a grid matrix row sum from 1, and of occupation rows from their bracket."""
DEFAULT_MASS_TOL = 1e-4
"""Largest stationary mass that flows and jumps may carry out of the location window."""
POWER_ITERATION_TOL = 1e-12
"""L1 change between successive power-iteration vectors at which the iteration stops."""
POWER_ITERATION_MAX_ITER = 100_000
"""Power-iteration steps after which a ConvergenceError is raised."""
GRID_TIME_CELLS = 2000
"""Quantile cells of the holding time per grid row."""
GRID_THETA_CELLS = 1000
"""Cells of the map-index law per grid row."""
GRID_RESIDUAL_TOL = 1e-6
"""Largest factorization and correspondence residual that passes."""
GRID_NODE_BLOCK = 128
"""Matrix rows per block of the grid products: the transition pass and the
factorization residual. It fixes how each product is split, and so its
rounding."""
GRID_ASSEMBLY_NODES = 16
"""Nodes per block of grid assembly (``_flow_rows``, ``_jump_rows``): a
(block, GRID_TIME_CELLS + 1) float array is 256 KB. Assembly splits only
elementwise work and whole rows, so the block size changes no bit."""


class GridAssemblyError(RuntimeError):
    """The grid failed a check: switching rows at its nodes, stochastic rows,
    occupation bracket, window leak. A RuntimeError, so the CLI reports it as a
    solver failure (exit 4)."""


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; the message gives the last residual."""


def _first_bad_row(ok: np.ndarray) -> Optional[int]:
    """Index of the first False in the row test ``ok``, or None; write the test so
    that a NaN makes it False."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def power_iteration(matrix: np.ndarray) -> np.ndarray:
    """Left fixed-point probability vector of a row-stochastic matrix, from the
    uniform start.

    A row sum off 1 (NaN included) is a ValueError; a non-finite residual ends
    the iteration at once with a ConvergenceError.
    """
    matrix = np.asarray(matrix, dtype=float)
    row_sums = matrix.sum(axis=1)
    row = _first_bad_row(np.abs(row_sums - 1.0) <= DEFAULT_ROW_TOL)
    if row is not None:
        raise ValueError(f"matrix is not row-stochastic within tolerance: "
                         f"row {row} sums to {row_sums[row]:.17g}")
    v = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for step in range(1, POWER_ITERATION_MAX_ITER + 1):
        nxt = v @ matrix
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - v).sum())
        v = nxt
        if residual <= POWER_ITERATION_TOL:
            return v
        if not math.isfinite(residual):
            raise ConvergenceError(f"power iteration left the finite range at step {step} "
                                   f"(residual {residual})")
    raise ConvergenceError(f"no fixed point within {POWER_ITERATION_MAX_ITER} iterations "
                           f"(residual {residual:.3e})")


@dataclass(frozen=True)
class GridModel:
    """The three kernel matrices of a model on a fixed location grid that the
    checks read after assembly.

    transition:          one full chain step
    occupation:          expected time spent per node before the next jump
    weighted_post_jump:  jump plus regime switch, scaled by the jump rate at the origin

    ``pre_jump`` (law of the position just before the next jump) and
    ``post_jump`` exist only inside ``build_grid_model``. ``residual_plain`` is
    the off-band residual of its transition pass; ``fixed_point`` is the left
    fixed point of ``transition``, computed once for the leak check and reused
    by ``oracle_correspondence``.
    """

    nodes: np.ndarray
    n_regimes: int
    transition: np.ndarray
    occupation: np.ndarray
    weighted_post_jump: np.ndarray
    residual_plain: float
    stationary_leak: float
    fixed_point: np.ndarray

    @property
    def n_states(self) -> int:
        return self.nodes.size * self.n_regimes

    def mean_location(self, v: np.ndarray) -> float:
        ys = np.tile(self.nodes, self.n_regimes)
        return float(np.dot(v, ys) / np.sum(v))


def _node_blocks(m: int, size: int = GRID_NODE_BLOCK):
    """Consecutive slices of at most ``size`` nodes covering 0..m-1."""
    return [slice(s, min(s + size, m)) for s in range(0, m, size)]


def _nearest_node(pos: np.ndarray, spacing: float, m: int):
    """Nearest of the m nodes k * spacing to each position, clipped onto 0..m-1,
    and the masks (below, above) of the positions past half a spacing outside
    the window, or None if there are none. Overwrites ``pos``."""
    pos /= spacing
    idx = np.round(pos, out=pos).astype(np.int64)
    if idx.min() >= 0 and idx.max() < m:
        return idx, None
    sides = (idx < 0, idx >= m)
    np.clip(idx, 0, m - 1, out=idx)
    return idx, sides


def _jump_rows(model: ModelSpec, nodes: np.ndarray, n_regimes: int,
               theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Post-jump matrix rows from every (node, regime), plus each row's jump
    mass that leaves the window, (below, above) by row.

    For each origin node the map-index law is discretized, the images are
    projected to nodes, and the switch row is evaluated at the projected
    post-jump node value.
    """
    m = nodes.size
    n_states = m * n_regimes
    points, masses = model.jump.ifs.discretize(GRID_THETA_CELLS, theta_max, nodes)
    k = points.size
    rows = np.zeros((n_states, n_states))
    leak = np.zeros((2, n_regimes, m))
    spacing = nodes[1] - nodes[0]
    for blk in _node_blocks(m, GRID_ASSEMBLY_NODES):
        ys = nodes[blk]
        b = ys.size
        images = np.asarray(model.jump.ifs.apply(points[None, :], ys[:, None]), dtype=float)
        idx, sides = _nearest_node(images, spacing, m)
        del images
        if sides is not None:  # the same jump law from the node in every regime
            for side, outside in zip(leak, sides):
                side[:, blk] = np.where(outside, masses[blk], 0.0).sum(axis=1)
        switch = model.jump.switching.rows_at(nodes[idx.ravel()]).reshape(b, k, n_regimes, n_regimes)
        # bin of (row r, target regime j, theta): r*n_states + j*m + idx; the
        # flat (r, j, theta) order adds each bin's terms in theta order
        bins = (np.arange(b)[:, None, None] * n_states + np.arange(n_regimes)[None, :, None] * m
                + idx[:, None, :]).ravel()
        del idx
        weights = np.empty((b, n_regimes, k))
        for i in range(n_regimes):
            np.multiply(masses[blk, None, :], switch[:, :, i, :].transpose(0, 2, 1), out=weights)
            rows[i * m + blk.start: i * m + blk.stop] = np.bincount(
                bins, weights.ravel(), minlength=b * n_states).reshape(b, n_states)
        del switch, bins, weights  # freed before the next block's are made
    return rows, leak.reshape(2, n_states)


def _flow_rows(model: ModelSpec, nodes: np.ndarray,
               rate_at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-jump and occupation matrices, block-diagonal by regime, plus each
    row's pre-jump mass whose flow image leaves the window, (below, above) by row.

    Per regime and node block, survival at the quantile time edges becomes
    each cell's mass, with the tail survival(t_max) placed at t_max; the flow
    image of each cell is projected to a node, and the occupation mass is the
    cell's mass over the rate at that node.
    """
    m = nodes.size
    n_regimes = model.n_regimes
    n_states = m * n_regimes
    spacing = nodes[1] - nodes[0]
    t_max = survival_horizon(model.intensity)
    # cell edges on the quantile scale of the slowest admissible clock
    edges = quantile_edges(model.intensity, GRID_TIME_CELLS, t_max)
    # each cell's midpoint, then t_max, where the survival tail is placed
    times = np.append(0.5 * (edges[:-1] + edges[1:]), t_max)
    pre_jump = np.zeros((n_states, n_states))
    occupation = np.zeros((n_states, n_states))
    leak = np.zeros((2, n_regimes, m))
    for i in range(n_regimes):
        band = slice(i * m, (i + 1) * m)
        for blk in _node_blocks(m, GRID_ASSEMBLY_NODES):
            ys = nodes[blk]
            b = ys.size
            # survival at the edges becomes, in place, each cell's mass with
            # the tail survival(t_max) as the last column
            mass = np.asarray(model.hazard.survival(i, edges[None, :], ys[:, None]), dtype=float)
            mass[:, :-1] -= mass[:, 1:]
            pos = model.flow.evaluate(i, times[None, :], ys[:, None])
            img, sides = _nearest_node(pos, spacing, m)
            del pos
            if sides is not None:
                for side, outside in zip(leak, sides):
                    side[i, blk] = np.where(outside, mass, 0.0).sum(axis=1)
            occ_mass = rate_at[img]
            np.divide(mass, occ_mass, out=occ_mass)
            # bin r*m + img of row r; each bin adds its cells in time order
            img += m * np.arange(b)[:, None]
            rows = slice(i * m + blk.start, i * m + blk.stop)
            pre_jump[rows, band] = np.bincount(img.ravel(), mass.ravel(),
                                               minlength=b * m).reshape(b, m)
            occupation[rows, band] = np.bincount(img.ravel(), occ_mass.ravel(),
                                                 minlength=b * m).reshape(b, m)
            del mass, img, occ_mass  # freed before the next block's are made
    return pre_jump, occupation, leak.reshape(2, n_states)


def _column_span(block: np.ndarray) -> slice:
    """First to one past the last column of ``block`` holding a nonzero or NaN."""
    cols = np.flatnonzero((block != 0).any(axis=0))
    return slice(int(cols[0]), int(cols[-1]) + 1) if cols.size else slice(0, 0)


def _transition_over_pre_jump(pre_jump: np.ndarray, post_jump: np.ndarray,
                              n_regimes: int) -> float:
    """Write transition over ``pre_jump``, GRID_NODE_BLOCK rows per regime band
    at a time, and return the plain factorization residual.

    Each block's rows are the one product pre_jump[rows, inner] @ post_jump[inner]
    over ``inner``, the block's column span within its band: the columns outside
    it can only add zeros. An empty span gives zero rows, which the
    stochasticity check rejects. The residual is max
    |pre_jump[rows, off-band] @ post_jump[off-band]| over the off-band column
    spans holding a nonzero or NaN, both sides of the band in one sum; normally
    there are none and it is exactly 0. A NaN in it is kept.
    """
    m = pre_jump.shape[0] // n_regimes
    step = np.empty((min(GRID_NODE_BLOCK, m), pre_jump.shape[1]))
    worst = 0.0
    for i in range(n_regimes):
        band = slice(i * m, (i + 1) * m)
        for blk in _node_blocks(m):
            rows = slice(i * m + blk.start, i * m + blk.stop)
            out = step[:blk.stop - blk.start]
            below = _column_span(pre_jump[rows, :band.start])
            above = _column_span(pre_jump[rows, band.stop:])
            if below.stop or above.stop:  # an empty span is slice(0, 0)
                np.matmul(pre_jump[rows, below], post_jump[below], out=out)
                if above.stop:
                    out += pre_jump[rows, band.stop:][:, above] @ post_jump[band.stop:][above]
                worst = np.maximum(worst, np.abs(out, out=out).max())  # np.maximum keeps a NaN
            span = _column_span(pre_jump[rows, band])
            inner = slice(band.start + span.start, band.start + span.stop)
            np.matmul(pre_jump[rows, inner], post_jump[inner], out=out)
            pre_jump[rows] = out
    return float(worst)


def build_grid_model(model: ModelSpec, m: int, y_max: Optional[float] = None) -> GridModel:
    """Assemble the grid kernels and keep transition, occupation and
    weighted_post_jump; validates stochasticity and window leakage.

    The row sums of ``pre_jump`` and ``post_jump`` are taken before either is
    overwritten. The map-index law is discretized on [0, y_max], like the
    locations. Flow and jump images past half a spacing outside the window are
    clipped onto the end nodes; the window check weighs each row's clipped
    mass by the stationary fixed point and names the side and the worst rows
    (a larger y_max cannot hold mass below 0). The switching rows are checked
    at every node, since the jump rows evaluate them there, also past the
    model's own window. A y_max that is not positive and finite is a
    ValueError; failed checks raise GridAssemblyError.
    """
    if m < 2:
        raise ValueError("need at least two grid nodes")
    y_max = model.y_max if y_max is None else y_max
    if not (math.isfinite(y_max) and y_max > 0):
        raise ValueError(f"y_max must be positive and finite, got {y_max}")
    nodes = np.linspace(0.0, y_max, m)
    try:
        model.jump.switching.check_rows(nodes)
    except ValueError as exc:
        raise GridAssemblyError(f"switching rows at nodes to y_max={y_max:.6g}: {exc}") from exc
    n_regimes = model.n_regimes
    rate_at = np.asarray(model.intensity(nodes), dtype=float)

    post_jump, leak = _jump_rows(model, nodes, n_regimes, y_max)
    pre_jump, occupation, flow_leak = _flow_rows(model, nodes, rate_at)
    leak += flow_leak
    pre_gaps = np.abs(pre_jump.sum(axis=1) - 1.0)
    post_gaps = np.abs(post_jump.sum(axis=1) - 1.0)
    residual_plain = _transition_over_pre_jump(pre_jump, post_jump, n_regimes)
    post_jump *= np.tile(rate_at, n_regimes)[:, None]
    transition, weighted_post_jump = pre_jump, post_jump
    del pre_jump, post_jump

    for name, gaps in (("transition", np.abs(transition.sum(axis=1) - 1.0)),
                       ("pre_jump", pre_gaps), ("post_jump", post_gaps)):
        row = _first_bad_row(gaps <= DEFAULT_ROW_TOL)
        if row is not None:
            raise GridAssemblyError(f"{name} row {row} deviates from stochasticity "
                                    f"by {gaps[row]:.3e}")
    occ_rows = occupation.sum(axis=1)
    row = _first_bad_row((occ_rows >= 1.0 / model.intensity.upper - DEFAULT_ROW_TOL)
                         & (occ_rows <= 1.0 / model.intensity.lower + DEFAULT_ROW_TOL))
    if row is not None:
        raise GridAssemblyError(f"occupation row masses leave the admissible bracket: "
                                f"row {row} has mass {occ_rows[row]:.6g}")

    fixed = power_iteration(transition)
    below, above = (float(np.dot(fixed, side)) for side in leak)
    stationary_leak = below + above
    if stationary_leak > DEFAULT_MASS_TOL:
        worst = np.argsort(fixed * leak.sum(axis=0))[::-1][:5]
        fix = "increase y_max" if above > below else "no y_max holds mass below 0"
        raise GridAssemblyError(
            f"boundary leakage {stationary_leak:.3e} exceeds {DEFAULT_MASS_TOL:.1e} "
            f"({below:.3e} below 0, {above:.3e} above y_max={y_max:.6g}); "
            f"worst rows {worst.tolist()}; {fix}")
    return GridModel(nodes=nodes, n_regimes=n_regimes, transition=transition,
                     occupation=occupation, weighted_post_jump=weighted_post_jump,
                     residual_plain=residual_plain, stationary_leak=stationary_leak,
                     fixed_point=fixed)


def _residual_check(name: str, residual: float) -> Check:
    """The record of a residual at most GRID_RESIDUAL_TOL."""
    return Check(name, residual, GRID_RESIDUAL_TOL, "<=", "derived")


@dataclass(frozen=True)
class FactorizationReport:
    """Max-abs residuals of the two discrete factorization identities."""

    residual_plain: float
    residual_weighted: float

    @property
    def checks(self) -> tuple[Check, ...]:
        return (_residual_check("factorization:residual_plain", self.residual_plain),
                _residual_check("factorization:residual_weighted", self.residual_weighted))


def _max_residual(left: np.ndarray, right: np.ndarray, target: np.ndarray) -> float:
    """max |left @ right - target|, GRID_NODE_BLOCK rows at a time in one reused
    buffer, each block's product over its column span of ``left``. On the grid
    every row of ``right`` lies in some span, so a NaN there still shows."""
    n = target.shape[0]
    buf = np.empty((min(GRID_NODE_BLOCK, n), target.shape[1]))
    worst = 0.0
    for start in range(0, n, GRID_NODE_BLOCK):
        rows = slice(start, start + GRID_NODE_BLOCK)
        out = buf[:min(GRID_NODE_BLOCK, n - start)]
        span = _column_span(left[rows])
        np.matmul(left[rows, span], right[span], out=out)
        np.subtract(out, target[rows], out=out)
        worst = np.maximum(worst, np.abs(out, out=out).max())  # np.maximum keeps a NaN
    return float(worst)


def check_factorization(grid: GridModel) -> FactorizationReport:
    """Verify occupation@weighted_post_jump equals transition, each row block over
    its occupation column span, and report it with the build's off-band residual."""
    res_weighted = _max_residual(grid.occupation, grid.weighted_post_jump, grid.transition)
    return FactorizationReport(residual_plain=grid.residual_plain,
                               residual_weighted=res_weighted)


@dataclass(frozen=True)
class OracleReport:
    """Matrix-level verification of the stationarity correspondence."""

    flow_vector: np.ndarray
    normalizer_to_flow: float
    normalizer_to_chain: float
    residual_flow_invariance: float
    residual_chain_roundtrip: float
    normalizer_product_error: float
    mean_chain: float
    mean_flow: float

    @property
    def checks(self) -> tuple[Check, ...]:
        return (_residual_check("correspondence:residual_flow_invariance",
                                self.residual_flow_invariance),
                _residual_check("correspondence:residual_chain_roundtrip",
                                self.residual_chain_roundtrip))

    def to_json(self) -> dict:
        return {
            "normalizer_to_flow": self.normalizer_to_flow,
            "normalizer_to_chain": self.normalizer_to_chain,
            "residual_flow_invariance": self.residual_flow_invariance,
            "residual_chain_roundtrip": self.residual_chain_roundtrip,
            "normalizer_product_error": self.normalizer_product_error,
            "mean_chain": self.mean_chain,
            "mean_flow": self.mean_flow,
        }


def oracle_correspondence(grid: GridModel) -> OracleReport:
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
        flow_vector=flow_vec,
        normalizer_to_flow=normalizer_to_flow,
        normalizer_to_chain=normalizer_to_chain,
        residual_flow_invariance=residual_flow,
        residual_chain_roundtrip=residual_chain,
        normalizer_product_error=product_err,
        mean_chain=grid.mean_location(chain_fp),
        mean_flow=grid.mean_location(flow_vec),
    )
