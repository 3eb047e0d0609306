"""State-dependent jump intensity, cumulative hazard, holding-time samplers.

The jump rate is a bounded continuous function of the location with
0 < lambda_low <= lambda(y) <= lambda_high. The holding time from (y, i)
has CDF 1 - exp(-H(y, i, t)) where H integrates the rate along the flow.
H is in closed form for the two flow/intensity pairs the models use, and a
model with any other pair is rejected when its hazard is built. Two
independent batch samplers (hazard inversion and thinning) target that law,
and one Gauss-Legendre rule integrates over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .flows import AffineExpFlow, FrozenFlow, Semiflow

HOLDING_TIME_RTOL = 1e-12
"""An inverted holding time stops once its Newton step is at most this times max(1, t)."""
HOLDING_NEWTON_MAX_ITER = 100
HOLDING_NEWTON_BLOCK = 8192
"""Atoms solved together. Bounds the scratch memory, and the passes over atoms
that converged before the slowest atom of their block."""
HOLDING_RULE_CELLS = 200
"""Time cells of ``holding_time_rule``: half quantile, half uniform edges."""
SURVIVAL_TAIL_EPS = 1e-12
"""Survival mass below which a holding-time tail is truncated."""
THINNING_MAX_ROUNDS = 10_000
"""Proposal rounds after which thinning gives up on the atoms still pending."""


def survival_horizon(intensity: Intensity) -> float:
    """Time past which survival is below SURVIVAL_TAIL_EPS, by the lower rate bound."""
    return -math.log(SURVIVAL_TAIL_EPS) / intensity.lower


def quantile_edges(intensity: Intensity, n_cells: int, t_max: float) -> np.ndarray:
    """n_cells + 1 time-cell edges at equally spaced quantiles of Exp(lower rate).

    Cells are fine near t = 0, where the survival curve bends most, and the
    last edge is moved to ``t_max``.
    """
    levels = (1.0 - SURVIVAL_TAIL_EPS) * np.arange(n_cells + 1) / n_cells
    edges = -np.log1p(-levels) / intensity.lower
    edges[-1] = t_max
    return edges


# 4-point Gauss-Legendre on [-1, 1] in closed form: nodes +-sqrt(3/7 -+ (2/7) sqrt(6/5))
# with weights (18 +- sqrt(30)) / 36, the inner pair carrying the larger weight
_GL4_INNER = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GL4_OUTER = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GL4_NODES = np.array([-_GL4_OUTER, -_GL4_INNER, _GL4_INNER, _GL4_OUTER])
_GL4_WEIGHTS = np.array([18.0 - math.sqrt(30.0), 18.0 + math.sqrt(30.0),
                         18.0 + math.sqrt(30.0), 18.0 - math.sqrt(30.0)]) / 36.0


def holding_time_rule(intensity: Intensity) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, each (cells, 4), of 4-point Gauss-Legendre on each
    time cell of [0, survival_horizon].

    The cell edges are the union of HOLDING_RULE_CELLS / 2 quantile edges,
    which resolve t ~ 0, and as many uniform ones, which cap the cell width in
    the tail. An integral over [0, inf) of g = h * exp(-lower t), or of h
    times a survival function, is then sum(weights * g(nodes)), up to the
    rule's error and the tail past the horizon, at most SURVIVAL_TAIL_EPS /
    lower times sup |h|.
    """
    t_max = survival_horizon(intensity)
    half = HOLDING_RULE_CELLS // 2
    edges = np.unique(np.concatenate([quantile_edges(intensity, half, t_max),
                                      np.linspace(0.0, t_max, half + 1)]))
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half_widths = 0.5 * np.diff(edges)[:, None]
    return mids + half_widths * _GL4_NODES, half_widths * _GL4_WEIGHTS


class Intensity:
    """Jump rate y -> lambda(y), with certified positive bounds."""

    lower: float
    upper: float
    lipschitz: Optional[float] = None

    def __call__(self, y):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantIntensity(Intensity):
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        object.__setattr__(self, "lower", self.rate)
        object.__setattr__(self, "upper", self.rate)
        object.__setattr__(self, "lipschitz", 0.0)

    def __call__(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.rate)


@dataclass(frozen=True)
class SaturatingIntensity(Intensity):
    """lambda(y) = base + gain * y / (1 + y) on y >= 0; bounds (base, base + gain)."""

    base: float = 1.0
    gain: float = 0.5

    def __post_init__(self):
        if self.base <= 0 or self.gain < 0:
            raise ValueError("need base > 0 and gain >= 0")
        object.__setattr__(self, "lower", self.base)
        object.__setattr__(self, "upper", self.base + self.gain)
        # sup |d/dy  y/(1+y)| = 1 at y = 0
        object.__setattr__(self, "lipschitz", self.gain)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.base + self.gain * y / (1.0 + y)


@dataclass(frozen=True)
class CumulativeHazard:
    """Cumulative hazard H(y, i, t) of the holding-time law along the flow, in closed form.

    The flow/intensity pair is classified once, when the hazard is built:
    path-constant (a ConstantIntensity on any flow, or any intensity on a
    FrozenFlow), where the rate does not change along the path and H =
    lambda(y) * t; or saturating (a SaturatingIntensity on an AffineExpFlow),
    whose exact antiderivative _saturating_hazard writes on the rate's own
    base and gain. Any other pair raises ValueError. The regime ``i`` is an
    int or an int array broadcasting with ``t`` and ``y``.
    """

    intensity: Intensity
    flow: Semiflow
    path_constant: bool = field(init=False)

    def __post_init__(self):
        path_constant = (isinstance(self.intensity, ConstantIntensity)
                         or isinstance(self.flow, FrozenFlow))
        if not (path_constant or (isinstance(self.intensity, SaturatingIntensity)
                                  and isinstance(self.flow, AffineExpFlow))):
            raise ValueError(f"no closed-form hazard for {type(self.intensity).__name__} "
                             f"on {type(self.flow).__name__}")
        object.__setattr__(self, "path_constant", path_constant)

    def value(self, i, t, y):
        """H(y, i, t); broadcasts over arrays. Rejects t < 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("hazard time must be >= 0")
        self.flow.check_regime(i)
        if self.path_constant:
            return self.intensity(y) * t
        return _saturating_hazard(self, i, y)(t)

    def survival(self, i, t, y):
        """P(holding time > t) = exp(-H(y, i, t)) in (0, 1], computed in place
        of the fresh array ``value`` returns."""
        h = np.asarray(self.value(i, t, y), dtype=float)
        np.negative(h, out=h)
        return np.exp(h, out=h)[()]


def invert_holding(h: CumulativeHazard, i, ys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve H(y, i, t) = target elementwise.

    A path-constant pair has H = lambda(y) * t, so its root is target /
    lambda(y). The saturating pair is solved by Newton's method, started at
    target / lambda(y) and with each step clipped to the bracket
    [target/upper, target/lower] that the rate bounds guarantee. The
    t-derivative of H is the rate along the flow, lambda(S_i(t, y)) >= lower
    > 0, and it moves one way along the path: down from a start above the
    anchor, where H is concave, up from one below, where H is convex. So
    the start and every iterate lie on one side of the root and approach it
    monotonically, up to rounding near the root, and no bracket needs
    narrowing. An atom stops once its step is at most HOLDING_TIME_RTOL *
    max(1, t) and is then frozen, so its result does not depend on the rest
    of the batch, which is solved in blocks of HOLDING_NEWTON_BLOCK. Each
    block ends with a residual check on the same closed form, which guards
    against declared bounds inconsistent with the rate: a root clipped at
    such a bracket misses its target.
    """
    ys = np.asarray(ys, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if not (np.isfinite(targets) & (targets >= 0)).all():
        raise ValueError("hazard targets must be finite and >= 0")
    if not np.isfinite(ys).all():
        raise ValueError("start locations must be finite")
    h.flow.check_regime(i)
    if h.path_constant:
        return targets / h.intensity(ys)
    ys, targets, regimes = np.broadcast_arrays(ys, targets, np.asarray(i))
    flat_ys, flat_targets, flat_regimes = ys.ravel(), targets.ravel(), regimes.ravel()
    out = np.empty(flat_ys.size)
    for start in range(0, out.size, HOLDING_NEWTON_BLOCK):
        block = slice(start, start + HOLDING_NEWTON_BLOCK)
        out[block] = _newton_holding(h, flat_ys[block], flat_regimes[block], flat_targets[block])
    return out.reshape(targets.shape)


def _newton_holding(h: CumulativeHazard, ys: np.ndarray, regimes: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """The Newton iterations of invert_holding on one block of 1-D atoms, then
    the residual check of the block's roots. The declared rate bounds enter
    only the bracket and the start clip; the iterations and the check read
    the closed form of the saturating pair."""
    rate = h.intensity
    hazard = _saturating_hazard(h, regimes, ys)
    lo = targets / rate.upper
    hi = targets / rate.lower
    t = np.clip(targets / rate(ys), lo, hi)
    moving = np.ones(t.shape, dtype=bool)
    for _ in range(HOLDING_NEWTON_MAX_ITER):
        value, slope = hazard(t, slope=True)
        step = np.minimum(np.maximum(t - (value - targets) / slope, lo), hi)
        moved = np.abs(step - t)
        unconverged = moved > HOLDING_TIME_RTOL * np.maximum(1.0, t)
        # a converged atom keeps its last step; later passes over it change nothing
        np.copyto(t, step, where=moving)
        moving &= unconverged
        if not moving.any():
            break
    else:
        k = int(np.argmax(np.where(moving, moved, -1.0)))
        raise RuntimeError(
            f"hazard inversion did not converge in {HOLDING_NEWTON_MAX_ITER} iterations for "
            f"{int(moving.sum())} atom(s); largest last step {moved[k]:.3e} to t={t[k]:.17g} "
            f"in [{lo[k]:.17g}, {hi[k]:.17g}] at y={ys[k]:.17g}, regime {regimes[k]}, "
            f"target {targets[k]:.17g}")
    residual = np.abs(hazard(t) - targets)
    k = int(np.argmax(residual))
    if residual[k] > 1e-8 * (1.0 + targets[k]):
        raise RuntimeError(
            f"hazard inversion missed its target by {residual[k]:.3e} "
            f"(root {t[k]:.6g}, bracket [{lo[k]:.6g}, {hi[k]:.6g}], target {targets[k]:.6g}); "
            "are the declared rate bounds valid?")
    return t


def _saturating_hazard(h: CumulativeHazard, i, y) -> Callable:
    """The closed form of the saturating pair: t -> H(y, i, t) for fixed starts,
    or (H, lambda(S_i(t, y))) with ``slope=True``, the pair Newton steps by.

    Written on the rate's own base and gain g, never on its declared bounds:
    lambda(x) = top - g / (1 + x) with top = base + g, the rate at infinity.
    Along the flow 1 + S_i(t, y) = s = 1 + c + (y - c) e^{-kappa t}, so the
    slope is top - g / s and H = lambda(c) t - g / (kappa (1 + c)) (log s -
    log(1 + y)): one exp and one log per call, and one division more for the
    slope. What depends only on the start is computed once. kappa and c are
    scalars for a scalar regime and are gathered per start for a regime
    array. The caller has checked the regime and t >= 0. Each call fills one
    array of the broadcast shape with s and, without ``slope``, turns it into
    H in place by the same operations in the same order; a 0-d result is
    returned as a scalar, as a ufunc returns it.
    """
    gain = h.intensity.gain
    top = h.intensity.base + gain
    kappa, c = h.flow.rate_of[i], h.flow.anchor_of[i]
    one_c = 1.0 + c
    w0 = np.asarray(y, dtype=float) - c
    log_start = np.log(one_c + w0)
    rate_c = top - gain / one_c
    coef = gain / (kappa * one_c)

    def hazard(t, slope=False):
        s = np.asarray(w0 * np.exp(-kappa * t))
        s += one_c
        if slope:
            return rate_c * t - coef * (np.log(s) - log_start), top - gain / s
        np.log(s, out=s)
        s -= log_start
        s *= coef
        return np.subtract(rate_c * t, s, out=s)[()]

    return hazard


def sample_holding_thinning_vec(h: CumulativeHazard, i, ys: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray:
    """Vectorized thinning: one holding time per entry of ``ys``."""
    ys = np.asarray(ys, dtype=float)
    regimes = np.broadcast_to(np.asarray(i), ys.shape)
    upper = h.intensity.upper
    t = np.zeros(ys.shape, dtype=float)
    pending = np.ones(ys.shape, dtype=bool)
    for _ in range(THINNING_MAX_ROUNDS):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            return t
        t[idx] += rng.exponential(1.0 / upper, size=idx.size)
        points = h.flow.evaluate(regimes[idx], t[idx], ys[idx])
        accept = rng.random(idx.size) * upper <= h.intensity(points)
        pending[idx[accept]] = False
    raise RuntimeError("thinning exceeded the proposal budget; check intensity bounds")
