"""State-dependent jump intensity, cumulative hazard, holding-time samplers.

The jump rate is a bounded continuous function of the location with
0 < lambda_low <= lambda(y) <= lambda_high. The holding time from (y, i)
has CDF 1 - exp(-H(y, i, t)) where H integrates the rate along the flow;
two independent batch samplers (hazard inversion and thinning) target that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .flows import AffineExpFlow, FrozenFlow, Semiflow

HOLDING_TIME_RTOL = 1e-12
"""An inverted holding time stops once its Newton step is at most this times max(1, t)."""
HOLDING_NEWTON_MAX_ITER = 100
HOLDING_NEWTON_BLOCK = 8192
"""Atoms solved together. Bounds the scratch memory, and the passes over atoms
that converged before the slowest atom of their block."""
HAZARD_QUAD_TOL = 1e-10
"""Absolute tolerance of the adaptive-Simpson hazard, used when no closed form is registered."""
SURVIVAL_TAIL_EPS = 1e-12
"""Survival mass below which a holding-time tail is truncated."""


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


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature with Richardson acceptance test."""
    if b < a:
        raise ValueError("integration bounds out of order")
    if b == a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth <= 0:
            raise RuntimeError("adaptive quadrature did not converge")
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (
            recurse(x0, x1, f0, flm, f1, left, 0.5 * eps, depth - 1)
            + recurse(x1, x2, f1, frm, f2, right, 0.5 * eps, depth - 1)
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def closed_form_hazard(flow: Semiflow, intensity: Intensity):
    """Exact cumulative hazard for the shipped flow/intensity pairs, else None.

    Returns a callable (i, y) -> (t -> integral of lambda(S_i(h, y)) over
    [0, t]). Everything that depends only on the start (i, y) is computed
    once, so a root finder that evaluates many times t per start pays for it
    once; the inner callable broadcasts t against the start arrays.
    """
    if isinstance(intensity, ConstantIntensity):
        rate = intensity.rate

        def const_hazard(i, y):
            y = np.asarray(y, dtype=float)
            return lambda t: np.broadcast_arrays(rate * np.asarray(t, dtype=float), y)[0].copy()

        return const_hazard
    if isinstance(intensity, SaturatingIntensity) and isinstance(flow, AffineExpFlow):
        base, gain = intensity.base, intensity.gain

        def saturating_hazard(i, y):
            # integral of base + gain*(c+w)/(1+c+w) along w_h = (y-c) e^{-kappa h}
            kappa, c = flow.rate_of[i], flow.anchor_of[i]
            w0 = np.asarray(y, dtype=float) - c
            one_c = 1.0 + c
            start = one_c + w0
            scale = kappa * one_c

            def hazard(t):
                t = np.asarray(t, dtype=float)
                wt = w0 * np.exp(-kappa * t)
                inv_term = (kappa * t + np.log((one_c + wt) / start)) / scale
                return (base + gain) * t - gain * inv_term

            return hazard

        return saturating_hazard
    if isinstance(intensity, SaturatingIntensity) and isinstance(flow, FrozenFlow):
        def frozen_hazard(i, y):
            rate = intensity(y)
            return lambda t: rate * np.asarray(t, dtype=float)

        return frozen_hazard
    return None


@dataclass(frozen=True)
class CumulativeHazard:
    """Cumulative hazard H(y, i, t) of the holding-time law along the flow.

    Uses the exact antiderivative when one is registered for the
    flow/intensity pair, otherwise adaptive Simpson at HAZARD_QUAD_TOL. The
    regime ``i`` is an int or an int array broadcasting with ``t`` and ``y``.
    """

    intensity: Intensity
    flow: Semiflow
    closed_form: Optional[Callable] = None

    @classmethod
    def for_model(cls, flow: Semiflow, intensity: Intensity):
        return cls(intensity=intensity, flow=flow, closed_form=closed_form_hazard(flow, intensity))

    def along(self, i, y) -> Callable:
        """t -> H(y, i, t) for fixed starts, with the per-start terms hoisted."""
        self.flow.check_regime(i)
        if self.closed_form is not None:
            return self.closed_form(i, y)
        return lambda t: self._quadrature(i, t, y)

    def value(self, i, t, y):
        """H(y, i, t); broadcasts over arrays. Rejects t < 0."""
        if np.any(np.asarray(t) < 0):
            raise ValueError("hazard time must be >= 0")
        return self.along(i, y)(t)

    def _quadrature(self, i, t, y):
        tb, yb, ib = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(y, dtype=float),
                                         np.asarray(i))
        out = np.empty(tb.shape, dtype=float)
        for idx in np.ndindex(tb.shape):
            yv, iv = float(yb[idx]), int(ib[idx])
            out[idx] = adaptive_simpson(
                lambda h: float(self.intensity(self.flow.evaluate(iv, h, yv))),
                0.0, float(tb[idx]), HAZARD_QUAD_TOL,
            )
        if out.shape == ():
            return float(out)
        return out

    def survival(self, i, t, y):
        """P(holding time > t) = exp(-H(y, i, t)) in (0, 1]."""
        return np.exp(-np.asarray(self.value(i, t, y), dtype=float))


def invert_holding(h: CumulativeHazard, i, ys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve H(y, i, t) = target elementwise by safeguarded Newton ("rtsafe").

    The rate bounds guarantee the bracket [target/upper, target/lower], and
    the t-derivative of H is the rate along the flow, lambda(S_i(t, y)) >=
    lower > 0. Each iteration narrows the bracket by the sign of H(t) -
    target, then takes the Newton step if it lies in the bracket, ends
    included (a step from an exact hit stays put), else the midpoint. An
    atom stops once its step is at most HOLDING_TIME_RTOL * max(1, t) and is
    then frozen, so its result does not depend on the rest of the batch,
    which is solved in blocks of HOLDING_NEWTON_BLOCK. A final residual
    check guards against hazards inconsistent with their declared bounds.
    """
    ys = np.asarray(ys, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if not (np.isfinite(targets) & (targets >= 0)).all():
        raise ValueError("hazard targets must be finite and >= 0")
    if not np.isfinite(ys).all():
        raise ValueError("start locations must be finite")
    h.flow.check_regime(i)
    if isinstance(h.intensity, ConstantIntensity):
        return targets / h.intensity.rate
    ys, targets, regimes = np.broadcast_arrays(ys, targets, np.asarray(i))
    flat_ys, flat_targets, flat_regimes = ys.ravel(), targets.ravel(), regimes.ravel()
    out = np.empty(flat_ys.size)
    for start in range(0, out.size, HOLDING_NEWTON_BLOCK):
        block = slice(start, start + HOLDING_NEWTON_BLOCK)
        out[block] = _newton_holding(h, flat_ys[block], flat_regimes[block], flat_targets[block])
    out = out.reshape(targets.shape)
    residual = np.abs(np.asarray(h.along(i, ys)(out)) - targets)
    worst = int(np.argmax(residual)) if residual.size else 0
    if residual.size and residual.flat[worst] > 1e-8 * (1.0 + targets.flat[worst]):
        target = targets.flat[worst]
        raise RuntimeError(
            f"hazard inversion missed its target by {residual.flat[worst]:.3e} "
            f"(root {out.flat[worst]:.6g}, bracket [{target / h.intensity.upper:.6g}, "
            f"{target / h.intensity.lower:.6g}], target {target:.6g}); "
            "are the declared rate bounds valid?")
    return out


def _newton_holding(h: CumulativeHazard, ys: np.ndarray, regimes: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """The Newton iterations of invert_holding on one block of 1-D atoms."""
    rate = h.intensity
    hazard = h.along(regimes, ys)
    lo = targets / rate.upper
    hi = targets / rate.lower
    t = np.clip(targets / rate(ys), lo, hi)
    moving = np.ones(t.shape, dtype=bool)
    for _ in range(HOLDING_NEWTON_MAX_ITER):
        excess = hazard(t) - targets
        above = excess > 0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        step = t - excess / rate(h.flow.evaluate(regimes, t, ys))
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        converged = np.abs(step - t) <= HOLDING_TIME_RTOL * np.maximum(1.0, t)
        # a converged atom keeps its last step; later passes over it change nothing
        t = np.where(moving, step, t)
        moving &= ~converged
        if not moving.any():
            return t
    k = int(np.argmax(np.where(moving, hi - lo, -1.0)))
    raise RuntimeError(
        f"hazard inversion did not converge in {HOLDING_NEWTON_MAX_ITER} iterations for "
        f"{int(moving.sum())} atom(s); widest bracket [{lo[k]:.17g}, {hi[k]:.17g}] at "
        f"y={ys[k]:.17g}, regime {regimes[k]}, target {targets[k]:.17g}")


def sample_holding_thinning_vec(h: CumulativeHazard, i, ys: np.ndarray,
                                rng: np.random.Generator,
                                max_rounds: int = 10_000) -> np.ndarray:
    """Vectorized thinning: one holding time per entry of ``ys``."""
    ys = np.asarray(ys, dtype=float)
    regimes = np.broadcast_to(np.asarray(i), ys.shape)
    upper = h.intensity.upper
    t = np.zeros(ys.shape, dtype=float)
    pending = np.ones(ys.shape, dtype=bool)
    for _ in range(max_rounds):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            return t
        t[idx] += rng.exponential(1.0 / upper, size=idx.size)
        points = h.flow.evaluate(regimes[idx], t[idx], ys[idx])
        accept = rng.random(idx.size) * upper <= h.intensity(points)
        pending[idx[accept]] = False
    raise RuntimeError("thinning exceeded the proposal budget; check intensity bounds")
