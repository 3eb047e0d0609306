"""Distances between weighted empirical measures on the product state space.

The headline quantity is the exact 1-D Wasserstein-1 distance per regime,
combined into a product-space score, bracketed from below by a dictionary
estimate of the bounded-Lipschitz distance. On the line W1 is the L1
distance between the two CDFs (Vallender 1973), so it needs each measure
sorted once and one linear merge of the two sorted runs, in scratch of about
four arrays of the merged length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import WeightedEmpiricalMeasure

MASS_MATCH_TOL = 1e-9
BL_ANCHORS = 64
"""Ramp anchors of ``bl_lower_bound``, evenly spaced over the joint support."""


def wasserstein1_1d(values_a: np.ndarray, weights_a: np.ndarray,
                    values_b: np.ndarray, weights_b: np.ndarray) -> float:
    """Exact W1 between weighted atom sets on the line.

    Computed as the area between the two CDFs over the merged support: each
    side is sorted on its own, and a stable sort of the two runs merges them
    in one pass, a's atom first on a cross tie. Total masses must agree to
    within MASS_MATCH_TOL (normalize first).
    """
    values_a = np.asarray(values_a, dtype=float)
    values_b = np.asarray(values_b, dtype=float)
    weights_a = np.asarray(weights_a, dtype=float)
    weights_b = np.asarray(weights_b, dtype=float)
    if not (values_a.ndim == values_b.ndim == 1 and values_a.shape == weights_a.shape
            and values_b.shape == weights_b.shape):
        raise ValueError("each measure needs 1-D values and weights of one length")
    mass_a, mass_b = weights_a.sum(), weights_b.sum()
    if abs(mass_a - mass_b) > MASS_MATCH_TOL * max(mass_a, mass_b, 1.0):
        raise ValueError(f"total masses differ: {mass_a} vs {mass_b}")
    if values_a.size == 0 or values_b.size == 0:
        raise ValueError("empty atom set")
    # each side sorted on its own into one run: a's atoms, then b's with negated mass
    n_a = values_a.size
    pos = np.empty(n_a + values_b.size)
    contrib = np.empty(pos.size)
    for values, weights, run, mass in ((values_a, weights_a, slice(None, n_a), mass_a),
                                       (values_b, weights_b, slice(n_a, None), -mass_b)):
        order = np.argsort(values)
        # the indices are in range; mode="clip" writes to out without a buffer copy
        np.take(values, order, out=pos[run], mode="clip")
        np.take(weights, order, out=contrib[run], mode="clip")
        del order
        contrib[run] /= mass
    # a stable sort merges the two runs in one pass; a cross tie keeps a's atom first
    order = np.argsort(pos, kind="stable")
    cdf_gap = contrib[order]
    del contrib
    pos = pos[order]
    del order
    np.cumsum(cdf_gap, out=cdf_gap)
    np.abs(cdf_gap, out=cdf_gap)
    return float(np.dot(cdf_gap[:-1], np.diff(pos))) * mass_a


BL_SUM_BLOCK = 1024
"""Atoms per partial bin sum in the ramp bound; bincount adds sequentially, so
blocking keeps its rounding near that of a dot product."""


def _ramp_sums(m: WeightedEmpiricalMeasure, anchors: np.ndarray, n_regimes: int) -> np.ndarray:
    """sum of w * clip(y - a, -1, 1) over each regime's atoms, for every anchor a.

    Atoms are binned once between the sorted ramp breakpoints a +- 1; bin b
    holds breaks[b-1] < y <= breaks[b]. Below a - 1 (bins <= lo_pos) the ramp
    is -1, above a + 1 (bins > hi_pos) it is 1, and in between it is y - a,
    so each sum is a difference of per-bin prefix sums of w and w * y.
    Returns an (n_regimes, anchors.size) array.
    """
    breaks = np.sort(np.concatenate([anchors - 1.0, anchors + 1.0]))
    lo_pos = np.searchsorted(breaks, anchors - 1.0)
    hi_pos = np.searchsorted(breaks, anchors + 1.0)
    n_bins = breaks.size + 1
    size = n_regimes * n_bins
    n_blocks = -(-m.n_atoms // BL_SUM_BLOCK)
    bins = np.searchsorted(breaks, m.ys)
    bins += m.regimes * n_bins
    bins += np.arange(m.n_atoms) // BL_SUM_BLOCK * size
    shape = (n_blocks, n_regimes, n_bins)
    mass = np.bincount(bins, weights=m.weights, minlength=n_blocks * size).reshape(shape)
    moment = np.bincount(bins, weights=m.weights * m.ys,
                         minlength=n_blocks * size).reshape(shape)
    cum_mass = np.cumsum(mass.sum(axis=0), axis=1)
    cum_moment = np.cumsum(moment.sum(axis=0), axis=1)
    below = cum_mass[:, lo_pos]
    inside = cum_mass[:, hi_pos] - below
    above = cum_mass[:, -1:] - cum_mass[:, hi_pos]
    return above - below + (cum_moment[:, hi_pos] - cum_moment[:, lo_pos]) - anchors * inside


def bl_lower_bound(mu: WeightedEmpiricalMeasure, nu: WeightedEmpiricalMeasure) -> float:
    """Dictionary lower bound on the bounded-Lipschitz distance.

    Maximizes |<f, mu> - <f, nu>| over clamped affine ramps clip(y - a, -1, 1)
    through BL_ANCHORS anchors a, alone and crossed with regime indicators.
    Every dictionary member is 1-Lipschitz for the product metric and bounded
    by 1, so the value is a valid lower bound of the true distance. The
    mirrored ramps clip(a - y, -1, 1) are exact negatives, so they add
    nothing to the maximum of |gap|.
    """
    mu, nu = mu.normalize(), nu.normalize()
    anchors = np.linspace(min(mu.ys.min(), nu.ys.min()), max(mu.ys.max(), nu.ys.max()),
                          BL_ANCHORS)
    n_regimes = int(max(mu.regimes.max(), nu.regimes.max())) + 1
    gaps = _ramp_sums(mu, anchors, n_regimes) - _ramp_sums(nu, anchors, n_regimes)
    per_regime = float(np.abs(gaps).max())
    regime_blind = float(np.abs(gaps.sum(axis=0)).max())
    return max(per_regime, regime_blind)


@dataclass(frozen=True)
class DistanceReport:
    """Product-space distance bracket between two probability measures.

    combined = sum_i min(mass_i) * W1(conditional_i) + sum_i |mass gap|, with
    distinct regimes at distance 1, upper-bounds every dictionary member's
    action, while ``bl_lower`` bounds the bounded-Lipschitz distance from
    below.
    """

    per_regime_w1: dict[int, float]
    regime_mass_gap: float
    combined: float
    bl_lower: float


def measure_distance(mu: WeightedEmpiricalMeasure, nu: WeightedEmpiricalMeasure,
                     n_regimes: int) -> DistanceReport:
    """Per-regime W1 composite over regimes 0..n_regimes-1 plus the dictionary lower bound.

    An atom in a regime outside 0..n_regimes-1 is a ValueError.
    """
    mu, nu = mu.normalize(), nu.normalize()
    mass_mu = mu.regime_mass(n_regimes)
    mass_nu = nu.regime_mass(n_regimes)
    for name, mass in (("first", mass_mu), ("second", mass_nu)):
        if mass.size > n_regimes:  # bincount grows past minlength to the largest regime
            raise ValueError(f"the {name} measure has an atom in regime {mass.size - 1}, "
                             f"outside 0..{n_regimes - 1}")
    per_regime = {}
    combined = 0.0
    for i in range(n_regimes):
        shared = min(mass_mu[i], mass_nu[i])
        if shared > 0:
            ya, wa = mu.restrict_regime(i)
            yb, wb = nu.restrict_regime(i)
            w1 = wasserstein1_1d(ya, wa / wa.sum(), yb, wb / wb.sum())
            per_regime[i] = w1
            combined += shared * w1
    mass_gap = float(np.abs(mass_mu - mass_nu).sum())
    combined += mass_gap
    bl = bl_lower_bound(mu, nu)
    if bl > combined + 1e-9:
        raise AssertionError(
            f"dictionary lower bound {bl} exceeds the combined score {combined}")
    return DistanceReport(per_regime_w1=per_regime, regime_mass_gap=mass_gap,
                          combined=combined, bl_lower=bl)
