"""Distances between weighted empirical measures on the product state space.

The headline quantity is the exact 1-D Wasserstein-1 distance per regime,
combined into a product-space score, bracketed from below by a dictionary
estimate of the bounded-Lipschitz distance. On the line W1 is the L1
distance between the two CDFs (Vallender 1973), so it needs each measure
sorted once and one linear merge of the two sorted runs, in scratch of about
four arrays of the merged length. Both distances read a measure as one
sorted run per regime (``sort_measure``), so a measure is sorted once for
every distance it enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import WeightedEmpiricalMeasure

MASS_MATCH_TOL = 1e-9
BL_ANCHORS = 64
"""Ramp anchors of ``bl_lower_bound``, evenly spaced over the joint support."""


class SortedRun:
    """Atoms of one regime in ascending location, with the two sums W1 scales
    their weights by: ``weights / total / mass`` are the run's CDF steps. Both
    sums are taken in the measure's own atom order, so W1 keeps the bits of a
    call on the unsorted arrays.

    This and ``SortedMeasure`` are plain slotted classes: a frozen dataclass
    costs about half a millisecond to define, at every start of the program.
    """

    __slots__ = ("ys", "weights", "total", "mass")

    def __init__(self, ys: np.ndarray, weights: np.ndarray, total: float, mass: float):
        self.ys, self.weights, self.total, self.mass = ys, weights, total, mass

    def __len__(self) -> int:
        return self.ys.size


def _sorted_run(ys: np.ndarray, weights: np.ndarray, total: float, mass: float) -> SortedRun:
    order = np.argsort(ys)
    return SortedRun(ys[order], weights[order], total, mass)


class SortedMeasure:
    """A probability measure held as one sorted run per regime, 16 bytes per atom
    against the measure's 24, with its ``regime_mass``."""

    __slots__ = ("runs", "regime_mass")

    def __init__(self, runs: tuple[SortedRun, ...], regime_mass: np.ndarray):
        self.runs, self.regime_mass = runs, regime_mass

    @property
    def n_atoms(self) -> int:
        """The atom count that perfbench/tracer.py reads off a ``bl_lower_bound`` argument."""
        return sum(len(run) for run in self.runs)


def sort_measure(m: WeightedEmpiricalMeasure | SortedMeasure, n_regimes: int,
                 role: str = "the") -> SortedMeasure:
    """The normalized ``m``, each regime's atoms restricted and argsorted once.

    A measure that enters several distances is sorted once this way; a sorted
    ``m`` is returned as it is. An atom in a regime outside 0..n_regimes-1 is
    a ValueError that names ``role``.
    """
    if isinstance(m, SortedMeasure):
        if len(m.runs) != n_regimes:
            raise ValueError(f"{role} measure is sorted over {len(m.runs)} regimes, "
                             f"not {n_regimes}")
        return m
    m = m.normalize()
    regime_mass = m.regime_mass(n_regimes)
    if regime_mass.size > n_regimes:  # bincount grows past minlength to the largest regime
        raise ValueError(f"{role} measure has an atom in regime {regime_mass.size - 1}, "
                         f"outside 0..{n_regimes - 1}")
    runs = []
    for i in range(n_regimes):
        ys, weights = m.restrict_regime(i)
        total = weights.sum()
        mass = (weights / total).sum() if total > 0 else 0.0
        runs.append(_sorted_run(ys, weights, total, mass))
    return SortedMeasure(tuple(runs), regime_mass)


def _raw_run(values, weights) -> SortedRun:
    """One side of ``wasserstein1_1d`` given as arrays, sorted."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (values.ndim == 1 and values.shape == weights.shape):
        raise ValueError("each measure needs 1-D values and weights of one length")
    if values.size == 0:
        raise ValueError("empty atom set")
    return _sorted_run(values, weights, 1.0, weights.sum())


def wasserstein1_1d(values_a: np.ndarray | SortedRun, weights_a: np.ndarray | None,
                    values_b: np.ndarray | SortedRun, weights_b: np.ndarray | None) -> float:
    """Exact W1 between weighted atom sets on the line.

    Computed as the area between the two CDFs over the merged support: each
    side is sorted on its own, and a stable sort of the two runs merges them
    in one pass, a's atom first on a cross tie. Total masses must agree to
    within MASS_MATCH_TOL (normalize first). A side may come presorted: a
    ``SortedRun`` in place of its values, with None for its weights.

    The runs are laid end to end, a's CDF steps then b's negated, and a run
    that nothing else holds is freed there. The merged locations and then
    their gaps reuse the two laid-out arrays, so the scratch is four arrays
    of the merged length.
    """
    run_a, run_b = (v if isinstance(v, SortedRun) else _raw_run(v, w)
                    for v, w in ((values_a, weights_a), (values_b, weights_b)))
    del values_a, values_b
    n_a, mass_a, mass_b = len(run_a), run_a.mass, run_b.mass
    if abs(mass_a - mass_b) > MASS_MATCH_TOL * max(mass_a, mass_b, 1.0):
        raise ValueError(f"total masses differ: {mass_a} vs {mass_b}")
    pos = np.concatenate([run_a.ys, run_b.ys])
    steps = np.empty(pos.size)
    np.divide(run_a.weights, run_a.total, out=steps[:n_a])
    steps[:n_a] /= mass_a
    np.divide(run_b.weights, run_b.total, out=steps[n_a:])
    steps[n_a:] /= -mass_b
    del run_a, run_b
    # a stable sort merges the two runs in one pass; a cross tie keeps a's atom first
    order = np.argsort(pos, kind="stable")
    cdf_gap = steps[order]
    # the indices are in range; mode="clip" writes to out without a buffer copy
    np.take(pos, order, out=steps, mode="clip")
    del order
    np.cumsum(cdf_gap, out=cdf_gap)
    np.abs(cdf_gap, out=cdf_gap)
    np.subtract(steps[1:], steps[:-1], out=pos[:-1])
    return float(np.dot(cdf_gap[:-1], pos[:-1])) * mass_a


BL_SUM_BLOCK = 1024
"""Most atoms per partial bin sum in the ramp bound; the partial sums of a bin
are added in turn, so blocking keeps its rounding near that of a dot product."""


def _ramp_sums(runs: tuple[SortedRun, ...], anchors: np.ndarray) -> np.ndarray:
    """sum of w * clip(y - a, -1, 1) over each run's atoms, for every anchor a.

    Each sorted run is cut at the ramp breakpoints a +- 1 into bins; bin b
    holds breaks[b-1] < y <= breaks[b]. Below a - 1 (bins <= lo_pos) the ramp
    is -1, above a + 1 (bins > hi_pos) it is 1, and in between it is y - a,
    so each sum is a difference of per-bin prefix sums of w and w * y.
    Returns a (len(runs), anchors.size) array.
    """
    breaks = np.sort(np.concatenate([anchors - 1.0, anchors + 1.0]))
    lo_pos = np.searchsorted(breaks, anchors - 1.0)
    hi_pos = np.searchsorted(breaks, anchors + 1.0)
    n_bins = breaks.size + 1
    mass = np.zeros((len(runs), n_bins))
    moment = np.zeros((len(runs), n_bins))
    for r, run in enumerate(runs):
        n = len(run)
        if n == 0:
            continue
        # bin b is the run's atoms edges[b-1] .. edges[b] - 1
        edges = np.searchsorted(run.ys, breaks, side="right")
        # pieces of at most BL_SUM_BLOCK atoms, none across a bin edge
        cuts = np.sort(np.concatenate([edges[edges < n], np.arange(0, n, BL_SUM_BLOCK)]))
        starts = cuts[np.diff(cuts, prepend=-1) > 0]
        piece_bin = np.searchsorted(edges, starts, side="right")
        mass[r] = np.bincount(piece_bin, weights=np.add.reduceat(run.weights, starts),
                              minlength=n_bins)
        moment[r] = np.bincount(piece_bin, weights=np.add.reduceat(run.weights * run.ys, starts),
                                minlength=n_bins)
    cum_mass = np.cumsum(mass, axis=1)
    cum_moment = np.cumsum(moment, axis=1)
    below = cum_mass[:, lo_pos]
    inside = cum_mass[:, hi_pos] - below
    above = cum_mass[:, -1:] - cum_mass[:, hi_pos]
    return above - below + (cum_moment[:, hi_pos] - cum_moment[:, lo_pos]) - anchors * inside


def bl_lower_bound(mu: WeightedEmpiricalMeasure | SortedMeasure,
                   nu: WeightedEmpiricalMeasure | SortedMeasure) -> float:
    """Dictionary lower bound on the bounded-Lipschitz distance.

    Maximizes |<f, mu> - <f, nu>| over clamped affine ramps clip(y - a, -1, 1)
    through BL_ANCHORS anchors a, alone and crossed with regime indicators.
    Every dictionary member is 1-Lipschitz for the product metric and bounded
    by 1, so the value is a valid lower bound of the true distance. The
    mirrored ramps clip(a - y, -1, 1) are exact negatives, so they add
    nothing to the maximum of |gap|. A side may come presorted by
    ``sort_measure``; the other is then sorted over the same regimes.
    """
    presorted = [len(m.runs) for m in (mu, nu) if isinstance(m, SortedMeasure)]
    n_regimes = presorted[0] if presorted else int(
        max(mu.regimes.max(initial=0), nu.regimes.max(initial=0))) + 1
    mu, nu = sort_measure(mu, n_regimes), sort_measure(nu, n_regimes)
    located = [run.ys for m in (mu, nu) for run in m.runs if len(run)]
    anchors = np.linspace(min(ys[0] for ys in located), max(ys[-1] for ys in located),
                          BL_ANCHORS)
    gaps = _ramp_sums(mu.runs, anchors) - _ramp_sums(nu.runs, anchors)
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


def measure_distance(mu: WeightedEmpiricalMeasure | SortedMeasure,
                     nu: WeightedEmpiricalMeasure | SortedMeasure,
                     n_regimes: int) -> DistanceReport:
    """Per-regime W1 composite over regimes 0..n_regimes-1 plus the dictionary lower bound.

    Either side may come presorted by ``sort_measure(m, n_regimes)``, so a
    measure that enters several distances is sorted once. An atom in a regime
    outside 0..n_regimes-1 is a ValueError.
    """
    mu = sort_measure(mu, n_regimes, "the first")
    nu = sort_measure(nu, n_regimes, "the second")
    mass_mu, mass_nu = mu.regime_mass, nu.regime_mass
    bl = bl_lower_bound(mu, nu)
    # a side sorted here is held only by these lists, so W1 frees each of its
    # runs once it is laid out: no name holds a run passed to it
    runs_mu, runs_nu = list(mu.runs), list(nu.runs)
    del mu, nu
    per_regime = {}
    combined = 0.0
    for i in range(n_regimes):
        shared = min(mass_mu[i], mass_nu[i])
        if shared > 0:
            w1 = wasserstein1_1d(runs_mu.pop(0), None, runs_nu.pop(0), None)
            per_regime[i] = w1
            combined += shared * w1
        else:
            del runs_mu[0], runs_nu[0]
    mass_gap = float(np.abs(mass_mu - mass_nu).sum())
    combined += mass_gap
    if bl > combined + 1e-9:
        raise AssertionError(
            f"dictionary lower bound {bl} exceeds the combined score {combined}")
    return DistanceReport(per_regime_w1=per_regime, regime_mass_gap=mass_gap,
                          combined=combined, bl_lower=bl)
