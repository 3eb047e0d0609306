"""Test oracles: statistics and reference computations the tests check the
package against. Nothing here runs in the command-line program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from pdmp_lab.diagnostics import IFS_PAIRS, JUMP_DISPLACEMENT_PROBES
from pdmp_lab.flows import Semiflow
from pdmp_lab.grid import GridModel
from pdmp_lab.jumps import FiniteAffineIfs, IfsKernel
from pdmp_lab.models import ModelSpec
from pdmp_lab.hazard import CumulativeHazard, invert_holding
from pdmp_lab.simulate import horizon_step_cap
from pdmp_lab.state import WeightedEmpiricalMeasure, ZeroMassError


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS: sup-norm of the empirical CDF minus an analytic CDF."""
    a = np.sort(np.asarray(samples, dtype=float))
    if a.size == 0:
        raise ValueError("empty sample set")
    grid = np.arange(1, a.size + 1) / a.size
    f = np.asarray(cdf(a), dtype=float)
    return float(max(np.abs(grid - f).max(), np.abs(grid - 1.0 / a.size - f).max()))


def ks_statistic_weighted(values_a, weights_a, values_b, weights_b) -> float:
    """Two-sample KS between weighted (self-normalized) empirical CDFs.

    With unit weights the cumulative sums are exact, so this is the plain
    two-sample statistic.
    """
    va = np.asarray(values_a, dtype=float)
    vb = np.asarray(values_b, dtype=float)
    wa = np.asarray(weights_a, dtype=float)
    wb = np.asarray(weights_b, dtype=float)
    oa, ob = np.argsort(va, kind="mergesort"), np.argsort(vb, kind="mergesort")
    va, wa = va[oa], np.cumsum(wa[oa]) / wa.sum()
    vb, wb = vb[ob], np.cumsum(wb[ob]) / wb.sum()
    pooled = np.concatenate([va, vb])
    ia = np.searchsorted(va, pooled, side="right")
    ib = np.searchsorted(vb, pooled, side="right")
    ca = np.where(ia > 0, wa[np.maximum(ia - 1, 0)], 0.0)
    cb = np.where(ib > 0, wb[np.maximum(ib - 1, 0)], 0.0)
    return float(np.abs(ca - cb).max())


def wasserstein1_concat(values_a, weights_a, values_b, weights_b) -> float:
    """Reference W1 on the line: one stable sort of both measures' atoms together.

    The area between the two CDFs, with a cross tie ordered a before b.
    """
    values_a = np.asarray(values_a, dtype=float)
    values_b = np.asarray(values_b, dtype=float)
    weights_a = np.asarray(weights_a, dtype=float)
    weights_b = np.asarray(weights_b, dtype=float)
    mass_a, mass_b = weights_a.sum(), weights_b.sum()
    pos = np.concatenate([values_a, values_b])
    contrib = np.concatenate([weights_a / mass_a, -weights_b / mass_b])
    order = np.argsort(pos, kind="mergesort")
    pos = pos[order]
    cdf_gap = np.cumsum(contrib[order])[:-1]
    return float(np.dot(np.abs(cdf_gap), np.diff(pos))) * mass_a


def effective_sample_size(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    return float(w.sum() ** 2 / np.dot(w, w))


def ks_critical(n: float, m: Optional[float] = None, alpha: float = 0.01) -> float:
    """Asymptotic KS critical value c(alpha) * sqrt(1/n [+ 1/m])."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    scale = 1.0 / n if m is None else 1.0 / n + 1.0 / m
    return c * math.sqrt(scale)


def expected_holding_time_gl(model: ModelSpec, y: float, i: int = 0, n_nodes: int = 96) -> float:
    """Mean holding time from (y, i), the integral of the survival function, by Gauss-Laguerre."""
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    hazard = np.asarray(model.hazard.value(i, nodes, np.full(nodes.shape, y)))
    # combined exponent keeps large nodes finite (hazard grows at least linearly)
    return float(np.dot(weights, np.exp(nodes - hazard)))


def hazard_by_legendre(hz: CumulativeHazard, i, t, y, n_nodes: int = 256) -> np.ndarray:
    """H(y, i, t) as the integral of lambda(S_i(h, y)) over h in [0, t] by one
    n_nodes-point Gauss-Legendre rule: reads only the intensity and the flow.

    Broadcasts over i, t and y. The rate along an affine flow has its poles
    pi / kappa off the real axis, so a long [0, t] at a fast rate needs the
    many nodes: 256 reach 1e-13 on t <= 40 at kappa <= 2.5, where 64 miss by 1e-7.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    i, t, y = (np.asarray(a)[..., None] for a in np.broadcast_arrays(i, t, y))
    h = 0.5 * t * (x + 1.0)
    return 0.5 * t[..., 0] * (hz.intensity(hz.flow.evaluate(i, h, y)) @ w)


@dataclass(frozen=True)
class SemigroupReport:
    max_violation: float
    n_samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def check_semigroup(
    flow: Semiflow,
    n_samples: int = 10_000,
    tol: float = 1e-10,
    rng: Optional[np.random.Generator] = None,
    y_range: tuple[float, float] = (0.0, 15.0),
    t_range: tuple[float, float] = (0.0, 3.0),
) -> SemigroupReport:
    """Probe S_i(s, S_i(t, y)) = S_i(s + t, y) on random (s, t, y, i) triples.

    Violations are reported, not raised: the caller decides what is fatal.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    rng = np.random.default_rng(0) if rng is None else rng
    ys = rng.uniform(*y_range, size=n_samples)
    ss = rng.uniform(*t_range, size=n_samples)
    ts = rng.uniform(*t_range, size=n_samples)
    regimes = rng.integers(0, flow.n_regimes, size=n_samples)
    two_step = flow.evaluate(regimes, ss, flow.evaluate(regimes, ts, ys))
    one_step = flow.evaluate(regimes, ss + ts, ys)
    worst = float(np.abs(two_step - one_step).max(initial=0.0))
    return SemigroupReport(max_violation=worst, n_samples=n_samples, tol=tol)


def grid_measure(grid: GridModel, v: np.ndarray) -> WeightedEmpiricalMeasure:
    """The measure with weight v[i * M + m] at (node m, regime i) of the grid."""
    m = grid.nodes.size
    ys = np.tile(grid.nodes, grid.n_regimes)
    regimes = np.repeat(np.arange(grid.n_regimes, dtype=np.int64), m)
    return WeightedEmpiricalMeasure(ys, regimes, np.asarray(v, dtype=float))


def chain_step(model: ModelSpec, ys: np.ndarray, regimes: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorized chain step: (holding times, post-jump locations, post-jump regimes).

    It draws what one chunk of the simulator's stepping loop draws per step:
    the holding uniforms, then the jump, then the switch.
    """
    targets = -np.log1p(-rng.random(ys.shape))
    dts = invert_holding(model.hazard, regimes, ys, targets)
    pre = model.flow.evaluate(regimes, dts, ys)
    ys_post, regimes_post = model.jump.sample_vec(pre, regimes, rng)
    return dts, ys_post, regimes_post


def reference_chunk(model: ModelSpec, size: int, seed, y0: float = 0.0, i0: int = 0,
                    n_steps: Optional[int] = None, t_end: Optional[float] = None):
    """(taus, ys, regimes) of one chunk run alone, one ``chain_step`` at a time into
    per-step lists: the serial loop the simulator's stepping loop reproduces bitwise."""
    rng = np.random.default_rng(seed)
    ys = np.full(size, float(y0))
    regimes = np.full(size, int(i0), dtype=np.int64)
    taus = np.zeros(size)
    history = [(taus, ys, regimes)]
    cap = horizon_step_cap(model.intensity.upper * t_end) if n_steps is None else n_steps
    for _ in range(cap):
        if n_steps is None and taus.min() >= t_end:
            break
        dts, ys, regimes = chain_step(model, ys, regimes, rng)
        taus = taus + dts
        history.append((taus, ys, regimes))
    else:
        if n_steps is None and taus.min() < t_end:
            raise RuntimeError(f"reference chunk hit its cap of {cap} steps")
    return tuple(np.column_stack(column) for column in zip(*history))


def chain_step_transform(model: ModelSpec, mu: WeightedEmpiricalMeasure,
                         rng: np.random.Generator) -> WeightedEmpiricalMeasure:
    """One ``chain_step`` applied to every atom, weights unchanged."""
    if mu.total_mass <= 0.0:
        raise ZeroMassError("transform input has zero mass")
    _, ys_post, regimes_post = chain_step(model, mu.ys, mu.regimes, rng)
    return WeightedEmpiricalMeasure(ys_post, regimes_post, mu.weights.copy())


def sample_thetas(ifs: IfsKernel, ys, rng) -> np.ndarray:
    """One theta per atom of ``ys`` as the stepping loop draws them: ``draw`` into
    a fresh array, then ``thetas``."""
    ys = np.asarray(ys, dtype=float)
    return ifs.thetas(ys, ifs.draw(rng, np.empty(ys.shape)))


def searchsorted_ifs_draw(ifs: FiniteAffineIfs, ys: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """``sample_thetas`` of a ``FiniteAffineIfs`` as it was written with a binary search:
    ``searchsorted(cdf, u, side="right")``, clipped to the last map, against the
    ``cumsum`` of the per-map entries of ``probs`` (uniform for None). A row with
    a callable entry is evaluated location by location, at each atom's own."""
    ys = np.asarray(ys, dtype=float)
    last = len(ifs.maps) - 1
    probs = (1.0 / (last + 1),) * (last + 1) if ifs.probs is None else ifs.probs
    us = rng.random(ys.shape)
    if not any(callable(e) for e in probs):
        out = np.searchsorted(np.cumsum(probs), us, side="right")
        return np.minimum(out, last).astype(np.int64)
    out = np.empty(ys.shape, dtype=np.int64)
    for at in np.ndindex(ys.shape):
        cdf = np.cumsum([e(ys[at]) if callable(e) else e for e in probs])
        out[at] = min(np.searchsorted(cdf, us[at], side="right"), last)
    return out


IFS_THETA_SAMPLES = 20_000
"""Map indices drawn at each pair by ``ifs_pairs_two_calls``."""


@dataclass(frozen=True)
class IfsPair:
    """One location pair of ``ifs_pairs_two_calls`` and its per-pair estimates."""

    u: float
    v: float
    contraction: float  # mean |w(u) - w(v)| over |u - v|, over the sampled thetas
    contraction_se: float  # its standard error
    contraction_rounding: float  # 4 eps of the mean |w(u)| + |w(v)|, over |u - v|
    density_lipschitz: float
    overlap: float


def ifs_pairs_two_calls(model: ModelSpec, rng: np.random.Generator) -> list[IfsPair]:
    """The kept location pairs of ``diagnostics.estimate_ifs_constants``, each with
    the Monte Carlo mean contraction over IFS_THETA_SAMPLES thetas drawn at u, as
    that estimate was written with one ``apply`` call per side of the pair, each
    on an ``np.full`` array.

    Each spread is rounded by about eps times the size of its images, far more
    than its standard error where every map moves the gap by the same factor;
    ``contraction_rounding`` bounds that with margin (1.5 eps seen at most)."""
    us = rng.uniform(0.0, model.y_max, size=IFS_PAIRS)
    vs = rng.uniform(0.0, model.y_max, size=IFS_PAIRS)
    keep = np.abs(us - vs) > 1e-9
    ifs = model.jump.ifs
    pairs = []
    for u, v in zip(us[keep], vs[keep]):
        gap = abs(u - v)
        thetas = sample_thetas(ifs, np.full(IFS_THETA_SAMPLES, u), rng)
        image_u = np.asarray(ifs.apply(thetas, np.full(IFS_THETA_SAMPLES, u)))
        image_v = np.asarray(ifs.apply(thetas, np.full(IFS_THETA_SAMPLES, v)))
        spread = np.abs(image_u - image_v)
        size = float(np.mean(np.abs(image_u) + np.abs(image_v)))
        pairs.append(IfsPair(
            u=float(u), v=float(v), contraction=float(spread.mean()) / gap,
            contraction_se=float(spread.std()) / math.sqrt(spread.size) / gap,
            contraction_rounding=4.0 * np.finfo(float).eps * size / gap,
            density_lipschitz=ifs.density_l1_gap(u, v) / gap,
            overlap=ifs.overlap_on(u, v, model.declared.jump_mean_contraction)))
    return pairs


def estimate_ifs_constants_two_calls(model: ModelSpec, rng: np.random.Generator
                                     ) -> tuple[float, float, float]:
    """The Monte Carlo reference of ``diagnostics.estimate_ifs_constants``: sup of
    the sampled mean contraction and of the density L1 modulus, and inf of the
    contracting overlap, over the pairs of ``ifs_pairs_two_calls``."""
    pairs = ifs_pairs_two_calls(model, rng)
    return (max([0.0] + [p.contraction for p in pairs]),
            max([0.0] + [p.density_lipschitz for p in pairs]),
            min([math.inf] + [p.overlap for p in pairs]))


JUMP_DISPLACEMENT_SAMPLES = 20_000
"""Thetas drawn at each location by ``sampled_displacements``."""


def sampled_displacements(ifs: IfsKernel, y: float, anchor: float,
                          rng: np.random.Generator) -> np.ndarray:
    """|w_theta(anchor) - anchor| for JUMP_DISPLACEMENT_SAMPLES thetas drawn at ``y``."""
    n = JUMP_DISPLACEMENT_SAMPLES
    thetas = sample_thetas(ifs, np.full(n, y), rng)
    return np.abs(np.asarray(ifs.apply(thetas, np.full(n, anchor))) - anchor)


def jump_displacement_bound_sampled(model: ModelSpec, rng: np.random.Generator) -> float:
    """The Monte Carlo reference of ``diagnostics.jump_displacement_bound``, as that
    bound was written: at each of the JUMP_DISPLACEMENT_PROBES locations, the mean
    of ``sampled_displacements`` plus three standard errors; the sup of those."""
    worst = 0.0
    for y in np.linspace(0.0, model.y_max, JUMP_DISPLACEMENT_PROBES):
        dist = sampled_displacements(model.jump.ifs, y, model.declared.anchor, rng)
        worst = max(worst, float(dist.mean() + 3.0 * dist.std() / math.sqrt(dist.size)))
    return worst


def saturating_hazard_out_of_place(hz: CumulativeHazard, i, t, y, slope: bool = False):
    """H(y, i, t) of the saturating pair, or (H, lambda(S_i(t, y))) with ``slope``,
    as ``hazard._saturating_hazard`` wrote it with a fresh array per operation."""
    gain = hz.intensity.gain
    top = hz.intensity.base + gain
    kappa, c = hz.flow.rate_of[i], hz.flow.anchor_of[i]
    one_c = 1.0 + c
    w0 = np.asarray(y, dtype=float) - c
    log_start = np.log(one_c + w0)
    rate_c = top - gain / one_c
    coef = gain / (kappa * one_c)
    s = one_c + w0 * np.exp(-kappa * t)
    value = rate_c * t - coef * (np.log(s) - log_start)
    return (value, top - gain / s) if slope else value


def survival_out_of_place(hz: CumulativeHazard, i, t, y):
    """``CumulativeHazard.survival`` as it was written with a fresh array per operation."""
    return np.exp(-np.asarray(hz.value(i, t, y), dtype=float))


def affine_flow_out_of_place(flow: Semiflow, i, t, y):
    """``AffineExpFlow.evaluate`` as it was written with a fresh array per operation."""
    c = flow.anchor_of[i]
    decay = np.exp(-flow.rate_of[i] * np.asarray(t, dtype=float))
    return np.asarray(y, dtype=float) * decay + c * (1.0 - decay)
