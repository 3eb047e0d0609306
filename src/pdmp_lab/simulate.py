"""Chain simulation, path interpolation and occupation-measure estimation.

The embedded chain records post-jump states and cumulative jump times; the
continuous-time process interpolates it deterministically along the regime
flow of each segment. Heavy Monte Carlo runs as an ensemble of replicas,
vectorized across replicas and split into chunks of ``REPLICA_CHUNK`` with one
spawned RNG stream per chunk, run serially in chunk order, so results depend
only on the seed and the replica count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hazard import invert_holding
from .models import ModelSpec
from .state import WeightedEmpiricalMeasure

REPLICA_CHUNK = 4096
"""Replicas per spawned RNG stream in ``run_ensemble`` and ``jump_count_pmf``."""


def count_jumps(taus: np.ndarray, t: float) -> np.ndarray:
    """Jumps up to and including time t (boundary inclusive), one count per row of ``taus``."""
    if np.any(t < taus[:, 0]):
        raise ValueError("time precedes the start of the trajectory")
    return (taus <= t).sum(axis=1) - 1


def evaluate_paths(model: ModelSpec, chunk, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Location and regime of each replica path of ``chunk`` at times ``ts`` of shape (rows, k).

    ``chunk`` is one (taus, ys, regimes) triple of ``ChainEnsemble.chunks``.
    On [tau_n, tau_{n+1}) a row follows the regime-n flow started at y_n;
    the path is right-continuous at jump times and covers times up to its
    last recorded jump.
    """
    taus, ys, regimes = chunk
    if np.any(ts < taus[:, :1]) or np.any(ts > taus[:, -1:]):
        raise ValueError("evaluation time outside the covered horizon")
    seg = np.empty(ts.shape, dtype=np.int64)
    for r in range(ts.shape[0]):
        seg[r] = np.searchsorted(taus[r], ts[r], side="right") - 1
    rows = np.arange(ts.shape[0])[:, None]
    regimes_at = regimes[rows, seg]
    return model.flow.evaluate(regimes_at, ts - taus[rows, seg], ys[rows, seg]), regimes_at


@dataclass(frozen=True)
class ChainEnsemble:
    """Replica trajectories stored chunk-wise: (taus, ys, regimes) 2-D arrays."""

    model: ModelSpec
    chunks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def n_replicas(self) -> int:
        return sum(c[0].shape[0] for c in self.chunks)

    @property
    def min_horizon(self) -> float:
        return min(float(c[0][:, -1].min()) for c in self.chunks)


def chain_step(model: ModelSpec, ys: np.ndarray, regimes: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorized chain step: (holding times, post-jump locations, post-jump regimes).

    Exactly three RNG vectors are consumed per step (holding, jump, switch),
    independent of the regime mix, which keeps streams reproducible.
    """
    targets = -np.log1p(-rng.random(ys.shape))
    dts = invert_holding(model.hazard, regimes, ys, targets)
    pre = model.flow.evaluate(regimes, dts, ys)
    ys_post, regimes_post = model.jump.sample_vec(pre, regimes, rng)
    return dts, ys_post, regimes_post


def horizon_step_cap(mu: float) -> int:
    """Step cap of a horizon run with mu = lambda_high * t_end jumps expected at most.

    A holding time solves H(y, i, t) = E with E ~ Exp(1), and H grows at
    most at rate lambda_high, so it is at least E / lambda_high. A replica
    still short of t_end after n steps therefore has E_1 + ... + E_n <
    mu, and P(E_1 + ... + E_n < mu) = P(Poisson(mu) >= n). The Chernoff
    bound P(Poisson(mu) >= n) <= exp(-mu) (e mu / n)^n for n > mu gives,
    at n >= e^2 mu, at most exp(-mu - n) <= exp(-n). With n = ceil(e^2 mu)
    + 64 an honest replica reaches the cap with probability below exp(-64)
    ~ 1.6e-28, so hitting it means the holding times are shorter than the
    rate bound allows.
    """
    if not math.isfinite(mu):
        raise ValueError(f"horizon run needs a finite t_end (lambda_high * t_end = {mu})")
    return math.ceil(math.e ** 2 * mu) + 64


def _run_chunk(model: ModelSpec, size: int, y0: float, i0: int, seed,
               n_steps: Optional[int], t_end: Optional[float]):
    rng = np.random.default_rng(seed)
    ys = np.full(size, float(y0))
    regimes = np.full(size, int(i0), dtype=np.int64)
    taus = np.zeros(size)
    ys_hist = [ys]
    regimes_hist = [regimes]
    taus_hist = [taus]
    horizon_mode = n_steps is None
    cap = horizon_step_cap(model.intensity.upper * t_end) if horizon_mode else n_steps
    for _ in range(cap):
        if horizon_mode and float(taus.min()) >= t_end:
            break
        dts, ys, regimes = chain_step(model, ys, regimes, rng)
        taus = taus + dts
        ys_hist.append(ys)
        regimes_hist.append(regimes)
        taus_hist.append(taus)
    else:
        if horizon_mode and float(taus.min()) < t_end:
            slow = int(np.argmin(taus))
            raise RuntimeError(
                f"horizon run hit its cap of {cap} steps short of t_end={t_end:.6g}: slowest "
                f"replica {slow} of its chunk of {size} is at clock {taus[slow]:.17g} "
                f"(y={ys[slow]:.17g}, regime {regimes[slow]}); are the declared rate bounds valid?")
    return (np.column_stack(taus_hist), np.column_stack(ys_hist),
            np.column_stack(regimes_hist))


def _chunk_sizes(n_replicas: int) -> list[int]:
    """Full chunks of ``REPLICA_CHUNK`` replicas, then the remainder."""
    sizes = [REPLICA_CHUNK] * (n_replicas // REPLICA_CHUNK)
    if n_replicas % REPLICA_CHUNK:
        sizes.append(n_replicas % REPLICA_CHUNK)
    return sizes


def _map_streams(work, items: Sequence, seed) -> list:
    """``work(item, stream_seed)`` for each item, in order, one spawned stream per item."""
    seeds = np.random.SeedSequence(seed).spawn(len(items))
    return [work(item, s) for item, s in zip(items, seeds)]


def run_ensemble(model: ModelSpec, n_replicas: int, seed, y0: float = 0.0, i0: int = 0,
                 n_steps: Optional[int] = None, t_end: Optional[float] = None) -> ChainEnsemble:
    """Simulate independent replicas of the chain from a common start.

    Either a fixed step count or a time horizon must be given; in horizon
    mode every replica is advanced until its clock passes ``t_end``.
    """
    if (n_steps is None) == (t_end is None):
        raise ValueError("give exactly one of n_steps or t_end")
    if n_replicas <= 0:
        raise ValueError("n_replicas must be > 0")
    chunks = _map_streams(
        lambda size, s: _run_chunk(model, size, y0, i0, s, n_steps, t_end),
        _chunk_sizes(n_replicas), seed)
    return ChainEnsemble(model=model, chunks=tuple(chunks))


def chain_measure(ens: ChainEnsemble, burn_in_steps: int) -> WeightedEmpiricalMeasure:
    """Equal-weight post-jump states of every replica past the burn-in."""
    if burn_in_steps < 0:
        raise ValueError(f"burn_in_steps must be >= 0, got {burn_in_steps}")
    ys, regimes = [], []
    for taus, y, xi in ens.chunks:
        if burn_in_steps + 1 > y.shape[1]:
            raise ValueError("burn-in exceeds the number of recorded steps")
        ys.append(y[:, burn_in_steps + 1:].ravel())
        regimes.append(xi[:, burn_in_steps + 1:].ravel())
    ys = np.concatenate(ys)
    if ys.size == 0:
        raise ValueError("no post-burn-in atoms; lower the burn-in or add steps")
    return WeightedEmpiricalMeasure.from_samples(ys, np.concatenate(regimes)).normalize()


def _occupation_times(burn_in: float, horizon: float, k: int,
                      rng: np.random.Generator, rows: int) -> np.ndarray:
    """Stratified-uniform sampling times, one uniform per stratum and row."""
    offsets = (np.arange(k) + rng.random((rows, k))) / k
    return burn_in + offsets * (horizon - burn_in)


@dataclass(frozen=True)
class OccupationSample:
    """Occupation draw with the sampling times kept for serialization."""

    times: np.ndarray
    ys: np.ndarray
    regimes: np.ndarray

    def measure(self) -> WeightedEmpiricalMeasure:
        return WeightedEmpiricalMeasure.from_samples(self.ys, self.regimes).normalize()


def occupation_from_ensemble(ens: ChainEnsemble, horizon: float, samples_per_replica: int,
                             seed, burn_in: float) -> OccupationSample:
    """Vectorized occupation sampling over [burn_in, horizon] across all replicas.

    Every replica must have been simulated past the horizon.
    """
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    if ens.min_horizon < horizon:
        raise ValueError("ensemble was not simulated up to the requested horizon")

    def sample_chunk(chunk, chunk_seed):
        ts = _occupation_times(burn_in, horizon, samples_per_replica,
                               np.random.default_rng(chunk_seed), chunk[0].shape[0])
        ys, regimes = evaluate_paths(ens.model, chunk, ts)
        return ts.ravel(), ys.ravel(), regimes.ravel()

    times, ys, regimes = zip(*_map_streams(sample_chunk, ens.chunks, seed))
    return OccupationSample(times=np.concatenate(times), ys=np.concatenate(ys),
                            regimes=np.concatenate(regimes))


def jump_count_pmf(model: ModelSpec, t_values: Sequence[float], n_replicas: int, seed,
                   max_count: int = 30, threads: int = 1) -> dict[float, np.ndarray]:
    """Empirical pmf of the jump count at each requested time.

    Returns, per time t, the vector of relative frequencies of {count = n}
    for n = 0..max_count (the last bin absorbs any overflow), pooled over
    all replicas. Chunks are processed and discarded one by one, so replica
    counts in the millions stay cheap. Every replica starts at (0, regime 0),
    with the chunks and streams of
    ``run_ensemble(model, n_replicas, seed, t_end=max(t_values))``.
    ``threads`` is ignored; it stays for the callers in ``perfbench/workloads.py``.
    """
    if len(t_values) == 0:
        raise ValueError("t_values must hold at least one time")
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")
    if n_replicas <= 0:
        raise ValueError("n_replicas must be > 0")
    t_max = max(t_values)

    def work(size, chunk_seed):
        taus, _, _ = _run_chunk(model, size, 0.0, 0, chunk_seed, None, t_max)
        counts = np.empty((len(t_values), size), dtype=np.int64)
        for j, t in enumerate(t_values):
            counts[j] = count_jumps(taus, t)
        return np.stack([np.bincount(np.minimum(row, max_count), minlength=max_count + 1)
                         for row in counts])

    partials = _map_streams(work, _chunk_sizes(n_replicas), seed)
    totals = np.sum(partials, axis=0)
    return {t: totals[j] / n_replicas for j, t in enumerate(t_values)}
