"""Chain simulation, path interpolation and occupation-measure estimation.

The embedded chain records post-jump states and cumulative jump times; the
continuous-time process interpolates it deterministically along the regime
flow of each segment. Heavy Monte Carlo runs as an ensemble of replicas,
vectorized across replicas and split into fixed-size chunks with one spawned
RNG stream per chunk, so results are reproducible and independent of the
worker-thread count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hazard import invert_holding
from .models import ModelSpec
from .state import ExtendedState, StatePoint, WeightedEmpiricalMeasure

REPLICA_CHUNK = 512
"""Replicas per RNG stream in ``run_ensemble``; fixed so outputs do not depend on threading."""
PMF_CHUNK = 4096
"""Replicas per RNG stream in ``jump_count_pmf``."""


@dataclass(frozen=True)
class JumpTrajectory:
    """One realization of the embedded chain: (tau_n, y_n, xi_n) for n = 0..N."""

    taus: np.ndarray
    ys: np.ndarray
    regimes: np.ndarray

    def __post_init__(self):
        taus = np.ascontiguousarray(self.taus, dtype=float)
        ys = np.ascontiguousarray(self.ys, dtype=float)
        regimes = np.ascontiguousarray(self.regimes, dtype=np.int64)
        if not (taus.size == ys.size == regimes.size >= 1):
            raise ValueError("trajectory arrays must align and be nonempty")
        if not (np.isfinite(taus).all() and np.isfinite(ys).all()):
            raise ValueError("trajectory entries must be finite")
        if taus.size > 1 and not (np.diff(taus) > 0).all():
            raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "regimes", regimes)

    @property
    def n_steps(self) -> int:
        return self.taus.size - 1

    def state(self, n: int) -> ExtendedState:
        return ExtendedState(StatePoint(float(self.ys[n]), int(self.regimes[n])), float(self.taus[n]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "tau", "y", "xi"])
            for n in range(self.taus.size):
                writer.writerow([n, f"{self.taus[n]:.17g}", f"{self.ys[n]:.17g}", int(self.regimes[n])])


@dataclass(frozen=True)
class PdmpPath:
    """Piecewise-deterministic path interpolating a jump trajectory.

    On [tau_n, tau_{n+1}) the location follows the regime-n flow started at
    y_n; the path is right-continuous at jump times and covers times up to
    the last recorded jump.
    """

    model: ModelSpec
    trajectory: JumpTrajectory

    @property
    def horizon(self) -> float:
        return float(self.trajectory.taus[-1])

    def evaluate_many(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        taus = self.trajectory.taus
        if np.any(ts < taus[0]) or np.any(ts > taus[-1]):
            raise ValueError("evaluation time outside the covered horizon")
        seg = np.searchsorted(taus, ts, side="right") - 1
        seg = np.minimum(seg, taus.size - 1)
        regimes = self.trajectory.regimes[seg]
        ys = self.model.flow.evaluate(regimes, ts - taus[seg], self.trajectory.ys[seg])
        return ys, regimes

    def evaluate(self, t: float) -> StatePoint:
        ys, regimes = self.evaluate_many(np.array([t]))
        return StatePoint(float(ys[0]), int(regimes[0]))


def count_jumps(traj: JumpTrajectory, t: float) -> int:
    """Number of jumps up to and including time t (boundary inclusive)."""
    if t < traj.taus[0]:
        raise ValueError("time precedes the start of the trajectory")
    return int(np.searchsorted(traj.taus, t, side="right") - 1)


def step_chain(model: ModelSpec, state: ExtendedState, rng: np.random.Generator,
               holding_time: Optional[float] = None) -> ExtendedState:
    """One transition of the extended chain.

    Draws the holding time from the hazard law (unless forced through
    ``holding_time``), moves along the current regime's flow, then jumps and
    switches. The clock advances strictly.
    """
    x = state.x
    if holding_time is None:
        target = -math.log1p(-rng.random())
        dt = float(invert_holding(model.hazard, x.i, np.array([x.y]), np.array([target]))[0])
    else:
        if holding_time <= 0:
            raise ValueError("forced holding time must be > 0")
        dt = float(holding_time)
    pre_jump = float(model.flow.evaluate(x.i, dt, x.y))
    ys_post, regimes_post = model.jump.sample_vec(np.array([pre_jump]), np.array([x.i]), rng)
    return ExtendedState(StatePoint(float(ys_post[0]), int(regimes_post[0])), state.s + dt)


def run_chain(model: ModelSpec, init: ExtendedState, n_steps: int,
              rng: np.random.Generator) -> JumpTrajectory:
    """Iterate the chain n_steps times from the given initial state."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    taus = np.empty(n_steps + 1)
    ys = np.empty(n_steps + 1)
    regimes = np.empty(n_steps + 1, dtype=np.int64)
    state = init
    taus[0], ys[0], regimes[0] = state.s, state.x.y, state.x.i
    for n in range(1, n_steps + 1):
        state = step_chain(model, state, rng)
        taus[n], ys[n], regimes[n] = state.s, state.x.y, state.x.i
    return JumpTrajectory(taus=taus, ys=ys, regimes=regimes)


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

    def trajectory(self, r: int) -> JumpTrajectory:
        for taus, ys, regimes in self.chunks:
            if r < taus.shape[0]:
                return JumpTrajectory(taus=taus[r], ys=ys[r], regimes=regimes[r])
            r -= taus.shape[0]
        raise IndexError("replica index out of range")

    def holding_times(self) -> np.ndarray:
        return np.concatenate([np.diff(c[0], axis=1).ravel() for c in self.chunks])


def _advance(model: ModelSpec, ys: np.ndarray, regimes: np.ndarray,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorized chain step for a block of replicas.

    Exactly three RNG vectors are consumed per step (holding, jump, switch),
    independent of the regime mix, which keeps streams reproducible.
    """
    targets = -np.log1p(-rng.random(ys.shape))
    dts = invert_holding(model.hazard, regimes, ys, targets)
    pre = model.flow.evaluate(regimes, dts, ys)
    ys_post, regimes_post = model.jump.sample_vec(pre, regimes, rng)
    return dts, ys_post, regimes_post


def _run_chunk(model: ModelSpec, size: int, y0: float, i0: int, seed,
               n_steps: Optional[int], t_end: Optional[float]):
    rng = np.random.default_rng(seed)
    ys = np.full(size, float(y0))
    regimes = np.full(size, int(i0), dtype=np.int64)
    taus = np.zeros(size)
    ys_hist = [ys.copy()]
    regimes_hist = [regimes.copy()]
    taus_hist = [taus.copy()]
    step = 0
    while True:
        if n_steps is not None and step >= n_steps:
            break
        if n_steps is None and float(taus.min()) >= t_end:
            break
        dts, ys, regimes = _advance(model, ys, regimes, rng)
        taus = taus + dts
        ys_hist.append(ys.copy())
        regimes_hist.append(regimes.copy())
        taus_hist.append(taus.copy())
        step += 1
    return (np.column_stack(taus_hist), np.column_stack(ys_hist),
            np.column_stack(regimes_hist))


def _chunk_sizes(n_replicas: int, chunk: int) -> list[int]:
    """Full chunks of ``chunk`` replicas, then the remainder."""
    sizes = [chunk] * (n_replicas // chunk)
    if n_replicas % chunk:
        sizes.append(n_replicas % chunk)
    return sizes


def _map_streams(work, items: Sequence, seed, threads: int = 1) -> list:
    """``work(item, stream_seed)`` for each item, in order, one spawned stream per item.

    The streams depend only on ``seed`` and the item count, so the results
    do not depend on ``threads``.
    """
    seeds = np.random.SeedSequence(seed).spawn(len(items))
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, items, seeds))
    return [work(item, s) for item, s in zip(items, seeds)]


def run_ensemble(model: ModelSpec, n_replicas: int, seed, y0: float = 0.0, i0: int = 0,
                 n_steps: Optional[int] = None, t_end: Optional[float] = None,
                 threads: int = 1) -> ChainEnsemble:
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
        _chunk_sizes(n_replicas, REPLICA_CHUNK), seed, threads)
    return ChainEnsemble(model=model, chunks=tuple(chunks))


def chain_measure(ens: ChainEnsemble, burn_in_steps: int) -> WeightedEmpiricalMeasure:
    """Equal-weight post-jump states of every replica past the burn-in."""
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


def occupation_measure(paths: Sequence[PdmpPath], burn_in: float, horizon: float,
                       samples_per_path: int, rng: np.random.Generator) -> WeightedEmpiricalMeasure:
    """Time-average estimate of the flow-process law over an observation window.

    Samples each path at stratified-uniform times in [burn_in, horizon] with
    equal weights and returns the normalized pooled measure.
    """
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    short = [p.horizon for p in paths if p.horizon < horizon]
    if short:
        raise ValueError(f"{len(short)} path(s) end before the horizon {horizon}")
    ys_all, regimes_all = [], []
    for path in paths:
        ts = _occupation_times(burn_in, horizon, samples_per_path, rng, 1)[0]
        ys, regimes = path.evaluate_many(ts)
        ys_all.append(ys)
        regimes_all.append(regimes)
    return WeightedEmpiricalMeasure.from_samples(
        np.concatenate(ys_all), np.concatenate(regimes_all)).normalize()


@dataclass(frozen=True)
class OccupationSample:
    """Occupation draw with the sampling times kept for serialization."""

    times: np.ndarray
    ys: np.ndarray
    regimes: np.ndarray

    def measure(self) -> WeightedEmpiricalMeasure:
        return WeightedEmpiricalMeasure.from_samples(self.ys, self.regimes).normalize()


def occupation_from_ensemble(ens: ChainEnsemble, horizon: float, samples_per_replica: int,
                             seed, burn_in: Optional[float] = None) -> OccupationSample:
    """Vectorized occupation sampling across all replicas of an ensemble.

    The burn-in defaults to 20% of the horizon. Every replica must have been
    simulated past the horizon.
    """
    if burn_in is None:
        burn_in = 0.2 * horizon
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    if ens.min_horizon < horizon:
        raise ValueError("ensemble was not simulated up to the requested horizon")

    def sample_chunk(chunk, chunk_seed):
        taus, ys, regimes = chunk
        rows = taus.shape[0]
        ts = _occupation_times(burn_in, horizon, samples_per_replica,
                               np.random.default_rng(chunk_seed), rows)
        seg = np.empty(ts.shape, dtype=np.int64)
        for r in range(rows):
            seg[r] = np.searchsorted(taus[r], ts[r], side="right") - 1
        row_idx = np.repeat(np.arange(rows), samples_per_replica)
        seg_flat = seg.ravel()
        xi_seg = regimes[row_idx, seg_flat]
        y_at = ens.model.flow.evaluate(xi_seg, ts.ravel() - taus[row_idx, seg_flat],
                                       ys[row_idx, seg_flat])
        return ts.ravel(), y_at, xi_seg

    times, ys, regimes = zip(*_map_streams(sample_chunk, ens.chunks, seed))
    return OccupationSample(times=np.concatenate(times), ys=np.concatenate(ys),
                            regimes=np.concatenate(regimes))


def jump_count_pmf(model: ModelSpec, t_values: Sequence[float], n_replicas: int, seed,
                   y0: float = 0.0, i0: int = 0, max_count: int = 30,
                   threads: int = 1) -> dict[float, np.ndarray]:
    """Empirical pmf of the jump count at each requested time.

    Returns, per time t, the vector of relative frequencies of {count = n}
    for n = 0..max_count (the last bin absorbs any overflow), pooled over
    all replicas. Chunks are processed and discarded one by one, so replica
    counts in the millions stay cheap.
    """
    t_max = max(t_values)

    def work(size, chunk_seed):
        taus, _, _ = _run_chunk(model, size, y0, i0, chunk_seed, None, t_max)
        counts = np.empty((len(t_values), size), dtype=np.int64)
        for j, t in enumerate(t_values):
            counts[j] = (taus <= t).sum(axis=1) - 1
        return np.stack([np.bincount(np.minimum(row, max_count), minlength=max_count + 1)
                         for row in counts])

    partials = _map_streams(work, _chunk_sizes(n_replicas, PMF_CHUNK), seed, threads)
    totals = np.sum(partials, axis=0)
    return {t: totals[j] / n_replicas for j, t in enumerate(t_values)}
