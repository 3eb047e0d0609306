"""Chain simulation, path interpolation and occupation-measure estimation.

The embedded chain records post-jump states and cumulative jump times; the
continuous-time process interpolates it deterministically along the regime
flow of each segment. Heavy Monte Carlo runs as an ensemble of replicas,
vectorized across replicas and split into chunks of ``REPLICA_CHUNK`` with one
spawned RNG stream per chunk. One stepping loop advances every chunk of one or
several ensembles together over one flat state of all their atoms. Per chunk,
each step only draws the chunk's variates from its own stream, in a fixed
order, and records the chunk's new states; the holding-time solve, the flow
and the jump and switch maps each run once per step over all atoms. So a
chunk's arrays depend only on its run's seed and replica count, not on what
runs beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .hazard import invert_holding
from .models import ModelSpec
from .state import WeightedEmpiricalMeasure

REPLICA_CHUNK = 4096
"""Replicas per spawned RNG stream in ``run_ensembles`` and ``jump_count_pmf``."""


def count_jumps(taus: np.ndarray, t: float) -> np.ndarray:
    """Jumps up to and including time t (boundary inclusive), one count per row of ``taus``."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
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
    def min_horizon(self) -> float:
        return min(float(c[0][:, -1].min()) for c in self.chunks)


def horizon_step_cap(mu: float) -> int:
    """Step cap of a horizon run with mu = lambda_high * t_end jumps expected at most.

    A holding time solves H(y, i, t) = E with E ~ Exp(1), and H grows at
    most at rate lambda_high, so it is at least E / lambda_high. A replica
    still short of t_end after n steps therefore has E_1 + ... + E_n <
    mu, and P(E_1 + ... + E_n < mu) = P(Poisson(mu) >= n). Bernstein's
    inequality bounds P(Poisson(mu) >= mu + x) by exp(-x^2 / (2 (mu + x/3))),
    which is exp(-64) at x = 64/3 + sqrt((64/3)^2 + 128 mu). With n =
    ceil(mu + x) an honest replica reaches the cap with probability below
    exp(-64) ~ 1.6e-28, so hitting it means the holding times are shorter
    than the rate bound allows. The cap also sizes a horizon chunk's history.
    """
    if not math.isfinite(mu):
        raise ValueError(f"horizon run needs a finite t_end (lambda_high * t_end = {mu})")
    mu = max(mu, 0.0)
    return math.ceil(mu + 64 / 3 + math.sqrt((64 / 3) ** 2 + 128 * mu))


@dataclass(frozen=True)
class EnsembleRun:
    """Independent replicas of the chain from a common start, on the stream ``seed``.

    Exactly one of a fixed step count or a time horizon is given; in horizon
    mode every replica is advanced until its clock passes ``t_end``.
    """

    n_replicas: int
    seed: object
    y0: float = 0.0
    i0: int = 0
    n_steps: Optional[int] = None
    t_end: Optional[float] = None

    def __post_init__(self):
        if (self.n_steps is None) == (self.t_end is None):
            raise ValueError("give exactly one of n_steps or t_end")
        if self.n_replicas <= 0:
            raise ValueError("n_replicas must be > 0")
        if self.n_steps is not None and self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.t_end is not None and not self.t_end >= 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")


class _Chunk:
    """One chunk of an ensemble run: its generator, its replicas' current states,
    and their history in step-major (cap + 1, size) arrays allocated once, so
    each step writes three contiguous rows.

    The cap is the step count of a fixed-step run and ``horizon_step_cap`` of
    a horizon run. Rows are written step by step, so the rows a horizon run
    never reaches are never written, and fresh pages of them are never
    paged in.
    """

    def __init__(self, model: ModelSpec, run: EnsembleRun, size: int, seed):
        self.rng = np.random.default_rng(seed)
        self.t_end = run.t_end
        self.cap = (run.n_steps if run.t_end is None
                    else horizon_step_cap(model.intensity.upper * run.t_end))
        self.clock = np.zeros(size)
        self.ys = np.full(size, float(run.y0))
        self.regimes = np.full(size, int(run.i0), dtype=np.int64)
        width = self.cap + 1
        self.history = (np.empty((width, size)), np.empty((width, size)),
                        np.empty((width, size), dtype=np.int64))
        self.steps = 0
        self._record()

    @property
    def size(self) -> int:
        return self.clock.size

    def _record(self) -> None:
        for row, current in zip(self.history, (self.clock, self.ys, self.regimes)):
            row[self.steps] = current

    def advance(self, clock: np.ndarray, ys: np.ndarray, regimes: np.ndarray) -> None:
        """Record one step: the jump times, post-jump locations and regimes."""
        self.clock, self.ys, self.regimes = clock, ys, regimes
        self.steps += 1
        self._record()

    def running(self) -> bool:
        """Whether the chunk needs another step; RuntimeError when a horizon chunk
        is at its cap short of t_end."""
        if self.t_end is None:
            return self.steps < self.cap
        if float(self.clock.min()) >= self.t_end:
            return False
        if self.steps == self.cap:
            slow = int(np.argmin(self.clock))
            raise RuntimeError(
                f"horizon run hit its cap of {self.cap} steps short of t_end={self.t_end:.6g}: "
                f"slowest replica {slow} of its chunk of {self.size} is at clock "
                f"{self.clock[slow]:.17g} (y={self.ys[slow]:.17g}, regime "
                f"{self.regimes[slow]}); are the declared rate bounds valid?")
        return True

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(taus, ys, regimes), C-contiguous, one row per replica and one column per
        recorded step; the chunk gives them once.

        Each history array's recorded steps are transposed into a copy, and the
        array is freed before the next is copied, so the copies add one array
        to the chunk's memory and a horizon chunk's unused steps are not kept.
        """
        width = self.steps + 1
        history, self.history = list(self.history), ()
        out = []
        while history:
            out.append(np.ascontiguousarray(history.pop(0)[:width].T))
        return tuple(out)


def _advance(model: ModelSpec, chunks: Sequence[_Chunk]) -> None:
    """Step every chunk until it has its steps or has passed its horizon.

    The running chunks' states are concatenated into one flat (clock, ys,
    regimes) state, rebuilt only when a chunk stops. Per chunk, each step
    draws the chunk's holding uniforms, jump variates and switch uniforms, in
    that order, from its own stream into its slice of three flat buffers, and
    records the chunk's slice of the new state. Once per step, over all atoms,
    ``invert_holding`` solves the holding times, ``flow.evaluate`` moves the
    atoms to their jump locations and ``jump.move`` maps the variates to the
    post-jump states. A chunk's stream thus gives, step after step, exactly
    three vectors of its own size, whatever runs beside it, and every map is
    elementwise, so its atoms do not depend on their batch.
    """
    running = [c for c in chunks if c.running()]
    while running:
        stops = np.cumsum([c.size for c in running])
        parts = [slice(stop - c.size, stop) for c, stop in zip(running, stops)]
        clock, ys, regimes = (np.concatenate(states) for states in
                              zip(*((c.clock, c.ys, c.regimes) for c in running)))
        holding, jump, switch = np.empty((3, clock.size))
        still = running
        while len(still) == len(running):
            for c, part in zip(running, parts):
                c.rng.random(out=holding[part])
                model.jump.draw(c.rng, jump[part], switch[part])
            dts = invert_holding(model.hazard, regimes, ys, -np.log1p(-holding))
            clock = clock + dts
            ys, regimes = model.jump.move(model.flow.evaluate(regimes, dts, ys), regimes,
                                          jump, switch)
            for c, part in zip(running, parts):
                c.advance(clock[part], ys[part], regimes[part])
            still = [c for c in running if c.running()]
        running = still


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


def run_ensembles(model: ModelSpec, runs: Sequence[EnsembleRun]) -> tuple[ChainEnsemble, ...]:
    """Simulate several ensembles together, one per run, in one stepping loop.

    Each ensemble is bitwise the one its run gives alone.
    """
    chunks = [_map_streams(partial(_Chunk, model, run), _chunk_sizes(run.n_replicas), run.seed)
              for run in runs]
    _advance(model, [c for run_chunks in chunks for c in run_chunks])
    return tuple(ChainEnsemble(model=model, chunks=tuple(c.arrays() for c in run_chunks))
                 for run_chunks in chunks)


def run_ensemble(model: ModelSpec, n_replicas: int, seed, y0: float = 0.0, i0: int = 0,
                 n_steps: Optional[int] = None, t_end: Optional[float] = None) -> ChainEnsemble:
    """Simulate independent replicas of the chain from a common start: the one
    ensemble of ``run_ensembles`` for ``EnsembleRun(n_replicas, seed, y0, i0,
    n_steps, t_end)``."""
    return run_ensembles(model, [EnsembleRun(n_replicas, seed, y0, i0, n_steps, t_end)])[0]


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
    all replicas. Each chunk runs through the stepping loop alone, and is
    counted and discarded before the next starts, so replica counts in the
    millions stay cheap. Every replica starts at (0, regime 0), with the
    chunks and streams of ``run_ensemble(model, n_replicas, seed,
    t_end=max(t_values))``. A time that is not finite or is negative is a
    ValueError, raised before anything is simulated. ``threads`` is ignored;
    it stays for the callers in ``perfbench/workloads.py``.
    """
    if len(t_values) == 0:
        raise ValueError("t_values must hold at least one time")
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")
    for t in t_values:
        if not math.isfinite(t):
            raise ValueError(f"t_values must be finite, got {t}")
        if t < 0:
            raise ValueError(f"time {t} precedes the start of the trajectory at 0")
    run = EnsembleRun(n_replicas, seed, t_end=max(t_values))

    def work(size, chunk_seed):
        chunk = _Chunk(model, run, size, chunk_seed)
        _advance(model, [chunk])
        taus = chunk.arrays()[0]
        counts = np.empty((len(t_values), size), dtype=np.int64)
        for j, t in enumerate(t_values):
            counts[j] = count_jumps(taus, t)
        return np.stack([np.bincount(np.minimum(row, max_count), minlength=max_count + 1)
                         for row in counts])

    partials = _map_streams(work, _chunk_sizes(n_replicas), seed)
    totals = np.sum(partials, axis=0)
    return {t: totals[j] / n_replicas for j, t in enumerate(t_values)}
