"""Kernel operators on weighted empirical measures.

Two bounded kernels drive everything: the *holding-occupation* transform,
which spreads each atom along its flow weighted by the expected time spent
there before the next jump (an atom (x, w) becomes ((flow point at a
uniform fraction of the holding time), w * holding time) in the Monte Carlo
variant), and the *weighted-jump* transform, which jumps each atom and
scales its weight by the local jump rate. Normalizing these two transforms
maps a chain-stationary law to the flow-stationary law and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hazard import adaptive_simpson, invert_holding, quantile_edges, survival_horizon
from .models import ModelSpec
from .simulate import chain_step
from .state import StatePoint, WeightedEmpiricalMeasure, ZeroMassError


@dataclass(frozen=True)
class TransformReport:
    """Mass accounting of one measure transform."""

    input_mass: float
    output_mass: float
    normalizer: float
    n_atoms: int
    stderr: float

    def to_json(self) -> dict:
        return {
            "input_mass": self.input_mass,
            "output_mass": self.output_mass,
            "normalizer": self.normalizer,
            "n_atoms": self.n_atoms,
            "stderr": self.stderr,
        }


def expected_holding_time(model: ModelSpec, x: StatePoint, tol: float = 1e-10) -> float:
    """Integral of the survival function: mean holding time at x.

    Truncates where the survival tail is provably below tolerance and adds
    the bracket-midpoint tail estimate; always lands inside
    [1/upper-rate, 1/lower-rate].
    """
    t_max = survival_horizon(model.intensity)
    body = adaptive_simpson(lambda t: float(model.hazard.survival(x.i, t, x.y)), 0.0, t_max, tol)
    tail_surv = float(model.hazard.survival(x.i, t_max, x.y))
    tail = tail_surv * 0.5 * (1.0 / model.intensity.lower + 1.0 / model.intensity.upper)
    return body + tail


def expected_holding_time_gl(model: ModelSpec, x: StatePoint, n_nodes: int = 96) -> float:
    """Gauss-Laguerre evaluation of the same integral; independent oracle."""
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    hazard = np.asarray(model.hazard.value(x.i, nodes, np.full(nodes.shape, x.y)))
    # combined exponent keeps large nodes finite (hazard grows at least linearly)
    return float(np.dot(weights, np.exp(nodes - hazard)))


def _require_mass(mu: WeightedEmpiricalMeasure) -> None:
    if mu.total_mass <= 0.0:
        raise ZeroMassError("transform input has zero mass")


def holding_occupation_transform(
    model: ModelSpec,
    mu: WeightedEmpiricalMeasure,
    rng: Optional[np.random.Generator] = None,
    variant: str = "monte-carlo",
    samples_per_atom: int = 1,
    time_cells: int = 200,
) -> tuple[WeightedEmpiricalMeasure, TransformReport]:
    """Spread each atom along its flow, weighted by time-to-next-jump.

    monte-carlo: for atom (x, w) draw the holding time T and a uniform
    fraction U, emit ((flow at U*T), w*T); unbiased because the expected
    occupation of a set over one holding period equals E[T * indicator at a
    uniformly placed time]. quadrature: deterministic time cells with exact
    survival-mass weights; serves as the independent oracle for the MC path.
    """
    _require_mass(mu)
    if variant == "monte-carlo":
        if rng is None:
            raise ValueError("monte-carlo variant needs an RNG")
        if samples_per_atom < 1:
            raise ValueError("samples_per_atom must be >= 1")
        reps = samples_per_atom
        ys = np.repeat(mu.ys, reps)
        regimes = np.repeat(mu.regimes, reps)
        weights = np.repeat(mu.weights, reps) / reps
        targets = -np.log1p(-rng.random(ys.shape))
        holding = invert_holding(model.hazard, regimes, ys, targets)
        out_ys = model.flow.evaluate(regimes, rng.random(ys.shape) * holding, ys)
        out_w = weights * holding
        out = WeightedEmpiricalMeasure(out_ys, regimes, out_w)
        # variance of the output mass: independent holding draws, delta method
        mean_holding = float(np.dot(weights, holding) / weights.sum())
        stderr = float(np.sqrt(np.sum((weights * (holding - mean_holding)) ** 2)))
    elif variant == "quadrature":
        t_max = survival_horizon(model.intensity)
        # hybrid grid: quantile edges resolve t ~ 0, uniform edges cap the
        # cell width so the 5-point Boole rule stays sharp in the tail
        half = max(time_cells // 2, 2)
        edges = np.unique(np.concatenate([quantile_edges(model.intensity, half, t_max),
                                          np.linspace(0.0, t_max, half + 1)]))
        widths = np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        regimes, ys = mu.regimes[:, None], mu.ys[:, None]
        # occupation mass of each cell: Boole's rule on the survival curve
        cell = np.zeros((mu.n_atoms, widths.size))
        for k, coeff in enumerate((7.0, 32.0, 12.0, 32.0, 7.0)):
            pts_t = edges[:-1] + widths * (k / 4.0)
            cell += coeff * model.hazard.survival(regimes, pts_t[None, :], ys)
        cell *= widths[None, :] / 90.0
        tail_surv = np.asarray(model.hazard.survival(mu.regimes, t_max, mu.ys))
        cell[:, -1] += tail_surv * 0.5 * (1.0 / model.intensity.lower
                                          + 1.0 / model.intensity.upper)
        pts = model.flow.evaluate(regimes, mids[None, :], ys)
        out = WeightedEmpiricalMeasure(pts.ravel(), np.repeat(mu.regimes, mids.size),
                                       (mu.weights[:, None] * cell).ravel())
        stderr = 0.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    report = TransformReport(input_mass=mu.total_mass, output_mass=out.total_mass,
                             normalizer=out.total_mass / mu.total_mass,
                             n_atoms=out.n_atoms, stderr=stderr)
    return out, report


def weighted_jump_transform(
    model: ModelSpec, mu: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> tuple[WeightedEmpiricalMeasure, TransformReport]:
    """Jump every atom and scale its weight by the local jump rate."""
    _require_mass(mu)
    ys_post, regimes_post = model.jump.sample_vec(mu.ys, mu.regimes, rng)
    weights = mu.weights * np.asarray(model.intensity(mu.ys), dtype=float)
    out = WeightedEmpiricalMeasure(ys_post, regimes_post, weights)
    stderr = 0.0  # the output mass is a deterministic function of the input
    report = TransformReport(input_mass=mu.total_mass, output_mass=out.total_mass,
                             normalizer=out.total_mass / mu.total_mass,
                             n_atoms=out.n_atoms, stderr=stderr)
    return out, report


def chain_step_transform(
    model: ModelSpec, mu: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> WeightedEmpiricalMeasure:
    """The simulator's ``chain_step`` applied to every atom, weights unchanged."""
    _require_mass(mu)
    _, ys_post, regimes_post = chain_step(model, mu.ys, mu.regimes, rng)
    return WeightedEmpiricalMeasure(ys_post, regimes_post, mu.weights.copy())


def chain_to_flow_stationary(
    model: ModelSpec, mu_chain: WeightedEmpiricalMeasure,
    rng: Optional[np.random.Generator] = None, **kwargs,
) -> tuple[WeightedEmpiricalMeasure, TransformReport]:
    """Normalized holding-occupation transform of a chain-stationary estimate.

    Applied to the stationary law of the embedded chain this produces the
    stationary law of the continuous-time process; the report keeps the
    normalizer (the mean holding time under the input law).
    """
    mu_chain = mu_chain.normalize()
    out, report = holding_occupation_transform(model, mu_chain, rng=rng, **kwargs)
    return out.normalize(), report


def flow_to_chain_stationary(
    model: ModelSpec, mu_flow: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> tuple[WeightedEmpiricalMeasure, TransformReport]:
    """Normalized weighted-jump transform of a flow-stationary estimate.

    The inverse direction of the correspondence; the normalizer equals the
    mean jump rate under the input law.
    """
    mu_flow = mu_flow.normalize()
    out, report = weighted_jump_transform(model, mu_flow, rng)
    return out.normalize(), report
