"""Kernel operators on weighted empirical measures.

Two bounded kernels drive everything. The *holding-occupation* transform
spreads each atom along its flow, weighted by the expected time spent there
before the next jump: an atom (x, w) becomes (flow point at a uniform
fraction of the holding time, w * holding time). Its deterministic reference,
``holding_occupation_quadrature``, integrates each atom's survival by
``hazard.holding_time_rule``. The *weighted-jump* transform jumps each atom
and scales its weight by the local jump rate. Normalizing these two
transforms maps a chain-stationary law to the flow-stationary law and back.
Each transform returns its image measure and its normalizer, the output
mass per unit input mass.
"""

from __future__ import annotations

import numpy as np

from .hazard import holding_time_rule, invert_holding
from .models import ModelSpec
from .state import WeightedEmpiricalMeasure, ZeroMassError


def _require_mass(mu: WeightedEmpiricalMeasure) -> None:
    if mu.total_mass <= 0.0:
        raise ZeroMassError("transform input has zero mass")


def holding_occupation_transform(
    model: ModelSpec, mu: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> tuple[WeightedEmpiricalMeasure, float]:
    """Spread each atom along its flow, weighted by time-to-next-jump.

    For atom (x, w) draw the holding time T and a uniform fraction U and emit
    ((flow at U*T), w*T); unbiased because the expected occupation of a set
    over one holding period equals E[T * indicator at a uniformly placed
    time]. More draws per atom: repeat the atoms with their weights divided.
    """
    _require_mass(mu)
    targets = -np.log1p(-rng.random(mu.ys.shape))
    holding = invert_holding(model.hazard, mu.regimes, mu.ys, targets)
    out_ys = model.flow.evaluate(mu.regimes, rng.random(mu.ys.shape) * holding, mu.ys)
    out = WeightedEmpiricalMeasure(out_ys, mu.regimes, mu.weights * holding)
    return out, out.total_mass / mu.total_mass


def holding_occupation_quadrature(
    model: ModelSpec, mu: WeightedEmpiricalMeasure,
) -> tuple[WeightedEmpiricalMeasure, float]:
    """Deterministic reference for ``holding_occupation_transform``.

    Each atom becomes one atom per time cell of ``holding_time_rule``, at
    the cell midpoint of its flow, with the cell's survival mass by the
    rule's Gauss-Legendre nodes as weight. Its output mass per unit input
    weight is the mean holding time of the atom, the integral of its
    survival function.
    """
    _require_mass(mu)
    nodes, weights = holding_time_rule(model.intensity)
    # the nodes of a cell are symmetric about its midpoint
    mids = nodes.mean(axis=1)
    regimes, ys = mu.regimes[:, None], mu.ys[:, None]
    # occupation mass of each cell, summed node by node to bound the scratch
    cell = np.zeros((mu.n_atoms, mids.size))
    for k in range(nodes.shape[1]):
        cell += weights[:, k] * model.hazard.survival(regimes, nodes[None, :, k], ys)
    pts = model.flow.evaluate(regimes, mids[None, :], ys)
    out = WeightedEmpiricalMeasure(pts.ravel(), np.repeat(mu.regimes, mids.size),
                                   (mu.weights[:, None] * cell).ravel())
    return out, out.total_mass / mu.total_mass


def weighted_jump_transform(
    model: ModelSpec, mu: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> tuple[WeightedEmpiricalMeasure, float]:
    """Jump every atom and scale its weight by the local jump rate."""
    _require_mass(mu)
    ys_post, regimes_post = model.jump.sample_vec(mu.ys, mu.regimes, rng)
    weights = mu.weights * np.asarray(model.intensity(mu.ys), dtype=float)
    out = WeightedEmpiricalMeasure(ys_post, regimes_post, weights)
    return out, out.total_mass / mu.total_mass


def chain_to_flow_stationary(
    model: ModelSpec, mu_chain: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> tuple[WeightedEmpiricalMeasure, float]:
    """Normalized holding-occupation transform of a chain-stationary estimate.

    Applied to the stationary law of the embedded chain this produces the
    stationary law of the continuous-time process; the normalizer returned
    with it is the mean holding time under the input law.
    """
    mu_chain = mu_chain.normalize()
    out, normalizer = holding_occupation_transform(model, mu_chain, rng)
    return out.normalize(), normalizer


def flow_to_chain_stationary(
    model: ModelSpec, mu_flow: WeightedEmpiricalMeasure, rng: np.random.Generator,
) -> tuple[WeightedEmpiricalMeasure, float]:
    """Normalized weighted-jump transform of a flow-stationary estimate.

    The inverse direction of the correspondence; the normalizer equals the
    mean jump rate under the input law.
    """
    mu_flow = mu_flow.normalize()
    out, normalizer = weighted_jump_transform(model, mu_flow, rng)
    return out.normalize(), normalizer
