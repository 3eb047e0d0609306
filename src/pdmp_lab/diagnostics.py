"""Estimators and checkers for every stability assumption a model declares.

Constants are both declared (model metadata) and estimated by sampling;
a check passes when the declared constant is consistent with what the
samples show. Suprema over continuous domains cannot be certified by
sampling alone, so estimates carry a tolerance and the declared value is
treated as the bound being claimed.

The jump kernel's constants are its closed forms, sampled only over
locations, so no theta is drawn: at each probe location y the mean jump
displacement E_{theta ~ p(y)} |w_theta(anchor) - anchor|, and at each pair
(u, v) the mean contraction E_{theta ~ p(u)} |w_theta(u) - w_theta(v)| / |u - v|,
the density L1 gap and the contracting overlap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .checks import Check
from .hazard import holding_time_rule
from .models import ModelSpec
from .simulate import run_ensemble

ESTIMATE_RTOL = 0.05
FLOW_RATE_SLACK = 1e-9
"""Excess of the fitted contraction rate over the declared one that still passes, at |rate| <= 7e4."""
# Sample sizes of the estimators; probe locations are evenly spaced over the model window.
FLOW_CONTRACTION_PAIRS = 2000
FLOW_CONTRACTION_TIMES = (0.25, 0.5, 1.0, 2.0, 4.0)
FLOW_GAP_SAMPLES = 4000
JUMP_DISPLACEMENT_PROBES = 16
SWITCH_PROBES = 200
IFS_PAIRS = 300  # location pairs, before coincident ones are dropped
INTENSITY_SCAN_POINTS = 4000
DRIFT_PROBES = (0.0, 1.0, 2.0, 4.0, 8.0)  # start locations of the drift check, in regime 0
DRIFT_REPLICAS = 20_000  # one-step chains at each drift probe


@dataclass(frozen=True)
class DriftConstants:
    """Constants (a, b) of the one-step drift inequality mean V(next) <= a V + b."""

    multiplier: float
    offset: float


@dataclass(frozen=True)
class AssumptionReport:
    model_name: str
    estimates: dict
    declared: dict
    checks: tuple[Check, ...]
    stability_margin: Optional[float]

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "estimates": self.estimates,
            "declared": self.declared,
            "stability_margin": self.stability_margin,
        }


def flow_rate_slack(rate: float) -> float:
    """FLOW_RATE_SLACK, or 64 eps |rate| where that is larger (|rate| > 7e4).

    At the halving of ``estimate_flow_contraction`` where x = |rate| t0 is in
    [1/4, 1/2], so x e^{-2x} >= e^{-1/2} / 4, an affine flow with its attractor
    in [0, y_max] resolves its widest pair (|u - v| > 0.9 y_max but with
    probability 0.99^2000) at t0 and 2 t0 once 4 eps y_max < slack t0 / 2 *
    e^{-2x} 0.9 y_max: slack > 58.6 eps |rate|, beyond 1e-9 past |rate| ~ 8e4.
    """
    return max(FLOW_RATE_SLACK, 64.0 * np.finfo(float).eps * abs(rate))


def estimate_flow_contraction(model: ModelSpec, rng: np.random.Generator) -> tuple[float, float]:
    """Fit the tightest envelope lipschitz * exp(rate * t) over sampled pairs.

    The log-slope of the per-time sup ratio gives the rate; the lipschitz
    factor is the sup of ratios deflated by that rate. A flow that contracts
    too fast to resolve a pair at two of the sample times has all its times
    halved, on the same pairs, until two resolve.
    """
    t_values = np.asarray(FLOW_CONTRACTION_TIMES, dtype=float)
    us = rng.uniform(0.0, model.y_max, size=FLOW_CONTRACTION_PAIRS)
    vs = rng.uniform(0.0, model.y_max, size=FLOW_CONTRACTION_PAIRS)
    dist = np.abs(us - vs)
    # Only pairs whose ratio rounding is certified small enter a sup. Each flow
    # value is off by at most 2 ulp of its size, so |S_u - S_v| is off by at
    # most 4 eps max(|S_u|, |S_v|), and the pair ratio |S_u - S_v| / |u - v| by
    # that over |S_u - S_v| in relative terms (the division and u - v add
    # half-ulps, well inside the margin: for the affine flows the attractor
    # term and the decay factor are shared by both points and cancel). A
    # log-slope over dt >= min(diff(t_values)) then moves by at most twice
    # the kept relative error over dt, so keeping pairs below
    # slack * dt / 2 holds it inside the slack of the rate check, whatever
    # |rate| * t is. Times where no pair is resolved are left out of the fit.
    # Since |S_u - S_v| <= 2 max(|S_u|, |S_v|), no pair is resolved once
    # min(diff(t_values)) <= 4 eps / slack, and halving stops.
    slack = flow_rate_slack(model.flow.contraction[1])
    while True:
        max_rel_err = slack * float(np.diff(t_values).min()) / 2.0
        sup_ratio = np.zeros(t_values.size)
        for k, t in enumerate(t_values):
            for i in range(model.n_regimes):
                su = model.flow.evaluate(i, t, us)
                sv = model.flow.evaluate(i, t, vs)
                gap = np.abs(su - sv)
                rounding = 4.0 * np.finfo(float).eps * np.maximum(np.abs(su), np.abs(sv))
                resolved = rounding < max_rel_err * gap
                if resolved.any():
                    sup_ratio[k] = max(sup_ratio[k], float(np.max(gap[resolved] / dist[resolved])))
        fitted = sup_ratio > 0
        if fitted.sum() >= 2:
            break
        t_values = t_values / 2.0
        if np.diff(t_values).min() <= 4.0 * np.finfo(float).eps / slack:
            raise RuntimeError("flow contraction: fewer than two sample times have a pair "
                               "whose flow difference is resolved above rounding")
    t_values, sup_ratio = t_values[fitted], sup_ratio[fitted]
    logs = np.log(sup_ratio)
    slopes = (logs[1:] - logs[:-1]) / (t_values[1:] - t_values[:-1])
    rate_hat = float(slopes.max())
    lip_hat = float(np.max(sup_ratio * np.exp(-rate_hat * t_values)))
    return lip_hat, rate_hat


def flow_displacement_integral(model: ModelSpec) -> float:
    """Discounted displacement of the anchor under each flow; max over regimes.

    Integrates exp(-lower_rate * t) * |S_i(t, anchor) - anchor| over time,
    truncating when the survival discount makes the remainder negligible.
    """
    anchor = model.declared.anchor
    nodes, weights = holding_time_rule(model.intensity)
    discount = np.exp(-model.intensity.lower * nodes)
    gaps = [np.abs(model.flow.evaluate(i, nodes, anchor) - anchor) for i in range(model.n_regimes)]
    # a flow rate at or above the discount rate need not let the integrand decay:
    # its value at the last node, by the horizon, tells a divergent integral
    if (model.flow.contraction[1] >= model.intensity.lower
            and discount[-1, -1] * max(g[-1, -1] for g in gaps) > 1e-6):
        raise RuntimeError("displacement integrand does not decay; integral diverges")
    return max(float(np.sum(weights * discount * g)) for g in gaps)


def jump_displacement_bound(model: ModelSpec) -> float:
    """Sup over probe locations y of the kernel's closed-form mean jump distance
    of the anchor, E_{theta ~ p(y)} |w_theta(anchor) - anchor|."""
    anchor = model.declared.anchor
    return max(model.jump.ifs.mean_displacement(y, anchor)
               for y in np.linspace(0.0, model.y_max, JUMP_DISPLACEMENT_PROBES))


def estimate_ifs_constants(model: ModelSpec, rng: np.random.Generator
                           ) -> tuple[float, float, float]:
    """Sup of the mean contraction and of the density L1 modulus, and inf of the
    contracting overlap, over sampled location pairs.

    Each is the kernel's closed form at its pair. Pairs with coincident
    locations are skipped; the declared mean contraction defines which maps
    count as contracting for the overlap.
    """
    us = rng.uniform(0.0, model.y_max, size=IFS_PAIRS)
    vs = rng.uniform(0.0, model.y_max, size=IFS_PAIRS)
    keep = np.abs(us - vs) > 1e-9
    ifs = model.jump.ifs
    declared_lw = model.declared.jump_mean_contraction
    lw_hat, lp_hat, dp_hat = 0.0, 0.0, math.inf
    for u, v in zip(us[keep], vs[keep]):
        lw_hat = max(lw_hat, ifs.mean_contraction(u, v))
        lp_hat = max(lp_hat, ifs.density_l1_gap(u, v) / abs(u - v))
        dp_hat = min(dp_hat, ifs.overlap_on(u, v, declared_lw))
    return lw_hat, lp_hat, dp_hat


def estimate_switch_constants(model: ModelSpec) -> tuple[float, float]:
    """Enumerate (L1 modulus, pairwise minorization) of the switching rows.

    The modulus is the largest max_i ||row_i(u) - row_i(v)||_1 / |u - v| over
    the probe pairs u < v; the minorization is the smallest overlap
    sum_j min(row_i(u)_j, row_k(v)_j) over all probe pairs and row pairs.
    """
    probes = np.linspace(0.0, model.y_max, SWITCH_PROBES)
    rows = model.jump.switching.rows_at(probes)  # (p, |I|, |I|)
    # (p, p) arrays over the probe pairs (u, v); gap is zero on and below the diagonal
    diff = np.abs(rows[:, None] - rows[None, :]).sum(axis=3).max(axis=2)
    gap = np.triu(np.abs(probes[:, None] - probes[None, :]), k=1)
    resolved = gap >= 1e-12
    lip_hat = float(np.max(diff[resolved] / gap[resolved], initial=0.0))
    # per row i at the first probe, (p, p, |I|) overlaps with every row k at the second
    overlap = min(float(np.minimum(rows[:, None, i, None, :], rows[None]).sum(axis=3).min())
                  for i in range(model.n_regimes))
    return lip_hat, overlap


def check_flow_gap(model: ModelSpec, rng: np.random.Generator) -> list[Check]:
    """Sampled bound |S_i(t,y) - S_j(t,y)| <= gap_time(t) * gap_scale(y),
    plus quadrature finiteness of the discounted gap_time integral; no record
    for a single regime, whose gap is identically 0."""
    if model.n_regimes == 1:
        return []
    ts = rng.uniform(0.0, 8.0, size=FLOW_GAP_SAMPLES)
    ys = rng.uniform(0.0, model.y_max, size=FLOW_GAP_SAMPLES)
    bound = np.asarray(model.declared.flow_gap_time(ts)) * np.asarray(model.declared.flow_gap_scale(ys))
    worst = -math.inf
    for i in range(model.n_regimes):
        for j in range(i + 1, model.n_regimes):
            gap = np.abs(np.asarray(model.flow.evaluate(i, ts, ys))
                         - np.asarray(model.flow.evaluate(j, ts, ys)))
            worst = np.maximum(worst, (gap - bound).max())  # np.maximum keeps a NaN
    nodes, weights = holding_time_rule(model.intensity)
    integral = float(np.sum(weights * np.exp(-model.intensity.lower * nodes)
                            * model.declared.flow_gap_time(nodes)))
    return [Check("flow-gap:excess", float(worst), 1e-9, "<=", "declared"),
            Check("flow-gap:integral", integral, math.inf, "<", "derived")]


def intensity_lipschitz_scan(model: ModelSpec) -> float:
    """Finite-difference slope scan of the jump rate over the working window."""
    ys = np.linspace(0.0, model.y_max, INTENSITY_SCAN_POINTS)
    vals = np.asarray(model.intensity(ys), dtype=float)
    return float(np.abs(np.diff(vals) / np.diff(ys)).max())


def stability_margin(model: ModelSpec) -> float:
    """lambda_low - (flow_lip * jump_contraction * lambda_high + flow_rate)."""
    lip, rate = model.flow.contraction
    return model.intensity.lower - (
        lip * model.declared.jump_mean_contraction * model.intensity.upper + rate)


def drift_constants(model: ModelSpec) -> DriftConstants:
    """Drift constants implied by the declared envelope and jump data.

    multiplier = lam_high * jump_contraction * flow_lip / (lam_low - rate);
    offset     = lam_high * (jump_contraction * flow_displacement
                             + jump_displacement / lam_low).
    Rejects models whose declared flow rate reaches the lower intensity
    bound (the gap in the denominator closes).
    """
    d = model.declared
    lip, rate = model.flow.contraction
    lam_low, lam_high = model.intensity.lower, model.intensity.upper
    gap = lam_low - rate
    if gap <= 0:
        raise ValueError("declared flow rate reaches the lower intensity bound")
    a = lam_high * d.jump_mean_contraction * lip / gap
    b = lam_high * (d.jump_mean_contraction * d.flow_displacement
                    + d.jump_displacement / lam_low)
    return DriftConstants(multiplier=a, offset=b)


@dataclass(frozen=True)
class DriftProbe:
    """One probe of the drift inequality, started at (location, regime 0)."""

    location: float
    gauge: float
    estimate: float
    bound: float
    stderr: float


@dataclass(frozen=True)
class DriftReport:
    constants: DriftConstants
    probes: tuple[DriftProbe, ...]

    @property
    def checks(self) -> tuple[Check, ...]:
        """Each probe's estimate at most its bound plus 3 standard errors."""
        return tuple(Check(f"drift:mean-at-{p.location:g}", p.estimate,
                           p.bound + 3.0 * p.stderr, "<=", "statistical") for p in self.probes)

    def to_json(self) -> dict:
        return {
            "constants": asdict(self.constants),
            "probes": [
                {"location": p.location, "regime": 0, "gauge": p.gauge,
                 "estimate": p.estimate, "bound": p.bound, "stderr": p.stderr}
                for p in self.probes
            ],
        }


def verify_drift_empirically(model: ModelSpec, constants: DriftConstants, seed) -> DriftReport:
    """Single-step Monte Carlo check of the drift inequality at DRIFT_PROBES in regime 0."""
    anchor = model.declared.anchor
    probes = []
    for k, y in enumerate(DRIFT_PROBES):
        ens = run_ensemble(model, DRIFT_REPLICAS, (seed, k), y0=y, i0=0, n_steps=1)
        vals = np.concatenate([np.abs(chunk[1][:, 1] - anchor) for chunk in ens.chunks])
        gauge = abs(y - anchor)
        probes.append(DriftProbe(
            location=y, gauge=gauge,
            estimate=float(vals.mean()),
            bound=constants.multiplier * gauge + constants.offset,
            stderr=float(vals.std() / math.sqrt(vals.size))))
    return DriftReport(constants=constants, probes=tuple(probes))


def _upper(name: str, estimate: float, declared: float) -> Check:
    """The estimate at most the declared constant, within ESTIMATE_RTOL and 1e-9."""
    return Check(name, estimate, declared * (1.0 + ESTIMATE_RTOL) + 1e-9, "<=", "declared")


def _lower(name: str, estimate: float, declared: float) -> Check:
    """The estimate at least the declared constant, within ESTIMATE_RTOL and 1e-9."""
    return Check(name, estimate, declared * (1.0 - ESTIMATE_RTOL) - 1e-9, ">=", "declared")


def run_assumption_suite(model: ModelSpec, seed) -> AssumptionReport:
    """Estimate every constant and compare it with the declaration, one
    record per comparison, named family:quantity.

    The stability margin has no record when a flow-contraction record fails,
    since its formula needs a valid envelope.
    """
    rng = np.random.default_rng(seed)
    d = model.declared
    flow_lip, flow_rate = model.flow.contraction
    estimates: dict = {}

    lip_hat, rate_hat = estimate_flow_contraction(model, rng)
    estimates["flow_lipschitz"] = lip_hat
    estimates["flow_rate"] = rate_hat
    contraction = [
        _upper("flow-contraction:lipschitz", lip_hat, flow_lip),
        Check("flow-contraction:rate", rate_hat, flow_rate + flow_rate_slack(flow_rate),
              "<=", "declared"),
        Check("flow-contraction:declared-rate", flow_rate, model.intensity.lower, "<", "declared"),
    ]
    checks = list(contraction)

    try:
        beta_hat = flow_displacement_integral(model)
    except RuntimeError:  # the integrand does not decay
        beta_hat = math.inf
    estimates["flow_displacement"] = beta_hat
    checks.append(Check("flow-displacement:deviation", abs(beta_hat - d.flow_displacement),
                        ESTIMATE_RTOL * max(1.0, d.flow_displacement), "<=", "declared"))

    gamma_hat = jump_displacement_bound(model)
    estimates["jump_displacement"] = gamma_hat
    checks.append(_upper("jump-displacement:sup", gamma_hat, d.jump_displacement))

    checks += check_flow_gap(model, rng)

    lpi_hat, dpi_hat = estimate_switch_constants(model)
    estimates["switch_lipschitz"] = lpi_hat
    estimates["switch_overlap"] = dpi_hat
    checks += [_upper("switch-regularity:lipschitz", lpi_hat, d.switch_lipschitz),
               _lower("switch-regularity:overlap", dpi_hat, d.switch_overlap),
               Check("switch-regularity:overlap-positive", dpi_hat, 0.0, ">", "derived")]

    lw_hat, lp_hat, dp_hat = estimate_ifs_constants(model, rng)
    estimates["jump_mean_contraction"] = lw_hat
    estimates["density_lipschitz"] = lp_hat
    estimates["density_overlap"] = dp_hat
    checks += [_upper("jump-regularity:mean-contraction", lw_hat, d.jump_mean_contraction),
               _upper("jump-regularity:density-lipschitz", lp_hat, d.density_lipschitz),
               _lower("jump-regularity:density-overlap", dp_hat, d.density_overlap),
               Check("jump-regularity:density-overlap-positive", dp_hat, 0.0, ">", "derived")]

    llam_hat = intensity_lipschitz_scan(model)
    estimates["intensity_lipschitz"] = llam_hat
    checks.append(_upper("intensity-lipschitz:slope", llam_hat, model.intensity.lipschitz))

    margin = None
    if all(c.passed for c in contraction):
        margin = stability_margin(model)
        checks.append(Check("stability-margin:margin", margin, 0.0, ">", "derived"))

    declared = {f.name: getattr(d, f.name) for f in fields(d) if not callable(getattr(d, f.name))}
    declared.update(flow_lipschitz=flow_lip, flow_rate=flow_rate,
                    intensity_lipschitz=model.intensity.lipschitz)
    return AssumptionReport(model_name=model.name, estimates=estimates, declared=declared,
                            checks=tuple(checks), stability_margin=margin)
