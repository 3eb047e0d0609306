"""Estimators and checkers for every stability assumption a model declares.

Constants are both declared (model metadata) and estimated by sampling;
a check passes when the declared constant is consistent with what the
samples show. Suprema over continuous domains cannot be certified by
sampling alone, so estimates carry a tolerance and the declared value is
treated as the bound being claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hazard import adaptive_simpson, survival_horizon
from .models import ModelSpec
from .simulate import run_ensemble

ESTIMATE_RTOL = 0.05
FLOW_RATE_SLACK = 1e-9
"""Excess of the fitted contraction rate over the declared one that still passes."""


@dataclass(frozen=True)
class DriftConstants:
    """Constants of the one-step drift inequality mean V(next) <= a V + b.

    multiplier/offset are (a, b); jump_multiplier/jump_offset are the same
    for the bare jump kernel; flow_displacement and jump_displacement are
    the discounted anchor drift and the mean jump distance at the anchor.
    """

    multiplier: float
    offset: float
    jump_multiplier: float
    jump_offset: float
    flow_displacement: float
    jump_displacement: float

    def to_json(self) -> dict:
        return {
            "multiplier": self.multiplier,
            "offset": self.offset,
            "jump_multiplier": self.jump_multiplier,
            "jump_offset": self.jump_offset,
            "flow_displacement": self.flow_displacement,
            "jump_displacement": self.jump_displacement,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: Optional[bool]  # None: not applicable given earlier failures
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    model_name: str
    estimates: dict
    declared: dict
    checks: tuple[CheckResult, ...]
    stability_margin: Optional[float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if c.passed is False]

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "estimates": self.estimates,
            "declared": self.declared,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "stability_margin": self.stability_margin,
            "passed": self.passed,
        }


def estimate_flow_contraction(model: ModelSpec, rng: np.random.Generator,
                              n_pairs: int = 2000,
                              t_values: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0)
                              ) -> tuple[float, float]:
    """Fit the tightest envelope lipschitz * exp(rate * t) over sampled pairs.

    The log-slope of the per-time sup ratio gives the rate; the lipschitz
    factor is the sup of ratios deflated by that rate.
    """
    t_values = np.asarray(t_values, dtype=float)
    us = rng.uniform(0.0, model.y_max, size=n_pairs)
    vs = rng.uniform(0.0, model.y_max, size=n_pairs)
    dist = np.abs(us - vs)
    # Only pairs whose ratio rounding is certified small enter a sup. Each flow
    # value is off by at most 2 ulp of its size, so |S_u - S_v| is off by at
    # most 4 eps max(|S_u|, |S_v|), and the pair ratio |S_u - S_v| / |u - v| by
    # that over |S_u - S_v| in relative terms (the division and u - v add
    # half-ulps, well inside the margin: for the affine flows the attractor
    # term and the decay factor are shared by both points and cancel). A
    # log-slope over dt >= min(diff(t_values)) then moves by at most twice
    # the kept relative error over dt, so keeping pairs below
    # FLOW_RATE_SLACK * dt / 2 holds it inside the slack of the rate check,
    # whatever |rate| * t is. Times where no pair is resolved are left out of
    # the fit.
    max_rel_err = FLOW_RATE_SLACK * float(np.diff(t_values).min()) / 2.0
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
    if fitted.sum() < 2:
        raise RuntimeError("flow contraction: fewer than two sample times have a pair whose "
                           "flow difference is resolved above rounding")
    t_values, sup_ratio = t_values[fitted], sup_ratio[fitted]
    logs = np.log(sup_ratio)
    slopes = (logs[1:] - logs[:-1]) / (t_values[1:] - t_values[:-1])
    rate_hat = float(slopes.max())
    lip_hat = float(np.max(sup_ratio * np.exp(-rate_hat * t_values)))
    return lip_hat, rate_hat


def flow_displacement_integral(model: ModelSpec, anchor: Optional[float] = None,
                               tol: float = 1e-10) -> float:
    """Discounted displacement of the anchor under each flow; max over regimes.

    Integrates exp(-lower_rate * t) * |S_i(t, anchor) - anchor| over time,
    truncating when the survival discount makes the remainder negligible.
    """
    anchor = model.declared.anchor if anchor is None else anchor
    lam_low = model.intensity.lower
    lip, rate = model.flow.contraction
    t_max = survival_horizon(model.intensity)
    if rate >= lam_low:
        # integrand need not decay; probe for divergence and report it
        probe = max(abs(float(model.flow.evaluate(i, t_max, anchor)) - anchor)
                    for i in range(model.n_regimes))
        if probe * math.exp(-lam_low * t_max) > 1e-6:
            raise RuntimeError("displacement integrand does not decay; integral diverges")
    best = 0.0
    for i in range(model.n_regimes):
        val = adaptive_simpson(
            lambda t: math.exp(-lam_low * t) * abs(float(model.flow.evaluate(i, t, anchor)) - anchor),
            0.0, t_max, tol)
        best = max(best, val)
    return best


def jump_displacement_bound(model: ModelSpec, rng: np.random.Generator,
                            n_samples: int = 20_000,
                            probe_ys: Optional[np.ndarray] = None) -> float:
    """Sup over probe locations of the mean jump distance of the anchor.

    Estimate plus three standard errors, so a passing declared bound is
    unlikely to be overrun by Monte Carlo noise. Exact in y for the shipped
    state-independent selection densities.
    """
    anchor = model.declared.anchor
    probes = np.linspace(0.0, model.y_max, 16) if probe_ys is None else probe_ys
    worst = 0.0
    for y in probes:
        thetas = model.jump.ifs.sample_vec(np.full(n_samples, y), rng)
        dist = np.abs(np.asarray(model.jump.ifs.apply(thetas, np.full(n_samples, anchor))) - anchor)
        worst = max(worst, float(dist.mean() + 3.0 * dist.std() / math.sqrt(n_samples)))
    return worst


def estimate_ifs_constants(model: ModelSpec, rng: np.random.Generator,
                           n_pairs: int = 300, n_theta: int = 20_000
                           ) -> tuple[float, float, float]:
    """Estimate (mean contraction, density L1 modulus, contracting overlap).

    Pairs with coincident locations are skipped; the declared mean
    contraction defines which maps count as contracting for the overlap.
    """
    us = rng.uniform(0.0, model.y_max, size=n_pairs)
    vs = rng.uniform(0.0, model.y_max, size=n_pairs)
    keep = np.abs(us - vs) > 1e-9
    us, vs = us[keep], vs[keep]
    declared_lw = model.declared.jump_mean_contraction
    lw_hat = 0.0
    lp_hat = 0.0
    dp_hat = math.inf
    for u, v in zip(us, vs):
        gap = abs(u - v)
        thetas = model.jump.ifs.sample_vec(np.full(n_theta, u), rng)
        spread = np.abs(np.asarray(model.jump.ifs.apply(thetas, np.full(n_theta, u)))
                        - np.asarray(model.jump.ifs.apply(thetas, np.full(n_theta, v))))
        lw_hat = max(lw_hat, float(spread.mean()) / gap)
        lp_hat = max(lp_hat, model.jump.ifs.density_l1_gap(u, v) / gap)
        dp_hat = min(dp_hat, model.jump.ifs.overlap_on(u, v, declared_lw))
    return lw_hat, lp_hat, dp_hat


def estimate_switch_constants(model: ModelSpec,
                              probe_ys: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Enumerate (L1 modulus, pairwise minorization) of the switching rows."""
    probes = np.linspace(0.0, model.y_max, 200) if probe_ys is None else np.asarray(probe_ys)
    rows = model.jump.switching.rows_at(probes)  # (p, |I|, |I|)
    n = model.n_regimes
    lip_hat = 0.0
    for a in range(probes.size):
        for b in range(a + 1, probes.size):
            gap = abs(probes[a] - probes[b])
            if gap < 1e-12:
                continue
            diff = np.abs(rows[a] - rows[b]).sum(axis=1).max()
            lip_hat = max(lip_hat, float(diff) / gap)
    overlap = math.inf
    for i in range(n):
        for k in range(n):
            pair = np.minimum(rows[:, None, i, :], rows[None, :, k, :]).sum(axis=2)
            overlap = min(overlap, float(pair.min()))
    return lip_hat, overlap


def check_flow_gap(model: ModelSpec, rng: np.random.Generator,
                   n_samples: int = 4000) -> CheckResult:
    """Sampled bound |S_i(t,y) - S_j(t,y)| <= gap_time(t) * gap_scale(y),
    plus quadrature finiteness of the discounted gap_time integral."""
    if model.n_regimes == 1:
        return CheckResult("flow-gap", True, "single regime: gap identically 0")
    ts = rng.uniform(0.0, 8.0, size=n_samples)
    ys = rng.uniform(0.0, model.y_max, size=n_samples)
    bound = np.asarray(model.declared.flow_gap_time(ts)) * np.asarray(model.declared.flow_gap_scale(ys))
    worst = -math.inf
    for i in range(model.n_regimes):
        for j in range(i + 1, model.n_regimes):
            gap = np.abs(np.asarray(model.flow.evaluate(i, ts, ys))
                         - np.asarray(model.flow.evaluate(j, ts, ys)))
            worst = max(worst, float((gap - bound).max()))
    if worst > 1e-9:
        return CheckResult("flow-gap", False, f"bound violated by {worst:.3e}")
    lam_low = model.intensity.lower
    t_max = survival_horizon(model.intensity)
    integral = adaptive_simpson(
        lambda t: math.exp(-lam_low * t) * float(model.declared.flow_gap_time(np.array([t]))[0]),
        0.0, t_max, 1e-10)
    if not math.isfinite(integral):
        return CheckResult("flow-gap", False, "discounted gap integral diverges")
    return CheckResult("flow-gap", True, f"discounted gap integral {integral:.6g}")


def intensity_lipschitz_scan(model: ModelSpec, n_points: int = 4000) -> float:
    """Finite-difference slope scan of the jump rate over the working window."""
    ys = np.linspace(0.0, model.y_max, n_points)
    vals = np.asarray(model.intensity(ys), dtype=float)
    return float(np.abs(np.diff(vals) / np.diff(ys)).max())


def stability_margin(model: ModelSpec) -> float:
    """lambda_low - (flow_lip * jump_contraction * lambda_high + flow_rate)."""
    d = model.declared
    return model.intensity.lower - (
        d.flow_lipschitz * d.jump_mean_contraction * model.intensity.upper + d.flow_rate)


def drift_constants(model: ModelSpec) -> DriftConstants:
    """Drift constants implied by the declared envelope and jump data.

    multiplier = lam_high * jump_contraction * flow_lip / (lam_low - rate);
    offset     = lam_high * (jump_contraction * flow_displacement
                             + jump_displacement / lam_low).
    Rejects models whose declared flow rate reaches the lower intensity
    bound (the gap in the denominator closes).
    """
    d = model.declared
    lam_low, lam_high = model.intensity.lower, model.intensity.upper
    gap = lam_low - d.flow_rate
    if gap <= 0:
        raise ValueError("declared flow rate reaches the lower intensity bound")
    a = lam_high * d.jump_mean_contraction * d.flow_lipschitz / gap
    b = lam_high * (d.jump_mean_contraction * d.flow_displacement
                    + d.jump_displacement / lam_low)
    return DriftConstants(
        multiplier=a, offset=b,
        jump_multiplier=d.jump_mean_contraction, jump_offset=d.jump_displacement,
        flow_displacement=d.flow_displacement, jump_displacement=d.jump_displacement)


@dataclass(frozen=True)
class DriftProbe:
    location: float
    regime: int
    gauge: float
    estimate: float
    bound: float
    stderr: float

    @property
    def ok(self) -> bool:
        return self.estimate <= self.bound + 3.0 * self.stderr


@dataclass(frozen=True)
class DriftReport:
    constants: DriftConstants
    probes: tuple[DriftProbe, ...]

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.probes)

    def to_json(self) -> dict:
        return {
            "constants": self.constants.to_json(),
            "probes": [
                {"location": p.location, "regime": p.regime, "gauge": p.gauge,
                 "estimate": p.estimate, "bound": p.bound, "stderr": p.stderr, "ok": p.ok}
                for p in self.probes
            ],
            "passed": self.passed,
        }


def verify_drift_empirically(model: ModelSpec, constants: DriftConstants,
                             probe_ys: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 8.0),
                             replicas: int = 100_000, seed=0,
                             regime: int = 0) -> DriftReport:
    """Single-step Monte Carlo check of the drift inequality at probe points."""
    anchor = model.declared.anchor
    probes = []
    for k, y in enumerate(probe_ys):
        ens = run_ensemble(model, replicas, (seed, k), y0=float(y), i0=regime, n_steps=1)
        vals = np.concatenate([np.abs(chunk[1][:, 1] - anchor) for chunk in ens.chunks])
        gauge = abs(float(y) - anchor)
        probes.append(DriftProbe(
            location=float(y), regime=regime, gauge=gauge,
            estimate=float(vals.mean()),
            bound=constants.multiplier * gauge + constants.offset,
            stderr=float(vals.std() / math.sqrt(vals.size))))
    return DriftReport(constants=constants, probes=tuple(probes))


def _consistent_upper(estimate: float, declared: float) -> bool:
    return estimate <= declared * (1.0 + ESTIMATE_RTOL) + 1e-9


def _consistent_lower(estimate: float, declared: float) -> bool:
    return estimate >= declared * (1.0 - ESTIMATE_RTOL) - 1e-9


def run_assumption_suite(model: ModelSpec, seed=0) -> AssumptionReport:
    """Estimate every constant and compare against the declaration.

    The stability margin is reported as not-applicable when the flow
    contraction check fails, since its formula needs a valid envelope.
    """
    rng = np.random.default_rng(seed)
    d = model.declared
    checks: list[CheckResult] = []
    estimates: dict = {}

    lip_hat, rate_hat = estimate_flow_contraction(model, rng)
    estimates["flow_lipschitz"] = lip_hat
    estimates["flow_rate"] = rate_hat
    envelope_ok = (_consistent_upper(lip_hat, d.flow_lipschitz)
                   and rate_hat <= d.flow_rate + FLOW_RATE_SLACK)
    contraction_ok = envelope_ok and d.flow_rate < model.intensity.lower
    checks.append(CheckResult(
        "flow-contraction", contraction_ok,
        f"estimated (lip, rate) = ({lip_hat:.4g}, {rate_hat:.4g}); "
        f"declared ({d.flow_lipschitz:.4g}, {d.flow_rate:.4g}); "
        f"rate must stay below {model.intensity.lower:.4g}"))

    try:
        beta_hat = flow_displacement_integral(model)
        disp_ok = abs(beta_hat - d.flow_displacement) <= ESTIMATE_RTOL * max(1.0, d.flow_displacement)
        checks.append(CheckResult("flow-displacement", disp_ok,
                                  f"integral {beta_hat:.6g} vs declared {d.flow_displacement:.6g}"))
    except RuntimeError as exc:
        beta_hat = math.inf
        checks.append(CheckResult("flow-displacement", False, str(exc)))
    estimates["flow_displacement"] = beta_hat

    gamma_hat = jump_displacement_bound(model, rng)
    estimates["jump_displacement"] = gamma_hat
    checks.append(CheckResult(
        "jump-displacement", _consistent_upper(gamma_hat, d.jump_displacement),
        f"sup estimate {gamma_hat:.4g} vs declared {d.jump_displacement:.4g}"))

    checks.append(check_flow_gap(model, rng))

    lpi_hat, dpi_hat = estimate_switch_constants(model)
    estimates["switch_lipschitz"] = lpi_hat
    estimates["switch_overlap"] = dpi_hat
    switch_ok = (_consistent_upper(lpi_hat, d.switch_lipschitz)
                 and _consistent_lower(dpi_hat, d.switch_overlap)
                 and dpi_hat > 0)
    checks.append(CheckResult(
        "switch-regularity", switch_ok,
        f"estimated (L1 modulus, overlap) = ({lpi_hat:.4g}, {dpi_hat:.4g}); "
        f"declared ({d.switch_lipschitz:.4g}, {d.switch_overlap:.4g}); overlap must be > 0"))

    lw_hat, lp_hat, dp_hat = estimate_ifs_constants(model, rng)
    estimates["jump_mean_contraction"] = lw_hat
    estimates["density_lipschitz"] = lp_hat
    estimates["density_overlap"] = dp_hat
    ifs_ok = (_consistent_upper(lw_hat, d.jump_mean_contraction)
              and _consistent_upper(lp_hat, d.density_lipschitz)
              and _consistent_lower(dp_hat, d.density_overlap)
              and dp_hat > 0)
    checks.append(CheckResult(
        "jump-regularity", ifs_ok,
        f"estimated (contraction, density modulus, overlap) = "
        f"({lw_hat:.4g}, {lp_hat:.4g}, {dp_hat:.4g})"))

    llam_hat = intensity_lipschitz_scan(model)
    estimates["intensity_lipschitz"] = llam_hat
    checks.append(CheckResult(
        "intensity-lipschitz", _consistent_upper(llam_hat, d.intensity_lipschitz),
        f"slope scan {llam_hat:.4g} vs declared {d.intensity_lipschitz:.4g}"))

    if contraction_ok:
        margin = stability_margin(model)
        checks.append(CheckResult(
            "stability-margin", margin > 0,
            f"margin {margin:.4g} (positive means the drift multiplier is < 1)"))
    else:
        margin = None
        checks.append(CheckResult(
            "stability-margin", None,
            "not applicable: flow contraction invalid, no admissible envelope"))

    declared = {
        "flow_lipschitz": d.flow_lipschitz, "flow_rate": d.flow_rate,
        "jump_mean_contraction": d.jump_mean_contraction,
        "density_lipschitz": d.density_lipschitz, "density_overlap": d.density_overlap,
        "switch_lipschitz": d.switch_lipschitz, "switch_overlap": d.switch_overlap,
        "intensity_lipschitz": d.intensity_lipschitz, "anchor": d.anchor,
        "flow_displacement": d.flow_displacement, "jump_displacement": d.jump_displacement,
    }
    return AssumptionReport(model_name=model.name, estimates=estimates, declared=declared,
                            checks=tuple(checks), stability_margin=margin)
