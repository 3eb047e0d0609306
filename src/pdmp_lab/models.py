"""Shipped example models with their declared analytic constants.

Each model bundles flows, intensity, hazard, jump kernel and switching
together with the constants the diagnostics suite checks against. Positive
models satisfy every stability condition; the negative controls are built
to fail exactly one designated check each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .flows import AffineExpFlow, ExpandingFlow, Semiflow
from .hazard import ConstantIntensity, CumulativeHazard, Intensity, SaturatingIntensity
from .jumps import AdditiveBurstKernel, FiniteAffineIfs, IfsKernel, PostJumpKernel, SwitchingMatrix


@dataclass(frozen=True)
class DeclaredConstants:
    """Analytic constants a model claims for itself.

    flow_lipschitz / flow_rate:   |S_i(t,u)-S_i(t,v)| <= lipschitz*exp(rate*t)*|u-v|
    jump_mean_contraction:        mean contraction factor of the map family
    density_lipschitz:            L1 modulus of the selection density in y
    density_overlap:              overlap mass of contracting maps for any pair
    switch_lipschitz / overlap:   L1 modulus and minorization of switching rows
    intensity_lipschitz:          slope bound of the jump rate
    anchor:                       reference location of the drift gauge
    flow_displacement:            discounted drift of the anchor under the flows
    jump_displacement:            mean jump distance seen from the anchor
    flow_gap_time / scale:        bound |S_i(t,y)-S_j(t,y)| <= gap_time(t)*gap_scale(y)
    """

    flow_lipschitz: float = 1.0
    flow_rate: float = -1.0
    jump_mean_contraction: float = 1.0
    density_lipschitz: float = 0.0
    density_overlap: float = 1.0
    switch_lipschitz: float = 0.0
    switch_overlap: float = 1.0
    intensity_lipschitz: float = 0.0
    anchor: float = 0.0
    flow_displacement: float = 0.0
    jump_displacement: float = 1.0
    flow_gap_time: Callable[[np.ndarray], np.ndarray] = field(default=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    flow_gap_scale: Callable[[np.ndarray], np.ndarray] = field(default=lambda y: np.zeros_like(np.asarray(y, dtype=float)))


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of all model components plus declared constants."""

    name: str
    flow: Semiflow
    intensity: Intensity
    hazard: CumulativeHazard
    jump: PostJumpKernel
    declared: DeclaredConstants
    y_max: float = 15.0
    positive: bool = True

    def __post_init__(self):
        # switching rows are checked where the model lives: its location window
        self.jump.switching.check_rows(np.linspace(0.0, self.y_max, 64))

    @property
    def n_regimes(self) -> int:
        return self.flow.n_regimes


def _bundle(name, flow, intensity, ifs, switching, declared, y_max=15.0, positive=True):
    hazard = CumulativeHazard.for_model(flow, intensity)
    jump = PostJumpKernel(ifs=ifs, switching=switching)
    return ModelSpec(name=name, flow=flow, intensity=intensity, hazard=hazard,
                     jump=jump, declared=declared, y_max=y_max, positive=positive)


def gene_expression_model(kappa: float = 1.0, burst_mean: float = 1.0,
                          intensity: str = "constant", lam: float = 1.0,
                          lam_low: float = 1.0, lam_high: float = 1.5) -> ModelSpec:
    """Protein bursting model: decay flow y*exp(-kappa t), additive bursts.

    One regime; bursts are exponential with the given mean. The jump rate is
    either constant or saturating between lam_low and lam_high, mirroring a
    production rate that grows with the current protein level.
    """
    if kappa <= 0 or burst_mean <= 0:
        raise ValueError("kappa and burst_mean must be > 0")
    if intensity == "constant":
        if lam <= 0:
            raise ValueError("lam must be > 0")
        rate: Intensity = ConstantIntensity(lam)
        name = "gene-constant"
    elif intensity == "saturating":
        if not 0 < lam_low <= lam_high:
            raise ValueError("need 0 < lam_low <= lam_high")
        rate = SaturatingIntensity(base=lam_low, gain=lam_high - lam_low)
        name = "gene-saturating"
    else:
        raise ValueError(f"unknown intensity choice {intensity!r}")
    declared = DeclaredConstants(
        flow_lipschitz=1.0,
        flow_rate=-kappa,
        jump_mean_contraction=1.0,
        density_lipschitz=0.0,
        density_overlap=1.0,
        switch_lipschitz=0.0,
        switch_overlap=1.0,
        intensity_lipschitz=rate.lipschitz,
        anchor=0.0,
        flow_displacement=0.0,  # the anchor is a fixed point of the flow
        jump_displacement=burst_mean,
    )
    return _bundle(
        name,
        AffineExpFlow(rates=(kappa,), anchors=(0.0,)),
        rate,
        AdditiveBurstKernel(mean=burst_mean),
        SwitchingMatrix([[1.0]]),
        declared,
    )


def _ramp_switch(lo: float = 0.1, hi: float = 0.9) -> SwitchingMatrix:
    def stay(y):
        return np.clip(np.asarray(y, dtype=float), lo, hi)

    def leave(y):
        return 1.0 - stay(y)

    return SwitchingMatrix([[stay, leave], [0.5, 0.5]])


def two_regime_model(c0: float = 0.0, c1: float = 1.0, kappa: float = 1.0,
                     switching: str = "ramp", jumps: str = "halving",
                     lam: float = 1.0) -> ModelSpec:
    """Two relaxation regimes with distinct attractors and regime switching.

    switching="ramp" keeps regime 0 with probability clip(y, 0.1, 0.9) and
    leaves regime 1 uniformly; "uniform" switches 50/50 everywhere.
    jumps="halving" uses the two contracting maps y/2 and y/2 + 1/2;
    "bursts" uses additive exponential bursts of mean 1/4.
    """
    if kappa <= 0 or lam <= 0:
        raise ValueError("kappa and lam must be > 0")
    flow = AffineExpFlow(rates=(kappa, kappa), anchors=(c0, c1))
    rate = ConstantIntensity(lam)
    gap = abs(c1 - c0)
    if switching == "ramp":
        pi = _ramp_switch()
        # worst pair is both rows from the clamp: min(0.1,0.9)+min(0.9,0.1)
        switch_lip, switch_overlap = 2.0, 0.2
    elif switching == "uniform":
        pi = SwitchingMatrix.constant([[0.5, 0.5], [0.5, 0.5]])
        switch_lip, switch_overlap = 0.0, 1.0
    else:
        raise ValueError(f"unknown switching choice {switching!r}")
    if jumps == "halving":
        ifs: IfsKernel = FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=None)
        contraction, jump_disp = 0.5, 0.25
    elif jumps == "bursts":
        ifs = AdditiveBurstKernel(mean=0.25)
        contraction, jump_disp = 1.0, 0.25
    else:
        raise ValueError(f"unknown jump choice {jumps!r}")
    anchor = float(c0)
    # discounted displacement of the anchor: attractor c1 pulls it away
    flow_disp = gap * kappa / (rate.lower * (rate.lower + kappa))
    declared = DeclaredConstants(
        flow_lipschitz=1.0,
        flow_rate=-kappa,
        jump_mean_contraction=contraction,
        density_lipschitz=0.0,
        density_overlap=1.0,
        switch_lipschitz=switch_lip,
        switch_overlap=switch_overlap,
        intensity_lipschitz=0.0,
        anchor=anchor,
        flow_displacement=flow_disp,
        jump_displacement=jump_disp,
        flow_gap_time=lambda t, g=gap: np.full_like(np.asarray(t, dtype=float), g),
        flow_gap_scale=lambda y: np.ones_like(np.asarray(y, dtype=float)),
    )
    return _bundle("two-regime", flow, rate, ifs, pi, declared)


def control_expanding_flow() -> ModelSpec:
    """Negative control: exponentially expanding flow, everything else benign.

    Designed to fail exactly the flow-contraction check (expansion rate equals
    the lower intensity bound, so no admissible envelope exists).
    """
    rate = ConstantIntensity(1.0)
    declared = DeclaredConstants(
        flow_lipschitz=1.0,
        flow_rate=1.0,
        jump_mean_contraction=1.0,
        jump_displacement=1.0,
        anchor=0.0,
        flow_displacement=0.0,  # the anchor is still a fixed point
    )
    return _bundle(
        "control-expanding-flow",
        ExpandingFlow(rate=1.0),
        rate,
        AdditiveBurstKernel(mean=1.0),
        SwitchingMatrix([[1.0]]),
        declared,
        positive=False,
    )


def control_supercritical() -> ModelSpec:
    """Negative control: slow decay against a wide intensity band.

    The flow contracts (so the contraction check passes) but the stability
    margin lambda_low - (L * L_w * lambda_high + rate) = 1 - (2 - 0.5) < 0,
    so exactly the margin check fails.
    """
    kappa = 0.5
    rate = SaturatingIntensity(base=1.0, gain=1.0)  # band [1, 2]
    declared = DeclaredConstants(
        flow_lipschitz=1.0,
        flow_rate=-kappa,
        jump_mean_contraction=1.0,
        intensity_lipschitz=rate.lipschitz,
        anchor=0.0,
        flow_displacement=0.0,
        jump_displacement=1.0,
    )
    return _bundle(
        "control-supercritical",
        AffineExpFlow(rates=(kappa,), anchors=(0.0,)),
        rate,
        AdditiveBurstKernel(mean=1.0),
        SwitchingMatrix([[1.0]]),
        declared,
        positive=False,
    )


def control_degenerate_switching() -> ModelSpec:
    """Negative control: absorbing regimes, so the switching minorization is 0."""
    flow = AffineExpFlow(rates=(1.0, 1.0), anchors=(0.0, 1.0))
    rate = ConstantIntensity(1.0)
    declared = DeclaredConstants(
        flow_lipschitz=1.0,
        flow_rate=-1.0,
        jump_mean_contraction=0.5,
        switch_lipschitz=0.0,
        switch_overlap=0.0,
        anchor=0.0,
        flow_displacement=0.5,
        jump_displacement=0.25,
        flow_gap_time=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        flow_gap_scale=lambda y: np.ones_like(np.asarray(y, dtype=float)),
    )
    return _bundle(
        "control-degenerate-switching",
        flow,
        rate,
        FiniteAffineIfs(maps=((0.5, 0.0), (0.5, 0.5)), probs=None),
        SwitchingMatrix.constant([[1.0, 0.0], [0.0, 1.0]]),
        declared,
        positive=False,
    )


MODEL_REGISTRY: dict[str, Callable[..., ModelSpec]] = {
    "gene": gene_expression_model,
    "gene-constant": lambda **kw: gene_expression_model(intensity="constant", **kw),
    "gene-saturating": lambda **kw: gene_expression_model(intensity="saturating", **kw),
    "two-regime": two_regime_model,
    "control-expanding-flow": control_expanding_flow,
    "control-supercritical": control_supercritical,
    "control-degenerate-switching": control_degenerate_switching,
}


def build_model(name: str, params: Optional[dict] = None) -> ModelSpec:
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](**(params or {}))
