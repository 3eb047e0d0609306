"""Simulation and numerical verification toolkit for piecewise deterministic
Markov processes with switching flows and state-dependent jump rates."""

from .diagnostics import (
    AssumptionReport,
    DriftConstants,
    drift_constants,
    run_assumption_suite,
    stability_margin,
    verify_drift_empirically,
)
from .flows import AffineExpFlow, ExpandingFlow, FrozenFlow, Semiflow
from .grid import GridModel, build_grid_model, check_factorization, oracle_correspondence, power_iteration
from .hazard import (
    ConstantIntensity,
    CumulativeHazard,
    SaturatingIntensity,
    invert_holding,
    sample_holding_thinning_vec,
)
from .jumps import (
    AdditiveBurstKernel,
    FiniteAffineIfs,
    PostJumpKernel,
    SwitchingMatrix,
)
from .metrics import bl_lower_bound, measure_distance, wasserstein1_1d
from .models import (
    ModelSpec,
    build_model,
    control_degenerate_switching,
    control_expanding_flow,
    control_supercritical,
    gene_expression_model,
    two_regime_model,
)
from .simulate import (
    ChainEnsemble,
    chain_measure,
    chain_step,
    count_jumps,
    evaluate_paths,
    occupation_from_ensemble,
    run_ensemble,
)
from .state import WeightedEmpiricalMeasure, ZeroMassError
from .transforms import (
    TransformReport,
    chain_to_flow_stationary,
    flow_to_chain_stationary,
    holding_occupation_quadrature,
    holding_occupation_transform,
    weighted_jump_transform,
)

__version__ = "0.1.0"
