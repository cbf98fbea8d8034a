"""Reduced dynamics of non-holonomic systems whose last coordinates are controlled.

The configuration space splits ``g``-orthogonally into a free block (motions
compatible with both the velocity constraints and the frozen controls), a
reaction block, and a drive block (minimal-energy lifts of control rates).
The package computes the splitting and its projections (:mod:`core_geometry`),
the reduced momentum dynamics driven by the control rate
(:mod:`reduced_dynamics`), fixed-step integration with built-in residual
diagnostics plus averaging experiments (:mod:`simulate`), sampled diagnostics
for tolerance of control jumps (:mod:`jump_analysis`), two worked mechanical
systems with closed-form oracles (:mod:`models`), and a CLI (:mod:`cli`).

The public API is ``__all__``; other module attributes are internal.
"""

from .core_geometry import (
    ProjectionSet,
    SystemSpec,
    argmin_certificate,
    projection_set,
)
from .errors import (
    ChartDomain,
    ConfigError,
    ModelError,
    NonAdaptedState,
    NonholoError,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularDenominator,
    SingularMetric,
    StepRejected,
)
from .jump_analysis import (
    BoxSampler,
    FitnessReport,
    SufficiencyReport,
    leaf_metric_derivative,
    psi_scan,
    sufficiency_check,
    theta_on_III_scan,
)
from .models import (
    ModelBundle,
    build_model,
    model_names,
    roller_racer_averaged_rhs,
    roller_racer_closed_rhs,
)
from .reduced_dynamics import (
    ControlSignal,
    centrifugal_psi,
    frame_coefficients,
    frame_rhs,
)
from .simulate import (
    IntegratorConfig,
    OscillationSweep,
    Trajectory,
    TwoTimescale,
    integrate,
    oscillation_sweep,
    rk4_path,
    two_timescale_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSampler",
    "ChartDomain",
    "ConfigError",
    "ControlSignal",
    "FitnessReport",
    "IntegratorConfig",
    "ModelBundle",
    "ModelError",
    "NonAdaptedState",
    "NonholoError",
    "NotInDeltaCapGamma",
    "OscillationSweep",
    "ProjectionSet",
    "RankDeficiency",
    "SingularDenominator",
    "SingularMetric",
    "StepRejected",
    "SufficiencyReport",
    "SystemSpec",
    "Trajectory",
    "TwoTimescale",
    "argmin_certificate",
    "build_model",
    "centrifugal_psi",
    "frame_coefficients",
    "frame_rhs",
    "integrate",
    "leaf_metric_derivative",
    "model_names",
    "oscillation_sweep",
    "projection_set",
    "psi_scan",
    "rk4_path",
    "roller_racer_averaged_rhs",
    "roller_racer_closed_rhs",
    "sufficiency_check",
    "theta_on_III_scan",
    "two_timescale_coefficient",
]
