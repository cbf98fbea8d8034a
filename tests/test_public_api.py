"""The package's public names: ``nonholo.__all__``, and the module attributes kept out of it."""

import importlib

import nonholo

PUBLIC = [
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

# names that left ``__all__`` but stay attributes of their modules, which tests and the benchmark's spans reach
INTERNAL = [
    ("core_geometry", "Array"),
    ("reduced_dynamics", "CoefficientTensors"),
    ("reduced_dynamics", "coefficient_tensors"),
    ("reduced_dynamics", "theta_I_apply"),
    ("reduced_dynamics", "reduced_rhs"),
    ("reduced_dynamics", "reaction_force"),
    ("jump_analysis", "ConditionResult"),
    ("models", "EuclideanToyParams"),
    ("models", "RollerRacerParams"),
    ("models", "RollingBallParams"),
    ("models", "roller_racer_spec"),
    ("models", "rolling_ball_spec"),
]


def test_public_surface():
    """``__all__`` is the public list, each of its names resolves, and each dropped name stays in its module."""
    assert nonholo.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(nonholo, name)] == []
    for module, name in INTERNAL:
        assert not hasattr(nonholo, name), name
        assert hasattr(importlib.import_module(f"nonholo.{module}"), name), (module, name)
