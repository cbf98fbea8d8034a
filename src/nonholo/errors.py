"""Exception types shared across the package.

Every error raised on a mathematically meaningful failure path derives from
:class:`NonholoError`, so callers (and the command line driver) can separate
modelling problems from plain bugs.
"""

from __future__ import annotations


class NonholoError(Exception):
    """Base class for all package-specific errors."""


class SingularMetric(NonholoError):
    """Kinetic-energy matrix is not symmetric positive definite at a point."""


class RankDeficiency(NonholoError):
    """A basis or constraint block lost rank where full rank is required."""


class ChartDomain(NonholoError):
    """Evaluation point left the valid domain of a coordinate chart or frame."""


class SingularDenominator(NonholoError):
    """A model-specific closed-form denominator vanished (or nearly did)."""


class NonAdaptedState(NonholoError):
    """State fed to the reduced dynamics disagrees with the commanded controls."""


class StepRejected(NonholoError):
    """Integrator diagnostics exceeded hard tolerances; the run is unreliable."""


class NotInDeltaCapGamma(NonholoError):
    """A vector expected in the free-motion block has components outside it."""


class ModelError(NonholoError):
    """A named model is unknown or does not support the requested operation."""


class ConfigError(NonholoError):
    """Configuration file is malformed or missing a required key."""
