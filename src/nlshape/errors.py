"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems exit
with 2, domain failures (bad geometry, quadrature breakdown, failed brackets,
stalled descent) exit with 1. Library callers get ordinary exceptions and
never a process exit.
"""

from __future__ import annotations


class NlshapeError(Exception):
    """Base class for everything raised deliberately by this package."""


class GeometryError(NlshapeError, ValueError):
    """Invalid set geometry: overlapping intervals, nonpositive radius, ..."""


class ParamError(NlshapeError, ValueError):
    """Parameter outside its admissible range; message names the field."""


class ConfigError(NlshapeError, ValueError):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


class ConfigNotFoundError(ConfigError):
    """Configuration file path does not exist."""


class QuadratureError(NlshapeError, RuntimeError):
    """A quadrature result is unusable: not finite, or short of its tolerance.

    estimate and error_bound are None unless the raiser has them; the
    package's one raise site, shapeopt's disk spectrum, passes neither.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(NlshapeError, RuntimeError):
    """Root bracketing failed within the probe budget."""


class StalledError(NlshapeError, RuntimeError):
    """Gradient descent could not find an acceptable step.

    The optimizer state at the point of failure is attached as ``state``.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
