"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems exit
with 2, and so does every ParamError, a parameter outside its range being a
configuration error wherever the library refuses it; domain failures (bad
geometry, quadrature breakdown, failed brackets, stalled descent) exit with
1. Library callers get ordinary exceptions and never a process exit.
"""

from __future__ import annotations


class NlshapeError(Exception):
    """Base class for everything raised deliberately by this package."""


class GeometryError(NlshapeError, ValueError):
    """Invalid set geometry: overlapping intervals, nonpositive radius, ..."""


class ParamError(NlshapeError, ValueError):
    """Parameter outside its admissible range; message names the field
    (CLI exit code 2)."""


class ConfigError(NlshapeError, ValueError):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


class ConfigNotFoundError(ConfigError):
    """Configuration file path does not exist."""


class QuadratureError(NlshapeError, RuntimeError):
    """A quadrature result is unusable: not finite, or short of its tolerance
    (shapeopt's disk spectrum, the radius check of
    calibrate_variation_constant)."""


class BracketError(NlshapeError, RuntimeError):
    """Root bracketing failed within the probe budget."""


class StalledError(NlshapeError, RuntimeError):
    """Gradient descent could not find an acceptable step.

    The optimizer state at the point of failure is attached as ``state``.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
