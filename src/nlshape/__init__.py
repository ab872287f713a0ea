"""Nonlocal perimeter/repulsion energies for sets, with boundary-condition
diagnostics, a 1D two-interval critical-point solver, and a 2D shape descent.

The public surface re-exported here is the supported API; everything else is
an implementation detail.

Importing the package executes errors alone. Every other submodule is
registered in sys.modules through importlib.util.LazyLoader, so it is
compiled and executed when one of its attributes is first read: a 1D run
never builds the 2D code. A public name is read off its owner module at
each access (PEP 562) and never stored here, so a patch on the owner is
what the package returns. Before Python 3.13, LazyLoader takes no lock
for that first read, so threads that first read one module at the same
moment can see it half run: read the modules a program uses before
starting its threads.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# the public names, by the module that owns them
_EXPORTS = {
    "errors": ("NlshapeError", "GeometryError", "ParamError", "ConfigError",
               "ConfigNotFoundError", "QuadratureError", "BracketError",
               "StalledError"),
    "sets": ("Params", "IntervalSet", "Ball", "StarShape2D", "BoundaryMesh",
             "volume", "diameter", "isodiametric_ratio", "geometry_to_dict",
             "geometry_from_dict", "load_geometry", "save_geometry"),
    "quad": ("pv_pair_integral",),
    "functionals": ("frac_perimeter", "riesz_energy", "energy",
                    "EnergyBreakdown", "potential", "grad_potential",
                    "tangential_grad_potential", "frac_curvature", "zeta",
                    "boundary_fields", "BoundaryFields", "set_integral_2d",
                    "potential_at_points", "grad_potential_at_points",
                    "DEFAULT_NQ", "DEFAULT_RESOLUTION"),
    "onedim": ("TwoIntervalConfig", "two_interval_set", "zeta_endpoints",
               "f_closed_form", "g_and_d_eps", "solve_critical_d",
               "epsilon_sweep", "SweepRecord"),
    "diagnostics": ("DiagnosticsReport", "diagnose", "lipschitz_defect_delta",
                    "eta", "annulus_deficit_rho", "lambda_hat_and_residual",
                    "lambda_cross_estimate", "identity_check", "au2_sides",
                    "ball_map_mu", "calibrate_variation_constant"),
    "shapeopt": ("OptimizerState", "fourier_shape", "volume_project",
                 "el_gradient_step", "find_critical_2d"),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_OWNER]


def _lazy(name):
    """The submodule name, registered and not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _mod in _EXPORTS:
    if _mod != "errors":  # executed above
        globals()[_mod] = _lazy(_mod)
del _mod


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
