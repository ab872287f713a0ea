"""Nonlocal perimeter/repulsion energies for sets, with boundary-condition
diagnostics, a 1D two-interval critical-point solver, and a 2D shape descent.

The public surface re-exported here is the supported API; everything else is
an implementation detail.
"""

__version__ = "0.1.0"

from .errors import (BracketError, ConfigError, ConfigNotFoundError,
                     GeometryError, NlshapeError, ParamError, QuadratureError,
                     StalledError)
from .sets import (Ball, BoundaryMesh, IntervalSet, Params, StarShape2D,
                   diameter, geometry_from_dict, geometry_to_dict,
                   isodiametric_ratio, load_geometry, save_geometry, volume)
from .quad import pv_pair_integral
from .functionals import (DEFAULT_NQ, DEFAULT_RESOLUTION, BoundaryFields,
                          EnergyBreakdown, boundary_fields, energy,
                          frac_curvature, frac_perimeter, grad_potential,
                          grad_potential_at_points, potential,
                          potential_at_points, riesz_energy, set_integral_2d,
                          tangential_grad_potential, zeta)
from .onedim import (SweepRecord, TwoIntervalConfig, epsilon_sweep,
                     f_closed_form, g_and_d_eps, solve_critical_d,
                     two_interval_set, zeta_endpoints)
from .diagnostics import (DiagnosticsReport, annulus_deficit_rho, au2_sides,
                          ball_map_mu, calibrate_variation_constant, diagnose,
                          eta, identity_check, lambda_cross_estimate,
                          lambda_hat_and_residual, lipschitz_defect_delta)
from .shapeopt import (OptimizerState, el_gradient_step, find_critical_2d,
                       fourier_shape, volume_project)

__all__ = [
    "__version__",
    # errors
    "NlshapeError", "GeometryError", "ParamError", "ConfigError",
    "ConfigNotFoundError", "QuadratureError", "BracketError", "StalledError",
    # sets
    "Params", "IntervalSet", "Ball", "StarShape2D", "BoundaryMesh",
    "volume", "diameter", "isodiametric_ratio",
    "geometry_to_dict", "geometry_from_dict", "load_geometry", "save_geometry",
    # quadrature
    "pv_pair_integral",
    # functionals
    "frac_perimeter", "riesz_energy", "energy", "EnergyBreakdown",
    "potential", "grad_potential", "tangential_grad_potential",
    "frac_curvature", "zeta", "boundary_fields",
    "BoundaryFields", "set_integral_2d",
    "potential_at_points", "grad_potential_at_points",
    "DEFAULT_NQ", "DEFAULT_RESOLUTION",
    # one dimension
    "TwoIntervalConfig", "two_interval_set", "zeta_endpoints",
    "f_closed_form", "g_and_d_eps", "solve_critical_d", "epsilon_sweep",
    "SweepRecord",
    # diagnostics
    "DiagnosticsReport", "diagnose", "lipschitz_defect_delta", "eta",
    "annulus_deficit_rho", "lambda_hat_and_residual",
    "lambda_cross_estimate", "identity_check", "au2_sides", "ball_map_mu",
    "calibrate_variation_constant",
    # 2D descent
    "OptimizerState", "fourier_shape", "volume_project", "el_gradient_step",
    "find_critical_2d",
]
