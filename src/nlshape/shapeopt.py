"""Volume-constrained critical-point search over planar star shapes.

Descent on F_eps with the volume constraint handled by two complementary
devices: the applied normal velocity is built from the mean-zero field
zeta - lambda_hat, which preserves volume to first order, and every
candidate is radially rescaled back to unit area afterwards (exact).

The step is a Newton step at the disk. There the linearized zeta is
diagonal in Fourier modes: perturbing the unit-area disk by h cos(k theta)
changes zeta by h mu_k cos(k theta), with mu_k growing with k (Figalli,
Fusco, Maggi, Millot and Morini, Comm. Math. Phys. 2015, for the second
variation at the ball). Plain steepest descent damps mode k at a rate
proportional to mu_k and so needs tens of iterations; dividing each mode
by mu_k damps them all at once. The spectrum mu_2..mu_k_max is that second
variation in closed form (_disk_spectrum, built at each step); modes 0
and 1 (dilation, translation) use mu_2, and every mu_k is clamped below at
a fixed fraction of the largest. What the clamp guarantees is a bound in
the uniform-angle pairing: every mu_k is positive, so the scaled velocity
d pairs positively with v = zeta - lambda_hat at equal node weights (sum
v d is a positively weighted sum of |mode k of v|^2 / mu_k), and the ratio
of the largest mu_k to the smallest is at most 1 / _MU_FLOOR. That does
not make d a descent direction: the first variation of F_eps pairs v with
d in arc length, with the weight J, and nothing bounds sum J v d. Near the
disk J is nearly constant and the two pairings agree; far from it sum J v d
can be small against sum v d (0.38 against 30 at eps = 30), and the line
search stalls.

One step:
  1. read the shape's residual map (_residual_map): its boundary sweep,
     lambda_hat = weighted mean of zeta, the residual, the modes of
     zeta - lambda_hat and F_eps. The map is kept on the shape, like its
     sweep, so the accepted candidate's map of the previous step serves
     find_critical_2d's stopping test and this step, and the final shape's
     sweep at the requested mesh the final diagnose;
  2. scale mode k of v = zeta - lambda_hat by 1 / mu_k (real FFT over the
     mesh angles, modes above k_max dropped);
  3. radial update dr = -step * v * J / r at the mesh angles (J / r
     converts normal speed to radial speed; r is the shape's kept grid),
     with step = 1 (the full Newton step) at the first trial;
  4. resample to Fourier coefficients, truncating above k_max -- the
     spectral smoothing that keeps quadrature noise from feeding
     high-frequency growth. A radius that is not positive is a rejected
     trial (StarShape2D.from_samples refuses it);
  5. rescale to unit area;
  6. read the candidate's residual map, whose F_eps = P_s + eps R_alpha
     comes from the same on-curve passes as its zeta; accept only if F_eps
     is at most the F_eps of step 1's map, else halve the step and retry.
     The accepted candidate's map, kept on it, is step 1 of the next
     iteration.

find_critical_2d runs these steps on two meshes. It steps on a coarse mesh
of min(m, _TARGETS_PER_MODE (k_max + 1)) targets, which resolves the
shape's k_max modes, and moves to the requested resolution m when the
coarse residual meets tol or the no-op floor, or a coarse step stalls; it
steps on at m until the residual there meets tol. The final shape is swept
once at (m, nq), and that sweep serves the stopping test, the report and
diagnose, so everything the solve returns is read at m. Each entry of
residual_history is read on the mesh of its step. At m the first residual
at the no-op floor ends the solve, with no idle iteration counted.

The state (OptimizerState) is the trajectory alone: the shape, the
iteration count and the residuals. The settings a step runs with (Params,
mesh resolution, nq and mode cap) are arguments of el_gradient_step, so
find_critical_2d's switch of mesh is a local variable, not a state field.
F_eps is not held on the state, so a step under other Params compares its
candidates with the F_eps of the shape under those Params; the area of
the shape is sets.volume's, also kept on the shape. The iteration
certifies criticality (small sup |zeta - lambda_hat|), not minimality; the
identities of a solved shape come from diagnose on it, which reads the
sweeps the solve kept on the shape and makes none.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsReport, diagnose
from .errors import GeometryError, ParamError, QuadratureError, StalledError
from .functionals import DEFAULT_NQ, DEFAULT_RESOLUTION, _as_star, _sweep
from .sets import (Params, StarShape2D, _per_shape, _require_count,
                   _require_real, mesh_angles, volume)

__all__ = [
    "OptimizerState", "fourier_shape", "volume_project", "el_gradient_step",
    "find_critical_2d",
]

DEFAULT_K_MAX = 12
_MIN_STEP = 1e-14
# no mode's eigenvalue is taken below this fraction of the largest one, so
# every mode is scaled by a positive 1 / mu_k even where some mu_k <= 0
_MU_FLOOR = 1e-3
# residual at or below this is quadrature noise: the step is a no-op rather
# than a fight against roundoff (exact critical points must be fixed points)
_NOOP_FLOOR = 1e-11
# find_critical_2d steps on a mesh of this many targets per kept mode
_TARGETS_PER_MODE = 5


@dataclass(frozen=True)
class OptimizerState:
    """Immutable snapshot of one optimization trajectory: the shape it has
    reached, the iterations taken and the residual each read.
    OptimizerState(S) is the start of a descent from S.

    It holds no solver setting and nothing its shape determines. F_eps and
    the residual are read from the shape's residual map (_residual_map,
    kept on the shape) under the Params, resolution, nq and k_max of the
    el_gradient_step that reads them, and the area from sets.volume, also
    kept on the shape.
    """

    shape: StarShape2D
    iteration: int = 0
    residual_history: tuple = ()


def fourier_shape(coeffs) -> StarShape2D:
    """Build a star shape about the origin from a mapping like
    {"r0": 1.0, "a3": 0.05}; sets.translated places it elsewhere.

    Keys: r0, a<k>, b<k> for k >= 1, each mode named once; the shape's kmax
    is the highest mode named. A coeffs that is not a mapping, a key that
    is not one of those strings and a value that is not a finite real
    number (a bool or a string among them) raise ParamError.
    """
    if not isinstance(coeffs, Mapping):
        raise ParamError(f"coefficients must be a mapping, got {coeffs!r}")
    r0 = None
    amp = {}
    for key, val in coeffs.items():
        v = _require_real(key, val)
        if key == "r0":
            r0 = v
            continue
        if not (isinstance(key, str) and key[:1] in ("a", "b")
                and key[1:].isdecimal()):
            raise ParamError(f"unknown coefficient key {key!r} (want r0, a<k>, b<k>)")
        mode, k = key[0], int(key[1:])
        if k < 1:
            raise ParamError(f"mode index must be >= 1 in {key!r}")
        if (mode, k) in amp:
            raise ParamError(f"coefficient {key!r} names mode {mode}{k} again")
        amp[(mode, k)] = v
    if r0 is None:
        raise ParamError("coefficient mapping needs an r0 entry")
    kk = max((k for _, k in amp), default=0)
    a = np.zeros(kk)
    b = np.zeros(kk)
    for (mode, k), v in amp.items():
        (a if mode == "a" else b)[k - 1] = v
    return StarShape2D((0.0, 0.0), r0, a, b)


def volume_project(S) -> StarShape2D:
    """Uniform radial rescale about the shape's own center to unit area.

    All coefficients scale by the same factor, so the shape (and every
    scale-invariant diagnostic) is unchanged, and so is the sign of the
    radius: the positivity check is not run again. A planar ball is read as
    its constant-radius star shape; any other geometry raises GeometryError.
    """
    S = _as_star(S)
    c = 1.0 / math.sqrt(volume(S))
    return StarShape2D._positive(S.center, c * S.r0, c * S.a, c * S.b)


def _mode_gaps(q: float, k_max: int) -> np.ndarray:
    """I(q, k) - I(q, 1) for k = 2..k_max, where I(q, k) is the integral of
    (2 sin(psi/2))^(-q) cos(k psi) over one period, continued analytically
    in q: 2 pi Gamma(1 - q) (-1)^k / (Gamma(1 - q/2 + k) Gamma(1 - q/2 - k)).
    I(q, k) / I(q, k - 1) = 1 + (q - 1) / (k - q/2) is summed in logs, so no
    Gamma overflows, and the pole of Gamma(1 - q) at q = 1, where the gap
    vanishes, is divided out (its limit there is exact)."""
    j = np.arange(2.0, k_max + 1.0)
    c = (2.0 * math.pi * math.gamma(2.0 - q)
         / (math.gamma(2.0 - 0.5 * q) * math.gamma(-0.5 * q)))
    if q == 1.0:
        return c * np.cumsum(1.0 / (j - 0.5))
    log_ratios = np.log1p((q - 1.0) / (j - 0.5 * q))
    return c * np.expm1(np.cumsum(log_ratios)) / (q - 1.0)


def _linearized_zeta(p: Params, k_max: int) -> np.ndarray:
    """mu_2..mu_k_max: the change of zeta per unit of h, in mode k, when the
    unit-area disk's radius R becomes R + h cos(k theta), from the second
    variation at the ball: the linearized kappa, 2 R^(-1-s) (I(2+s, 1) -
    I(2+s, k)), plus 2 eps times the linearized V,
    R^(1-alpha) (I(alpha, k) - I(alpha, 1)). mu_1 = 0 (a translation)."""
    R = 1.0 / math.sqrt(math.pi)
    return (-2.0 * R ** (-1.0 - p.s) * _mode_gaps(2.0 + p.s, k_max)
            + 2.0 * p.eps * R ** (1.0 - p.alpha)
            * _mode_gaps(p.alpha, k_max))


def _disk_spectrum(p: Params, k_max: int) -> np.ndarray:
    """(mu_0, ..., mu_K), K = max(2, k_max): the disk's linearized zeta per
    Fourier mode, each clamped below at _MU_FLOOR times the largest |mu_k|,
    with modes 0 and 1 set to the clamped mu_2. A non-finite or all-zero
    spectrum raises QuadratureError."""
    mu = _linearized_zeta(p, max(2, k_max))
    top = np.abs(mu).max()
    if not (np.isfinite(mu).all() and top > 0.0):
        raise QuadratureError(
            f"disk spectrum is not finite and nonzero: {mu.tolist()}")
    mu = np.maximum(mu, _MU_FLOOR * top)
    return np.concatenate([mu[:1], mu[:1], mu])


@_per_shape
def _residual_map(shape, p: Params, resolution: int, nq: int, k_max: int):
    """Everything the descent reads off a shape, as the tuple (bf, lam,
    residual, modes, f_eps): the boundary sweep bf, lambda_hat and
    sup |zeta - lambda_hat| from it, the real-FFT modes 0..max(2, k_max) of
    zeta - lambda_hat (fewer when the mesh has fewer; read-only) and
    F_eps = P_s + eps R_alpha. Like the sweep, it is kept on the shape
    (sets._per_shape), so the stopping test, the step from the shape and
    the shape's own test as a candidate read one computation."""
    bf = _sweep(shape, p, resolution, nq)
    lam, residual = bf.lambda_hat_and_residual()
    modes = np.fft.rfft(bf.zeta - lam)[:max(2, k_max) + 1]
    modes.flags.writeable = False
    return bf, lam, residual, modes, bf.perimeter + p.eps * bf.riesz


def _at_floor(lam: float, residual: float) -> bool:
    """Whether a residual is at the no-op floor, _NOOP_FLOOR times
    max(1, |lambda_hat|): quadrature noise that a step would only fight."""
    return residual <= _NOOP_FLOOR * max(1.0, abs(lam))


def el_gradient_step(state: OptimizerState, p: Params,
                     resolution: int = DEFAULT_RESOLUTION,
                     nq: int = DEFAULT_NQ,
                     k_max: int = DEFAULT_K_MAX) -> OptimizerState:
    """One accepted descent step (or a certified no-op at the noise floor).

    lambda_hat, the residual, the velocity and the F_eps every candidate is
    compared with are read from the residual map of the state's shape under
    p, resolution, nq and k_max, kept on the shape (the accepted
    candidate's of the previous step). Each candidate keeps modes up to
    k_max and is evaluated by its own residual map, one boundary sweep,
    which is kept on it. The first trial is the full Newton step 1, halved
    on each rejection. Raises StalledError (carrying the state) when no
    energy-non-increasing candidate exists down to the minimal step size.

    The state's shape is read as a star shape (a planar ball as its star;
    any other geometry raises GeometryError). A k_max that is a bool, not
    an integer, or below 1 (a descent keeps at least mode 1) raises
    ParamError, as do the resolutions and nq the sweep refuses.
    """
    _require_count("k_max", k_max, 1)
    shape = _as_star(state.shape)
    bf, lam, residual, coef, f_eps = _residual_map(shape, p, resolution, nq,
                                                   k_max)
    history = state.residual_history + (residual,)

    if _at_floor(lam, residual):
        return OptimizerState(shape, state.iteration + 1, history)

    # the Newton step at the disk: mode k of zeta - lambda_hat divided by
    # mu_k, applied as the normal speed v * J / r at the mesh angles
    mesh = bf.mesh
    mu = _disk_spectrum(p, k_max)
    v = np.fft.irfft(coef / mu[:coef.size], bf.zeta.size)
    speed = mesh.weights * mesh.points.shape[0] / (2.0 * math.pi)
    r = shape._grid(mesh.thetas.size)[2]

    step = 1.0
    while step >= _MIN_STEP:
        try:
            cand = StarShape2D.from_samples(
                shape.center, r - step * v * speed / r, k_max)
        except GeometryError:
            # a radius that is not positive, at a mesh angle or between
            # them once the series is cut at k_max: a rejected trial like
            # an energy increase
            step *= 0.5
            continue
        cand = volume_project(cand)
        if _residual_map(cand, p, resolution, nq, k_max)[4] <= f_eps:
            return OptimizerState(cand, state.iteration + 1, history)
        step *= 0.5
    raise StalledError(
        f"no energy-non-increasing step found above step={_MIN_STEP:g} "
        f"(residual {residual:g})",
        state=OptimizerState(shape, state.iteration, history))


def find_critical_2d(init: StarShape2D, p: Params, tol: float = 1e-3,
                     max_iter: int = 500,
                     resolution: int = DEFAULT_RESOLUTION,
                     nq: int = DEFAULT_NQ, k_max: int = DEFAULT_K_MAX,
                     full_output: bool = False):
    """Drive the boundary condition residual below tol from init.

    init must already have unit area (use volume_project). Returns
    (shape, DiagnosticsReport), or (shape, report, OptimizerState) with
    full_output. The report holds no identity residuals; diagnose(shape,
    p, resolution, nq) gives them with no boundary sweep of its own, as it
    reads the sweeps at nq and 2 nq kept on the returned shape.

    The steps run on a mesh of min(resolution, 5 (k_max + 1)) targets. The
    solve moves to the requested resolution when the residual on that mesh
    meets tol or the no-op floor (_NOOP_FLOOR max(1, |lambda_hat|)), or a
    step there raises StalledError, and steps on at resolution until the
    residual there meets tol. The report is read at resolution; each entry
    of residual_history is read on the mesh of its step.

    Hitting max_iter, or a residual at the no-op floor at resolution,
    returns normally with the residual visible in the report; a stall at
    resolution with the residual still above tol raises StalledError.
    tol = inf or max_iter = 0 takes no step: it diagnoses init. A NaN or
    negative tol, which no residual meets, or one that is not a real number
    (a bool among them) raises ParamError, and so does a max_iter that is a
    bool, not an integer, or negative.
    """
    tol = _require_real("tol", tol, "[0, inf]")
    _require_count("max_iter", max_iter, 0)
    mesh_angles(resolution)
    _require_count("k_max", k_max, 1)
    init = _as_star(init)
    if abs(volume(init) - 1.0) > 1e-8:
        raise GeometryError(
            f"initial shape must have unit area (got {volume(init)!r}); "
            "apply volume_project first")
    state = OptimizerState(init)
    # each shape's residual map is computed once per mesh: it is kept on it
    mesh = min(resolution, _TARGETS_PER_MODE * (k_max + 1))
    while state.iteration < max_iter:
        _, lam, residual = _residual_map(state.shape, p, mesh, nq, k_max)[:3]
        if residual <= tol or _at_floor(lam, residual):
            if mesh < resolution:
                mesh = resolution
                continue
            state = OptimizerState(state.shape, state.iteration,
                                   state.residual_history + (residual,))
            break
        try:
            state = el_gradient_step(state, p, mesh, nq, k_max)
        except StalledError:
            # a stall at the requested mesh has its residual above tol
            if mesh == resolution:
                raise
            mesh = resolution
    report = diagnose(state.shape, p, resolution, nq, with_identities=False)
    return (state.shape, report, state) if full_output else (state.shape, report)
