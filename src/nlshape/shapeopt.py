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
     zeta - lambda_hat and F_eps (the sweep is kept on the shape, so the
     accepted candidate's sweep of the previous step serves
     find_critical_2d's stopping test, this step and the final diagnose);
  2. scale mode k of v = zeta - lambda_hat by 1 / mu_k (real FFT over the
     mesh angles, modes above k_max dropped);
  3. radial update dr = -step * v * J / r at the mesh angles (J / r
     converts normal speed to radial speed; r is the shape's kept grid);
  4. resample to Fourier coefficients, truncating above k_max -- the
     spectral smoothing that keeps quadrature noise from feeding
     high-frequency growth;
  5. rescale to unit area;
  6. read the candidate's residual map, whose F_eps = P_s + eps R_alpha
     comes from the same on-curve passes as its zeta; accept only if F_eps
     did not increase, else halve the step and retry. The accepted
     candidate's sweep, kept on it, is step 1 of the next iteration.

Every iteration's first trial is the state's step_size (1, the full Newton
step, by default); an accepted step leaves it unchanged. The iteration
certifies criticality (small sup |zeta - lambda_hat|), not minimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .diagnostics import DiagnosticsReport, diagnose
from .errors import GeometryError, ParamError, QuadratureError, StalledError
from .functionals import DEFAULT_NQ, DEFAULT_RESOLUTION, _as_star, _sweep
from .sets import (Params, StarShape2D, _is_real, _require_count, mesh_angles,
                   volume)

__all__ = [
    "OptimizerState", "fourier_shape", "volume_project", "el_gradient_step",
    "find_critical_2d", "initial_state",
]

DEFAULT_K_MAX = 12
DEFAULT_STEP = 1.0
_MIN_STEP = 1e-14
# no mode's eigenvalue is taken below this fraction of the largest one, so
# every mode is scaled by a positive 1 / mu_k even where some mu_k <= 0
_MU_FLOOR = 1e-3
# residual at or below this is quadrature noise: the step is a no-op rather
# than a fight against roundoff (exact critical points must be fixed points)
_NOOP_FLOOR = 1e-11


@dataclass(frozen=True)
class OptimizerState:
    """Immutable snapshot of one optimization trajectory."""

    shape: StarShape2D
    step_size: float
    iteration: int
    residual_history: tuple
    volume_drift: float
    mesh_resolution: int = DEFAULT_RESOLUTION
    k_max: int = DEFAULT_K_MAX
    energy: float = math.nan  # F_eps of shape; nan = not yet evaluated


def fourier_shape(coeffs, center=(0.0, 0.0), k_max: Optional[int] = None) -> StarShape2D:
    """Build a star shape from a mapping like {"r0": 1.0, "a3": 0.05}.

    Keys: r0, a<k>, b<k> for k >= 1. Modes above k_max (when given) are
    rejected rather than dropped, so a config cannot silently lose detail;
    a k_max that is a bool, not an integer, or negative raises ParamError.
    """
    if k_max is not None:
        _require_count("k_max", k_max, 0)
    r0 = None
    amp = {}
    for key, val in dict(coeffs).items():
        v = float(val)
        if key == "r0":
            r0 = v
            continue
        mode = key[0]
        if mode not in ("a", "b") or not key[1:].isdigit():
            raise ParamError(f"unknown coefficient key {key!r} (want r0, a<k>, b<k>)")
        k = int(key[1:])
        if k < 1:
            raise ParamError(f"mode index must be >= 1 in {key!r}")
        if k_max is not None and k > k_max:
            raise ParamError(f"coefficient {key!r} exceeds k_max = {k_max}")
        amp[(mode, k)] = v
    if r0 is None:
        raise ParamError("coefficient mapping needs an r0 entry")
    kk = max((k for _, k in amp), default=0)
    a = np.zeros(kk)
    b = np.zeros(kk)
    for (mode, k), v in amp.items():
        (a if mode == "a" else b)[k - 1] = v
    return StarShape2D(center, r0, a, b)


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


def initial_state(shape, resolution: int = DEFAULT_RESOLUTION,
                  k_max: int = DEFAULT_K_MAX,
                  step: float = DEFAULT_STEP) -> OptimizerState:
    """The state at iteration 0 of a descent from shape (a star shape or a
    planar ball, read as its star shape).

    Raises ParamError for a step that is not a finite positive real number
    (a bool is not one), for a resolution that mesh_angles refuses, and for
    a k_max that is a bool, not an integer, or below 1 (a descent keeps at
    least mode 1); GeometryError for a geometry that is not planar.
    """
    if not (_is_real(step) and 0.0 < step < math.inf):
        raise ParamError(f"step size must be finite and positive, got {step!r}")
    mesh_angles(resolution)
    _require_count("k_max", k_max, 1)
    shape = _as_star(shape)
    return OptimizerState(shape=shape, step_size=step, iteration=0,
                          residual_history=(), volume_drift=abs(volume(shape) - 1.0),
                          mesh_resolution=resolution, k_max=k_max)


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
    I(2+s, k)), plus c_coupling eps times the linearized V,
    R^(1-alpha) (I(alpha, k) - I(alpha, 1)). mu_1 = 0 (a translation)."""
    R = 1.0 / math.sqrt(math.pi)
    return (-2.0 * R ** (-1.0 - p.s) * _mode_gaps(2.0 + p.s, k_max)
            + p.c_coupling * p.eps * R ** (1.0 - p.alpha)
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


def _residual_map(shape, p: Params, resolution: int, nq: int, k_max: int):
    """Everything the descent reads off a shape, as the tuple (bf, lam,
    residual, modes, f_eps): the boundary sweep bf kept on the shape,
    lambda_hat and sup |zeta - lambda_hat| from it, the real-FFT modes
    0..max(2, k_max) of zeta - lambda_hat (fewer when the mesh has fewer),
    and F_eps = P_s + eps R_alpha. Only the sweep is kept: a second call
    repeats the rest, which is cheap beside it."""
    bf = _sweep(shape, p, resolution, nq)
    lam, residual = bf.lambda_hat_and_residual()
    modes = np.fft.rfft(bf.zeta - lam)[:max(2, k_max) + 1]
    return bf, lam, residual, modes, bf.perimeter + p.eps * bf.riesz


def el_gradient_step(state: OptimizerState, p: Params,
                     nq: int = DEFAULT_NQ) -> OptimizerState:
    """One accepted descent step (or a certified no-op at the noise floor).

    lambda_hat, the residual and the velocity are read from the residual
    map of the shape, whose sweep is kept on it (the accepted candidate's
    of the previous step). Each candidate is evaluated by its residual map,
    one boundary sweep, which gives its F_eps and is kept on it. Raises
    StalledError (carrying the state) when no energy-non-increasing
    candidate exists down to the minimal step size.
    """
    shape = state.shape
    res = state.mesh_resolution
    bf, lam, residual, coef, f_eps = _residual_map(shape, p, res, nq,
                                                   state.k_max)
    history = state.residual_history + (residual,)

    scale = max(1.0, abs(lam))
    if residual <= _NOOP_FLOOR * scale:
        return replace(state, iteration=state.iteration + 1,
                       residual_history=history)

    base = f_eps if math.isnan(state.energy) else state.energy

    # the Newton step at the disk: mode k of zeta - lambda_hat divided by
    # mu_k, applied as the normal speed v * J / r at the mesh angles
    mesh = bf.mesh
    mu = _disk_spectrum(p, state.k_max)
    v = np.fft.irfft(coef / mu[:coef.size], bf.zeta.size)
    speed = mesh.weights * mesh.points.shape[0] / (2.0 * math.pi)
    r = shape._grid(mesh.thetas.size)[2]

    step = state.step_size
    while step >= _MIN_STEP:
        dr = -step * v * speed / r
        cand_samples = r + dr
        if cand_samples.min() > 0.0:
            try:
                cand = StarShape2D.from_samples(shape.center, cand_samples,
                                                state.k_max)
            except GeometryError:
                # the k_max-truncated series dips below zero between the
                # mesh angles: a rejected trial like an energy increase
                step *= 0.5
                continue
            cand = volume_project(cand)
            f_cand = _residual_map(cand, p, res, nq, state.k_max)[4]
            if f_cand <= base:
                return replace(state, shape=cand, iteration=state.iteration + 1,
                               residual_history=history,
                               volume_drift=abs(volume(cand) - 1.0),
                               energy=f_cand)
        step *= 0.5
    raise StalledError(
        f"no energy-non-increasing step found above step={_MIN_STEP:g} "
        f"(residual {residual:g})",
        state=replace(state, residual_history=history))


def find_critical_2d(init: StarShape2D, p: Params, tol: float = 1e-3,
                     max_iter: int = 500,
                     resolution: int = DEFAULT_RESOLUTION,
                     nq: int = DEFAULT_NQ, k_max: int = DEFAULT_K_MAX,
                     step: float = DEFAULT_STEP,
                     with_identities: bool = False, full_output: bool = False):
    """Drive the boundary condition residual below tol from init.

    init must already have unit area (use volume_project). Returns
    (shape, DiagnosticsReport), or (shape, report, OptimizerState) with
    full_output. Hitting max_iter returns normally with the residual visible
    in the report; a stall with the residual still above tol raises
    StalledError. tol = inf or max_iter = 0 takes no step: it diagnoses
    init. A NaN or negative tol, which no residual meets, or one that is not
    a real number (a bool among them) raises ParamError, and so does a
    max_iter that is a bool, not an integer, or negative.
    """
    if p.n != 2:
        raise ParamError(f"planar search needs n = 2, got n = {p.n}")
    if not (_is_real(tol) and tol >= 0.0):
        raise ParamError(f"tol must be nonnegative, got {tol!r}")
    _require_count("max_iter", max_iter, 0)
    state = initial_state(init, resolution=resolution, k_max=k_max, step=step)
    init = state.shape
    if state.volume_drift > 1e-8:
        raise GeometryError(
            f"initial shape must have unit area (got {volume(init)!r}); "
            "apply volume_project first")
    # each shape is swept once: its sweep is kept on it
    while state.iteration < max_iter:
        residual = _residual_map(state.shape, p, resolution, nq, k_max)[2]
        if residual <= tol:
            state = replace(
                state, residual_history=state.residual_history + (residual,))
            break
        # a stall here has the swept residual above tol, so it propagates
        state = el_gradient_step(state, p, nq)
    report = diagnose(state.shape, p, resolution, nq,
                      with_identities=with_identities)
    return (state.shape, report, state) if full_output else (state.shape, report)
