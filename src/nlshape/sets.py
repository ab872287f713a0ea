"""Set geometries and the problem parameter block.

Three concrete geometries are supported: finite unions of disjoint open
intervals on the line, balls in R^n, and star-shaped planar domains given by
a trigonometric radius function

    r(theta) = r0 + sum_k a_k cos(k theta) + b_k sin(k theta)

about a center point. All geometry objects are frozen after construction:
assigning to an attribute raises dataclasses.FrozenInstanceError (an
AttributeError) and the coefficient arrays are read-only.

So a star shape or an interval set computes what it determines once, when
first asked, and keeps the newest _MEMO_ENTRIES such values in one private
memo (_per_shape): its volume, its diameter, its boundary sweeps per
Params (functionals._sweep) and, on a star shape, polar at each uniform
grid (_grid, read-only). The memo is empty after construction (the
positivity check keeps nothing), after _positive and after pickle, copy or
deepcopy, which rebuild the shape through __init__. Threads that race on
an entry compute the same bits and dict.setdefault keeps one, so instances
can still be shared across threads. A ball keeps no memo: its measures are
closed forms.

Each geometry class owns its closed forms (_volume, _diameter, _scaled,
_translated, _canonical, _mesh, _to_dict); the module function of that name
is one type check (_geometry refuses all else with GeometryError) and one
call. canonical() is the one place a ball changes representation: the
quadrature code sees a 1D ball as its IntervalSet and a planar ball as a
constant-radius StarShape2D, while volume and diameter stay exact.

Volumes and diameters accumulate with compensated summation (math.fsum) so
results do not depend on summation order.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import FrozenInstanceError, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GeometryError, ParamError

# Oversampling factor used when checking positivity of a trigonometric radius
# and when sampling for diameters. Positivity on this grid is a proxy for
# positivity everywhere; 8x the highest retained mode is comfortably dense.
_POSITIVITY_OVERSAMPLE = 8
_MIN_POSITIVITY_SAMPLES = 512
# fewest nodes a planar boundary mesh may have
_MIN_RESOLUTION = 8
# point pairs per block of _pair_blocks (2^14 doubles, 128 KB an array)
_PAIR_BLOCK = 1 << 14
# most entries a shape's memo keeps (a 2D diagnose makes 8)
_MEMO_ENTRIES = 16


def uniform_angles(m: int) -> np.ndarray:
    """The m uniform angles 2*pi*j/m, j = 0..m-1: the grid of every planar
    mesh, sample and check in the package."""
    return 2.0 * math.pi * np.arange(m) / m


def mesh_angles(resolution) -> np.ndarray:
    """The angles of a planar mesh of the given resolution, an integer (int
    or numpy integer, not a bool) of at least _MIN_RESOLUTION nodes; any
    other value raises ParamError."""
    _require_count("resolution", resolution, _MIN_RESOLUTION)
    return uniform_angles(resolution)


def _require_count(name: str, value, least: int):
    """Refuse (ParamError) a value that is a bool (_is_real), not an
    integer, or below least: the one check of every integer knob
    (resolution, nq, k_max, max_iter and n)."""
    if not (_is_real(value) and isinstance(value, (int, np.integer))
            and value >= least):
        raise ParamError(
            f"{name} must be an integer of at least {least}, got {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number (numbers.Real: int, float and the
    numpy integers and floats) and not a bool, which would read as 0 or 1:
    the package's one bool test."""
    # float first: an isinstance test against numbers.Real takes about
    # 0.5 us, and a 1D sweep operation checks about 20 values, most of them
    # floats (4% of its time)
    return isinstance(value, float) or (isinstance(value, numbers.Real)
                                        and not isinstance(value, bool))


def _require_exponent(name: str, value, upper, why: str = ""):
    """Refuse (ParamError) a value that is not a real number (_is_real) or
    lies outside (0, upper), NaN included: the one check of the exponents
    s (upper 1) and alpha (upper n, where the Riesz kernel is locally
    integrable, or n - 1 on the boundary, where the gradient of V
    converges). why, if given, ends the message."""
    if not (_is_real(value) and 0.0 < value < upper):
        raise ParamError(f"{name} must lie in (0, {upper:g}), got {value!r}"
                         + (f" ({why})" if why else ""))


@dataclass(frozen=True)
class Params:
    """Problem parameters for the perimeter/repulsion energy.

    eps and mass are mutually derivable through
    eps = mass ** (1 - alpha/n + s/n); whichever one is omitted is filled in
    from the other. eps = 0 is the pure-perimeter problem and leaves mass
    unset.

    c_coupling is the constant multiplying eps*V in the boundary condition
    zeta = kappa + c_coupling * eps * V. The symmetric double-integral form of
    the repulsion term has first variation 2*V, so 2.0 is the default; it is
    configurable, never asserted.

    c_var is the first-variation normalization relating the curvature pairing
    to the perimeter (see diagnostics.calibrate_variation_constant). With the
    conventions used here it is 1 and that is the default.
    """

    n: int
    s: float
    alpha: float
    eps: Optional[float] = None
    mass: Optional[float] = None
    c_coupling: float = 2.0
    c_var: float = 1.0

    def __post_init__(self):
        _require_count("n", self.n, 1)
        # a numpy integer n would make the derived mass or eps numpy scalars
        object.__setattr__(self, "n", int(self.n))
        _require_exponent("s", self.s, 1)
        _require_exponent("alpha", self.alpha, self.n)
        # NaN passes every ordered comparison below, a bool reads as 0 or 1
        # and a string fails in them with TypeError, so refuse them up front
        for name in ("eps", "mass", "c_coupling", "c_var"):
            v = getattr(self, name)
            if v is not None and not (_is_real(v) and math.isfinite(v)):
                raise ParamError(f"{name} must be finite, got {v!r}")
        if self.c_coupling <= 0.0:
            raise ParamError(f"c_coupling must be positive, got {self.c_coupling!r}")
        if self.c_var <= 0.0:
            raise ParamError(f"c_var must be positive, got {self.c_var!r}")
        self._fill_eps_mass()

    def _fill_eps_mass(self):
        # derive the omitted one of eps and mass from the other; eps and mass
        # are finite or None here
        e = self.mass_to_eps_exponent()
        if self.eps is None and self.mass is None:
            object.__setattr__(self, "eps", 0.0)
        elif self.eps is None:
            if self.mass <= 0.0:
                raise ParamError(f"mass must be positive, got {self.mass!r}")
            object.__setattr__(self, "eps", self.mass ** e)
        elif self.mass is None:
            if self.eps < 0.0:
                raise ParamError(f"eps must be nonnegative, got {self.eps!r}")
            if self.eps > 0.0:
                object.__setattr__(self, "mass", self.eps ** (1.0 / e))
        else:
            if self.eps < 0.0:
                raise ParamError(f"eps must be nonnegative, got {self.eps!r}")
            if self.mass <= 0.0:
                raise ParamError(f"mass must be positive, got {self.mass!r}")
            expect = self.mass ** e
            if abs(self.eps - expect) > 1e-9 * max(1.0, abs(expect)):
                raise ParamError(
                    "eps and mass are inconsistent: "
                    f"eps={self.eps!r} but mass**(1-alpha/n+s/n)={expect!r}"
                )

    def mass_to_eps_exponent(self) -> float:
        return 1.0 - self.alpha / self.n + self.s / self.n

    def with_eps(self, eps: float) -> "Params":
        """Copy with a new eps; mass is rederived.

        Only eps is checked, with the errors of __post_init__: the other
        fields are those of self, which passed it already."""
        if eps is not None and not (_is_real(eps) and math.isfinite(eps)):
            raise ParamError(f"eps must be finite, got {eps!r}")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, eps=eps, mass=None)
        new._fill_eps_mass()
        return new


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint open intervals (a_i, b_i), a_i < b_i.

    Intervals are sorted on construction. Overlapping or touching intervals
    are rejected rather than merged: a touching pair has a genuinely
    different boundary than its union. Like a star shape, an interval set
    keeps a private memo (_per_shape) that ==, hash and repr ignore.
    """

    intervals: tuple

    def __reduce__(self):
        # rebuild through __init__, with an empty memo: the memo's keys hold
        # the unwrapped functions, which pickle cannot find by name
        return (IntervalSet, (self.intervals,))

    def __init__(self, intervals: Sequence[Sequence[float]]):
        ivals = sorted((float(a), float(b)) for a, b in intervals)
        if not ivals:
            raise GeometryError("interval set must be nonempty")
        for a, b in ivals:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise GeometryError(f"interval endpoints must be finite: ({a}, {b})")
            if not a < b:
                raise GeometryError(f"empty or inverted interval ({a}, {b})")
        for (a1, b1), (a2, b2) in zip(ivals, ivals[1:]):
            if b1 >= a2:
                raise GeometryError(
                    f"intervals ({a1}, {b1}) and ({a2}, {b2}) overlap or touch"
                )
        object.__setattr__(self, "intervals", tuple(ivals))
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return 1

    def endpoints(self) -> np.ndarray:
        """All boundary points in increasing order: a_1, b_1, a_2, b_2, ..."""
        out = np.array([e for ab in self.intervals for e in ab], dtype=float)
        return out

    def contains(self, x: float) -> bool:
        return any(a < x < b for a, b in self.intervals)

    def _volume(self):
        return math.fsum(b - a for a, b in self.intervals)

    def _diameter(self):
        return self.intervals[-1][1] - self.intervals[0][0]

    def _scaled(self, lam):
        return IntervalSet([(lam * a, lam * b) for a, b in self.intervals])

    def _translated(self, h):
        return IntervalSet([(a + h[0], b + h[0]) for a, b in self.intervals])

    def _canonical(self):
        return self

    def _mesh(self, resolution):
        # the endpoints, with normals -1, +1 in turn and unit weights
        k = len(self.intervals)
        return BoundaryMesh(points=self.endpoints().reshape(-1, 1),
                            normals=np.tile([[-1.0], [1.0]], (k, 1)),
                            weights=np.ones(2 * k))

    def _to_dict(self):
        return {"kind": "intervals", "intervals": [list(ab) for ab in self.intervals]}


@dataclass(frozen=True)
class Ball:
    """Euclidean ball in R^n."""

    center: tuple
    radius: float

    def __init__(self, center: Sequence[float], radius: float):
        c = tuple(float(v) for v in center)
        if len(c) < 1:
            raise GeometryError("ball center needs at least one coordinate")
        if not all(map(math.isfinite, c)):
            raise GeometryError(f"ball center must be finite, got {c}")
        if not (radius > 0.0 and math.isfinite(radius)):
            raise GeometryError(f"ball radius must be positive and finite, got {radius!r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(radius))

    @property
    def n(self) -> int:
        return len(self.center)

    def _volume(self):
        # the measure of the unit ball in R^n, times r^n
        n = self.n
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * self.radius ** n

    def _diameter(self):
        return 2.0 * self.radius

    def _scaled(self, lam):
        return Ball([lam * c for c in self.center], lam * self.radius)

    def _translated(self, h):
        return Ball([c + v for c, v in zip(self.center, h)], self.radius)

    def _canonical(self):
        c, r = self.center[0], self.radius
        if self.n == 1:
            return IntervalSet([(c - r, c + r)])
        return StarShape2D(self.center, r) if self.n == 2 else self

    def _mesh(self, resolution):  # reached in n >= 3 only
        raise GeometryError(f"no boundary mesh for Ball in dimension {self.n}")

    def _to_dict(self):
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}


def _per_shape(fn):
    """fn(S, *args), kept in the memo of S per argument values and types (an
    nq of 16.0 or True still reaches the check that refuses it); an object
    without a memo, such as a ball, computes it at every call. The memo
    keeps the newest _MEMO_ENTRIES values: a new entry drops the oldest
    beyond that."""
    @functools.wraps(fn)
    def memoized(S, *args):
        memo = getattr(S, "_memo", None)
        if memo is None:
            return fn(S, *args)
        key = (fn, args, tuple(map(type, args)))
        try:
            return memo[key]
        except KeyError:
            value = fn(S, *args)
        for old in list(memo)[:max(0, len(memo) + 1 - _MEMO_ENTRIES)]:
            memo.pop(old, None)
        return memo.setdefault(key, value)
    return memoized


class StarShape2D:
    """Star-shaped planar domain with trigonometric radius about a center.

    The coefficient representation is the source of truth; sampled values are
    derived from it on demand (and agree with the coefficients exactly at the
    sample nodes, up to roundoff). Construction fails if the radius is not
    strictly positive on a dense check grid, and instances refuse attribute
    assignment afterwards, so the check cannot be bypassed. Only the private
    _positive skips it, for radii that are positive by construction.
    """

    __slots__ = ("center", "r0", "a", "b", "_memo")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the default slot-state path assigns
        return (StarShape2D, (self.center, self.r0, self.a, self.b))

    def __init__(self, center: Sequence[float], r0: float,
                 a: Sequence[float] = (), b: Sequence[float] = ()):
        self._assign(center, r0, a, b)
        m = max(_MIN_POSITIVITY_SAMPLES,
                _POSITIVITY_OVERSAMPLE * max(1, self.kmax))
        rchk = self.radius(uniform_angles(m))
        rmin = float(rchk.min())
        if not rmin > 0.0:
            raise GeometryError(
                f"radius function is not strictly positive (min {rmin:g} on check grid)"
            )

    @classmethod
    def _positive(cls, center: Sequence[float], r0: float,
                  a: Sequence[float] = (), b: Sequence[float] = ()):
        """The shape __init__ builds from these arguments, without its
        positivity check: for callers whose radius is positive by
        construction, such as a positive rescale of a shape."""
        new = object.__new__(cls)
        new._assign(center, r0, a, b)
        return new

    def _assign(self, center, r0, a, b):
        # the fields from the constructor's arguments: the center as two
        # floats, r0 as a float, a and b as read-only float arrays of one
        # length; and an empty memo
        c = tuple(float(v) for v in center)
        if len(c) != 2:
            raise GeometryError("star shape center must have two coordinates")
        r0 = float(r0)
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if not (np.isfinite(c).all() and math.isfinite(r0)
                and np.isfinite(a).all() and np.isfinite(b).all()):
            raise GeometryError(
                f"star shape center, r0 and coefficients must be finite, got "
                f"center {c} and r0 {r0!r}")
        if a.size == 0:
            a = np.zeros(0)
        if b.size == 0:
            b = np.zeros(0)
        k = max(a.size, b.size)
        a = np.pad(a, (0, k - a.size))
        b = np.pad(b, (0, k - b.size))
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return 2

    @property
    def kmax(self) -> int:
        return int(self.a.size)

    def polar(self, theta):
        """(cos theta, sin theta, r(theta), r'(theta)) at the angles theta
        (any shape), for radius, radius_deriv and frame; the quadrature of
        functionals forms r from the mode sums A_k, B_k at its targets.

        r and r' come from one pass over the modes: cos(k theta) and
        sin(k theta) are formed once per mode and shared by both sums, and
        mode 1 is cos(theta), sin(theta) themselves, so a node costs
        2 max(1, kmax) sin/cos evaluations.
        """
        theta = np.asarray(theta, dtype=float)
        c, s = ck, sk = np.cos(theta), np.sin(theta)
        r = np.full_like(theta, self.r0)
        dr = np.zeros_like(theta)
        for k in range(self.a.size):
            kk = k + 1
            if kk > 1:
                ck, sk = np.cos(kk * theta), np.sin(kk * theta)
            r += self.a[k] * ck + self.b[k] * sk
            dr += kk * (self.b[k] * ck - self.a[k] * sk)
        return c, s, r, dr

    def radius(self, theta):
        return self.polar(theta)[2]

    def radius_deriv(self, theta):
        return self.polar(theta)[3]

    def frame(self, theta):
        """Boundary positions center + r e(theta), outward unit normals and
        parameter speed |y'(theta)| at the angles theta (any shape; vectors
        on a new last axis), built from polar by _frame."""
        return self._frame(*self.polar(theta))

    def _frame(self, c, s, r, dr):
        """frame from the four arrays of polar: the one place a boundary
        point, normal and speed are formed."""
        pos = self._position(c, s, r)
        speed = np.sqrt(r * r + dr * dr)
        nu = np.stack([(r * c + dr * s) / speed, (r * s - dr * c) / speed], axis=-1)
        return pos, nu, speed

    def _position(self, c, s, r):
        return np.stack([self.center[0] + r * c, self.center[1] + r * s],
                        axis=-1)

    @_per_shape
    def _grid(self, m: int):
        """polar at uniform_angles(m), read-only: one polar call per m."""
        arrays = self.polar(uniform_angles(m))
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def samples(self, m: int) -> np.ndarray:
        """Radius values at the m uniform angles 2*pi*j/m."""
        return self.radius(uniform_angles(m))

    @classmethod
    def from_samples(cls, center, values, k_max: Optional[int] = None) -> "StarShape2D":
        """Build from uniformly sampled radii via a real FFT.

        Modes above k_max (default: the largest alias-free order) are
        discarded, which doubles as the spectral smoothing step of the shape
        optimizer; k_max = 0 keeps the mean radius alone. A k_max that is a
        bool, not an integer, or negative raises ParamError. The
        reconstruction agrees with the input samples exactly only when the
        input is band-limited to the retained modes.
        """
        v = np.asarray(values, dtype=float)
        m = v.size
        if m < 4:
            raise GeometryError("need at least 4 samples to build a star shape")
        kcap = (m - 1) // 2
        if k_max is not None:
            _require_count("k_max", k_max, 0)
        k = kcap if k_max is None else min(k_max, kcap)
        coef = np.fft.rfft(v)
        r0 = coef[0].real / m
        a = 2.0 * coef[1:k + 1].real / m
        b = -2.0 * coef[1:k + 1].imag / m
        return cls(center, r0, a, b)

    def __repr__(self):
        return (f"StarShape2D(center={self.center}, r0={self.r0:.6g}, "
                f"modes={self.kmax})")

    def _volume(self):
        # the trapezoid rule on the uniform grid integrates trig polynomials
        # of degree < m exactly; r^2 has degree 2*kmax
        m = max(256, 4 * max(1, self.kmax))
        r = self._grid(m)[2]
        return math.fsum(r * r) * math.pi / m

    def _diameter(self):
        m = max(512, _POSITIVITY_OVERSAMPLE * max(1, self.kmax))
        c, s, r, _ = self._grid(m)
        # sqrt is monotone and correctly rounded, so the root of the
        # largest square is the largest root
        return math.sqrt(max(float(sq.max())
                             for _, sq in _pair_blocks(self._position(c, s, r))))

    def _scaled(self, lam):
        return StarShape2D([lam * c for c in self.center], lam * self.r0,
                           lam * self.a, lam * self.b)

    def _translated(self, h):
        return StarShape2D((self.center[0] + h[0], self.center[1] + h[1]),
                           self.r0, self.a, self.b)

    def _canonical(self):
        return self

    def _mesh(self, resolution):
        th = mesh_angles(resolution)
        points, normals, speed = self._frame(*self._grid(th.size))
        # the unit tangent is the outward normal turned a quarter counterclockwise
        tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
        return BoundaryMesh(points=points, normals=normals,
                            weights=speed * (2.0 * math.pi / th.size),
                            tangents=tangents, thetas=th)

    def _to_dict(self):
        return {"kind": "star", "center": list(self.center), "r0": self.r0,
                "cos": list(self.a), "sin": list(self.b)}


@dataclass(frozen=True)
class BoundaryMesh:
    """Discretized boundary: points, unit normals, tangents, weights.

    In 1D the mesh is the finite endpoint set with unit weights and signed
    normals -1/+1 (tangents are None). In 2D the nodes are uniform in the
    parameter angle and the weights are the arclength trapezoid weights
    |y'(theta_j)| * 2*pi/m, so the weights sum to the perimeter. thetas
    holds the parameter angles for 2D meshes.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    tangents: Optional[np.ndarray] = None
    thetas: Optional[np.ndarray] = None

    def __post_init__(self):
        for arr in (self.points, self.normals, self.weights, self.tangents, self.thetas):
            if arr is not None:
                arr.flags.writeable = False


def _geometry(S):
    """S, refused with GeometryError unless it is a geometry: the one type
    check of the module functions, which then call S's own closed form."""
    if not isinstance(S, (IntervalSet, Ball, StarShape2D)):
        raise GeometryError(f"unsupported geometry {type(S).__name__}")
    return S


@_per_shape
def volume(S) -> float:
    """Lebesgue measure: exact for intervals and balls, trigonometric
    quadrature of int r(theta)^2 / 2 dtheta for star shapes (exact for a
    band-limited radius), kept on the shape."""
    return _geometry(S)._volume()


def _pair_blocks(points):
    """(rows, |p_i - p_j|^2 for i in rows, j >= rows.start): the upper
    triangle of the pairs of points (rows) in blocks of about _PAIR_BLOCK
    pairs. As (a - b)^2 is (b - a)^2, it holds every pair's distance.

    A block's two 128 KB arrays stay in a core's L2 cache. For diameter at
    512 samples timeit read 0.75 ms a call, against 1.0 / 0.8 / 0.8-1.4 /
    1.0-1.7 ms in blocks of 2^12 / 2^13 / 2^15 / 2^16 pairs and 2.8-3.2 ms
    over all pairs in blocks of 2^16."""
    m = points.shape[0]
    step = max(1, _PAIR_BLOCK // m)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        sq = np.zeros((min(step, m - lo), m - lo))
        for k in range(points.shape[1]):
            d = points[rows, None, k] - points[None, lo:, k]
            d *= d
            sq += d
        yield rows, sq


@_per_shape
def diameter(S) -> float:
    """sup |x - y| over the closure. Exact for intervals and balls; for star
    shapes the max over all pairs (_pair_blocks) of the boundary points at
    m = max(512, 8 kmax) uniform angles, kept on the shape."""
    return _geometry(S)._diameter()


def isodiametric_ratio(S) -> float:
    """|S|^(1/n) / diam(S); scale invariant, maximal for balls."""
    return volume(S) ** (1.0 / S.n) / diameter(S)


def beta_exponent(p: Params) -> float:
    """(n + s - alpha) / ((2n + s + 1) * n)."""
    return (p.n + p.s - p.alpha) / ((2.0 * p.n + p.s + 1.0) * p.n)


def scaled(S, lam: float):
    """Dilation x -> lam * x about the origin."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise GeometryError(f"scale factor must be positive and finite, got {lam!r}")
    return _geometry(S)._scaled(lam)


def translated(S, shift):
    """Translation x -> x + shift, shift of the dimension of S (on the line
    a scalar or a 1-vector)."""
    _geometry(S)
    h = np.asarray(shift, dtype=float).reshape(-1)
    if h.size != S.n:
        raise GeometryError(
            f"a shift of dimension {h.size} does not match a set in dimension {S.n}")
    return S._translated(h)


def canonical(S):
    """The representation the quadrature code works on.

    A 1D ball becomes its IntervalSet and a planar ball a constant-radius
    StarShape2D; every other geometry is returned unchanged, and anything
    else is refused with GeometryError. This is the only place a ball is
    converted.
    """
    return _geometry(S)._canonical()


def boundary_mesh(S, resolution: int) -> BoundaryMesh:
    """Boundary discretization used by every 2D quadrature consumer.

    resolution is ignored for 1D sets (the boundary is finite). Balls are
    meshed only in dimensions 1 and 2.
    """
    return canonical(S)._mesh(resolution)


# ---------------------------------------------------------------------------
# JSON geometry files


def geometry_to_dict(S) -> dict:
    return _geometry(S)._to_dict()


def geometry_from_dict(d: dict):
    try:
        kind = d["kind"]
    except (KeyError, TypeError):
        raise GeometryError("geometry object needs a 'kind' field")
    if kind == "intervals":
        _check_keys(d, kind, ("intervals",))
        return IntervalSet(d["intervals"])
    if kind == "ball":
        _check_keys(d, kind, ("center", "radius"))
        return Ball(d["center"], d["radius"])
    if kind == "star":
        if "samples" in d:
            _check_keys(d, kind, ("center", "samples"), ("k_max",))
            return StarShape2D.from_samples(d["center"], d["samples"],
                                            d.get("k_max"))
        _check_keys(d, kind, ("center", "r0"), ("cos", "sin"))
        return StarShape2D(d["center"], d["r0"], d.get("cos", ()), d.get("sin", ()))
    raise GeometryError(f"unknown geometry kind {kind!r}")


def _check_keys(d: dict, kind: str, required, optional=()):
    # a misspelled coefficient key would otherwise be dropped silently
    for key in d:
        if key != "kind" and key not in required and key not in optional:
            raise GeometryError(f"unknown key {key!r} in a {kind!r} geometry")
    for key in required:
        if key not in d:
            raise GeometryError(f"a {kind!r} geometry needs a {key!r} field")


def load_geometry(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"geometry file {path} is not valid JSON: {exc}")
    return geometry_from_dict(d)


def save_geometry(S, path):
    text = json.dumps(geometry_to_dict(S), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
