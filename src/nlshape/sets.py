"""Set geometries and the problem parameter block.

Three concrete geometries are supported: finite unions of disjoint open
intervals on the line, balls on the line and in the plane, and star-shaped
planar domains given by a trigonometric radius function

    r(theta) = r0 + sum_k a_k cos(k theta) + b_k sin(k theta)

about a center point. All geometry objects are frozen after construction:
assigning to an attribute raises dataclasses.FrozenInstanceError (an
AttributeError) and the coefficient arrays are read-only.

So a star shape or an interval set computes what it determines once, when
first asked, and keeps the newest _MEMO_ENTRIES such values in one private
memo (_per_shape): its volume, its diameter, its boundary sweeps per
Params (functionals._sweep) and, on a star shape, polar at each uniform
grid (_grid, read-only) and the descent's residual map
(shapeopt._residual_map). The memo is empty after construction (the
positivity check keeps nothing), after _positive and after pickle, copy or
deepcopy, which rebuild the shape through __init__. Threads that race on
an entry compute the same bits and dict.setdefault keeps one, so instances
can still be shared across threads. A ball keeps no memo: its measures are
closed forms.

Each geometry class owns its closed forms (_volume, _diameter, _scaled,
_translated, _canonical, _to_dict, and on the canonical forms _mesh); the
module function of that name is one type check (_geometry refuses all else
with GeometryError) and one call. canonical() is the one place a ball
changes representation: the quadrature code sees a 1D ball as its
IntervalSet and a planar ball as a constant-radius StarShape2D, while
volume and diameter stay exact. The package computes in n in {1, 2}, the
paper's line and plane cases: _require_dimension is the one check of that
set, where n enters (Params and Ball).

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

# The dense uniform grid of a star shape (StarShape2D._dense_size): 8x the
# highest retained mode, and at least 512 angles. Positivity on it is a proxy
# for positivity everywhere; the diameter, the annulus deficit rho and the
# Lal probe radius are taken on it too.
_DENSE_OVERSAMPLE = 8
_MIN_DENSE_SAMPLES = 512
# fewest nodes a planar boundary mesh may have
_MIN_RESOLUTION = 8
# point pairs per block of _pair_blocks (2^14 doubles, 128 KB an array), the
# budget it passes to _blocks
_PAIR_BLOCK = 1 << 14
# most entries a shape's memo keeps (a 2D diagnose makes 8; the last shape
# of a descent holds 9 after it)
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
    (resolution, nq, k_max, max_iter and n, and the orders of quad's
    rules)."""
    if not (_is_real(value) and isinstance(value, (int, np.integer))
            and value >= least):
        raise ParamError(
            f"{name} must be an integer of at least {least}, got {value!r}")


def _require_dimension(name: str, value, error=ParamError) -> int:
    """value as an int, refused unless it is an integer (_require_count,
    ParamError) in {1, 2} (_require_real, error): the one check of the
    dimensions the package computes in, the line and the plane, for the n
    of Params (ParamError) and of a ball (GeometryError)."""
    _require_count(name, value, 1)
    return int(_require_real(name, value, "[1, 2]", error))


def _is_real(value) -> bool:
    """Whether value is a real number (numbers.Real: int, float and the
    numpy integers and floats) and not a bool, which would read as 0 or 1:
    the package's one bool test."""
    # float first: an isinstance test against numbers.Real takes about
    # 0.5 us, and a 1D sweep operation checks about 20 values, most of them
    # floats (4% of its time)
    return isinstance(value, float) or (isinstance(value, numbers.Real)
                                        and not isinstance(value, bool))


# (lo, hi, lo included, hi included) of each interval of _require_real,
# parsed at its first use: a dict lookup costs a third of an lru_cache call
_BOUNDS = {}


def _require_real(name: str, value, rng: str = "(-inf, inf)",
                  error=ParamError, why: str = "") -> float:
    """value as a float, refused (error) unless it is a real number
    (_is_real) whose float lies in the interval rng, written like
    "[0, inf)", NaN never: the one check of every real a caller hands the
    package (parameters with ParamError, the numbers a geometry is built
    from with GeometryError). The float is tested, not the value, so a
    value that rounds onto an open bound is refused. The message reads
    "<name> must lie in <rng>, got <value!r>", and why, if given, ends it
    in parentheses."""
    bounds = _BOUNDS.get(rng)
    if bounds is None:
        lo, hi = map(float, rng[1:-1].split(","))
        bounds = _BOUNDS[rng] = (lo, hi, rng[0] == "[", rng[-1] == "]")
    lo, hi, lo_in, hi_in = bounds
    v = value
    # a float, as most values are, skips the 0.5 us ABC test of _is_real:
    # the line's f_closed_form checks its gap about 7 times per root
    if type(v) is not float:
        try:
            v = float(value) if _is_real(value) else math.nan
        except OverflowError:  # an integer beyond the float range
            v = math.nan
    if (lo < v or lo_in and v == lo) and (v < hi or hi_in and v == hi):
        return v
    raise error(f"{name} must lie in {rng}, got {value!r}"
                + (f" ({why})" if why else ""))


def _real_array(name: str, values) -> np.ndarray:
    """values, a scalar or sequence, as a flat float array of finite
    entries: an ndarray of integer or float dtype is checked whole, any
    other values entry by entry by _require_real (so a bool or a string
    inside a list is refused, not converted)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        out = np.asarray(values, dtype=float).reshape(-1)
        if np.isfinite(out).all():
            return out
        values = out  # the loop below names the first bad entry
    return np.array([_require_real(name, v, error=GeometryError) for v in
                     np.asarray(values, dtype=object).reshape(-1)], dtype=float)


def _sequence(name: str, values, error=GeometryError) -> tuple:
    """tuple(values), refused (error) where values is not a sequence, such
    as a number or None: the structure check of a ball's or a star shape's
    center, an interval set and an interval (GeometryError), and of a list
    of parameter values, such as the eps of a sweep or the radii of a
    calibration (ParamError)."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class Params:
    """Problem parameters for the energy F_eps = P_s + eps R_alpha.

    eps is its one coupling. The paper's P_s + R_alpha on sets of volume m
    is, rescaled to unit volume, m ** (1 - s/n) F_eps at
    eps = m ** (1 - alpha/n + s/n), so a volume m is stated as that eps.
    eps = 0 is the pure-perimeter problem.

    The boundary condition of a critical point is zeta = kappa + 2 eps V,
    the first variation of F_eps. Both of its constants are measured, so
    neither is a parameter: the perimeter's 1 with the kappa and P_s of
    this package (diagnostics.calibrate_variation_constant), and the
    repulsion's 2, which the symmetric double integral gives (by the Au2
    identity, diagnostics.au2_sides, the pairing of V with x.nu is
    (n - alpha/2) R_alpha, half the dilation derivative of R_alpha).

    n is 1 or 2 (_require_dimension), stored as an int. s lies in (0, 1),
    alpha in (0, n) and eps in [0, inf), each checked by _require_real and
    stored as the float it tested; anything else (a bool, a string, NaN, a
    value whose float rounds onto a bound) raises ParamError.
    """

    n: int
    s: float
    alpha: float
    eps: float = 0.0

    def __post_init__(self):
        # a numpy integer n is stored as the int it equals, so that
        # arithmetic on n stays Python's
        object.__setattr__(self, "n", _require_dimension("n", self.n))
        object.__setattr__(self, "s", _require_real("s", self.s, "(0, 1)"))
        object.__setattr__(self, "alpha", _require_real(
            "alpha", self.alpha, f"(0, {self.n})"))
        object.__setattr__(self, "eps", _require_real("eps", self.eps,
                                                      "[0, inf)"))

    def with_eps(self, eps: float) -> "Params":
        """Copy with a new eps.

        Only eps is checked, with the error of __post_init__: the other
        fields are those of self, which passed it already."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__,
                            eps=_require_real("eps", eps, "[0, inf)"))
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
        end = functools.partial(_require_real, "interval end",
                                error=GeometryError)
        pairs = [_sequence("interval", ab)
                 for ab in _sequence("interval set", intervals)]
        for ab in pairs:
            if len(ab) != 2:
                raise GeometryError(f"an interval must have two ends, got {ab}")
        ivals = sorted((end(a), end(b)) for a, b in pairs)
        if not ivals:
            raise GeometryError("interval set must be nonempty")
        for a, b in ivals:
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
    """Euclidean ball in R^n, n in {1, 2}: the center's length is its
    dimension, and any other length raises GeometryError."""

    center: tuple
    radius: float

    def __init__(self, center: Sequence[float], radius: float):
        c = tuple(_require_real("ball center", v, error=GeometryError)
                  for v in _sequence("ball center", center))
        if len(c) < 1:
            raise GeometryError("ball center needs at least one coordinate")
        _require_dimension("ball dimension", len(c), GeometryError)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", _require_real(
            "ball radius", radius, "(0, inf)", GeometryError))

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
        # a constant r > 0 is positive by construction: no check grid
        return StarShape2D._positive(self.center, r)

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
            pass
        # a miss is computed outside the except block, so that an error it
        # raises does not carry the KeyError as its context
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
        # not through the memo: a shape built to be checked keeps no grid
        rchk = self.radius(uniform_angles(self._dense_size()))
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
        c = tuple(_require_real("star shape center", v, error=GeometryError)
                  for v in _sequence("star shape center", center))
        if len(c) != 2:
            raise GeometryError("star shape center must have two coordinates")
        r0 = _require_real("r0", r0, error=GeometryError)
        a = _real_array("a coefficient", a)
        b = _real_array("b coefficient", b)
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

    def _dense_size(self) -> int:
        """max(512, 8 max(1, kmax)): the size of the shape's dense uniform
        grid, on which its radius is checked positive and its diameter,
        annulus deficit and Lal probe radius are taken."""
        return max(_MIN_DENSE_SAMPLES, _DENSE_OVERSAMPLE * max(1, self.kmax))

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
        v = _real_array("sample", values)
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
        c, s, r, _ = self._grid(self._dense_size())
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
        return BoundaryMesh(points=points, normals=normals,
                            weights=speed * (2.0 * math.pi / th.size),
                            thetas=th)

    def _to_dict(self):
        return {"kind": "star", "center": list(self.center), "r0": self.r0,
                "cos": list(self.a), "sin": list(self.b)}


@dataclass(frozen=True)
class BoundaryMesh:
    """Discretized boundary: points, unit normals, weights.

    In 1D the mesh is the finite endpoint set with unit weights and signed
    normals -1/+1. In 2D the nodes are uniform in the parameter angle and
    the weights are the arclength trapezoid weights |y'(theta_j)| * 2*pi/m,
    so the weights sum to the perimeter; thetas holds the parameter angles,
    and the unit tangent at a node is its normal turned a quarter
    counterclockwise, (-n_y, n_x).
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    thetas: Optional[np.ndarray] = None

    def __post_init__(self):
        for arr in (self.points, self.normals, self.weights, self.thetas):
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


def _blocks(n: int, per_row: int, budget: int) -> list:
    """range(n) cut into blocks of about budget nodes at per_row nodes a
    row, the one block cutter of the package's batched loops: the
    ceil(n per_row / budget) in-order slices (at most n, none for n = 0)
    whose sizes differ by at most one. Each holds at most
    budget // per_row + 1 rows, no loop runs more blocks than whole
    budgets would take, and none ends on a tiny last block."""
    k = min(n, -(-n * per_row // budget))
    return [slice(n * j // k, n * (j + 1) // k) for j in range(k)]


def _pair_blocks(points):
    """(rows, |p_i - p_j|^2 for i in rows, j >= rows.start): the upper
    triangle of the pairs of points (rows) in the blocks of _blocks at a
    budget of _PAIR_BLOCK pairs a block, counting m pairs a row. As
    (a - b)^2 is (b - a)^2, it holds every pair's distance.

    A block's two 128 KB arrays stay in a core's L2 cache. For diameter at
    512 samples timeit read 0.75 ms a call, against 1.0 / 0.8 / 0.8-1.4 /
    1.0-1.7 ms in blocks of 2^12 / 2^13 / 2^15 / 2^16 pairs and 2.8-3.2 ms
    over all pairs in blocks of 2^16."""
    m = points.shape[0]
    for rows in _blocks(m, m, _PAIR_BLOCK):
        lo = rows.start
        sq = np.zeros((rows.stop - lo, m - lo))
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


def scaled(S, lam: float):
    """Dilation x -> lam * x about the origin."""
    lam = _require_real("scale factor", lam, "(0, inf)", GeometryError)
    return _geometry(S)._scaled(lam)


def translated(S, shift):
    """Translation x -> x + shift, shift of the dimension of S (on the line
    a scalar or a 1-vector)."""
    _geometry(S)
    h = _real_array("shift", shift)
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
    """Boundary discretization used by every 2D quadrature consumer: the
    mesh of canonical(S), so a ball is meshed as its interval set or star
    shape.

    resolution is ignored for 1D sets (the boundary is finite).
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GeometryError(f"geometry file {path} is not valid JSON: {exc}")
    return geometry_from_dict(d)


def save_geometry(S, path):
    text = json.dumps(geometry_to_dict(S), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
