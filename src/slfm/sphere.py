"""Vector geometry on the fixed-radius hypersphere.

Row-wise functions (``*_rows``) treat the last axis as the coordinate axis,
so they accept a single vector of shape ``(d,)`` as well as stacks of shape
``(..., d)``.  The typed wrappers (:class:`SphereToken`,
:class:`TangentVector`) carry on-sphere and tangency certificates that are
checked at construction time.  Everything runs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, NearZeroNorm, RadiusMismatch

# Fixed numerical guard rails. Behavioural constants, not configuration.
COS_CLAMP = 1e-6          # cosines clamped to [-1 + COS_CLAMP, 1 - COS_CLAMP]
NORM_FLOOR = 1e-8         # below this a vector has no usable direction
SMALL_ANGLE = 1e-4        # below: slerp falls back to lerp + renormalise
ANTIPODAL_MARGIN = 0.1    # within this of pi: slerp follows a fixed great circle
ON_SPHERE_RTOL = 1e-6     # | ||x|| - R | <= ON_SPHERE_RTOL * R
TANGENT_RTOL = 1e-5       # |<v, p>| <= TANGENT_RTOL * ||v|| * R


def _as_vectors(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError("expected at least one coordinate axis")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coordinates")
    return arr


@dataclass
class SphereToken:
    """A d-dimensional vector certified to sit on the sphere of ``radius``."""

    values: np.ndarray
    radius: float

    def __post_init__(self):
        self.values = _as_vectors(self.values)
        self.radius = float(self.radius)
        if self.values.ndim != 1 or self.values.shape[0] < 2:
            raise ValueError("sphere points need a single axis with d >= 2")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        norm = float(np.linalg.norm(self.values))
        if abs(norm - self.radius) > ON_SPHERE_RTOL * self.radius:
            raise ValueError(
                f"off-sphere point: ||x|| = {norm!r}, radius = {self.radius!r}"
            )

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def direction(self) -> np.ndarray:
        """Exact unit direction (renormalised, not ``values / radius``)."""
        return self.values / np.linalg.norm(self.values)


@dataclass
class TangentVector:
    """A vector certified tangent to the sphere at ``base``."""

    vector: np.ndarray
    base: SphereToken

    def __post_init__(self):
        self.vector = _as_vectors(self.vector)
        if self.vector.shape != self.base.values.shape:
            raise ValueError("tangent vector and base point dimensions differ")
        inner = abs(float(np.dot(self.vector, self.base.values)))
        bound = TANGENT_RTOL * float(np.linalg.norm(self.vector)) * self.base.radius
        if inner > bound:
            raise ValueError(
                f"not tangent: |<v, p>| = {inner!r} exceeds {bound!r}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class GaussianNormStats:
    """Analytical norm statistics of a standard Gaussian in dimension d."""

    d: int
    mean_radius: float
    cv: float

    def __post_init__(self):
        if self.mean_radius >= math.sqrt(self.d):
            raise ValueError("chi mean must lie strictly below sqrt(d)")
        if self.cv <= 0.0:
            raise ValueError("coefficient of variation must be positive")


# ---------------------------------------------------------------------------
# row-wise primitives


def unit_rows(x) -> np.ndarray:
    """Normalise rows to unit length; raises on rows below the norm floor."""
    x = _as_vectors(x)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(n < NORM_FLOOR):
        raise NearZeroNorm(f"row norm below {NORM_FLOOR}")
    return x / n


def project_rows(x, radius: float) -> np.ndarray:
    """Radially rescale rows onto the sphere of ``radius``."""
    return unit_rows(x) * float(radius)


def uniform_rows(n: int, d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent uniform draws on the sphere of ``radius`` in R^d."""
    if d < 2:
        raise ValueError("uniform sphere sampling needs d >= 2")
    eps = rng.standard_normal((n, d))
    norms = np.linalg.norm(eps, axis=-1)
    while np.any(norms < NORM_FLOOR):  # measure-zero; resample those rows
        bad = norms < NORM_FLOOR
        eps[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(eps, axis=-1)
    return eps * (float(radius) / norms)[..., None]


def orthonormal_rows(u) -> np.ndarray:
    """Deterministic unit vector orthogonal to each unit row.

    Uses the lowest-index standard basis vector whose component orthogonal
    to the row is non-degenerate, falling back to the next index when the
    row is (numerically) parallel to it.
    """
    u = _as_vectors(u)
    resid_sq = 1.0 - u * u  # || e_i - u_i u ||^2 for unit u
    ok = resid_sq >= 1e-12
    idx = np.argmax(ok, axis=-1)
    e = np.zeros_like(u)
    np.put_along_axis(e, idx[..., None], 1.0, axis=-1)
    ui = np.take_along_axis(u, idx[..., None], axis=-1)
    r = e - ui * u
    return r / np.linalg.norm(r, axis=-1, keepdims=True)


class _Geodesic(NamedTuple):
    """The t-independent part of :func:`geodesic_rows` for pairs of unit
    rows broadcast to one shape (see :func:`_geodesic_setup`)."""

    u0: np.ndarray
    u1: np.ndarray
    small: np.ndarray     # regime masks over the leading shape
    anti: np.ndarray
    safe: np.ndarray      # (..., 1) angle; pi/2 on small and antipodal rows
    sin_safe: np.ndarray
    speed: np.ndarray     # safe / sin_safe
    nhat: np.ndarray | None  # orthonormal unit of each antipodal row


def _geodesic_setup(u0: np.ndarray, u1: np.ndarray, lead=()) -> _Geodesic:
    """Regime masks, angles and antipodal fallback units of the unit rows
    ``u0``/``u1``, broadcast against each other and against the leading
    shape ``lead`` of the times they will be evaluated at; nothing here
    depends on ``t`` itself.  The rows are taken as they are: finite
    float64 arrays that the caller has checked."""
    shape = np.broadcast_shapes(u0.shape, u1.shape, tuple(lead) + (1,))
    if u0.shape != shape or u1.shape != shape:
        u0, u1 = np.broadcast_to(u0, shape), np.broadcast_to(u1, shape)
    dots = np.einsum("...i,...i->...", u0, u1)
    small = dots > math.cos(SMALL_ANGLE)
    anti = dots < math.cos(math.pi - ANTIPODAL_MARGIN)
    omega = np.arccos(np.clip(dots, -1.0, 1.0))  # clip: rounding past +/-1
    safe = np.where(small | anti, 0.5 * np.pi, omega)[..., None]
    sin_safe = np.sin(safe)
    nhat = orthonormal_rows(u0[anti]) if np.any(anti) else None
    return _Geodesic(u0, u1, small, anti, safe, sin_safe, safe / sin_safe, nhat)


def _geodesic_at(g: _Geodesic, t, out=None):
    """Position and velocity of the pairs ``g`` at ``t``, whose shape the
    set-up was broadcast against.  With ``out = (pos, vel, scratch)``,
    arrays of the pairs' shape, they are written into ``pos`` and ``vel``;
    otherwise into new arrays.  The small-angle and antipodal rows are
    overwritten from their own formulas, evaluated on those rows only."""
    pos, vel, scratch = (None, None, None) if out is None else out
    t = np.asarray(t, dtype=np.float64)
    tt = t[..., None]
    a = (1.0 - tt) * g.safe
    b = tt * g.safe
    pos = np.multiply(np.sin(a), g.u0, out=pos)
    scratch = np.multiply(np.sin(b), g.u1, out=scratch)
    np.add(pos, scratch, out=pos)
    np.divide(pos, g.sin_safe, out=pos)
    vel = np.multiply(-np.cos(a), g.u0, out=vel)
    np.multiply(np.cos(b), g.u1, out=scratch)
    np.add(vel, scratch, out=vel)
    np.multiply(g.speed, vel, out=vel)
    if np.any(g.small):
        # the renormalised lerp l(t)/||l(t)|| and its derivative
        m = g.small
        tm = np.broadcast_to(tt, m.shape + (1,))[m]
        u0, u1 = g.u0[m], g.u1[m]
        lerp = (1.0 - tm) * u0 + tm * u1
        dl = u1 - u0
        nsq = np.sum(lerp * lerp, axis=-1, keepdims=True)
        nl = np.sqrt(nsq)
        tang = dl - lerp * (np.sum(lerp * dl, axis=-1, keepdims=True) / nsq)
        pos[m] = lerp / nl
        vel[m] = tang / nl
    if g.nhat is not None:
        m = g.anti
        tm = np.broadcast_to(tt, m.shape + (1,))[m]
        u0 = g.u0[m]
        c = np.cos(np.pi * tm)
        s = np.sin(np.pi * tm)
        pos[m] = c * u0 + s * g.nhat
        vel[m] = np.pi * (-s * u0 + c * g.nhat)
    return pos, vel


def geodesic_rows(u0, u1, t):
    """Spherical linear interpolation between unit rows and its time
    derivative, as ``(position, velocity)``.

    Three regimes by the angle ``w`` between the rows: below
    ``SMALL_ANGLE`` the path is a renormalised lerp (avoids 0/0 in
    ``sin w``); above ``pi - ANTIPODAL_MARGIN`` it traces the great circle
    ``cos(pi t) u0 + sin(pi t) n`` through the deterministic orthogonal
    unit ``n``; otherwise the standard sine-weighted formula.  The regime
    dispatch compares the raw cosine against the cosines of the thresholds,
    and the standard regime takes the arccos of the raw cosine: the
    ``COS_CLAMP`` clamp of :func:`angle_between` floors angles at about
    1.4e-3, and a standard row below that floor would follow a curve
    whose velocity has a radial part.  ``t`` broadcasts against the rows
    and may lie outside ``[0, 1]`` (geodesic extension).

    The velocity differentiates the path of its row's regime (norm ``w``
    in the standard regime) and is analytically tangent to the position in
    all three regimes, so callers need no tangent projection.
    """
    t = np.asarray(t, dtype=np.float64)
    return _geodesic_at(_geodesic_setup(_as_vectors(u0), _as_vectors(u1), t.shape), t)


def slerp_rows(u0, u1, t) -> np.ndarray:
    """Position part of :func:`geodesic_rows`."""
    return geodesic_rows(u0, u1, t)[0]


def slerp_velocity_rows(u0, u1, t) -> np.ndarray:
    """Velocity part of :func:`geodesic_rows`."""
    return geodesic_rows(u0, u1, t)[1]


def tangent_rows(v, z) -> np.ndarray:
    """Remove the radial component of ``v`` at the sphere point(s) ``z``."""
    v = _as_vectors(v)
    z = np.asarray(z, dtype=np.float64)
    coef = np.sum(v * z, axis=-1, keepdims=True) / np.sum(z * z, axis=-1, keepdims=True)
    return v - coef * z


def expmap_rows(p, v, radius: float) -> np.ndarray:
    """Exponential map at rows ``p`` along tangent rows ``v``.

    Zero-norm velocity rows return ``p`` exactly.
    """
    p = _as_vectors(p)
    v = np.asarray(v, dtype=np.float64)
    radius = float(radius)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(nv == 0.0, 1.0, nv)
    return np.cos(nv / radius) * p + (radius * np.sin(nv / radius) / safe) * v


# ---------------------------------------------------------------------------
# certified scalar API


def radial_project(z, radius: float) -> SphereToken:
    """Rescale ``z`` onto the sphere of ``radius``, keeping its direction."""
    z = _as_vectors(z)
    if z.ndim != 1:
        raise ValueError("radial_project takes a single vector")
    n = float(np.linalg.norm(z))
    if n < NORM_FLOOR:
        raise NearZeroNorm(f"cannot project: ||z|| = {n!r} < {NORM_FLOOR}")
    return SphereToken(z * (float(radius) / n), radius)


def sample_uniform_sphere(d: int, radius: float, rng: np.random.Generator) -> SphereToken:
    """One uniform draw on the sphere (radially normalised Gaussian)."""
    return SphereToken(uniform_rows(1, d, radius, rng)[0], radius)


def gaussian_mean_radius_exact(d: int) -> float:
    """Mean L2 norm of a standard Gaussian in R^d (chi-distribution mean).

    Evaluated through log-gamma differences so it stays finite far beyond
    the dimensions where direct gamma ratios overflow.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.sqrt(2.0) * math.exp(gammaln((d + 1) / 2.0) - gammaln(d / 2.0))


def gaussian_mean_radius_approx(d: int) -> float:
    """Closed-form approximation sqrt(d - 1/2) of the Gaussian mean radius."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.sqrt(d - 0.5)


def gaussian_norm_cv(d: int) -> float:
    """Coefficient of variation of the Gaussian norm: sqrt(d - m^2) / m."""
    m = gaussian_mean_radius_exact(d)
    return math.sqrt(d - m * m) / m


def gaussian_norm_stats(d: int) -> GaussianNormStats:
    return GaussianNormStats(d, gaussian_mean_radius_exact(d), gaussian_norm_cv(d))


def _check_common_radius(x0: SphereToken, x1: SphereToken) -> float:
    if x0.d != x1.d:
        raise DimensionMismatch("sphere points have different dimensions")
    if abs(x0.radius - x1.radius) > ON_SPHERE_RTOL * max(x0.radius, x1.radius):
        raise RadiusMismatch(
            f"radii differ: {x0.radius!r} vs {x1.radius!r}"
        )
    return x0.radius


def angle_between(x0: SphereToken, x1: SphereToken) -> float:
    """Angle in [0, pi] between two points on a common sphere.

    The cosine is clamped away from +/-1, so coincident (antipodal) pairs
    report a small positive angle (just below pi) rather than exactly 0 (pi).
    """
    _check_common_radius(x0, x1)
    cos = np.einsum("...i,...i->...", x0.direction, x1.direction)
    return float(np.arccos(np.clip(cos, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)))


def slerp(x0: SphereToken, x1: SphereToken, t: float) -> SphereToken:
    radius = _check_common_radius(x0, x1)
    pos, _ = geodesic_rows(x0.direction, x1.direction, float(t))
    return SphereToken(pos * radius, radius)


def slerp_velocity(x0: SphereToken, x1: SphereToken, t: float) -> TangentVector:
    """Velocity of the slerp path at time ``t`` (constant speed R * w)."""
    radius = _check_common_radius(x0, x1)
    pos, vel = geodesic_rows(x0.direction, x1.direction, float(t))
    return TangentVector(vel * radius, SphereToken(pos * radius, radius))


def tangent_project(v, z: SphereToken) -> TangentVector:
    """Project ``v`` onto the tangent space of the sphere at ``z``."""
    v = _as_vectors(v)
    if v.shape != z.values.shape:
        raise ValueError("vector and base point dimensions differ")
    return TangentVector(tangent_rows(v, z.values), z)


def exp_map(p: SphereToken, v: TangentVector) -> SphereToken:
    """Follow the geodesic from ``p`` with initial velocity ``v`` for unit time.

    ``v`` is re-certified as a :class:`TangentVector` at ``p`` itself, so a
    velocity certified at another base point must also be tangent here.
    """
    v = TangentVector(v.vector, p)
    return SphereToken(expmap_rows(p.values, v.vector, p.radius), p.radius)


def _deficit_domain(h: float, omega: float):
    """``(h, omega)`` as floats, or ``ValueError`` outside the deficit's
    domain: a finite step ``h > 0`` and an angle in ``(0, pi)``."""
    h = float(h)
    omega = float(omega)
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    if not 0.0 < omega < math.pi:
        raise ValueError(f"omega must lie strictly between 0 and pi, got {omega!r}")
    return h, omega


def one_step_deficit(h: float, omega: float, radius: float = 1.0) -> float:
    """Arc-length shortfall of one Euler-then-project step versus one
    exponential-map step along a great circle: R * (h w - arctan(h w)).

    Uses the odd series below ``x = 1e-3`` where the direct difference
    would cancel catastrophically.
    """
    h, omega = _deficit_domain(h, omega)
    x = h * omega
    if x < 1e-3:
        x2 = x * x
        return float(radius) * x * x2 * (1.0 / 3.0 - x2 / 5.0 + x2 * x2 / 7.0)
    return float(radius) * (x - math.atan(x))


def one_step_gap_measured(h: float, omega: float, radius: float = 1.0) -> float:
    """Geometric measurement of the one-step deficit.

    Builds the actual configuration in R^3 (point, tangent velocity of norm
    R * w), takes one exponential-map step and one Euler-then-project step,
    and returns the arc length between the two landing points via the
    half-chord angle, which stays accurate where arccos would not.  That arc
    is at most pi R, so a step whose deficit R (h w - arctan(h w)) reaches
    pi R raises ``ValueError``, as does a landing point that overflows.
    """
    h, omega = _deficit_domain(h, omega)
    radius = float(radius)
    p = np.array([radius, 0.0, 0.0])
    step = np.array([0.0, h * (radius * omega), 0.0])  # h v, with ||v|| = R w
    with np.errstate(over="ignore", invalid="ignore"):
        landed_exp = expmap_rows(p, step, radius)
    if not np.all(np.isfinite(landed_exp)):
        raise ValueError(f"step h = {h!r} overflows: the exp-map landing point is not finite")
    if h * omega - math.atan(h * omega) >= math.pi:
        raise ValueError(
            f"step h = {h!r} at omega = {omega!r} puts the deficit at or past pi R, "
            "beyond what the arc between the landing points can measure"
        )
    landed_euler = project_rows(p + step, radius)
    half_chord = float(np.linalg.norm(landed_exp - landed_euler)) / (2.0 * radius)
    return 2.0 * math.asin(half_chord) * radius
