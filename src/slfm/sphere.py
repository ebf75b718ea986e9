"""Vector geometry on the fixed-radius hypersphere.

Row-wise functions (``*_rows``) treat the last axis as the coordinate axis,
so they accept a single vector of shape ``(d,)`` as well as stacks of shape
``(..., d)``.  They compute and do not check: a non-finite row gives
non-finite rows out, and only :func:`unit_rows` (so :func:`project_rows`)
raises, on rows below the norm floor.  Rows are checked where they enter:
:class:`SphereToken` and :class:`TangentVector` (finite coordinates, the
on-sphere and tangency certificates), :func:`radial_project`,
:func:`tangent_project`, ``paths.path_rows`` (path endpoints, and so
``model.loss_and_grad``'s batches), ``paths.radial_split``,
``diagnostics.path_profile`` (its peak bound), ``shell_stats``,
``off_shell_sigma`` and ``component_swap`` in ``diagnostics``, and
``container.BlockReader`` (payloads).  Rows the program makes itself,
such as a sampler's chains or a training step's batch, are not checked
again; ``model._sample_blocks`` checks each block's result once, and
``model.train`` checks its sources before the first step.  Everything
runs in float64.

The samplers, the training step and the streamed commands run rows through
private kernels that write into buffers their caller owns, with the bits
of the public functions that wrap them: ``_norms_into`` (the norms of
``np.linalg.norm``), ``_project_into`` (:func:`project_rows`),
``_tangent_into`` (:func:`tangent_rows`), ``_expmap_into``
(:func:`expmap_rows`), ``_circle_into`` (the rows of
:func:`geodesic_rows`) and ``_plane_norms_into`` (token norms straight
from f32 container planes).  Under them, ``_row_sums_into`` takes the row
sums: one whole column at a time for rows narrower than 8, where numpy's
own sum is an in-order loop that whole-column adds repeat bit for bit, and
through ``add.reduce`` otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NearZeroNorm, RadiusMismatch

# Fixed numerical guard rails. Behavioural constants, not configuration.
COS_CLAMP = 1e-6          # cosines clamped to [-1 + COS_CLAMP, 1 - COS_CLAMP]
NORM_FLOOR = 1e-8         # below this a vector has no usable direction
SMALL_ANGLE = 1e-4        # no formula reads these two: the tests draw their
ANTIPODAL_MARGIN = 0.1    # hard slerp angles below 1e-4 and within 0.1 of pi
ON_SPHERE_RTOL = 1e-6     # | ||x|| - R | <= ON_SPHERE_RTOL * R
TANGENT_RTOL = 1e-5       # |<v, p>| <= TANGENT_RTOL * ||v|| * R


def token_radius(value) -> float:
    """The one rule for a token radius R, given as a number or as text:
    R > 0 with R * R a normal, finite float, so that every squared norm
    formed for a radius-R row is one too (NaN fails every comparison).
    Returns R as a float; raises ``ValueError`` otherwise."""
    r = float(value)
    if not (r > 0.0 and sys.float_info.min <= r * r <= sys.float_info.max):
        raise ValueError(f"radius must be positive with a normal, finite square, got {r!r}")
    return r


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
        self.radius = token_radius(self.radius)
        if self.values.ndim != 1 or self.values.shape[0] < 2:
            raise ValueError("sphere points need a single axis with d >= 2")
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
        # the mean lies below sqrt(d), but rounds to it from about d = 1e16 on
        if self.mean_radius > math.sqrt(self.d):
            raise ValueError("chi mean must not exceed sqrt(d)")
        if self.cv <= 0.0:
            raise ValueError("coefficient of variation must be positive")


# ---------------------------------------------------------------------------
# row-wise primitives


# Rows narrower than this are summed one whole column at a time
# (:func:`_row_sums_into`).  numpy's add.reduce makes one inner-loop call
# per row along so short a last axis, and below 8 values its pairwise sum is
# an in-order loop from +0.0, which whole-column adds repeat bit for bit.
_COLUMNWISE_BELOW = 8


def _row_sums_into(x, out) -> np.ndarray:
    """``np.add.reduce(x, axis=-1)`` written into ``out`` (shape
    ``x.shape[:-1]``), with its bits: rows of 1 to ``_COLUMNWISE_BELOW - 1``
    values are added one whole column at a time, in order from +0.0; wider
    rows, and empty ones, take ``add.reduce`` itself.  Returns ``out``."""
    d = x.shape[-1]
    if not 0 < d < _COLUMNWISE_BELOW:
        return np.add.reduce(x, axis=-1, out=out)
    np.add(x[..., 0], 0.0, out=out)
    for j in range(1, d):
        np.add(out, x[..., j], out=out)
    return out


def _norms_into(x, sq, out) -> np.ndarray:
    """Row norms of ``x`` written into ``out`` (shape ``x.shape[:-1]``), with
    ``sq`` (``x``'s shape, and it may be ``x`` itself) as scratch for the
    squares: multiply, the row sums of :func:`_row_sums_into`, ``sqrt``,
    the same bits as ``np.linalg.norm(x, axis=-1)`` for C-ordered rows.
    Returns ``out``."""
    _row_sums_into(np.multiply(x, x, out=sq), out)
    return np.sqrt(out, out=out)


def _plane_slab(shape) -> np.ndarray:
    """The float64 scratch of :func:`_plane_norms_into` for f32 items of
    ``shape`` (k, d, h, w), or for fewer of them: ``min(d, 16)`` token
    planes of ``k * h * w`` values."""
    k, d, h, w = shape
    return np.empty(min(d, 16) * k * h * w)


def _plane_norms_into(items, out, slab, radius=None) -> np.ndarray:
    """Token norms of the f32 items ``items`` (k, d, h, w), written into
    ``out`` (k, h, w) straight from the channel planes: the bits of
    ``np.linalg.norm`` of their float64 token rows (``items`` promoted and
    transposed to C-ordered (k*h*w, d) rows), with no such rows formed.
    Each channel plane is promoted into a contiguous token plane of
    ``slab`` (:func:`_plane_slab`), squared there, and added in the order
    of numpy's pairwise ``add.reduce`` along a contiguous axis
    (:func:`_pairwise_planes`), so every add runs over whole planes.

    With a ``radius``, ``out`` receives instead the norms of the tokens
    :func:`project_rows` puts on the sphere of ``radius``: each promoted
    plane is divided by the tokens' own norms and multiplied by ``radius``
    before it is squared, the operations of :func:`_project_into`, whose
    overflow branch no f32 token reaches.  It raises as that does on a norm
    below the floor.  Returns ``out``."""
    project = None
    if radius is not None:
        norms = _plane_norms_into(items, np.empty(out.shape), slab)
        if np.any(norms < NORM_FLOOR):
            raise NearZeroNorm(f"row norm below {NORM_FLOOR}")
        project = (norms, float(radius))
    m = min(items.shape[1], 16)
    planes = slab[: m * out.size].reshape((m,) + out.shape)
    _pairwise_planes(items, 0, items.shape[1], out, planes, project)
    return np.sqrt(out, out=out)


def _pairwise_planes(items, first, stop, out, slab, project) -> np.ndarray:
    """The sum of the squared channel planes ``first``..``stop - 1`` of
    ``items`` into ``out``, added as numpy's pairwise ``add.reduce`` adds
    that many contiguous values: below 8 in order; up to 128, eight running
    sums over strides of 8, combined as ((s0 + s1) + (s2 + s3)) +
    ((s4 + s5) + (s6 + s7)), then the rest in order; above 128, the sums
    of the two parts split at half the count, rounded down to a multiple
    of 8, added.  The first eight planes of ``slab`` hold the running sums
    and the others the squares of the planes still to add; below 8 planes
    the squares fill ``slab`` from its first plane.  Returns ``out``."""
    n = stop - first
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_planes(items, first, first + half, out, slab, project)
        rest = _pairwise_planes(items, first + half, stop, np.empty_like(out), slab, project)
        return np.add(out, rest, out=out)
    lead = n - n % 8
    if lead:
        sums, squares = slab[:8], slab[8:]
        _squares_into(items, first, first + 8, sums, project)
        for c in range(first + 8, first + lead, 8):
            np.add(sums, _squares_into(items, c, c + 8, squares, project), out=sums)
        np.add(sums[0::2], sums[1::2], out=sums[0::2])
        np.add(sums[0::4], sums[2::4], out=sums[0::4])
        np.add(sums[0], sums[4], out=out)
    else:
        # numpy starts from -0.0, which adds to a square as 0.0 does
        squares = slab
        out.fill(0.0)
    for plane in _squares_into(items, first + lead, stop, squares, project):
        np.add(out, plane, out=out)
    return out


def _squares_into(items, first, stop, slab, project) -> np.ndarray:
    """The channel planes ``first``..``stop - 1`` of ``items``, promoted
    into the leading planes of ``slab``, projected when ``project`` is
    ``(norms, radius)``, and squared there; returns those planes."""
    planes = slab[: stop - first]
    np.copyto(planes, items[:, first:stop].transpose(1, 0, 2, 3))
    if project is not None:
        norms, radius = project
        np.divide(planes, norms, out=planes)
        np.multiply(planes, radius, out=planes)
    return np.multiply(planes, planes, out=planes)


def _project_into(x, radius, norms, out) -> np.ndarray:
    """:func:`project_rows` of ``x`` written into ``out`` (``x``'s shape);
    ``norms`` (shape ``x.shape[:-1]``) receives the row norms.  ``out`` is
    also the scratch of those norms, so it must not be ``x``.  Returns
    ``out``."""
    with np.errstate(over="ignore"):
        _norms_into(x, out, norms)
    if np.any(norms < NORM_FLOOR):
        raise NearZeroNorm(f"row norm below {NORM_FLOOR}")
    np.divide(x, norms[..., None], out=out)
    over = np.isinf(norms)
    if over.any():
        big = x[over]
        big = np.ldexp(big, -np.frexp(np.max(np.abs(big), axis=-1, keepdims=True))[1])
        out[over] = big / np.linalg.norm(big, axis=-1, keepdims=True)
    return np.multiply(out, float(radius), out=out)


def unit_rows(x) -> np.ndarray:
    """Normalise rows to unit length; raises on rows below the norm floor.

    A finite row whose squared norm passes float max is first scaled by
    the power of two that brings its largest coordinate into [0.5, 1),
    which is exact; every other row is divided by its norm as it is.  That
    overflow is handled, so it is not warned about."""
    return project_rows(x, 1.0)  # times 1.0: the same bits


def project_rows(x, radius: float) -> np.ndarray:
    """Radially rescale rows onto the sphere of ``radius``: the unit rows of
    :func:`unit_rows`, times ``radius``."""
    x = np.asarray(x, dtype=np.float64)
    return _project_into(x, radius, np.empty(x.shape[:-1]), np.empty_like(x))


def uniform_rows(n: int, d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent uniform draws on the sphere of ``radius`` in R^d."""
    return _onto_sphere(rng.standard_normal((n, d)), radius, rng)


def _onto_sphere(eps: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Rows ``eps`` of standard normal draws, scaled in place onto the
    sphere of ``radius``: uniform draws there.  A row whose norm falls below
    ``NORM_FLOOR`` (measure zero) is first drawn again from ``rng``, after
    every row of ``eps`` was drawn.  Returns ``eps``."""
    if eps.shape[-1] < 2:
        raise ValueError("uniform sphere sampling needs d >= 2")
    norms = np.linalg.norm(eps, axis=-1)
    while np.any(norms < NORM_FLOOR):  # measure-zero; resample those rows
        bad = norms < NORM_FLOOR
        eps[bad] = rng.standard_normal((int(bad.sum()), eps.shape[-1]))
        norms = np.linalg.norm(eps, axis=-1)
    return np.multiply(eps, (float(radius) / norms)[..., None], out=eps)


def orthonormal_rows(u) -> np.ndarray:
    """Deterministic unit vector orthogonal to each unit row.

    Uses the lowest-index standard basis vector whose component orthogonal
    to the row is non-degenerate, falling back to the next index when the
    row is (numerically) parallel to it.
    """
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
    rows of one shape (see :func:`_geodesic_setup`)."""

    u0: np.ndarray        # the start rows
    nhat: np.ndarray      # unit tangent at u0 toward u1, the circle's second axis
    omega: np.ndarray     # (...) angle between the rows, in [0, pi]


def _geodesic_setup(u0: np.ndarray, u1: np.ndarray) -> _Geodesic:
    """Angles and tangent units of the unit rows ``u0``/``u1``, float64
    arrays of one shape that a boundary has checked; nothing here depends
    on the times, which :func:`_geodesic_at` broadcasts against the pairs."""
    nhat = np.subtract(u1, u0)
    scratch = np.add(u1, u0)
    chord_sq = np.einsum("...i,...i->...", nhat, nhat)
    sum_sq = np.einsum("...i,...i->...", scratch, scratch)
    omega = 2.0 * np.arctan2(np.sqrt(chord_sq), np.sqrt(sum_sq))
    # u1 - u0 and u1 + u0 less their u0 parts are the same tangent; take
    # the shorter (the chord up to pi/2), which has no large u0 part to cancel
    np.copyto(nhat, scratch, where=(sum_sq < chord_sq)[..., None])
    np.multiply(np.einsum("...i,...i->...", nhat, u0)[..., None], u0, out=scratch)
    nhat -= scratch
    resid_sq = np.einsum("...i,...i->...", nhat, nhat)
    # a residual of at most 2^-40 of that difference (equal rows, exact
    # antipodes) has no direction: any unit orthogonal to u0 will do
    degenerate = resid_sq <= 2.0 ** -80 * np.minimum(chord_sq, sum_sq)
    if np.any(degenerate):
        resid_sq = np.where(degenerate, 1.0, resid_sq)
        nhat[degenerate] = orthonormal_rows(u0[degenerate])
    nhat /= np.sqrt(resid_sq)[..., None]
    return _Geodesic(u0, nhat, omega)


def _circle_into(g: _Geodesic, a, b, out=None, scratch=None) -> np.ndarray:
    """The rows ``a u0 + b nhat`` of the pairs ``g``, for coefficients
    ``a`` and ``b`` that broadcast against the pairs' leading shape: two
    row-scaled products and one add, into ``out`` (with ``scratch`` for
    the second product) when given, into a new array otherwise.  Every
    row of a path on the pairs' great circles is one of these."""
    out = np.multiply(a[..., None], g.u0, out=out)
    return np.add(out, np.multiply(b[..., None], g.nhat, out=scratch), out=out)


def _geodesic_at(g: _Geodesic, t, radius=1.0, rate=None, out=None):
    """Position and velocity at ``t`` of ``radius`` times the unit geodesic
    of the pairs ``g``, where ``t`` broadcasts against the pairs' leading
    shape and ``radius`` against that broadcast, and ``rate`` is the
    radius's time derivative (``None`` for a constant radius).

    Both are rows of :func:`_circle_into`: the position has the
    coefficients ``r (cos wt, sin wt)``, and the velocity
    ``r w (-sin wt, cos wt)``, plus ``rate (cos wt, sin wt)`` when the
    radius changes, all formed on per-pair values before they meet a row.
    With ``out = (pos, vel, scratch)``, arrays of the pairs' shape, the
    rows are written into ``pos`` and ``vel``; otherwise into new arrays
    of the broadcast shape."""
    pos, vel, scratch = (None, None, None) if out is None else out
    wt = np.asarray(t, dtype=np.float64) * g.omega
    cos_wt, sin_wt = np.cos(wt), np.sin(wt)
    speed = radius * g.omega
    a, b = -speed * sin_wt, speed * cos_wt
    if rate is not None:
        a += rate * cos_wt
        b += rate * sin_wt
    pos = _circle_into(g, radius * cos_wt, radius * sin_wt, pos, scratch)
    return pos, _circle_into(g, a, b, vel, scratch)


def geodesic_rows(u0, u1, t):
    """Spherical linear interpolation between unit rows and its time
    derivative, as ``(position, velocity)``.

    One formula at every angle: ``pos = cos(w t) u0 + sin(w t) n`` and
    ``vel = -w sin(w t) u0 + w cos(w t) n``, each row two scaled copies of
    the pair's fixed rows ``u0`` and ``n`` and one add
    (:func:`_circle_into`), with the coefficients formed per pair.  The
    angle is ``w = 2 atan2(|u1 - u0|, |u1 + u0|)``, accurate near 0 and
    near pi.  The unit tangent ``n`` is the shorter of ``u1 - u0`` and
    ``u1 + u0`` less its ``u0`` part, normalised: both give the same
    tangent, and the shorter has no large ``u0`` part to cancel, so ``n``
    is accurate and tangent to rounding at every angle.  At ``t = 1`` the
    position is ``u1`` to rounding, near-antipodal pairs included.  Where
    that residual is at most 2^-40 of the difference it came from, ``n``
    is the deterministic orthogonal unit of :func:`orthonormal_rows`:
    equal rows stay at ``u0`` with zero velocity, and exact antipodes
    follow that circle at speed pi.  ``t`` broadcasts against the rows and
    may lie outside ``[0, 1]`` (geodesic extension).

    The velocity has norm ``w`` and is tangent to the position, so callers
    need no tangent projection.
    """
    u0, u1 = np.broadcast_arrays(np.asarray(u0, dtype=np.float64), np.asarray(u1, dtype=np.float64))
    return _geodesic_at(_geodesic_setup(u0, u1), t)


def slerp_rows(u0, u1, t) -> np.ndarray:
    """Position part of :func:`geodesic_rows`."""
    return geodesic_rows(u0, u1, t)[0]


def slerp_velocity_rows(u0, u1, t) -> np.ndarray:
    """Velocity part of :func:`geodesic_rows`."""
    return geodesic_rows(u0, u1, t)[1]


def _tangent_into(v, z, sq, dot, zz, out) -> np.ndarray:
    """:func:`tangent_rows` of ``v`` at ``z`` written into ``out``, which
    may be ``v`` or ``sq``: ``v - (sum(v*z) / sum(z*z)) * z`` over the last
    axis.  ``sq`` (the broadcast shape) holds the products, whose layout
    sets the order of the sums; ``dot`` and ``zz`` (that shape without its
    last axis) hold the two sums.  Returns ``out``."""
    _row_sums_into(np.multiply(v, z, out=sq), dot)
    _row_sums_into(np.multiply(z, z, out=sq), zz)
    dot /= zz
    return np.subtract(v, np.multiply(dot[..., None], z, out=sq), out=out)


def tangent_rows(v, z) -> np.ndarray:
    """Remove the radial component of ``v`` at the sphere point(s) ``z``."""
    v = np.asarray(v, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    out = v * z  # fresh, in the layout the products of v and z take
    return _tangent_into(v, z, out, np.empty(out.shape[:-1]), np.empty(out.shape[:-1]), out)


def _expmap_into(p, v, radius, sq, nv, cos, coef, out) -> np.ndarray:
    """:func:`expmap_rows` at ``p`` along ``v`` written into ``out``, which
    may be ``p`` or ``v``: ``cos(|v| / R) p + (R sin(|v| / R) / |v|) v``,
    with 1 in place of a zero ``|v|``.  ``sq`` (the rows' shape) is the
    scratch of the squares and of the second product; ``nv``, ``cos`` and
    ``coef`` (that shape without its last axis) receive ``|v|`` (1 where
    it is zero), the cosines and the coefficients of ``v``.  Returns
    ``out``."""
    radius = float(radius)
    _norms_into(v, sq, nv)
    np.divide(nv, radius, out=coef)
    np.cos(coef, out=cos)
    np.sin(coef, out=coef)
    coef *= radius
    np.copyto(nv, 1.0, where=nv == 0.0)
    coef /= nv
    np.multiply(coef[..., None], v, out=sq)
    return np.add(np.multiply(cos[..., None], p, out=out), sq, out=out)


def expmap_rows(p, v, radius: float) -> np.ndarray:
    """Exponential map at rows ``p`` along tangent rows ``v``.

    Zero-norm velocity rows return ``p`` exactly.
    """
    p = np.asarray(p, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(p.shape, v.shape))
    nv, cos, coef = (np.empty(v.shape[:-1]) for _ in range(3))
    return _expmap_into(p, v, radius, np.empty_like(v), nv, cos, coef, out)


# ---------------------------------------------------------------------------
# certified scalar API


def radial_project(z, radius: float) -> SphereToken:
    """Rescale ``z`` onto the sphere of ``radius``, keeping its direction."""
    z = _as_vectors(z)
    if z.ndim != 1:
        raise ValueError("radial_project takes a single vector")
    return SphereToken(project_rows(z, radius), radius)


def sample_uniform_sphere(d: int, radius: float, rng: np.random.Generator) -> SphereToken:
    """One uniform draw on the sphere (radially normalised Gaussian)."""
    return SphereToken(uniform_rows(1, d, radius, rng)[0], radius)


def _chi_dimension(d: int) -> float:
    """``d`` as a float, for the closed forms of the chi distribution."""
    if d < 1:
        raise ValueError("d must be >= 1")
    try:
        return float(d)
    except OverflowError:
        raise ValueError("d is past the float range (about 1.8e308)") from None


def gaussian_mean_radius_exact(d: int) -> float:
    """Mean L2 norm of a standard Gaussian in R^d (chi-distribution mean),
    sqrt(2) * Gamma((d+1)/2) / Gamma(d/2).

    Below d = 64 the gamma ratio r(d) follows the exact recurrence
    r(d+2) = r(d) (d+1)/d from r(1) = 1/sqrt(pi) and r(2) = sqrt(pi)/2; its
    product of (d+1)/d factors, (d-1)!!/(d-2)!!, is a ratio of integers,
    rounded once.  From d = 64 on the mean is sqrt(d) S(1/d) with the
    asymptotic series S(u) = 1 - u/4 + u^2/32 + 5u^3/128 - 21u^4/2048
    - 399u^5/8192 + 869u^6/65536 + 39325u^7/262144, whose truncation error
    is at most 1.5e-16 relative (at d = 64).
    """
    x = _chi_dimension(d)
    if d < 64:
        q = math.prod(range(d - 1, 0, -2)) / math.prod(range(d - 2, 0, -2))
        return q * (math.sqrt(2.0 / math.pi) if d % 2 else math.sqrt(math.pi / 2.0))
    u = 1.0 / x
    s = 1.0 - u * (1 / 4 - u * (1 / 32 + u * (5 / 128 - u * (
        21 / 2048 + u * (399 / 8192 - u * (869 / 65536 + u * 39325 / 262144))))))
    return math.sqrt(x) * s


def gaussian_mean_radius_approx(d: int) -> float:
    """Closed-form approximation sqrt(d - 1/2) of the Gaussian mean radius."""
    return math.sqrt(_chi_dimension(d) - 0.5)


def gaussian_norm_cv(d: int) -> float:
    """Coefficient of variation of the Gaussian norm: sqrt(d - m^2) / m.

    From d = 64 on, d - m^2 (the norm's variance, near 1/2) is not formed
    by cancellation but from its series in u = 1/d,
    1/2 - u/8 - u^2/16 + 5u^3/128 + 23u^4/256 - 53u^5/1024 - 593u^6/2048
    + 5165u^7/32768 + 110123u^8/65536 - 231743u^9/262144, whose truncation
    error is below 3e-17 relative there.
    """
    m = gaussian_mean_radius_exact(d)
    if d < 64:
        return math.sqrt(d - m * m) / m
    u = 1.0 / d
    var = 0.5 - u * (1 / 8 + u * (1 / 16 - u * (5 / 128 + u * (23 / 256 - u * (
        53 / 1024 + u * (593 / 2048 - u * (5165 / 32768 + u * (
            110123 / 65536 - u * 231743 / 262144))))))))
    return math.sqrt(var) / m


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
