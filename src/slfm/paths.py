"""Interpolation paths between noise and data tokens, with velocity targets.

Three kinds: straight Euclidean lines, shell paths (slerped direction with a
linearly interpolated radius), and constant-radius slerp geodesics.  Scalar
constructors return :class:`PathPoint`; :func:`path_rows` evaluates a whole
stack of token pairs at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NearZeroNorm, RadiusMismatch
from . import sphere
from .sphere import NORM_FLOOR, ON_SPHERE_RTOL, SphereToken


class PathKind(enum.Enum):
    LINEAR = "linear"
    SHELL = "shell"
    SLERP = "slerp"


@dataclass
class PathPoint:
    """State of one interpolation path at time ``t``: position and velocity."""

    z_t: np.ndarray
    u_t: np.ndarray
    t: float
    kind: PathKind

    def __post_init__(self):
        self.z_t = np.asarray(self.z_t, dtype=np.float64)
        self.u_t = np.asarray(self.u_t, dtype=np.float64)
        self.t = float(self.t)
        if self.z_t.shape != self.u_t.shape:
            raise DimensionMismatch("position and velocity shapes differ")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t = {self.t!r} outside [0, 1]")
        if self.kind is PathKind.SLERP:
            # the tangency certificate at z_t, on the sphere of z_t's own norm
            base = SphereToken(self.z_t, float(np.linalg.norm(self.z_t)))
            sphere.TangentVector(self.u_t, base)


@dataclass(frozen=True)
class RadialSplit:
    """Squared-norm split of a velocity into radial and tangential parts."""

    radial_energy: float
    tangential_energy: float
    share: float

    def __post_init__(self):
        if self.radial_energy < 0.0 or self.tangential_energy < 0.0:
            raise ValueError("energies must be nonnegative")
        if not 0.0 <= self.share <= 1.0:
            raise ValueError("share must lie in [0, 1]")


def _path_point(z0, z1, t: float, kind: PathKind, radius: float | None = None) -> PathPoint:
    """One pair through :func:`path_rows`, which checks the shapes;
    :class:`PathPoint` checks that ``t`` lies in [0, 1]."""
    t = float(t)
    z_t, u_t = path_rows(z0, z1, t, kind, radius=radius)
    return PathPoint(z_t, u_t, t, kind)


def linear_path(z0, z1, t: float) -> PathPoint:
    """Straight-line interpolation; velocity is the constant chord z1 - z0."""
    return _path_point(z0, z1, t, PathKind.LINEAR)


def shell_path(z0, z1, t: float) -> PathPoint:
    """Slerp the directions, interpolate the radii linearly.

    The velocity is the exact product-rule derivative
    ``(r1 - r0) * dir_t + r_t * d(dir_t)/dt``, not a finite difference.
    """
    return _path_point(z0, z1, t, PathKind.SHELL)


def slerp_path(z0: SphereToken, z1: SphereToken, t: float) -> PathPoint:
    """Constant-radius geodesic; the velocity target is tangent at z_t."""
    radius = sphere._check_common_radius(z0, z1)
    return _path_point(z0.values, z1.values, t, PathKind.SLERP, radius=radius)


def path_rows(z0, z1, t, kind: PathKind, radius: float | None = None):
    """Evaluate a path for stacks of token pairs.

    ``z0``/``z1`` are ``(..., d)`` with matching shapes; ``t`` is a scalar
    or broadcastable against the leading shape, and broadcasts through the
    evaluation: one pair at a vector of times gives one row per time.
    Returns ``(z_t, u_t)``.  For ``SLERP`` all endpoint rows must lie on
    one common radius (pass ``radius`` to pin it; otherwise it is inferred
    from the data).  SHELL and SLERP endpoints of fewer than two
    dimensions raise :class:`DimensionMismatch`, ones below the norm floor
    :class:`NearZeroNorm`, and ones whose squared norm overflows
    ``ValueError``.
    """
    z0, z1 = sphere._as_vectors(z0), sphere._as_vectors(z1)
    if z0.shape != z1.shape:
        raise DimensionMismatch(f"shapes differ: {z0.shape} vs {z1.shape}")
    return _path_at(_path_setup(z0, z1, kind, radius), t)


class _PathPairs(NamedTuple):
    """The t-independent part of :func:`path_rows` (see :func:`_path_setup`)."""

    kind: PathKind
    z0: np.ndarray
    z1: np.ndarray
    chord: np.ndarray | None = None    # LINEAR: z1 - z0
    r0: np.ndarray | None = None       # SHELL: the endpoint norms
    r1: np.ndarray | None = None
    radius: float | None = None        # SLERP: the common radius
    geodesic: sphere._Geodesic | None = None  # SHELL, SLERP: the unit rows


def _path_setup(z0, z1, kind: PathKind, radius: float | None = None) -> _PathPairs:
    """What does not depend on ``t`` for pairs of one shape that
    :func:`path_rows` has checked: the chord, or the endpoint norms, the
    unit rows of :func:`sphere._project_into` and their geodesic set-up.
    Raises as :func:`path_rows` does on SHELL or SLERP rows of fewer than
    two dimensions, norms below the floor, squared norms past the float
    range or rows off the common sphere."""
    if kind is PathKind.LINEAR:
        return _PathPairs(kind, z0, z1, chord=z1 - z0)
    # a direction on a sphere needs two dimensions
    if z0.shape[-1] < 2:
        raise DimensionMismatch(f"{kind.value} paths need a dimension of at least 2, got {z0.shape[-1]}")

    r0, r1 = np.empty(z0.shape[:-1]), np.empty(z1.shape[:-1])
    u0 = sphere._project_into(z0, 1.0, r0, np.empty_like(z0))
    u1 = sphere._project_into(z1, 1.0, r1, np.empty_like(z1))
    if not (np.isfinite(r0).all() and np.isfinite(r1).all()):
        raise ValueError("endpoint rows must have finite squared norms")
    geodesic = sphere._geodesic_setup(u0, u1)

    if kind is PathKind.SHELL:
        return _PathPairs(kind, z0, z1, r0=r0, r1=r1, geodesic=geodesic)

    if kind is PathKind.SLERP:
        if radius is None:
            radius = float(np.mean(np.concatenate([np.atleast_1d(r0), np.atleast_1d(r1)])))
        dev = max(
            float(np.max(np.abs(r0 - radius))), float(np.max(np.abs(r1 - radius)))
        )
        if dev > ON_SPHERE_RTOL * radius:
            raise RadiusMismatch(
                f"endpoints off the common sphere: max deviation {dev!r} at radius {radius!r}"
            )
        return _PathPairs(kind, z0, z1, radius=radius, geodesic=geodesic)

    raise ValueError(f"unknown path kind: {kind!r}")


def _path_at(pairs: _PathPairs, t, out=None):
    """``(z_t, u_t)`` of the pairs at ``t``.  With ``out = (z_t, u_t,
    scratch)``, arrays of the pairs' shape, the result is written into
    those; a LINEAR ``u_t`` is the pairs' own chord either way.

    SHELL and SLERP rows are not the unit geodesic rescaled: the radius
    goes into the per-pair coefficients of :func:`sphere._geodesic_at`,
    so each of ``z_t`` and ``u_t`` is two row-scaled products and one add.
    A SLERP path has the constant radius R; a SHELL path the radius
    ``r_t = (1 - t) r0 + t r1`` and its rate ``r1 - r0``, which makes
    ``u_t = (r1 - r0) dir_t + r_t d(dir_t)/dt``."""
    t = np.asarray(t, dtype=np.float64)
    z_t, _, scratch = (None, None, None) if out is None else out

    if pairs.kind is PathKind.LINEAR:
        tt = t[..., None] if t.ndim else t
        z_t = np.multiply(1.0 - tt, pairs.z0, out=z_t)
        np.add(z_t, np.multiply(tt, pairs.z1, out=scratch), out=z_t)
        if pairs.chord.shape == z_t.shape:
            return z_t, pairs.chord
        return z_t, np.broadcast_to(pairs.chord, z_t.shape).copy()

    if pairs.kind is PathKind.SHELL:
        r_t = (1.0 - t) * pairs.r0 + t * pairs.r1
        return sphere._geodesic_at(pairs.geodesic, t, r_t, pairs.r1 - pairs.r0, out)
    return sphere._geodesic_at(pairs.geodesic, t, pairs.radius, out=out)


def chord_norm_sq(r0: float, r1: float, cos01: float, t: float) -> float:
    """Closed-form squared norm of the straight-line interpolation between
    vectors of norms ``r0``/``r1`` with direction cosine ``cos01``."""
    r0 = float(r0)
    r1 = float(r1)
    if not (r0 >= 0.0 and r1 >= 0.0):
        raise ValueError("radii must be nonnegative")
    cos01 = float(cos01)
    if not -1.0 <= cos01 <= 1.0:
        raise ValueError("cos01 must lie in [-1, 1]")
    t = float(t)
    return (
        (1.0 - t) ** 2 * r0 * r0
        + t ** 2 * r1 * r1
        + 2.0 * t * (1.0 - t) * r0 * r1 * cos01
    )


def _energy_rows(u: np.ndarray) -> np.ndarray:
    """Row-wise energy ``||u||^2`` of the velocities ``u``."""
    return np.einsum("...i,...i->...", u, u)


def _radial_energy_rows(u: np.ndarray, z: np.ndarray, zn: np.ndarray, total=None):
    """Row-wise ``(radial, total, share)`` of the velocities ``u`` at ``z``,
    given the norms ``zn`` of ``z``: the radial energy ``<u, z>^2 / ||z||^2``,
    the total energy ``||u||^2`` (:func:`_energy_rows`, unless ``total``
    gives it) and their ratio, at most 1 and 0 on zero-velocity rows.
    Raises :class:`NearZeroNorm` where ``zn`` is below the floor."""
    if np.any(zn < NORM_FLOOR):
        raise NearZeroNorm("reference point norm below floor")
    along = np.einsum("...i,...i->...", u, z) / zn
    radial = along * along
    if total is None:
        total = _energy_rows(u)
    with np.errstate(invalid="ignore", divide="ignore"):
        share = np.where(total > 0.0, radial / np.where(total > 0.0, total, 1.0), 0.0)
    return radial, total, np.minimum(share, 1.0)


def radial_split(u, z) -> RadialSplit:
    """Split the squared norm of ``u`` into components along and across
    ``z``; non-finite vectors raise ``ValueError``."""
    u = sphere._as_vectors(u)
    z = sphere._as_vectors(z)
    if u.shape != z.shape or u.ndim != 1:
        raise DimensionMismatch("radial_split takes two vectors of equal dimension")
    radial, total, share = map(float, _radial_energy_rows(u, z, np.linalg.norm(z, axis=-1)))
    return RadialSplit(radial, max(total - radial, 0.0), share)


def radial_share_rows(u, z) -> np.ndarray:
    """Row-wise radial share of ``u`` at ``z``; zero-velocity rows give 0."""
    u = np.asarray(u, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return _radial_energy_rows(u, z, np.linalg.norm(z, axis=-1))[2]
