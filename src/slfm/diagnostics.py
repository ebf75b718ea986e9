"""Measurement apparatus for token sets and transport paths.

Shell statistics (norm mean/std/CV over a token set), aggregate profiles of
norm, off-shell distance, and radial velocity share along a path, and the
direction/radius component-swap construction.

Every aggregate is an exact sum rounded once (:func:`_fsum`): the bits of
``math.fsum`` over the values, and therefore independent of summation
order: permuting the input pairs changes no profile value.  Error-free
extraction reduces each chunk of values in numpy to a few floats with the
same exact sum, and ``math.fsum`` rounds their sum.

:func:`path_profile` computes the per-pair geometry (endpoint norms, unit
rows, angles, tangent units) once per profile and evaluates every grid point
from it into buffers it reuses, one contiguous slice of the grid per usable
CPU.  A shell or slerp grid point is ten passes over the ``(n, d)`` rows:
two row-scaled products and an add each for the position and the velocity
(``paths._path_at``), the norms' squares and sum, and the velocity's two
products with itself and the position.  A linear velocity is the chord at
every t, so its energy is taken once per profile.  Each value is still the
exact sum of the per-row values, bit-identical to evaluating
:func:`~slfm.paths.path_rows` at that grid point, whatever the CPU count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DegenerateShell, DimensionMismatch, EmptyInput, NearZeroNorm
from .paths import PathKind, _energy_rows, _path_at, _path_setup, _radial_energy_rows
from .sphere import NORM_FLOOR, _as_vectors, _norms_into

# Population std below DEGENERATE_RTOL * mean is rounding noise from a
# constant-radius set, not a measured spread; it is snapped to exactly 0 so
# the CV of projected tokens is 0 and the degenerate dispatch is reachable.
DEGENERATE_RTOL = 1e-12

# Values per chunk of an exact sum.
_FSUM_CHUNK = 1 << 12

# An exact sum whose chunks' first extraction constants add up past
# 2^_FSUM_MAX_EXP goes to math.fsum value by value: below it, the values'
# magnitudes, and the parts', sum to less, so no running sum can overflow.
_FSUM_MAX_EXP = 1022

DEFAULT_GRID = 101
DEFAULT_PAIRS = 2048


@dataclass(frozen=True)
class ShellStats:
    """Norm summary of a token set: count, mean, population std, CV."""

    n_tokens: int
    mean_radius: float
    std_radius: float
    cv: float

    def __post_init__(self):
        if self.n_tokens <= 0:
            raise EmptyInput("shell statistics need at least one token")
        if self.mean_radius <= 0.0:
            raise ValueError("mean radius must be positive")
        if self.std_radius < 0.0:
            raise ValueError("std must be nonnegative")
        if abs(self.cv - self.std_radius / self.mean_radius) > 1e-9:
            raise ValueError("cv inconsistent with std/mean")


@dataclass(frozen=True)
class SwapPair:
    """The two hybrids of a component swap.

    ``keep_direction`` has the anchor's direction and the substitute's norm;
    ``keep_radius`` has the substitute's direction and the anchor's norm.
    """

    keep_direction: np.ndarray
    keep_radius: np.ndarray


@dataclass
class PathProfile:
    """Per-t aggregates over a pair set for one path kind.

    ``offshell_is_absolute`` records the off-shell unit: std multiples
    against the nearest endpoint shell normally, absolute norm deviation
    when an endpoint shell has zero spread (exact-radius data).
    """

    t_grid: np.ndarray
    mean_norm: np.ndarray
    std_norm: np.ndarray
    mean_offshell_sigma: np.ndarray
    mean_radial_share: np.ndarray
    kind: PathKind
    offshell_is_absolute: bool

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=np.float64)
        n = self.t_grid.shape[0]
        for name in ("mean_norm", "std_norm", "mean_offshell_sigma", "mean_radial_share"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise DimensionMismatch(f"{name} length differs from t_grid")
            setattr(self, name, arr)
        if np.any(self.mean_offshell_sigma < 0.0):
            raise ValueError("off-shell distances must be nonnegative")


def _token_rows(tokens) -> np.ndarray:
    try:
        arr = np.asarray(tokens, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"tokens are not a homogeneous array: {exc}") from None
    if arr.ndim == 0:
        raise DimensionMismatch("tokens must be vectors, got a scalar")
    if arr.shape[-1] == 0:
        raise DimensionMismatch(f"tokens have an empty coordinate axis: shape {arr.shape}")
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr.reshape(-1, arr.shape[-1])


def _chunks(values: np.ndarray, about: float | None, out: np.ndarray):
    """Each chunk of ``values``, or of their squared deviations from
    ``about``, written into the front of ``out``."""
    for start in range(0, values.shape[0], _FSUM_CHUNK):
        chunk = values[start : start + _FSUM_CHUNK]
        p = out[: chunk.shape[0]]
        if about is None:
            np.copyto(p, chunk)
        else:
            np.square(np.subtract(chunk, about, out=p), out=p)
        yield p


def _fsum(values: np.ndarray, about: float | None = None) -> float:
    """Exact sum of ``values``, or of their squared deviations from
    ``about`` when it is given, rounded once: the bits of ``math.fsum``
    over every value, so order and chunking move no bit.

    Each chunk of ``_FSUM_CHUNK`` values goes into one of two buffers
    allocated once per call, and error-free extraction (Rump, Ogita &
    Oishi, *Accurate floating-point summation part I*, SIAM J. Sci. Comput.
    31(1), 2008) reduces it there, in numpy.  With ``sigma = 2^(M + e)``,
    where ``2^M >= k + 2`` for the chunk's ``k`` values ``p`` and
    ``max|p| < 2^e``, ``q = (p + sigma) - sigma`` and ``p - q`` are exact,
    and the ``q`` are multiples of ``2^-53 sigma`` whose partial sums stay
    below ``sigma``, so numpy sums them exactly in any order.  Each pass
    appends that sum to the parts and goes on with ``p - q``, about 40 bits
    smaller, until it is all zero; ``math.fsum`` rounds the parts' sum,
    which is the values' exact sum.

    A nan or inf, or magnitudes that may sum past the float range, where
    fsum's own result depends on the order it meets the values in, send
    every value to ``math.fsum`` as it is, a chunk at a time; so fsum's
    nan, inf, ``ValueError`` and ``OverflowError`` outcomes stay."""
    buffers = np.empty((2, min(values.shape[0], _FSUM_CHUNK)))
    parts = []
    bound = 0.0  # the first sigma of every chunk, above the sum of |values|
    for p in _chunks(values, about, buffers[0]):
        q = buffers[1, : p.shape[0]]
        peak = float(np.maximum.reduce(np.abs(p, out=q)))
        if peak == 0.0:  # all zeros: their own sum has the sign fsum gives
            parts.append(float(np.add.reduce(p)))
            continue
        bits = (p.shape[0] + 1).bit_length()  # M, with 2^M >= k + 2
        bound += math.ldexp(1.0, min(bits + math.frexp(peak)[1], _FSUM_MAX_EXP + 1))
        if not (math.isfinite(peak) and bound <= math.ldexp(1.0, _FSUM_MAX_EXP)):
            return math.fsum(x for chunk in _chunks(values, about, buffers[0]) for x in chunk.tolist())
        while peak:
            sigma = math.ldexp(1.0, bits + math.frexp(peak)[1])
            np.subtract(np.add(p, sigma, out=q), sigma, out=q)
            parts.append(float(np.add.reduce(q)))
            np.subtract(p, q, out=p)
            peak = float(np.maximum.reduce(np.abs(p, out=q)))
    return math.fsum(parts)


def _fsum_mean(values: np.ndarray) -> float:
    return _fsum(values) / values.shape[0]


def _fsum_std(values: np.ndarray, mean: float) -> float:
    return math.sqrt(_fsum(values, mean) / values.shape[0])


def shell_stats(tokens) -> ShellStats:
    """Mean, population std, and CV of per-token L2 norms.

    A spread at rounding level (std below ``DEGENERATE_RTOL`` times the
    mean) reports as exactly 0, so projected token sets have cv = 0.
    Non-finite tokens raise ``ValueError``.
    """

    return _shell_stats_of_norms(np.linalg.norm(_as_vectors(_token_rows(tokens)), axis=-1))


def _shell_stats_of_norms(norms: np.ndarray) -> ShellStats:
    """:func:`shell_stats` from the per-token norms alone."""
    if norms.shape[0] == 0:
        raise EmptyInput("no tokens")
    mean = _fsum_mean(norms)
    if mean <= 0.0:
        raise NearZeroNorm("all token norms are zero")
    std = _fsum_std(norms, mean)
    if std <= DEGENERATE_RTOL * mean:
        std = 0.0
    return ShellStats(norms.shape[0], mean, std, std / mean)


def off_shell_sigma(z_t, shell0: ShellStats, shell1: ShellStats) -> float:
    """Distance of ``z_t``'s norm from the nearest endpoint shell, in that
    shell's standard deviations.  Exact-radius shells (std 0) have no sigma
    unit and raise; use the absolute deviation for those.  A non-finite
    ``z_t`` raises ``ValueError``, and a stack of rows
    ``DimensionMismatch``."""
    if shell0.std_radius == 0.0 or shell1.std_radius == 0.0:
        raise DegenerateShell("zero-spread shell has no sigma unit")
    z_t = _as_vectors(z_t)
    if z_t.ndim != 1:
        raise DimensionMismatch("off_shell_sigma takes one vector")
    r = np.linalg.norm(z_t)
    return float(_offshell_rows(r, shell0, shell1, absolute=False))


def _offshell_rows(norms: np.ndarray, shell0: ShellStats, shell1: ShellStats, absolute: bool):
    """Row-wise distance of ``norms`` from the nearest endpoint shell mean,
    absolute or in that shell's standard deviations."""
    d0 = np.abs(norms - shell0.mean_radius)
    d1 = np.abs(norms - shell1.mean_radius)
    if absolute:
        return np.minimum(d0, d1)
    return np.minimum(d0 / shell0.std_radius, d1 / shell1.std_radius)


def path_profile(z0s, z1s, kind: PathKind, t_grid=None) -> PathProfile:
    """Aggregate norm, off-shell, and radial-share curves over a pair set.

    ``z0s``/``z1s`` are ``(n, d)`` stacks of path endpoints.  Endpoint shell
    statistics are measured from the supplied set itself; when either
    endpoint set has zero norm spread the off-shell column switches to
    absolute norm deviation from the nearest endpoint mean.

    Each grid point writes its rows with ``paths._path_at``: shell and
    slerp rows come from each pair's two unit rows and per-pair
    coefficients that carry the radius, and a linear velocity is the
    chord, whose energy is taken once here rather than at every point.
    The grid runs as contiguous slices through ``model._run_ranges``, one
    per usable CPU, each with its own three ``(n, d)`` buffers.  Every
    point's arithmetic is the same as alone, so the curves do not depend on
    the CPU count, and an error is the one the first failing grid point
    raises.
    """

    z0s = _token_rows(z0s)
    z1s = _token_rows(z1s)
    if z0s.shape != z1s.shape:
        raise DimensionMismatch(f"endpoint shapes differ: {z0s.shape} vs {z1s.shape}")
    if z0s.shape[0] == 0:
        raise EmptyInput("no pairs")
    # every squared norm or velocity formed below is at most 16 d peak^2 (a
    # chord's 4 d peak^2, a shell velocity's (1 + pi^2) d peak^2), and the
    # std sums n of them
    n, d = z0s.shape
    peak = max(float(np.max(np.abs(z0s))), float(np.max(np.abs(z1s))))
    limit = math.sqrt(sys.float_info.max / (16 * n * d))
    if not peak <= limit:
        raise ValueError(
            f"endpoint coordinates must be finite and at most {limit:.3g} in magnitude "
            f"for {n} pairs in dimension {d}, got {peak!r}"
        )
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, DEFAULT_GRID)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if t_grid.ndim != 1 or t_grid.shape[0] == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    # written so that NaN, which fails every comparison, fails the test
    if not (np.all(t_grid >= 0.0) and np.all(t_grid <= 1.0) and np.all(np.diff(t_grid) >= 0.0)):
        raise ValueError("t_grid must be ordered within [0, 1]")

    # the peak bound has proved every coordinate finite
    shell0 = _shell_stats_of_norms(np.linalg.norm(z0s, axis=-1))
    shell1 = _shell_stats_of_norms(np.linalg.norm(z1s, axis=-1))
    absolute = shell0.std_radius == 0.0 or shell1.std_radius == 0.0

    pairs = _path_setup(z0s, z1s, kind)
    # a LINEAR velocity is the chord at every t, so its energy is too
    energy = _energy_rows(pairs.chord) if kind is PathKind.LINEAR else None
    mean_norm, std_norm, mean_off, mean_share = (np.empty_like(t_grid) for _ in range(4))

    def profile_slice(points):
        z_t, u_t, scratch = (np.empty(z0s.shape) for _ in range(3))
        norms = np.empty(n)
        for i in points:
            z, u = _path_at(pairs, float(t_grid[i]), (z_t, u_t, scratch))
            _norms_into(z, scratch, norms)
            mean_norm[i] = _fsum_mean(norms)
            std_norm[i] = _fsum_std(norms, mean_norm[i])
            mean_off[i] = _fsum_mean(_offshell_rows(norms, shell0, shell1, absolute))
            mean_share[i] = _fsum_mean(_radial_energy_rows(u, z, norms, energy)[2])

    # the grid points share nothing but the set-up
    slices = np.array_split(np.arange(t_grid.shape[0]), min(t_grid.shape[0], model._usable_cpus()))
    model._run_ranges(profile_slice, slices)
    return PathProfile(t_grid, mean_norm, std_norm, mean_off, mean_share, kind, absolute)


def component_swap(anchor, substitute) -> SwapPair:
    """Exchange norm and direction between two tokens.

    Returns the pair (anchor direction at the substitute's norm, substitute
    direction at the anchor's norm).  Non-finite tokens raise ``ValueError``.
    """

    a = _as_vectors(anchor)
    s = _as_vectors(substitute)
    if a.shape != s.shape or a.ndim != 1:
        raise DimensionMismatch("component_swap takes two vectors of equal dimension")
    keep_direction, keep_radius = component_swap_rows(a, s)
    return SwapPair(keep_direction=keep_direction[0], keep_radius=keep_radius[0])


def _swap_ratios(ra, rs, out):
    """The per-token scales of the component swap of tokens with the norms
    ``ra`` (anchors) and ``rs`` (substitutes): rs/ra for the direction
    hybrid, written into ``out``, and ra/rs for the radius hybrid, written
    over ``rs``.  Returns both.  Raises :class:`NearZeroNorm` on a norm
    below ``NORM_FLOOR``."""
    if np.any(ra < NORM_FLOOR) or np.any(rs < NORM_FLOOR):
        raise NearZeroNorm("token norm below floor, direction undefined")
    np.divide(rs, ra, out=out)
    return out, np.divide(ra, rs, out=rs)


def component_swap_rows(anchors, substitutes):
    """Row-wise :func:`component_swap`; returns the two hybrid stacks.
    The rows are not scanned for finiteness: ``slfm swap`` takes the same
    ratios (:func:`_swap_ratios`) of the norms of blocks that
    ``container.BlockReader`` has checked."""
    a = _token_rows(anchors)
    s = _token_rows(substitutes)
    if a.shape != s.shape:
        raise DimensionMismatch(f"stack shapes differ: {a.shape} vs {s.shape}")
    # the hybrids' buffers take the squares first
    keep_direction, keep_radius = np.empty_like(a), np.empty_like(s)
    ra, rs, to_direction = np.empty((3, a.shape[0]))
    _norms_into(a, keep_direction, ra)
    _norms_into(s, keep_radius, rs)
    to_direction, to_radius = _swap_ratios(ra, rs, to_direction)
    np.multiply(to_direction[:, None], a, out=keep_direction)
    np.multiply(to_radius[:, None], s, out=keep_radius)
    return keep_direction, keep_radius
