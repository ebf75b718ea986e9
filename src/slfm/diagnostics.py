"""Measurement apparatus for token sets and transport paths.

Shell statistics (norm mean/std/CV over a token set), aggregate profiles of
norm, off-shell distance, and radial velocity share along a path, and the
direction/radius component-swap construction.

All aggregation goes through ``math.fsum``, which is exactly rounded and
therefore independent of summation order: permuting the input pairs changes
no profile value.

:func:`path_profile` computes the per-pair geometry (endpoint norms, unit
rows, angles, regime masks) once per profile and evaluates every grid point
from it into buffers it reuses.  Each value is still the exact fsum of the
per-row values, bit-identical to evaluating :func:`~slfm.paths.path_rows`
at that grid point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateShell, DimensionMismatch, EmptyInput, NearZeroNorm
from .paths import PathKind, _path_at, _path_setup, _radial_energy_rows
from .sphere import NORM_FLOOR

# Population std below DEGENERATE_RTOL * mean is rounding noise from a
# constant-radius set, not a measured spread; it is snapped to exactly 0 so
# the CV of projected tokens is 0 and the degenerate dispatch is reachable.
DEGENERATE_RTOL = 1e-12

# Values per chunk of the std's squared deviations.
_FSUM_CHUNK = 1 << 12

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
    shell0: ShellStats = field(repr=False, default=None)
    shell1: ShellStats = field(repr=False, default=None)

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
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr.reshape(-1, arr.shape[-1])


def _fsum_mean(values: np.ndarray) -> float:
    return math.fsum(values) / values.shape[0]


def _fsum_std(values: np.ndarray, mean: float) -> float:
    # squared deviations a chunk at a time, so that no second array as long
    # as ``values`` is held; one fsum over all of them is exact, so the
    # chunking moves no bit
    chunks = (
        np.square(values[i : i + _FSUM_CHUNK] - mean).tolist()
        for i in range(0, values.shape[0], _FSUM_CHUNK)
    )
    return math.sqrt(math.fsum(itertools.chain.from_iterable(chunks)) / values.shape[0])


def shell_stats(tokens) -> ShellStats:
    """Mean, population std, and CV of per-token L2 norms.

    A spread at rounding level (std below ``DEGENERATE_RTOL`` times the
    mean) reports as exactly 0, so projected token sets have cv = 0.
    """

    return _shell_stats_of_norms(np.linalg.norm(_token_rows(tokens), axis=-1))


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
    unit and raise; use the absolute deviation for those."""
    if shell0.std_radius == 0.0 or shell1.std_radius == 0.0:
        raise DegenerateShell("zero-spread shell has no sigma unit")
    r = np.linalg.norm(np.asarray(z_t, dtype=np.float64))
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
    """

    z0s = _token_rows(z0s)
    z1s = _token_rows(z1s)
    if z0s.shape != z1s.shape:
        raise DimensionMismatch(f"endpoint shapes differ: {z0s.shape} vs {z1s.shape}")
    if z0s.shape[0] == 0:
        raise EmptyInput("no pairs")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, DEFAULT_GRID)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if t_grid.ndim != 1 or t_grid.shape[0] == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if np.any(t_grid < 0.0) or np.any(t_grid > 1.0) or np.any(np.diff(t_grid) < 0.0):
        raise ValueError("t_grid must be ordered within [0, 1]")

    shell0 = shell_stats(z0s)
    shell1 = shell_stats(z1s)
    absolute = shell0.std_radius == 0.0 or shell1.std_radius == 0.0

    pairs = _path_setup(z0s, z1s, kind)
    z_t, u_t, scratch = (np.empty(z0s.shape) for _ in range(3))
    mean_norm = np.empty_like(t_grid)
    std_norm = np.empty_like(t_grid)
    mean_off = np.empty_like(t_grid)
    mean_share = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        z, u = _path_at(pairs, float(t), (z_t, u_t, scratch))
        # the reduction np.linalg.norm(z, axis=-1) makes (same bits), in scratch
        norms = np.sqrt(np.add.reduce(np.multiply(z, z, out=scratch), axis=-1))
        mean_norm[i] = _fsum_mean(norms)
        std_norm[i] = _fsum_std(norms, mean_norm[i])
        mean_off[i] = _fsum_mean(_offshell_rows(norms, shell0, shell1, absolute))
        mean_share[i] = _fsum_mean(_radial_energy_rows(u, z, norms)[2])
    return PathProfile(
        t_grid, mean_norm, std_norm, mean_off, mean_share, kind, absolute, shell0, shell1
    )


def component_swap(anchor, substitute) -> SwapPair:
    """Exchange norm and direction between two tokens.

    Returns the pair (anchor direction at the substitute's norm, substitute
    direction at the anchor's norm).
    """

    a = np.asarray(anchor, dtype=np.float64)
    s = np.asarray(substitute, dtype=np.float64)
    if a.shape != s.shape or a.ndim != 1:
        raise DimensionMismatch("component_swap takes two vectors of equal dimension")
    keep_direction, keep_radius = component_swap_rows(a, s)
    return SwapPair(keep_direction=keep_direction[0], keep_radius=keep_radius[0])


def component_swap_rows(anchors, substitutes):
    """Row-wise :func:`component_swap`; returns the two hybrid stacks."""
    a = _token_rows(anchors)
    s = _token_rows(substitutes)
    if a.shape != s.shape:
        raise DimensionMismatch(f"stack shapes differ: {a.shape} vs {s.shape}")
    ra = np.linalg.norm(a, axis=-1, keepdims=True)
    rs = np.linalg.norm(s, axis=-1, keepdims=True)
    if np.any(ra < NORM_FLOOR) or np.any(rs < NORM_FLOOR):
        raise NearZeroNorm("token norm below floor, direction undefined")
    return (rs / ra) * a, (ra / rs) * s
