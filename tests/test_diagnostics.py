"""Shell statistics, path profiles, and the component swap surgery."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slfm import sphere
from slfm.diagnostics import (
    ShellStats,
    component_swap,
    component_swap_rows,
    off_shell_sigma,
    path_profile,
    shell_stats,
)
from slfm.errors import DegenerateShell, DimensionMismatch, EmptyInput, NearZeroNorm
from slfm.paths import PathKind, path_rows, radial_share_rows
from slfm.sphere import radial_project, unit_rows
from test_sphere import _mixed_regime_pairs


# ---------------------------------------------------------------------------
# shell_stats


def test_shell_stats_identical_norms_cv_zero():
    rng = np.random.default_rng(0)
    rows = 2.5 * unit_rows(rng.standard_normal((64, 8)))
    stats = shell_stats(rows)
    assert stats.mean_radius == pytest.approx(2.5, rel=1e-12)
    # radii agree to float rounding, so the spread must snap to exactly zero
    assert stats.std_radius == 0.0
    assert stats.cv == 0.0


def test_shell_stats_gaussian_reference():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((100_000, 32))
    stats = shell_stats(rows)
    assert stats.mean_radius == pytest.approx(5.613, rel=0.01)
    assert stats.cv == pytest.approx(0.1255, rel=0.10)


def test_shell_stats_projected_cv_exactly_zero():
    rng = np.random.default_rng(2)
    rows = sphere.project_rows(rng.standard_normal((512, 16)), 4.0)
    stats = shell_stats(rows)
    assert stats.cv == 0.0


def test_shell_stats_empty():
    with pytest.raises(EmptyInput):
        shell_stats(np.zeros((0, 4)))


def test_shell_stats_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        shell_stats([[1.0, 2.0], [3.0]])


def test_shell_stats_order_independent():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((4096, 12))
    perm = rng.permutation(4096)
    a = shell_stats(rows)
    b = shell_stats(rows[perm])
    # fsum-based reductions make the aggregate independent of row order,
    # bit for bit, not merely within tolerance
    assert a.mean_radius == b.mean_radius
    assert a.std_radius == b.std_radius
    assert a.cv == b.cv


def test_shell_stats_certificate_rejects_inconsistent_cv():
    with pytest.raises(ValueError):
        ShellStats(n_tokens=10, mean_radius=2.0, std_radius=0.2, cv=0.5)


def test_shell_stats_certificate_rejects_empty():
    with pytest.raises(EmptyInput):
        ShellStats(n_tokens=0, mean_radius=1.0, std_radius=0.0, cv=0.0)


# ---------------------------------------------------------------------------
# off_shell_sigma


def test_off_shell_sigma_on_shell():
    s0 = ShellStats(n_tokens=10, mean_radius=2.0, std_radius=0.1, cv=0.05)
    s1 = ShellStats(n_tokens=10, mean_radius=4.0, std_radius=0.3, cv=0.075)
    assert off_shell_sigma(np.array([2.0, 0.0]), s0, s1) == 0.0
    assert off_shell_sigma(np.array([0.0, 4.0]), s0, s1) == 0.0


def test_off_shell_sigma_unit_excursion():
    s0 = ShellStats(n_tokens=10, mean_radius=2.0, std_radius=0.2, cv=0.1)
    s1 = ShellStats(n_tokens=10, mean_radius=4.0, std_radius=0.5, cv=0.125)
    # norm 2.2 sits one s0-sigma off the near shell and 3.6 s1-sigmas off the
    # far one; the nearer excursion wins
    assert off_shell_sigma(np.array([2.2, 0.0]), s0, s1) == pytest.approx(
        1.0, rel=1e-12
    )


def test_off_shell_sigma_degenerate():
    s0 = ShellStats(n_tokens=10, mean_radius=2.0, std_radius=0.0, cv=0.0)
    s1 = ShellStats(n_tokens=10, mean_radius=2.0, std_radius=0.3, cv=0.15)
    with pytest.raises(DegenerateShell):
        off_shell_sigma(np.array([2.0, 0.0]), s0, s1)


# ---------------------------------------------------------------------------
# path_profile


def test_profile_linear_dip_in_sigma_units():
    rng = np.random.default_rng(4)
    d = 32
    z0 = rng.standard_normal((4096, d))
    z1 = rng.standard_normal((4096, d))
    prof = path_profile(z0, z1, PathKind.LINEAR)
    assert not prof.offshell_is_absolute
    mid = len(prof.t_grid) // 2
    # tokens sampled from a shell sit E|r - mean| / std = sqrt(2/pi) ~ 0.8
    # sigma units off it on average, so that is the endpoint baseline; the
    # straight chord then dips a further 1-3 sigma below at mid-path
    assert prof.mean_offshell_sigma[0] == pytest.approx(math.sqrt(2 / math.pi), abs=0.1)
    assert prof.mean_offshell_sigma[-1] == pytest.approx(math.sqrt(2 / math.pi), abs=0.1)
    assert 1.5 <= prof.mean_offshell_sigma[mid] <= 3.0
    assert prof.mean_offshell_sigma[mid] > 1.5 * prof.mean_offshell_sigma[0]


def test_profile_slerp_stays_on_shell():
    rng = np.random.default_rng(5)
    radius = math.sqrt(16)
    z0 = sphere.uniform_rows(512, 16, radius, rng)
    z1 = sphere.uniform_rows(512, 16, radius, rng)
    prof = path_profile(z0, z1, PathKind.SLERP)
    # exact-radius endpoints degenerate the sigma band, so the profile reports
    # absolute radius deviation instead
    assert prof.offshell_is_absolute
    assert np.max(prof.mean_offshell_sigma) <= 1e-10
    assert_allclose(prof.mean_norm, radius, rtol=1e-10)
    assert np.max(prof.mean_radial_share) <= 1e-10


def test_profile_shell_mean_norm_linear():
    rng = np.random.default_rng(6)
    z0 = 1.5 * unit_rows(rng.standard_normal((256, 8)))
    z1 = 3.5 * unit_rows(rng.standard_normal((256, 8)))
    prof = path_profile(z0, z1, PathKind.SHELL)
    expect = (1.0 - prof.t_grid) * 1.5 + prof.t_grid * 3.5
    assert_allclose(prof.mean_norm, expect, rtol=1e-10)


def test_profile_respects_custom_grid():
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((32, 4))
    z1 = rng.standard_normal((32, 4))
    grid = np.array([0.0, 0.5, 1.0])
    prof = path_profile(z0, z1, PathKind.LINEAR, t_grid=grid)
    assert prof.t_grid.shape == (3,)
    assert prof.mean_norm.shape == (3,)


def test_profile_order_independent():
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal((1024, 8))
    z1 = rng.standard_normal((1024, 8))
    perm = rng.permutation(1024)
    a = path_profile(z0, z1, PathKind.LINEAR)
    b = path_profile(z0[perm], z1[perm], PathKind.LINEAR)
    assert np.array_equal(a.mean_norm, b.mean_norm)
    assert np.array_equal(a.std_norm, b.std_norm)
    assert np.array_equal(a.mean_offshell_sigma, b.mean_offshell_sigma)
    assert np.array_equal(a.mean_radial_share, b.mean_radial_share)



def _mixed_regime_path_pairs(kind, rng):
    """Endpoint pairs whose directions mix every slerp regime (see
    ``_mixed_regime_pairs`` in test_sphere.py); on one radius for SLERP,
    on per-row radii otherwise."""
    u0, u1 = _mixed_regime_pairs(rng, 6, 16)
    if kind is PathKind.SLERP:
        return 2.5 * u0, 2.5 * u1
    n = u0.shape[0]
    return rng.uniform(1.0, 3.0, (n, 1)) * u0, rng.uniform(1.0, 3.0, (n, 1)) * u1


@pytest.mark.parametrize("kind", list(PathKind))
def test_profile_is_the_fsum_of_fresh_path_rows(kind):
    # the profile evaluates the grid from one set-up into reused buffers; each
    # column must equal, bit for bit, the fsum aggregation of an independent
    # path_rows call at that grid point (repeated and endpoint t included)
    rng = np.random.default_rng(12)
    z0, z1 = _mixed_regime_path_pairs(kind, rng)
    grid = np.array([0.0, 0.0, 0.1, 0.37, 0.5, 0.5, 0.5, 0.93, 1.0, 1.0])
    prof = path_profile(z0, z1, kind, grid)
    s0, s1 = shell_stats(z0), shell_stats(z1)
    n = z0.shape[0]
    for i, t in enumerate(grid):
        z_t, u_t = path_rows(z0, z1, float(t), kind)
        norms = np.linalg.norm(z_t, axis=-1)
        mean = math.fsum(norms) / n
        dev = norms - mean
        d0 = np.abs(norms - s0.mean_radius)
        d1 = np.abs(norms - s1.mean_radius)
        if prof.offshell_is_absolute:
            off = np.minimum(d0, d1)
        else:
            off = np.minimum(d0 / s0.std_radius, d1 / s1.std_radius)
        assert prof.mean_norm[i] == mean
        assert prof.std_norm[i] == math.sqrt(math.fsum(dev * dev) / n)
        assert prof.mean_offshell_sigma[i] == math.fsum(off) / n
        assert prof.mean_radial_share[i] == math.fsum(radial_share_rows(u_t, z_t)) / n


@pytest.mark.parametrize("kind", list(PathKind))
def test_path_results_do_not_alias(kind):
    rng = np.random.default_rng(13)
    z0, z1 = _mixed_regime_path_pairs(kind, rng)
    inputs = (z0.copy(), z1.copy())
    first = path_rows(z0, z1, 0.4, kind)
    kept = [a.copy() for a in first]
    second = path_rows(z0, z1, 0.4, kind)
    assert not any(np.shares_memory(a, b) for a in first for b in (*second, z0, z1))
    for b in second:
        b[...] = np.nan
    assert all(np.array_equal(a, k) for a, k in zip(first, kept))

    grid = np.linspace(0.0, 1.0, 7)
    a = path_profile(z0, z1, kind, grid)
    b = path_profile(z0, z1, kind, grid)
    for name in ("mean_norm", "std_norm", "mean_offshell_sigma", "mean_radial_share"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(z0, inputs[0]) and np.array_equal(z1, inputs[1])


def test_profile_rejects_linear_path_through_zero():
    # the midpoint of a pair of opposite vectors is 0, where the radial
    # share has no reference direction; the profile's own norms say so
    z0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NearZeroNorm):
        path_profile(z0, -z0, PathKind.LINEAR, np.array([0.0, 0.5, 1.0]))


def test_profile_rejects_mismatched_batches():
    with pytest.raises(DimensionMismatch):
        path_profile(np.zeros((4, 3)), np.zeros((5, 3)), PathKind.LINEAR)


def test_profile_empty():
    with pytest.raises(EmptyInput):
        path_profile(np.zeros((0, 3)), np.zeros((0, 3)), PathKind.LINEAR)


# ---------------------------------------------------------------------------
# component swap


def test_swap_with_self_is_identity():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(12)
    pair = component_swap(z, z)
    # norms are computed from identical bits, so the ratio is exactly 1.0
    assert np.array_equal(pair.keep_direction, z)
    assert np.array_equal(pair.keep_radius, z)


def test_swap_collinear_rescales():
    z = np.array([3.0, 4.0])
    pair = component_swap(z, 2.0 * z)
    # anchor direction, substitute norm
    assert_allclose(pair.keep_direction, 2.0 * z, rtol=1e-12)
    # substitute direction (same here), anchor norm
    assert_allclose(pair.keep_radius, z, rtol=1e-12)


def test_swap_components_orthogonal_case():
    a = 2.0 * np.array([1.0, 0.0, 0.0])
    b = 5.0 * np.array([0.0, 1.0, 0.0])
    pair = component_swap(a, b)
    assert_allclose(pair.keep_direction, 5.0 * np.array([1.0, 0.0, 0.0]), rtol=1e-12)
    assert_allclose(pair.keep_radius, 2.0 * np.array([0.0, 1.0, 0.0]), rtol=1e-12)


def test_swap_roundtrip_restores_anchor():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    once = component_swap(a, b)
    # keep_radius carries b's direction at a's norm; swapping it against a
    # again hands a's norm straight back, reproducing a up to rounding
    back = component_swap(once.keep_radius, a)
    assert_allclose(back.keep_radius, a, rtol=1e-9)


def test_swap_rejects_near_zero():
    with pytest.raises(NearZeroNorm):
        component_swap(np.zeros(3), np.ones(3))


def test_swap_rows_matches_scalar():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((16, 6))
    b = rng.standard_normal((16, 6))
    dir_rows, rad_rows = component_swap_rows(a, b)
    for i in range(16):
        pair = component_swap(a[i], b[i])
        assert_allclose(dir_rows[i], pair.keep_direction, rtol=1e-12)
        assert_allclose(rad_rows[i], pair.keep_radius, rtol=1e-12)


def test_swap_rows_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        component_swap_rows(np.zeros((3, 4)), np.zeros((4, 4)))


def test_swap_preserves_token_semantics():
    rng = np.random.default_rng(12)
    a = radial_project(rng.standard_normal(10), 2.0)
    b = radial_project(rng.standard_normal(10), 3.0)
    pair = component_swap(a.values, b.values)
    # keep_direction: anchor direction promoted to the substitute's norm
    assert np.linalg.norm(pair.keep_direction) == pytest.approx(3.0, rel=1e-9)
    assert_allclose(
        pair.keep_direction / np.linalg.norm(pair.keep_direction),
        a.direction,
        rtol=1e-9,
    )
    # keep_radius: substitute direction demoted to the anchor's norm
    assert np.linalg.norm(pair.keep_radius) == pytest.approx(2.0, rel=1e-9)
    assert_allclose(
        pair.keep_radius / np.linalg.norm(pair.keep_radius), b.direction, rtol=1e-9
    )
