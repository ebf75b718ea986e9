"""Geometry on the fixed-radius sphere: projection, slerp, exp map, and the
analytical Gaussian norm statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from slfm import sphere
from slfm.errors import DimensionMismatch, NearZeroNorm, RadiusMismatch
from slfm.sphere import (
    SphereToken,
    TangentVector,
    angle_between,
    exp_map,
    gaussian_mean_radius_approx,
    gaussian_mean_radius_exact,
    gaussian_norm_cv,
    gaussian_norm_stats,
    one_step_deficit,
    one_step_gap_measured,
    radial_project,
    sample_uniform_sphere,
    slerp,
    slerp_velocity,
    tangent_project,
)

# arccos is clamp-limited near +/-1; the reachable extreme angle sits a hair
# beyond sqrt(2 * 1e-6) because of the third-order arccos term, hence the
# 1e-9 slack on the nominal bound.
CLAMP_ANGLE = math.sqrt(2e-6) + 1e-9


def _tok(values, radius=None):
    values = np.asarray(values, dtype=np.float64)
    if radius is None:
        radius = float(np.linalg.norm(values))
    return SphereToken(values, radius)


def _random_pair(rng, d, radius):
    a = radial_project(rng.standard_normal(d), radius)
    b = radial_project(rng.standard_normal(d), radius)
    return a, b


# ---------------------------------------------------------------------------
# radial projection


def test_project_345_triangle():
    out = radial_project(np.array([3.0, 4.0]), 1.0)
    assert_allclose(out.values, [0.6, 0.8], rtol=0, atol=1e-15)


def test_project_idempotent():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(16)
    once = radial_project(z, 3.0)
    twice = radial_project(once.values, 3.0)
    assert_allclose(twice.values, once.values, rtol=1e-6)


def test_project_all_ones_symmetry():
    d = 32
    out = radial_project(np.ones(d), math.sqrt(d))
    assert_allclose(out.values, np.ones(d), rtol=1e-12)
    assert_allclose(np.linalg.norm(out.values), math.sqrt(d), rtol=1e-12)


def test_project_origin_rejected():
    with pytest.raises(NearZeroNorm):
        radial_project(np.zeros(4), 1.0)
    with pytest.raises(NearZeroNorm):
        radial_project(np.full(4, 1e-9), 1.0)


def test_project_direction_preserved():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(8)
    out = radial_project(z, 2.5)
    cos = np.dot(out.values, z) / (np.linalg.norm(out.values) * np.linalg.norm(z))
    assert cos > 1.0 - 1e-12


# ---------------------------------------------------------------------------
# uniform sphere sampling


def test_uniform_draw_on_sphere():
    rng = np.random.default_rng(2)
    for d in (2, 8, 33):
        tok = sample_uniform_sphere(d, 1.5, rng)
        assert abs(np.linalg.norm(tok.values) - 1.5) <= 1e-6 * 1.5


def test_uniform_moments_d8():
    # CLT bound on per-coordinate means and a 5% window on the diagonal
    # second moment R^2/d; seed picked once and fixed.
    d, n = 8, 100_000
    radius = math.sqrt(d)
    rng = np.random.default_rng(0)
    rows = sphere.uniform_rows(n, d, radius, rng)
    per_coord_sigma = (radius / math.sqrt(d)) / math.sqrt(n)
    assert np.max(np.abs(rows.mean(axis=0))) <= 3.0 * per_coord_sigma
    second = rows.T @ rows / n
    assert_allclose(np.diag(second), radius**2 / d, rtol=0.05)
    off = second - np.diag(np.diag(second))
    off_sigma = math.sqrt(radius**4 / (d * (d + 2)) / n)
    assert np.max(np.abs(off)) <= 5.0 * off_sigma


def test_uniform_rows_shape_and_errors():
    rng = np.random.default_rng(3)
    rows = sphere.uniform_rows(5, 3, 2.0, rng)
    assert rows.shape == (5, 3)
    with pytest.raises(ValueError):
        sphere.uniform_rows(1, 1, 1.0, rng)


# ---------------------------------------------------------------------------
# Gaussian norm statistics


def test_gaussian_mean_exact_frozen():
    assert gaussian_mean_radius_exact(16) == pytest.approx(3.938025621887322, abs=1e-12)
    assert gaussian_mean_radius_exact(32) == pytest.approx(5.612839389220723, abs=1e-12)
    assert gaussian_mean_radius_exact(1) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_gaussian_mean_approx_frozen():
    assert gaussian_mean_radius_approx(16) == pytest.approx(3.9370039370059056, abs=1e-12)
    assert gaussian_mean_radius_approx(32) == pytest.approx(5.612486080160912, abs=1e-12)
    for d in (16, 32):
        assert abs(gaussian_mean_radius_exact(d) - gaussian_mean_radius_approx(d)) <= 0.002


def test_gaussian_cv_frozen():
    assert gaussian_norm_cv(16) == pytest.approx(0.18, abs=0.005)
    assert gaussian_norm_cv(32) == pytest.approx(0.13, abs=0.005)
    assert gaussian_norm_cv(64) < gaussian_norm_cv(32) < gaussian_norm_cv(16)


def test_gaussian_mean_monte_carlo():
    rng = np.random.default_rng(4)
    norms = np.linalg.norm(rng.standard_normal((200_000, 16)), axis=1)
    assert norms.mean() == pytest.approx(gaussian_mean_radius_exact(16), rel=2e-3)
    assert norms.std() / norms.mean() == pytest.approx(gaussian_norm_cv(16), rel=2e-2)


def test_gaussian_mean_below_sqrt_d():
    for d in list(range(1, 40)) + [100, 300, 1000]:
        assert gaussian_mean_radius_exact(d) < math.sqrt(d)


def test_gaussian_mean_no_overflow_large_d():
    assert math.isfinite(gaussian_mean_radius_exact(100_000))


def test_approx_error_decays_as_d_minus_three_halves():
    ds = np.arange(4, 65)
    errors = np.array(
        [abs(gaussian_mean_radius_exact(d) - gaussian_mean_radius_approx(d)) for d in ds]
    )
    c = float(np.max(errors * ds**1.5))
    assert c < 0.08
    assert np.all(errors <= c * ds**-1.5 + 1e-15)
    # the scaled error is largest at the small-d end, i.e. genuinely decaying
    assert errors[-1] * 64**1.5 < errors[0] * 4**1.5


def test_gaussian_norm_stats_bundle():
    stats = gaussian_norm_stats(16)
    assert stats.d == 16
    assert stats.mean_radius == gaussian_mean_radius_exact(16)
    assert stats.cv == gaussian_norm_cv(16)


def test_gaussian_invalid_dimension():
    with pytest.raises(ValueError):
        gaussian_mean_radius_exact(0)
    with pytest.raises(ValueError):
        gaussian_mean_radius_approx(0)


# ---------------------------------------------------------------------------
# angles


def test_angle_coincident_clamp_artifact():
    x = _tok([1.0, 0.0, 0.0])
    w = angle_between(x, x)
    assert 0.0 < w <= CLAMP_ANGLE


def test_angle_orthogonal():
    x0 = _tok([1.0, 0.0])
    x1 = _tok([0.0, 1.0])
    assert angle_between(x0, x1) == pytest.approx(math.pi / 2, abs=1e-6)


def test_angle_antipodal_clamp_artifact():
    x = _tok([0.0, 2.0, 0.0])
    y = _tok([0.0, -2.0, 0.0])
    w = angle_between(x, y)
    assert math.pi - CLAMP_ANGLE <= w < math.pi


def test_angle_radius_mismatch():
    with pytest.raises(RadiusMismatch):
        angle_between(_tok([1.0, 0.0]), _tok([0.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        angle_between(_tok([1.0, 0.0]), _tok([0.0, 1.0, 0.0], 1.0))


# ---------------------------------------------------------------------------
# slerp


def test_slerp_endpoints():
    rng = np.random.default_rng(5)
    for d in (3, 16):
        x0, x1 = _random_pair(rng, d, 2.0)
        assert_allclose(slerp(x0, x1, 0.0).values, x0.values, atol=1e-6 * 2.0)
        assert_allclose(slerp(x0, x1, 1.0).values, x1.values, atol=1e-6 * 2.0)


def test_slerp_midpoint_bisector():
    rng = np.random.default_rng(6)
    x0, x1 = _random_pair(rng, 8, 3.0)
    mid = slerp(x0, x1, 0.5)
    bisector = x0.direction + x1.direction
    bisector = 3.0 * bisector / np.linalg.norm(bisector)
    assert_allclose(mid.values, bisector, atol=1e-9)


def test_slerp_third_point_on_coordinate_plane():
    x0 = _tok([1.0, 0.0, 0.0])
    x1 = _tok([0.0, 1.0, 0.0])
    out = slerp(x0, x1, 1.0 / 3.0)
    assert_allclose(out.values, [0.8660254037844387, 0.5, 0.0], atol=1e-12)


def test_slerp_norm_preserved_on_grid():
    rng = np.random.default_rng(7)
    radius = math.sqrt(32)
    x0, x1 = _random_pair(rng, 32, radius)
    for t in np.linspace(0.0, 1.0, 21):
        assert abs(np.linalg.norm(slerp(x0, x1, t).values) - radius) <= 1e-6 * radius


def test_slerp_small_angle_regime():
    # endpoints a few 1e-5 radians apart: lerp + renormalise branch
    u0 = np.array([1.0, 0.0, 0.0])
    u1 = u0 + np.array([0.0, 3e-5, 0.0])
    x0 = radial_project(u0, 1.0)
    x1 = radial_project(u1, 1.0)
    mid = slerp(x0, x1, 0.5)
    assert abs(np.linalg.norm(mid.values) - 1.0) <= 1e-9
    assert mid.values[1] == pytest.approx(1.5e-5, rel=1e-3)


def test_slerp_antipodal_regime_traces_great_circle():
    x0 = _tok([1.0, 0.0, 0.0])
    x1 = _tok([-1.0, 0.0, 0.0])
    quarter = slerp(x0, x1, 0.5)
    # must land orthogonal to x0 on some deterministic great circle
    assert abs(np.dot(quarter.values, x0.values)) <= 1e-6
    assert abs(np.linalg.norm(quarter.values) - 1.0) <= 1e-9
    again = slerp(x0, x1, 0.5)
    assert_allclose(again.values, quarter.values, rtol=0, atol=0)


def test_slerp_t0_t1_antipodal_endpoints_recovered():
    x0 = _tok([0.0, 0.0, 2.0])
    x1 = _tok([0.0, 0.0, -2.0])
    assert_allclose(slerp(x0, x1, 0.0).values, x0.values, atol=1e-9)
    assert_allclose(slerp(x0, x1, 1.0).values, x1.values, atol=1e-9)


# ---------------------------------------------------------------------------
# slerp velocity


def test_slerp_velocity_tangent_and_speed():
    rng = np.random.default_rng(8)
    for d in (3, 16, 32):
        x0, x1 = _random_pair(rng, d, math.sqrt(d))
        w = angle_between(x0, x1)
        for t in (0.0, 0.3, 0.7, 1.0):
            v = slerp_velocity(x0, x1, t)
            z = slerp(x0, x1, t)
            assert abs(np.dot(v.vector, z.values)) <= 1e-5 * z.radius**2 * w
            assert np.linalg.norm(v.vector) == pytest.approx(z.radius * w, rel=1e-5)


def test_slerp_velocity_orthogonal_speed():
    d = 16
    radius = math.sqrt(d)
    x0 = _tok(radius * np.eye(d)[0], radius)
    x1 = _tok(radius * np.eye(d)[1], radius)
    v = slerp_velocity(x0, x1, 0.4)
    assert np.linalg.norm(v.vector) == pytest.approx(radius * math.pi / 2, rel=1e-5)


def test_slerp_velocity_finite_difference_100_triples():
    rng = np.random.default_rng(9)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 24))
        x0, x1 = _random_pair(rng, d, 2.0)
        t = float(rng.uniform(0.05, 0.95))
        v = slerp_velocity(x0, x1, t).vector
        fd = (slerp(x0, x1, t + h).values - slerp(x0, x1, t - h).values) / (2 * h)
        worst = max(worst, np.max(np.abs(fd - v)) / max(np.max(np.abs(v)), 1e-12))
    assert worst <= 1e-4


def test_slerp_velocity_antipodal_matches_fallback_path():
    x0 = _tok([1.0, 0.0, 0.0])
    x1 = _tok([-1.0, 0.0, 0.0])
    h = 1e-6
    for t in (0.25, 0.5):
        v = slerp_velocity(x0, x1, t).vector
        fd = (slerp(x0, x1, t + h).values - slerp(x0, x1, t - h).values) / (2 * h)
        assert_allclose(v, fd, atol=1e-7)


def _mixed_regime_pairs(rng, d, per_regime):
    """Unit pairs whose angles fall in each slerp regime: below
    SMALL_ANGLE, within ANTIPODAL_MARGIN of pi, and in between, shuffled
    so that neighbouring rows take different branches.  The standard
    regime is drawn twice: generic angles, and angles between SMALL_ANGLE
    and the ~1.4e-3 floor that COS_CLAMP puts on clamped arccos angles."""
    n = 4 * per_regime
    u0 = rng.standard_normal((n, d))
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
    ortho = rng.standard_normal((n, d))
    ortho -= np.sum(ortho * u0, axis=1, keepdims=True) * u0
    ortho /= np.linalg.norm(ortho, axis=1, keepdims=True)
    angles = np.concatenate([
        rng.uniform(1e-5, 5e-5, per_regime),
        rng.uniform(math.pi - 0.09, math.pi - 0.02, per_regime),
        rng.uniform(0.3, 2.5, per_regime),
        rng.uniform(2e-4, 1.2e-3, per_regime),
    ])
    rng.shuffle(angles)
    u1 = np.cos(angles)[:, None] * u0 + np.sin(angles)[:, None] * ortho
    return u0, u1


def test_geodesic_rows_mixed_regimes_in_one_call():
    rng = np.random.default_rng(21)
    per_regime = 12
    u0, u1 = _mixed_regime_pairs(rng, 7, per_regime)
    dots = np.sum(u0 * u1, axis=1)
    small = dots > math.cos(sphere.SMALL_ANGLE)
    anti = dots < math.cos(math.pi - sphere.ANTIPODAL_MARGIN)
    assert small.sum() == anti.sum() == per_regime
    t = rng.uniform(0.05, 0.95, u0.shape[0])
    pos, vel = sphere.geodesic_rows(u0, u1, t)

    # the masks select per row: a stacked call agrees with one-row calls
    for i in range(u0.shape[0]):
        pos_i, vel_i = sphere.geodesic_rows(u0[i], u1[i], t[i])
        assert_allclose(pos[i], pos_i, rtol=0, atol=1e-14)
        assert_allclose(vel[i], vel_i, rtol=0, atol=1e-13)

    # velocity is the time derivative of the position in every regime,
    # small-angle rows included (speed ~1e-5 there)
    h = 1e-4
    fd = (sphere.geodesic_rows(u0, u1, t + h)[0] - sphere.geodesic_rows(u0, u1, t - h)[0]) / (2 * h)
    speed = np.linalg.norm(vel, axis=1)
    assert np.max(np.linalg.norm(fd - vel, axis=1) / speed) <= 1e-6

    # and tangent to the unit position without any projection
    assert np.max(np.abs(np.sum(pos * vel, axis=1)) / speed) <= 1e-12


# ---------------------------------------------------------------------------
# tangent projection


def test_tangent_project_kills_radial():
    z = _tok([0.0, 0.0, 3.0])
    out = tangent_project(z.values.copy(), z)
    assert_allclose(out.vector, np.zeros(3), atol=1e-15)


def test_tangent_project_idempotent():
    rng = np.random.default_rng(10)
    z = radial_project(rng.standard_normal(8), 2.0)
    v = rng.standard_normal(8)
    once = tangent_project(v, z).vector
    twice = tangent_project(once, z).vector
    assert_allclose(twice, once, atol=1e-6 * np.linalg.norm(once))


def test_tangent_project_linear_decomposition():
    z = _tok([2.0, 0.0, 0.0])
    w = np.array([0.0, 1.3, -0.4])
    out = tangent_project(z.values + w, z)
    assert_allclose(out.vector, w, atol=1e-12)


def test_tangent_vector_certificate_rejects_radial():
    z = _tok([1.0, 0.0])
    with pytest.raises(ValueError):
        TangentVector(np.array([1.0, 0.0]), z)


# ---------------------------------------------------------------------------
# exponential map


def test_exp_map_zero_velocity_exact():
    p = _tok([0.0, 2.0, 0.0])
    v = TangentVector(np.zeros(3), p)
    out = exp_map(p, v)
    assert np.array_equal(out.values, p.values)


def test_exp_map_half_circle_antipode():
    p = _tok([1.5, 0.0, 0.0])
    v = TangentVector(np.array([0.0, math.pi * 1.5, 0.0]), p)
    out = exp_map(p, v)
    assert_allclose(out.values, -p.values, atol=1e-5 * 1.5)


def test_exp_map_exact_along_slerp():
    rng = np.random.default_rng(11)
    for d in (3, 16):
        radius = math.sqrt(d)
        x0, x1 = _random_pair(rng, d, radius)
        for h in (0.05, 0.1, 0.2):
            for t in np.linspace(0.0, 0.8, 9):
                z_t = slerp(x0, x1, t)
                v = slerp_velocity(x0, x1, t)
                stepped = exp_map(z_t, TangentVector(h * v.vector, z_t))
                target = slerp(x0, x1, t + h)
                assert np.linalg.norm(stepped.values - target.values) <= 1e-5 * radius


def test_exp_map_certifies_velocity_at_p():
    # a velocity certified at another base point must be tangent at p too
    q = _tok([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not tangent"):
        exp_map(_tok([0.0, 1.0, 0.0]), TangentVector(np.array([0.0, 0.5, 0.0]), q))
    with pytest.raises(ValueError, match="dimensions differ"):
        exp_map(_tok([0.0, 1.0]), TangentVector(np.array([0.0, 0.5, 0.0]), q))


def test_exp_map_stays_on_sphere():
    rng = np.random.default_rng(12)
    p = radial_project(rng.standard_normal(16), 4.0)
    v = tangent_project(rng.standard_normal(16), p)
    out = exp_map(p, v)
    assert abs(np.linalg.norm(out.values) - 4.0) <= 1e-6 * 4.0


def test_projected_euler_advances_arctan():
    radius = 1.0
    for h, w in ((0.1, 1.0), (0.3, 0.7), (0.5, 2.0)):
        p = np.array([radius, 0.0, 0.0])
        v = np.array([0.0, radius * w, 0.0])
        landed = sphere.project_rows(p + h * v, radius)
        advanced = math.atan2(landed[1], landed[0])
        assert advanced == pytest.approx(math.atan(h * w), abs=1e-5)


# ---------------------------------------------------------------------------
# one-step deficit


def test_deficit_frozen_value():
    assert one_step_deficit(0.1, 1.0, 1.0) == pytest.approx(3.313475088379675e-4, rel=1e-12)
    # cubic approximation (hw)^3 / 3 agrees to about 1%
    assert one_step_deficit(0.1, 1.0, 1.0) == pytest.approx(0.1**3 / 3.0, rel=0.01)


def test_deficit_limit_and_series_branch():
    assert one_step_deficit(1e-6, 1.0) < 1e-12
    # series and direct evaluation agree near the branch point
    x = 1e-3
    series = one_step_deficit(x / 2.0, 2.0 * 0.9999e0)  # just below the 1e-3 cut
    direct = (x * 0.9999) - math.atan(x * 0.9999)
    assert series == pytest.approx(direct, rel=1e-9)


def test_deficit_scales_with_radius():
    assert one_step_deficit(0.1, 1.0, 5.0) == pytest.approx(5 * one_step_deficit(0.1, 1.0, 1.0), rel=1e-12)


def test_deficit_nonnegative_grid():
    for h in np.linspace(0.01, 0.5, 10):
        for w in np.linspace(0.1, 2.5, 10):
            assert one_step_deficit(h, w) >= 0.0


def test_deficit_measured_matches_analytical():
    for h in (0.01, 0.1, 0.3, 0.5):
        for w in (0.1, 1.0, 2.5):
            a = one_step_deficit(h, w, 1.0)
            m = one_step_gap_measured(h, w, 1.0)
            assert m == pytest.approx(a, rel=1e-4)


def test_deficit_rejects_bad_domain():
    with pytest.raises(ValueError):
        one_step_deficit(0.0, 1.0)
    with pytest.raises(ValueError):
        one_step_deficit(0.1, 0.0)
    with pytest.raises(ValueError):
        one_step_deficit(0.1, math.pi)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fn", [one_step_deficit, one_step_gap_measured])
def test_deficit_rejects_non_finite_step(fn, h):
    # NaN slips through h <= 0, so finiteness is part of the one domain check
    with pytest.raises(ValueError, match="finite and positive"):
        fn(h, 1.0)


@pytest.mark.parametrize(
    ("h", "omega", "radius"),
    [(1e308, 1.0, 1.0), (1e308, 3.0, 1.0), (1e200, 1.0, 1.0), (1e300, 1.0, 1e10)],
)
def test_deficit_measured_rejects_overflowing_step(h, omega, radius):
    # h R w, or its norm, overflows: the exp-map landing point is not finite
    with pytest.raises(ValueError, match="not finite"):
        one_step_gap_measured(h, omega, radius)


# ---------------------------------------------------------------------------
# certificates


def test_sphere_token_certificate():
    with pytest.raises(ValueError):
        SphereToken(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ValueError):
        SphereToken(np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        SphereToken(np.array([np.nan, 1.0]), 1.0)


def test_gaussian_stats_invariants():
    with pytest.raises(ValueError):
        sphere.GaussianNormStats(4, 2.5, 0.1)  # mean above sqrt(d)
    with pytest.raises(ValueError):
        sphere.GaussianNormStats(4, 1.8, 0.0)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_slerp_stays_on_sphere(d, t, seed):
    rng = np.random.default_rng(seed)
    x0, x1 = _random_pair(rng, d, 2.0)
    out = slerp(x0, x1, t)
    assert abs(np.linalg.norm(out.values) - 2.0) <= 1e-6 * 2.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_tangent_projection_orthogonal(d, seed):
    rng = np.random.default_rng(seed)
    z = radial_project(rng.standard_normal(d), 1.7)
    v = rng.standard_normal(d)
    out = tangent_project(v, z)
    assert abs(np.dot(out.vector, z.values)) <= 1e-10 * max(np.linalg.norm(v), 1.0)


@pytest.mark.parametrize(("h", "omega"), [(2.0, 3.0), (1e150, 1.0), (4.0, 1.2)])
def test_deficit_measured_rejects_a_deficit_past_pi_r(h, omega):
    # the landing points' shorter arc is at most pi R; a deficit of pi R or
    # more (h w - arctan(h w) >= pi) has no measurement to compare with
    assert h * omega - math.atan(h * omega) >= math.pi
    with pytest.raises(ValueError, match="pi R"):
        one_step_gap_measured(h, omega, 2.0)


def test_deficit_measured_matches_just_below_pi_r():
    # x - arctan(x) = 3.1 just below pi: the arc still measures the deficit
    x = 4.45
    assert 3.0 < x - math.atan(x) < math.pi
    assert one_step_gap_measured(x / 2.0, 2.0, 1.5) == pytest.approx(
        one_step_deficit(x / 2.0, 2.0, 1.5), rel=1e-12
    )
