"""Geometry on the fixed-radius sphere: projection, slerp, exp map, and the
analytical Gaussian norm statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from slfm import paths, sphere
from slfm.errors import DimensionMismatch, NearZeroNorm, RadiusMismatch
from slfm.paths import PathKind
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
    unit_rows,
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


@pytest.mark.parametrize("radius", ["2", 1.3e154, 1.5e-154, 7])
def test_token_radius_accepts_radii_with_a_normal_finite_square(radius):
    assert sphere.token_radius(radius) == float(radius)


@pytest.mark.parametrize(
    "radius", [1.4e154, 1e-155, math.nan, math.inf, 0.0, -1.0, "abc", "nan", "1e200"]
)
def test_token_radius_rejects_the_rest(radius):
    with pytest.raises(ValueError):
        sphere.token_radius(radius)
    # the scalar API's certified points follow the same rule
    with pytest.raises(ValueError):
        SphereToken(np.array([1.0, 0.0]), radius)


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



def test_onto_sphere_draws_a_row_below_the_floor_again_after_the_others():
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    eps = rng.standard_normal((4, 3))
    eps[2] = 0.0
    want = ref.standard_normal((4, 3))
    want[2] = ref.standard_normal((1, 3))
    want *= (2.5 / np.linalg.norm(want, axis=-1))[:, None]
    out = sphere._onto_sphere(eps, 2.5, rng)
    assert out is eps and np.array_equal(out, want)
    assert rng.bit_generator.state == ref.bit_generator.state


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


# (d, mean, cv) from 160-digit evaluations of sqrt(2) Gamma((d+1)/2) / Gamma(d/2)
# and sqrt(d - m^2) / m
GAUSSIAN_NORM_REFERENCE = [
    (1, 0.79788456080286536, 0.75551063976286702),
    (2, 1.2533141373155003, 0.52272320087706332),
    (16, 3.9380256218873262, 0.17810815278982915),
    (63, 7.9058206223109121, 0.089262252235768265),
    (64, 7.9688122219986286, 0.088559454128849775),
    (1000, 31.61487189698008, 0.02236347328705958),
    (8818, 93.901544258741314, 0.0075301930602042038),
    (10**5, 316.22697544841112, 0.0022360707725690392),
    (10**7, 3162.2775811114388, 0.00022360680054506378),
    (10**9, 31622.776593778099, 2.2360679777792982e-5),
    (10**13, 3162277.6601683003, 2.2360679774998176e-7),
    (10**20, 10000000000.0, 7.0710678118654752e-11),
    (10**30, 1000000000000000.0, 7.0710678118654752e-16),
]


@pytest.mark.parametrize("d, mean, cv", GAUSSIAN_NORM_REFERENCE)
def test_gaussian_norm_statistics_match_high_precision(d, mean, cv):
    # a log-gamma difference and d - m^2 by cancellation lose every digit
    # that matters here by d = 1e9
    assert gaussian_mean_radius_exact(d) == pytest.approx(mean, rel=1e-10, abs=0)
    assert gaussian_norm_cv(d) == pytest.approx(cv, rel=1e-10, abs=0)


@pytest.mark.parametrize(
    "d, mean",
    [
        (3, 1.5957691216057307118),
        (61, 7.7783073864671876688),
        (63, 7.9058206223109120568),
        (64, 7.9688122219986286202),
        (65, 8.0313098385380693911),
        (13335, 115.47510558286655981),
    ],
)
def test_gaussian_mean_to_rounding_level(d, mean):
    # 160-digit references on both sides of the switch from the gamma-ratio
    # recurrence to the series at d = 64, and where a Pochhammer symbol
    # in float64 is 9e-12 off
    assert gaussian_mean_radius_exact(d) == pytest.approx(mean, rel=1e-14, abs=0)


@pytest.mark.parametrize("d", [10**15, 10**20, 10**30])
def test_gaussian_norm_stats_where_the_mean_rounds_to_sqrt_d(d):
    stats = gaussian_norm_stats(d)
    assert stats.mean_radius <= math.sqrt(d)
    assert stats.cv == gaussian_norm_cv(d)


@pytest.mark.parametrize("d", [2**1024, 10**400], ids=["2**1024", "10**400"])
def test_gaussian_dimension_past_the_float_range(d):
    for f in (gaussian_mean_radius_exact, gaussian_mean_radius_approx, gaussian_norm_cv):
        with pytest.raises(ValueError, match="float range"):
            f(d)


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


def _pairs_at_angles(rng, d, cos_w, sin_w):
    """Uniform unit rows u0 and the rows cos(w) u0 + sin(w) e at the given
    angles w, with e a random unit tangent at u0; the cosines and sines
    are passed in, so that pairs near pi need no cos(pi - g) rounding."""
    u0 = rng.standard_normal((cos_w.size, d))
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
    e = rng.standard_normal(u0.shape)
    e -= np.sum(e * u0, axis=1, keepdims=True) * u0
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return u0, cos_w[:, None] * u0 + sin_w[:, None] * e


def _near_antipodal_pairs(rng, d=3, n=40):
    """Unit pairs pi - g apart, g spread from 1e-6 to 0.099: the band
    within ANTIPODAL_MARGIN of pi."""
    gap = np.geomspace(1e-6, 0.099, n)
    return _pairs_at_angles(rng, d, -np.cos(gap), np.sin(gap))


def test_geodesic_rows_near_antipodal_end_on_u1():
    u0, u1 = _near_antipodal_pairs(np.random.default_rng(71))
    pos, vel = sphere.geodesic_rows(u0, u1, 1.0)
    assert np.max(np.linalg.norm(pos - u1, axis=1)) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(vel, axis=1) - np.pi)) <= 0.1
    # the velocity is tangent to rounding, however close to pi
    assert np.max(np.abs(np.sum(pos * vel, axis=1))) <= 1e-14


def test_geodesic_rows_equal_rows_stay_put():
    u = unit_rows(np.random.default_rng(72).standard_normal((5, 4)))
    for t in (0.0, 0.3, 1.0, 1.7):
        pos, vel = sphere.geodesic_rows(u, u.copy(), t)
        assert_allclose(pos, u, rtol=0, atol=0)
        assert np.all(vel == 0.0)



def test_geodesic_rows_broadcast_one_start_row_against_a_stack():
    rng = np.random.default_rng(74)
    u0 = unit_rows(rng.standard_normal(4))
    u1 = unit_rows(rng.standard_normal((6, 4)))
    t = rng.random(6)
    pos, vel = sphere.geodesic_rows(u0, u1, t)
    assert pos.shape == vel.shape == (6, 4)
    for i in range(6):
        one_pos, one_vel = sphere.geodesic_rows(u0, u1[i], t[i])
        assert np.array_equal(pos[i], one_pos) and np.array_equal(vel[i], one_vel)


def test_geodesic_rows_broadcast_keep_equal_rows_at_the_start():
    # times of shape (3, 1) against a (5, 4) stack whose row 2 is u0: the
    # equal row's degenerate tangent is found in the broadcast pairs
    rng = np.random.default_rng(75)
    u0 = unit_rows(rng.standard_normal(4))
    u1 = unit_rows(rng.standard_normal((5, 4)))
    u1[2] = u0
    pos, vel = sphere.geodesic_rows(u0, u1, np.array([[0.0], [0.4], [1.0]]))
    assert pos.shape == vel.shape == (3, 5, 4)
    assert np.array_equal(pos[:, 2], np.broadcast_to(u0, (3, 4))) and np.all(vel[:, 2] == 0.0)
    for j in (0, 1, 3, 4):
        assert_allclose(pos[2, j], u1[j], rtol=0, atol=1e-15)


def test_geodesic_rows_exact_antipodes_follow_the_orthonormal_circle():
    u = unit_rows(np.random.default_rng(73).standard_normal((5, 4)))
    n = sphere.orthonormal_rows(u)
    for t in (0.25, 0.5, 1.0):
        pos, vel = sphere.geodesic_rows(u, -u, t)
        again = sphere.geodesic_rows(u, -u, t)
        assert_allclose(again[0], pos, rtol=0, atol=0)
        assert_allclose(pos, np.cos(np.pi * t) * u + np.sin(np.pi * t) * n, rtol=0, atol=1e-15)
        assert_allclose(np.linalg.norm(vel, axis=1), np.pi, rtol=1e-15)
        assert np.max(np.abs(np.sum(pos * vel, axis=1))) <= 1e-14
    assert_allclose(sphere.geodesic_rows(u, -u, 1.0)[0], -u, rtol=0, atol=1e-15)


def _geodesic_longdouble(u0, u1, t):
    """The closed form of :func:`sphere.geodesic_rows` in long double on
    the same float rows: the angle 2 atan2(|u1 - u0|, |u1 + u0|), the
    shorter of u1 - u0 and u1 + u0 less its u0 part, normalised, as n,
    then cos/sin of w t."""
    u0 = u0.astype(np.longdouble)
    u1 = u1.astype(np.longdouble)
    chord = u1 - u0
    plus = u1 + u0
    chord_sq = np.sum(chord * chord, axis=1)
    plus_sq = np.sum(plus * plus, axis=1)
    w = 2 * np.arctan2(np.sqrt(chord_sq), np.sqrt(plus_sq))
    n = np.where((plus_sq < chord_sq)[:, None], plus, chord)
    n -= np.sum(n * u0, axis=1, keepdims=True) * u0
    n /= np.sqrt(np.sum(n * n, axis=1, keepdims=True))
    a = (np.asarray(t, dtype=np.longdouble) * w)[:, None]
    pos = np.cos(a) * u0 + np.sin(a) * n
    vel = w[:, None] * (np.cos(a) * n - np.sin(a) * u0)
    return pos, vel


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than float64 here"
)
@pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
def test_geodesic_rows_match_a_long_double_reference(t):
    # angles from 1e-5 (below SMALL_ANGLE) to pi - 0.09, then pi - 0.099
    # to pi - 1e-6 (within ANTIPODAL_MARGIN of pi)
    rng = np.random.default_rng(74)
    w = np.concatenate([np.geomspace(1e-5, 1.0, 60), np.linspace(1.0, math.pi - 0.09, 40)])
    near = _pairs_at_angles(rng, 7, np.cos(w), np.sin(w))
    for u0, u1 in (near, _near_antipodal_pairs(rng, d=7, n=40)):
        pos, vel = sphere.geodesic_rows(u0, u1, t)
        ref_pos, ref_vel = _geodesic_longdouble(u0, u1, t)
        assert np.max(np.abs(pos - ref_pos)) <= 2e-14
        ref_speed = np.sqrt(np.sum(ref_vel * ref_vel, axis=1))
        assert np.max(np.sqrt(np.sum((vel - ref_vel) ** 2, axis=1)) / ref_speed) <= 2e-14
        speed = np.linalg.norm(vel, axis=1)
        assert np.max(np.abs(np.sum(pos * vel, axis=1)) / speed) <= 1e-14
        if t == 1.0:
            assert np.max(np.linalg.norm(pos - u1, axis=1)) <= 1e-14


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than float64 here"
)
@pytest.mark.parametrize("kind", [PathKind.SHELL, PathKind.SLERP])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
def test_path_rows_match_a_long_double_reference(kind, t):
    # the twin of the unit kernel's test above, on the same angles: shell
    # rows with per-row radii r0 != r1, and slerp rows on one radius, whose
    # radius enters the rows' coefficients rather than rescaling them
    rng = np.random.default_rng(76)
    w = np.concatenate([np.geomspace(1e-5, 1.0, 60), np.linspace(1.0, math.pi - 0.09, 40)])
    near = _pairs_at_angles(rng, 7, np.cos(w), np.sin(w))
    for u0, u1 in (near, _near_antipodal_pairs(rng, d=7, n=40)):
        n = u0.shape[0]
        if kind is PathKind.SHELL:
            r0, r1, radius = rng.uniform(0.5, 4.0, n), rng.uniform(0.05, 3.0, n), None
        else:
            r0 = r1 = np.full(n, 2.5)
            radius = 2.5
        z0, z1 = r0[:, None] * u0, r1[:, None] * u1
        z_t, u_t = paths.path_rows(z0, z1, t, kind, radius=radius)
        # the reference takes the unit rows and norms that path_rows takes:
        # near pi a rounding of u0 would turn the plane of the circle
        unit_pos, unit_vel = _geodesic_longdouble(unit_rows(z0), unit_rows(z1), t)
        n0, n1 = (np.linalg.norm(z, axis=1).astype(np.longdouble) for z in (z0, z1))
        if kind is PathKind.SHELL:
            r_t, rate = (1 - t) * n0 + t * n1, n1 - n0
        else:
            r_t, rate = np.full(n, radius, dtype=np.longdouble), np.zeros(n, dtype=np.longdouble)
        ref_z = r_t[:, None] * unit_pos
        ref_u = rate[:, None] * unit_pos + r_t[:, None] * unit_vel
        assert np.max(np.sqrt(np.sum((z_t - ref_z) ** 2, axis=1)) / r_t) <= 2e-14
        ref_speed = np.sqrt(np.sum(ref_u * ref_u, axis=1))
        assert np.max(np.sqrt(np.sum((u_t - ref_u) ** 2, axis=1)) / ref_speed) <= 2e-14
        if kind is PathKind.SLERP:
            cos_zu = np.sum(z_t * u_t, axis=1) / (np.linalg.norm(z_t, axis=1) * np.linalg.norm(u_t, axis=1))
            assert np.max(np.abs(cos_zu)) <= 1e-14
        if t == 1.0:
            assert np.max(np.linalg.norm(z_t - z1, axis=1) / r1) <= 1e-14


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
    "radius", [-2.0, 0.0, math.nan, math.inf, 1e200], ids=["-2", "0", "nan", "inf", "1e200"]
)
@pytest.mark.parametrize("fn", [one_step_deficit, one_step_gap_measured])
def test_deficit_rejects_a_radius_token_radius_rejects(fn, radius):
    # the one radius rule of ``deficit --radius``: R > 0 with a normal,
    # finite square; -2 gave a negative deficit and NaN a NaN one
    with pytest.raises(ValueError, match="radius must be positive"):
        fn(0.1, 1.0, radius)


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


def test_project_rows_with_overflowing_squared_norm():
    # 1e200 squares past float max; such a row is scaled by a power of two
    # (exact) before its norm is taken, and every other row keeps its bits
    rows = np.array([[1e200, 1e200], [3.0, -4.0], [1.7e308, -1.7e308], [1e200, 1e-200]])
    with np.errstate(over="ignore"):
        out = sphere.project_rows(rows, 2.0)
        single = sphere.project_rows(rows[0], 2.0)
    assert_allclose(out[[0, 2]], [[math.sqrt(2.0), math.sqrt(2.0)], [math.sqrt(2.0), -math.sqrt(2.0)]],
                    rtol=1e-15)
    assert np.array_equal(out[3], [2.0, 0.0])
    assert np.array_equal(out[1], rows[1] / np.linalg.norm(rows[1]) * 2.0)
    assert np.array_equal(single, out[0])
    for scale in (2.0 ** -500, 2.0 ** -600):  # no overflow there; same directions
        assert np.array_equal(out[0], sphere.project_rows(rows[0] * scale, 2.0))


def test_project_rows_does_not_warn_of_the_overflow_it_handles():
    # RuntimeWarnings are errors in this suite: none may leave the norm
    out = sphere.project_rows([[1e200, 1e200], [3.0, -4.0]], 2.0)
    assert_allclose(out[0], [math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-15)
    assert np.array_equal(out[1], [1.2, -1.6])


def test_project_rows_non_finite_rows_stay_non_finite():
    with np.errstate(invalid="ignore"):
        out = sphere.project_rows([[np.inf, 1.0], [np.nan, 1.0], [1.0, 0.0]], 1.0)
    assert not np.any(np.isfinite(out[:2]).all(axis=-1))
    assert np.array_equal(out[2], [1.0, 0.0])


# ---------------------------------------------------------------------------
# kernels that write into caller-owned buffers


def _dirty(shape):
    """A buffer of ``shape`` full of NaN, so a kernel that reads one of its
    buffers before writing it shows."""
    return np.full(shape, np.nan)


@pytest.mark.parametrize("shape", [(5,), (7, 3), (2, 4, 9), (3, 40)], ids=["vector", "d3", "stack-d9", "d40"])
def test_norms_into_gives_the_bits_of_linalg_norm(shape):
    x = 1e3 * np.random.default_rng(40).standard_normal(shape)
    out = _dirty(shape[:-1])
    got = sphere._norms_into(x, _dirty(shape), out)
    assert np.shares_memory(got, out)
    assert np.array_equal(got, np.linalg.norm(x, axis=-1))
    # the squares may overwrite the rows themselves
    y = x.copy()
    assert np.array_equal(sphere._norms_into(y, y, _dirty(shape[:-1])), np.linalg.norm(x, axis=-1))


def _edge_rows(rng, n, d):
    """``n`` rows of ``d`` values: Gaussians across magnitudes from 1e-300
    to 1e300, with signed zeros, +-inf, NaN and values near the float range
    mixed in, and whole rows of -0.0 and of +0.0."""
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 301, (n, d))
    odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308, 5e-324, -5e-324])
    pick = rng.random((n, d)) < 0.2
    x[pick] = rng.choice(odd, size=int(pick.sum()))
    x[0], x[1] = -0.0, 0.0
    return x


@pytest.mark.parametrize("d", range(21))
def test_row_sums_give_the_bits_of_add_reduce(d):
    # below 8 values the sums are whole-column adds, from 8 on add.reduce;
    # either way every value, sign of zero and NaN is numpy's own
    rows = _edge_rows(np.random.default_rng(46 + d), 400, d)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.add.reduce(rows, axis=-1)
        out = _dirty(400)
        got = sphere._row_sums_into(rows, out)
        assert got is out and _same_bits(got, want)
        # one row of shape (d,) into a 0-d array
        assert _same_bits(sphere._row_sums_into(rows[2], _dirty(())), want[2])
        # the sums of column-major rows keep numpy's bits, which below 8
        # values do not depend on the layout
        by_columns = np.array(rows, order="F")
        got = sphere._row_sums_into(by_columns, _dirty(400))
        assert _same_bits(got, np.add.reduce(by_columns, axis=-1))
        if d < 8:
            assert _same_bits(got, want)


def _expmap_formula(p, v, radius):
    """expmap_rows as a fresh-temporary formula."""
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(nv == 0.0, 1.0, nv)
    return np.cos(nv / radius) * p + (radius * np.sin(nv / radius) / safe) * v


@pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 9, 16, 40])
def test_expmap_kernel_gives_the_bits_of_the_formula(d):
    rng = np.random.default_rng(48)
    radius = 2.5
    p = sphere.uniform_rows(50, d, radius, rng)
    v = sphere.tangent_rows(rng.standard_normal((50, d)) * 10.0 ** rng.uniform(-8, 3, (50, 1)), p)
    v[3] = 0.0  # a zero step stays at p
    want = _expmap_formula(p, v, radius)
    assert _same_bits(sphere.expmap_rows(p, v, radius), want)
    assert np.array_equal(sphere.expmap_rows(p, v, radius)[3], p[3])
    # the result may overwrite the base rows or the steps
    sums = [_dirty(50) for _ in range(3)]
    for which in ("p", "v"):
        base, step = p.copy(), v.copy()
        out = base if which == "p" else step
        got = sphere._expmap_into(base, step, radius, _dirty((50, d)), *sums, out)
        assert np.shares_memory(got, out) and _same_bits(got, want)
    # one row, and one row against a stack
    assert _same_bits(sphere.expmap_rows(p[5], v[5], radius), want[5])
    assert _same_bits(sphere.expmap_rows(p, v[5], radius), _expmap_formula(p, v[5], radius))


# an overflowing squared norm, then rows the plain formula x / ||x|| covers
KERNEL_ROWS = np.array([[1e200, 1e200], [3.0, -4.0], [0.1, 7.0], [-2.5, 1e-3]])


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_project_kernel_equals_the_public_functions(radius):
    out = _dirty((6, 2))[1:5]  # a block of a larger buffer
    got = sphere._project_into(KERNEL_ROWS, radius, _dirty(4), out)
    assert np.shares_memory(got, out)
    assert np.array_equal(got, sphere.project_rows(KERNEL_ROWS, radius))
    plain = KERNEL_ROWS[1:] / np.linalg.norm(KERNEL_ROWS[1:], axis=-1, keepdims=True)
    assert np.array_equal(got[1:], plain * radius)
    if radius == 1.0:
        assert np.array_equal(got, sphere.unit_rows(KERNEL_ROWS))
        assert np.array_equal(got[1:], plain)
    assert_allclose(got[0], radius * np.sqrt([0.5, 0.5]), rtol=1e-15)


def test_project_kernel_rejects_a_zero_row():
    rows = np.array([[3.0, 4.0], [0.0, 0.0]])
    with pytest.raises(NearZeroNorm):
        sphere._project_into(rows, 2.0, _dirty(2), _dirty((2, 2)))
    with pytest.raises(NearZeroNorm):
        sphere.project_rows(rows, 2.0)


def _plane_items(rng, shape):
    """f32 items of ``shape`` (k, d, h, w) whose coordinates are Gaussian,
    zero, tiny (f32 normal and subnormal) or the f32 maximum, each token
    holding one coordinate of magnitude at least 1/2."""
    k, d, h, w = shape
    scale = rng.choice([0.0, 1e-30, 1e-42, 1.0, 1.0, 1.0], size=shape)
    items = (scale * rng.standard_normal(shape)).astype(np.float32)
    items[:, d // 2] = rng.choice([-1.0, 1.0], size=(k, h, w)) * rng.uniform(0.5, 2.0, (k, h, w))
    items[0, 0, 0, 0] = np.finfo(np.float32).max
    items[-1, -1, -1, -1] = -np.finfo(np.float32).max
    return items


def _plane_rows(items):
    """The C-ordered float64 token rows (k*h*w, d) of f32 items (k, d, h,
    w), as a copy into a row buffer lays them out; numpy sums the rows of
    another layout in another order."""
    k, d, h, w = items.shape
    return np.ascontiguousarray(items.astype(np.float64).transpose(0, 2, 3, 1).reshape(k * h * w, d))


def _plane_norms(items, radius=None, spare=0):
    """The plane kernel's norms of ``items`` through NaN-filled buffers,
    with a slab sized for ``spare`` more items than it is given."""
    k, d, h, w = items.shape
    slab = sphere._plane_slab((k + spare, d, h, w))
    slab.fill(np.nan)
    out = _dirty((k, h, w))
    got = sphere._plane_norms_into(items, out, slab, radius)
    assert np.shares_memory(got, out)
    return got.reshape(-1)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_plane_kernel_gives_the_bits_of_linalg_norm_at_every_d():
    # d = 1..300 crosses every branch of numpy's pairwise sum: in order
    # below 8 (7), eight running sums up to 128 (8, 9, 127, 128), and the
    # halves split at a multiple of 8 above it (129, 136, 256, 257)
    rng = np.random.default_rng(43)
    for d in range(0, 301):
        items = _plane_items(rng, (3, d, 2, 5)) if d else np.zeros((3, 0, 2, 5), np.float32)
        rows = _plane_rows(items)
        assert _same_bits(_plane_norms(items, spare=d % 3), np.linalg.norm(rows, axis=-1)), d
        if d:
            radius = math.sqrt(d)
            want = np.linalg.norm(sphere.project_rows(rows, radius), axis=-1)
            assert _same_bits(_plane_norms(items, radius), want), d


@pytest.mark.parametrize(
    "shape", [(2, 32, 64, 64), (1, 129, 16, 16), (4096, 4, 1, 1), (3, 200, 1, 7)],
    ids=["benchmark-block", "d129", "samples", "d200"],
)
def test_plane_kernel_gives_the_bits_of_linalg_norm_on_whole_blocks(shape):
    items = _plane_items(np.random.default_rng(44), shape)
    rows = _plane_rows(items)
    assert _same_bits(_plane_norms(items), np.linalg.norm(rows, axis=-1))
    want = np.linalg.norm(sphere.project_rows(rows, 2.5), axis=-1)
    assert _same_bits(_plane_norms(items, 2.5), want)


def test_plane_kernel_projection_rejects_a_zero_token():
    items = _plane_items(np.random.default_rng(45), (2, 9, 1, 3))
    items[1, :, 0, 2] = 0.0
    assert _plane_norms(items)[5] == 0.0
    with pytest.raises(NearZeroNorm):
        _plane_norms(items, 2.0)


def _tangent_formula(v, z):
    """tangent_rows as a fresh-temporary formula: v - (<v, z> / <z, z>) z."""
    return v - np.sum(v * z, axis=-1, keepdims=True) / np.sum(z * z, axis=-1, keepdims=True) * z


@pytest.mark.parametrize("shape", [(5,), (7, 3), (33, 9), (6, 40)], ids=["1-d", "d3", "d9", "d40"])
def test_tangent_kernel_gives_the_bits_of_the_formula(shape):
    rng = np.random.default_rng(41)
    z = 1e3 * rng.standard_normal(shape)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    want = _tangent_formula(v, z)
    sums = shape[:-1]
    out = _dirty(shape)
    got = sphere._tangent_into(v, z, _dirty(shape), _dirty(sums), _dirty(sums), out)
    assert np.shares_memory(got, out)
    assert np.array_equal(got, want)
    # the result may overwrite the rows of v, or the products' scratch
    w, sq = v.copy(), _dirty(shape)
    assert np.array_equal(sphere._tangent_into(w, z, sq, _dirty(sums), _dirty(sums), w), want)
    assert np.array_equal(sphere._tangent_into(v, z, sq, _dirty(sums), _dirty(sums), sq), want)
    assert np.array_equal(sphere.tangent_rows(v, z), want)
    # a column-ordered input sums in the order its own products take
    vf, zf = np.asfortranarray(v), np.asfortranarray(z)
    assert np.array_equal(sphere.tangent_rows(vf, zf), _tangent_formula(vf, zf))
