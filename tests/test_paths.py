"""Transport paths: endpoint reconstruction, velocity targets, the chord-norm
identity, and the radial/tangential split."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from slfm import paths, sphere
from slfm.errors import DimensionMismatch, NearZeroNorm, RadiusMismatch
from slfm.paths import (
    PathKind,
    PathPoint,
    chord_norm_sq,
    linear_path,
    path_rows,
    radial_share_rows,
    radial_split,
    shell_path,
    slerp_path,
)
from slfm.sphere import SphereToken, radial_project
from test_sphere import _near_antipodal_pairs


def _sphere_pair(rng, d, radius):
    return (
        radial_project(rng.standard_normal(d), radius),
        radial_project(rng.standard_normal(d), radius),
    )


# ---------------------------------------------------------------------------
# linear path


def test_linear_endpoints():
    z0 = np.array([1.0, 2.0, 3.0])
    z1 = np.array([-1.0, 0.5, 2.0])
    assert_allclose(linear_path(z0, z1, 0.0).z_t, z0, atol=0)
    assert_allclose(linear_path(z0, z1, 1.0).z_t, z1, atol=0)


def test_linear_velocity_constant():
    z0 = np.array([1.0, 2.0])
    z1 = np.array([5.0, -2.0])
    for t in (0.0, 0.25, 0.9):
        assert_allclose(linear_path(z0, z1, t).u_t, z1 - z0, atol=0)


def test_linear_antipodal_cancellation():
    z0 = np.array([2.0, -1.0, 0.5])
    p = linear_path(z0, -z0, 0.5)
    assert_allclose(p.z_t, np.zeros(3), atol=0)


def test_linear_orthogonal_midpoint_norm():
    radius = 3.0
    z0 = radius * np.array([1.0, 0.0])
    z1 = radius * np.array([0.0, 1.0])
    p = linear_path(z0, z1, 0.5)
    assert np.linalg.norm(p.z_t) == pytest.approx(radius / math.sqrt(2), rel=1e-12)


def test_linear_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linear_path(np.zeros(3), np.zeros(4), 0.5)


def test_linear_t_out_of_range():
    with pytest.raises(ValueError):
        linear_path(np.zeros(3), np.ones(3), 1.5)


# ---------------------------------------------------------------------------
# shell path


def test_shell_matches_slerp_for_matched_radii():
    rng = np.random.default_rng(0)
    radius = 2.0
    x0, x1 = _sphere_pair(rng, 8, radius)
    for t in (0.2, 0.5, 0.8):
        shell = shell_path(x0.values, x1.values, t)
        geo = slerp_path(x0, x1, t)
        assert_allclose(shell.z_t, geo.z_t, atol=1e-9)


def test_shell_linear_radius():
    rng = np.random.default_rng(1)
    u0 = sphere.unit_rows(rng.standard_normal(5))
    u1 = sphere.unit_rows(rng.standard_normal(5))
    p = shell_path(1.0 * u0, 3.0 * u1, 0.5)
    assert np.linalg.norm(p.z_t) == pytest.approx(2.0, rel=1e-12)


def test_shell_norm_exactly_linear_in_t():
    rng = np.random.default_rng(2)
    z0 = 1.7 * sphere.unit_rows(rng.standard_normal(12))
    z1 = 4.1 * sphere.unit_rows(rng.standard_normal(12))
    for t in np.linspace(0.0, 1.0, 11):
        expect = (1.0 - t) * 1.7 + t * 4.1
        assert np.linalg.norm(shell_path(z0, z1, t).z_t) == pytest.approx(
            expect, rel=1e-12
        )


def test_shell_rejects_zero_endpoint():
    with pytest.raises(NearZeroNorm):
        shell_path(np.zeros(3), np.ones(3), 0.5)


def test_shell_velocity_finite_difference_100_triples():
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 20))
        z0 = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        z1 = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        t = float(rng.uniform(0.05, 0.95))
        p = shell_path(z0, z1, t)
        fd = (shell_path(z0, z1, t + h).z_t - shell_path(z0, z1, t - h).z_t) / (2 * h)
        worst = max(worst, np.max(np.abs(fd - p.u_t)) / max(np.max(np.abs(p.u_t)), 1e-12))
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# slerp path


def test_slerp_path_zero_radial_share():
    rng = np.random.default_rng(4)
    x0, x1 = _sphere_pair(rng, 16, 4.0)
    for t in np.linspace(0.0, 1.0, 11):
        p = slerp_path(x0, x1, t)
        split = radial_split(p.u_t, p.z_t)
        assert split.share <= 1e-10


def test_slerp_path_initial_direction_toward_target():
    rng = np.random.default_rng(5)
    while True:
        x0, x1 = _sphere_pair(rng, 6, 2.0)
        if sphere.angle_between(x0, x1) < math.pi / 2:
            break
    p = slerp_path(x0, x1, 0.0)
    assert float(np.dot(p.u_t, x1.values)) > 0.0


def test_slerp_path_constant_speed():
    rng = np.random.default_rng(6)
    x0, x1 = _sphere_pair(rng, 32, math.sqrt(32))
    w = sphere.angle_between(x0, x1)
    speeds = [
        np.linalg.norm(slerp_path(x0, x1, t).u_t) for t in np.linspace(0.0, 1.0, 11)
    ]
    assert_allclose(speeds, math.sqrt(32) * w, rtol=1e-6)


@pytest.mark.parametrize("w", [1.5e-4, 3e-4, 1e-3, 1.4e-3])
def test_slerp_path_near_coincident_endpoints(w):
    # angles above SMALL_ANGLE but below the ~1.4e-3 floor of clamped
    # arccos angles: the standard regime must use the true angle
    rng = np.random.default_rng(8)
    radius = 3.0
    u0 = rng.standard_normal(9)
    u0 /= np.linalg.norm(u0)
    n = rng.standard_normal(9)
    n -= np.dot(n, u0) * u0
    n /= np.linalg.norm(n)
    x0 = SphereToken(radius * u0, radius)
    x1 = SphereToken(radius * (math.cos(w) * u0 + math.sin(w) * n), radius)
    for t in (0.0, 0.2, 0.5, 0.9, 1.0):
        p = slerp_path(x0, x1, t)
        assert radial_split(p.u_t, p.z_t).share <= 1e-20
        assert np.linalg.norm(p.u_t) == pytest.approx(radius * w, rel=1e-9)
        assert np.linalg.norm(p.z_t) == pytest.approx(radius, rel=1e-14)


@pytest.mark.parametrize("kind", [PathKind.SLERP, PathKind.SHELL])
def test_geodesic_paths_near_antipodal_end_on_z1(kind):
    # pairs pi - 0.099 ... pi - 1e-6 apart (d = 3), within ANTIPODAL_MARGIN
    # of pi: every path lands on z1, and the slerp velocity stays tangent
    radius = 2.0
    u0, u1 = _near_antipodal_pairs(np.random.default_rng(75))
    z0 = radius * u0
    z1 = (radius if kind is PathKind.SLERP else 1.5 * radius) * u1
    z_t, u_t = path_rows(z0, z1, 1.0, kind)
    assert np.max(np.linalg.norm(z_t - z1, axis=1)) <= 1e-14 * radius
    assert_allclose(path_rows(z0, z1, 0.0, kind)[0], z0, rtol=0, atol=1e-14 * radius)
    if kind is PathKind.SLERP:
        z_t, u_t = path_rows(z0, z1, np.linspace(0.0, 1.0, u0.shape[0]), kind)
        assert np.max(radial_share_rows(u_t, z_t)) <= 1e-20


def test_slerp_path_radius_mismatch():
    x0 = SphereToken(np.array([2.0, 0.0, 0.0]), 2.0)
    x1 = SphereToken(np.array([0.0, 2.5, 0.0]), 2.5)
    with pytest.raises(RadiusMismatch):
        slerp_path(x0, x1, 0.5)


def test_path_rows_slerp_rejects_off_sphere_rows():
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((6, 8))
    z1 = rng.standard_normal((6, 8))
    with pytest.raises(RadiusMismatch):
        path_rows(z0, z1, 0.5, PathKind.SLERP)


# ---------------------------------------------------------------------------
# all kinds: reconstruction and velocity consistency


@pytest.mark.parametrize("kind", list(PathKind))
def test_endpoint_reconstruction(kind):
    rng = np.random.default_rng(8)
    radius = 2.0
    if kind is PathKind.SLERP:
        z0 = sphere.uniform_rows(32, 8, radius, rng)
        z1 = sphere.uniform_rows(32, 8, radius, rng)
    else:
        z0 = rng.standard_normal((32, 8))
        z1 = rng.standard_normal((32, 8))
    a0, _ = path_rows(z0, z1, 0.0, kind)
    a1, _ = path_rows(z0, z1, 1.0, kind)
    assert np.max(np.abs(a0 - z0)) <= 1e-6
    assert np.max(np.abs(a1 - z1)) <= 1e-6


@pytest.mark.parametrize("kind", list(PathKind))
def test_velocity_matches_finite_difference(kind):
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(100):
        d = int(rng.integers(3, 16))
        if kind is PathKind.SLERP:
            z0 = sphere.uniform_rows(1, d, 2.0, rng)
            z1 = sphere.uniform_rows(1, d, 2.0, rng)
        else:
            z0 = rng.standard_normal((1, d))
            z1 = rng.standard_normal((1, d))
        for t in np.linspace(0.08, 0.92, 10):
            zp, _ = path_rows(z0, z1, t + h, kind)
            zm, _ = path_rows(z0, z1, t - h, kind)
            _, u = path_rows(z0, z1, t, kind)
            fd = (zp - zm) / (2 * h)
            scale = max(float(np.max(np.abs(u))), 1e-12)
            assert np.max(np.abs(fd - u)) / scale <= 1e-4


def test_path_rows_broadcasts_time_axis():
    rng = np.random.default_rng(10)
    z0 = rng.standard_normal((4, 6))
    z1 = rng.standard_normal((4, 6))
    t = np.array([0.0, 0.25, 0.5, 1.0])
    z_t, u_t = path_rows(z0, z1, t, PathKind.LINEAR)
    assert z_t.shape == (4, 6) and u_t.shape == (4, 6)
    for i, ti in enumerate(t):
        one, _ = path_rows(z0[i], z1[i], float(ti), PathKind.LINEAR)
        assert_allclose(z_t[i], one, atol=0)


@pytest.mark.parametrize("kind", list(PathKind))
def test_path_rows_of_one_pair_at_a_vector_of_times_equal_the_calls_at_each_time(kind):
    rng = np.random.default_rng(30)
    z0, z1 = rng.standard_normal(5), 3.0 * rng.standard_normal(5)
    if kind is PathKind.SLERP:
        z0, z1 = sphere.project_rows(np.stack([z0, z1]), 2.0)
    t = np.linspace(0.0, 1.0, 9)
    z_t, u_t = path_rows(z0, z1, t, kind)
    assert z_t.shape == u_t.shape == (9, 5)
    for i, ti in enumerate(t):
        one_z, one_u = path_rows(z0, z1, float(ti), kind)
        assert np.array_equal(z_t[i], one_z) and np.array_equal(u_t[i], one_u)


def test_chord_dip_below_three_quarters():
    rng = np.random.default_rng(11)
    radius = math.sqrt(32)
    z0 = sphere.uniform_rows(2048, 32, radius, rng)
    z1 = sphere.uniform_rows(2048, 32, radius, rng)
    means = []
    for t in np.linspace(0.0, 1.0, 21):
        z_t, _ = path_rows(z0, z1, float(t), PathKind.LINEAR)
        means.append(np.linalg.norm(z_t, axis=1).mean())
    assert min(means) < 0.75 * radius


# ---------------------------------------------------------------------------
# chord identity


def test_chord_t0_t1():
    assert chord_norm_sq(2.0, 5.0, 0.3, 0.0) == pytest.approx(4.0, rel=0)
    assert chord_norm_sq(2.0, 5.0, 0.3, 1.0) == pytest.approx(25.0, rel=0)


def test_chord_orthogonal_matched_midpoint_exact():
    for radius in (1.0, math.sqrt(32), 7.25):
        assert chord_norm_sq(radius, radius, 0.0, 0.5) == 0.5 * radius * radius


def test_chord_against_direct_vectors():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        d = int(rng.integers(2, 24))
        z0 = rng.standard_normal(d) * rng.uniform(0.2, 4.0)
        z1 = rng.standard_normal(d) * rng.uniform(0.2, 4.0)
        t = float(rng.uniform())
        r0 = np.linalg.norm(z0)
        r1 = np.linalg.norm(z1)
        cos01 = float(np.dot(z0, z1) / (r0 * r1))
        direct = float(np.sum(((1 - t) * z0 + t * z1) ** 2))
        formula = chord_norm_sq(r0, r1, cos01, t)
        assert formula == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("radii", [(math.nan, 1.0), (1.0, math.nan)], ids=["r0", "r1"])
def test_chord_rejects_a_nan_radius(radii):
    with pytest.raises(ValueError, match="radii must be nonnegative"):
        chord_norm_sq(*radii, 0.5, 0.5)


def test_chord_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chord_norm_sq(-1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        chord_norm_sq(1.0, 1.0, 1.5, 0.5)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, 1.0, 0.5, math.nan), "outside"),
        ((1.0, 1.0, 0.5, -0.25), "outside"),
        ((1.0, 1.0, 0.5, 1.5), "outside"),
        ((math.inf, 1.0, 0.5, 0.5), "radii must be finite"),
        ((1.0, math.inf, 0.5, 0.5), "radii must be finite"),
        ((1e200, 1e200, 0.5, 0.5), "finite squares"),
        ((1.0, 1.4e154, 0.5, 0.5), "finite squares"),
    ],
    ids=["t-nan", "t-below-0", "t-above-1", "r0-inf", "r1-inf", "both-square-overflows",
         "r1-square-overflows"],
)
def test_chord_rejects_a_time_outside_0_1_and_an_infinite_radius(args, message):
    # these gave NaN or inf rather than an error
    with pytest.raises(ValueError, match=message):
        chord_norm_sq(*args)


def test_chord_takes_the_largest_radius_whose_square_is_finite():
    # 1.3e154 squares to 1.69e308, below the float maximum: the formula's
    # terms sum to at most the larger square, so the result is finite
    assert math.isfinite(chord_norm_sq(1.3e154, 1.3e154, 1.0, 0.5))


# ---------------------------------------------------------------------------
# radial split


def test_radial_split_parallel():
    z = np.array([1.0, 2.0, 2.0])
    split = radial_split(3.0 * z, z)
    assert split.share == pytest.approx(1.0, abs=1e-12)


def test_radial_split_tangent():
    z = np.array([1.0, 0.0])
    u = np.array([0.0, 4.0])
    split = radial_split(u, z)
    assert split.share == 0.0
    assert split.tangential_energy == pytest.approx(16.0, rel=0)


def test_radial_split_energies_sum():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(2, 30))
        u = rng.standard_normal(d)
        z = rng.standard_normal(d)
        if np.linalg.norm(z) < 1e-6:
            continue
        split = radial_split(u, z)
        total = float(np.dot(u, u))
        assert split.radial_energy + split.tangential_energy == pytest.approx(
            total, rel=1e-6
        )


def test_radial_split_zero_velocity():
    split = radial_split(np.zeros(4), np.ones(4))
    assert split.share == 0.0


def test_radial_split_rejects_zero_base():
    with pytest.raises(NearZeroNorm):
        radial_split(np.ones(3), np.zeros(3))


def test_radial_share_rows_zero_row():
    u = np.array([[0.0, 0.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    shares = radial_share_rows(u, z)
    assert shares[0] == 0.0
    assert shares[1] == pytest.approx(1.0, abs=1e-12)


def test_linear_share_fifty_percent_at_endpoints():
    rng = np.random.default_rng(14)
    radius = math.sqrt(32)
    z0 = radius * sphere.unit_rows(rng.standard_normal((2048, 32)))
    z1 = radius * sphere.unit_rows(rng.standard_normal((2048, 32)))
    for t in (0.0, 1.0):
        z_t, u_t = path_rows(z0, z1, t, PathKind.LINEAR)
        mean_share = float(np.mean(radial_share_rows(u_t, z_t)))
        assert mean_share == pytest.approx(0.50, abs=0.03)


# ---------------------------------------------------------------------------
# PathPoint certificates


def test_path_point_rejects_bad_t():
    with pytest.raises(ValueError):
        PathPoint(np.zeros(3), np.zeros(3), -0.1, PathKind.LINEAR)


def test_path_point_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        PathPoint(np.zeros(3), np.zeros(4), 0.5, PathKind.LINEAR)


def test_path_point_slerp_tangency_certificate():
    z = np.array([2.0, 0.0])
    with pytest.raises(ValueError):
        PathPoint(z, z.copy(), 0.5, PathKind.SLERP)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("end", [0, 1], ids=["z0", "z1"])
@pytest.mark.parametrize("kind", list(PathKind))
def test_path_rows_rejects_non_finite_endpoints(kind, end, bad):
    # every kind checks its endpoints once, at the boundary
    ends = [np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 2.0], [-2.0, 0.0]])]
    ends[end][1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        path_rows(ends[0], ends[1], 0.5, kind)


@pytest.mark.parametrize("end", [0, 1], ids=["z0", "z1"])
@pytest.mark.parametrize("kind", [PathKind.SHELL, PathKind.SLERP])
def test_path_rows_rejects_endpoints_whose_squared_norms_overflow(kind, end):
    # finite rows, but a square past float max: no inf or nan rows, no warning
    ends = [np.array([[1e200, 1e200], [0.0, 1.0]]), np.array([[1e200, -1e200], [1.0, 0.0]])]
    ends[1 - end][0] = [1.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite squared norms"):
            path_rows(ends[0], ends[1], 0.5, kind)
        if kind is PathKind.SHELL:
            with pytest.raises(ValueError, match="finite squared norms"):
                shell_path(ends[0][0], ends[1][0], 0.5)


@pytest.mark.parametrize("kind", [PathKind.SHELL, PathKind.SLERP])
def test_geodesic_paths_refuse_one_dimensional_rows(kind):
    # a direction needs two dimensions; a line does not
    z0, z1 = np.array([[1.0], [-2.0]]), np.array([[3.0], [-2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="at least 2, got 1"):
            path_rows(z0, z1, 0.5, kind)
        with pytest.raises(DimensionMismatch, match="at least 2, got 1"):
            path_rows(z0, z1, 0.5, kind, radius=2.0)
    z_t, u_t = path_rows(z0, z1, 0.5, PathKind.LINEAR)
    assert np.array_equal(z_t, [[2.0], [-2.0]]) and np.array_equal(u_t, [[2.0], [0.0]])


@pytest.mark.parametrize("end", [0, 1], ids=["z0", "z1"])
def test_linear_path_rejects_non_finite_endpoint(end):
    ends = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ends[end][0] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        linear_path(ends[0], ends[1], 0.5)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_chord_identity(d, t, seed):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal(d)
    z1 = rng.standard_normal(d)
    r0 = float(np.linalg.norm(z0))
    r1 = float(np.linalg.norm(z1))
    if r0 < 1e-3 or r1 < 1e-3:
        return
    cos01 = float(np.clip(np.dot(z0, z1) / (r0 * r1), -1.0, 1.0))
    direct = float(np.sum(((1 - t) * z0 + t * z1) ** 2))
    assert chord_norm_sq(r0, r1, cos01, t) == pytest.approx(direct, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_shell_norm_linear(d, t, seed):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal(d)
    z1 = rng.standard_normal(d)
    r0 = float(np.linalg.norm(z0))
    r1 = float(np.linalg.norm(z1))
    if r0 < 1e-3 or r1 < 1e-3:
        return
    p = shell_path(z0, z1, t)
    assert np.linalg.norm(p.z_t) == pytest.approx((1 - t) * r0 + t * r1, rel=1e-10)


@pytest.mark.parametrize("kind", list(PathKind))
def test_a_path_step_into_caller_buffers_allocates_less_than_a_coefficient_vector(kind):
    # every per-pair coefficient goes into the caller's workspace: one step
    # of a profile's grid allocates no n-vector.  numpy's row-scaled
    # products take an iterator buffer of 8192 values whatever n is, so n
    # is twice that
    rng = np.random.default_rng(22)
    n, d = 16384, 4
    z0, z1 = rng.standard_normal((n, d)), 2.0 * rng.standard_normal((n, d))
    if kind is PathKind.SLERP:
        z0, z1 = 3.0 * sphere.unit_rows(z0), 3.0 * sphere.unit_rows(z1)
    pairs = paths._path_setup(z0, z1, kind)
    out = (np.empty((n, d)), np.empty((n, d)), np.empty((n, d)), sphere._geodesic_workspace((n,)))
    paths._path_at(pairs, 0.3, out)  # warm: first-call allocations are not the step's
    tracemalloc.start()
    try:
        z_t, u_t = paths._path_at(pairs, 0.7, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z_t is out[0] and (u_t is pairs.chord if kind is PathKind.LINEAR else u_t is out[1])
    assert peak < 8 * n
