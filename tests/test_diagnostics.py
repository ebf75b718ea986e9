"""Shell statistics, path profiles, and the component swap surgery."""

import math
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slfm import container, diagnostics, model, sphere, synthetic
from slfm.cli import main
from slfm.diagnostics import (
    ShellStats,
    component_swap,
    component_swap_rows,
    off_shell_sigma,
    path_profile,
    shell_stats,
)
from slfm.errors import DegenerateShell, DimensionMismatch, EmptyInput, NearZeroNorm
from slfm.paths import PathKind, path_rows, radial_share_rows, radial_split
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


def test_exact_sum_over_chunks_is_one_fsum():
    # three full chunks and a partial one: the chunked sums are the fsum of
    # every value, and of every squared deviation, taken at once
    rng = np.random.default_rng(75)
    values = rng.standard_normal(3 * diagnostics._FSUM_CHUNK + 5) * 10.0 ** rng.integers(-8, 8, size=1)
    mean = diagnostics._fsum_mean(values)
    assert diagnostics._fsum(values) == math.fsum(values.tolist())
    assert mean == math.fsum(values.tolist()) / values.shape[0]
    assert diagnostics._fsum(values, mean) == math.fsum(np.square(values - mean).tolist())
    assert diagnostics._fsum(values[:0]) == 0.0


def _sum_outcome(fn):
    """The bits ``fn()`` returns (the sign of a zero included), or the type
    and message of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return struct.pack("<d", fn())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _assert_sum_is_fsum(values, about=None):
    values = np.asarray(values, dtype=np.float64)
    if about is None:
        expected = _sum_outcome(lambda: math.fsum(values.tolist()))
    else:
        expected = _sum_outcome(lambda: math.fsum(np.square(values - about).tolist()))
    assert _sum_outcome(lambda: diagnostics._fsum(values, about)) == expected


_CHUNK = diagnostics._FSUM_CHUNK
_SUM_LENGTHS = (0, 1, 2, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)


def _sum_case(family, n, rng):
    if family == "cancelling":
        half = rng.standard_normal(n // 2 + 1) * 10.0 ** rng.integers(-300, 301, n // 2 + 1)
        values = np.concatenate([half, -half])[:n]
        rng.shuffle(values)
        return values
    if family == "wide":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    if family == "subnormal":
        return rng.integers(-9, 10, n) * 5e-324
    if family == "shell":
        return 3.0 + 0.1 * rng.standard_normal(n)
    if family == "shares":
        # values in [0, 1] over many decades, a third of them zero
        return rng.uniform(0.0, 1.0, n) ** 12 * (rng.random(n) < 2 / 3)
    if family == "near-overflow":
        return rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(300.0, 308.2, n) * rng.choice([-1.0, 1.0], n)
    raise ValueError(family)


@pytest.mark.parametrize(
    "family", ["cancelling", "wide", "subnormal", "shell", "shares", "near-overflow"]
)
def test_exact_sum_is_fsum_bit_for_bit(family):
    # the extracted parts give fsum's bits, and fsum's OverflowError where
    # the values' running sum leaves the float range, at every length
    rng = np.random.default_rng(sum(map(ord, family)))
    for n in _SUM_LENGTHS:
        for _ in range(12):
            values = _sum_case(family, n, rng)
            _assert_sum_is_fsum(values)
            if n:
                _assert_sum_is_fsum(values, float(values[rng.integers(n)]))
                _assert_sum_is_fsum(values, float(rng.standard_normal()))


@pytest.mark.parametrize("n", _SUM_LENGTHS)
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_exact_sum_of_zeros_is_fsum(n, zero):
    # an all-zero chunk gives what fsum gives, the sign of the zero included,
    # alone and beside chunks that cancel to zero
    values = np.full(n, zero)
    _assert_sum_is_fsum(values)
    _assert_sum_is_fsum(values, zero)
    if n:
        mixed = values.copy()
        mixed[-1] = -zero
        _assert_sum_is_fsum(mixed)
        _assert_sum_is_fsum(np.concatenate([np.tile([1.0, -1.0], _CHUNK // 2), values]))


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
def test_exact_sum_keeps_fsum_non_finite_outcomes(special):
    rng = np.random.default_rng(76)
    for n in _SUM_LENGTHS[1:]:
        for where in {0, n // 2, n - 1}:
            values = rng.standard_normal(n)
            values[where] = special
            _assert_sum_is_fsum(values)
            _assert_sum_is_fsum(values, 0.5)
            values[n - 1 - where] = -special
            _assert_sum_is_fsum(values)
    _assert_sum_is_fsum([1e308, 1e308, -1e308])
    _assert_sum_is_fsum([1e308, 1e308, special])
    _assert_sum_is_fsum([special, 1e308, 1e308])
    with pytest.raises(OverflowError):
        diagnostics._fsum(np.array([1e308, 1e308, -1e308]))


@pytest.mark.parametrize("about", [None, 3.0])
def test_exact_sum_allocates_a_chunk_not_the_values(about):
    values = 3.0 + np.random.default_rng(77).standard_normal(1 << 18)
    diagnostics._fsum(values, about)  # warm: first-call allocations are not the sum's
    tracemalloc.start()
    try:
        diagnostics._fsum(values, about)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two chunk buffers and the parts; the values themselves take 2 MiB
    assert peak <= 4 * 8 * _CHUNK


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


@pytest.mark.parametrize("z_t", [[[2.0, 0.0]] * 3, [[2.0, 0.0]], np.zeros((2, 1, 2))])
def test_off_shell_sigma_rejects_a_stack_of_rows(z_t):
    # one norm over a stack would measure no single token
    s0 = ShellStats(n_tokens=10, mean_radius=2.0, std_radius=0.1, cv=0.05)
    s1 = ShellStats(n_tokens=10, mean_radius=4.0, std_radius=0.3, cv=0.075)
    with pytest.raises(DimensionMismatch, match="off_shell_sigma takes one vector"):
        off_shell_sigma(z_t, s0, s1)


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


def _profile_columns(profile):
    return [
        getattr(profile, name).tobytes()
        for name in ("t_grid", "mean_norm", "std_norm", "mean_offshell_sigma", "mean_radial_share")
    ]


@pytest.mark.parametrize("kind", list(PathKind))
@pytest.mark.parametrize("points", [1, 2, 101])
def test_profile_does_not_depend_on_the_cpu_count(monkeypatch, kind, points):
    # the grid runs as one slice per usable CPU; the same bits on one and on
    # three, over the mixed-regime pairs, whatever the slices' lengths
    z0, z1 = _mixed_regime_path_pairs(kind, np.random.default_rng(14))
    grid = np.linspace(0.0, 1.0, points)
    columns = []
    for cpus in (1, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        columns.append(_profile_columns(path_profile(z0, z1, kind, grid)))
    assert columns[0] == columns[1]


def test_profile_with_more_threads_than_cores_matches_one_cpu(monkeypatch):
    # eight slices, switching threads every microsecond: each slice still
    # writes only its own points of the shared curves
    z0, z1 = _mixed_regime_path_pairs(PathKind.SHELL, np.random.default_rng(16))
    grid = np.linspace(0.0, 1.0, 37)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    alone = _profile_columns(path_profile(z0, z1, PathKind.SHELL, grid))
    monkeypatch.setattr(model, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _profile_columns(path_profile(z0, z1, PathKind.SHELL, grid))
    finally:
        sys.setswitchinterval(interval)
    assert alone == threaded


@pytest.mark.parametrize("points", [5, 101])
def test_profile_raises_alike_on_any_cpu_count(monkeypatch, points):
    # the linear pair through the origin fails at t = 0.5 only, a point of
    # the middle slice of three; the points after it succeed
    z0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    raised = []
    for cpus in (1, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        with pytest.raises(NearZeroNorm) as info:
            path_profile(z0, -z0, PathKind.LINEAR, np.linspace(0.0, 1.0, points))
        raised.append(str(info.value))
    assert raised == ["reference point norm below floor"] * 2


def test_one_point_profile_starts_no_thread(monkeypatch):
    def start(self):
        raise AssertionError("a one-point grid started a thread")

    monkeypatch.setattr(model, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", start)
    z0, z1 = _mixed_regime_path_pairs(PathKind.SHELL, np.random.default_rng(15))
    profile = path_profile(z0, z1, PathKind.SHELL, np.array([0.5]))
    assert profile.mean_norm.shape == (1,)
    with pytest.raises(AssertionError, match="started a thread"):
        path_profile(z0, z1, PathKind.SHELL, np.array([0.25, 0.5]))


@pytest.mark.parametrize(
    "grid",
    [[0.0, math.nan, 1.0], [math.nan], [-0.5, 1.0], [0.0, 1.5], [0.5, 0.25]],
    ids=["nan-inside", "nan-alone", "below-0", "above-1", "descending"],
)
def test_profile_rejects_a_grid_outside_0_1_or_out_of_order(grid):
    # NaN fails every comparison, so it must fail the range test too, not
    # give a NaN norm and a radial share of exactly 0 at its point
    z0, z1 = synthetic.sphere_pairs(8, 4, 2.0, np.random.default_rng(0))
    for kind in PathKind:
        with pytest.raises(ValueError, match=r"t_grid must be ordered within \[0, 1\]"):
            path_profile(z0, z1, kind, np.array(grid))


def test_profile_rejects_mismatched_batches():
    with pytest.raises(DimensionMismatch):
        path_profile(np.zeros((4, 3)), np.zeros((5, 3)), PathKind.LINEAR)


def test_profile_empty():
    with pytest.raises(EmptyInput):
        path_profile(np.zeros((0, 3)), np.zeros((0, 3)), PathKind.LINEAR)


def _peak_limit(n, d):
    """The largest endpoint coordinate :func:`path_profile` takes."""
    return math.sqrt(sys.float_info.max / (16 * n * d))


@pytest.mark.parametrize("kind", list(PathKind))
def test_profile_at_its_peak_bound_is_finite_without_a_warning(monkeypatch, kind):
    # endpoints at 0.999999 of the bound: shell radii r1 = 0.3 r0 for
    # linear and shell, one common radius for slerp; every product the
    # rows and their coefficients form stays in range, on two slices
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(18)
    n, d = 64, 8
    u0, u1 = unit_rows(rng.standard_normal((n, d))), unit_rows(rng.standard_normal((n, d)))
    r0 = np.ones((n, 1)) if kind is PathKind.SLERP else rng.uniform(0.5, 1.0, (n, 1))
    r1 = r0 if kind is PathKind.SLERP else 0.3 * r0
    z0, z1 = r0 * u0, r1 * u1
    scale = 0.999999 * _peak_limit(n, d) / max(np.max(np.abs(z0)), np.max(np.abs(z1)))
    z0, z1 = scale * z0, scale * z1
    peak = max(np.max(np.abs(z0)), np.max(np.abs(z1)))
    assert 0.99999 * _peak_limit(n, d) <= peak <= _peak_limit(n, d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = path_profile(z0, z1, kind, np.linspace(0.0, 1.0, 11))
    assert caught == []
    for name in ("mean_norm", "std_norm", "mean_offshell_sigma", "mean_radial_share"):
        assert np.all(np.isfinite(getattr(profile, name)))


def _sphere_spec_at(fraction, n, d, seed):
    """A ``sphere:`` spec whose ``paths --pairs n --seed seed`` endpoints
    peak at about ``fraction`` of :func:`path_profile`'s bound."""
    z0, z1 = synthetic.sphere_pairs(n, d, 1.0, np.random.default_rng(seed))
    radius = fraction * _peak_limit(n, d) / float(max(np.max(np.abs(z0)), np.max(np.abs(z1))))
    return f"sphere:d={d},R={radius!r}"


@pytest.mark.parametrize("kind", list(PathKind))
def test_paths_exits_0_below_its_peak_bound_and_2_past_it(capsys, kind):
    n, d = 64, 8
    for fraction, code in ((0.999999, 0), (1.000001, 2)):
        argv = ["paths", "--synthetic", _sphere_spec_at(fraction, n, d, 0), "--kind", kind.value,
                "--pairs", str(n), "--grid", "11", "--seed", "0"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert caught == []
        captured = capsys.readouterr()
        if code == 0:
            rows = captured.out.strip().splitlines()[1:]
            assert len(rows) == 11 and captured.err == ""
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
        else:
            assert captured.out == ""
            assert captured.err.startswith("ERROR endpoint coordinates must be finite and at most")
            assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda z: shell_stats(z),
        lambda z: path_profile(z, z, PathKind.LINEAR),
        lambda z: path_profile(z, z, PathKind.SLERP),
        lambda z: diagnostics.component_swap_rows(z, z),
    ],
    ids=["shell_stats", "path_profile-linear", "path_profile-slerp", "component_swap_rows"],
)
def test_zero_width_tokens_name_the_empty_coordinate_axis(call):
    # three rows of d = 0 have no coordinates to measure; numpy's own
    # reshape message must not leak out
    with pytest.raises(DimensionMismatch, match="empty coordinate axis"):
        call(np.zeros((3, 0)))


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


def test_swap_kernel_equals_component_swap_rows():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((16, 9))
    s = 3.0 * rng.standard_normal((16, 9))
    keep_dir, keep_rad = component_swap_rows(a, s)
    ra = np.linalg.norm(a, axis=-1, keepdims=True)
    rs = np.linalg.norm(s, axis=-1, keepdims=True)
    assert np.array_equal(keep_dir, (rs / ra) * a) and np.array_equal(keep_rad, (ra / rs) * s)


def test_swap_kernel_rejects_a_zero_row():
    a = np.array([[3.0, 4.0], [0.0, 0.0]])
    with pytest.raises(NearZeroNorm):
        component_swap_rows(a, np.ones((2, 2)))


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


# ---------------------------------------------------------------------------
# finiteness at the entry points


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_entry_points_reject_non_finite_input(bad):
    # each used to return NaN statistics, NaN hybrids or a share of 0.0
    shell = ShellStats(4, 2.0, 0.5, 0.25)
    calls = [
        lambda: shell_stats([[bad, 1.0], [1.0, 2.0]]),
        lambda: component_swap([bad, 1.0], [1.0, 2.0]),
        lambda: component_swap([1.0, 2.0], [bad, 1.0]),
        lambda: off_shell_sigma([bad, 1.0], shell, shell),
        lambda: radial_split([bad, 1.0], [1.0, 2.0]),
        lambda: radial_split([1.0, 2.0], [bad, 1.0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_swap_scans_no_block(tmp_path, monkeypatch):
    # slfm swap's blocks come from BlockReader, which has checked them
    calls = []
    for owner in (sphere, diagnostics):
        original = owner._as_vectors
        monkeypatch.setattr(owner, "_as_vectors", lambda x, f=original: calls.append(1) or f(x))
    rng = np.random.default_rng(90)
    for name in ("a.slfm", "b.slfm"):
        container.write_container(tmp_path / name, rng.standard_normal((6, 3, 2, 1)))
    assert main(["swap", str(tmp_path / "a.slfm"), str(tmp_path / "b.slfm"),
                 "--out-direction", str(tmp_path / "d.slfm"),
                 "--out-radius", str(tmp_path / "r.slfm")]) == 0
    assert calls == []
