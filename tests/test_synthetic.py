"""Synthetic endpoint-pair generators and their spec-string parser."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slfm import synthetic
from slfm.errors import NearZeroNorm
from slfm.synthetic import (
    gauss_shell_pairs,
    pairs_from_spec,
    parse_spec,
    sphere_pairs,
)


def test_sphere_pairs_on_radius():
    rng = np.random.default_rng(0)
    z0, z1 = sphere_pairs(256, 8, 3.0, rng)
    assert z0.shape == z1.shape == (256, 8)
    assert_allclose(np.linalg.norm(z0, axis=1), 3.0, rtol=1e-9)
    assert_allclose(np.linalg.norm(z1, axis=1), 3.0, rtol=1e-9)
    # independent draws, not copies
    assert not np.allclose(z0, z1)


def test_gauss_shell_pairs_radius_distribution():
    rng = np.random.default_rng(1)
    z0, z1 = gauss_shell_pairs(20_000, 16, 2.0, 5.0, 0.1, rng)
    r0 = np.linalg.norm(z0, axis=1)
    r1 = np.linalg.norm(z1, axis=1)
    assert np.mean(r0) == pytest.approx(2.0, rel=0.01)
    assert np.std(r0) == pytest.approx(0.2, rel=0.05)
    assert np.mean(r1) == pytest.approx(5.0, rel=0.01)
    assert np.std(r1) == pytest.approx(0.5, rel=0.05)


def test_gauss_shell_cv_zero_exact_radii():
    rng = np.random.default_rng(2)
    z0, _ = gauss_shell_pairs(64, 4, 1.5, 1.5, 0.0, rng)
    assert_allclose(np.linalg.norm(z0, axis=1), 1.5, rtol=1e-12)


def test_gauss_shell_large_cv_radii_stay_positive():
    rng = np.random.default_rng(3)
    # cv = 0.9 puts plenty of Gaussian mass below zero; redraws must keep
    # every radius positive
    z0, z1 = gauss_shell_pairs(5000, 3, 1.0, 1.0, 0.9, rng)
    assert np.all(np.linalg.norm(z0, axis=1) > 0)
    assert np.all(np.linalg.norm(z1, axis=1) > 0)


def test_gauss_shell_rejections():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        gauss_shell_pairs(0, 4, 1.0, 1.0, 0.1, rng)
    with pytest.raises(ValueError):
        gauss_shell_pairs(4, 4, 1.0, 1.0, -0.1, rng)
    with pytest.raises(NearZeroNorm):
        gauss_shell_pairs(4, 4, 0.0, 1.0, 0.1, rng)


def test_gauss_shell_pairs_rejects_a_nan_cv():
    with pytest.raises(ValueError, match="cv must be nonnegative"):
        gauss_shell_pairs(4, 4, 1.0, 1.0, math.nan, np.random.default_rng(4))


def test_shell_rows_reject_a_nan_radius():
    # a NaN shell radius gave NaN rows; it fails the floor test as 0 does
    with pytest.raises(NearZeroNorm, match="below floor"):
        synthetic._shell_rows(4, 4, math.nan, 0.1, np.random.default_rng(4))
    for r0, r1 in [(math.nan, 1.0), (1.0, math.nan)]:
        with pytest.raises(NearZeroNorm, match="below floor"):
            gauss_shell_pairs(4, 4, r0, r1, 0.1, np.random.default_rng(4))


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_sphere_spec():
    spec = parse_spec("sphere:d=8,R=2.5")
    assert spec == {"family": "sphere", "d": 8, "R": 2.5}


def test_parse_gauss_shells_spec():
    spec = parse_spec("gauss-shells:d=32,r0=5.613,r1=5.613,cv=0.13")
    assert spec["family"] == "gauss-shells"
    assert spec["d"] == 32
    assert spec["cv"] == 0.13


def test_parse_spec_tolerates_spaces():
    spec = parse_spec("sphere: d = 8 , R = 2.5")
    assert spec["d"] == 8 and spec["R"] == 2.5


@pytest.mark.parametrize(
    "text",
    [
        "torus:d=3,R=1",               # unknown family
        "sphere:d=8",                  # missing R
        "sphere:d=8,R=1,R=2",          # duplicate
        "sphere:d=8,R=1,cv=0.1",       # parameter from another family
        "sphere:d=eight,R=1",          # unparseable value
        "sphere:d=1,R=1",              # dimension too small
        "sphere:dR=1",                 # no equals sign on a known key
    ],
)
def test_parse_spec_rejects(text):
    with pytest.raises(ValueError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "sphere:d=4,R=nan",
        "sphere:d=4,R=inf",
        "sphere:d=4,R=-1",
        "sphere:d=4,R=0",
        "gauss-shells:d=4,r0=0,r1=2,cv=0.1",
        "gauss-shells:d=4,r0=1,r1=inf,cv=0.1",
        "gauss-shells:d=4,r0=1,r1=2,cv=nan",
        "gauss-shells:d=4,r0=1,r1=2,cv=-0.1",
    ],
)
def test_parse_spec_rejects_out_of_domain_reals(text):
    with pytest.raises(ValueError):
        parse_spec(text)


def test_parse_spec_accepts_zero_cv():
    assert parse_spec("gauss-shells:d=4,r0=1,r1=2,cv=0")["cv"] == 0.0


def test_pairs_from_spec_dispatch():
    rng = np.random.default_rng(5)
    z0, z1 = pairs_from_spec(parse_spec("sphere:d=4,R=2.0"), 32, rng)
    assert_allclose(np.linalg.norm(z0, axis=1), 2.0, rtol=1e-9)
    z0, z1 = pairs_from_spec(
        parse_spec("gauss-shells:d=4,r0=1.0,r1=3.0,cv=0.05"), 2000, rng
    )
    assert np.mean(np.linalg.norm(z1, axis=1)) == pytest.approx(3.0, rel=0.02)


def test_pairs_from_spec_deterministic():
    spec = parse_spec("sphere:d=6,R=1.0")
    a0, a1 = pairs_from_spec(spec, 16, np.random.default_rng(9))
    b0, b1 = pairs_from_spec(spec, 16, np.random.default_rng(9))
    assert np.array_equal(a0, b0)
    assert np.array_equal(a1, b1)
