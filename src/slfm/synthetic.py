"""Synthetic endpoint pairs for figure-style experiments without input files.

Two families, selectable by a compact spec string:

    sphere:d=<int>,R=<real>                     both endpoints uniform on the sphere
    gauss-shells:d=<int>,r0=<real>,r1=<real>,cv=<real>
                                                uniform directions, Gaussian radii

``cv`` scales the radius std relative to each shell mean; cv=0 gives exact
radii (a degenerate shell).
"""

from __future__ import annotations

import numpy as np

from .errors import NearZeroNorm
from .sphere import NORM_FLOOR, token_radius, uniform_rows


def sphere_pairs(n: int, d: int, radius: float, rng: np.random.Generator):
    """n independent endpoint pairs, both uniform on the sphere of ``radius``."""
    if n < 1:
        raise ValueError("need at least one pair")
    return uniform_rows(n, d, radius, rng), uniform_rows(n, d, radius, rng)


def _shell_rows(n: int, d: int, r: float, cv: float, rng: np.random.Generator) -> np.ndarray:
    if not r >= NORM_FLOOR:
        raise NearZeroNorm(f"shell radius {r!r} below floor")
    dirs = uniform_rows(n, d, 1.0, rng)
    if cv == 0.0:
        return r * dirs
    radii = rng.normal(r, cv * r, size=n)
    # Gaussian tails can cross zero for large cv; redraw those radii.
    bad = radii < NORM_FLOOR
    while np.any(bad):
        radii[bad] = rng.normal(r, cv * r, size=int(bad.sum()))
        bad = radii < NORM_FLOOR
    return radii[:, None] * dirs


def gauss_shell_pairs(
    n: int, d: int, r0: float, r1: float, cv: float, rng: np.random.Generator
):
    """Pairs with uniform directions and radii ~ Normal(r_k, cv * r_k)."""
    if n < 1:
        raise ValueError("need at least one pair")
    if not cv >= 0.0:
        raise ValueError("cv must be nonnegative")
    return _shell_rows(n, d, r0, cv, rng), _shell_rows(n, d, r1, cv, rng)


def _cv(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError("expected a finite nonnegative number")
    return value


def parse_spec(text: str) -> dict:
    """Parse a synthetic spec string into a dict with a ``family`` key."""
    family, _, rest = text.partition(":")
    family = family.strip()
    schemas = {
        "sphere": {"d": int, "R": token_radius},
        "gauss-shells": {"d": int, "r0": token_radius, "r1": token_radius, "cv": _cv},
    }
    if family not in schemas:
        raise ValueError(
            f"unknown synthetic family {family!r} (expected one of {sorted(schemas)})"
        )
    schema = schemas[family]
    out = {"family": family}
    seen = set()
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in schema:
            raise ValueError(f"bad synthetic parameter {item!r} for family {family!r}")
        if key in seen:
            raise ValueError(f"duplicate synthetic parameter {key!r}")
        seen.add(key)
        try:
            out[key] = schema[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {value.strip()!r} ({exc})") from None
    missing = set(schema) - seen
    if missing:
        raise ValueError(f"missing synthetic parameters: {sorted(missing)}")
    if out["d"] < 2:
        raise ValueError("synthetic dimension must be at least 2")
    return out


def pairs_from_spec(spec: dict, n: int, rng: np.random.Generator):
    """Draw ``n`` endpoint pairs for a parsed synthetic spec."""
    if spec["family"] == "sphere":
        return sphere_pairs(n, spec["d"], spec["R"], rng)
    return gauss_shell_pairs(n, spec["d"], spec["r0"], spec["r1"], spec["cv"], rng)
