"""The benchmark workloads: generated inputs, command rounds and output checks.

Every input is generated here from the workload seed: containers are
written with this module's own copy of the container layout, and CLI seeds
are drawn from the same generator, so one seed always gives the same files
and the same argv.  Checks parse the CLI's stdout and read written files
with numpy alone, so they never run (or get traced as) slfm code.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TRAIN_STEPS = 2000  # the CLI default, kept by the memory run
# Measured commands last about a quarter of a second, so the yardstick
# passes around each one (harness.Yardstick) gauge the machine's speed
# during it: training runs 250 of the default 2000 steps a command, and
# sampling 2048 chains; the sample memory run takes 24576 chains, where
# activations dominate the peak.
ROUND_STEPS = 250
SAMPLE_CHAINS = 2048
PEAK_CHAINS = 24576
# Sampling cost does not depend on how long the field trained, so the
# sample workload's checkpoint trains for a short run.
CHECKPOINT_STEPS = 300
SAMPLE_NFE = 50
SAMPLERS = ("euler", "euler-project", "expmap")
PROFILE_PAIRS = 4096
PROFILE_GRID = 101  # the CLI default
PROFILE_D = 32
SPHERE_RADIUS = math.sqrt(PROFILE_D)
SHELL_SPEC = f"gauss-shells:d={PROFILE_D},r0={SPHERE_RADIUS!r},r1=3.0,cv=0.13"
SPHERE_SPEC = f"sphere:d={PROFILE_D},R={SPHERE_RADIUS!r}"
# (items, d, h, w): 64 * 64 * 64 tokens of d = 32 in f32 is 32 MiB a container
LATENT_SHAPE = (64, 32, 64, 64)
MIB = 1024 * 1024

# Output tolerances.  Sphere-preserving samplers hold the radius to 1e-5
# (the bound SampleRun enforces); a slerp profile stays on R to rounding and
# its radial share is a square of rounding error; hybrids go through f32
# storage, so their norms and directions match to f32 precision.
RADIUS_DEVIATION_MAX = 1e-5
HISTOGRAM_SUM_TOL = 1e-12
ON_RADIUS_RTOL = 1e-9
ROUNDING_SHARE_MAX = 1e-20
F32_RTOL = 1e-5

_HEADER = struct.Struct("<4sHIIII")


class CheckFailed(Exception):
    """A command's output broke an identity the workload checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Command:
    """One CLI invocation: argv after ``slfm``, the work it completes (in
    the workload's unit) and a check that raises :class:`CheckFailed`."""

    argv: list
    check: Callable[[str], None]
    work: float = 0.0


@dataclass
class Workload:
    name: str
    work_name: str  # the throughput's name on this workload
    work_unit: str
    round: list  # commands measured, one pass per round
    noop: Command  # the workload's command with no work, for set-up time
    largest: Command  # the workload's largest single command, for memory
    prepare: list = field(default_factory=list)  # run once, unmeasured
    warmup: list = field(default_factory=list)

    @property
    def round_work(self) -> float:
        return sum(cmd.work for cmd in self.round)


# ---------------------------------------------------------------------------
# the container layout, independent of slfm


def write_container(path, array) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    n, d, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"SLFM", 1, d, h, w, n))
        fh.write(arr.tobytes())


def read_container(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, version, d, h, w, n = _HEADER.unpack(fh.read(_HEADER.size))
        require(magic == b"SLFM" and version == 1, f"{path}: bad header")
        arr = np.fromfile(fh, dtype="<f4")
    require(arr.size == n * d * h * w, f"{path}: payload length {arr.size}")
    return arr.reshape(n, d, h, w)


def token_norms(arr) -> np.ndarray:
    """Norm of every token: the d axis is axis 1 of (n, d, h, w)."""
    return np.sqrt(np.einsum("ndhw,ndhw->nhw", arr, arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# output checks


def _csv(text: str):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_train(steps: int, descent: bool = True):
    def check(out: str) -> None:
        report = json.loads(out)
        require(report["steps"] == steps, f"steps {report['steps']} != {steps}")
        keys = ("initial_loss", "final_loss", "smoothed_initial_loss", "smoothed_final_loss")
        require(all(math.isfinite(report[k]) for k in keys), "non-finite loss")
        if descent:
            require(
                report["smoothed_final_loss"] < report["smoothed_initial_loss"],
                "smoothed loss did not descend",
            )

    return check


def check_sample(sampler: str, n: int, nfe: int):
    def check(out: str) -> None:
        report = json.loads(out)
        require((report["sampler"], report["n"], report["nfe"]) == (sampler, n, nfe),
                "report does not echo the request")
        if sampler != "euler":
            dev = report["max_radius_deviation"]
            require(dev <= RADIUS_DEVIATION_MAX, f"radius deviation {dev!r}")
        hist = report["assignment_histogram"]
        require(min(hist) >= 0.0 and abs(math.fsum(hist) - 1.0) <= HISTOGRAM_SUM_TOL,
                f"histogram {hist!r} is not a distribution")

    return check


def check_profile(grid: int, radius: float | None = None):
    """One row per grid point; with ``radius``, the slerp identities."""
    t_grid = [float(t) for t in np.linspace(0.0, 1.0, grid)]

    def check(out: str) -> None:
        header, rows = _csv(out)
        require(header == ["t", "mean_norm", "std_norm", "offshell_sigma", "radial_share"],
                f"header {header!r}")
        require([row[0] for row in rows] == t_grid, f"{len(rows)} rows, not the {grid}-point grid")
        require(all(math.isfinite(x) for row in rows for x in row), "non-finite value")
        require(all(0.0 <= row[4] <= 1.0 for row in rows), "radial share outside [0, 1]")
        if radius is not None:
            dev = max(abs(row[1] - radius) for row in rows)
            require(dev <= ON_RADIUS_RTOL * radius, f"mean norm off R by {dev!r}")
            share = max(row[4] for row in rows)
            require(share <= ROUNDING_SHARE_MAX, f"slerp radial share {share!r}")

    return check


def check_stats(n_tokens: int, mean: float, std: float, projected: bool):
    def check(out: str) -> None:
        header, rows = _csv(out)
        require(header == ["n_tokens", "mean_radius", "std_radius", "cv"] and len(rows) == 1,
                "not one stats row")
        got_n, got_mean, got_std, got_cv = rows[0]
        require(got_n == n_tokens, f"n_tokens {got_n} != {n_tokens}")
        require(abs(got_mean - mean) <= ON_RADIUS_RTOL * mean, f"mean radius {got_mean!r}")
        if projected:
            require(got_cv == 0.0 and got_std == 0.0, f"projected cv {got_cv!r} is not 0.0")
        else:
            require(abs(got_std - std) <= F32_RTOL * std, f"std radius {got_std!r}")

    return check


def check_swap(out_direction: Path, out_radius: Path, anchor, substitute):
    """Hybrids read back with the norms exchanged and directions kept."""
    anchor_norms = token_norms(anchor)
    substitute_norms = token_norms(substitute)

    def same_direction(a, b, a_norms, b_norms) -> bool:
        cos = np.einsum("ndhw,ndhw->nhw", a, b, dtype=np.float64) / (a_norms * b_norms)
        return bool(np.all(cos >= 1.0 - F32_RTOL))

    def check(out: str) -> None:
        keep_dir = read_container(out_direction)
        keep_rad = read_container(out_radius)
        require(keep_dir.shape == anchor.shape and keep_rad.shape == anchor.shape,
                "hybrid shapes differ from the inputs")
        dir_norms = token_norms(keep_dir)
        rad_norms = token_norms(keep_rad)
        require(np.allclose(dir_norms, substitute_norms, rtol=F32_RTOL, atol=0.0),
                "direction hybrid does not carry the substitute's norms")
        require(np.allclose(rad_norms, anchor_norms, rtol=F32_RTOL, atol=0.0),
                "radius hybrid does not carry the anchor's norms")
        require(same_direction(keep_dir, anchor, dir_norms, anchor_norms),
                "direction hybrid lost the anchor's directions")
        require(same_direction(keep_rad, substitute, rad_norms, substitute_norms),
                "radius hybrid lost the substitute's directions")

    return check


# ---------------------------------------------------------------------------
# workloads


def _seeds(seed: int, count: int = 8) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def build_train(seed: int, workdir: Path) -> Workload:
    seeds = _seeds(seed, 9)

    def train(i, kind, n_steps, descent=True):
        argv = ["train", "--out", str(workdir / f"train_{kind}.ckpt"), "--seed", str(seeds[i]),
                "--loss-kind", kind]
        if n_steps != TRAIN_STEPS:
            argv += ["--steps", str(n_steps)]
        return Command(argv, check_train(n_steps, descent), work=n_steps)

    slerp, linear = train(0, "slerp", ROUND_STEPS), train(1, "linear", ROUND_STEPS)
    noop = Command(["train", "--out", str(workdir / "noop.ckpt"), "--seed", str(seeds[2]),
                    "--steps", "0"], lambda out: json.loads(out))
    return Workload(
        "train", "train_steps_per_s", "steps/s", [slerp, linear], noop,
        largest=train(8, "slerp", TRAIN_STEPS),
        warmup=[train(3, "slerp", 20, False), train(4, "linear", 20, False)],
    )


def build_sample(seed: int, workdir: Path) -> Workload:
    seeds = _seeds(seed, 9)
    ckpt = str(workdir / "model.ckpt")
    train = ["train", "--out", ckpt, "--seed", str(seeds[0]), "--steps", str(CHECKPOINT_STEPS)]

    def sample(i, sampler, n, nfe):
        argv = ["sample", ckpt, "--seed", str(seeds[i]), "--n", str(n), "--nfe", str(nfe),
                "--sampler", sampler]
        return Command(argv, check_sample(sampler, n, nfe), work=n * nfe)

    commands = [sample(1 + i, s, SAMPLE_CHAINS, SAMPLE_NFE) for i, s in enumerate(SAMPLERS)]
    return Workload(
        "sample", "sample_chain_steps_per_s", "chain-steps/s", commands,
        noop=sample(4, "expmap", 1, 1), largest=sample(8, "expmap", PEAK_CHAINS, SAMPLE_NFE),
        prepare=[Command(train, check_train(CHECKPOINT_STEPS))],
        warmup=[sample(5 + i, s, 256, SAMPLE_NFE) for i, s in enumerate(SAMPLERS)],
    )


def build_profile(seed: int, workdir: Path, pairs: int = PROFILE_PAIRS) -> Workload:
    seeds = _seeds(seed)

    def paths(i, spec, kind, n_pairs, grid=PROFILE_GRID, radius=None):
        argv = ["paths", "--synthetic", spec, "--kind", kind, "--pairs", str(n_pairs),
                "--seed", str(seeds[i])]
        if grid != PROFILE_GRID:
            argv += ["--grid", str(grid)]
        return Command(argv, check_profile(grid, radius), work=n_pairs * grid)

    def kinds(offset, n_pairs, grid=PROFILE_GRID):
        return [
            paths(offset, SHELL_SPEC, "linear", n_pairs, grid),
            paths(offset + 1, SHELL_SPEC, "shell", n_pairs, grid),
            paths(offset + 2, SPHERE_SPEC, "slerp", n_pairs, grid, SPHERE_RADIUS),
        ]

    commands = kinds(0, pairs)
    return Workload(
        "profile", "profile_pair_points_per_s", "pair-points/s", commands,
        noop=paths(3, SPHERE_SPEC, "slerp", 1, grid=1, radius=SPHERE_RADIUS),
        largest=commands[-1], warmup=kinds(4, 64, grid=11),
    )


def latent_arrays(seed: int, shape=LATENT_SHAPE):
    """Anchor tokens are standard Gaussian; substitute tokens have uniform
    directions and Gaussian radii around 3 with cv 0.13, so the two norm
    distributions differ and a swap that fails to exchange them shows."""
    rng = np.random.default_rng(seed)
    anchor = rng.standard_normal(shape, dtype=np.float32)
    substitute = rng.standard_normal(shape, dtype=np.float32)
    n, _, h, w = shape
    radii = np.abs(rng.normal(3.0, 0.39, size=(n, 1, h, w))).astype(np.float32)
    substitute *= radii / token_norms(substitute)[:, None].astype(np.float32)
    return anchor, substitute


def build_latents(seed: int, workdir: Path, shape=LATENT_SHAPE) -> Workload:
    anchor, substitute = latent_arrays(seed, shape)
    paths = {name: workdir / f"{name}.slfm" for name in
             ("anchor", "substitute", "one_token", "keep_direction", "keep_radius")}
    write_container(paths["anchor"], anchor)
    write_container(paths["substitute"], substitute)
    write_container(paths["one_token"], anchor[:1, :, :1, :1])
    # The checks compare against what was stored, as the CLI reads it.
    anchor = read_container(paths["anchor"])
    substitute = read_container(paths["substitute"])

    norms = token_norms(anchor).ravel()
    mean = math.fsum(norms) / norms.size
    std = math.sqrt(math.fsum((norms - mean) ** 2) / norms.size)
    payload_mib = anchor.nbytes / MIB
    radius = math.sqrt(shape[1])
    stats = Command(["stats", str(paths["anchor"])],
                    check_stats(norms.size, mean, std, projected=False), work=payload_mib)
    projected = Command(["stats", str(paths["anchor"]), "--project", repr(radius)],
                        check_stats(norms.size, radius, 0.0, projected=True), work=payload_mib)
    swap = Command(
        ["swap", str(paths["anchor"]), str(paths["substitute"]),
         "--out-direction", str(paths["keep_direction"]),
         "--out-radius", str(paths["keep_radius"])],
        check_swap(paths["keep_direction"], paths["keep_radius"], anchor, substitute),
        work=4 * payload_mib,  # two containers read, two written
    )
    one = anchor[:1, :, :1, :1]
    one_norm = float(token_norms(one).ravel()[0])
    noop = Command(["stats", str(paths["one_token"])],
                   check_stats(1, one_norm, 0.0, projected=True))
    # A full warm-up round leaves the inputs in the page cache.
    return Workload("latents", "latents_mib_per_s", "MiB/s", [stats, projected, swap],
                    noop, largest=swap, warmup=[stats, projected, swap])


BY_NAME = {
    "train": build_train,
    "sample": build_sample,
    "profile": build_profile,
    "latents": build_latents,
}
NAMES = tuple(BY_NAME)


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BY_NAME[name](seed, Path(workdir))
