"""Desk-scale flow matching: a small feedforward velocity field with exact
reverse-mode gradients, the plain and tangent-projected losses, logit-normal
time sampling with a rational timestep shift, an Adam-style optimizer written
out by hand, and three ODE samplers (Euler, projected Euler, exponential map).

Everything runs in float64 on numpy; no autodiff framework is involved, so
the gradient path is fully auditable against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .errors import (
    ContainerFormatError,
    DimensionMismatch,
    DivergenceDetected,
    RadiusMismatch,
    UnknownCondition,
)
from .paths import PathKind, path_rows
from .sphere import (
    ON_SPHERE_RTOL,
    expmap_rows,
    project_rows,
    tangent_rows,
    uniform_rows,
)

LOSS_KINDS = ("linear", "slerp")
SAMPLERS = ("euler", "euler_project", "exp_map")
TIME_SAMPLING = ("uniform", "logit-normal")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT = "slfm-checkpoint"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# time handling


def timestep_shift(u, s: float):
    """Rational shift t = s*u / (1 + (s-1)*u); monotone on [0,1] for s > 0."""
    s = float(s)
    if s <= 0.0:
        raise ValueError("shift must be positive")
    u = np.asarray(u, dtype=np.float64)
    out = s * u / (1.0 + (s - 1.0) * u)
    return float(out) if out.ndim == 0 else out


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal features sin/cos(pi * 2**j * t), j = 0..dim/2-1."""
    if dim < 2 or dim % 2:
        raise ValueError("embedding width must be even and at least 2")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    freqs = np.pi * 2.0 ** np.arange(dim // 2)
    phase = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=1)


# ---------------------------------------------------------------------------
# configuration and network


@dataclass
class TrainConfig:
    learning_rate: float = 3e-3
    batch_size: int = 128
    steps: int = 2000
    time_sampling: str = "logit-normal"
    time_mean: float = 0.0
    time_std: float = 1.0
    shift: float = 1.0
    loss_kind: str = "slerp"
    seed: int = 0
    weight_decay: float = 0.0
    grad_clip: float = 1.0

    def __post_init__(self):
        for name in ("learning_rate", "time_mean", "time_std", "shift", "weight_decay", "grad_clip"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("batch size must be positive, steps nonnegative")
        if self.time_sampling not in TIME_SAMPLING:
            raise ValueError(f"time sampling must be one of {TIME_SAMPLING}")
        if self.time_std <= 0.0:
            raise ValueError("time std must be positive")
        if self.shift < 1.0:
            raise ValueError("shift below 1 is not monotone-preserving here")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}")
        if self.weight_decay < 0.0 or self.grad_clip <= 0.0:
            raise ValueError("weight decay nonnegative, grad clip positive")


@dataclass
class VelocityField:
    """Feedforward net v(z, t, cond): tanh hidden layers, linear output.

    Input is the concatenation of the token, a sinusoidal time embedding,
    and a learned per-condition embedding row.  All parameters are views of
    one float64 vector ``flat``, in the layout of :func:`_param_views`.
    """

    weights: list
    biases: list
    cond_table: np.ndarray
    kind: str
    radius: float
    time_dim: int

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"field kind must be one of {LOSS_KINDS}")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DimensionMismatch("weights and biases must pair up")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        self.cond_table = np.asarray(self.cond_table, dtype=np.float64)
        if self.cond_table.ndim != 2:
            raise DimensionMismatch("condition table must be 2-d (n_cond, cond_dim)")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise DimensionMismatch("layer shapes inconsistent")
        for a, b in zip(self.weights[:-1], self.weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise DimensionMismatch("consecutive layer widths do not chain")
        expect = self.d + self.time_dim + self.cond_table.shape[1]
        if self.weights[0].shape[0] != expect:
            raise DimensionMismatch(
                f"first layer width {self.weights[0].shape[0]} != d + embeddings {expect}"
            )
        pairs = [p for w, b in zip(self.weights, self.biases) for p in (w, b)]
        self.flat = np.concatenate([p.ravel() for p in (*pairs, self.cond_table)])
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("non-finite parameters")
        p = self._params = _param_views(self.flat, self.widths, self.cond_table.shape)
        self.weights, self.biases, self.cond_table = p[0:-1:2], p[1:-1:2], p[-1]

    @property
    def d(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def n_cond(self) -> int:
        return self.cond_table.shape[0]

    @property
    def widths(self) -> list:
        return [int(w.shape[0]) for w in self.weights] + [self.d]

    def parameters(self) -> list:
        return self._params

    @classmethod
    def create(
        cls,
        d: int,
        hidden=(64, 64),
        time_dim: int = 16,
        n_cond: int = 1,
        cond_dim: int = 8,
        kind: str = "slerp",
        radius: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> "VelocityField":
        if rng is None:
            rng = np.random.default_rng()
        if radius is None:
            radius = float(np.sqrt(d))
        widths = [d + time_dim + cond_dim, *hidden, d]
        weights = []
        biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        cond_table = rng.normal(0.0, 1.0, (n_cond, cond_dim))
        return cls(weights, biases, cond_table, kind, radius, time_dim)


def _param_views(flat: np.ndarray, widths, cond_shape) -> list:
    """The parameter layout: C-order views [W0, b0, W1, b1, ..., table] of
    the 1-d vector ``flat``, W_i of shape (widths[i], widths[i+1]), b_i of
    shape (widths[i+1],), the table of ``cond_shape``.  Raises
    :class:`ContainerFormatError` unless the layout fills ``flat`` exactly."""
    layers = list(zip(widths[:-1], widths[1:]))
    size = sum((n_in + 1) * n_out for n_in, n_out in layers) + math.prod(cond_shape)
    if size != flat.size:
        raise ContainerFormatError(f"parameter layout holds {size} values, not {flat.size}")
    views, offset = [], 0
    for n_in, n_out in layers:
        end = offset + n_in * n_out
        views += [flat[offset:end].reshape(n_in, n_out), flat[end : end + n_out]]
        offset = end + n_out
    return views + [flat[offset:].reshape(cond_shape)]


def _forward_rows(field: VelocityField, z, t, cond):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != field.d:
        raise DimensionMismatch(f"expected (n, {field.d}) tokens, got {z.shape}")
    n = z.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
    cond = np.broadcast_to(np.asarray(cond, dtype=np.int64), (n,))
    if cond.size and (cond.min() < 0 or cond.max() >= field.n_cond):
        raise UnknownCondition(
            f"condition ids must lie in [0, {field.n_cond}), got {cond.min()}..{cond.max()}"
        )
    x = np.concatenate([z, time_embedding(t, field.time_dim), field.cond_table[cond]], axis=1)
    acts = [x]
    a = x
    for w, b in zip(field.weights[:-1], field.biases[:-1]):
        a = np.tanh(a @ w + b)
        acts.append(a)
    out = acts[-1] @ field.weights[-1] + field.biases[-1]
    return out, (acts, cond)


def _backward_rows(field: VelocityField, cache, g_out):
    """Gradients of sum(out * g_out) w.r.t. every parameter."""
    acts, cond = cache
    grads = _param_views(np.zeros(field.flat.size), field.widths, field.cond_table.shape)
    g = g_out
    for i in range(len(field.weights) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads[2 * i])
        np.sum(g, axis=0, out=grads[2 * i + 1])
        g = g @ field.weights[i].T
        if i:
            g = g * (1.0 - acts[i] ** 2)
    np.add.at(grads[-1], cond, g[:, field.d + field.time_dim :])
    return grads


def forward(field: VelocityField, z, t: float, cond: int) -> np.ndarray:
    """Evaluate the field at one token; ``t`` must lie in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionMismatch("forward takes a single token vector")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t!r} outside [0, 1]")
    out, _ = _forward_rows(field, z[None, :], t, int(cond))
    return out[0]


# ---------------------------------------------------------------------------
# losses


def loss_and_grad(field: VelocityField, batch, kind: str):
    """Mean squared velocity error over a batch and its exact gradient.

    ``batch`` is (z0, z1, t, cond) row stacks.  The ``slerp`` kind scores
    only the tangent part of the residual: it projects ``pred - u_t`` once
    at z_t, relying on the geodesic target ``u_t`` being tangent already.
    The projection is linear, symmetric and idempotent, so the gradient of
    the squared projected residual is the projected residual itself, and
    both kinds backprop ``2 * diff / n``.  Endpoints off the field's
    sphere raise :class:`RadiusMismatch` from :func:`path_rows`.
    Returns (loss, grads) with grads parallel to ``field.parameters()``.

    A non-finite model output (a diverged field) yields a non-finite loss
    and NaN grads in either kind, which :func:`train` reports as
    :class:`DivergenceDetected`.  Non-finite batch inputs (``z0``, ``z1``,
    ``t``) are the caller's error and raise ``ValueError`` in either kind;
    the endpoints are checked by :func:`path_rows`.
    """

    if kind not in LOSS_KINDS:
        raise ValueError(f"loss kind must be one of {LOSS_KINDS}")
    z0, z1, t, cond = batch
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite values in t")
    if kind == "slerp":
        z_t, u_t = path_rows(z0, z1, t, PathKind.SLERP, radius=field.radius)
    else:
        z_t, u_t = path_rows(z0, z1, t, PathKind.LINEAR)

    pred, cache = _forward_rows(field, z_t, t, cond)
    if not np.all(np.isfinite(pred)):
        # checked here, before the validating tangent projection can mistake
        # the field's own overflow for bad input
        nan = np.full_like(field.flat, np.nan)
        return float("nan"), _param_views(nan, field.widths, field.cond_table.shape)
    diff = pred - u_t
    if kind == "slerp":
        diff = tangent_rows(diff, z_t)
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    return loss, _backward_rows(field, cache, 2.0 * diff / pred.shape[0])


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment SGD with bias correction and decoupled weight decay."""

    def __init__(self, params, learning_rate: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            if self.weight_decay:
                p[...] -= self.learning_rate * self.weight_decay * p
            p[...] -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def clip_gradients(grads, max_norm: float) -> float:
    """Scale ``grads`` in place to global norm ``max_norm``; returns the
    pre-clip norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


# ---------------------------------------------------------------------------
# data


@dataclass
class SyntheticDataset:
    """Projected-Gaussian mixture on the sphere: sample around a center,
    push back to the radius.  ``labels`` maps centers to condition ids."""

    d: int
    radius: float
    centers: np.ndarray
    spread: float
    weights: np.ndarray
    labels: np.ndarray = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != self.d:
            raise DimensionMismatch(f"centers must be (k, {self.d})")
        dev = np.max(np.abs(np.linalg.norm(self.centers, axis=-1) - self.radius))
        if dev > ON_SPHERE_RTOL * self.radius:
            raise RadiusMismatch(f"centers off the sphere by up to {dev!r}")
        if self.spread <= 0.0:
            raise ValueError("spread must be positive")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        k = self.centers.shape[0]
        if self.weights.shape != (k,) or np.any(self.weights < 0.0):
            raise ValueError("weights must be k nonnegative reals")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.labels is None:
            self.labels = np.zeros(k, dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (k,):
                raise DimensionMismatch("labels must give one condition id per center")

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    def sample(self, n: int, rng: np.random.Generator):
        """Draw n tokens; returns (rows, condition ids)."""
        comp = rng.choice(self.n_centers, size=n, p=self.weights)
        noise = self.spread * rng.standard_normal((n, self.d))
        rows = project_rows(self.centers[comp] + noise, self.radius)
        return rows, self.labels[comp]


def random_dataset(
    d: int,
    radius: float,
    n_centers: int,
    spread: float,
    rng: np.random.Generator,
    weights=None,
) -> SyntheticDataset:
    """Dataset with uniformly drawn centers; weights default to uniform."""
    if n_centers < 1:
        raise ValueError("need at least one center")
    centers = uniform_rows(n_centers, d, radius, rng)
    if weights is None:
        weights = np.full(n_centers, 1.0 / n_centers)
    return SyntheticDataset(d, radius, centers, spread, np.asarray(weights, float))


def assignment_histogram(outputs, centers) -> np.ndarray:
    """Frequency of nearest-center assignment for each center."""
    outputs = np.asarray(outputs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if outputs.ndim != 2 or centers.ndim != 2 or outputs.shape[1] != centers.shape[1]:
        raise DimensionMismatch("outputs and centers must be row stacks of equal width")
    d2 = np.sum((outputs[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    nearest = np.argmin(d2, axis=1)
    counts = np.bincount(nearest, minlength=centers.shape[0])
    return counts / outputs.shape[0]


# ---------------------------------------------------------------------------
# training


def prior_rows(field: VelocityField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Noise endpoint for the field's kind: standard Gaussian rows for the
    linear kind, uniform sphere rows for the slerp kind."""
    if field.kind == "slerp":
        return uniform_rows(n, field.d, field.radius, rng)
    return rng.standard_normal((n, field.d))


def sample_time(rng: np.random.Generator, config: TrainConfig, size=None):
    """Draw training times: uniform or logit-normal, then the shift map.

    Draws are nudged into the open interval so t never hits 0 or 1 exactly.
    """

    if config.time_sampling == "uniform":
        u = rng.uniform(size=size)
    else:
        u = 1.0 / (1.0 + np.exp(-rng.normal(config.time_mean, config.time_std, size=size)))
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return timestep_shift(u, config.shift)


# Window for the smoothed initial/final loss readings.  25 steps averages
# 3200 samples at the default batch size, enough to damp batch noise while
# staying a small prefix of a 2000-step run (the first 100 steps already
# descend well below the untrained loss).
SMOOTH_WINDOW = 25


def smoothed_endpoints(trace, window: int = SMOOTH_WINDOW):
    """Mean loss over the first and last ``window`` steps of a trace."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.size == 0:
        raise ValueError("empty loss trace")
    w = max(1, min(int(window), trace.size))
    return float(trace[:w].mean()), float(trace[-w:].mean())


def train(
    field: VelocityField,
    dataset: SyntheticDataset,
    config: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run mini-batch training in place; returns the per-step loss trace."""
    if config.loss_kind != field.kind:
        raise ValueError(
            f"config loss kind {config.loss_kind!r} does not match field kind {field.kind!r}"
        )
    if dataset.d != field.d:
        raise DimensionMismatch("dataset and field dimensions differ")
    opt = Adam(field.parameters(), config.learning_rate, config.weight_decay)
    trace = np.empty(config.steps)
    for step in range(config.steps):
        z1, cond = dataset.sample(config.batch_size, rng)
        z0 = prior_rows(field, config.batch_size, rng)
        t = sample_time(rng, config, size=config.batch_size)
        loss, grads = loss_and_grad(field, (z0, z1, t, cond), config.loss_kind)
        if not np.isfinite(loss):
            raise DivergenceDetected(f"non-finite loss at step {step}")
        clip_gradients(grads, config.grad_clip)
        opt.step(grads)
        trace[step] = loss
    return trace


# ---------------------------------------------------------------------------
# sampling


@dataclass
class SampleRun:
    sampler: str
    nfe: int
    outputs: np.ndarray
    kind: str
    radius: float

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if self.nfe < 1:
            raise ValueError("nfe must be at least 1")
        self.outputs = np.asarray(self.outputs, dtype=np.float64)
        if self.kind == "slerp" and self.sampler in ("euler_project", "exp_map"):
            dev = np.max(
                np.abs(np.linalg.norm(self.outputs, axis=-1) - self.radius)
            )
            if dev > 1e-5 * self.radius:
                raise ValueError(
                    f"sphere-preserving sampler left the sphere by {dev!r}"
                )

    @property
    def max_radius_deviation(self) -> float:
        """max |norm - R| / R over the outputs."""
        dev = np.abs(np.linalg.norm(self.outputs, axis=-1) - self.radius)
        return float(np.max(dev)) / self.radius


def integrate(vel_fn, z0, nfe: int, sampler: str, radius: float) -> np.ndarray:
    """Drive rows from t=0 to t=1 on the uniform grid t_k = k/nfe.

    ``vel_fn(z_rows, t)`` supplies the velocity.  The exp_map sampler
    tangent-projects the velocity before each step.
    """

    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    if nfe < 1:
        raise ValueError("nfe must be at least 1")
    z = np.array(z0, dtype=np.float64, copy=True)
    h = 1.0 / nfe
    for k in range(nfe):
        v = vel_fn(z, k / nfe)
        if sampler == "euler":
            z = z + h * v
        elif sampler == "euler_project":
            z = project_rows(z + h * v, radius)
        else:
            z = expmap_rows(z, h * tangent_rows(v, z), radius)
    return z


def sample(
    field: VelocityField,
    n: int,
    sampler: str,
    nfe: int,
    cond: int,
    rng: np.random.Generator,
) -> SampleRun:
    """Integrate ``n`` chains from the field's prior."""
    if n < 1:
        raise ValueError("need at least one chain")
    z0 = prior_rows(field, n, rng)

    def vel(z, t):
        out, _ = _forward_rows(field, z, t, int(cond))
        return out

    outputs = integrate(vel, z0, nfe, sampler, field.radius)
    return SampleRun(sampler, nfe, outputs, field.kind, field.radius)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, field: VelocityField, config: TrainConfig | None = None, extra: dict | None = None) -> None:
    """Parameter blob as a 1-item container plus a JSON sidecar at
    ``path + ".json"``.  Parameters are stored in 32-bit like any payload.

    Both files are written to temporary names beside their targets,
    flushed to disk, and moved over them with ``os.replace`` only once both
    writes succeeded, so a failed write leaves the previous checkpoint as it
    was and a crash cannot leave a renamed file without its data."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "widths": field.widths,
        "time_dim": field.time_dim,
        "n_cond": field.n_cond,
        "cond_dim": int(field.cond_table.shape[1]),
        "kind": field.kind,
        "radius": field.radius,
        "param_count": int(field.flat.size),
    }
    if config is not None:
        meta["config"] = asdict(config)
    if extra:
        meta["extra"] = extra
    blob, sidecar = str(path), str(path) + ".json"
    with container.replacing([blob, sidecar], fsync=_fsync) as (blob_temp, sidecar_temp):
        container.write_container(blob_temp, field.flat.reshape(1, field.flat.size, 1, 1))
        with open(sidecar_temp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


# the flush save_checkpoint hands to container.replacing, named here so that
# the order of a save's flushes and renames can be watched
_fsync = container._fsync


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


# What load_checkpoint needs from a sidecar: key -> validity test.
_SIDECAR_SCHEMA = {
    "format": lambda v: v == CHECKPOINT_FORMAT,
    "format_version": lambda v: type(v) is int and v == CHECKPOINT_VERSION,
    "widths": lambda v: type(v) is list and len(v) >= 2 and all(_is_count(w) and w > 0 for w in v),
    "n_cond": _is_count,
    "cond_dim": _is_count,
    "time_dim": _is_count,
    "kind": lambda v: type(v) is str,
    "radius": lambda v: type(v) in (int, float) and np.isfinite(v),
    "param_count": _is_count,
}


def load_checkpoint(path):
    """Rebuild (field, sidecar dict) from :func:`save_checkpoint` output.

    A sidecar missing a key of ``_SIDECAR_SCHEMA``, or holding a value of
    the wrong type there, raises :class:`ContainerFormatError`."""
    sidecar = str(path) + ".json"
    with open(sidecar, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ContainerFormatError(f"{sidecar}: not a JSON object")
    for key, valid in _SIDECAR_SCHEMA.items():
        if not valid(meta.get(key)):
            raise ContainerFormatError(f"{sidecar}: {key!r} missing or invalid: {meta.get(key)!r}")
    flat = container.read_container(path).ravel()
    if flat.size != meta["param_count"]:
        raise DimensionMismatch(
            f"blob holds {flat.size} parameters, sidecar says {meta['param_count']}"
        )
    params = _param_views(flat, meta["widths"], (meta["n_cond"], meta["cond_dim"]))
    field = VelocityField(
        params[0:-1:2], params[1:-1:2], params[-1], meta["kind"], meta["radius"], meta["time_dim"]
    )
    return field, meta
