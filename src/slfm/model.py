"""Desk-scale flow matching: a small feedforward velocity field with exact
reverse-mode gradients, the plain and tangent-projected losses, logit-normal
time sampling with a rational timestep shift, an Adam-style optimizer written
out by hand, and three ODE samplers (Euler, projected Euler, exponential map).

Everything runs in float64 on numpy; no autodiff framework is involved, so
the gradient path is fully auditable against finite differences.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .errors import (
    ContainerFormatError,
    DimensionMismatch,
    DivergenceDetected,
    NearZeroNorm,
    RadiusMismatch,
    UnknownCondition,
)
from .paths import PathKind, _path_at, _path_setup, path_rows
from .sphere import (
    ON_SPHERE_RTOL,
    _expmap_into,
    _onto_sphere,
    _project_into,
    _row_sums_into,
    _tangent_into,
    project_rows,
    tangent_rows,  # unused here; the benchmark's tracer tests read model.tangent_rows
    token_radius,
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

# Rows per block for sampling and assignment_histogram.  _sample_blocks
# draws, integrates and checks its chains SAMPLE_BLOCK at a time, with
# forward buffers allocated once per block, and hands each block on once
# checked; so what a caller that consumes the blocks one by one holds stays
# fixed as n grows, and a chain's result does not depend on how many chains
# run beside it, nor on how many blocks run at once.
SAMPLE_BLOCK = 1024

# The sphere-preserving samplers keep a slerp field's chains within
# SPHERE_SAMPLER_RTOL * R of its sphere of radius R; a chain farther out
# has left it, which sample reports as divergence.
SPHERE_SAMPLERS = ("euler_project", "exp_map")
SPHERE_SAMPLER_RTOL = 1e-5

# Steps per chunk of train's batch preparation.  The parameter-free part of
# a step (its draws, their transforms, the path and the time embedding)
# runs once per chunk over TRAIN_CHUNK batches, in buffers allocated once
# per call, so Python and numpy dispatch is paid once for 16 steps.
TRAIN_CHUNK = 16

# The widest time embedding: sin/cos(pi * 2**j * t) for j below width / 2,
# whose top frequency pi * 2**1023 overflows to inf from width 2048 on.
TIME_DIM_MAX = 2046


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


def _check_time_dim(dim: int) -> None:
    """The rule for a time embedding width: even, from 2 to :data:`TIME_DIM_MAX`."""
    if dim < 2 or dim % 2:
        raise ValueError(f"time embedding width must be even and at least 2, got {dim!r}")
    if dim > TIME_DIM_MAX:
        raise ValueError(
            f"time embedding width must be at most {TIME_DIM_MAX}, got {dim!r}:"
            " its top frequency would overflow"
        )


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal features sin/cos(pi * 2**j * t), j = 0..dim/2-1."""
    _check_time_dim(dim)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return _time_embedding_into(t, np.empty((len(t), dim)))


def _time_embedding_into(t, out) -> np.ndarray:
    """:func:`time_embedding` of the 1-d times ``t`` written into ``out``,
    a ``(len(t), dim)`` block: the phases go into its cos half, the sin
    half is taken from them, and the cos half then in place.  Returns
    ``out``."""
    half = out.shape[1] // 2
    sin, cos = out[:, :half], out[:, half:]
    np.multiply(t[:, None], np.pi * 2.0 ** np.arange(half), out=cos)
    np.sin(cos, out=sin)
    np.cos(cos, out=cos)
    return out


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
        self.radius = token_radius(self.radius)
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
        _check_widths(self.widths)
        expect = self.d + self.time_dim + self.cond_table.shape[1]
        if self.weights[0].shape[0] != expect:
            raise DimensionMismatch(
                f"first layer width {self.weights[0].shape[0]} != d + embeddings {expect}"
            )
        _check_time_dim(self.time_dim)
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
            radius = math.sqrt(d)
        widths = [d + time_dim + cond_dim, *hidden, d]
        _check_widths(widths)
        weights = []
        biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        cond_table = rng.normal(0.0, 1.0, (n_cond, cond_dim))
        return cls(weights, biases, cond_table, kind, radius, time_dim)


def _check_widths(widths) -> None:
    """The sidecar schema's rule, for every field: no layer is empty."""
    if min(widths) < 1:
        raise DimensionMismatch(f"every layer width must be at least 1, got {list(widths)}")


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


def _check_conditions(field: VelocityField, cond) -> np.ndarray:
    """``cond`` as int64 condition ids, checked against the table first."""
    cond = np.asarray(cond)
    if cond.size and (cond.min() < 0 or cond.max() >= field.n_cond):
        raise UnknownCondition(
            f"condition ids must lie in [0, {field.n_cond}), got {cond.min()}..{cond.max()}"
        )
    return cond.astype(np.int64, copy=False)


def _layers(field: VelocityField, outs: list) -> np.ndarray:
    """The layer loop, given the first layer's affine part in ``outs[0]``:
    layer i of the field maps the rows before it into ``outs[i]``, an
    (n, widths[i+1]) buffer, as tanh(a @ W + b) for hidden layers and
    a @ W + b for the last.  Returns the last output."""
    a = outs[0]
    for w, b, out in zip(field.weights[1:], field.biases[1:], outs[1:]):
        np.tanh(a, out=a)
        np.matmul(a, w, out=out)
        out += b
        a = out
    return a


class _StepBuffers:
    """Every array a loss-and-gradient step over ``n`` rows writes into:
    the block input ``x`` [token, time embedding, condition], the layer
    outputs ``acts``, one ``(n, widths[i])`` buffer per layer for
    ``g @ W_i.T``, one per hidden layer for ``1 - a**2``, the loss's
    scratch (``sq``, ``(n, d)``, for the residual's products, and ``dot``
    and ``zz``, ``(n,)``, for their row sums, which the slerp kind's
    tangent projection shares), the flat gradient ``grad`` with its
    parameter views ``grads``, and the one time row ``time_row``, ``(1,
    time_dim)``; no other two share memory.  :func:`train` allocates one
    set per call and :func:`sample` one per block, and each reuses it every
    step; a step overwrites what it reads.  The full-input forward pass,
    :func:`_forward_embedded`, writes only ``x`` and ``acts``;
    :func:`_forward_rows`, at one time and one condition, writes only
    ``time_row`` and ``acts``, so ``x`` holds whatever the last full-input
    pass left."""

    def __init__(self, field: VelocityField, n: int):
        widths, cond_shape = field.widths, field.cond_table.shape
        self.x = np.empty((n, widths[0]))
        self.acts = [np.empty((n, w)) for w in widths[1:]]
        self.back = [np.empty((n, w)) for w in widths[:-1]]
        self.deriv = [np.empty((n, w)) for w in widths[1:-1]]
        self.sq = np.empty((n, field.d))
        self.dot, self.zz = np.empty((2, n))
        self.grad = np.empty(field.flat.size)
        self.grads = _param_views(self.grad, widths, cond_shape)
        self.time_row = np.empty((1, field.time_dim))


def _forward_rows(field: VelocityField, z, t: float, cond, work: _StepBuffers | None = None) -> np.ndarray:
    """The field's output at rows ``z``, all at the one time ``t`` under
    the one condition id ``cond`` (a sampler's step, or :func:`forward`),
    run through ``work`` (fresh buffers when it is None); the caller has
    checked the (n, d) shape and the id (see :func:`_check_conditions`).
    Returns ``work.acts[-1]``, and no cache: only :func:`_forward_embedded`
    leaves what :func:`_backward_rows` reads.

    Every row has the same time and condition columns, so their part of
    the first layer, ``emb(t) @ W0[d:d+td] + table[cond] @ W0[d+td:] + b0``,
    is one row, taken once, and the first layer is ``z @ W0[:d]`` plus that
    row; ``work.x`` is not written, and ``emb(t)`` goes into
    ``work.time_row`` unchecked, as the field's width was checked when it
    was built.  That rounds apart from the full-input product only in the
    last bits.  Per-row times or ids, as in training, take
    :func:`_forward_embedded`."""
    if work is None:
        work = _StepBuffers(field, len(z))
    d, split, w0 = field.d, field.d + field.time_dim, field.weights[0]
    emb = _time_embedding_into(np.array([t], dtype=np.float64), work.time_row)
    shared = emb[0] @ w0[d:split]
    shared += field.cond_table[cond] @ w0[split:]
    shared += field.biases[0]
    np.matmul(z, w0[:d], out=work.acts[0])
    work.acts[0] += shared
    return _layers(field, work.acts)


def _forward_embedded(field: VelocityField, z, emb, cond, work: _StepBuffers | None = None):
    """The field at rows ``z`` given the time embedding ``emb`` of their
    times (its rows, or one row for all) and the ids ``cond`` (one per row,
    or one for all), through the full input [token, time embedding,
    condition] written into ``work.x``: the field's input layout, in one
    place, and the only first layer :func:`train` and
    :func:`loss_and_grad` run.  Returns (output, cache for
    :func:`_backward_rows`); the output is ``work.acts[-1]``."""
    if work is None:
        work = _StepBuffers(field, len(z))
    d, time_dim, x = field.d, field.time_dim, work.x
    x[:, :d] = z
    x[:, d : d + time_dim] = emb
    # the one row of a single-condition table is every id's: no gather
    x[:, d + time_dim :] = field.cond_table[0] if field.n_cond == 1 else field.cond_table[cond]
    np.matmul(x, field.weights[0], out=work.acts[0])
    work.acts[0] += field.biases[0]
    return _layers(field, work.acts), (work, cond)


def _backward_rows(field: VelocityField, cache, g_out):
    """Gradient of sum(out * g_out) w.r.t. every parameter, written into
    the cache's flat ``work.grad``, which it returns.  ``matmul`` and
    ``add.reduce`` overwrite the weight and bias views, and
    :func:`_table_grad` the condition table's."""
    work, cond = cache
    acts, grads = [work.x, *work.acts[:-1]], work.grads
    g = g_out
    for i in range(len(field.weights) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads[2 * i])
        np.add.reduce(g, axis=0, out=grads[2 * i + 1])
        g = np.matmul(g, field.weights[i].T, out=work.back[i])
        if i:
            deriv = np.square(acts[i], out=work.deriv[i - 1])
            np.subtract(1.0, deriv, out=deriv)
            g *= deriv
    _table_grad(grads[-1], cond, g[:, field.d + field.time_dim :])
    return work.grad


def _table_grad(table, cond, rows) -> None:
    """Overwrite ``table`` with the sums of ``rows`` by their ids ``cond``
    (one per row, or one for all), with the bits of ``np.add.at`` into
    zeros: each row added in row order from +0.0.  A one-row table of two
    or more columns takes one ``add.reduce`` down the rows, which adds them
    in that order; it would sum a single column pairwise, so that table,
    and any other, is zeroed and takes ``np.add.at``."""
    if table.shape[0] == 1 and table.shape[1] != 1:
        np.add.reduce(rows, axis=0, initial=0.0, out=table[0])
    else:
        table.fill(0.0)
        np.add.at(table, np.broadcast_to(cond, rows.shape[:1]), rows)


def forward(field: VelocityField, z, t: float, cond: int) -> np.ndarray:
    """Evaluate the field at one token; ``t`` must lie in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (field.d,):
        raise DimensionMismatch(f"forward takes a single ({field.d},) token, got {z.shape}")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t!r} outside [0, 1]")
    return _forward_rows(field, z[None, :], t, _check_conditions(field, int(cond)))[0]


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
    Returns (loss, grads) with grads parallel to ``field.parameters()``:
    views of one fresh gradient vector.  :func:`train` runs the same step
    through buffers it allocates once and reuses every step.

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
    z_t, u_t = path_rows(z0, z1, t, PathKind(kind), radius=field.radius)
    cond = _check_conditions(field, cond)
    if z_t.ndim != 2 or z_t.shape[1] != field.d:
        raise DimensionMismatch(f"expected (n, {field.d}) tokens, got {z_t.shape}")
    loss, grad = _loss_step(field, (z_t, u_t, time_embedding(t, field.time_dim), cond), kind)
    return loss, _param_views(grad, field.widths, field.cond_table.shape)


def _loss_step(field: VelocityField, batch, kind: str, work: _StepBuffers | None = None):
    """:func:`loss_and_grad`'s loss and flat gradient at checked path rows
    ``(z_t, u_t, emb, cond)``, ``emb`` the time embedding of their times,
    run through ``work`` (fresh buffers when it is None); the gradient is
    ``work.grad``, or NaN for a non-finite loss."""
    z_t, u_t, emb, cond = batch
    pred, cache = _forward_embedded(field, z_t, emb, cond, work)
    work = cache[0]
    # the output buffer is not read by the backward pass, so the residual,
    # its tangent part and then the output gradient 2 * diff / n overwrite it
    diff = np.subtract(pred, u_t, out=pred)
    if kind == "slerp":
        _tangent_into(diff, z_t, work.sq, work.dot, work.zz, diff)
    # np.mean of the row sums is their add.reduce over n: the same bits
    rows = _row_sums_into(np.multiply(diff, diff, out=work.sq), work.dot)
    loss = float(np.add.reduce(rows)) / len(rows)
    if not math.isfinite(loss):
        # a diverged output has no gradient; the backward pass would only spread it
        return loss, np.full_like(field.flat, np.nan)
    diff *= 2.0
    diff /= pred.shape[0]
    return loss, _backward_rows(field, cache, diff)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment SGD with bias correction and decoupled weight decay
    (Kingma & Ba, arXiv:1412.6980; Loshchilov & Hutter, arXiv:1711.05101)."""

    def __init__(self, params, learning_rate: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        """Update every parameter in place through scratch allocated once.
        Each element sees m = B1*m + (1-B1)*g, v = B2*v + ((1-B2)*g)*g,
        p -= (lr*wd)*p, then p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        lr = self.learning_rate
        for p, g, m, v, (s, r) in zip(self.params, grads, self.m, self.v, self._scratch):
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=s)
            v += np.multiply(s, g, out=s)
            if self.weight_decay:
                p -= np.multiply(lr * self.weight_decay, p, out=s)
            np.divide(m, c1, out=s)
            s *= lr
            np.divide(v, c2, out=r)
            np.sqrt(r, out=r)
            r += ADAM_EPS
            p -= np.divide(s, r, out=s)


def clip_gradients(grads, max_norm: float) -> float:
    """Scale ``grads`` in place to global norm ``max_norm``; returns the
    pre-clip norm."""
    return _clip_by_squares(grads, [g * g for g in grads], max_norm)


def _clip_by_squares(grads, squares, max_norm: float) -> float:
    """:func:`clip_gradients` given ``squares``: arrays holding the squares
    of the gradient's elements, one per part whose sum enters the norm.
    ``grads`` may split the same elements into other parts, such as one
    flat vector for the views of ``squares``; each is scaled in place."""
    # add.reduce is np.sum without its dispatch: the same pairwise sums
    total = float(np.sqrt(sum(float(np.add.reduce(sq, axis=None)) for sq in squares)))
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
    push back to the radius.  ``labels`` maps centers to condition ids.
    ``weights`` are read once, when the dataset is built."""

    d: int
    radius: float
    centers: np.ndarray
    spread: float
    weights: np.ndarray
    labels: np.ndarray = None

    def __post_init__(self):
        self.radius = token_radius(self.radius)
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != self.d:
            raise DimensionMismatch(f"centers must be (k, {self.d})")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("centers must be finite")
        # a center far off the sphere may square past float max: its norm
        # is then inf, and off the sphere like any other
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.centers, axis=-1)
        dev = float(np.max(np.abs(norms - self.radius)))
        if dev > ON_SPHERE_RTOL * self.radius:
            raise RadiusMismatch(f"centers off the sphere by up to {dev!r}")
        if not (math.isfinite(self.spread) and self.spread > 0.0):
            raise ValueError(f"spread must be finite and positive, got {float(self.spread)!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        k = self.centers.shape[0]
        # NaN fails both bounds, and k weights of at most 1 cannot overflow
        if self.weights.shape != (k,) or not np.all((self.weights >= 0.0) & (self.weights <= 1.0)):
            raise ValueError("weights must be k reals in [0, 1]")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        # rng.choice(k, p=weights)'s CDF, built once; not a field, so asdict omits it
        cdf = np.cumsum(self.weights)
        self._cdf = cdf / cdf[-1]
        if self.labels is None:
            self.labels = np.zeros(k, dtype=np.int64)
        else:
            labels = np.asarray(self.labels)
            if labels.shape != (k,):
                raise DimensionMismatch("labels must give one condition id per center")
            if not (labels.dtype.kind in "iu" and np.can_cast(labels.dtype, np.int64)):
                raise ValueError(f"labels must be integer condition ids, got {labels.dtype} values")
            self.labels = labels.astype(np.int64)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    def sample(self, n: int, rng: np.random.Generator):
        """Draw n tokens, centers as ``rng.choice`` draws them; returns (rows, ids)."""
        return self._tokens(rng.random(n), rng.standard_normal((n, self.d)))

    def _tokens(self, u, noise):
        """The tokens and condition ids of :meth:`sample`'s draws: each
        uniform of ``u`` picks a center through the weights' CDF, and its
        row of standard normal ``noise``, scaled by ``spread`` in place,
        moves the center before the projection back to the radius."""
        comp = self._cdf.searchsorted(u, side="right")
        noise *= self.spread
        noise += self.centers[comp]
        return project_rows(noise, self.radius), self.labels[comp]


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


def _assignment_counts(rows, centers) -> np.ndarray:
    """int64 count of ``rows`` nearest to each center; the caller has checked
    that both are row stacks of equal width."""
    # a squared distance is at most 4 d top^2; past the float range, rows and
    # centers are scaled by one power of two, which moves no argmin
    top = float(max(np.max(np.abs(rows), initial=0.0), np.max(np.abs(centers), initial=0.0)))
    if 4.0 * top * top * centers.shape[1] > sys.float_info.max:
        scale = 2.0 ** -math.frexp(top)[1]
        rows, centers = rows * scale, centers * scale
    d2 = np.sum((rows[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.bincount(np.argmin(d2, axis=1), minlength=centers.shape[0])


def assignment_histogram(outputs, centers) -> np.ndarray:
    """Frequency of nearest-center assignment for each center."""
    outputs = np.asarray(outputs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if outputs.ndim != 2 or centers.ndim != 2 or outputs.shape[1] != centers.shape[1]:
        raise DimensionMismatch("outputs and centers must be row stacks of equal width")
    # counted SAMPLE_BLOCK rows at a time, the blocks sample hands on; each
    # row's nearest center is independent of the others
    counts = np.zeros(centers.shape[0], dtype=np.int64)
    for start in range(0, outputs.shape[0], SAMPLE_BLOCK):
        counts += _assignment_counts(outputs[start : start + SAMPLE_BLOCK], centers)
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

    return _times_of(_time_draws(rng, config, size), config)


def _time_draws(rng: np.random.Generator, config: TrainConfig, size):
    """:func:`sample_time`'s random numbers: uniforms, or normals of the
    configured mean and std."""
    if config.time_sampling == "uniform":
        return rng.uniform(size=size)
    return rng.normal(config.time_mean, config.time_std, size=size)


def _times_of(draws, config: TrainConfig):
    """:func:`sample_time`'s times from its draws: the logistic of normal
    draws, uniform draws as they are, clipped and shifted."""
    u = draws if config.time_sampling == "uniform" else 1.0 / (1.0 + np.exp(-draws))
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


class _TrainBatches:
    """The parameter-free part of up to ``steps`` train steps of one batch
    each, allocated once per :func:`train` call and refilled every chunk:
    each step's draws (mixture uniforms, noise rows, prior rows, time
    draws) and what its loss step reads of them (path rows, targets, time
    embedding rows, condition ids)."""

    def __init__(self, field: VelocityField, dataset: SyntheticDataset, config: TrainConfig, steps: int):
        self.field, self.dataset, self.config = field, dataset, config
        self.n, rows = config.batch_size, steps * config.batch_size
        self.mix, self.times = np.empty((2, rows))
        self.noise, self.prior, self.z_t, self.u_t = np.empty((4, rows, field.d))
        self.emb = np.empty((rows, field.time_dim))
        self.cond = np.empty(rows, dtype=np.int64)

    def fill(self, steps: int, rng: np.random.Generator) -> None:
        """Draw ``steps`` steps' random numbers from ``rng``, step by step
        in the order of :meth:`SyntheticDataset.sample`, :func:`prior_rows`
        and :func:`sample_time`, then prepare all of their batches at once
        through those functions' own transforms; raises as they do."""
        field, n, m = self.field, self.n, steps * self.n
        for first in range(0, m, n):
            rows = slice(first, first + n)
            rng.random(out=self.mix[rows])
            rng.standard_normal(out=self.noise[rows])
            rng.standard_normal(out=self.prior[rows])
            self.times[rows] = _time_draws(rng, self.config, n)
        z1, cond = self.dataset._tokens(self.mix[:m], self.noise[:m])
        z0 = self.prior[:m]
        if field.kind == "slerp":
            _onto_sphere(z0, field.radius, rng)
        t = _times_of(self.times[:m], self.config)
        pairs = _path_setup(z0, z1, PathKind(field.kind), field.radius)
        self.z_t[:m], self.u_t[:m] = _path_at(pairs, t)
        _time_embedding_into(t, self.emb[:m])
        self.cond[:m] = cond

    def batch(self, step: int):
        """Step ``step`` of the chunk as :func:`_loss_step` takes it:
        views ``(z_t, u_t, emb, cond)`` of its rows."""
        rows = slice(step * self.n, (step + 1) * self.n)
        return self.z_t[rows], self.u_t[rows], self.emb[rows], self.cond[rows]


def train(
    field: VelocityField,
    dataset: SyntheticDataset,
    config: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run mini-batch training in place; returns the per-step loss trace.

    Batches are prepared :data:`TRAIN_CHUNK` steps at a time: the chunk's
    draws are made step by step, in the order of the loop of public pieces
    (:meth:`SyntheticDataset.sample`, :func:`prior_rows`,
    :func:`sample_time`), and their transforms, path rows and time
    embedding then run once over all of its rows (see
    :class:`_TrainBatches`).  Each step runs :func:`loss_and_grad`'s
    arithmetic, not its checks, through buffers allocated once per call,
    clips the flat gradient through one flat square and steps :class:`Adam`
    over ``field.flat`` as one vector.  So the trace, the parameters and
    the generator's final state equal those of the loop of public pieces,
    bit for bit, but in two cases of probability zero or bad input: a prior
    row below the norm floor is drawn again after its chunk's draws, and an
    error from preparing a chunk is raised before the chunk's earlier steps
    run.  Overflow in a diverging step is not warned about; its non-finite
    loss, or parameters after the last step that are non-finite in 32-bit
    storage, raise :class:`DivergenceDetected`."""
    if config.loss_kind != field.kind:
        raise ValueError(
            f"config loss kind {config.loss_kind!r} does not match field kind {field.kind!r}"
        )
    if dataset.d != field.d:
        raise DimensionMismatch("dataset and field dimensions differ")
    _check_conditions(field, dataset.labels)  # the only ids a batch draws
    work = _StepBuffers(field, config.batch_size)
    batches = _TrainBatches(field, dataset, config, min(TRAIN_CHUNK, config.steps))
    squares = np.empty_like(work.grad)
    square_views = _param_views(squares, field.widths, field.cond_table.shape)
    opt = Adam([field.flat], config.learning_rate, config.weight_decay)
    trace = np.empty(config.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, config.steps, TRAIN_CHUNK):
            steps = min(TRAIN_CHUNK, config.steps - first)
            batches.fill(steps, rng)
            for i in range(steps):
                loss, grad = _loss_step(field, batches.batch(i), config.loss_kind, work)
                if not math.isfinite(loss):
                    raise DivergenceDetected(f"non-finite loss at step {first + i}")
                np.multiply(grad, grad, out=squares)
                _clip_by_squares([grad], square_views, config.grad_clip)
                opt.step([grad])
                trace[first + i] = loss
        # a checkpoint stores the parameters in 32-bit, so parameters past
        # that range have diverged as surely as non-finite ones
        if not np.all(np.isfinite(field.flat.astype(np.float32))):
            raise DivergenceDetected(
                f"non-finite parameters in 32-bit storage after step {config.steps - 1}"
            )
    return trace


# ---------------------------------------------------------------------------
# sampling


@dataclass
class SampleRun:
    """What :func:`sample` returns: the outputs, one row per chain, and
    max |norm - R| / R over them."""

    sampler: str
    nfe: int
    outputs: np.ndarray
    max_radius_deviation: float


def _check_sampler(sampler: str, nfe: int) -> None:
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    if nfe < 1:
        raise ValueError("nfe must be at least 1")


def integrate(vel_fn, z0, nfe: int, sampler: str, radius: float) -> np.ndarray:
    """Drive rows from t=0 to t=1 on the uniform grid t_k = k/nfe.

    ``vel_fn(z_rows, t)`` supplies the velocity, which no step writes into.
    The exp_map sampler tangent-projects the velocity before each step.
    Each step runs in place, through one set of buffers per call, and has
    the bits of the public row functions: ``z + h v`` for euler,
    :func:`project_rows` of it for euler_project, and
    ``expmap_rows(z, h * tangent_rows(v, z), radius)`` for exp_map.  No
    step checks the rows; :func:`_sample_blocks` checks each block's result
    once, from one pass over its norms.
    """

    _check_sampler(sampler, nfe)
    z = np.array(z0, dtype=np.float64, copy=True)
    h = 1.0 / nfe
    step, sq = np.empty_like(z), np.empty_like(z)
    a, b, c = (np.empty(z.shape[:-1]) for _ in range(3))
    for k in range(nfe):
        v = vel_fn(z, k / nfe)
        if sampler == "euler":
            z += np.multiply(v, h, out=step)
        elif sampler == "euler_project":
            np.add(z, np.multiply(v, h, out=step), out=step)
            _project_into(step, radius, a, z)
        else:
            _tangent_into(v, z, sq, a, b, step)
            step *= h
            _expmap_into(z, step, radius, sq, a, b, c, z)
    return z


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _run_ranges(fn, ranges) -> list:
    """``fn(r)`` for every range ``r`` at once, each under the caller's numpy
    error state: the first on this thread, each other on a thread of its
    own.  Joins every thread, then raises the first range's error, in range
    order, as a loop over the ranges would; else returns what each call
    returned, in range order."""
    errstate = np.geterr()
    returned, raised = [None] * len(ranges), [None] * len(ranges)

    def call(i):
        try:
            # errstate is per thread: each range enters the caller's
            with np.errstate(**errstate):
                returned[i] = fn(ranges[i])
        except BaseException as exc:  # raised below, in range order
            raised[i] = exc

    started = []
    try:
        for i in range(1, len(ranges)):
            thread = threading.Thread(target=call, args=(i,))
            thread.start()
            started.append(thread)
        call(0)
    finally:
        for thread in started:
            thread.join()
    for exc in raised:
        if exc is not None:
            raise exc
    return returned


def _sample_blocks(field: VelocityField, n: int, sampler: str, nfe: int, cond: int, rng):
    """Integrate ``n`` chains from the field's prior, :data:`SAMPLE_BLOCK`
    rows at a time: one :func:`integrate` per block, whose velocity is
    :func:`_forward_rows` run through buffers allocated once per block.
    Checks ``n``, the sampler, ``nfe`` and ``cond`` before it returns, then
    yields ``(rows, dev)`` for each block in row order, where ``dev`` is the
    block's largest |norm - R|; the rows are the block's own.

    The blocks share nothing, so they run in waves of as many blocks as
    this process has usable CPUs, through :func:`_run_ranges`; every
    block's arithmetic is the same as alone, so the outputs do not depend
    on the CPU count.  Each wave draws its blocks' prior rows in row order
    before it starts, the random stream of one ``(n, d)`` draw.  Each block
    checks its own chains on its own thread, from one pass over their norms,
    which overflow does not warn about: a non-finite norm (a diverging
    chain, whichever the sampler) raises :class:`DivergenceDetected`, and so
    does a chain of a sphere-preserving sampler on a slerp field that ends
    off the sphere (see :data:`SPHERE_SAMPLER_RTOL`) or a projected chain
    that collapses to the origin.  The first bad block of a wave in row
    order, or the first whose integration raised, is raised before any
    block of that wave is handed on; no later wave starts."""
    if n < 1:
        raise ValueError("need at least one chain")
    _check_sampler(sampler, nfe)
    cond = _check_conditions(field, int(cond))
    on_sphere = field.kind == "slerp" and sampler in SPHERE_SAMPLERS
    starts = range(0, n, SAMPLE_BLOCK)
    width = min(len(starts), _usable_cpus())

    def integrate_block(job):
        block, z0 = job
        named = f"rows {block.start}..{block.stop - 1}"
        work = _StepBuffers(field, len(z0))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                rows = integrate(
                    lambda z, t: _forward_rows(field, z, t, cond, work),
                    z0, nfe, sampler, field.radius,
                )
            except NearZeroNorm as exc:  # only a projected chain can raise it
                raise DivergenceDetected(f"chains among {named} collapsed: {exc}") from None
            norms = np.linalg.norm(rows, axis=-1)
            dev = float(np.max(np.abs(norms - field.radius)))
        if not np.all(np.isfinite(norms)):
            raise DivergenceDetected(f"non-finite chains among {named}")
        if on_sphere and dev > SPHERE_SAMPLER_RTOL * field.radius:
            raise DivergenceDetected(f"chains among {named} left the sphere by {dev!r}")
        return rows, dev

    def waves():
        for first in range(0, len(starts), width):
            wave = [range(s, min(s + SAMPLE_BLOCK, n)) for s in starts[first : first + width]]
            yield from _run_ranges(
                integrate_block, [(block, prior_rows(field, len(block), rng)) for block in wave]
            )

    return waves()


def sample(
    field: VelocityField,
    n: int,
    sampler: str,
    nfe: int,
    cond: int,
    rng: np.random.Generator,
) -> SampleRun:
    """The blocks of :func:`_sample_blocks`, gathered: the ``(n, d)``
    outputs and the largest |norm - R| over them, divided by R."""
    blocks = _sample_blocks(field, n, sampler, nfe, cond, rng)
    outputs = np.empty((n, field.d))
    dev, start = 0.0, 0
    for rows, block_dev in blocks:
        outputs[start : start + len(rows)] = rows
        dev, start = max(dev, block_dev), start + len(rows)
    return SampleRun(sampler, nfe, outputs, dev / field.radius)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, field: VelocityField, config: TrainConfig | None = None, extra: dict | None = None) -> None:
    """Parameter blob as a 1-item container plus a JSON sidecar at
    ``path + ".json"``.  Parameters are stored in 32-bit like any payload;
    the sidecar's ``payload_sha256`` binds it to the blob's bytes.

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
        meta["payload_sha256"] = _sha256_of(blob_temp)
        with open(sidecar_temp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


# the flush save_checkpoint hands to container.replacing, named here so that
# the order of a save's flushes and renames can be watched
_fsync = container._fsync


def _sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_real(value) -> bool:
    """A finite JSON number; an integer past the float range is not one."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


# What load_checkpoint needs from a sidecar: key -> validity test.
_SIDECAR_SCHEMA = {
    "format": lambda v: v == CHECKPOINT_FORMAT,
    "format_version": lambda v: type(v) is int and v == CHECKPOINT_VERSION,
    "widths": lambda v: type(v) is list and len(v) >= 2 and all(_is_count(w) and w > 0 for w in v),
    "n_cond": _is_count,
    "cond_dim": _is_count,
    "time_dim": _is_count,
    "kind": lambda v: type(v) is str,
    "radius": _is_real,
    "param_count": _is_count,
    "payload_sha256": lambda v: type(v) is str and re.fullmatch("[0-9a-f]{64}", v) is not None,
}


def load_checkpoint(path):
    """Rebuild (field, sidecar dict) from :func:`save_checkpoint` output.

    A sidecar missing a key of ``_SIDECAR_SCHEMA``, or holding a value of
    the wrong type there, or a blob whose sha256 is not the sidecar's
    ``payload_sha256`` (a blob swapped for another, or a new blob beside an
    old sidecar), raises :class:`ContainerFormatError`.  ``extra`` is
    returned as written; it is not inspected."""
    sidecar = str(path) + ".json"
    with open(sidecar, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ContainerFormatError(f"{sidecar}: not a JSON object")
    for key, valid in _SIDECAR_SCHEMA.items():
        if not valid(meta.get(key)):
            raise ContainerFormatError(f"{sidecar}: {key!r} missing or invalid: {meta.get(key)!r}")
    if _sha256_of(path) != meta["payload_sha256"]:
        raise ContainerFormatError(f"{path}: blob does not match the sha256 its sidecar records")
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
