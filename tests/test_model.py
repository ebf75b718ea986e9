"""Velocity-field network, losses, optimizer, training loop, samplers, and
checkpoints."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pickle
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slfm import container, diagnostics, model, sphere
from slfm.errors import (
    ContainerFormatError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyInput,
    NearZeroNorm,
    RadiusMismatch,
    UnknownCondition,
)
from slfm.model import (
    Adam,
    SampleRun,
    SyntheticDataset,
    TrainConfig,
    VelocityField,
    assignment_histogram,
    clip_gradients,
    forward,
    integrate,
    load_checkpoint,
    loss_and_grad,
    prior_rows,
    random_dataset,
    sample,
    sample_time,
    save_checkpoint,
    smoothed_endpoints,
    time_embedding,
    timestep_shift,
    train,
)
from slfm.paths import PathKind, path_rows
from test_sphere import _near_antipodal_pairs


def _tiny_field(rng, d=5, kind="slerp", hidden=(12,), n_cond=3):
    return VelocityField.create(
        d=d,
        hidden=hidden,
        time_dim=8,
        n_cond=n_cond,
        cond_dim=4,
        kind=kind,
        radius=math.sqrt(d),
        rng=rng,
    )


def _batch_for(field, n, rng):
    if field.kind == "slerp":
        z0 = sphere.uniform_rows(n, field.d, field.radius, rng)
        z1 = sphere.uniform_rows(n, field.d, field.radius, rng)
    else:
        z0 = rng.standard_normal((n, field.d))
        z1 = rng.standard_normal((n, field.d))
    t = rng.uniform(0.05, 0.95, size=n)
    cond = rng.integers(0, field.n_cond, size=n)
    return z0, z1, t, cond


# ---------------------------------------------------------------------------
# time machinery


def test_timestep_shift_identity():
    u = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(timestep_shift(u, 1.0), u)


def test_timestep_shift_fixed_points():
    for s in (1.0, 2.5, 4.63):
        assert timestep_shift(0.0, s) == 0.0
        assert timestep_shift(1.0, s) == 1.0


def test_timestep_shift_reference_value():
    assert timestep_shift(0.5, 4.63) == pytest.approx(0.822380106571936, abs=1e-15)


def test_timestep_shift_monotone():
    u = np.linspace(0.0, 1.0, 10_001)
    for s in (1.0, 2.0, 4.63, 10.0):
        t = timestep_shift(u, s)
        assert np.all(np.diff(t) > 0)
        assert np.all((t >= 0.0) & (t <= 1.0))


@pytest.mark.parametrize("s", [math.nan, math.inf], ids=["nan", "inf"])
def test_timestep_shift_rejects_a_non_finite_shift(s):
    # either gave NaN times rather than an error
    with pytest.raises(ValueError, match="shift must be positive"):
        timestep_shift(np.linspace(0.0, 1.0, 5), s)


def test_timestep_shift_rejects_nonpositive():
    with pytest.raises(ValueError):
        timestep_shift(0.5, 0.0)
    with pytest.raises(ValueError):
        timestep_shift(0.5, -2.0)


@pytest.mark.parametrize(
    "u",
    [math.nan, 1.5, -0.5, np.array([0.0, 0.5, math.nan]), np.array([0.25, 1.0 + 1e-12])],
    ids=["nan", "above-1", "below-0", "nan-in-array", "above-1-in-array"],
)
def test_timestep_shift_rejects_a_time_outside_0_1(u):
    # NaN gave NaN and 1.5 gave 1.2, rather than an error
    with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
        timestep_shift(u, 2.0)


def test_time_embedding_values():
    emb = time_embedding(0.25, 4)
    assert emb.shape == (1, 4)
    # frequencies pi and 2 pi: sin/cos of pi/4 and pi/2
    assert_allclose(
        emb[0],
        [math.sin(math.pi / 4), 1.0, math.cos(math.pi / 4), math.cos(math.pi / 2)],
        atol=1e-12,
    )


def test_time_embedding_batch_shape():
    assert time_embedding([0.1, 0.2, 0.9], 8).shape == (3, 8)


def test_time_embedding_rejects_odd_width():
    with pytest.raises(ValueError):
        time_embedding(0.5, 7)
    with pytest.raises(ValueError):
        time_embedding(0.5, 0)


def test_sample_time_in_open_interval():
    rng = np.random.default_rng(0)
    for cfg in (
        TrainConfig(time_sampling="uniform"),
        TrainConfig(time_sampling="logit-normal"),
        TrainConfig(time_sampling="logit-normal", shift=4.63),
    ):
        t = sample_time(rng, cfg, size=10_000)
        assert np.all((t > 0.0) & (t < 1.0))


# ---------------------------------------------------------------------------
# config and field construction


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(time_sampling="cosine")
    with pytest.raises(ValueError):
        TrainConfig(shift=0.5)
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="ot")
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=0.0)



@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["learning_rate", "weight_decay", "grad_clip", "time_mean", "time_std", "shift"]
)
def test_config_rejects_non_finite_reals(name, value):
    # NaN slips through every range comparison, so finiteness is its own check
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("table", [np.zeros(2), np.zeros((1, 2, 1))], ids=["1-d", "3-d"])
def test_field_rejects_non_2d_condition_table(table):
    with pytest.raises(DimensionMismatch):
        VelocityField([np.zeros((6, 3))], [np.zeros(3)], table, "linear", 1.0, 2)


def test_create_is_reproducible():
    a = _tiny_field(np.random.default_rng(1))
    b = _tiny_field(np.random.default_rng(1))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_field_widths_and_counts():
    field = _tiny_field(np.random.default_rng(2), d=5, hidden=(12,))
    assert field.d == 5
    assert field.n_cond == 3
    assert field.widths == [5 + 8 + 4, 12, 5]
    # 2 weight matrices, 2 biases, 1 condition table
    assert len(field.parameters()) == 5


def test_field_rejects_unchained_layers():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        VelocityField(
            weights=[rng.standard_normal((10, 6)), rng.standard_normal((7, 3))],
            biases=[np.zeros(6), np.zeros(3)],
            cond_table=np.zeros((1, 2)),
            kind="slerp",
            radius=1.0,
            time_dim=5,
        )


def test_field_rejects_wrong_input_width():
    rng = np.random.default_rng(4)
    with pytest.raises(DimensionMismatch):
        VelocityField(
            weights=[rng.standard_normal((9, 3))],
            biases=[np.zeros(3)],
            cond_table=np.zeros((1, 2)),
            kind="slerp",
            radius=1.0,
            time_dim=5,  # 3 + 5 + 2 = 10 != 9
        )


def test_field_rejects_nonfinite_parameters():
    with pytest.raises(ValueError):
        VelocityField(
            weights=[np.full((5, 2), np.nan)],
            biases=[np.zeros(2)],
            cond_table=np.zeros((1, 1)),
            kind="linear",
            radius=1.0,
            time_dim=2,
        )


@pytest.mark.parametrize("hidden", [(0,), (8, 0), (-3,)], ids=["zero", "zero-second", "negative"])
def test_create_rejects_empty_layers(hidden):
    # a zero-width layer would train and save a checkpoint that the
    # sidecar schema then refuses to load
    with pytest.raises(DimensionMismatch, match="at least 1"):
        _tiny_field(np.random.default_rng(5), hidden=hidden)


def test_field_rejects_empty_layers():
    with pytest.raises(DimensionMismatch, match="at least 1"):
        VelocityField([np.zeros((6, 0)), np.zeros((0, 3))], [np.zeros(0), np.zeros(3)],
                      np.zeros((1, 1)), "linear", 1.0, 2)


# ---------------------------------------------------------------------------
# forward evaluation


def test_forward_zero_weights_gives_bias():
    field = VelocityField(
        weights=[np.zeros((6, 3))],
        biases=[np.array([0.5, -1.0, 2.0])],
        cond_table=np.zeros((2, 1)),
        kind="linear",
        radius=1.0,
        time_dim=2,
    )
    out = forward(field, np.array([1.0, 2.0, 3.0]), 0.3, 1)
    assert np.array_equal(out, np.array([0.5, -1.0, 2.0]))


def test_forward_deterministic():
    rng = np.random.default_rng(5)
    field = _tiny_field(rng)
    z = sphere.uniform_rows(1, 5, field.radius, np.random.default_rng(6))[0]
    a = forward(field, z, 0.4, 0)
    b = forward(field, z, 0.4, 0)
    assert np.array_equal(a, b)


def test_forward_rejects_bad_time():
    field = _tiny_field(np.random.default_rng(7))
    z = np.zeros(5)
    with pytest.raises(ValueError):
        forward(field, z, 1.5, 0)
    with pytest.raises(ValueError):
        forward(field, z, -0.1, 0)


def test_forward_unknown_condition():
    field = _tiny_field(np.random.default_rng(8), n_cond=3)
    with pytest.raises(UnknownCondition):
        forward(field, np.zeros(5), 0.5, 3)


def test_forward_depends_on_condition():
    field = _tiny_field(np.random.default_rng(9), n_cond=3)
    z = sphere.uniform_rows(1, 5, field.radius, np.random.default_rng(10))[0]
    a = forward(field, z, 0.5, 0)
    b = forward(field, z, 0.5, 1)
    assert not np.allclose(a, b)


def test_forward_weight_perturbation_moves_output():
    field = _tiny_field(np.random.default_rng(11))
    z = sphere.uniform_rows(1, 5, field.radius, np.random.default_rng(12))[0]
    before = forward(field, z, 0.5, 0)
    field.weights[0][0, 0] += 1e-3
    after = forward(field, z, 0.5, 0)
    assert not np.array_equal(before, after)


# The shared-row first layer adds one row of the time, condition and bias
# terms to z @ W0[:d]; the full input sums the same terms in one product.
# Both are float64 sums in other orders, so the outputs agree to a few ulps
# of the output's scale: differences seen here, at up to 1 024 rows and
# widths 64, reach about 1e-15 of it, a hundredth of the bound.
SHARED_ROW_RTOL = 1e-13


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("cond_dim", [0, 1, 4])
@pytest.mark.parametrize("hidden", [(), (12, 9)], ids=["no-hidden", "two-hidden"])
@pytest.mark.parametrize(("n_cond", "cond"), [(1, 0), (3, 0), (3, 1), (3, 2)])
def test_shared_row_forward_matches_the_full_input(n_cond, cond, hidden, cond_dim, t):
    # one time and one id: the first layer takes their part once, as one
    # row, and leaves the full input unwritten; with no hidden layer the
    # first layer is the output layer
    rng = np.random.default_rng(73)
    field = VelocityField.create(
        5, hidden=hidden, time_dim=8, n_cond=n_cond, cond_dim=cond_dim, kind="slerp", rng=rng
    )
    for b in field.biases:  # so the shared row carries a bias term too
        b[:] = rng.normal(0.0, 0.5, b.shape)
    z = sphere.uniform_rows(33, 5, field.radius, rng)
    work = model._StepBuffers(field, 33)
    work.x.fill(np.nan)
    out = model._forward_rows(field, z, t, model._check_conditions(field, cond), work)
    assert out is work.acts[-1]
    assert np.all(np.isnan(work.x))
    emb = np.repeat(time_embedding(t, 8), 33, axis=0)
    full, _ = model._forward_embedded(field, z, emb, np.full(33, cond), model._StepBuffers(field, 33))
    assert_allclose(out, full, rtol=0, atol=SHARED_ROW_RTOL * np.max(np.abs(full)))


# ---------------------------------------------------------------------------
# losses and gradients


def test_crafted_linear_field_zero_loss():
    # single linear layer with zero weights outputs its bias; make the bias
    # the constant target velocity and choose binary-exact endpoints so the
    # target reproduces it bit for bit
    u = np.array([0.5, -0.25, 1.5])
    field = VelocityField(
        weights=[np.zeros((3 + 2 + 1, 3))],
        biases=[u.copy()],
        cond_table=np.zeros((1, 1)),
        kind="linear",
        radius=math.sqrt(3),
        time_dim=2,
    )
    rng = np.random.default_rng(13)
    z0 = rng.integers(-3, 4, size=(8, 3)).astype(np.float64)
    z1 = z0 + u
    loss, grads = loss_and_grad(field, (z0, z1, 0.25, np.zeros(8, dtype=int)), "linear")
    assert loss == 0.0
    for g in grads:
        assert np.array_equal(g, np.zeros_like(g))


def _fd_grad(field, batch, kind, i_param, i_flat, eps=1e-5):
    p = field.parameters()[i_param]
    orig = p.flat[i_flat]
    p.flat[i_flat] = orig + eps
    lp, _ = loss_and_grad(field, batch, kind)
    p.flat[i_flat] = orig - eps
    lm, _ = loss_and_grad(field, batch, kind)
    p.flat[i_flat] = orig
    return (lp - lm) / (2.0 * eps)


def _assert_gradients_match_finite_differences(field, batch, kind, probe_rng):
    _, grads = loss_and_grad(field, batch, kind)
    for _ in range(100):
        i_param = int(probe_rng.integers(len(grads)))
        i_flat = int(probe_rng.integers(grads[i_param].size))
        an = grads[i_param].flat[i_flat]
        fd = _fd_grad(field, batch, kind, i_param, i_flat)
        scale = max(abs(an), abs(fd), 1e-4)
        assert abs(an - fd) / scale <= 1e-4


@pytest.mark.parametrize("kind", ["linear", "slerp"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(14)
    field = _tiny_field(rng, kind=kind)
    batch = _batch_for(field, 4, rng)
    _assert_gradients_match_finite_differences(field, batch, kind, np.random.default_rng(15))


@pytest.mark.parametrize("kind", ["linear", "slerp"])
def test_one_row_batch_gradients_match_finite_differences(kind):
    # one row has one time-embedding row, as a sampler's step does; its
    # backward pass must still read the full input its forward pass wrote
    rng = np.random.default_rng(16)
    field = _tiny_field(rng, kind=kind)
    batch = _batch_for(field, 1, rng)
    _assert_gradients_match_finite_differences(field, batch, kind, np.random.default_rng(17))


def _reference_loss_and_grad(field, batch, kind):
    """The loss and backprop written out with fresh temporaries."""
    z0, z1, t, cond = batch
    if kind == "slerp":
        z_t, u_t = path_rows(z0, z1, t, PathKind.SLERP, radius=field.radius)
    else:
        z_t, u_t = path_rows(z0, z1, t, PathKind.LINEAR)
    acts = [np.concatenate([z_t, time_embedding(t, field.time_dim), field.cond_table[cond]], axis=1)]
    for i, (w, b) in enumerate(zip(field.weights, field.biases)):
        a = acts[-1] @ w + b
        acts.append(np.tanh(a) if i < len(field.weights) - 1 else a)
    diff = acts.pop() - u_t
    if kind == "slerp":
        diff = sphere.tangent_rows(diff, z_t)
    grads = [np.zeros_like(p) for p in field.parameters()]
    g = 2.0 * diff / diff.shape[0]
    for i in range(len(field.weights) - 1, -1, -1):
        grads[2 * i] = acts[i].T @ g
        grads[2 * i + 1] = np.sum(g, axis=0)
        g = g @ field.weights[i].T
        if i:
            g = g * (1.0 - acts[i] ** 2)
    np.add.at(grads[-1], cond, g[:, field.d + field.time_dim :])
    return float(np.mean(np.sum(diff * diff, axis=1))), grads


@pytest.mark.parametrize("kind", ["linear", "slerp"])
def test_loss_and_grad_rounds_as_fresh_temporaries(kind):
    # the step writes into buffers in place; every value must round as the
    # same arithmetic on fresh arrays does
    rng = np.random.default_rng(17)
    field = _tiny_field(rng, kind=kind, hidden=(12, 9))
    batch = _batch_for(field, 16, rng)
    loss, grads = loss_and_grad(field, batch, kind)
    ref_loss, ref_grads = _reference_loss_and_grad(field, batch, kind)
    assert loss == ref_loss
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


def test_slerp_loss_radial_invariance():
    # a single linear layer maps the token block of its weight matrix
    # straight through, so adding c to that block's diagonal adds exactly
    # c * z_t to the output; the tangent projection must erase it
    rng = np.random.default_rng(16)
    d = 6
    radius = math.sqrt(d)
    base_w = rng.standard_normal((d + 4 + 2, d)) * 0.3
    field = VelocityField(
        weights=[base_w.copy()],
        biases=[rng.standard_normal(d) * 0.1],
        cond_table=rng.standard_normal((2, 2)),
        kind="slerp",
        radius=radius,
        time_dim=4,
    )
    batch = _batch_for(field, 16, rng)
    loss0, _ = loss_and_grad(field, batch, "slerp")
    for c in (-2.3, 0.7, 10.0):
        shifted = VelocityField(
            weights=[base_w + c * np.eye(d + 4 + 2, d)],
            biases=[field.biases[0].copy()],
            cond_table=field.cond_table.copy(),
            kind="slerp",
            radius=radius,
            time_dim=4,
        )
        loss_c, _ = loss_and_grad(shifted, batch, "slerp")
        assert abs(loss_c - loss0) <= 1e-9 * max(1.0, abs(loss0))


def test_slerp_loss_rejects_off_sphere_batch():
    rng = np.random.default_rng(17)
    field = _tiny_field(rng, kind="slerp")
    z0 = rng.standard_normal((4, 5))
    z1 = rng.standard_normal((4, 5))
    with pytest.raises(RadiusMismatch):
        loss_and_grad(field, (z0, z1, np.full(4, 0.5), np.zeros(4, int)), "slerp")


@pytest.mark.parametrize("kind", ["linear", "slerp"])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_loss_rejects_non_finite_batch(kind, which):
    # z0, z1 or t: a bad input is a ValueError, not a diverged loss
    rng = np.random.default_rng(19)
    field = _tiny_field(rng, kind=kind)
    batch = list(_batch_for(field, 4, rng))
    batch[which][2] = np.nan
    with pytest.raises(ValueError):
        loss_and_grad(field, tuple(batch), kind)


@pytest.mark.parametrize("kind", ["linear", "slerp"])
def test_loss_non_finite_output_gives_non_finite_loss(kind):
    # finite parameters whose output overflows, as after a blown-up
    # optimizer step: every hidden unit reads tanh(1) and every output
    # weight is 1e308, so each output sum passes the float64 range
    rng = np.random.default_rng(20)
    field = _tiny_field(rng, kind=kind)
    field.weights[0][...] = 0.0
    field.biases[0][...] = 1.0
    field.weights[1][...] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = loss_and_grad(field, _batch_for(field, 4, rng), kind)
    assert not np.isfinite(loss)
    assert [g.shape for g in grads] == [p.shape for p in field.parameters()]


def test_loss_rejects_unknown_kind():
    rng = np.random.default_rng(18)
    field = _tiny_field(rng)
    with pytest.raises(ValueError):
        loss_and_grad(field, _batch_for(field, 2, rng), "geodesic")


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_closed_form():
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.5, -0.25, 2.0])
    opt = Adam([p], learning_rate=0.1)
    opt.step([g.copy()])
    # from zero state one step reduces to p - lr * g / (|g| + eps)
    expect = np.array([1.0, -2.0, 0.5]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert_allclose(p, expect, rtol=1e-12)


def test_adam_zero_learning_rate_freezes():
    p = np.array([3.0, -1.0])
    opt = Adam([p], learning_rate=0.0)
    for _ in range(5):
        opt.step([np.array([1.0, 2.0])])
    assert np.array_equal(p, np.array([3.0, -1.0]))


def test_adam_decoupled_weight_decay():
    p = np.array([2.0])
    opt = Adam([p], learning_rate=0.1, weight_decay=0.5)
    opt.step([np.array([0.0])])
    # zero gradient leaves the moment update term at zero, so only the
    # multiplicative decay acts: p * (1 - lr * wd)
    assert p[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), rel=1e-12)


def test_adam_updates_in_place():
    p = np.array([1.0, 1.0])
    opt = Adam([p], learning_rate=0.01)
    ref = opt.params[0]
    opt.step([np.array([1.0, -1.0])])
    assert ref is p
    assert not np.array_equal(p, np.array([1.0, 1.0]))


def test_adam_rounds_as_its_written_update():
    # the in-place step must round exactly as the update written out with
    # fresh temporaries, decay included; a large rate and decay keep the
    # last bits of both terms visible in p
    rng = np.random.default_rng(72)
    p = rng.standard_normal(200)
    ref_p, m, v = p.copy(), np.zeros(200), np.zeros(200)
    lr, wd = 0.1, 0.9
    opt = Adam([p], learning_rate=lr, weight_decay=wd)
    for step in range(1, 6):
        g = rng.standard_normal(200)
        opt.step([g])
        c1, c2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        ref_p = ref_p - lr * wd * ref_p
        ref_p = ref_p - lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        assert np.array_equal(p, ref_p)


def test_clip_gradients_through_views_scales_the_flat_vector():
    # train clips its flat gradient through the parameter views: the norm
    # adds the same partial sums as separate arrays do, and the scaling
    # lands in the flat vector
    rng = np.random.default_rng(73)
    flat = rng.standard_normal(30)
    views = [flat[:7].reshape(7, 1), flat[7:]]
    parts = [v.copy() for v in views]
    assert clip_gradients(views, 0.5) == clip_gradients(parts, 0.5)
    assert np.array_equal(flat, np.concatenate([parts[0].ravel(), parts[1]]))


def test_clip_gradients_scales_and_reports():
    g1 = np.array([3.0])
    g2 = np.array([4.0])
    pre = clip_gradients([g1, g2], 1.0)
    assert pre == pytest.approx(5.0, rel=1e-12)
    total = math.sqrt(float(g1[0] ** 2 + g2[0] ** 2))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_clip_gradients_no_op_below_limit():
    g = np.array([0.3, 0.4])
    pre = clip_gradients([g], 1.0)
    assert pre == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(g, np.array([0.3, 0.4]))


# ---------------------------------------------------------------------------
# synthetic data


def test_dataset_rejects_off_sphere_centers():
    with pytest.raises(RadiusMismatch):
        SyntheticDataset(
            d=3,
            radius=2.0,
            centers=np.array([[1.0, 0.0, 0.0]]),
            spread=0.1,
            weights=np.array([1.0]),
        )


def test_dataset_rejects_bad_weights():
    centers = 2.0 * np.eye(2, 3)
    with pytest.raises(ValueError):
        SyntheticDataset(3, 2.0, centers, 0.1, np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        SyntheticDataset(3, 2.0, centers, 0.1, np.array([1.1, -0.1]))


def test_dataset_samples_on_sphere():
    rng = np.random.default_rng(19)
    ds = random_dataset(6, math.sqrt(6), 3, 0.2, rng)
    rows, cond = ds.sample(256, rng)
    assert rows.shape == (256, 6)
    assert cond.shape == (256,)
    assert_allclose(np.linalg.norm(rows, axis=1), math.sqrt(6), rtol=1e-9)


def test_dataset_weights_drive_assignment():
    rng = np.random.default_rng(20)
    centers = 2.0 * np.eye(2, 4)
    ds = SyntheticDataset(4, 2.0, centers, 0.05, np.array([0.8, 0.2]))
    rows, _ = ds.sample(20_000, rng)
    hist = assignment_histogram(rows, centers)
    assert_allclose(hist, [0.8, 0.2], atol=0.02)


def test_assignment_histogram_basic():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    outputs = np.array([[0.9, 0.1], [1.1, 0.0], [-0.8, 0.2], [0.7, 0.0]])
    assert_allclose(assignment_histogram(outputs, centers), [0.75, 0.25], atol=0)


def test_assignment_histogram_rejects_width_mismatch():
    with pytest.raises(DimensionMismatch):
        assignment_histogram(np.zeros((3, 4)), np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# training loop


def test_prior_rows_by_kind():
    rng = np.random.default_rng(21)
    slerp_field = _tiny_field(np.random.default_rng(22), kind="slerp")
    rows = prior_rows(slerp_field, 128, rng)
    assert_allclose(np.linalg.norm(rows, axis=1), slerp_field.radius, rtol=1e-9)
    linear_field = _tiny_field(np.random.default_rng(23), kind="linear")
    rows = prior_rows(linear_field, 4096, rng)
    assert np.std(np.linalg.norm(rows, axis=1)) > 0.1


def test_train_reduces_loss_quickly():
    rng = np.random.default_rng(24)
    field = VelocityField.create(
        d=3, hidden=(32,), time_dim=8, n_cond=1, cond_dim=4, kind="slerp",
        radius=math.sqrt(3), rng=np.random.default_rng(25),
    )
    ds = random_dataset(3, math.sqrt(3), 2, 0.2, np.random.default_rng(26))
    cfg = TrainConfig(steps=200, batch_size=64, learning_rate=3e-3)
    trace = train(field, ds, cfg, rng)
    assert trace.shape == (200,)
    first, last = smoothed_endpoints(trace)
    assert last < first


def test_train_is_deterministic():
    def run():
        field = _tiny_field(np.random.default_rng(27), d=4, kind="slerp")
        ds = random_dataset(4, math.sqrt(4), 2, 0.2, np.random.default_rng(28))
        cfg = TrainConfig(steps=30, batch_size=16)
        trace = train(field, ds, cfg, np.random.default_rng(29))
        return trace, field

    t1, f1 = run()
    t2, f2 = run()
    assert np.array_equal(t1, t2)
    for a, b in zip(f1.parameters(), f2.parameters()):
        assert np.array_equal(a, b)


def test_train_zero_steps():
    field = _tiny_field(np.random.default_rng(30), d=4)
    ds = random_dataset(4, 2.0, 2, 0.2, np.random.default_rng(31))
    trace = train(field, ds, TrainConfig(steps=0), np.random.default_rng(32))
    assert trace.size == 0


def test_train_rejects_kind_mismatch():
    field = _tiny_field(np.random.default_rng(33), kind="linear")
    ds = random_dataset(5, math.sqrt(5), 2, 0.2, np.random.default_rng(34))
    with pytest.raises(ValueError):
        train(field, ds, TrainConfig(loss_kind="slerp"), np.random.default_rng(35))


def _labelled_dataset(d, rng):
    # three centers under three condition ids, so a batch spreads its
    # condition-table gradient over several rows (the np.add.at path)
    centers = sphere.uniform_rows(3, d, math.sqrt(d), rng)
    return SyntheticDataset(d, math.sqrt(d), centers, 0.2, np.full(3, 1.0 / 3.0), labels=[0, 1, 2])


def _reference_train(field, dataset, config, rng, step=loss_and_grad):
    """train as a loop of the public pieces, with ``step`` for
    :func:`loss_and_grad`; returns (trace, pre-clip norms)."""
    opt = Adam(field.parameters(), config.learning_rate, config.weight_decay)
    trace, norms = [], []
    for _ in range(config.steps):
        z1, cond = dataset.sample(config.batch_size, rng)
        z0 = prior_rows(field, config.batch_size, rng)
        t = sample_time(rng, config, size=config.batch_size)
        loss, grads = step(field, (z0, z1, t, cond), config.loss_kind)
        norms.append(clip_gradients(grads, config.grad_clip))
        opt.step(grads)
        trace.append(loss)
    return np.array(trace), np.array(norms)


@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_train_is_bit_identical_to_the_public_pieces(kind):
    # the flat step (reused buffers, one-vector clip and Adam) must round
    # exactly as loss_and_grad, clip_gradients and a per-array Adam do
    cfg = TrainConfig(steps=40, batch_size=32, loss_kind=kind, weight_decay=0.01, grad_clip=0.05)
    runs = []
    for run in (train, _reference_train):
        field = _tiny_field(np.random.default_rng(60), d=4, kind=kind)
        dataset = _labelled_dataset(4, np.random.default_rng(61))
        runs.append((run(field, dataset, cfg, np.random.default_rng(62)), field))
    (trace, field), ((ref_trace, norms), ref_field) = runs
    assert np.all(norms > cfg.grad_clip)  # every step clips
    assert np.array_equal(trace, ref_trace)
    assert np.array_equal(field.flat, ref_field.flat)


@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_one_row_batches_train_as_fresh_temporaries(kind):
    # every step of batch 1 writes the full input its backward pass reads:
    # 17 steps, one chunk and one step more, reused buffers and all, round
    # as the loop that concatenates each step's input afresh
    cfg = TrainConfig(steps=17, batch_size=1, loss_kind=kind)
    runs = []
    for run in (train, lambda *a: _reference_train(*a, step=_reference_loss_and_grad)[0]):
        field = _tiny_field(np.random.default_rng(66), d=4, kind=kind)
        dataset = _labelled_dataset(4, np.random.default_rng(67))
        runs.append((run(field, dataset, cfg, np.random.default_rng(68)), field.flat))
    (trace, flat), (ref_trace, ref_flat) = runs
    assert np.array_equal(trace, ref_trace)
    assert np.array_equal(flat, ref_flat)


def test_train_memory_grows_only_by_the_trace():
    # the step's buffers are allocated once per call: 2000 steps may hold
    # only the 8-byte trace entries beyond what 20 steps hold.  The peak of
    # one run moves by a few KiB with the interpreter's own allocations, so
    # each count takes the lower peak of two runs; a buffer of one batch
    # kept per step (1 KiB and more) would pass the bound by 2 MB
    dataset = _labelled_dataset(4, np.random.default_rng(63))

    def peak(steps):
        field = _tiny_field(np.random.default_rng(64), d=4)
        cfg = TrainConfig(steps=steps, batch_size=32, weight_decay=0.01)
        tracemalloc.start()
        try:
            train(field, dataset, cfg, np.random.default_rng(65))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # warm
    peaks = {steps: min(peak(steps), peak(steps)) for steps in (20, 2000)}
    assert peaks[2000] - peaks[20] <= 8 * (2000 - 20) + 16384


def _train_and_reference(kind, steps, time_config):
    """train and _reference_train from the same start: each run's (trace,
    parameters, final generator state)."""
    cfg = TrainConfig(
        steps=steps, batch_size=32, loss_kind=kind, weight_decay=0.01, grad_clip=0.05, **time_config
    )
    runs = []
    for run in (train, _reference_train):
        field = _tiny_field(np.random.default_rng(70), d=4, kind=kind)
        dataset = _labelled_dataset(4, np.random.default_rng(71))
        rng = np.random.default_rng(72)
        trace = run(field, dataset, cfg, rng)
        runs.append((trace[0] if run is _reference_train else trace, field.flat, rng.bit_generator.state))
    return runs


_TIME_CONFIGS = [
    {"time_sampling": "logit-normal", "shift": 1.0},
    {"time_sampling": "uniform", "shift": 3.0},
]


@pytest.mark.parametrize("time_config", _TIME_CONFIGS)
@pytest.mark.parametrize("kind", ["slerp", "linear"])
@pytest.mark.parametrize("steps", [1, 15, 16, 17, 37])
def test_train_chunks_are_bit_identical_to_the_public_pieces(steps, kind, time_config):
    # runs shorter than a chunk, of exactly one, one step past it, and
    # several with a partial last chunk: the batches prepared a chunk at a
    # time must be the loop's, and so must the generator's final state
    (trace, flat, state), (ref_trace, ref_flat, ref_state) = _train_and_reference(kind, steps, time_config)
    assert trace.shape == (steps,)
    assert np.array_equal(trace, ref_trace)
    assert np.array_equal(flat, ref_flat)
    assert state == ref_state


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_train_bits_do_not_depend_on_the_chunk_length(monkeypatch, chunk, kind):
    monkeypatch.setattr(model, "TRAIN_CHUNK", chunk)
    (trace, flat, state), (ref_trace, ref_flat, ref_state) = _train_and_reference(kind, 17, _TIME_CONFIGS[1])
    assert np.array_equal(trace, ref_trace)
    assert np.array_equal(flat, ref_flat)
    assert state == ref_state


def test_train_chunk_error_is_raised_before_any_step():
    # a dataset on another sphere than the field's fails the path set-up of
    # the first chunk; no parameter has moved when it is raised
    field = _tiny_field(np.random.default_rng(73), d=4)
    before = field.flat.copy()
    dataset = random_dataset(4, 3.0, 2, 0.2, np.random.default_rng(74))
    with pytest.raises(RadiusMismatch):
        train(field, dataset, TrainConfig(steps=20, batch_size=8), np.random.default_rng(75))
    assert np.array_equal(field.flat, before)


def test_train_detects_divergence():
    field = _tiny_field(np.random.default_rng(36), d=4)
    ds = random_dataset(4, 2.0, 2, 0.2, np.random.default_rng(37))
    cfg = TrainConfig(steps=10, batch_size=16, learning_rate=1e200)
    # the parameters overflow on purpose; the loop must turn the resulting
    # non-finite loss into an error instead of carrying on
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceDetected):
            train(field, ds, cfg, np.random.default_rng(38))


def test_train_detects_parameters_past_32_bit_after_the_last_step():
    # one step at lr 1e308 moves the parameters to about 1e308 behind a
    # finite loss: finite in 64-bit, but no checkpoint can store them
    field = _tiny_field(np.random.default_rng(39), d=4)
    ds = random_dataset(4, 2.0, 2, 0.2, np.random.default_rng(40))
    cfg = TrainConfig(steps=1, batch_size=16, learning_rate=1e308)
    with pytest.raises(DivergenceDetected, match="parameters in 32-bit"):
        train(field, ds, cfg, np.random.default_rng(41))
    assert np.all(np.isfinite(field.flat))


def test_train_detects_non_finite_parameters_after_the_last_step():
    # lr * wd overflows to inf, so the one step leaves NaN parameters
    # behind a finite loss; train must not hand them back as a result
    field = _tiny_field(np.random.default_rng(39), d=4)
    ds = random_dataset(4, 2.0, 2, 0.2, np.random.default_rng(40))
    cfg = TrainConfig(steps=1, batch_size=16, learning_rate=1e308, weight_decay=1e308)
    with pytest.raises(DivergenceDetected, match="parameters"):
        train(field, ds, cfg, np.random.default_rng(41))


def _add_at_table(n_cond, cond, rows):
    table = np.zeros((n_cond, rows.shape[1]))
    np.add.at(table, cond, rows)
    return table


@pytest.mark.parametrize("cond_dim", [1, 2, 8])
def test_single_condition_table_gradient_gives_the_bits_of_add_at(cond_dim):
    # one add.reduce down the rows, from +0.0, is np.add.at's row-order sum
    # only for two columns and more: one column would be summed pairwise
    rng = np.random.default_rng(80)
    cond = np.zeros(128, dtype=np.int64)
    for trial in range(100):
        # the rows are the last columns of a wider block, as in the backward pass
        block = rng.standard_normal((128, 20 + cond_dim)) * 10.0 ** rng.uniform(-8, 8, (128, 1))
        rows = block[:, 20:]
        if trial == 0:
            rows[:, -1] = -0.0  # np.add.at into zeros gives +0.0
        table = np.full((1, cond_dim), np.nan)
        model._table_grad(table, cond, rows)
        assert table.tobytes() == _add_at_table(1, cond, rows).tobytes()


def test_multi_condition_table_gradient_is_add_at():
    rng = np.random.default_rng(81)
    for cond_dim in (1, 8):
        rows = rng.standard_normal((128, cond_dim)) * 10.0 ** rng.uniform(-8, 8, (128, 1))
        cond = rng.integers(0, 3, size=128)
        table = np.full((3, cond_dim), np.nan)
        model._table_grad(table, cond, rows)
        assert table.tobytes() == _add_at_table(3, cond, rows).tobytes()


def _fresh_reference_train(field, dataset, config, rng):
    """The loop of public draws, each step's loss and gradient taken by
    _reference_loss_and_grad: fresh temporaries, np.add.at for the table."""
    opt = Adam(field.parameters(), config.learning_rate, config.weight_decay)
    trace = []
    for _ in range(config.steps):
        z1, cond = dataset.sample(config.batch_size, rng)
        z0 = prior_rows(field, config.batch_size, rng)
        t = sample_time(rng, config, size=config.batch_size)
        loss, grads = _reference_loss_and_grad(field, (z0, z1, t, cond), config.loss_kind)
        clip_gradients(grads, config.grad_clip)
        opt.step(grads)
        trace.append(loss)
    return np.array(trace)


@pytest.mark.parametrize("cond_dim", [1, 8])
@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_single_condition_train_is_bit_identical_to_fresh_temporaries(kind, cond_dim):
    # the CLI trains one condition, whose table gradient is one sum down the
    # batch; float64 parameters, as a float32 checkpoint could hide a bit
    cfg = TrainConfig(steps=20, batch_size=128, loss_kind=kind, weight_decay=0.01, grad_clip=0.05)
    runs = []
    for run in (train, _fresh_reference_train):
        field = VelocityField.create(
            4, hidden=(12,), time_dim=8, n_cond=1, cond_dim=cond_dim, kind=kind, radius=2.0,
            rng=np.random.default_rng(82),
        )
        dataset = random_dataset(4, 2.0, 2, 0.2, np.random.default_rng(83))
        runs.append((run(field, dataset, cfg, np.random.default_rng(84)), field.flat))
    (trace, flat), (ref_trace, ref_flat) = runs
    assert np.array_equal(trace, ref_trace)
    assert np.array_equal(flat, ref_flat)
    # Adam's m / sqrt(v) can absorb a last-bit change of a gradient, so the
    # gradients of a few batches are compared as well
    batch_rng = np.random.default_rng(85)
    for _ in range(4):
        batch = _batch_for(field, 128, batch_rng)
        loss, grads = loss_and_grad(field, batch, kind)
        ref_loss, ref_grads = _reference_loss_and_grad(field, batch, kind)
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


@pytest.mark.parametrize("dim", [2, 16, 2046])
def test_train_batches_embed_their_times_as_time_embedding(dim):
    # the chunk's embedding is written in place, half by half
    field = VelocityField.create(4, hidden=(6,), time_dim=dim, rng=np.random.default_rng(85))
    dataset = random_dataset(4, 2.0, 2, 0.2, np.random.default_rng(86))
    cfg = TrainConfig(batch_size=32)
    batches = model._TrainBatches(field, dataset, cfg, 3)
    batches.fill(3, np.random.default_rng(87))
    t = model._times_of(batches.times, cfg)
    phase = t[:, None] * (np.pi * 2.0 ** np.arange(dim // 2))
    emb = batches.slots[0].emb
    assert np.array_equal(emb, time_embedding(t, dim))
    assert np.array_equal(emb, np.concatenate([np.sin(phase), np.cos(phase)], axis=1))


def _no_child_left():
    # every helper has been reaped: this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this thread once ``seconds`` have passed, so a
    train that waits for a dead helper fails the test instead of hanging."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _train_on(monkeypatch, cpus, steps, config=None, seed=92, rng=None):
    """train on ``cpus`` usable CPUs from a fixed start: (trace,
    parameters, the generator's final state)."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    config = {"loss_kind": "slerp"} if config is None else config
    field = _tiny_field(np.random.default_rng(90), d=4, kind=config["loss_kind"])
    dataset = _labelled_dataset(4, np.random.default_rng(91))
    rng = np.random.default_rng(seed) if rng is None else rng
    trace = train(field, dataset, TrainConfig(steps=steps, batch_size=32, **config), rng)
    return trace, field.flat, rng.bit_generator.state


def _assert_same_run(got, expect):
    assert got[0].tobytes() == expect[0].tobytes()
    assert got[1].tobytes() == expect[1].tobytes()
    assert got[2] == expect[2]


_HELPER_CONFIGS = {
    "slerp-logit-normal": {"loss_kind": "slerp", "time_sampling": "logit-normal"},
    "linear-uniform": {"loss_kind": "linear", "time_sampling": "uniform"},
    "slerp-uniform-shift": {"loss_kind": "slerp", "time_sampling": "uniform", "shift": 2.5},
    "linear-logit-normal-moved": {
        "loss_kind": "linear", "time_sampling": "logit-normal",
        "time_mean": -0.4, "time_std": 1.7, "shift": 3.0,
    },
}


@pytest.mark.parametrize("steps", [17, 33, 250])
@pytest.mark.parametrize("config", list(_HELPER_CONFIGS.values()), ids=list(_HELPER_CONFIGS))
def test_train_gives_the_same_bits_with_and_without_its_helper(monkeypatch, helpers, steps, config):
    # two CPUs fork the fill helper, one fills every chunk in process
    with_helper = _train_on(monkeypatch, 2, steps, config)
    assert len(helpers) == 1
    in_process = _train_on(monkeypatch, 1, steps, config)
    assert len(helpers) == 1
    _assert_same_run(with_helper, in_process)
    _no_child_left()


@pytest.mark.parametrize("steps", [0, 1, 16])
def test_train_of_one_chunk_starts_no_helper(monkeypatch, helpers, steps):
    _train_on(monkeypatch, 2, steps)
    assert helpers == []


@pytest.mark.parametrize("threads", [2, 0], ids=["another-thread", "count-unknown"])
def test_train_starts_no_helper_beside_another_thread(monkeypatch, helpers, threads):
    # a child forked beside a running thread could inherit a lock it holds,
    # and a BLAS pool's threads compete with the helper for the second CPU
    alone = _train_on(monkeypatch, 2, 40)
    assert len(helpers) == 1
    monkeypatch.setattr(model, "_thread_count", lambda: threads)
    beside = _train_on(monkeypatch, 2, 40)
    assert len(helpers) == 1
    assert beside[0].tobytes() == alone[0].tobytes() and beside[2] == alone[2]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no thread count")
def test_the_thread_count_sees_a_running_thread():
    before = model._thread_count()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        during = model._thread_count()
    finally:
        release.set()
        thread.join()
    assert before >= 1 and during == before + 1


def test_train_on_an_affinity_mask_of_one_cpu_starts_no_helper(monkeypatch, helpers):
    # the real _usable_cpus, reading a mask of one CPU, as taskset -c 3 gives
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    field = _tiny_field(np.random.default_rng(90), d=4)
    dataset = _labelled_dataset(4, np.random.default_rng(91))
    train(field, dataset, TrainConfig(steps=40, batch_size=32), np.random.default_rng(92))
    assert helpers == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
def test_the_helper_runs_off_the_callers_cpu(monkeypatch, helpers):
    mask, calls, masks, loss_step = os.sched_getaffinity(0), [], [], model._loss_step

    def looking(*args):
        calls.append(None)
        if len(calls) == model.TRAIN_CHUNK + 1:  # chunk 1 came from the helper
            masks.append(os.sched_getaffinity(helpers[-1]))
        return loss_step(*args)

    monkeypatch.setattr(model, "_loss_step", looking)
    _train_on(monkeypatch, 2, 100)
    # one CPU fewer than the caller's mask, or the whole mask on one CPU
    assert masks[0] <= mask and len(masks[0]) == max(len(mask) - 1, 1)


def test_train_fills_in_process_when_it_cannot_fork(monkeypatch, helpers):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    in_process = _train_on(monkeypatch, 1, 40)
    monkeypatch.setattr(os, "fork", no_fork)
    _assert_same_run(_train_on(monkeypatch, 2, 40), in_process)


def _failing_tokens(monkeypatch, error, seed, chunk=2):
    """SyntheticDataset._tokens raising ``error`` on the draws of chunk
    ``chunk`` of a 100-step _train_on run from ``seed``, told by the
    chunk's first uniform, in whichever process fills it; returns the list
    of _loss_step calls."""
    tokens, loss_step, firsts, steps = model.SyntheticDataset._tokens, model._loss_step, [], []

    def recording(self, u, noise):
        firsts.append(u[0])
        return tokens(self, u, noise)

    monkeypatch.setattr(model.SyntheticDataset, "_tokens", recording)
    _train_on(monkeypatch, 1, 100, seed=seed)

    def failing(self, u, noise):
        if u[0] == firsts[chunk]:
            raise error
        return tokens(self, u, noise)

    def counted(*args):
        steps.append(len(steps))
        return loss_step(*args)

    monkeypatch.setattr(model.SyntheticDataset, "_tokens", failing)
    monkeypatch.setattr(model, "_loss_step", counted)
    return steps


@pytest.mark.parametrize("cpus", [2, 1])
def test_a_fill_error_is_raised_before_its_chunk(monkeypatch, helpers, cpus):
    # chunk 2 fails: chunks 0 and 1 have run, and the error is the fill's own
    steps = _failing_tokens(monkeypatch, UnknownCondition("no id for chunk 2"), 93)
    rng = np.random.default_rng(93)
    with pytest.raises(UnknownCondition, match="^no id for chunk 2$"):
        _train_on(monkeypatch, cpus, 100, rng=rng)
    assert len(steps) == 2 * model.TRAIN_CHUNK
    assert len(helpers) == (cpus == 2)
    _no_child_left()
    # the generator stops where the failed fill left it, on either path
    monkeypatch.undo()
    _failing_tokens(monkeypatch, UnknownCondition("no id for chunk 2"), 93)
    other = np.random.default_rng(93)
    with pytest.raises(UnknownCondition):
        _train_on(monkeypatch, 3 - cpus, 100, rng=other)
    assert rng.bit_generator.state == other.bit_generator.state


def test_a_fill_error_that_does_not_pickle_names_itself(monkeypatch, helpers):
    class LocalError(Exception):  # a class in a function does not pickle
        pass

    steps = _failing_tokens(monkeypatch, LocalError("not for the pipe"), 92)
    with pytest.raises(LocalError, match="^not for the pipe$"):
        _train_on(monkeypatch, 2, 100)
    assert len(steps) == 2 * model.TRAIN_CHUNK
    assert len(helpers) == 1
    _no_child_left()


def test_an_interrupted_train_reaps_its_helper(monkeypatch, helpers):
    loss_step, rngs = model._loss_step, []

    def interrupted(*args):
        interrupted.calls += 1
        if interrupted.calls == 20:
            raise KeyboardInterrupt
        return loss_step(*args)

    for cpus in (2, 1):
        interrupted.calls = 0
        monkeypatch.setattr(model, "_loss_step", interrupted)
        rngs.append(np.random.default_rng(94))
        with pytest.raises(KeyboardInterrupt):
            _train_on(monkeypatch, cpus, 100, rng=rngs[-1])
        _no_child_left()
    assert len(helpers) == 1
    # both stop at the state after chunk 1, the one step 19 ran in
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_a_helper_killed_mid_run_costs_only_time(monkeypatch, helpers):
    in_process = _train_on(monkeypatch, 1, 200)
    loss_step, calls = model._loss_step, []

    def killing(*args):
        calls.append(len(calls))
        if len(calls) == 20:
            os.kill(helpers[-1], signal.SIGKILL)
        return loss_step(*args)

    monkeypatch.setattr(model, "_loss_step", killing)
    with _deadline(60):
        _assert_same_run(_train_on(monkeypatch, 2, 200), in_process)
    assert len(helpers) == 1 and len(calls) == 200
    _no_child_left()


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _dying_in_chunk(monkeypatch, chunk):
    """The helper kills itself in its fill of chunk ``chunk``, between the
    chunk's draws and its rows; its first fill is chunk 1's."""
    tokens, parent, calls = model.SyntheticDataset._tokens, os.getpid(), []

    def dying(self, u, noise):
        if os.getpid() != parent:
            calls.append(None)
            if len(calls) == chunk:
                _die()
        return tokens(self, u, noise)

    monkeypatch.setattr(model.SyntheticDataset, "_tokens", dying)


def _dying_after_the_last_state(monkeypatch):
    fill_ahead = model._fill_ahead

    def dying(*args):
        fill_ahead(*args)
        _die()

    monkeypatch.setattr(model, "_fill_ahead", dying)


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _fills_in_process(monkeypatch, helpers):
    """Records, for each chunk that this process fills itself once a helper
    has started, whether the helper has been reaped by then."""
    fill, parent, reaped = model._TrainBatches.fill, os.getpid(), []

    def recorded(self, *args):
        if os.getpid() == parent and helpers:
            reaped.append(_reaped(helpers[-1]))
        return fill(self, *args)

    monkeypatch.setattr(model._TrainBatches, "fill", recorded)
    return reaped


# Points at which the helper of a 100-step run (chunks 0 to 6, the first
# filled before the fork) dies, each with the number of chunks the trainer
# then fills itself
_KILL_POINTS = {
    "right-after-the-fork": (lambda patch: patch.setattr(model, "_fill_ahead", lambda *a: _die()), 6),
    "mid-chunk": (lambda patch: _dying_in_chunk(patch, 2), 5),
    "in-the-last-chunk": (lambda patch: _dying_in_chunk(patch, 6), 1),
    "after-the-last-state": (_dying_after_the_last_state, 0),
}


@pytest.mark.parametrize(("kill", "fills"), _KILL_POINTS.values(), ids=_KILL_POINTS)
def test_a_helper_killed_at_any_point_leaves_the_bits_of_one_cpu(monkeypatch, helpers, kill, fills):
    in_process = _train_on(monkeypatch, 1, 100)
    kill(monkeypatch)
    reaped = _fills_in_process(monkeypatch, helpers)
    with _deadline(60):
        _assert_same_run(_train_on(monkeypatch, 2, 100), in_process)
    assert len(helpers) == 1 and reaped == [True] * fills
    _no_child_left()


def test_a_garbled_reply_stops_the_helper_before_the_refill(monkeypatch, helpers):
    # the trainer's first read does not unpickle while the helper runs: the
    # helper is reaped before chunk 1 is filled in process
    in_process = _train_on(monkeypatch, 1, 100)
    load, alive = pickle.load, []

    def garbled(file):
        if not alive:
            alive.append(os.waitpid(helpers[-1], os.WNOHANG) == (0, 0))
            raise pickle.UnpicklingError("garbled")
        return load(file)

    monkeypatch.setattr(pickle, "load", garbled)
    reaped = _fills_in_process(monkeypatch, helpers)
    with _deadline(60):
        _assert_same_run(_train_on(monkeypatch, 2, 100), in_process)
    assert alive == [True] and reaped == [True] * 6
    _no_child_left()


def test_train_reaps_its_helper_after_a_run(monkeypatch, helpers):
    _train_on(monkeypatch, 2, 40)
    assert len(helpers) == 1
    _no_child_left()


def test_smoothed_endpoints():
    trace = np.arange(100, dtype=np.float64)
    first, last = smoothed_endpoints(trace, window=10)
    assert first == pytest.approx(4.5, rel=0)
    assert last == pytest.approx(94.5, rel=0)
    # window larger than the trace degrades to the full mean
    f, l = smoothed_endpoints(np.array([1.0, 3.0]), window=50)
    assert f == l == 2.0
    with pytest.raises(ValueError):
        smoothed_endpoints(np.array([]))


# ---------------------------------------------------------------------------
# samplers


def test_integrate_exact_geodesic_field():
    # feed the integrator the true time-dependent geodesic velocity; the
    # exponential-map sampler must land on the far endpoint
    rng = np.random.default_rng(39)
    radius = math.sqrt(8)
    z0 = sphere.uniform_rows(64, 8, radius, rng)
    z1 = sphere.uniform_rows(64, 8, radius, rng)
    u0 = z0 / radius
    u1 = z1 / radius

    def vel(z, t):
        return radius * sphere.slerp_velocity_rows(u0, u1, t)

    for nfe in (1, 7, 50):
        out = integrate(vel, z0, nfe, "exp_map", radius)
        assert np.max(np.abs(out - z1)) <= 1e-5 * radius


def test_integrate_exact_geodesic_field_near_antipodal():
    # test_integrate_exact_geodesic_field on pairs pi - 0.099 ... pi - 1e-6
    # apart (d = 3): the geodesic field carries each chain to its z1
    radius = 2.0
    u0, u1 = _near_antipodal_pairs(np.random.default_rng(76))
    z0, z1 = radius * u0, radius * u1

    def vel(z, t):
        return radius * sphere.slerp_velocity_rows(u0, u1, t)

    for nfe in (1, 7, 50):
        out = integrate(vel, z0, nfe, "exp_map", radius)
        assert np.max(np.abs(out - z1)) <= 1e-5 * radius


def test_integrate_one_step_projection_deficit():
    # a single euler-project step falls short of the exp-map step by the
    # arc length R (h w - arctan(h w)); measure via the half-chord angle
    radius = 2.0
    omega = 0.7
    z0 = np.array([[radius, 0.0, 0.0]])
    v = np.array([[0.0, radius * omega, 0.0]])

    def vel(z, t):
        return v

    a = integrate(vel, z0, 1, "euler_project", radius)
    b = integrate(vel, z0, 1, "exp_map", radius)
    half_chord = np.linalg.norm(a - b) / (2.0 * radius)
    gap = radius * 2.0 * math.asin(half_chord)
    expect = sphere.one_step_deficit(1.0, omega, radius)
    assert gap == pytest.approx(expect, rel=1e-5)


def _reference_integrate(vel_fn, z0, nfe, sampler, radius):
    """The sampler step as a loop of the public row functions, each step
    into fresh arrays."""
    z = np.array(z0, dtype=np.float64)
    h = 1.0 / nfe
    for k in range(nfe):
        v = vel_fn(z, k / nfe)
        if sampler == "euler":
            z = z + h * v
        elif sampler == "euler_project":
            z = sphere.project_rows(z + h * v, radius)
        else:
            z = sphere.expmap_rows(z, h * sphere.tangent_rows(v, z), radius)
    return z


@pytest.mark.parametrize("sampler", model.SAMPLERS)
@pytest.mark.parametrize("d", [2, 4, 7, 8, 16])
def test_integrate_gives_the_bits_of_the_public_row_functions(sampler, d):
    # d = 7 and 8 sit either side of the rows summed by whole columns
    field = model.VelocityField.create(d, hidden=(16,), rng=np.random.default_rng(d))
    z0 = prior_rows(field, 300, np.random.default_rng(70 + d))

    def vel(z, t):
        v = model._forward_rows(field, z, t, 0).copy()
        v.flags.writeable = False  # no step may write into the velocity
        return v

    for nfe in (1, 6):
        got = integrate(vel, z0, nfe, sampler, field.radius)
        assert np.array_equal(got, _reference_integrate(vel, z0, nfe, sampler, field.radius))

    # one chain of shape (d,)
    def one_vel(z, t):
        return model.forward(field, z, t, 0)

    one = integrate(one_vel, z0[7], 3, sampler, field.radius)
    ref = _reference_integrate(one_vel, z0[7], 3, sampler, field.radius)
    assert one.shape == (d,) and np.array_equal(one, ref)


@pytest.mark.parametrize("d", [2, 7, 8, 16])
def test_integrate_projection_edges_match_the_public_row_functions(d):
    radius = 1.5
    rng = np.random.default_rng(77)
    # rows whose squared norm overflows take the power-of-two branch
    z0 = rng.standard_normal((5, d)) * 1e200

    def still(z, t):
        return np.zeros_like(z)

    got = integrate(still, z0, 2, "euler_project", radius)
    assert np.array_equal(got, _reference_integrate(still, z0, 2, "euler_project", radius))
    assert_allclose(np.linalg.norm(got, axis=-1), radius, rtol=1e-15)
    # a step onto the origin collapses the chain in both
    z0 = sphere.uniform_rows(5, d, radius, rng)
    for run in (integrate, _reference_integrate):
        with pytest.raises(NearZeroNorm):
            run(lambda z, t: -z, z0, 1, "euler_project", radius)


def test_integrate_plain_euler_leaves_sphere():
    radius = 2.0
    z0 = np.array([[radius, 0.0]])

    def vel(z, t):
        return np.array([[0.0, radius]])

    out = integrate(vel, z0, 1, "euler", radius)
    assert np.linalg.norm(out) > radius


def _half_chord_angle(u, w):
    """Angle between equal-norm rows, 2 atan2(|u - w|, |u + w|): accurate
    near 0, where arccos of the cosine loses about 1e-11 rad."""
    return 2.0 * np.arctan2(np.linalg.norm(u - w, axis=-1), np.linalg.norm(u + w, axis=-1))


def _trajectory_pairs(d=5, radius=2.0):
    """Start and target rows on the sphere: 200 uniform pairs, less those
    within 0.2 of antipodal, and pairs below sphere.SMALL_ANGLE apart."""
    rng = np.random.default_rng(61)
    z0 = sphere.uniform_rows(200, d, radius, rng)
    x1 = sphere.uniform_rows(200, d, radius, rng)
    keep = _half_chord_angle(z0, x1) < math.pi - 0.2
    z0, x1 = z0[keep], x1[keep]
    # a small rotation of each of the first rows toward a tangent direction
    small = np.array([1e-9, 1e-7, 1e-6, 3e-5, 0.5 * sphere.SMALL_ANGLE])
    base = z0[: small.size]
    e = sphere.unit_rows(sphere.tangent_rows(rng.standard_normal(base.shape), base))
    near = np.cos(small)[:, None] * base + radius * np.sin(small)[:, None] * e
    return np.vstack([z0, base]), np.vstack([x1, near])


@pytest.mark.parametrize("nfe", [1, 5, 50, 200])
def test_integrate_whole_trajectory_identities(nfe):
    # closed-form fields toward x1: the conditional geodesic field
    # log_z(x1) / (1 - t) and the chord field (x1 - z) / (1 - t).  exp_map
    # on the first and euler on the second land on x1; euler_project on the
    # first falls short by theta_{k+1} = theta_k - arctan(theta_k / (nfe - k))
    radius = 2.0
    z0, x1 = _trajectory_pairs(radius=radius)

    def geodesic(z, t):
        w = sphere.tangent_rows(x1, z)
        arc = radius * _half_chord_angle(z, x1)
        return (arc / np.linalg.norm(w, axis=-1))[:, None] * w / (1.0 - t)

    def chord(z, t):
        return (x1 - z) / (1.0 - t)

    assert np.max(_half_chord_angle(integrate(geodesic, z0, nfe, "exp_map", radius), x1)) <= 1e-12
    assert np.max(_half_chord_angle(integrate(chord, z0, nfe, "euler", radius), x1)) <= 1e-12
    expect = []
    for theta in _half_chord_angle(z0, x1).tolist():
        for k in range(nfe):
            theta -= math.atan(theta / (nfe - k))
        expect.append(theta)
    residual = _half_chord_angle(integrate(geodesic, z0, nfe, "euler_project", radius), x1)
    assert np.max(np.abs(residual - np.array(expect))) <= 1e-12


def test_integrate_rejects_bad_sampler():
    with pytest.raises(ValueError):
        integrate(lambda z, t: z, np.zeros((1, 2)), 10, "rk4", 1.0)
    with pytest.raises(ValueError):
        integrate(lambda z, t: z, np.zeros((1, 2)), 0, "euler", 1.0)


def test_sample_run_certificate(monkeypatch):
    # the deviation is a max over blocks of each block's own norms, which is
    # the max over every output's norm, bit for bit, whichever the sampler
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 16)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    for kind in ("slerp", "linear"):
        field = _tiny_field(np.random.default_rng(40), kind=kind)
        for sampler in model.SAMPLERS:
            run = sample(field, 40, sampler, 5, 1, np.random.default_rng(41))
            assert isinstance(run, SampleRun) and (run.sampler, run.nfe) == (sampler, 5)
            norms = np.linalg.norm(run.outputs, axis=-1)
            expect = np.max(np.abs(norms - field.radius)) / field.radius
            assert run.max_radius_deviation == expect


def test_sample_outputs_on_sphere():
    field = _tiny_field(np.random.default_rng(40), kind="slerp")
    run = sample(field, 32, "exp_map", 8, 0, np.random.default_rng(41))
    assert run.outputs.shape == (32, 5)
    assert run.max_radius_deviation <= 1e-9


def test_sample_deterministic():
    field = _tiny_field(np.random.default_rng(42), kind="slerp")
    a = sample(field, 16, "euler_project", 8, 0, np.random.default_rng(43))
    b = sample(field, 16, "euler_project", 8, 0, np.random.default_rng(43))
    assert np.array_equal(a.outputs, b.outputs)


@pytest.mark.parametrize("sampler", model.SAMPLERS)
def test_sample_matches_integrating_the_forward_pass(monkeypatch, sampler):
    # the block buffers give the velocity _forward_rows gives
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 16)
    field = _tiny_field(np.random.default_rng(59), kind="slerp")
    run = sample(field, 40, sampler, 5, 2, np.random.default_rng(60))
    z0 = prior_rows(field, 40, np.random.default_rng(60))

    def vel(z, t):
        return model._forward_rows(field, z, t, 2)

    ref = integrate(vel, z0, 5, sampler, field.radius)
    assert_allclose(run.outputs, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sampler", model.SAMPLERS)
def test_sample_is_a_row_prefix_of_a_larger_sample(sampler):
    # 3000 chains run as blocks of 1024, 1024 and 952; the first block is
    # the whole of the 1024-chain run, so its rows agree bit for bit
    field = _tiny_field(np.random.default_rng(50), kind="slerp")
    small = sample(field, 1024, sampler, 4, 1, np.random.default_rng(51))
    large = sample(field, 3000, sampler, 4, 1, np.random.default_rng(51))
    assert np.array_equal(small.outputs, large.outputs[:1024])


@pytest.mark.parametrize("sampler", model.SAMPLERS)
def test_sample_in_small_blocks_matches_one_block(monkeypatch, sampler):
    field = _tiny_field(np.random.default_rng(52), kind="slerp")
    whole = sample(field, 20, sampler, 6, 2, np.random.default_rng(53))
    blocks = []
    integrate_all = model.integrate

    def integrate_block(vel_fn, z0, *args):
        blocks.append(len(z0))
        return integrate_all(vel_fn, z0, *args)

    monkeypatch.setattr(model, "SAMPLE_BLOCK", 7)
    monkeypatch.setattr(model, "integrate", integrate_block)
    # waves of two blocks: the 6-row block is the only one of the last wave;
    # the takers are threads, whose calls this process sees
    _on_threads(monkeypatch, 2)
    blocked = sample(field, 20, sampler, 6, 2, np.random.default_rng(53))
    assert blocks == [7, 7, 6]
    assert_allclose(blocked.outputs, whole.outputs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cond", [-1, 3])
def test_sample_rejects_unknown_condition(cond):
    field = _tiny_field(np.random.default_rng(54), n_cond=3)
    with pytest.raises(UnknownCondition, match=f"got {cond}..{cond}"):
        sample(field, 4, "exp_map", 2, cond, np.random.default_rng(55))


def test_sample_memory_grows_only_by_prior_and_outputs(monkeypatch):
    # with 16-row blocks, 64 -> 2048 chains may add per chain only the
    # prior's draw and its projection (up to three d-rows at once, the
    # outputs among them) and two norms; forward buffers stay one wave
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 16)
    # both runs hold two blocks' buffers at once, whatever the CPU count
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    field = _tiny_field(np.random.default_rng(56), kind="slerp")
    peaks = {}
    for n in (64, 2048):
        sample(field, n, "exp_map", 3, 0, np.random.default_rng(57))  # warm
        tracemalloc.start()
        try:
            sample(field, n, "exp_map", 3, 0, np.random.default_rng(57))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_chain = 8 * (3 * field.d + 2)
    assert peaks[2048] - peaks[64] <= (2048 - 64) * per_chain + 4096


def test_assignment_histogram_of_no_rows_raises_empty_input():
    # no frequency is defined; dividing the zero counts by zero rows gave NaN
    with pytest.raises(EmptyInput, match="at least one output row"):
        assignment_histogram(np.empty((0, 4)), np.eye(4))


def test_assignment_histogram_in_small_blocks_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(58)
    centers = sphere.uniform_rows(4, 5, 2.0, rng)
    outputs = sphere.uniform_rows(50, 5, 2.0, rng)
    whole = assignment_histogram(outputs, centers)
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 7)
    assert np.array_equal(assignment_histogram(outputs, centers), whole)
    assert whole.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    field = _tiny_field(rng)
    cfg = TrainConfig(steps=17, seed=9)
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, field, cfg, extra={"note": "x"})
    loaded, meta = load_checkpoint(path)
    assert loaded.kind == field.kind
    assert loaded.radius == field.radius
    assert loaded.widths == field.widths
    assert meta["config"]["steps"] == 17
    assert meta["extra"]["note"] == "x"
    # storage is 32-bit, so parameters come back f32-quantized
    for orig, back in zip(field.parameters(), loaded.parameters()):
        assert np.array_equal(back, orig.astype(np.float32).astype(np.float64))


def test_checkpoint_forward_agrees_after_round_trip(tmp_path):
    rng = np.random.default_rng(45)
    field = _tiny_field(rng)
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, field)
    loaded, _ = load_checkpoint(path)
    z = sphere.uniform_rows(1, 5, field.radius, np.random.default_rng(46))[0]
    a = forward(field, z, 0.5, 0)
    b = forward(loaded, z, 0.5, 0)
    # f32 quantization of the parameters moves the output at about 1e-7
    assert_allclose(a, b, atol=1e-5)


def test_checkpoint_bytes_deterministic(tmp_path):
    field = _tiny_field(np.random.default_rng(47))
    p1 = tmp_path / "a.slfm"
    p2 = tmp_path / "b.slfm"
    save_checkpoint(p1, field, TrainConfig())
    save_checkpoint(p2, field, TrainConfig())
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.slfm.json").read_bytes() == (tmp_path / "b.slfm.json").read_bytes()


def test_checkpoint_sidecar_is_json(tmp_path):
    field = _tiny_field(np.random.default_rng(48))
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, field)
    text = (tmp_path / "ckpt.slfm.json").read_text()
    assert text.endswith("\n")
    meta = json.loads(text)
    assert meta["format"] == "slfm-checkpoint"
    assert meta["param_count"] == sum(p.size for p in field.parameters())


def test_checkpoint_blob_order(tmp_path):
    # distinct values per parameter pin the stored order W0, b0, W1, b1,
    # table; a save/load pair that merely agree would pass the round trips
    w0 = np.arange(8 * 3, dtype=np.float64).reshape(8, 3) / 7.0
    b0 = 100.0 + np.arange(3) / 3.0
    w1 = -np.arange(3 * 4, dtype=np.float64).reshape(3, 4) / 9.0
    b1 = 200.0 + np.arange(4) / 11.0
    table = 300.0 + np.arange(2 * 2, dtype=np.float64).reshape(2, 2) / 13.0
    field = VelocityField([w0, w1], [b0, b1], table, "linear", 2.0, 2)
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, field)
    expect = np.concatenate([w0.ravel(), b0, w1.ravel(), b1, table.ravel()])
    blob = container.read_container(path).ravel()
    assert np.array_equal(blob, expect.astype(np.float32).astype(np.float64))


def test_random_dataset_needs_a_center():
    with pytest.raises(ValueError):
        random_dataset(4, 2.0, 0, 0.2, np.random.default_rng(50))


def test_checkpoint_detects_count_mismatch(tmp_path):
    field = _tiny_field(np.random.default_rng(49))
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, field)
    sidecar = tmp_path / "ckpt.slfm.json"
    meta = json.loads(sidecar.read_text())
    meta["param_count"] += 1
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(DimensionMismatch):
        load_checkpoint(path)


def test_checkpoint_sidecar_records_the_blob_sha256(tmp_path):
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, _tiny_field(np.random.default_rng(66)))
    meta = json.loads((tmp_path / "ckpt.slfm.json").read_text())
    assert meta["payload_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_checkpoint_rejects_a_blob_swapped_for_one_of_the_same_size(tmp_path):
    a, b = tmp_path / "a.slfm", tmp_path / "b.slfm"
    save_checkpoint(a, _tiny_field(np.random.default_rng(67)))
    save_checkpoint(b, _tiny_field(np.random.default_rng(68)))
    assert a.stat().st_size == b.stat().st_size
    a.write_bytes(b.read_bytes())
    with pytest.raises(ContainerFormatError, match="sha256"):
        load_checkpoint(a)


def test_checkpoint_rejects_a_new_blob_beside_an_old_sidecar(tmp_path):
    # as after a crash between the two renames of a save
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, _tiny_field(np.random.default_rng(69)), TrainConfig(seed=1))
    old_sidecar = (tmp_path / "ckpt.slfm.json").read_bytes()
    save_checkpoint(path, _tiny_field(np.random.default_rng(70)), TrainConfig(seed=2))
    (tmp_path / "ckpt.slfm.json").write_bytes(old_sidecar)
    with pytest.raises(ContainerFormatError, match="sha256"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [None, "abc", "A" * 64, 12], ids=["missing", "short", "upper", "int"])
def test_checkpoint_rejects_a_malformed_payload_sha256(tmp_path, value):
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, _tiny_field(np.random.default_rng(71)))
    sidecar = tmp_path / "ckpt.slfm.json"
    meta = json.loads(sidecar.read_text())
    if value is None:
        del meta["payload_sha256"]
    else:
        meta["payload_sha256"] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ContainerFormatError, match="payload_sha256"):
        load_checkpoint(path)


def _fail_partway_through_blob(path, array):
    with open(path, "wb") as fh:
        fh.write(b"SLFM partial")
    raise OSError("disk full")


def _fail_partway_through_sidecar(obj, fh, **kwargs):
    fh.write('{"format": ')
    raise OSError("disk full")


@pytest.mark.parametrize(
    "target, attr, failing",
    [
        (container, "write_container", _fail_partway_through_blob),
        (json, "dump", _fail_partway_through_sidecar),
    ],
    ids=["blob", "sidecar"],
)
def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch, target, attr, failing):
    path = tmp_path / "ckpt.slfm"
    old = _tiny_field(np.random.default_rng(51))
    save_checkpoint(path, old, TrainConfig(seed=1))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(target, attr, failing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _tiny_field(np.random.default_rng(52)), TrainConfig(seed=2))
    monkeypatch.undo()
    # both files are the previous ones, byte for byte, and no temporary is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded, meta = load_checkpoint(path)
    assert meta["config"]["seed"] == 1
    assert np.array_equal(loaded.flat, old.flat.astype(np.float32).astype(np.float64))


def test_checkpoint_files_reach_disk_before_they_are_renamed(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = model._fsync, os.replace
    monkeypatch.setattr(model, "_fsync", lambda p: (events.append(("fsync", str(p))), real_fsync(p)))
    monkeypatch.setattr(os, "replace", lambda a, b: (events.append(("replace", str(a))), real_replace(a, b)))
    path = tmp_path / "ckpt.slfm"
    save_checkpoint(path, _tiny_field(np.random.default_rng(53)), TrainConfig(seed=3))
    kinds = [kind for kind, _ in events]
    # both temporaries are flushed before either rename, the directory after both
    assert kinds == ["fsync", "fsync", "replace", "replace", "fsync"]
    assert [p for kind, p in events[:2]] == [p for kind, p in events[2:4]]
    assert events[4][1] == str(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.slfm", "ckpt.slfm.json"]


def _overflowing_field(rng):
    # every condition row is ones and every weight from the condition columns
    # 1e308, so each output coordinate sums four of them and overflows to inf
    field = _tiny_field(rng, hidden=())
    field.cond_table[:] = 1.0
    field.weights[0][field.d + field.time_dim :] = 1e308
    return field


@pytest.mark.parametrize("sampler", model.SAMPLERS)
def test_sample_with_overflowing_field_raises_divergence(sampler):
    field = _overflowing_field(np.random.default_rng(62))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceDetected, match="non-finite chains among rows 0..5$"):
            sample(field, 6, sampler, 3, 0, np.random.default_rng(63))
    assert caught == []


def test_sample_checks_each_block(monkeypatch):
    # a block whose chains all stay finite passes; the second block diverges
    # and is named by its rows, and the third, of 2 rows, in the next wave of
    # two, is never integrated.  Blocks of a wave run at once, so the finite
    # block is told by its rows, not by call order, and the caller runs the
    # second again if a taker thread ran it first
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    field = _overflowing_field(np.random.default_rng(64))
    first = prior_rows(field, 10, np.random.default_rng(65))[:4]
    calls = []
    integrate_all = model.integrate

    def integrate_block(vel_fn, z0, *args):
        calls.append(len(z0))
        return np.zeros_like(z0) if np.array_equal(z0, first) else integrate_all(vel_fn, z0, *args)

    monkeypatch.setattr(model, "integrate", integrate_block)
    with pytest.raises(DivergenceDetected, match="rows 4..7$"):
        sample(field, 10, "euler", 2, 0, np.random.default_rng(65))
    assert set(calls) == {4}


@pytest.mark.parametrize("sampler", model.SAMPLERS)
def test_sample_does_not_depend_on_the_cpu_count(monkeypatch, sampler):
    # blocks 0..3, 4..7 and 8..9 run one at a time, in waves of two (the
    # last alone) or in one wave of three; the outputs agree bit for bit
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    field = _tiny_field(np.random.default_rng(67), kind="slerp")
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        runs.append(sample(field, 10, sampler, 5, 1, np.random.default_rng(68)).outputs)
    assert all(np.array_equal(runs[0], run) for run in runs[1:])


def test_sample_with_more_threads_than_cores_matches_one_cpu(monkeypatch):
    # waves of eight blocks, switching threads every microsecond: each block
    # still writes only its own rows of the outputs
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    field = _tiny_field(np.random.default_rng(76), kind="slerp")
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    alone = sample(field, 50, "euler_project", 6, 0, np.random.default_rng(77)).outputs
    monkeypatch.setattr(model, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(model, "_thread_count", lambda: 2)  # takers are threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sample(field, 50, "euler_project", 6, 0, np.random.default_rng(77)).outputs
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(alone, threaded)


def test_sample_of_one_block_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(model.threading, "Thread", no_thread)
    field = _tiny_field(np.random.default_rng(69), kind="slerp")
    run = sample(field, model.SAMPLE_BLOCK, "exp_map", 2, 0, np.random.default_rng(70))
    assert run.outputs.shape == (model.SAMPLE_BLOCK, field.d)


def test_sample_names_the_earliest_bad_block_of_a_wave(monkeypatch):
    # one wave of three blocks, the last two diverging on worker threads:
    # each worker silences its own overflow, and the block of rows 4..7 is
    # named whichever ends first
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    field = _overflowing_field(np.random.default_rng(71))
    first = prior_rows(field, 10, np.random.default_rng(72))[:4]
    integrate_all = model.integrate

    def integrate_block(vel_fn, z0, *args):
        return np.zeros_like(z0) if np.array_equal(z0, first) else integrate_all(vel_fn, z0, *args)

    monkeypatch.setattr(model, "integrate", integrate_block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceDetected, match="non-finite chains among rows 4..7$"):
            sample(field, 10, "euler", 2, 0, np.random.default_rng(72))
    assert caught == []


def _sample_raising_in_a_block(monkeypatch):
    """sample of 10 chains in blocks of 4 on 3 CPUs, whose block of rows
    4..7 raises a MemoryError wherever it runs."""
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    field = _tiny_field(np.random.default_rng(73), kind="slerp")
    second = prior_rows(field, 10, np.random.default_rng(74))[4:8]
    integrate_all = model.integrate

    def integrate_block(vel_fn, z0, *args):
        if np.array_equal(z0, second):
            raise MemoryError("no room for a block")
        return integrate_all(vel_fn, z0, *args)

    monkeypatch.setattr(model, "integrate", integrate_block)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="^no room for a block$"):
        sample(field, 10, "exp_map", 2, 0, np.random.default_rng(74))
    assert threading.active_count() == threads


def test_sample_raises_a_worker_error_in_the_caller(monkeypatch):
    # the error reaches the caller, with its own message, once every taker
    # thread of the wave has been joined
    monkeypatch.setattr(model, "_thread_count", lambda: 2)
    _sample_raising_in_a_block(monkeypatch)


def test_sample_raises_a_forked_takers_error_in_the_caller(monkeypatch, helpers):
    # the same once both forked takers of the wave have been reaped
    _sample_raising_in_a_block(monkeypatch)
    assert len(helpers) == 2
    _no_child_left()


def test_usable_cpus_counts_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU of eight, as by taskset -c 3, runs one
    # range at a time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert model._usable_cpus() == 1


def _no_affinity(pid):
    raise OSError(38, "Function not implemented")


@pytest.mark.parametrize("count", [5, None])
@pytest.mark.parametrize("affinity", ["missing", "raises"])
def test_usable_cpus_without_an_affinity_mask_counts_every_cpu(monkeypatch, affinity, count):
    if affinity == "missing":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", _no_affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert model._usable_cpus() == (count or 1)


def _on_threads(monkeypatch, cpus):
    """``cpus`` usable CPUs whose takers of units are threads, as beside
    another thread: their calls are this process's to see."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(model, "_thread_count", lambda: 2)


def _meeting(fn, takers):
    """A ``make_run`` for _run_ranges whose ``takers`` takers each meet the
    others at a barrier before their first unit, so that each holds one
    unit at once, and then run ``fn(i)``; a later unit runs at once."""
    barrier, met = threading.Barrier(takers, timeout=60), set()

    def make_run():
        def run(i):
            if threading.get_ident() not in met:
                met.add(threading.get_ident())
                barrier.wait()
            fn(i)

        return run

    return make_run


def test_run_ranges_returns_in_range_order(monkeypatch):
    # four units on four takers, which meet at a barrier, so they end in any
    # order; each writes its own result into a shared array
    _on_threads(monkeypatch, 4)
    out = model._shared_array((4,), np.int64)

    def fn(i):
        out[i] = 10 * i + 1

    model._run_ranges(_meeting(fn, 4), 4)
    assert out.tolist() == [1, 11, 21, 31]


def test_run_ranges_raises_the_first_range_error(monkeypatch):
    # the second unit raises first in time; the first unit's error, the one
    # a loop in unit order would raise, is the one that comes out, whichever
    # taker ran which unit
    _on_threads(monkeypatch, 2)
    raised = threading.Event()

    def fn(i):
        if i == 0:
            assert raised.wait(timeout=60)
            raise ValueError("first unit")
        try:
            raise KeyError("second unit")
        finally:
            raised.set()

    with pytest.raises(ValueError, match="first unit"):
        model._run_ranges(lambda: fn, 2)


def _overflow(i, attempts):
    # unit 1 overflows wherever it runs; each attempt records whether it
    # ran on the main thread and the error state it ran under
    attempts.append((i, threading.current_thread() is threading.main_thread(), np.geterr()["over"]))
    return np.full(2, 1e308) * 10.0 if i else None


def test_run_ranges_raises_a_worker_overflow_under_the_callers_errstate(monkeypatch):
    # each taker, the thread as the caller, runs under the caller's
    # errstate; the overflow of unit 1 comes out of the caller, which runs
    # unit 1 again if the thread ran it first
    _on_threads(monkeypatch, 2)
    attempts = []
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            model._run_ranges(_meeting(lambda i: _overflow(i, attempts), 2), 2)
    assert {main for _, main, _ in attempts} == {True, False}
    assert {over for *_, over in attempts} == {"raise"}


def test_run_ranges_ignores_a_worker_overflow_under_the_callers_errstate(monkeypatch):
    _on_threads(monkeypatch, 2)
    attempts, out = [], model._shared_array((2, 2))

    def fn(i):
        value = _overflow(i, attempts)
        if i:
            out[i] = value

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore"):
            model._run_ranges(_meeting(fn, 2), 2)
    assert np.all(np.isinf(out[1])) and caught == []
    assert sorted(main for _, main, _ in attempts) == [False, True]
    assert {over for *_, over in attempts} == {"ignore"}


def test_run_ranges_joins_every_thread_before_it_raises(monkeypatch):
    # unit 0 raises at once, the three others later
    _on_threads(monkeypatch, 4)

    def fn(i):
        if i:
            threading.Event().wait(0.05)
        raise RuntimeError(f"range {i}")

    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="range 0"):
        model._run_ranges(lambda: fn, 4)
    assert threading.active_count() == threads


def test_run_ranges_of_one_range_starts_no_thread(monkeypatch, helpers):
    # one unit runs on the caller's thread, with no pipe, thread or child
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    def no_pipe():
        raise AssertionError("a pipe was made")

    monkeypatch.setattr(model, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(model.threading, "Thread", no_thread)
    monkeypatch.setattr(os, "pipe", no_pipe)
    ran = []
    model._run_ranges(lambda: lambda i: ran.append((i, threading.current_thread())), 1)
    assert ran == [(0, threading.current_thread())] and helpers == []


# ---------------------------------------------------------------------------
# forked takers of units: a taker only speeds a run up


def _unit_commands(tmp_path, monkeypatch):
    """One command of each caller of _run_ranges, each of several units: a
    9-point profile, 5-block stats and swap of containers of 4 KiB blocks,
    and 10 chains of a checkpoint in blocks of 4."""
    monkeypatch.setattr(container, "BLOCK_BYTES", 4096)
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    rng = np.random.default_rng(95)
    anchor, substitute, ckpt = tmp_path / "a.slfm", tmp_path / "s.slfm", tmp_path / "m.slfm"
    container.write_container(anchor, rng.standard_normal((37, 8, 3, 5)).astype(np.float32))
    container.write_container(substitute, 3.0 * rng.standard_normal((37, 8, 3, 5)).astype(np.float32))
    model.save_checkpoint(ckpt, _tiny_field(rng, kind="slerp"))
    return {
        "paths": ["paths", "--synthetic", "gauss-shells:d=8,r0=2.0,r1=3.0,cv=0.1", "--kind", "shell",
                  "--grid", "9", "--pairs", "64"],
        "stats": ["stats", str(anchor), "--project", "2.0"],
        "swap": ["swap", str(anchor), str(substitute), "--out-direction", str(tmp_path / "dir.slfm"),
                 "--out-radius", str(tmp_path / "rad.slfm")],
        "sample": ["sample", str(ckpt), "--seed", "3", "--n", "10", "--nfe", "3", "--out",
                   str(tmp_path / "out.slfm")],
    }


def _run_command(argv, capsys, tmp_path):
    """Exit code, stdout and the bytes of every output file of ``argv``."""
    from slfm.cli import main

    code = main(argv)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name in ("dir.slfm", "rad.slfm", "out.slfm")}
    return code, capsys.readouterr().out, written


def _killing_in_children(monkeypatch, command, when):
    """Each forked taker kills itself: before its first unit, in the middle
    of a unit (for stats and swap, after it wrote wrong values there), or
    after its last unit."""
    parent, take = os.getpid(), model._take

    def in_child():
        return os.getpid() != parent

    def taking(units, runs, done, run):
        if in_child() and when == "before":
            _die()
        take(units, runs, done, run)
        if in_child() and when == "after":
            _die()

    monkeypatch.setattr(model, "_take", taking)
    if when != "mid":
        return
    owner, name = {
        "paths": (diagnostics, "_offshell_rows"),
        "stats": (sphere, "_plane_norms_into"),
        "swap": (container.BlockWriter, "write_at"),
        "sample": (model, "_forward_rows"),
    }[command]
    real = getattr(owner, name)

    def dying(*args, **kwargs):
        if in_child():
            if command == "stats":
                args[1][...] = np.nan  # the unit's norms
            if command == "swap":
                real(*args[:3], 2.0 * np.asarray(args[3]), *args[4:])
            _die()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, dying)


@pytest.mark.parametrize("when", ["none", "before", "mid", "after"])
@pytest.mark.parametrize("command", ["paths", "stats", "swap", "sample"])
def test_a_killed_taker_leaves_the_same_outputs(tmp_path, capsys, monkeypatch, helpers, command, when):
    argv = _unit_commands(tmp_path, monkeypatch)[command]
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    alone = _run_command(argv, capsys, tmp_path)
    assert alone[0] == 0 and helpers == []
    if when != "none":
        _killing_in_children(monkeypatch, command, when)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    with _deadline(60):
        assert _run_command(argv, capsys, tmp_path) == alone
    assert len(helpers) == 2
    _no_child_left()


def test_a_forked_takers_error_is_raised_by_the_caller_in_unit_order(monkeypatch, helpers):
    # the caller holds unit 0 until the taker has raised on unit 1, then
    # raises on unit 3 itself: unit 1's error comes out, run again in the
    # caller, with its own type and message
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    parent, tried = os.getpid(), model._shared_array((4,), np.uint8)

    def make_run():
        def run(i):
            if os.getpid() != parent:
                tried[i] = 1
            elif i == 0:
                while not tried[1]:
                    time.sleep(0.001)
            if i == 1:
                raise LookupError("unit 1")
            if i == 3:
                raise ValueError("unit 3")

        return run

    with _deadline(60):
        with pytest.raises(LookupError, match="^unit 1$"):
            model._run_ranges(make_run, 4)
    assert tried[1] and len(helpers) == 1
    _no_child_left()


def test_an_interrupted_caller_reaps_every_forked_taker(monkeypatch, helpers):
    # both takers hold a unit that would last a minute when the caller's
    # unit is interrupted
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    parent, started = os.getpid(), model._shared_array((4,), np.uint8)

    def make_run():
        def run(i):
            if os.getpid() != parent:
                started[i] = 1
                time.sleep(60)
            while started.sum() < 2:
                time.sleep(0.001)
            raise KeyboardInterrupt

        return run

    began = time.monotonic()
    with _deadline(30):
        with pytest.raises(KeyboardInterrupt):
            model._run_ranges(make_run, 4)
    assert time.monotonic() - began < 20 and len(helpers) == 2
    _no_child_left()


def test_assignment_histogram_far_out_radius_does_not_overflow():
    # at R = 1.3e154 a squared distance (up to 4 R^2) passes float max; rows
    # and centers are scaled by a power of two first, so each row still goes
    # to the center it was drawn beside, and no warning is raised
    rng = np.random.default_rng(66)
    radius = 1.3e154
    units = sphere.uniform_rows(3, 4, 1.0, rng)
    labels = rng.integers(0, 3, size=40)
    outputs = radius * sphere.project_rows(units[labels] + 0.01 * rng.standard_normal((40, 4)), 1.0)
    centers = radius * units
    hist = assignment_histogram(outputs, centers)
    assert np.array_equal(hist, np.bincount(labels, minlength=3) / 40)
    scale = 2.0 ** -512  # exact, and leaves no distance near the float range
    assert np.array_equal(hist, assignment_histogram(outputs * scale, centers * scale))


@pytest.mark.parametrize("labels", [[1.5, 0], [1.0, 0.0], ["1", "0"], [2**63, 0]])
def test_dataset_rejects_non_integer_labels(labels):
    # a cast to int64 would turn 1.5 into 1, or the text "1" into 1, silently
    centers = np.array([[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="labels must be integer condition ids"):
        SyntheticDataset(2, 2.0, centers, 0.1, [0.5, 0.5], labels=labels)


@pytest.mark.parametrize("bad", [-1, 3])
def test_loss_rejects_unknown_condition(bad):
    # a negative id would index the table from its end without a word
    field = _tiny_field(np.random.default_rng(67), n_cond=3)
    z0, z1, t, cond = _batch_for(field, 8, np.random.default_rng(68))
    cond = np.zeros(8, dtype=np.int64)
    cond[5] = bad
    with pytest.raises(UnknownCondition, match=f"got {min(bad, 0)}..{max(bad, 0)}"):
        loss_and_grad(field, (z0, z1, t, cond), field.kind)


# ---------------------------------------------------------------------------
# checks at the boundary, none in the step


@pytest.mark.parametrize(
    "weights",
    [[1.0], [0.7, 0.05, 0.25], [0.0, 0.5, 0.0, 0.5], [0.3, 0.7 - 5e-10]],
    ids=["one-center", "uneven", "zero-weights", "sum-off-by-5e-10"],
)
@pytest.mark.parametrize("n", [1, 128, 1000])
def test_dataset_sample_draws_as_rng_choice(weights, n):
    # the centers come from the dataset's own CDF; they must be the indices
    # rng.choice(k, size=n, p=weights) draws, and the stream after them the
    # same, so that training keeps its random stream if numpy's choice moves
    k = len(weights)
    centers = sphere.uniform_rows(k, 3, 2.0, np.random.default_rng(70))
    dataset = SyntheticDataset(3, 2.0, centers, 0.1, weights, labels=np.arange(k))
    rng, ref = np.random.default_rng(71), np.random.default_rng(71)
    rows, comp = dataset.sample(n, rng)
    ref_comp = ref.choice(k, size=n, p=dataset.weights)
    ref_rows = sphere.project_rows(centers[ref_comp] + 0.1 * ref.standard_normal((n, 3)), 2.0)
    assert np.array_equal(comp, ref_comp)
    assert np.array_equal(rows, ref_rows)
    assert rng.random() == ref.random()
    # the CDF is no field: asdict feeds the checkpoint sidecar's extra.dataset
    assert list(dataclasses.asdict(dataset)) == ["d", "radius", "centers", "spread", "weights", "labels"]


def test_dataset_sample_edge_draws():
    # the extreme uniform draws, 0 and the largest below 1, under weights
    # summing 5e-10 short of 1: as in rng.choice, a zero-weight center is
    # never drawn and no draw runs past the last center
    class Edges:
        def random(self, n):
            return np.array([0.0, 1.0 - 2.0 ** -53])

        def standard_normal(self, shape):
            return np.zeros(shape)

    centers = np.array([[2.0, 0.0], [0.0, 2.0]])
    dataset = SyntheticDataset(2, 2.0, centers, 0.1, [0.0, 1.0 - 5e-10], labels=[0, 1])
    rows, comp = dataset.sample(2, Edges())
    assert np.array_equal(comp, [1, 1])
    assert np.array_equal(rows, centers[[1, 1]])


@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_train_checks_its_batch_sources_once(monkeypatch, kind):
    # the field, the dataset and the config are checked when built, and the
    # labels once before the loop; the step itself scans no row
    calls = {"_as_vectors": 0, "_check_conditions": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(sphere, "_as_vectors", counting("_as_vectors", sphere._as_vectors))
    monkeypatch.setattr(model, "_check_conditions", counting("_check_conditions", model._check_conditions))
    field = _tiny_field(np.random.default_rng(73), d=4, kind=kind)
    dataset = _labelled_dataset(4, np.random.default_rng(74))
    train(field, dataset, TrainConfig(steps=50, batch_size=16, loss_kind=kind), np.random.default_rng(75))
    assert calls == {"_as_vectors": 0, "_check_conditions": 1}


def test_train_rejects_labels_outside_the_table():
    # checked once before the first step, for every label, drawn or not
    field = _tiny_field(np.random.default_rng(76), d=4, n_cond=2)
    dataset = _labelled_dataset(4, np.random.default_rng(77))  # labels 0, 1, 2
    with pytest.raises(UnknownCondition, match="got 0..2"):
        train(field, dataset, TrainConfig(steps=0), np.random.default_rng(78))


@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_loss_and_forward_check_shapes_and_width(kind):
    field = _tiny_field(np.random.default_rng(79), kind=kind)
    z0, z1, t, cond = _batch_for(field, 4, np.random.default_rng(80))
    wide = sphere.uniform_rows(4, field.d + 1, field.radius, np.random.default_rng(81))
    for batch in ((wide, wide, t, cond), (z0, z1[:3], t, cond), (z0[0], z1[0], t[0], cond[0])):
        with pytest.raises(DimensionMismatch):
            loss_and_grad(field, batch, kind)
    for z in (wide[0], z0):
        with pytest.raises(DimensionMismatch):
            forward(field, z, 0.5, 0)
    with pytest.raises(ValueError):
        forward(field, z0[0], float("nan"), 0)
    with pytest.raises(UnknownCondition):
        forward(field, z0[0], 0.5, field.n_cond)


@pytest.mark.parametrize("time_dim", [3, 1, 0])
def test_field_rejects_odd_or_narrow_time_dim(time_dim):
    # time_embedding would refuse it at the first step or sample
    with pytest.raises(ValueError, match="time embedding width must be even and at least 2"):
        VelocityField.create(4, hidden=(6,), time_dim=time_dim, rng=np.random.default_rng(82))


def test_time_dim_past_2046_is_bad_input():
    # the top frequency pi * 2**(width/2 - 1) overflows to inf from width
    # 2048 on, and sin(inf) is NaN; 2046, the widest width, embeds finitely
    # and without a numpy warning
    with pytest.raises(ValueError, match="time embedding width must be at most 2046, got 2048"):
        time_embedding(0.5, 2048)
    with pytest.raises(ValueError, match="at most 2046"):
        VelocityField.create(4, hidden=(6,), time_dim=2048, rng=np.random.default_rng(83))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emb = time_embedding([0.0, 0.3, 1.0], 2046)
    assert emb.shape == (3, 2046) and np.all(np.isfinite(emb))


def test_sample_exp_map_leaving_the_sphere_raises_divergence():
    # token weights of 1e30 with no hidden layer: the velocity is about 1e30
    # z, whose tangent part cancels catastrophically, so the exp-map step
    # leaves the sphere with finite chains
    field = VelocityField.create(4, hidden=(), rng=np.random.default_rng(0))
    field.weights[0][:4] = 1e30 * np.eye(4)
    with pytest.raises(DivergenceDetected, match=r"chains among rows 0..7 left the sphere by"):
        sample(field, 8, "exp_map", 50, 0, np.random.default_rng(0))
    # euler makes no on-sphere promise: over 4 steps its finite chains leave
    # the sphere, and the run reports how far from their own norms
    run = sample(field, 8, "euler", 4, 0, np.random.default_rng(0))
    norms = np.linalg.norm(run.outputs, axis=-1)
    assert run.max_radius_deviation == np.max(np.abs(norms - field.radius)) / field.radius
    assert run.max_radius_deviation > model.SPHERE_SAMPLER_RTOL


def test_sample_collapsed_projected_chain_raises_divergence():
    # token weights of -50 with no hidden layer and every other weight 0:
    # the velocity is -50 z, so one projected Euler step of h = 1/50 lands
    # every chain on the origin, which has no direction to project
    field = VelocityField.create(4, hidden=(), rng=np.random.default_rng(0))
    field.flat[:] = 0.0
    field.weights[0][:4] = -50.0 * np.eye(4)
    with pytest.raises(DivergenceDetected, match=r"^chains among rows 0..7 collapsed: row norm below 1e-08$"):
        sample(field, 8, "euler_project", 50, 0, np.random.default_rng(0))


def test_sample_chain_whose_squared_norm_overflows_raises_divergence():
    # token weights of 1e30: six Euler steps take each coordinate to about
    # 1e173, finite, but its squared norm passes float max; the norm is
    # non-finite, so the chain has diverged, and no warning is raised
    field = VelocityField.create(4, hidden=(), rng=np.random.default_rng(0))
    field.weights[0][:4] = 1e30 * np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceDetected, match="^non-finite chains among rows 0..7$"):
            sample(field, 8, "euler", 6, 0, np.random.default_rng(0))
