"""Command-line surface: report formats, exit codes, and end-to-end runs."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slfm
from slfm import cli, container, diagnostics, model, sphere
from slfm.cli import main


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _write_rows(path, rows):
    rows = np.asarray(rows, dtype=np.float64)
    container.write_container(path, rows.reshape(rows.shape[0], rows.shape[1], 1, 1))


# ---------------------------------------------------------------------------
# gaussian-norms


def test_gaussian_norms_tabulated_values(capsys):
    assert main(["gaussian-norms", "16", "32"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["d", "exact_mean", "approx_mean", "cv"]
    by_d = {r["d"]: r for r in rows}
    assert round(float(by_d["16"]["exact_mean"]), 3) == 3.938
    assert round(float(by_d["16"]["approx_mean"]), 3) == 3.937
    assert round(float(by_d["32"]["exact_mean"]), 3) == 5.613
    assert round(float(by_d["32"]["approx_mean"]), 3) == 5.612
    assert round(float(by_d["32"]["cv"]), 2) == 0.13


def test_gaussian_norms_csv_json_digit_identical(capsys):
    assert main(["gaussian-norms", "16"]) == 0
    csv_out = capsys.readouterr().out
    assert main(["gaussian-norms", "16", "--format", "json"]) == 0
    json_out = capsys.readouterr().out
    _, rows = _csv_rows(csv_out)
    parsed = json.loads(json_out)[0]
    for key in ("exact_mean", "approx_mean", "cv"):
        # both writers print repr() of the double, so the digit strings match
        assert rows[0][key] == repr(parsed[key])
        assert rows[0][key] in json_out


def test_gaussian_norms_empty_list(capsys):
    assert main(["gaussian-norms"]) == 0
    assert capsys.readouterr().out == "d,exact_mean,approx_mean,cv\n"


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency: a fresh interpreter in which
    # importing scipy fails still tabulates the chi mean
    code = (
        "import sys; sys.modules['scipy'] = None; from slfm.cli import main; "
        "sys.exit(main(['gaussian-norms', '1', '16', '64', '1000']))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(slfm.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "d,exact_mean,approx_mean,cv"
    assert len(done.stdout.splitlines()) == 5


# ---------------------------------------------------------------------------
# stats


def test_stats_reports_shell(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "lat.slfm"
    container.write_container(path, rng.standard_normal((4, 16, 3, 3)))
    assert main(["stats", str(path)]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0]["n_tokens"] == "36"
    assert float(rows[0]["cv"]) > 0.05


def test_stats_project_collapses_cv(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "lat.slfm"
    container.write_container(path, rng.standard_normal((2, 8, 2, 2)))
    assert main(["stats", str(path), "--project", "2.0"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0]["cv"] == "0.0"
    assert float(rows[0]["mean_radius"]) == pytest.approx(2.0, rel=1e-9)


def test_stats_malformed_container(tmp_path, capsys):
    path = tmp_path / "junk.slfm"
    path.write_bytes(b"not a container at all")
    assert main(["stats", str(path)]) == 2


def test_stats_missing_file(tmp_path):
    assert main(["stats", str(tmp_path / "absent.slfm")]) == 2


# ---------------------------------------------------------------------------
# paths


def test_paths_synthetic_slerp_zero_share(capsys):
    rc = main(
        [
            "paths",
            "--synthetic",
            "sphere:d=8,R=2.0",
            "--kind",
            "slerp",
            "--grid",
            "5",
            "--pairs",
            "64",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 5
    for row in rows:
        assert float(row["radial_share"]) <= 1e-10
        assert float(row["offshell_sigma"]) <= 1e-10
        assert float(row["mean_norm"]) == pytest.approx(2.0, rel=1e-10)


def test_paths_synthetic_linear_endpoint_share(capsys):
    rc = main(
        [
            "paths",
            "--synthetic",
            "gauss-shells:d=32,r0=5.613,r1=5.613,cv=0.13",
            "--kind",
            "linear",
            "--grid",
            "3",
            "--pairs",
            "2048",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert float(rows[0]["radial_share"]) == pytest.approx(0.50, abs=0.03)
    assert float(rows[-1]["radial_share"]) == pytest.approx(0.50, abs=0.03)
    # the chord dips below the endpoint shells mid-path
    assert float(rows[1]["mean_norm"]) < float(rows[0]["mean_norm"])


def test_paths_input_mode_pairs_rows(tmp_path, capsys):
    rng = np.random.default_rng(2)
    a = tmp_path / "a.slfm"
    b = tmp_path / "b.slfm"
    _write_rows(a, rng.standard_normal((10, 6)))
    _write_rows(b, rng.standard_normal((7, 6)))  # extra rows in a are dropped
    rc = main(["paths", "--input", str(a), str(b), "--kind", "linear", "--grid", "3"])
    assert rc == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 3


def test_paths_input_dimension_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    a = tmp_path / "a.slfm"
    b = tmp_path / "b.slfm"
    _write_rows(a, rng.standard_normal((4, 6)))
    _write_rows(b, rng.standard_normal((4, 5)))
    assert main(["paths", "--input", str(a), str(b), "--kind", "linear"]) == 2


@pytest.mark.parametrize("kind", ["linear", "shell", "slerp"])
def test_paths_input_zero_width_rows_exit_2_naming_the_axis(tmp_path, capsys, kind):
    a = tmp_path / "a.slfm"
    b = tmp_path / "b.slfm"
    _write_rows(a, np.zeros((3, 0)))
    _write_rows(b, np.zeros((3, 0)))
    assert main(["paths", "--input", str(a), str(b), "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR tokens have an empty coordinate axis: shape (3, 0)\n"


@pytest.mark.parametrize("kind", ["shell", "slerp"])
def test_paths_input_of_one_dimensional_rows_exits_2(tmp_path, capsys, kind):
    # no nan rows, no numpy warning: one error line, as train --d 1 gives
    rng = np.random.default_rng(4)
    a, b = tmp_path / "a.slfm", tmp_path / "b.slfm"
    _write_rows(a, rng.standard_normal((9, 1)))
    _write_rows(b, rng.standard_normal((9, 1)))
    argv = ["paths", "--input", str(a), str(b), "--grid", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--kind", kind]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {kind} paths need a dimension of at least 2, got 1\n"
    assert main(argv + ["--kind", "linear"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row.values())


def test_paths_bad_synthetic_family(capsys):
    assert main(["paths", "--synthetic", "torus:d=3,R=1", "--kind", "linear"]) == 2


def test_paths_empty_grid_exits_2(capsys):
    assert main(["paths", "--synthetic", "sphere:d=4,R=1", "--kind", "slerp", "--grid", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR t_grid must be a nonempty 1-d array\n"


def test_paths_slerp_rejects_off_sphere_synthetic(capsys):
    rc = main(
        [
            "paths",
            "--synthetic",
            "gauss-shells:d=8,r0=2.0,r1=3.0,cv=0.1",
            "--kind",
            "slerp",
            "--pairs",
            "16",
        ]
    )
    assert rc == 2


def test_paths_deterministic_output(capsys):
    argv = [
        "paths",
        "--synthetic",
        "sphere:d=4,R=1.0",
        "--kind",
        "slerp",
        "--grid",
        "4",
        "--pairs",
        "32",
        "--seed",
        "7",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    ("spec", "kind"),
    [
        ("sphere:d=16,R=4", "linear"),
        ("sphere:d=16,R=4", "shell"),
        ("sphere:d=16,R=4", "slerp"),
        # about 3% of uniform pairs at d = 2 lie within 0.1 of antipodal,
        # where every geodesic path must still end on its endpoint
        ("sphere:d=2,R=1", "shell"),
        ("sphere:d=2,R=1", "slerp"),
        # r0 != r1: each shell velocity row carries an r1 - r0 term
        ("gauss-shells:d=16,r0=4,r1=2.5,cv=0.13", "shell"),
    ],
)
def test_paths_synthetic_prints_the_same_bytes_on_any_cpu_count(capsys, monkeypatch, spec, kind):
    # the grid runs one slice per usable CPU, with numpy warnings as errors
    argv = ["paths", "--synthetic", spec, "--kind", kind, "--pairs", "3000"]
    outs = []
    for cpus in (1, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# swap


def test_swap_self_is_byte_identity(tmp_path):
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((12, 5)).astype(np.float32).astype(np.float64)
    src = tmp_path / "src.slfm"
    _write_rows(src, rows)
    out_dir = tmp_path / "dir.slfm"
    out_rad = tmp_path / "rad.slfm"
    rc = main(
        ["swap", str(src), str(src), "--out-direction", str(out_dir), "--out-radius", str(out_rad)]
    )
    assert rc == 0
    assert out_dir.read_bytes() == src.read_bytes()
    assert out_rad.read_bytes() == src.read_bytes()


def test_swap_exchanges_components(tmp_path):
    rng = np.random.default_rng(5)
    a_rows = 2.0 * np.eye(3, 4)
    b_rows = 5.0 * np.roll(np.eye(3, 4), 1, axis=1)
    a = tmp_path / "a.slfm"
    b = tmp_path / "b.slfm"
    _write_rows(a, a_rows)
    _write_rows(b, b_rows)
    out_dir = tmp_path / "dir.slfm"
    out_rad = tmp_path / "rad.slfm"
    rc = main(
        ["swap", str(a), str(b), "--out-direction", str(out_dir), "--out-radius", str(out_rad)]
    )
    assert rc == 0
    keep_dir = container.token_rows(container.read_container(out_dir))
    keep_rad = container.token_rows(container.read_container(out_rad))
    np.testing.assert_allclose(keep_dir, 5.0 * np.eye(3, 4), rtol=1e-6)
    np.testing.assert_allclose(keep_rad, 2.0 * np.roll(np.eye(3, 4), 1, axis=1), rtol=1e-6)


def test_swap_shape_mismatch(tmp_path):
    rng = np.random.default_rng(6)
    a = tmp_path / "a.slfm"
    b = tmp_path / "b.slfm"
    _write_rows(a, rng.standard_normal((3, 4)))
    _write_rows(b, rng.standard_normal((4, 4)))
    out_dir = tmp_path / "d.slfm"
    out_rad = tmp_path / "r.slfm"
    rc = main(
        ["swap", str(a), str(b), "--out-direction", str(out_dir), "--out-radius", str(out_rad)]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# train and sample

_QUICK_TRAIN = [
    "--d", "3",
    "--centers", "2",
    "--spread", "0.2",
    "--steps", "40",
    "--batch", "16",
    "--hidden", "8",
    "--time-dim", "4",
    "--cond-dim", "2",
    "--seed", "0",
]


def test_train_then_sample(tmp_path, capsys):
    ckpt = tmp_path / "model.slfm"
    assert main(["train", "--out", str(ckpt)] + _QUICK_TRAIN) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["steps"] == 40
    assert metrics["final_loss"] is not None
    assert ckpt.exists() and (tmp_path / "model.slfm.json").exists()

    out = tmp_path / "samples.slfm"
    rc = main(
        ["sample", str(ckpt), "--seed", "1", "--n", "64", "--nfe", "8", "--out", str(out)]
    )
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["sampler"] == "expmap"
    assert metrics["max_radius_deviation"] <= 1e-5
    assert len(metrics["assignment_histogram"]) == 2
    assert sum(metrics["assignment_histogram"]) == pytest.approx(1.0, abs=1e-12)
    rows = container.token_rows(container.read_container(out))
    assert rows.shape == (64, 3)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), math.sqrt(3), rtol=1e-5)


def test_train_deterministic(tmp_path, capsys):
    c1 = tmp_path / "m1.slfm"
    c2 = tmp_path / "m2.slfm"
    assert main(["train", "--out", str(c1)] + _QUICK_TRAIN) == 0
    out1 = capsys.readouterr().out
    assert main(["train", "--out", str(c2)] + _QUICK_TRAIN) == 0
    out2 = capsys.readouterr().out
    assert c1.read_bytes() == c2.read_bytes()
    assert json.loads(out1)["final_loss"] == json.loads(out2)["final_loss"]


def test_train_zero_steps(tmp_path, capsys):
    ckpt = tmp_path / "frozen.slfm"
    argv = ["train", "--out", str(ckpt), "--steps", "0", "--seed", "0",
            "--d", "3", "--hidden", "8", "--time-dim", "4", "--cond-dim", "2"]
    assert main(argv) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["initial_loss"] is None
    assert metrics["smoothed_final_loss"] is None
    assert ckpt.exists()


def test_train_weights_reach_the_sidecar_and_the_sample_report(tmp_path, capsys):
    ckpt = tmp_path / "weighted.slfm"
    assert main(["train", "--out", str(ckpt), "--weights", "0.7,0.3"] + _QUICK_TRAIN) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "weighted.slfm.json").read_text())
    assert sidecar["extra"]["dataset"]["weights"] == [0.7, 0.3]
    assert main(["sample", str(ckpt), "--seed", "1", "--n", "16", "--nfe", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["dataset_weights"] == [0.7, 0.3]


def test_train_one_weight_for_two_centers_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "weighted.slfm"
    assert main(["train", "--out", str(ckpt), "--weights", "0.7"] + _QUICK_TRAIN) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR weights must be k reals in [0, 1]\n"
    assert not ckpt.exists()


def test_train_divergence_exit_code(tmp_path, capsys):
    ckpt = tmp_path / "diverged.slfm"
    argv = ["train", "--out", str(ckpt), "--seed", "0", "--d", "3",
            "--hidden", "8", "--time-dim", "4", "--cond-dim", "2",
            "--steps", "5", "--batch", "8", "--lr", "1e200"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3


@pytest.mark.parametrize("kind", ["slerp", "linear"])
def test_train_divergence_nan_output_exit_code(tmp_path, kind):
    # a wider net overflows to a NaN field output before its loss turns
    # infinite; that path must exit 3 too, not fail as a bad input
    ckpt = tmp_path / "diverged.slfm"
    argv = ["train", "--out", str(ckpt), "--seed", "0", "--d", "4",
            "--hidden", "12", "--steps", "10", "--batch", "16", "--lr", "1e200",
            "--loss-kind", kind]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3


@pytest.mark.parametrize("kind", ["slerp", "linear"])
@pytest.mark.parametrize("flag,steps", [("--lr", "5"), ("--lr", "1"), ("--weight-decay", "5")])
def test_train_divergence_reports_one_error_line(tmp_path, capsys, kind, flag, steps):
    # the overflow of a diverging step is no numpy warning; divergence
    # shows as the one ERROR line of exit 3.  One step at lr 1e308 leaves
    # finite parameters past the 32-bit range of a checkpoint
    argv = ["train", "--out", str(tmp_path / "m.slfm"), "--seed", "0", "--steps", steps,
            "--loss-kind", kind, flag, "1e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("ERROR non-finite") and err.count("\n") == 1
    assert "Warning" not in err
    assert not (tmp_path / "m.slfm").exists()


def test_train_empty_hidden_layer_exits_2(tmp_path, capsys):
    # such a field would save a checkpoint that sample refuses; train
    # rejects it before training
    ckpt = tmp_path / "m.slfm"
    argv = ["train", "--out", str(ckpt), "--seed", "0", "--steps", "5", "--hidden", "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR every layer width must be at least 1")
    assert captured.err.count("\n") == 1
    assert not ckpt.exists()


def test_sample_missing_checkpoint(tmp_path):
    assert main(["sample", str(tmp_path / "no.slfm"), "--seed", "0"]) == 2


def _dataset_edit(**values):
    return lambda meta: meta["extra"]["dataset"].update(values)


def _far_center_coordinate(meta):
    meta["extra"]["dataset"]["centers"][0][0] = 1e200


def _move_set_to_4d(meta):
    # a valid training set on the field's sphere, in another dimension
    r = math.sqrt(3)
    meta["extra"]["dataset"].update(d=4, centers=[[r, 0.0, 0.0, 0.0], [0.0, r, 0.0, 0.0]])


# Sidecar edits that describe no valid training set or field, each with a
# word the error must contain; the checkpoint is _QUICK_TRAIN's (d = 3,
# R = sqrt(3), two centers)
_BAD_TRAINING_SETS = {
    "off-sphere-centers": (_dataset_edit(centers=[[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]]), "extra.dataset"),
    "weights-sum-past-1": (_dataset_edit(weights=[1.0, 2.0]), "extra.dataset"),
    "negative-weight": (_dataset_edit(weights=[1.5, -0.5]), "extra.dataset"),
    "center-square-overflows": (_far_center_coordinate, "extra.dataset"),
    "string-spread": (_dataset_edit(spread="wide"), "extra.dataset"),
    "dataset-radius-square-overflows": (_dataset_edit(radius=1e200), "extra.dataset"),
    "field-radius-square-overflows": (lambda meta: meta.update(radius=1e200), "radius"),
    "dataset-d-differs": (_dataset_edit(d=4), "extra.dataset"),
    "dataset-in-other-dimension": (_move_set_to_4d, "dimension 4"),
}


@pytest.mark.parametrize(
    ("edit", "key"),
    [
        (lambda meta: meta.pop("widths"), "widths"),
        (lambda meta: meta.update(widths="abc"), "widths"),
        (lambda meta: meta.update(format="npz"), "format"),
        (lambda meta: meta.update(format_version=2), "format_version"),
        (lambda meta: meta.update(n_cond=2), "layout"),
        (lambda meta: meta["extra"]["dataset"].pop("weights"), "weights"),
        (lambda meta: meta.update(extra=[]), "extra"),
        (lambda meta: meta["extra"].update(dataset="abc"), "dataset"),
        (lambda meta: meta["extra"]["dataset"].update(weights=None), "weights"),
        (lambda meta: meta.update(radius=10**400), "radius"),
        *_BAD_TRAINING_SETS.values(),
    ],
    ids=["missing-widths", "string-widths", "wrong-format", "wrong-version", "layout-mismatch",
         "missing-weights", "list-extra", "string-dataset", "null-weights", "radius-past-float",
         *_BAD_TRAINING_SETS],
)
def test_sample_rejects_malformed_sidecar(tmp_path, capsys, edit, key):
    ckpt = tmp_path / "model.slfm"
    assert main(["train", "--out", str(ckpt)] + _QUICK_TRAIN) == 0
    sidecar = tmp_path / "model.slfm.json"
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["sample", str(ckpt), "--seed", "0", "--n", "8"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint trained once with _QUICK_TRAIN, for tests that only edit
    copies of its sidecar."""
    ckpt = tmp_path_factory.mktemp("trained") / "model.slfm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--out", str(ckpt)] + _QUICK_TRAIN) == 0
    return ckpt


def _sample_edited(trained, directory, edit, argv=("--n", "8")):
    """Run ``sample`` on a copy of ``trained`` whose sidecar ``edit`` changed;
    returns (exit code, stdout, stderr, warnings raised)."""
    meta = json.loads(Path(f"{trained}.json").read_text())
    edit(meta)
    ckpt = directory / "model.slfm"
    ckpt.write_bytes(trained.read_bytes())
    Path(f"{ckpt}.json").write_text(json.dumps(meta))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(["sample", str(ckpt), "--seed", "0", *argv])
    return rc, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize(("edit", "key"), _BAD_TRAINING_SETS.values(), ids=_BAD_TRAINING_SETS)
def test_sample_rejects_bad_training_set_in_one_error_line(trained, tmp_path, edit, key):
    # sample rebuilds the recorded set with SyntheticDataset, as train built
    # it, before any chain is drawn
    rc, out, err, caught = _sample_edited(trained, tmp_path, edit)
    assert rc == 2 and out == "" and caught == []
    assert err.startswith("ERROR ") and err.count("\n") == 1
    assert key in err and "np." not in err


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from([1e200, -1e200, 1e-200, 10**400, math.sqrt(3)])
    | st.text(max_size=3)
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(
    edit=st.sampled_from(["replace", "delete", "center", "weight"]),
    key=st.sampled_from(["d", "radius", "centers", "spread", "weights", "labels", "unknown"]),
    value=_JSON_VALUES,
    row=st.integers(0, 1),
    column=st.integers(0, 2),
    scalar=_JSON_LEAVES,
)
def test_sample_survives_any_training_set_edit(
    trained, tmp_path_factory, edit, key, value, row, column, scalar
):
    # one key of extra.dataset replaced or deleted, or one coordinate of a
    # center or one weight replaced: the set is used (exit 0) or refused in
    # one ERROR line (exit 2), never with a traceback or a numpy warning
    def apply(meta):
        dataset = meta["extra"]["dataset"]
        if edit == "replace":
            dataset[key] = value
        elif edit == "delete":
            dataset.pop(key, None)
        elif edit == "center":
            dataset["centers"][row][column] = scalar
        else:
            dataset["weights"][row] = scalar

    rc, out, err, caught = _sample_edited(
        trained, tmp_path_factory.mktemp("edit"), apply, ("--n", "8", "--nfe", "1")
    )
    assert caught == []
    assert "Traceback" not in err
    if rc == 2:
        assert out == "" and err.startswith("ERROR ") and err.count("\n") == 1
    else:
        assert rc == 0 and err == ""


@pytest.mark.parametrize("cond", ["1", "-1"])
def test_sample_unknown_condition_exits_2(tmp_path, capsys, cond):
    # the checkpoint holds one condition, so only --cond 0 names one
    ckpt = tmp_path / "model.slfm"
    assert main(["train", "--out", str(ckpt)] + _QUICK_TRAIN) == 0
    capsys.readouterr()
    assert main(["sample", str(ckpt), "--seed", "0", "--n", "8", "--cond", cond]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR condition ids must lie in [0, 1)")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("cond", ["18446744073709551615", "-100000000000000000000"])
def test_sample_condition_past_int64_exits_2(tmp_path, capsys, cond):
    # the id is range-checked as a Python int before any array holds it
    ckpt = tmp_path / "model.slfm"
    assert main(["train", "--out", str(ckpt)] + _QUICK_TRAIN) == 0
    capsys.readouterr()
    assert main(["sample", str(ckpt), "--seed", "0", "--n", "4", "--cond", cond]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR condition ids must lie in")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.fixture(scope="module")
def two_conditions(tmp_path_factory):
    """A slerp checkpoint of a two-condition field, which the CLI's own
    train never makes: 20 library steps on two centers labelled 0 and 1,
    the set recorded in the sidecar as train records it."""
    rng = np.random.default_rng(80)
    dataset = model.SyntheticDataset(
        4, 2.0, sphere.uniform_rows(2, 4, 2.0, rng), 0.15, np.array([0.5, 0.5]), labels=[0, 1]
    )
    field = model.VelocityField.create(4, n_cond=2, rng=rng)
    model.train(field, dataset, model.TrainConfig(steps=20), rng)
    spec = {"d": 4, "radius": 2.0, "centers": dataset.centers.tolist(), "spread": 0.15,
            "weights": [0.5, 0.5], "labels": [0, 1]}
    ckpt = tmp_path_factory.mktemp("two_conditions") / "c2.slfm"
    model.save_checkpoint(ckpt, field, extra={"dataset": spec})
    return ckpt


@pytest.mark.parametrize("sampler", ["expmap", "euler", "euler-project"])
@pytest.mark.parametrize(("checkpoint", "cond"), [("trained", "0"), ("two_conditions", "1")])
def test_sample_writes_the_same_bytes_on_any_cpu_count(request, tmp_path, capsys, monkeypatch, checkpoint, cond, sampler):
    # 40 chains in blocks of 16, 16 and 8, one at a time, in waves of two or
    # all at once: the same report and --out bytes, which are those
    # write_container writes for model.sample's outputs
    ckpt = request.getfixturevalue(checkpoint)
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 16)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"on{cpus}.slfm"
        argv = ["sample", str(ckpt), "--seed", "0", "--n", "40", "--nfe", "5", "--sampler", sampler,
                "--cond", cond, "--out", str(out)]
        assert main(argv) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs == [runs[0]] * 3
    field, _ = model.load_checkpoint(ckpt)
    name = {"expmap": "exp_map", "euler": "euler", "euler-project": "euler_project"}[sampler]
    outputs = model.sample(field, 40, name, 5, int(cond), np.random.default_rng(0)).outputs
    container.write_container(tmp_path / "lib.slfm", outputs.reshape(40, field.d, 1, 1))
    assert runs[0][1] == (tmp_path / "lib.slfm").read_bytes()


_FAR_IDS = [-(2**70), -(2**63) - 1, 2**63, 2**64 - 1, 2**70]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(0, 40),
    nfe=st.integers(0, 6),
    sampler=st.sampled_from(["euler", "euler-project", "expmap"]),
    cond=st.one_of(st.integers(-3, 4), st.sampled_from(_FAR_IDS)),
    seed=st.one_of(st.integers(0, 2**32), st.sampled_from([-1, 2**70])),
)
def test_sample_exits_0_2_or_3_on_any_argv(two_conditions, capsys, n, nfe, sampler, cond, seed):
    # a report of n chains, or one ERROR line and no report; never a
    # traceback or a numpy warning, in blocks of 8 rows on two threads.
    # Exit 2 exactly when the argv names no chain, no step, a condition
    # outside the two, or a negative seed
    argv = ["sample", str(two_conditions), "--n", str(n), "--nfe", str(nfe),
            "--sampler", sampler, "--cond", str(cond), "--seed", str(seed)]
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        patch.setattr(model, "_usable_cpus", lambda: 2)
        patch.setattr(model, "SAMPLE_BLOCK", 8)
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    bad = n < 1 or nfe < 1 or cond not in (0, 1) or seed < 0
    assert code == 2 if bad else code in (0, 3)
    if code:
        assert captured.out == ""
        assert captured.err.startswith("ERROR ") and captured.err.count("\n") == 1
        return
    assert captured.err == ""
    report = json.loads(captured.out)
    assert (report["sampler"], report["n"], report["nfe"]) == (sampler, n, nfe)
    assert math.isfinite(report["max_radius_deviation"])
    assert len(report["assignment_histogram"]) == 2
    assert abs(math.fsum(report["assignment_histogram"]) - 1.0) <= 1e-12


@pytest.mark.parametrize("flag", ["--d", "--time-dim", "--cond-dim", "--centers", "--hidden"])
def test_train_dimension_past_int64_exits_2(tmp_path, capsys, flag):
    # one error line that names the option, not numpy's bare "Maximum
    # allowed dimension exceeded"
    ckpt = tmp_path / "m.slfm"
    for value in (2**63, 10**30):
        argv = ["train", "--out", str(ckpt), "--seed", "0", "--steps", "5", f"{flag}={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR {flag} must be at most {2**63 - 1}, got {value}\n"
        assert not ckpt.exists()


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--d", "-1", "ERROR --d must be at least 2, got -1\n"),
        ("--d", "1", "ERROR --d must be at least 2, got 1\n"),
        ("--cond-dim", "-1", "ERROR --cond-dim must be at least 0, got -1\n"),
    ],
)
def test_train_too_small_dimension_exits_2_naming_the_option(tmp_path, capsys, flag, value, message):
    ckpt = tmp_path / "m.slfm"
    argv = ["train", "--out", str(ckpt), "--seed", "0", "--steps", "5", flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not ckpt.exists()


@pytest.mark.parametrize(
    ("argv", "callee"),
    [
        (["train", "--seed", "0", "--steps", "5"], (model, "train")),
        (["paths", "--synthetic", "sphere:d=4,R=2", "--kind", "slerp"], (diagnostics, "path_profile")),
    ],
    ids=["train", "paths"],
)
@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_memory_error_reports_one_error_line(tmp_path, capsys, monkeypatch, argv, callee, message):
    # a request too large for memory is bad input; it is injected here, as a
    # real one may succeed on a host that overcommits memory
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*callee, exhausted)
    if argv[0] == "train":
        argv = argv + ["--out", str(tmp_path / "m.slfm")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR out of memory: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_sample_plain_euler_drifts(tmp_path, capsys):
    ckpt = tmp_path / "model.slfm"
    assert main(["train", "--out", str(ckpt)] + _QUICK_TRAIN) == 0
    capsys.readouterr()
    rc = main(
        ["sample", str(ckpt), "--seed", "2", "--n", "32", "--nfe", "4",
         "--sampler", "euler"]
    )
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    # no projection, so the chains leave the sphere measurably
    assert metrics["max_radius_deviation"] > 1e-5


# ---------------------------------------------------------------------------
# deficit


def test_deficit_analytical_matches_measured(capsys):
    assert main(["deficit", "--h", "0.1", "--omega", "1.0"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert float(rows[0]["rel_diff"]) <= 1e-9
    assert float(rows[0]["analytical"]) == pytest.approx(
        0.1 - math.atan(0.1), rel=1e-12
    )


def test_deficit_rejects_bad_domain(capsys):
    assert main(["deficit", "--h", "0.0", "--omega", "1.0"]) == 2
    assert main(["deficit", "--h", "0.1", "--omega", "3.5"]) == 2
    assert main(["deficit", "--h", "0.1", "--omega", "-0.5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--h", "nan", "--omega", "1.0"],
        ["--h", "inf", "--omega", "1.0"],
        ["--h", "1e308", "--omega", "1.0"],
        ["--h", "1e308", "--omega", "3.0"],
    ],
    ids=["h-nan", "h-inf", "h-overflow", "h-omega-overflow"],
)
def test_deficit_non_finite_or_overflowing_step_exits_2(capsys, argv):
    # one error line on stderr: no report of NaNs, no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["deficit"] + argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR step h") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# parser behavior


@pytest.mark.parametrize("value", ["-1e-3", "-2E+0", "-.5", "-1.5e2"])
def test_negative_reals_in_exponent_form_are_option_values(tmp_path, value):
    ckpt = tmp_path / "m.slfm"
    argv = ["train", "--out", str(ckpt), "--seed", "0", "--steps", "1", "--batch", "8",
            "--time-mean", value]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "m.slfm.json").read_text())
    assert meta["config"]["time_mean"] == float(value)


# Radii outside the one radius rule (R > 0, R * R a normal, finite float),
# each at a place a radius comes in from argv, with the text of the value
_BAD_RADIUS_ARGV = {
    "stats-project-square-overflows": (["stats", "{tmp}/lat.slfm", "--project", "1e300"], "1e300"),
    "train-radius-square-overflows": (
        ["train", "--out", "{tmp}/x.slfm", "--seed", "0", "--radius", "1e200"], "1e200"
    ),
    "train-radius-square-underflows": (
        ["train", "--out", "{tmp}/x.slfm", "--seed", "0", "--radius", "1e-200"], "1e-200"
    ),
    "deficit-radius-square-overflows": (
        ["deficit", "--h", "0.1", "--omega", "1", "--radius", "1e200"], "1e200"
    ),
    "paths-R-square-underflows": (
        ["paths", "--synthetic", "sphere:d=4,R=1e-200", "--kind", "linear"], "1e-200"
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--out", "{tmp}/x.slfm", "--seed", "0", "--centers", "0"],
        ["train", "--out", "{tmp}/x.slfm", "--seed", "0", "--radius", "nan"],
        ["stats", "{tmp}/lat.slfm", "--project", "nan"],
        ["stats", "{tmp}/lat.slfm", "--project", "inf"],
        ["stats", "{tmp}/lat.slfm", "--project", "-2"],
        ["paths", "--synthetic", "sphere:d=4,R=nan", "--kind", "linear"],
        ["paths", "--synthetic", "sphere:d=4,R=nan", "--kind", "slerp"],
        ["paths", "--synthetic", "sphere:d=4,R=-1", "--kind", "linear"],
        ["paths", "--synthetic", "gauss-shells:d=4,r0=1,r1=inf,cv=0.1", "--kind", "linear"],
        ["paths", "--synthetic", "gauss-shells:d=4,r0=1,r1=2,cv=nan", "--kind", "linear"],
        ["deficit", "--h", "0.1", "--omega", "1", "--radius", "-1"],
        ["gaussian-norms", str(10**400)],
        ["paths", "--synthetic", "sphere:d=4,R=1e200", "--kind", "slerp"],
        ["paths", "--synthetic", "sphere:d=4,R=1e308", "--kind", "linear", "--format", "json"],
        *(argv for argv, _ in _BAD_RADIUS_ARGV.values()),
    ],
    ids=[
        "train-centers-0", "train-radius-nan", "stats-project-nan", "stats-project-inf",
        "stats-project-negative", "paths-R-nan-linear", "paths-R-nan-slerp",
        "paths-R-negative", "paths-r1-inf", "paths-cv-nan", "deficit-radius-negative",
        "gaussian-norms-d-past-float", "paths-R-square-overflows-slerp",
        "paths-R-square-overflows-linear-json",
        *_BAD_RADIUS_ARGV,
    ],
)
def test_out_of_domain_values_exit_2(tmp_path, capsys, argv):
    # non-finite or nonpositive radii, a NaN cv and no centers are bad input, not a report
    _write_rows(tmp_path / "lat.slfm", np.random.default_rng(8).standard_normal((4, 3)))
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(("argv", "value"), _BAD_RADIUS_ARGV.values(), ids=_BAD_RADIUS_ARGV)
def test_bad_radius_is_one_error_line_naming_it(tmp_path, capsys, argv, value):
    # argparse rejects an option (its usage, then "error: argument
    # --radius: ..."), the spec parser a spec key ("ERROR bad value for
    # 'R': ..."); either way before any array holds the radius
    _write_rows(tmp_path / "lat.slfm", np.random.default_rng(8).standard_normal((4, 3)))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error" in line.lower()]
    assert len(errors) == 1 and value in errors[0]
    assert "np." not in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "spec, kind, fmt",
    [
        ("sphere:d=4,R=1e200", "slerp", "csv"),
        ("sphere:d=4,R=1e308", "linear", "json"),
        ("sphere:d=4,R=1e153", "linear", "csv"),
        ("gauss-shells:d=4,r0=1,r1=1,cv=1e300", "shell", "json"),
    ],
)
def test_paths_past_float_range_exit_2(capsys, spec, kind, fmt):
    # squared norms, velocities or their sums past float64: one error line,
    # no report of infinities and NaNs, no numpy warning
    argv = ["paths", "--synthetic", spec, "--kind", kind, "--format", fmt]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR ") and captured.err.count("\n") == 1


_SPEC_REALS = st.sampled_from(
    ["2.0", "0.13", "3", "0.5"] * 8 + ["0", "-1", "nan", "inf", "1e-300", "1e154", "1e200", "x"]
)


@st.composite
def _synthetic_specs(draw):
    """A ``--synthetic`` spec of either family (or an unknown one), with a
    dimension and reals that may be out of range or not numbers at all."""
    family = draw(st.sampled_from(["sphere", "gauss-shells"] * 4 + ["torus"]))
    d = draw(st.sampled_from(["2", "3", "8"] * 6 + ["0", "1", "-1", "x"]))
    if family == "gauss-shells":
        r0, r1, cv = (draw(_SPEC_REALS) for _ in range(3))
        return f"gauss-shells:d={d},r0={r0},r1={r1},cv={cv}"
    return f"{family}:d={d},R={draw(_SPEC_REALS)}"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    spec=_synthetic_specs(),
    kind=st.sampled_from(["linear", "shell", "slerp"]),
    pairs=st.integers(-1, 33),
    grid=st.integers(-1, 5),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_paths_exits_0_or_2_on_any_synthetic_argv(capsys, spec, kind, pairs, grid, fmt):
    # a profile of finite rows, one per grid point, or one ERROR line and
    # no report; never a traceback or a numpy warning, on two grid slices
    argv = ["paths", "--synthetic", spec, "--kind", kind, "--pairs", str(pairs),
            "--grid", str(grid), "--format", fmt]
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        patch.setattr(model, "_usable_cpus", lambda: 2)
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("ERROR ") and captured.err.count("\n") == 1
        return
    assert captured.err == ""
    if fmt == "json":
        rows = json.loads(captured.out)
    else:
        header, rows = _csv_rows(captured.out)
        rows = [{k: float(v) for k, v in row.items()} for row in rows]
    assert len(rows) == grid
    assert all(math.isfinite(v) for row in rows for v in row.values())


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--lr", "nan"),
        ("--lr", "inf"),
        ("--weight-decay", "nan"),
        ("--weight-decay", "inf"),
        ("--time-mean", "nan"),
        ("--time-mean", "inf"),
        ("--time-std", "nan"),
        ("--time-std", "inf"),
        ("--shift", "nan"),
        ("--shift", "inf"),
    ],
)
def test_train_non_finite_config_exits_2(tmp_path, capsys, flag, value):
    # a bad argument is bad input (2), not divergence (3), and stderr holds
    # the one error line: no traceback and no numpy warning
    argv = ["train", "--out", str(tmp_path / "m.slfm"), "--seed", "0", "--steps", "20",
            "--batch", "8", flag, value]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("ERROR ") and err.count("\n") == 1
    assert not (tmp_path / "m.slfm").exists()


_PAST_INT64 = str(2**63)
_TRAIN_REALS = ["0", "-1", "1e-300", "1e300", "1e308", "nan", "inf", "-inf", "x"]
_TRAIN_INTS = ["-1", "0", "1", "3", "-" + _PAST_INT64, _PAST_INT64, str(10**30)]
# each option's usual values (None: its default) and its odd ones; at most
# 18 steps of at most 9 rows
_TRAIN_OPTIONS = {
    "--steps": ([str(k) for k in range(19)], ["-1", "-" + _PAST_INT64]),
    "--batch": ([str(k) for k in range(1, 10)], ["0", "-1", "-" + _PAST_INT64]),
    "--d": (["2", "3", "4"], ["8"] + _TRAIN_INTS),
    "--centers": (["1", "2", "3"], _TRAIN_INTS),
    "--spread": ([None, "0.15", "1.0"], _TRAIN_REALS),
    "--weights": ([None], ["0.6,0.4", "1", "0.2,0.3,0.5", "0,0", "-1,2", "nan,1", "1e308,1e308", "x"]),
    "--radius": ([None, "2.0"], _TRAIN_REALS),
    "--lr": (["1e-3", "0.1"], _TRAIN_REALS),
    "--hidden": (["8", "4,4"], ["0", "", "-1", "4,x", "4," + _PAST_INT64, str(10**30)]),
    "--time-dim": (["4", "16"], ["2", "2046", "2048"] + _TRAIN_INTS),
    "--cond-dim": (["2", "8"], _TRAIN_INTS),
    "--time-sampling": ([None], list(model.TIME_SAMPLING)),
    "--time-mean": ([None, "0.5"], _TRAIN_REALS),
    "--time-std": ([None, "0.5"], _TRAIN_REALS),
    "--shift": ([None, "3.0"], _TRAIN_REALS),
    "--weight-decay": ([None, "0.01"], _TRAIN_REALS),
    "--loss-kind": ([None], list(model.LOSS_KINDS)),
}


@st.composite
def _train_options(draw):
    """``--flag=value`` words: usual values, with up to three options odd."""
    odd = draw(st.lists(st.sampled_from(list(_TRAIN_OPTIONS)), max_size=3))
    words = []
    for flag, (usual, unusual) in _TRAIN_OPTIONS.items():
        value = draw(st.sampled_from(unusual if flag in odd else usual))
        if value is not None:
            words.append(f"{flag}={value}")
    return words


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(options=_train_options(), seed=st.integers(0, 3))
def test_train_exits_0_2_or_3_on_any_argv(tmp_path_factory, capsys, options, seed):
    # a report and a checkpoint, or an error and no checkpoint; never a
    # traceback or a numpy warning
    ckpt = tmp_path_factory.mktemp("train") / "m.slfm"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--out", str(ckpt), "--seed", str(seed)] + options)
    assert caught == []
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 2, 3)
    if code:
        assert captured.out == ""
        assert not ckpt.exists()
        return
    assert f"--steps={json.loads(captured.out)['steps']}" in options
    assert ckpt.exists()


def _run_quietly(capsys, argv):
    """``main(argv)`` on one usable CPU with numpy warnings recorded:
    (exit code, stdout, stderr, warnings)."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        patch.setattr(model, "_usable_cpus", lambda: 1)
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, caught


def _report_rows(out, fmt):
    """The rows of a CSV or JSON report, as dicts of floats."""
    if fmt == "json":
        return [{k: float(v) for k, v in row.items()} for row in json.loads(out)]
    _, rows = _csv_rows(out)
    return [{k: float(v) for k, v in row.items()} for row in rows]


_ODD_WORDS = ["", "x", "nan", "-", "1.5", "1e3", "0x10", "--", "-x"]
_FAR_INTS = [2**63, -(2**63) - 1, 10**16, 10**308, 10**309, 10**400, -(10**400)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ds=st.lists(
        st.one_of(st.integers(-3, 200).map(str), st.sampled_from(_FAR_INTS).map(str),
                  st.sampled_from(_ODD_WORDS)),
        max_size=4,
    ),
    fmt=st.sampled_from([None, "csv", "json", "xml"]),
)
def test_gaussian_norms_exits_0_or_2_on_any_argv(capsys, ds, fmt):
    # a finite row per dimension, or an error and no report; never a
    # traceback or a numpy warning
    argv = ["gaussian-norms", *ds] + ([] if fmt is None else [f"--format={fmt}"])
    code, out, err, caught = _run_quietly(capsys, argv)
    assert caught == []
    assert "Traceback" not in err
    assert code in (0, 2)
    if code:
        assert out == ""
        return
    assert err == ""
    if "--" in ds:  # the first ends the options; it is no dimension
        ds.remove("--")
    rows = _report_rows(out, fmt or "csv")
    assert [row["d"] for row in rows] == [float(int(d)) for d in ds]
    assert all(math.isfinite(v) for row in rows for v in row.values())


_DEFICIT_REALS = ["0", "-1", "1e-300", "0.1", "1", "3", "3.2", "1e150", "1e308",
                  "nan", "inf", "-inf", "x"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    h=st.one_of(st.sampled_from(_DEFICIT_REALS), st.floats().map(repr)),
    omega=st.one_of(st.sampled_from(_DEFICIT_REALS), st.floats(0.0, 4.0).map(repr)),
    radius=st.one_of(st.none(), st.sampled_from(_DEFICIT_REALS + ["1e154", "1e-154"])),
    fmt=st.sampled_from([None, "csv", "json"]),
)
def test_deficit_exits_0_or_2_on_any_argv(capsys, h, omega, radius, fmt):
    # one finite row, or an error and no report; never a traceback or a
    # numpy warning
    argv = ["deficit", f"--h={h}", f"--omega={omega}"]
    argv += [] if radius is None else [f"--radius={radius}"]
    argv += [] if fmt is None else [f"--format={fmt}"]
    code, out, err, caught = _run_quietly(capsys, argv)
    assert caught == []
    assert "Traceback" not in err
    assert code in (0, 2)
    if code:
        assert out == ""
        return
    assert err == ""
    (row,) = _report_rows(out, fmt or "csv")
    assert all(math.isfinite(v) for v in row.values())
    assert row["measured"] >= 0.0 and row["analytical"] >= 0.0


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_argument_exits_2(capsys):
    assert main(["paths", "--kind", "linear"]) == 2


def test_verbose_logs_to_stderr_only(tmp_path, capsys):
    rng = np.random.default_rng(7)
    path = tmp_path / "lat.slfm"
    container.write_container(path, rng.standard_normal((1, 4, 2, 2)))
    assert main(["-v", "stats", str(path)]) == 0
    captured = capsys.readouterr()
    # stdout stays machine-readable; progress chatter goes to stderr
    header, _ = _csv_rows(captured.out)
    assert header == ["n_tokens", "mean_radius", "std_radius", "cv"]
    assert "tokens" in captured.err


def test_in_process_calls_share_the_parser_and_no_state(tmp_path, capsys):
    # the parser is built once per process; each call still starts afresh
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "lat.slfm"
    container.write_container(path, np.random.default_rng(7).standard_normal((1, 4, 2, 2)))
    assert main(["-v", "stats", str(path)]) == 0
    assert "tokens" in capsys.readouterr().err
    assert main(["stats", str(path)]) == 0
    assert capsys.readouterr().err == ""
    # a parse error after a success
    assert main(["deficit", "--h", "0.1"]) == 2
    assert "--omega" in capsys.readouterr().err
    assert main(["gaussian-norms", "4"]) == 0
    capsys.readouterr()
    assert main(["gaussian-norms"]) == 0
    assert capsys.readouterr().out == "d,exact_mean,approx_mean,cv\n"


@pytest.mark.parametrize(
    "argv", [["--h", "2", "--omega", "3"], ["--h", "1e150", "--omega", "1.0"]], ids=["past-antipode", "huge-step"]
)
def test_deficit_past_pi_r_exits_2(capsys, argv):
    # the measured column is an arc of at most pi R and cannot match
    assert main(["deficit"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR step h") and captured.err.count("\n") == 1


def test_sample_rejects_non_integer_labels_in_one_error_line(trained, tmp_path):
    rc, out, err, caught = _sample_edited(trained, tmp_path, _dataset_edit(labels=[1.5, 0]))
    assert rc == 2 and out == "" and caught == []
    assert err.startswith("ERROR ") and err.count("\n") == 1
    assert "labels must be integer condition ids" in err


def test_failed_sample_write_keeps_the_previous_file(trained, tmp_path, monkeypatch, capsys):
    out = tmp_path / "samples.slfm"
    argv = ["sample", str(trained), "--n", "8", "--out", str(out), "--seed"]
    assert main(argv + ["0"]) == 0
    before = out.read_bytes()

    def fail_partway(writer, rows):
        writer._fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(container.BlockWriter, "write_rows", fail_partway)
    capsys.readouterr()
    assert main(argv + ["1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR disk full\n"
    # the previous samples, byte for byte, and no temporary left beside them
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["samples.slfm"]


def test_sample_diverging_after_written_blocks_keeps_the_previous_file(
    trained, tmp_path, monkeypatch, capsys
):
    # blocks of 4 rows in waves of two: rows 0..3 and 4..7 are written
    # before the last block, rows 8..9, diverges, and the run exits 3 with
    # the previous samples as they were
    out = tmp_path / "samples.slfm"
    argv = ["sample", str(trained), "--n", "10", "--out", str(out), "--seed"]
    assert main(argv + ["0"]) == 0
    before = out.read_bytes()
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 4)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    integrate_all = model.integrate

    def integrate_block(vel_fn, z0, *args):
        return np.full_like(z0, np.nan) if len(z0) == 2 else integrate_all(vel_fn, z0, *args)

    written = []
    write_rows = container.BlockWriter.write_rows

    def count_rows(writer, rows):
        written.append(len(rows))
        write_rows(writer, rows)

    monkeypatch.setattr(model, "integrate", integrate_block)
    monkeypatch.setattr(container.BlockWriter, "write_rows", count_rows)
    capsys.readouterr()
    assert main(argv + ["1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR non-finite chains among rows 8..9\n"
    assert written == [4, 4]
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["samples.slfm"]


def test_sample_out_memory_does_not_grow_with_n(trained, tmp_path, monkeypatch, capsys):
    # 16-row blocks in waves of two, written, measured and counted as they
    # come: 64 -> 2048 chains adds no per-chain term to the traced peak.  A
    # design that held the n x d chains added about 190 KB, and one float64
    # row per chain would add 48 KB; the allowance covers what the timing of
    # the two threads and of the writes moves the peak by, seen up to 15 KB
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 16)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    peaks = {}
    for n in (64, 2048):
        argv = ["sample", str(trained), "--seed", "0", "--n", str(n), "--nfe", "2",
                "--out", str(tmp_path / f"s{n}.slfm")]
        assert main(argv) == 0  # warm: first-call allocations are not the command's
        # no collection in the middle of a run, which would move its peak
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
    assert "assignment_histogram" in capsys.readouterr().out  # the checkpoint has a dataset
    assert peaks[2048] - peaks[64] <= 32768


def _collapsing_checkpoint(path):
    # no hidden layer, token weights of -50 and every other weight 0: the
    # velocity is -50 z, so at --nfe 50 one projected Euler step lands every
    # chain on the origin
    field = model.VelocityField.create(4, hidden=(), rng=np.random.default_rng(0))
    field.flat[:] = 0.0
    field.weights[0][:4] = -50.0 * np.eye(4)
    model.save_checkpoint(path, field)


def test_sample_collapsed_projected_chain_exits_3(tmp_path, capsys):
    ckpt = tmp_path / "col.slfm"
    _collapsing_checkpoint(ckpt)
    argv = ["sample", str(ckpt), "--seed", "0", "--n", "8", "--sampler", "euler-project",
            "--nfe", "50", "--out", str(tmp_path / "samples.slfm")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR chains among rows 0..7 collapsed: row norm below 1e-08\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["col.slfm", "col.slfm.json"]


def _diverging_checkpoint(path):
    # no hidden layer and token weights of 1e30, which 32-bit storage holds:
    # each Euler step multiplies a chain by about 1e30 / nfe, past the float
    # range within a few steps
    field = model.VelocityField.create(4, hidden=(), rng=np.random.default_rng(0))
    field.weights[0][:4] = 1e30 * np.eye(4)
    model.save_checkpoint(path, field)


@pytest.mark.parametrize("write", [False, True], ids=["no-out", "out"])
def test_sample_diverging_euler_exits_3(tmp_path, capsys, write):
    ckpt = tmp_path / "div.slfm"
    _diverging_checkpoint(ckpt)
    argv = ["sample", str(ckpt), "--seed", "0", "--n", "8", "--sampler", "euler", "--nfe", "50"]
    if write:
        argv += ["--out", str(tmp_path / "samples.slfm")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR non-finite chains") and captured.err.count("\n") == 1
    # no sample file, not even a partial one
    assert sorted(p.name for p in tmp_path.iterdir()) == ["div.slfm", "div.slfm.json"]


def test_sample_euler_chain_whose_squared_norm_overflows_exits_3(tmp_path, capsys):
    # at --nfe 6 the Euler chains stay finite (about 1e173) but their norms
    # do not: divergence, with no numpy warning and no Infinity in a report
    ckpt = tmp_path / "div.slfm"
    _diverging_checkpoint(ckpt)
    argv = ["sample", str(ckpt), "--seed", "0", "--n", "8", "--sampler", "euler", "--nfe", "6"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR non-finite chains among rows 0..7\n"


@pytest.mark.parametrize(
    "option, message",
    [("--n", "need at least one chain"), ("--nfe", "nfe must be at least 1")],
    ids=["n", "nfe"],
)
def test_sample_without_chains_or_steps_exits_2_and_writes_nothing(
    trained, tmp_path, monkeypatch, capsys, option, message
):
    # checked before any file is opened, the temporary among them
    monkeypatch.setattr(container, "replacing", lambda targets: pytest.fail("a file was opened"))
    out = tmp_path / "x"
    assert main(["sample", str(trained), "--seed", "0", option, "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sample_far_out_radius_reports_histogram(tmp_path, capsys):
    # R = 1.3e154 passes the radius rule, but its squared center distances
    # (up to 4 R^2) do not fit a float; the histogram still runs without an
    # overflow and counts every chain
    ckpt = tmp_path / "big.slfm"
    assert main(["train", "--seed", "0", "--steps", "0", "--radius", "1.3e154", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sample", str(ckpt), "--seed", "0", "--n", "16", "--nfe", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    hist = json.loads(captured.out)["assignment_histogram"]
    assert len(hist) == 2 and math.fsum(hist) == 1.0


def test_sample_diverging_expmap_exits_3(tmp_path, capsys):
    # the exp-map chains stay finite but leave the sphere: divergence, not
    # bad input
    ckpt = tmp_path / "div.slfm"
    _diverging_checkpoint(ckpt)
    argv = ["sample", str(ckpt), "--seed", "0", "--n", "8", "--sampler", "expmap", "--nfe", "50",
            "--out", str(tmp_path / "samples.slfm")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR chains among rows 0..7 left the sphere by")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["div.slfm", "div.slfm.json"]


def test_train_odd_time_dim_exits_2_and_writes_nothing(tmp_path, capsys):
    # such a checkpoint could never be sampled
    out = tmp_path / "t3.slfm"
    assert main(["train", "--seed", "0", "--steps", "0", "--time-dim", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR time embedding width must be even and at least 2, got 3\n"
    assert list(tmp_path.iterdir()) == []


def test_train_time_dim_past_2046_exits_2_and_writes_nothing(tmp_path, capsys):
    # its top frequency would overflow, and every loss would be NaN
    out = tmp_path / "t.slfm"
    assert main(["train", "--seed", "0", "--steps", "2", "--time-dim", "2048", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR time embedding width must be at most 2046, got 2048")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    # the widest width trains
    assert main(["train", "--seed", "0", "--steps", "2", "--time-dim", "2046", "--out", str(out)]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["final_loss"])


def test_sample_rejects_a_sidecar_with_time_dim_past_2046(tmp_path, capsys, monkeypatch):
    # such a checkpoint could be written before the width had a top: every
    # chain it sampled was NaN
    ckpt = tmp_path / "t.slfm"
    with monkeypatch.context() as m:
        m.setattr(model, "TIME_DIM_MAX", 2048)
        field = model.VelocityField.create(4, hidden=(6,), time_dim=2048, rng=np.random.default_rng(0))
        model.save_checkpoint(ckpt, field)
    assert main(["sample", str(ckpt), "--seed", "0", "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR time embedding width must be at most 2046, got 2048")


@pytest.mark.parametrize(
    "options",
    [
        # the noise rows' squared norms pass float max; projected, they are
        # directions like any other, not zero rows below the norm floor
        ["--spread", "1e300"],
        # the linear loss under shifted uniform times
        ["--loss-kind", "linear", "--time-sampling", "uniform", "--shift", "3"],
        # one column: the condition table's gradient stays on np.add.at
        ["--cond-dim", "1"],
        ["--cond-dim", "0"],
        # one embedding row a step, on the full-input path
        ["--batch", "1"],
        # about 3% of uniform pairs lie within 0.1 of antipodal
        ["--d", "2"],
    ],
    ids=["spread-1e300", "linear-uniform-shift-3", "cond-dim-1", "cond-dim-0", "batch-1", "d-2"],
)
def test_train_17_steps_with_warnings_as_errors(tmp_path, capsys, options):
    # one full chunk of batches and one step more, without a warning of any kind
    argv = ["train", "--seed", "0", "--steps", "17", "--out", str(tmp_path / "m.slfm")] + options
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == 17 and math.isfinite(report["final_loss"])
