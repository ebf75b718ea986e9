"""Command-line surface: report formats, exit codes, and end-to-end runs."""

import json
import math
import warnings

import numpy as np
import pytest

from slfm import container
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


def test_paths_bad_synthetic_family(capsys):
    assert main(["paths", "--synthetic", "torus:d=3,R=1", "--kind", "linear"]) == 2


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


def test_sample_missing_checkpoint(tmp_path):
    assert main(["sample", str(tmp_path / "no.slfm"), "--seed", "0"]) == 2


@pytest.mark.parametrize(
    ("edit", "key"),
    [
        (lambda meta: meta.pop("widths"), "widths"),
        (lambda meta: meta.update(widths="abc"), "widths"),
        (lambda meta: meta.update(format="npz"), "format"),
        (lambda meta: meta.update(format_version=2), "format_version"),
        (lambda meta: meta.update(n_cond=2), "layout"),
    ],
    ids=["missing-widths", "string-widths", "wrong-format", "wrong-version", "layout-mismatch"],
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
    ],
    ids=[
        "train-centers-0", "train-radius-nan", "stats-project-nan", "stats-project-inf",
        "stats-project-negative", "paths-R-nan-linear", "paths-R-nan-slerp",
        "paths-R-negative", "paths-r1-inf", "paths-cv-nan", "deficit-radius-negative",
    ],
)
def test_out_of_domain_values_exit_2(tmp_path, capsys, argv):
    # non-finite or nonpositive radii, a NaN cv and no centers are bad input, not a report
    _write_rows(tmp_path / "lat.slfm", np.random.default_rng(8).standard_normal((4, 3)))
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err



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


@pytest.mark.parametrize(
    "argv", [["--h", "2", "--omega", "3"], ["--h", "1e150", "--omega", "1.0"]], ids=["past-antipode", "huge-step"]
)
def test_deficit_past_pi_r_exits_2(capsys, argv):
    # the measured column is an arc of at most pi R and cannot match
    assert main(["deficit"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR step h") and captured.err.count("\n") == 1
