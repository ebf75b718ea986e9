"""Command-line surface.

Subcommands map one-to-one onto the library's experiment apparatus:
``gaussian-norms`` and ``stats`` (shell statistics), ``paths`` (profile
curves), ``swap`` (direction/radius hybrids), ``train``/``sample`` (the toy
flow model), ``deficit`` (projected-Euler arc-length shortfall).

Reports go to stdout as CSV or JSON with full-precision floats; logging goes
to stderr.  Exit codes: 0 success, 2 bad input or format, 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys

import numpy as np

from . import container, diagnostics, model, sphere, synthetic
from .errors import DimensionMismatch, DivergenceDetected
from .paths import PathKind

log = logging.getLogger("slfm")


def _fmt(value) -> str:
    # repr of a Python float is the shortest string that round-trips, which
    # is also what the json module emits; CSV and JSON stay digit-identical.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(rows, columns, fmt: str, stream=None) -> None:
    stream = sys.stdout if stream is None else stream
    if fmt == "json":
        json.dump([{k: row[k] for k in columns} for row in rows], stream, indent=2)
        stream.write("\n")
    else:
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row[k]) for k in columns) + "\n")


def _emit_json(obj, stream=None) -> None:
    stream = sys.stdout if stream is None else stream
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _positive_float(text: str) -> float:
    """argparse type for radii: a finite float above zero."""
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _parse_float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gaussian_norms(args) -> int:
    rows = []
    for d in args.d:
        rows.append(
            {
                "d": int(d),
                "exact_mean": sphere.gaussian_mean_radius_exact(d),
                "approx_mean": sphere.gaussian_mean_radius_approx(d),
                "cv": sphere.gaussian_norm_cv(d),
            }
        )
    emit_report(rows, ["d", "exact_mean", "approx_mean", "cv"], args.format)
    return 0


def cmd_stats(args) -> int:
    # one norm per token is all that outlives a block
    with container.BlockReader(args.input) as reader:
        log.info("read %d tokens of dimension %d", reader.n_tokens, reader.shape[1])
        norms = np.empty(reader.n_tokens)
        first = 0
        for rows in reader.token_blocks():
            if args.project is not None:
                rows = sphere.project_rows(rows, args.project)
            norms[first : first + rows.shape[0]] = np.linalg.norm(rows, axis=-1)
            first += rows.shape[0]
    stats = diagnostics._shell_stats_of_norms(norms)
    emit_report(
        [
            {
                "n_tokens": stats.n_tokens,
                "mean_radius": stats.mean_radius,
                "std_radius": stats.std_radius,
                "cv": stats.cv,
            }
        ],
        ["n_tokens", "mean_radius", "std_radius", "cv"],
        args.format,
    )
    return 0


def cmd_paths(args) -> int:
    kind = PathKind(args.kind)
    if args.synthetic:
        spec = synthetic.parse_spec(args.synthetic)
        rng = np.random.default_rng(args.seed)
        z0s, z1s = synthetic.pairs_from_spec(spec, args.pairs, rng)
    else:
        a = container.token_rows(container.read_container(args.input[0]))
        b = container.token_rows(container.read_container(args.input[1]))
        if a.shape[1] != b.shape[1]:
            raise DimensionMismatch(
                f"token dimensions differ: {a.shape[1]} vs {b.shape[1]}"
            )
        n = min(a.shape[0], b.shape[0])
        z0s, z1s = a[:n], b[:n]
    log.info("profiling %d pairs, kind %s", z0s.shape[0], kind.value)
    profile = diagnostics.path_profile(z0s, z1s, kind, np.linspace(0.0, 1.0, args.grid))
    rows = [
        {
            "t": float(profile.t_grid[i]),
            "mean_norm": float(profile.mean_norm[i]),
            "std_norm": float(profile.std_norm[i]),
            "offshell_sigma": float(profile.mean_offshell_sigma[i]),
            "radial_share": float(profile.mean_radial_share[i]),
        }
        for i in range(profile.t_grid.shape[0])
    ]
    emit_report(
        rows, ["t", "mean_norm", "std_norm", "offshell_sigma", "radial_share"], args.format
    )
    return 0


def cmd_swap(args) -> int:
    targets = [args.out_direction, args.out_radius]
    if os.path.realpath(targets[0]) == os.path.realpath(targets[1]):
        raise ValueError(f"--out-direction and --out-radius name the same file: {targets[0]}")
    # both hybrids go to temporaries, renamed over the targets only once both
    # are complete; inputs are closed before then, so a target may name one
    with container.replacing(targets) as (dir_temp, rad_temp):
        with (
            container.BlockReader(args.anchor) as anchor,
            container.BlockReader(args.substitute) as substitute,
        ):
            if anchor.shape != substitute.shape:
                raise DimensionMismatch(
                    f"container shapes differ: {anchor.shape} vs {substitute.shape}"
                )
            with (
                container.BlockWriter(dir_temp, anchor.shape) as out_dir,
                container.BlockWriter(rad_temp, anchor.shape) as out_rad,
            ):
                for a, s in zip(anchor.token_blocks(), substitute.token_blocks()):
                    keep_dir, keep_rad = diagnostics.component_swap_rows(a, s)
                    out_dir.write_rows(keep_dir)
                    out_rad.write_rows(keep_rad)
    log.info("wrote hybrids to %s and %s", args.out_direction, args.out_radius)
    return 0


def cmd_train(args) -> int:
    radius = float(np.sqrt(args.d)) if args.radius is None else args.radius
    rng = np.random.default_rng(args.seed)
    weights = np.asarray(_parse_float_list(args.weights)) if args.weights else None
    dataset = model.random_dataset(args.d, radius, args.centers, args.spread, rng, weights)
    field = model.VelocityField.create(
        args.d,
        hidden=tuple(_parse_int_list(args.hidden)),
        time_dim=args.time_dim,
        n_cond=1,
        cond_dim=args.cond_dim,
        kind=args.loss_kind,
        radius=radius,
        rng=rng,
    )
    config = model.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        steps=args.steps,
        time_sampling=args.time_sampling,
        time_mean=args.time_mean,
        time_std=args.time_std,
        shift=args.shift,
        loss_kind=args.loss_kind,
        seed=args.seed,
        weight_decay=args.weight_decay,
    )
    trace = model.train(field, dataset, config, rng)
    extra = {
        "seed": args.seed,
        "dataset": {
            "d": dataset.d,
            "radius": dataset.radius,
            "centers": dataset.centers.tolist(),
            "spread": dataset.spread,
            "weights": dataset.weights.tolist(),
            "labels": dataset.labels.tolist(),
        },
    }
    model.save_checkpoint(args.out, field, config, extra)
    log.info("wrote checkpoint to %s", args.out)
    if config.steps:
        smoothed_initial, smoothed_final = model.smoothed_endpoints(trace)
    else:
        smoothed_initial = smoothed_final = None
    metrics = {
        "checkpoint": str(args.out),
        "steps": int(config.steps),
        "initial_loss": float(trace[0]) if config.steps else None,
        "final_loss": float(trace[-1]) if config.steps else None,
        "smoothed_initial_loss": smoothed_initial,
        "smoothed_final_loss": smoothed_final,
    }
    _emit_json(metrics)
    return 0


def cmd_sample(args) -> int:
    field, meta = model.load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    sampler = {"euler": "euler", "euler-project": "euler_project", "expmap": "exp_map"}[
        args.sampler
    ]
    run = model.sample(field, args.n, sampler, args.nfe, args.cond, rng)
    if args.out:
        container.write_container(
            args.out, run.outputs.reshape(args.n, field.d, 1, 1)
        )
        log.info("wrote samples to %s", args.out)
    metrics = {
        "sampler": args.sampler,
        "nfe": int(args.nfe),
        "n": int(args.n),
        "max_radius_deviation": run.max_radius_deviation,
    }
    dataset = meta.get("extra", {}).get("dataset")
    if dataset is not None:
        centers = np.asarray(dataset["centers"], dtype=np.float64)
        hist = model.assignment_histogram(run.outputs, centers)
        metrics["assignment_histogram"] = [float(x) for x in hist]
        metrics["dataset_weights"] = [float(x) for x in dataset["weights"]]
    _emit_json(metrics)
    return 0


def cmd_deficit(args) -> int:
    analytical = sphere.one_step_deficit(args.h, args.omega, args.radius)
    measured = sphere.one_step_gap_measured(args.h, args.omega, args.radius)
    rel = abs(measured - analytical) / analytical if analytical > 0.0 else 0.0
    emit_report(
        [
            {
                "h": float(args.h),
                "omega": float(args.omega),
                "radius": float(args.radius),
                "analytical": float(analytical),
                "measured": float(measured),
                "rel_diff": float(rel),
            }
        ],
        ["h", "omega", "radius", "analytical", "measured", "rel_diff"],
        args.format,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads negative reals in exponent form
    (``-1e-3``, ``-2E+0``) as option values, as argparse already does for
    ``-1`` and ``-.5``.  Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_format(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slfm",
        description="spherical latent flow matching: geometry diagnostics and a toy trainer",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gaussian-norms", help="analytical Gaussian norm statistics per dimension")
    p.add_argument("d", type=int, nargs="*", help="dimensions to tabulate")
    _add_format(p)
    p.set_defaults(func=cmd_gaussian_norms)

    p = sub.add_parser("stats", help="shell statistics of a latent container")
    p.add_argument("input", help="container path")
    p.add_argument("--project", type=_positive_float, default=None, metavar="R", help="project tokens to radius R first")
    _add_format(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("paths", help="norm/off-shell/radial-share profile along a path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", nargs=2, metavar=("Z0", "Z1"), help="two containers paired row by row")
    src.add_argument("--synthetic", help="sphere:d=..,R=.. or gauss-shells:d=..,r0=..,r1=..,cv=..")
    p.add_argument("--kind", choices=[k.value for k in PathKind], required=True)
    p.add_argument("--grid", type=int, default=diagnostics.DEFAULT_GRID, help="number of t points")
    p.add_argument("--pairs", type=int, default=diagnostics.DEFAULT_PAIRS, help="synthetic pair count")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("swap", help="write direction/radius hybrid containers")
    p.add_argument("anchor")
    p.add_argument("substitute")
    p.add_argument("--out-direction", required=True, help="anchor direction, substitute radius")
    p.add_argument("--out-radius", required=True, help="substitute direction, anchor radius")
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("train", help="train the toy velocity field on a synthetic mixture")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--radius", type=_positive_float, default=None, help="defaults to sqrt(d)")
    p.add_argument("--centers", type=int, default=2)
    p.add_argument("--spread", type=float, default=0.15)
    p.add_argument("--weights", default=None, help="comma list, e.g. 0.6,0.4")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--loss-kind", choices=model.LOSS_KINDS, default="slerp")
    p.add_argument("--time-sampling", choices=model.TIME_SAMPLING, default="logit-normal")
    p.add_argument("--time-mean", type=float, default=0.0)
    p.add_argument("--time-std", type=float, default=1.0)
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--hidden", default="64,64", help="comma list of hidden widths")
    p.add_argument("--time-dim", type=int, default=16)
    p.add_argument("--cond-dim", type=int, default=8)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="integrate chains from a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--sampler", choices=("euler", "euler-project", "expmap"), default="expmap")
    p.add_argument("--nfe", type=int, default=50)
    p.add_argument("--cond", type=int, default=0)
    p.add_argument("--out", default=None, help="optional sample container path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("deficit", help="projected-Euler arc-length deficit, analytical vs measured")
    p.add_argument("--h", type=float, required=True, help="step size")
    p.add_argument("--omega", type=float, required=True, help="angle between endpoints")
    p.add_argument("--radius", type=_positive_float, default=1.0)
    _add_format(p)
    p.set_defaults(func=cmd_deficit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # force so repeated in-process invocations rebind to the current stderr
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except DivergenceDetected as exc:
        log.error("%s", exc)
        return 3
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
