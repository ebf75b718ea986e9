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
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import re
import sys

import numpy as np

from . import container, diagnostics, model, sphere, synthetic
from .errors import ContainerFormatError, DimensionMismatch, DivergenceDetected
from .paths import PathKind

log = logging.getLogger("slfm")

_INT64_MAX = int(np.iinfo(np.int64).max)


def _fmt(value) -> str:
    # repr of a Python float is the shortest string that round-trips, which
    # is also what the json module emits; CSV and JSON stay digit-identical.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(rows, columns, fmt: str) -> None:
    stream = sys.stdout
    if fmt == "json":
        json.dump([{k: row[k] for k in columns} for row in rows], stream, indent=2)
        stream.write("\n")
    else:
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row[k]) for k in columns) + "\n")


def _emit_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


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


def _run_slices(fn, shape) -> None:
    """``fn(items)`` for each contiguous range of whole blocks of a
    container of ``shape``, one range per usable CPU, through
    :func:`model._run_ranges`: the first error in file order is raised."""
    model._run_ranges(fn, container.block_slices(shape, model._usable_cpus()))


def cmd_stats(args) -> int:
    # one norm per token is all that outlives a block; each range of blocks
    # fills its own part of the norms straight from the f32 channel planes,
    # through one slab sized from the range's first block
    with container.BlockReader(args.input) as reader:
        log.info("read %d tokens of dimension %d", reader.n_tokens, reader.shape[1])
        n, _, h, w = reader.shape
        norms = np.empty((n, h, w))

        def stats_slice(items):
            slab = None
            first = items.start
            for block in reader.blocks(items):
                if slab is None:
                    slab = sphere._plane_slab(block.shape)
                k = block.shape[0]
                sphere._plane_norms_into(block, norms[first : first + k], slab, args.project)
                first += k

        _run_slices(stats_slice, reader.shape)
    row = dataclasses.asdict(diagnostics._shell_stats_of_norms(norms.reshape(-1)))
    emit_report([row], list(row), args.format)
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
                # each range of blocks writes its own part of both hybrids:
                # each block's hybrids are its f32 items times one ratio per
                # token, whose norms come straight from the channel planes
                def swap_slice(items):
                    dir_view, rad_view = out_dir.view(items), out_rad.view(items)
                    norms = slab = None
                    for a, s in zip(anchor.blocks(items), substitute.blocks(items)):
                        if slab is None:
                            slab, norms = sphere._plane_slab(a.shape), np.empty((3, a.shape[0], 1) + a.shape[2:])
                        ra, rs, to_direction = norms[:, : a.shape[0]]
                        sphere._plane_norms_into(a, ra[:, 0], slab)
                        sphere._plane_norms_into(s, rs[:, 0], slab)
                        to_direction, to_radius = diagnostics._swap_ratios(ra, rs, to_direction)
                        dir_view.write_scaled(a, to_direction)
                        rad_view.write_scaled(s, to_radius)

                _run_slices(swap_slice, anchor.shape)
    log.info("wrote hybrids to %s and %s", args.out_direction, args.out_radius)
    return 0


def cmd_train(args) -> int:
    # a sphere needs two dimensions, and a table no negative width
    if args.d < 2:
        raise ValueError(f"--d must be at least 2, got {args.d}")
    if args.cond_dim < 0:
        raise ValueError(f"--cond-dim must be at least 0, got {args.cond_dim}")
    # numpy holds an array dimension in an int64: name the option past it
    hidden = _parse_int_list(args.hidden)
    sizes = [("--d", args.d), ("--centers", args.centers), ("--time-dim", args.time_dim),
             ("--cond-dim", args.cond_dim)] + [("--hidden", width) for width in hidden]
    for flag, value in sizes:
        if value > _INT64_MAX:
            raise ValueError(f"{flag} must be at most {_INT64_MAX}, got {value}")
    radius = math.sqrt(args.d) if args.radius is None else args.radius
    rng = np.random.default_rng(args.seed)
    weights = np.asarray(_parse_float_list(args.weights)) if args.weights else None
    dataset = model.random_dataset(args.d, radius, args.centers, args.spread, rng, weights)
    field = model.VelocityField.create(
        args.d,
        hidden=tuple(hidden),
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
    # SyntheticDataset's own fields, which _training_set passes back to it
    spec = {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in dataclasses.asdict(dataset).items()
    }
    extra = {"seed": args.seed, "dataset": spec}
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


def _training_set(meta: dict, d: int, checkpoint: str):
    """The training set that ``cmd_train`` records under ``extra.dataset``,
    rebuilt through :class:`model.SyntheticDataset` and so checked by the
    rules that training applied; None when the sidecar records none."""
    extra = meta.get("extra", {})
    if type(extra) is not dict:
        raise ContainerFormatError(f"{checkpoint}: sidecar 'extra' is not a JSON object")
    spec = extra.get("dataset")
    if spec is None:
        return None
    try:
        if type(spec) is not dict:
            raise TypeError("not a JSON object")
        dataset = model.SyntheticDataset(**spec)
        if dataset.d != d:
            raise DimensionMismatch(f"dimension {dataset.d!r} is not the field's {d}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContainerFormatError(
            f"{checkpoint}: sidecar 'extra.dataset' is not a valid training set: {exc}"
        ) from None
    return dataset


def cmd_sample(args) -> int:
    field, meta = model.load_checkpoint(args.checkpoint)
    dataset = _training_set(meta, field.d, args.checkpoint)
    rng = np.random.default_rng(args.seed)
    sampler = {"euler": "euler", "euler-project": "euler_project", "expmap": "exp_map"}[
        args.sampler
    ]
    # checked before any file is opened; each block is then written, measured
    # and counted as it comes, so no (n, d) array is ever held
    blocks = model._sample_blocks(field, args.n, sampler, args.nfe, args.cond, rng)
    dev = 0.0
    counts = None if dataset is None else np.zeros(dataset.n_centers, dtype=np.int64)
    with contextlib.ExitStack() as stack:
        if args.out:
            # all or nothing: a failed write or a diverging block keeps any
            # previous file as it was
            (temp,) = stack.enter_context(container.replacing([args.out]))
            out = stack.enter_context(container.BlockWriter(temp, (args.n, field.d, 1, 1)))
        for rows, block_dev in blocks:
            if args.out:
                out.write_rows(rows)
            dev = max(dev, block_dev)
            if counts is not None:
                counts += model._assignment_counts(rows, dataset.centers)
    if args.out:
        log.info("wrote samples to %s", args.out)
    metrics = {
        "sampler": args.sampler,
        "nfe": int(args.nfe),
        "n": int(args.n),
        "max_radius_deviation": dev / field.radius,
    }
    if dataset is not None:
        metrics["assignment_histogram"] = [float(x) for x in counts / args.n]
        metrics["dataset_weights"] = [float(x) for x in dataset.weights]
    _emit_json(metrics)
    return 0


def cmd_deficit(args) -> int:
    analytical = sphere.one_step_deficit(args.h, args.omega, args.radius)
    measured = sphere.one_step_gap_measured(args.h, args.omega, args.radius)
    rel = abs(measured - analytical) / analytical if analytical > 0.0 else 0.0
    row = {"h": args.h, "omega": args.omega, "radius": args.radius,
           "analytical": analytical, "measured": measured, "rel_diff": rel}
    emit_report([{k: float(v) for k, v in row.items()}], list(row), args.format)
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


# built once per process: parsing leaves the parser as it was, so each
# in-process call of main reuses it instead of building seven subparsers
@functools.cache
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
    p.add_argument("--project", type=sphere.token_radius, default=None, metavar="R", help="project tokens to radius R first")
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
    p.add_argument("--radius", type=sphere.token_radius, default=None, help="defaults to sqrt(d)")
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
    p.add_argument("--radius", type=sphere.token_radius, default=1.0)
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
    except MemoryError as exc:
        log.error("out of memory: %s", str(exc) or "allocation failed")
        return 2


if __name__ == "__main__":
    sys.exit(main())
