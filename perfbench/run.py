#!/usr/bin/env python3
"""Benchmark of the slfm CLI, end to end and per layer.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop client drives ``slfm.cli.main`` in this process, one command
at a time.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half with every probed layer wrapped, and reports
the per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os
import sys

from hostinfo import MALLOC_TUNABLES, THREAD_VARS

# glibc reads its malloc tunables once, at process start.
if os.environ.get("GLIBC_TUNABLES") != MALLOC_TUNABLES:
    os.environ["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    os.execv(sys.executable, [sys.executable, *sys.argv])

# BLAS/OpenMP pools read these once, when numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402

import harness  # noqa: E402
import hostinfo  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "slfm" / "cli.py").is_file():
        print(f"perfbench: no slfm sources at {harness.SRC / 'slfm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    # the largest array: one latent container promoted to float64
    env = hostinfo.collect(largest_array_bytes=8 * math.prod(workloads.LATENT_SHAPE))
    print("# environment " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = harness.run_workload(name, args.seed, args.seconds, bool(args.trace))
        harness.report(name, result, args.seed, args.seconds, bool(args.trace), env)
        attempted += result["runner"].attempted
        failed += result["runner"].failed
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
