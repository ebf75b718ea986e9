"""Measurement of the workloads: the closed loop, fresh-process set-up
and memory runs, the traced run, and the result record."""

from __future__ import annotations

import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# The yardstick's nominal duration: rescaled times are wall times on a
# machine where one yardstick pass takes exactly this long.
YARDSTICK_S = 0.010
SETUP_REPEATS = 7  # fresh processes per set-up measurement; the median counts
MIN_ROUNDS = 3  # untraced rounds at least, so the median has three samples
CHILD_TIMEOUT_S = 150


class Runner:
    """Runs CLI commands and keeps the attempted/failed tally.  A command
    fails when it exits nonzero, prints a traceback or fails its check."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def settle(self, cmd, code, out: str, err: str) -> None:
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif "Traceback" in err:
            problem = "traceback on stderr"
        else:
            try:
                cmd.check(out)
            except (workloads.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"check failed: {exc}"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"slfm {' '.join(cmd.argv)}: {problem}\n{err[-2000:]}")

    def in_process(self, cmd) -> float:
        """Run through ``slfm.cli.main``; returns the command's wall time."""
        from slfm import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(cmd.argv))
        except Exception:  # an escaped exception is a failed command
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.settle(cmd, code, out.getvalue(), err.getvalue())
        return elapsed

    def fresh(self, cmd):
        """Run in a new ``python -m slfm.cli`` process; returns (wall time
        from spawn to exit, the child's peak RSS in bytes)."""
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "slfm.cli", *cmd.argv],
                cwd=self.workdir, env=self.env, stdout=out_fh, stderr=err_fh,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.settle(cmd, proc.returncode, out_path.read_text(), err_path.read_text())
        return elapsed, usage.ru_maxrss * 1024  # Linux reports KiB


class Yardstick:
    """A fixed numpy kernel, timed right before and right after each
    measured command, that gauges how fast the machine runs just then.

    Other tenants of a shared machine slow every process on it down by up
    to a half, in spells from a second to minutes, so a wall time alone
    moves with the neighbours.  Dividing it by the yardstick passes around
    it and multiplying by :data:`YARDSTICK_S` rescales it to one nominal
    machine speed.  The kernel mixes the regimes of the workloads: the
    small-array dispatch of a training step (forward, backward and Adam of
    a 64-wide MLP at batch 128), matmul/tanh on a large row block, and a
    streaming copy.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((128, 28))
        self.target = rng.standard_normal((128, 4))
        self.weights = [rng.standard_normal(shape) / 8.0
                        for shape in ((28, 64), (64, 64), (64, 4))]
        self.moments = [np.zeros_like(w) for w in self.weights]
        self.block = rng.standard_normal((4096, 64))
        self.stream = np.zeros(1 << 19), np.ones(1 << 19)  # 4 MiB each

    def _step(self) -> None:
        np = self.np
        w1, w2, w3 = self.weights
        h1 = np.tanh(self.x @ w1)
        h2 = np.tanh(h1 @ w2)
        g = 2.0 * (h2 @ w3 - self.target) / len(self.target)
        d2 = (g @ w3.T) * (1.0 - h2 * h2)
        d1 = (d2 @ w2.T) * (1.0 - h1 * h1)
        for w, m, grad in zip(self.weights, self.moments, (self.x.T @ d1, h1.T @ d2, h2.T @ g)):
            m *= 0.9
            m += 0.1 * grad
            w -= 1e-9 * m / (np.sqrt(m * m) + 1e-8)

    def pass_s(self) -> float:
        np = self.np
        start = time.perf_counter()
        for _ in range(12):
            self._step()
        for _ in range(2):
            float(np.tanh(self.block @ self.weights[1]).sum())
        np.copyto(*self.stream)
        return time.perf_counter() - start

    def measure(self, run) -> tuple:
        """Call ``run()``, which returns a wall time; returns that time and
        the same rescaled to the nominal speed."""
        before = self.pass_s()
        wall = run()
        after = self.pass_s()
        return wall, wall * 2.0 * YARDSTICK_S / (before + after)


def summarize(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def run_round(runner: Runner, workload, yardstick: Yardstick) -> list:
    """One pass over the workload's commands; returns each command's
    (wall, rescaled) time (checks run outside those times)."""
    gc.collect()
    return [yardstick.measure(lambda: runner.in_process(cmd)) for cmd in workload.round]


def closed_loop(seconds: float, min_rounds: int, step) -> list:
    """Call ``step`` at least ``min_rounds`` times, then again while the
    previous call, repeated, would still end within ``seconds``; one call
    starts only after the previous one returned."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < min_rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - began
    return results


WALL, RESCALED = 0, 1  # positions in a measured command's times


def round_rates(workload, rounds, which: int = RESCALED) -> list:
    """Each round's work over the time its commands took."""
    return [workload.round_work / sum(t[which] for t in times) for times in rounds]


def median_rate(workload, rounds, which: int = RESCALED) -> float:
    """Round work over the sum of each command's median time across the
    rounds."""
    return workload.round_work / sum(
        statistics.median(t[which] for t in times) for times in zip(*rounds))


def end_to_end(runner: Runner, workload, seconds: float) -> tuple:
    yardstick = Yardstick()
    setup = [yardstick.measure(lambda: runner.fresh(workload.noop)[0])
             for _ in range(SETUP_REPEATS)]
    _, peak_rss = runner.fresh(workload.largest)
    for cmd in workload.warmup:
        runner.in_process(cmd)
    rounds = closed_loop(seconds, MIN_ROUNDS, lambda: run_round(runner, workload, yardstick))
    detail = {
        "setup_s": summarize(t[RESCALED] for t in setup),
        "setup_wall_s": summarize(t[WALL] for t in setup),
        "work_per_s": summarize(round_rates(workload, rounds)),
        "wall_work_per_s": median_rate(workload, rounds, WALL),
        "command_s": [list(times) for times in zip(*rounds)],
    }
    metrics = {
        "setup_s": (detail["setup_s"]["median"], "s"),
        "work_per_s": (median_rate(workload, rounds), "1/s"),
        "peak_rss_mb": (peak_rss / 1e6, "MB"),
    }
    return metrics, detail


def declared_layer_metrics() -> list:
    """``(name, unit)`` of every per-layer metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def per_layer(runner: Runner, workload, seconds: float, spans_path: Path) -> tuple:
    """Alternate untraced and traced rounds, so drift in machine speed
    affects both sides of the overhead alike."""
    for cmd in workload.warmup:
        runner.in_process(cmd)
    probe = tracer.Tracer()
    yardstick = Yardstick()

    def pair():
        base = run_round(runner, workload, yardstick)
        with probe:
            return base, run_round(runner, workload, yardstick)

    untraced, traced = zip(*closed_loop(seconds, 1, pair))
    base, slow = median_rate(workload, untraced), median_rate(workload, traced)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    probe.write_spans(spans_path)
    rounds = len(traced)
    totals = tracer.span_totals(probe.spans)
    overhead = {
        "trace.spans_per_round": len(probe.spans) / rounds,
        "trace.overhead_pct": 100.0 * (base / slow - 1.0),
    }
    declared = declared_layer_metrics()
    metrics = tracer.layer_metrics(
        [(name, unit) for name, unit in declared if name not in overhead],
        totals, probe.counters, rounds)
    metrics.update({name: (overhead[name], unit) for name, unit in declared if name in overhead})
    layers = {
        name: {"calls": calls / rounds, "s": incl / 1e9 / rounds, "self_s": own / 1e9 / rounds}
        for name, (calls, incl, own) in sorted(totals.items())
    }
    detail = {"untraced": summarize(round_rates(workload, untraced)),
              "traced": summarize(round_rates(workload, traced)),
              "untraced_work_per_s": base, "traced_work_per_s": slow,
              "layers": layers, "spans_file": spans_path.name}
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, seed, workdir)
        runner = Runner(workdir)
        for cmd in workload.prepare:
            runner.in_process(cmd)
        if trace:
            spans_path = OUT_DIR / f"{name}-seed{seed}-spans.csv"
            metrics, detail = per_layer(runner, workload, seconds, spans_path)
        else:
            metrics, detail = end_to_end(runner, workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "runner": runner, "metrics": metrics, "detail": detail}


def report(name: str, result: dict, seed: int, seconds: float, trace: bool, env: dict) -> None:
    workload, runner, metrics = result["workload"], result["runner"], result["metrics"]
    print(f"# workload {name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
    detail = result["detail"]
    for key, (value, unit) in metrics.items():
        stats = detail.get(key)
        if key == "work_per_s":
            key, unit = workload.work_name, workload.work_unit
        line = f"{key} = {value!r} {unit}"
        if key == "setup_s":
            line += (f"  (rescaled, median of {stats['n']}; q1 {stats['q1']:.6g},"
                     f" q3 {stats['q3']:.6g}; wall median {detail['setup_wall_s']['median']:.6g} s)")
        elif stats is not None:
            line += (f"  (rescaled, median repeat of each command over {stats['n']} rounds;"
                     f" per round q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g};"
                     f" wall {detail['wall_work_per_s']:.6g} {unit})")
        print(line)
    for span, row in detail.get("layers", {}).items():
        print(f"# layer {span}: {row['calls']:g} calls, {row['s']:.6g} s, "
              f"{row['self_s']:.6g} s self per round")
    ratio = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"failed_ratio = {ratio!r}  ({runner.failed} of {runner.attempted} commands)")
    for error in runner.errors:
        print(f"# FAILED {error}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": result["detail"], "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors, "environment": env,
    }
    out = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
