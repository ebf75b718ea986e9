"""Span tracing of the slfm layers from outside the package.

The tracer replaces every module-level binding of each probed function,
including the copies that ``from .x import f`` makes in other slfm modules,
with a wrapper that records one span (name, start, end, parent) per call.
Spans stay in memory until the run ends; ``uninstall`` puts every original
binding back.  Nothing under the package itself is edited.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


def _forward_flops(args, kwargs, result):
    field, z = args[0], args[1]
    macs = sum(w.shape[0] * w.shape[1] for w in field.weights)
    return {"model._forward_rows.flops": 2 * len(z) * macs}


def _clipped(args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return {"model.clip_gradients.clipped": int(result > max_norm)}


def _read_bytes(args, kwargs, result):
    return {"container.read_container.bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, result):
    return {"container.write_container.bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Probe:
    """One traced function: ``slfm.<module>`` and a dotted attribute path
    (``Adam.step`` for a method).  ``count`` maps (args, kwargs, result) to
    counter increments taken outside the span's interval."""

    module: str
    attr: str
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


PROBES = (
    Probe("cli", "main"),
    Probe("cli", "emit_report"),
    Probe("sphere", "_as_vectors"),
    Probe("sphere", "slerp_rows"),
    Probe("sphere", "slerp_velocity_rows"),
    Probe("sphere", "tangent_rows"),
    Probe("sphere", "expmap_rows"),
    Probe("sphere", "project_rows"),
    Probe("sphere", "uniform_rows"),
    Probe("paths", "path_rows"),
    Probe("paths", "radial_share_rows"),
    Probe("diagnostics", "path_profile"),
    Probe("diagnostics", "shell_stats"),
    Probe("diagnostics", "component_swap_rows"),
    Probe("synthetic", "pairs_from_spec"),
    Probe("container", "read_container", _read_bytes),
    Probe("container", "write_container", _written_bytes),
    Probe("container", "token_rows"),
    Probe("container", "rows_to_tensor"),
    Probe("model", "_forward_rows", _forward_flops),
    Probe("model", "_backward_rows"),
    Probe("model", "loss_and_grad"),
    Probe("model", "Adam.step"),
    Probe("model", "clip_gradients", _clipped),
    Probe("model", "SyntheticDataset.sample"),
    Probe("model", "prior_rows"),
    Probe("model", "sample_time"),
    Probe("model", "integrate"),
    Probe("model", "save_checkpoint"),
    Probe("model", "load_checkpoint"),
    Probe("model", "assignment_histogram"),
)


PACKAGE = "slfm"


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent_index]`` lists;
    the parent index is -1 for a span with no traced caller."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counters.update(count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for probe in PROBES:
            owner = importlib.import_module(f"{PACKAGE}.{probe.module}")
            *path, attr = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(probe.name, original, probe.count)
            if path:  # a method lives only on its class
                targets = [(owner, attr)]
            else:
                targets = [
                    (mod, key)
                    for mod in modules
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for target, key in targets:
                self._saved.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, key, original = self._saved.pop()
            setattr(target, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        """Write the spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def span_totals(spans) -> dict:
    """Per span name: ``(calls, inclusive_ns, self_ns)``.

    A span's self time is its duration minus the durations of its direct
    child spans; calls run on one thread, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, incl, own = totals.get(name, (0, 0, 0))
        totals[name] = (calls + 1, incl + end - start, own + end - start - child_ns[i])
    return totals


def layer_metrics(declared, totals, counters, rounds: int) -> dict:
    """Evaluate each declared ``(name, unit)`` pair, named
    ``<span>.<stat>``, from :func:`span_totals` and the probe counters.
    Times and counts are per round (one pass over the workload's commands),
    so runs of different lengths compare; a layer the workload never
    reaches reads 0."""
    def calls(span):
        return totals.get(span, (0, 0, 0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, unit in declared:
        span, stat = metric.rsplit(".", 1)
        n, incl_ns, self_ns = totals.get(span, (0, 0, 0))
        if stat == "calls":
            value = n / rounds
        elif stat == "s":
            value = incl_ns / 1e9 / rounds
        elif stat == "self_s":
            value = self_ns / 1e9 / rounds
        elif stat in ("flops", "bytes"):
            value = counters.get(metric, 0) / rounds
        elif stat == "clipped_ratio":
            value = ratio(counters.get("model.clip_gradients.clipped", 0), n)
        elif stat == "calls_per_step":
            value = ratio(n, calls("model.loss_and_grad"))
        elif stat == "calls_per_profile":
            value = ratio(n, calls("diagnostics.path_profile"))
        else:
            raise ValueError(f"unknown layer statistic {stat!r}")
        out[metric] = (value, unit)
    return out
