"""Tests of the benchmark itself: span arithmetic, rescaled times and the
closed loop, binding restore, failure accounting, seeded inputs, and the
metric names BENCHMARK.json declares.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import slfm  # noqa: E402  (loads every slfm module the tracer patches)
from slfm import cli, diagnostics, model, paths, sphere  # noqa: E402


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0, 100, -1],
        ["mid", 10, 40, 0],
        ["leaf", 15, 25, 1],
        ["mid", 50, 70, 0],
        ["other", 200, 205, -1],
    ]
    totals = tracer.span_totals(spans)
    assert totals["outer"] == (1, 100, 100 - 30 - 20)
    assert totals["mid"] == (2, 50, (30 - 10) + 20)
    assert totals["leaf"] == (1, 10, 10)
    assert totals["other"] == (1, 5, 5)


def test_layer_metrics_are_per_round_with_ratios_over_their_base():
    ns = 10**9
    spans = [
        ["model.loss_and_grad", 0, 4 * ns, -1],
        ["sphere.tangent_rows", 0, ns, 0],
        ["sphere.tangent_rows", ns, 2 * ns, 0],
        ["model.clip_gradients", 5 * ns, 6 * ns, -1],
        ["model.clip_gradients", 6 * ns, 7 * ns, -1],
    ]
    counters = {"model.clip_gradients.clipped": 1, "model._forward_rows.flops": 600}
    declared = [(name, unit) for name, unit in harness.declared_layer_metrics()
                if not name.startswith("trace.")]
    got = tracer.layer_metrics(declared, tracer.span_totals(spans), counters, rounds=2)
    assert list(got) == [name for name, _ in declared]
    assert got["model.loss_and_grad.self_s"] == (1.0, "s/round")
    assert got["sphere.tangent_rows.s"] == (1.0, "s/round")
    assert got["sphere.tangent_rows.calls"] == (1.0, "1/round")
    assert got["sphere.tangent_rows.calls_per_step"] == (2.0, "1/step")
    assert got["model.clip_gradients.clipped_ratio"] == (0.5, "ratio")
    assert got["model._forward_rows.flops"] == (300.0, "flop/round")
    assert got["paths.path_rows.calls_per_profile"] == (0.0, "1/profile")


# ---------------------------------------------------------------------------
# rescaled times and the closed loop


def test_yardstick_rescales_by_the_passes_around_the_command():
    yardstick = harness.Yardstick()
    passes = iter([0.030, 0.010])
    yardstick.pass_s = lambda: next(passes)
    wall, rescaled = yardstick.measure(lambda: 0.4)
    assert wall == 0.4
    assert rescaled == pytest.approx(0.4 * harness.YARDSTICK_S / 0.020)
    assert harness.Yardstick().pass_s() > 0.0


def test_closed_loop_starts_no_step_that_would_end_past_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])

    def step():
        clock[0] += 3.0
        return clock[0]

    assert harness.closed_loop(10.0, 1, step) == [3.0, 6.0, 9.0]
    clock[0] = 0.0
    assert harness.closed_loop(1.0, 2, step) == [3.0, 6.0]


# ---------------------------------------------------------------------------
# wrapping and restoring


def _bindings():
    """Every attribute of every slfm module and of the traced classes."""
    snap = {}
    for mod in tracer.package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    for cls in (model.Adam, model.SyntheticDataset):
        for key, value in vars(cls).items():
            snap[(cls.__qualname__, key)] = value
    return snap


def test_wrapper_covers_imported_copies_and_restores_every_binding():
    before = _bindings()
    originals = (paths.path_rows, model.tangent_rows, model.Adam.__dict__["step"])
    probe = tracer.Tracer()
    with probe:
        assert paths.path_rows is not originals[0]
        assert model.path_rows is paths.path_rows
        assert diagnostics.path_rows is paths.path_rows
        assert model.tangent_rows is sphere.tangent_rows is not originals[1]
        assert slfm.loss_and_grad is model.loss_and_grad
        assert model.Adam.__dict__["step"] is not originals[2]
        assert probe.spans == []
        assert cli.main(["paths", "--synthetic", "sphere:d=4,R=2.0", "--kind", "slerp",
                         "--pairs", "8", "--grid", "3"]) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    totals = tracer.span_totals(probe.spans)
    assert totals["paths.path_rows"][0] == 3
    assert totals["diagnostics.path_profile"][0] == 1
    names = [span[0] for span in probe.spans]
    parents = {names[i]: names[p] for i, (_, _, _, p) in enumerate(probe.spans) if p >= 0}
    assert parents["paths.path_rows"] == "diagnostics.path_profile"
    assert parents["diagnostics.path_profile"] == "cli.main"


def test_span_closes_when_the_wrapped_call_raises():
    probe = tracer.Tracer()
    with probe, pytest.raises(ValueError):
        sphere.tangent_rows([float("nan"), 1.0], [1.0, 0.0])
    assert sphere.tangent_rows.__name__ == "tangent_rows"
    assert "__wrapped__" not in vars(sphere.tangent_rows)
    assert [s[0] for s in probe.spans] == ["sphere.tangent_rows", "sphere._as_vectors"]
    assert all(end >= start for _, start, end, _ in probe.spans)
    assert probe._stack == []


# ---------------------------------------------------------------------------
# failure accounting


def _accept(out):
    pass


def test_failing_commands_raise_the_failed_count(tmp_path):
    runner = harness.Runner(tmp_path)
    runner.in_process(workloads.Command(["gaussian-norms", "4"], _accept))
    assert (runner.attempted, runner.failed) == (1, 0)

    runner.in_process(workloads.Command(["stats", str(tmp_path / "missing.slfm")], _accept))
    assert (runner.attempted, runner.failed) == (2, 1)

    def reject(out):
        workloads.require(False, "deliberately wrong")

    runner.in_process(workloads.Command(["gaussian-norms", "4"], reject))
    assert (runner.attempted, runner.failed) == (3, 2)
    assert "deliberately wrong" in runner.errors[-1]

    elapsed, rss = runner.fresh(workloads.Command(["train"], _accept))  # missing --out
    assert (runner.attempted, runner.failed) == (4, 3)
    assert elapsed > 0.0 and rss > 0


def _rejects(check, out):
    with pytest.raises(workloads.CheckFailed):
        check(out)


def test_output_checks_reject_broken_identities(tmp_path):
    train = workloads.check_train(10)
    report = {"steps": 10, "initial_loss": 3.0, "final_loss": 1.0,
              "smoothed_initial_loss": 2.5, "smoothed_final_loss": 1.5}
    train(json.dumps(report))
    _rejects(train, json.dumps({**report, "smoothed_final_loss": 2.6}))
    _rejects(train, json.dumps({**report, "final_loss": float("nan")}))

    sample = workloads.check_sample("expmap", 4, 2)
    report = {"sampler": "expmap", "n": 4, "nfe": 2, "max_radius_deviation": 1e-15,
              "assignment_histogram": [0.25, 0.75]}
    sample(json.dumps(report))
    _rejects(sample, json.dumps({**report, "max_radius_deviation": 1e-4}))
    _rejects(sample, json.dumps({**report, "assignment_histogram": [0.25, 0.5]}))

    profile = workloads.check_profile(3, radius=2.0)
    rows = ["t,mean_norm,std_norm,offshell_sigma,radial_share",
            "0.0,2.0,0.0,0.0,0.0", "0.5,2.0,0.0,0.0,1e-33", "1.0,2.0,0.0,0.0,0.0"]
    profile("\n".join(rows))
    _rejects(profile, "\n".join(rows[:-1]))
    _rejects(profile, "\n".join(rows).replace("1e-33", "0.001"))
    _rejects(profile, "\n".join(rows).replace("0.5,2.0", "0.5,1.9"))

    stats = workloads.check_stats(3, 2.0, 0.0, projected=True)
    stats("n_tokens,mean_radius,std_radius,cv\n3,2.0,0.0,0.0\n")
    _rejects(stats, "n_tokens,mean_radius,std_radius,cv\n3,2.0,1e-16,5e-17\n")

    shape = (2, 4, 3, 5)
    anchor, substitute = workloads.latent_arrays(1, shape)
    a_norms = workloads.token_norms(anchor)[:, None]
    s_norms = workloads.token_norms(substitute)[:, None]
    out_dir, out_rad = tmp_path / "dir.slfm", tmp_path / "rad.slfm"
    swap = workloads.check_swap(out_dir, out_rad, anchor, substitute)
    workloads.write_container(out_dir, anchor * (s_norms / a_norms))
    workloads.write_container(out_rad, substitute * (a_norms / s_norms))
    swap("")
    workloads.write_container(out_rad, substitute)
    _rejects(swap, "")


# ---------------------------------------------------------------------------
# seeded inputs


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _argv(workload, directory):
    cmds = workload.prepare + workload.warmup + workload.round + [workload.noop, workload.largest]
    return [[a.replace(str(directory), "<dir>") for a in cmd.argv] for cmd in cmds]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_reproduces_generated_inputs(tmp_path, name, monkeypatch):
    monkeypatch.setitem(workloads.BY_NAME, "latents", lambda seed, d: workloads.build_latents(
        seed, d, shape=(2, 4, 3, 5)))
    dirs = [tmp_path / s for s in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.build(name, 7, dirs[0])
    again = workloads.build(name, 7, dirs[1])
    other = workloads.build(name, 8, dirs[2])
    inputs = [(_argv(w, d), _files(d)) for w, d in zip((first, again, other), dirs)]
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]


# ---------------------------------------------------------------------------
# the declared metrics are the reported ones


def _tiny_profile(directory):
    workload = workloads.build_profile(3, directory, pairs=16)
    workload.warmup = workload.warmup[:1]
    return workload


def test_end_to_end_run_reports_the_declared_metrics(tmp_path):
    runner = harness.Runner(tmp_path)
    metrics, detail = harness.end_to_end(runner, _tiny_profile(tmp_path), seconds=0.0)
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0.0 for value, _ in metrics.values())
    assert detail["work_per_s"]["n"] == harness.MIN_ROUNDS
    assert runner.failed == 0


def test_traced_run_reports_the_declared_layer_metrics(tmp_path):
    runner = harness.Runner(tmp_path)
    spans_path = tmp_path / "out" / "spans.csv"
    metrics, _ = harness.per_layer(runner, _tiny_profile(tmp_path), 0.0, spans_path)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert metrics["paths.path_rows.calls_per_profile"][0] == workloads.PROFILE_GRID
    assert metrics["diagnostics.path_profile.self_s"][0] > 0.0
    assert spans_path.read_text().startswith("index,name,start_ns,end_ns,parent\n")
    assert runner.failed == 0
