"""Streamed containers: block boundaries, ranges of blocks on threads,
all-or-nothing outputs, write-back hints and the flush order, fuzzes of
``stats``, ``swap`` and ``paths --input``, bounded memory.

Every test that crosses block boundaries shrinks ``container.BLOCK_BYTES`` to
a few KiB instead of writing a large container.
"""

import errno
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from slfm import container, diagnostics, model, sphere
from slfm.cli import _run_blocks, main
from slfm.errors import ContainerFormatError

HEADER_BYTES = container._HEADER.size


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(container, "BLOCK_BYTES", 4096)
    return 4096


def _latents(path, shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    arr = (scale * rng.standard_normal(shape)).astype(np.float32).astype(np.float64)
    container.write_container(path, arr)
    return arr


def _stats_row(capsys, argv):
    assert main(argv) == 0
    header, values = capsys.readouterr().out.strip().splitlines()
    return dict(zip(header.split(","), values.split(",")))


def _expected_row(stats):
    return {
        "n_tokens": str(stats.n_tokens),
        "mean_radius": repr(stats.mean_radius),
        "std_radius": repr(stats.std_radius),
        "cv": repr(stats.cv),
    }


def _swap(anchor, substitute, out_dir, out_rad):
    return main(
        ["swap", str(anchor), str(substitute), "--out-direction", str(out_dir), "--out-radius", str(out_rad)]
    )


def _one_shot_swap(tmp_path, anchor, substitute):
    """The hybrids' bytes as one whole-array component swap writes them."""
    a = container.read_container(anchor)
    keep = diagnostics.component_swap_rows(
        container.token_rows(a), container.token_rows(container.read_container(substitute))
    )
    blobs = []
    for i, rows in enumerate(keep):
        path = tmp_path / f"one_shot_{i}.slfm"
        container.write_container(path, container.rows_to_tensor(rows, a.shape))
        blobs.append(path.read_bytes())
    return blobs


# ---------------------------------------------------------------------------
# block boundaries


# (37, 8, 3, 5): 480-byte items, 8 to a 4 KiB block, a last block of 5 items;
# (5, 64, 4, 4): 4 KiB items in 1000-byte blocks, so one item to a block
@pytest.mark.parametrize(
    ("shape", "block_bytes"), [((37, 8, 3, 5), 4096), ((5, 64, 4, 4), 1000)], ids=["blocks", "item-over-block"]
)
def test_streamed_stats_equal_one_shot_shell_stats(tmp_path, capsys, monkeypatch, shape, block_bytes):
    monkeypatch.setattr(container, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "lat.slfm"
    arr = _latents(path, shape, seed=1)
    rows = container.token_rows(arr)
    radius = math.sqrt(shape[1])
    assert _stats_row(capsys, ["stats", str(path)]) == _expected_row(diagnostics.shell_stats(rows))
    assert _stats_row(capsys, ["stats", str(path), "--project", repr(radius)]) == _expected_row(
        diagnostics.shell_stats(sphere.project_rows(rows, radius))
    )


@pytest.mark.parametrize(
    ("shape", "block_bytes"), [((37, 8, 3, 5), 4096), ((5, 64, 4, 4), 1000)], ids=["blocks", "item-over-block"]
)
def test_streamed_swap_equals_one_shot_component_swap(tmp_path, monkeypatch, shape, block_bytes):
    monkeypatch.setattr(container, "BLOCK_BYTES", block_bytes)
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    _latents(anchor, shape, seed=2)
    _latents(substitute, shape, seed=3, scale=3.0)
    out_dir, out_rad = tmp_path / "dir.slfm", tmp_path / "rad.slfm"
    assert _swap(anchor, substitute, out_dir, out_rad) == 0
    assert [out_dir.read_bytes(), out_rad.read_bytes()] == _one_shot_swap(tmp_path, anchor, substitute)


# d = 1, 3, 8, 33, 129 and 200 take every branch of the plane kernel's
# pairwise sum; in 4 KiB blocks, 400 items of 2 x 3 tokens make from 3 to
# 400 blocks, so 3 CPUs run 3 ranges
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("d", [1, 3, 8, 33, 129, 200])
def test_plane_norms_give_the_one_shot_stats_and_swap_bytes(tmp_path, capsys, monkeypatch, small_blocks, d, cpus):
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    shape = (400, d, 2, 3)
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    rows = container.token_rows(_latents(anchor, shape, seed=d))
    _latents(substitute, shape, seed=d + 1, scale=3.0)
    radius = math.sqrt(d)
    assert _stats_row(capsys, ["stats", str(anchor)]) == _expected_row(diagnostics.shell_stats(rows))
    assert _stats_row(capsys, ["stats", str(anchor), "--project", repr(radius)]) == _expected_row(
        diagnostics.shell_stats(sphere.project_rows(rows, radius))
    )
    out_dir, out_rad = tmp_path / "dir.slfm", tmp_path / "rad.slfm"
    assert _swap(anchor, substitute, out_dir, out_rad) == 0
    assert [out_dir.read_bytes(), out_rad.read_bytes()] == _one_shot_swap(tmp_path, anchor, substitute)


# one item of 16 x 16 tokens of d = 40: the reshape to token rows needs no
# copy there, and a strided row stack would sum each token's squares in
# another order than the one the streamed stats and one-shot rows use
def test_stats_of_one_item_equals_one_shot_shell_stats(tmp_path, capsys):
    path = tmp_path / "one.slfm"
    for seed in range(8):
        _latents(path, (1, 40, 16, 16), seed=seed)
        rows = container.token_rows(container.read_container(path))
        assert _stats_row(capsys, ["stats", str(path)]) == _expected_row(diagnostics.shell_stats(rows))


@pytest.mark.parametrize("kind", ["linear", "shell", "slerp"])
def test_paths_input_of_one_item_equals_its_tokens_one_to_an_item(tmp_path, capsys, monkeypatch, kind):
    # the same tokens as (1, 40, 16, 16) and as (256, 40, 1, 1) containers
    # print the same bytes, on one CPU and on three; slerp's tokens lie on
    # one sphere of radius 4
    items, rows = [], []
    for seed in range(4):
        path = tmp_path / f"item{seed}.slfm"
        items.append(str(path))
        rows.append(str(tmp_path / f"rows{seed}.slfm"))
        arr = _latents(path, (1, 40, 16, 16), seed=seed, scale=1.0 + seed)
        if kind == "slerp":
            arr *= 4.0 / np.linalg.norm(arr, axis=1, keepdims=True)
            container.write_container(path, arr)
        container.write_container(rows[-1], container.token_rows(arr).reshape(256, 40, 1, 1))
    for cpus in (1, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        for pair in range(0, 4, 2):
            argv = ["paths", "--kind", kind, "--grid", "5", "--input"]
            assert main(argv + items[pair : pair + 2]) == 0
            by_item = capsys.readouterr().out
            assert main(argv + rows[pair : pair + 2]) == 0
            assert capsys.readouterr().out == by_item


def test_read_container_crosses_blocks(tmp_path, small_blocks):
    path = tmp_path / "lat.slfm"
    arr = _latents(path, (37, 8, 3, 5), seed=4)
    assert np.array_equal(container.read_container(path), arr)


def test_blocks_yield_every_item_once(tmp_path, small_blocks):
    # 8 items to a block, counted from the first item of the range
    path = tmp_path / "lat.slfm"
    arr = _latents(path, (37, 8, 3, 5), seed=5)
    with container.BlockReader(path) as reader:
        for items, sizes in ((range(37), [8] * 4 + [5]), (range(3, 20), [8, 8, 1])):
            blocks = [block.copy() for block in reader.blocks(items)]
            assert [b.shape[0] for b in blocks] == sizes
            assert np.array_equal(np.concatenate(blocks), arr[items.start : items.stop])


def _bad_value_in_last_item(path, shape, value=np.nan):
    _latents(path, shape, seed=6)
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        fh.write(np.array([value], dtype="<f4").tobytes())


# the reader checks the raw f32 payload, so each non-finite f32 must show
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("run", ["stats", "project", "swap", "read_container"])
def test_later_block_rejects_non_finite_values(tmp_path, capsys, small_blocks, run, value):
    path, good = tmp_path / "lat.slfm", tmp_path / "good.slfm"
    _bad_value_in_last_item(path, (37, 8, 3, 5), value)
    if run == "read_container":
        with pytest.raises(ContainerFormatError, match="non-finite"):
            container.read_container(path)
        return
    out_dir, out_rad = tmp_path / "dir.slfm", tmp_path / "rad.slfm"
    if run == "swap":
        _latents(good, (37, 8, 3, 5), seed=9)
        assert _swap(good, path, out_dir, out_rad) == 2
    else:
        assert main(["stats", str(path)] + (["--project", "2.0"] if run == "project" else [])) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out_dir.exists() and not out_rad.exists()


def test_stats_rejects_truncated_payload(tmp_path, capsys, small_blocks):
    path = tmp_path / "lat.slfm"
    _latents(path, (37, 8, 3, 5), seed=7)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 4)
    assert main(["stats", str(path)]) == 2
    assert "payload length" in capsys.readouterr().err


def test_reader_rejects_payload_cut_while_streaming(tmp_path, small_blocks):
    # the length check passed at open; a block read that comes up short still raises
    path = tmp_path / "lat.slfm"
    _latents(path, (37, 8, 3, 5), seed=8)
    with container.BlockReader(path) as reader:
        os.truncate(path, HEADER_BYTES + 3 * 4096)
        with pytest.raises(ContainerFormatError, match="ended early"):
            for _ in reader.blocks():
                pass


def test_reader_closes_its_file_on_a_bad_header(tmp_path):
    # a leaked handle would fail this test through the ResourceWarning filter
    path = tmp_path / "junk.slfm"
    path.write_bytes(b"SLFM" + b"\x00" * 30)
    with pytest.raises(ContainerFormatError):
        container.BlockReader(path)


def test_writer_rejects_a_short_container(tmp_path):
    with pytest.raises(ContainerFormatError, match="declares"):
        with container.BlockWriter(tmp_path / "x.slfm", (2, 3, 1, 1)) as writer:
            writer.write_rows(np.ones((1, 3)))


def test_writer_view_refuses_items_past_its_range(tmp_path):
    path = tmp_path / "x.slfm"
    with container.BlockWriter(path, (4, 2, 1, 1)) as writer:
        first = writer.view(range(0, 2))
        with pytest.raises(ContainerFormatError, match="runs past item 2"):
            first.write_rows(np.ones((3, 2)))
        # the refused block wrote no byte and counted no token
        first.write_rows(np.ones((2, 2)))
        writer.view(range(2, 4)).write_rows(np.full((2, 2), 2.0))
    assert np.array_equal(container.read_container(path)[:, :, 0, 0], [[1, 1], [1, 1], [2, 2], [2, 2]])


def test_writer_rejects_a_view_that_stops_short(tmp_path):
    # two views of all four items write two each: the tokens add up to the
    # header's, but items 2 and 3 were never written
    with pytest.raises(ContainerFormatError, match="items 2..3 of the 4 the header declares"):
        with container.BlockWriter(tmp_path / "x.slfm", (4, 2, 1, 1)) as writer:
            for view in (writer.view(range(4)), writer.view(range(4))):
                view.write_rows(np.ones((2, 2)))


EMPTY_SHAPES = {"n0": (0, 4, 2, 2), "h0": (3, 4, 0, 2), "d0": (3, 0, 2, 2)}


@pytest.mark.parametrize("name", EMPTY_SHAPES)
@pytest.mark.parametrize("project", [False, True], ids=["plain", "project"])
def test_stats_of_an_empty_container_exits_2(tmp_path, capsys, name, project):
    path = tmp_path / "empty.slfm"
    container.write_container(path, np.zeros(EMPTY_SHAPES[name]))
    argv = ["stats", str(path)] + (["--project", "1.0"] if project else [])
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(("name", "code"), [("n0", 0), ("h0", 0), ("d0", 2)])
def test_swap_of_an_empty_container(tmp_path, name, code):
    path = tmp_path / "empty.slfm"
    container.write_container(path, np.zeros(EMPTY_SHAPES[name]))
    out_dir, out_rad = tmp_path / "dir.slfm", tmp_path / "rad.slfm"
    assert _swap(path, path, out_dir, out_rad) == code
    if code == 0:
        assert out_dir.read_bytes() == out_rad.read_bytes() == path.read_bytes()
    else:
        assert not out_dir.exists() and not out_rad.exists()


# ---------------------------------------------------------------------------
# swap writes both hybrids or neither


def _overflowing_radius_hybrid(tmp_path):
    # tokens of norm 6e38 lend that norm to the unit substitute: the radius
    # hybrid overflows f32 while the direction hybrid is fine
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    container.write_container(anchor, np.full((3, 4, 1, 1), 3e38))
    unit = np.zeros((3, 4, 1, 1))
    unit[:, 0] = 1.0
    container.write_container(substitute, unit)
    return anchor, substitute


def _nan_in_last_block(tmp_path):
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    _latents(anchor, (37, 8, 3, 5), seed=9)
    _bad_value_in_last_item(substitute, (37, 8, 3, 5))
    return anchor, substitute


@pytest.mark.parametrize("inputs", [_overflowing_radius_hybrid, _nan_in_last_block], ids=["overflow", "nan"])
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_failed_swap_writes_neither_hybrid(tmp_path, capsys, small_blocks, inputs, existing):
    anchor, substitute = inputs(tmp_path)
    out_dir, out_rad = tmp_path / "dir.slfm", tmp_path / "rad.slfm"
    if existing:
        out_dir.write_bytes(b"old direction hybrid")
        out_rad.write_bytes(b"old radius hybrid")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert _swap(anchor, substitute, out_dir, out_rad) == 2
    assert capsys.readouterr().err.count("\n") == 1
    # no output was created or changed, and no temporary is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_swap_rejects_one_path_for_both_hybrids(tmp_path, capsys):
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    _latents(anchor, (2, 4, 1, 1), seed=10)
    _latents(substitute, (2, 4, 1, 1), seed=11)
    out = tmp_path / "out.slfm"
    assert _swap(anchor, substitute, out, tmp_path / "." / "out.slfm") == 2
    assert "same file" in capsys.readouterr().err
    assert not out.exists()


def test_swap_rejects_one_path_before_reading_inputs(tmp_path, capsys):
    out = tmp_path / "out.slfm"
    assert _swap(tmp_path / "absent_a", tmp_path / "absent_s", out, out) == 2
    assert "same file" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["anchor", "substitute"])
def test_swap_output_may_name_an_input(tmp_path, small_blocks, which):
    shape = (37, 8, 3, 5)
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    _latents(anchor, shape, seed=12)
    _latents(substitute, shape, seed=13, scale=3.0)
    fresh = [tmp_path / "dir.slfm", tmp_path / "rad.slfm"]
    assert _swap(anchor, substitute, *fresh) == 0
    expected = [p.read_bytes() for p in fresh]
    overwritten = anchor if which == "anchor" else substitute
    # the input is read in full before the hybrid replaces it
    assert _swap(anchor, substitute, overwritten, tmp_path / "rad2.slfm") == 0
    assert [overwritten.read_bytes(), (tmp_path / "rad2.slfm").read_bytes()] == expected


# ---------------------------------------------------------------------------
# ranges of blocks on threads

CPU_COUNTS = (1, 2, 3, 8)

# (20, 8, 3, 5): 3 blocks, fewer than most CPU counts; (37, 8, 3, 5): 5
# blocks; (5, 64, 4, 4) in 1000-byte blocks: items over a block, one to a
# block; n = 0 and h = 0: no tokens
RANGE_CASES = {
    "fewer-blocks": ((20, 8, 3, 5), 4096),
    "blocks": ((37, 8, 3, 5), 4096),
    "item-over-block": ((5, 64, 4, 4), 1000),
    "n0": ((0, 4, 2, 2), 4096),
    "h0": ((3, 4, 0, 2), 4096),
}


def test_blocks_run_one_unit_each_in_file_order(monkeypatch, small_blocks):
    # 8 items to a block: 5 blocks, the last of 5 items; items without
    # payload make one block
    for shape, blocks in (
        ((37, 8, 3, 5), [range(i, min(i + 8, 37)) for i in range(0, 37, 8)]),
        ((5, 8, 3, 5), [range(0, 5)]),
        ((0, 4, 2, 2), []),
        ((3, 4, 0, 2), [range(0, 3)]),
    ):
        seen = []
        monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
        _run_blocks(lambda: seen.append, shape)
        assert seen == blocks
        assert container.block_shape(shape) == (len(blocks[0]) if blocks else 0,) + shape[1:]


def _outputs(tmp_path, capsys, anchor, substitute):
    """Exit code, stdout and stderr of stats and stats --project, and exit
    code and written bytes of swap, fresh, with an output that names an
    input, and of the anchor with itself."""
    out = {}
    for name, argv in {
        "stats": ["stats", str(anchor)],
        "project": ["stats", str(anchor), "--project", "2.5"],
    }.items():
        out[name] = (main(argv), *capsys.readouterr())
    hybrids = [tmp_path / "dir.slfm", tmp_path / "rad.slfm"]
    out["swap"] = (_swap(anchor, substitute, *hybrids), *[p.read_bytes() for p in hybrids])
    named = tmp_path / "named.slfm"
    named.write_bytes(anchor.read_bytes())
    hybrids = [named, tmp_path / "rad2.slfm"]
    out["named"] = (_swap(named, substitute, *hybrids), *[p.read_bytes() for p in hybrids])
    hybrids = [tmp_path / "self_dir.slfm", tmp_path / "self_rad.slfm"]
    out["self"] = (_swap(anchor, anchor, *hybrids), *[p.read_bytes() for p in hybrids])
    capsys.readouterr()
    return out


@pytest.mark.parametrize("case", RANGE_CASES)
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch, case):
    shape, block_bytes = RANGE_CASES[case]
    monkeypatch.setattr(container, "BLOCK_BYTES", block_bytes)
    anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
    _latents(anchor, shape, seed=20)
    _latents(substitute, shape, seed=21, scale=3.0)
    runs = {}
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        runs[cpus] = _outputs(tmp_path, capsys, anchor, substitute)
    assert runs[1]["swap"][0] == 0 and runs[1]["named"] == runs[1]["swap"]
    # swapped with itself, a container comes back byte for byte
    assert runs[1]["self"] == (0, anchor.read_bytes(), anchor.read_bytes())
    for cpus in CPU_COUNTS:
        assert runs[cpus] == runs[1]


@pytest.mark.parametrize(("n", "threads"), [(1, 0), (8, 0), (9, 1)], ids=["one-item", "one-block", "two-blocks"])
def test_a_one_block_container_starts_no_thread(tmp_path, capsys, monkeypatch, small_blocks, n, threads):
    # 480-byte items, 8 to a block; takers would be threads, as beside
    # another thread
    monkeypatch.setattr(model, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(model, "_thread_count", lambda: 2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    path = tmp_path / "lat.slfm"
    _latents(path, (n, 8, 3, 5), seed=22)
    out = ["--out-direction", str(tmp_path / "dir.slfm"), "--out-radius", str(tmp_path / "rad.slfm")]
    for argv in (["stats", str(path)], ["stats", str(path), "--project", "2.0"], ["swap", str(path), str(path)] + out):
        before = len(started)
        assert main(argv) == 0
        assert len(started) - before == threads
    capsys.readouterr()


def _zero_and_nan(path, zero_item, nan_item):
    """A container of 5 blocks whose item ``zero_item`` holds a zero token
    and item ``nan_item`` a NaN."""
    arr = _latents(path, (37, 8, 3, 5), seed=23)
    arr[zero_item, :, 1, 2] = 0.0
    arr[nan_item, 3, 0, 0] = np.nan
    with open(path, "wb") as fh:
        fh.write(container._header(arr.shape) + arr.astype("<f4").tobytes())


@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize(
    ("zero_item", "nan_item", "message"),
    [(0, 36, "norm below"), (36, 0, "non-finite")],
    ids=["zero-first", "nan-first"],
)
@pytest.mark.parametrize("run", ["project", "swap"])
def test_the_first_error_in_file_order_wins(tmp_path, capsys, monkeypatch, small_blocks, run, zero_item, nan_item, message, cpus):
    # the faults lie in the first and the last block, so in the first and
    # the last range of blocks whenever there are two
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    path, good = tmp_path / "faults.slfm", tmp_path / "good.slfm"
    _zero_and_nan(path, zero_item, nan_item)
    _latents(good, (37, 8, 3, 5), seed=24)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if run == "swap":
        assert _swap(path, good, tmp_path / "dir.slfm", tmp_path / "rad.slfm") == 2
    else:
        assert main(["stats", str(path), "--project", "2.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR ") and captured.err.count("\n") == 1
    assert message in captured.err
    # neither hybrid nor any temporary is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_payload_cut_while_a_range_streams_ends_early(tmp_path, monkeypatch, small_blocks):
    # the length check passed at open; the cut lies in the fourth of five
    # blocks, and the fifth block, past it, reads nothing
    path = tmp_path / "lat.slfm"
    _latents(path, (37, 8, 3, 5), seed=25)
    errors = []
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        with container.BlockReader(path) as reader:

            def reading():
                buffer = container.BlockBuffer()
                return lambda items: reader.read(items, buffer)

            os.truncate(path, HEADER_BYTES + 3 * 4096)
            with pytest.raises(ContainerFormatError, match="ended early") as caught:
                _run_blocks(reading, reader.shape)
            errors.append(str(caught.value))
        _latents(path, (37, 8, 3, 5), seed=25)
    assert errors == [errors[0]] * len(CPU_COUNTS)


# ---------------------------------------------------------------------------
# write-back hints and the flush order

needs_fadvise = pytest.mark.skipif(not hasattr(os, "posix_fadvise"), reason="no os.posix_fadvise")


def _streamed_inputs(tmp_path, monkeypatch, run):
    """The inputs of ``swap`` (5 blocks of the small blocks) or of
    ``sample --out`` (3 blocks of chains)."""
    if run == "swap":
        anchor, substitute = tmp_path / "a.slfm", tmp_path / "s.slfm"
        _latents(anchor, (37, 8, 3, 5), seed=30)
        _latents(substitute, (37, 8, 3, 5), seed=31, scale=3.0)
        return [anchor, substitute]
    monkeypatch.setattr(model, "SAMPLE_BLOCK", 100)
    ckpt = tmp_path / "m.slfm"
    model.save_checkpoint(ckpt, model.VelocityField.create(4, hidden=(8,), rng=np.random.default_rng(32)))
    return [ckpt]


def _stream(tmp_path, run, inputs, tag):
    """Run ``swap`` or ``sample --out`` on ``inputs``, writing outputs
    named by ``tag``; returns their paths."""
    if run == "swap":
        targets = [tmp_path / f"{tag}_dir.slfm", tmp_path / f"{tag}_rad.slfm"]
        assert _swap(*inputs, *targets) == 0
    else:
        targets = [tmp_path / f"{tag}.slfm"]
        argv = ["sample", str(inputs[0]), "--seed", "0", "--n", "250", "--nfe", "2", "--out", str(targets[0])]
        assert main(argv) == 0
    return targets


def _watch_flushes(monkeypatch):
    """Record each write-back hint (inode, offset, length, advice), each
    fsync (inode) and each rename (inode) as it happens."""
    events = []
    real_advise, real_fsync, real_replace = os.posix_fadvise, os.fsync, os.replace

    def advise(fd, offset, length, advice):
        events.append(("advise", os.fstat(fd).st_ino, offset, length, advice))
        real_advise(fd, offset, length, advice)

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(source, target):
        events.append(("replace", os.stat(source).st_ino))
        real_replace(source, target)

    monkeypatch.setattr(os, "posix_fadvise", advise)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


@needs_fadvise
@pytest.mark.parametrize("run", ["swap", "sample"])
def test_streamed_outputs_reach_disk_before_they_are_renamed(tmp_path, capsys, monkeypatch, small_blocks, run):
    inputs = _streamed_inputs(tmp_path, monkeypatch, run)
    events = _watch_flushes(monkeypatch)
    targets = _stream(tmp_path, run, inputs, "out")
    capsys.readouterr()
    files = [os.stat(target).st_ino for target in targets]
    flushes = [event for event in events if event[0] != "advise"]
    # every hint comes first; then each temporary is flushed before any
    # rename, and the directory after the renames: the hints start the
    # write-back, and the fsyncs still wait for all of it
    assert len(events) > len(flushes) and events[-len(flushes) :] == flushes
    assert [kind for kind, _ in flushes] == ["fsync"] * len(files) + ["replace"] * len(files) + ["fsync"]
    assert [ino for _, ino in flushes[:-1]] == files + files
    assert flushes[-1][1] == os.stat(tmp_path).st_ino


@needs_fadvise
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("run", ["swap", "sample"])
def test_write_back_hints_cover_every_payload_byte_once(tmp_path, capsys, monkeypatch, small_blocks, run, cpus):
    # the hints of every block are this process's to see: takers are
    # threads, as beside another thread
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(model, "_thread_count", lambda: 2)
    inputs = _streamed_inputs(tmp_path, monkeypatch, run)
    events = _watch_flushes(monkeypatch)
    targets = _stream(tmp_path, run, inputs, "out")
    capsys.readouterr()
    hints = [event for event in events if event[0] == "advise"]
    assert {advice for *_, advice in hints} == {os.POSIX_FADV_DONTNEED}
    # one hint per block written: 5 for each hybrid, 3 for the samples
    assert len(hints) == {"swap": 10, "sample": 3}[run]
    for target in targets:
        ino = os.stat(target).st_ino
        spans = sorted((offset, offset + length) for _, i, offset, length, _ in hints if i == ino)
        # the hinted ranges tile the payload, with no gap and no overlap
        assert spans[0][0] == HEADER_BYTES and spans[-1][1] == os.path.getsize(target)
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))


def _refused_hint(*args):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("fallback", ["no-fadvise", "fadvise-raises"])
@pytest.mark.parametrize("run", ["swap", "sample"])
def test_write_back_fallbacks_write_the_same_bytes(tmp_path, capsys, monkeypatch, small_blocks, run, fallback):
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    inputs = _streamed_inputs(tmp_path, monkeypatch, run)
    expected = [target.read_bytes() for target in _stream(tmp_path, run, inputs, "hinted")]
    if fallback == "no-fadvise":
        monkeypatch.delattr(os, "posix_fadvise", raising=False)
    else:
        monkeypatch.setattr(os, "posix_fadvise", _refused_hint, raising=False)
    assert [target.read_bytes() for target in _stream(tmp_path, run, inputs, "plain")] == expected
    capsys.readouterr()
    # and these are the bytes of the one-shot writes
    if run == "swap":
        assert expected == _one_shot_swap(tmp_path, *inputs)
    else:
        field, _ = model.load_checkpoint(inputs[0])
        outputs = model.sample(field, 250, "exp_map", 2, 0, np.random.default_rng(0)).outputs
        container.write_container(tmp_path / "one_shot.slfm", outputs.reshape(250, field.d, 1, 1))
        assert expected == [(tmp_path / "one_shot.slfm").read_bytes()]


# ---------------------------------------------------------------------------
# fuzz: any header, payload and argv of stats and swap exits 0 or 2

# f32 values: 3e38 overflows some swap products, 1e-45 underflows some
# squares, and a fault may add a non-finite one
_VALUES = st.sampled_from([1.0, -2.5, 0.5, 3.0] * 12 + [0.0, 1e-45, 3e38])
# a dimension of 0 leaves no token, or no payload
_SIZES = st.sampled_from([1, 2, 3, 4] * 3 + [0])
_FAULTS = ["none"] * 14 + ["magic", "version", "short", "long", "huge", "nan", "inf"]


@st.composite
def _containers(draw, shape=None):
    """The bytes of a container of ``shape`` (drawn when None) with at most
    one fault: a bad magic or version, a payload a few bytes short or
    long, a huge dimension or a non-finite value."""
    n, d, h, w = shape or (draw(_SIZES) for _ in range(4))
    values = draw(st.lists(_VALUES, min_size=n * d * h * w, max_size=n * d * h * w))
    fault = draw(st.sampled_from(_FAULTS))
    if fault in ("nan", "inf") and values:
        values[draw(st.integers(0, len(values) - 1))] = float(fault)
    if fault == "huge":
        n, d, h, w = (draw(st.sampled_from([n, 2**31, 2**32 - 1])) for _ in (n, d, h, w))
    magic = b"SLFX" if fault == "magic" else container.MAGIC
    version = 2 if fault == "version" else container.VERSION
    data = container._HEADER.pack(magic, version, d, h, w, n) + np.array(values, dtype="<f4").tobytes()
    if fault == "short":
        return data[: -draw(st.sampled_from([1, 4, container._HEADER.size + 1]))]
    return data + (b"\0" * 4 if fault == "long" else b"")


@st.composite
def _pairs(draw):
    """An anchor, and a substitute of its shape or of any."""
    shape = tuple(draw(_SIZES) for _ in range(4))
    anchor = draw(_containers(shape))
    return anchor, draw(_containers(shape) | _containers())


_RADII = st.sampled_from(["2.0"] * 4 + ["1e-300", "1e300", "0", "-1", "nan", "inf", "x"])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pair=_pairs(),
    command=st.sampled_from(["swap", "stats", "project", "swap-named", "swap", "swap-same"]),
    radius=_RADII,
    cpus=st.integers(1, 2),
    block_bytes=st.sampled_from([4, 16, 1024]),
)
def test_stats_and_swap_exit_0_or_2_on_any_input(
    tmp_path_factory, capsys, pair, command, radius, cpus, block_bytes
):
    directory = tmp_path_factory.mktemp("fuzz")
    a, s = directory / "a.slfm", directory / "s.slfm"
    a.write_bytes(pair[0])
    s.write_bytes(pair[1])
    out = [str(directory / "dir.slfm"), str(directory / "rad.slfm")]
    argv = {
        "stats": ["stats", str(a)],
        "project": ["stats", str(a), "--project", radius],
        "swap": ["swap", str(a), str(s), "--out-direction", out[0], "--out-radius", out[1]],
        "swap-named": ["swap", str(a), str(s), "--out-direction", str(a), "--out-radius", out[1]],
        "swap-same": ["swap", str(a), str(s), "--out-direction", out[0], "--out-radius", out[0]],
    }[command]
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_usable_cpus", lambda: cpus)
        patch.setattr(container, "BLOCK_BYTES", block_bytes)
        code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 2)
    if code == 2:
        # a refusal prints no report, and leaves every file as it was
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
    elif command.startswith("swap"):
        assert not [p for p in directory.iterdir() if p.name.endswith(".tmp")]


@st.composite
def _path_inputs(draw):
    """Two containers for ``paths --input`` of dimension 0 to 3, the second
    mostly of the first's shape, each with at most one fault."""
    first, other = ((draw(_SIZES), draw(st.integers(0, 3)), draw(_SIZES), draw(_SIZES)) for _ in range(2))
    return draw(_containers(first)), draw(_containers(draw(st.sampled_from([first] * 3 + [other]))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=_path_inputs(), kind=st.sampled_from(["linear", "shell", "slerp"]), grid=st.integers(-1, 4))
def test_paths_input_exits_0_or_2_on_any_containers(tmp_path_factory, capsys, pair, kind, grid):
    # a profile of finite rows, one per grid point, or one ERROR line and no
    # report; never a traceback or a numpy warning, on two grid slices
    directory = tmp_path_factory.mktemp("paths")
    a, b = directory / "a.slfm", directory / "b.slfm"
    a.write_bytes(pair[0])
    b.write_bytes(pair[1])
    argv = ["paths", "--input", str(a), str(b), "--kind", kind, "--grid", str(grid)]
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
    _, *lines = captured.out.splitlines()
    assert len(lines) == grid
    assert all(math.isfinite(float(v)) for line in lines for v in line.split(","))


# ---------------------------------------------------------------------------
# memory


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _on_cpus(monkeypatch, cpus):
    """Run ``cpus`` ranges of blocks, each waiting for the others before
    every block it reads: all of them hold their buffers at once, the peak
    of ``cpus`` CPUs whatever the threads' timing.  Every container here
    has a multiple of ``cpus`` blocks, so each taker of blocks takes as
    many.  The takers are threads, which tracemalloc and the barrier see:
    the process counts as running another thread."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(model, "_thread_count", lambda: 2)
    barrier = threading.Barrier(cpus, timeout=60)
    read = container.BlockReader.read

    def in_lockstep(reader, items, buffer):
        barrier.wait()
        return read(reader, items, buffer)

    monkeypatch.setattr(container.BlockReader, "read", in_lockstep)


def _command_peaks(tmp_path, capsys, monkeypatch, cpus):
    # items of 512 bytes: n = 256 and 8n = 2048 items, 8 items to a block
    _on_cpus(monkeypatch, cpus)
    shape = (8, 4, 4)
    peaks = {}
    for n in (256, 2048):
        anchor, substitute = tmp_path / f"a{n}.slfm", tmp_path / f"s{n}.slfm"
        _latents(anchor, (n,) + shape, seed=n)
        _latents(substitute, (n,) + shape, seed=n + 1)
        out = [str(tmp_path / f"dir{n}.slfm"), str(tmp_path / f"rad{n}.slfm")]
        for cmd in ("stats", "swap"):
            argv = {
                "stats": ["stats", str(anchor)],
                "swap": ["swap", str(anchor), str(substitute), "--out-direction", out[0], "--out-radius", out[1]],
            }[cmd]
            main(argv)  # warm: first-call allocations are not the command's
            peaks[cmd, n] = _traced_peak(argv)
    capsys.readouterr()
    return peaks


def test_streamed_commands_keep_memory_bounded(tmp_path, capsys, monkeypatch, small_blocks):
    peaks = _command_peaks(tmp_path, capsys, monkeypatch, cpus=1)
    two_blocks = 2 * 2 * small_blocks  # a block promoted to float64 takes twice its bytes
    extra_tokens = (2048 - 256) * 16
    assert peaks["swap", 2048] - peaks["swap", 256] <= two_blocks
    # stats keeps one float64 norm per token
    assert peaks["stats", 2048] - peaks["stats", 256] <= 8 * extra_tokens + two_blocks


def _cast_buffers(block_bytes) -> int:
    """The bytes of numpy's cast buffers in one ``write_scaled`` multiply
    of an f32 block: three of at most 8192 float64 values, held for the
    call.  Whether the other CPU's are live at the peak depends on the
    threads' timing, so each two-CPU bound allows for them once."""
    return 3 * 8 * min(8192, block_bytes // 4)


def test_streamed_commands_keep_memory_bounded_on_two_cpus(tmp_path, capsys, monkeypatch, small_blocks):
    # tracemalloc counts every thread: each CPU holds its own block buffers
    peaks = _command_peaks(tmp_path, capsys, monkeypatch, cpus=2)
    two_blocks = 2 * (2 * 2 * small_blocks)
    extra_tokens = (2048 - 256) * 16
    assert peaks["swap", 2048] - peaks["swap", 256] <= two_blocks + _cast_buffers(small_blocks)
    assert peaks["stats", 2048] - peaks["stats", 256] <= 8 * extra_tokens + two_blocks


def _swap_peaks(tmp_path, capsys, monkeypatch, cpus):
    # items of 512 bytes, in containers of 4 and 40 blocks of 64 KiB and of
    # 4 blocks of 256 KiB
    _on_cpus(monkeypatch, cpus)
    shape = (8, 4, 4)
    small, large = 1 << 16, 1 << 18
    peaks = {}
    for block_bytes, blocks in ((small, 4), (small, 40), (large, 4)):
        monkeypatch.setattr(container, "BLOCK_BYTES", block_bytes)
        n = blocks * block_bytes // 512
        anchor, substitute = tmp_path / f"a{n}.slfm", tmp_path / f"s{n}.slfm"
        _latents(anchor, (n,) + shape, seed=n)
        _latents(substitute, (n,) + shape, seed=n + 1, scale=3.0)
        argv = ["swap", str(anchor), str(substitute),
                "--out-direction", str(tmp_path / "dir.slfm"), "--out-radius", str(tmp_path / "rad.slfm")]
        main(argv)  # warm: first-call allocations are not the command's
        peaks[block_bytes, blocks] = _traced_peak(argv)
    capsys.readouterr()
    return peaks, small, large


def test_swap_holds_no_float64_hybrid_block(tmp_path, capsys, monkeypatch):
    # items of 512 bytes: a token is 8 f32 channels, 32 bytes.  Per byte of
    # BLOCK_BYTES, swap's buffers are each reader's f32 block (1), its mask
    # (1/4) and its float64 token rows (2), each writer's f32 block (1) and
    # mask (1/4), and three float64 norms per token (3 * 8 / 32).  From
    # 64 KiB blocks on, nothing else it allocates grows with the block
    # (numpy's cast buffers stop at 8192 values).
    budget = 2 * (1 + 1 / 4 + 2) + 2 * (1 + 1 / 4) + 3 * 8 / 32
    peaks, small, large = _swap_peaks(tmp_path, capsys, monkeypatch, cpus=1)
    assert abs(peaks[small, 40] - peaks[small, 4]) <= small
    # a float64 hybrid block would add 2 per byte
    per_byte = (peaks[large, 4] - peaks[small, 4]) / (large - small)
    assert per_byte <= budget + 1


def test_swap_holds_no_float64_hybrid_block_on_two_cpus(tmp_path, capsys, monkeypatch):
    # each of the two ranges of blocks holds the one-CPU buffers of its own
    budget = 2 * (2 * (1 + 1 / 4 + 2) + 2 * (1 + 1 / 4) + 3 * 8 / 32)
    peaks, small, large = _swap_peaks(tmp_path, capsys, monkeypatch, cpus=2)
    slack = _cast_buffers(small)  # as many as for a large block
    assert abs(peaks[small, 40] - peaks[small, 4]) <= small + slack
    # a float64 hybrid block in each range would add 4 per byte
    per_byte = (peaks[large, 4] - peaks[small, 4]) / (large - small)
    assert per_byte <= budget + 1 + slack / (large - small)


# ---------------------------------------------------------------------------
# the scaled write


def _scaled_and_reference(tmp_path, items, factor):
    """The bytes ``write_scaled`` writes, and those ``write_rows`` writes
    from the float64 products' token rows."""
    scaled, reference = tmp_path / "scaled.slfm", tmp_path / "rows.slfm"
    with container.BlockWriter(scaled, items.shape) as writer:
        writer.view(range(items.shape[0])).write_scaled(items, factor)
    with container.BlockWriter(reference, items.shape) as writer:
        writer.write_rows(container.token_rows(items.astype(np.float64) * factor))
    return scaled.read_bytes(), reference.read_bytes()


def _near_ties(rng, shape):
    """One-channel f32 items, and float64 factors whose products lie within
    a few float64 ulps of the midpoint of two adjacent f32 values, or on it."""
    items = rng.uniform(0.5, 4.0, shape).astype(np.float32)
    target = rng.uniform(0.5, 4.0, shape).astype(np.float32)
    tie = (target.astype(np.float64) + np.nextafter(target, np.float32(np.inf))) / 2.0
    factor = tie / items
    for _ in range(3):  # up to three float64 ulps either way
        toward = np.array([0.0, np.nan, np.inf])[rng.integers(0, 3, factor.shape)]
        factor = np.where(np.isnan(toward), factor, np.nextafter(factor, toward))
    return items, factor


@pytest.mark.parametrize("case", ["random", "subnormal", "near-tie", "h0"])
def test_scaled_write_equals_write_rows_of_the_float64_products(tmp_path, case):
    rng = np.random.default_rng(40)
    shape = (6, 5, 3, 4)
    if case == "random":
        items = rng.standard_normal(shape).astype(np.float32)
        factor = np.exp(rng.uniform(-20.0, 20.0, (6, 1, 3, 4)))
    elif case == "subnormal":
        # products from below half the smallest f32 subnormal to normal
        items = rng.uniform(1.0, 2.0, shape).astype(np.float32)
        factor = 10.0 ** rng.uniform(-46.0, -37.0, (6, 1, 3, 4))
    elif case == "near-tie":
        items, factor = _near_ties(rng, (6, 1, 3, 4))
    else:
        items = np.ones((3, 5, 0, 4), dtype=np.float32)
        factor = np.ones((3, 1, 0, 4))
    scaled, reference = _scaled_and_reference(tmp_path, items, factor)
    assert scaled == reference
    if case == "subnormal":
        stored = np.frombuffer(scaled[HEADER_BYTES:], dtype="<f4")
        tiny = np.finfo(np.float32).tiny
        assert np.any(stored == 0.0) and np.any((stored > 0.0) & (stored < tiny))
    if case == "near-tie":
        # the float32 loop, which rounds the factor first, misses the ties
        assert scaled[HEADER_BYTES:] != (items * factor.astype(np.float32)).tobytes()


def test_scaled_write_reports_overflow_as_write_rows_does(tmp_path):
    items = np.full((2, 4, 1, 1), 3e38, dtype=np.float32)
    factor = np.array([1.0, 2.0]).reshape(2, 1, 1, 1)
    path = tmp_path / "x.slfm"
    with container.BlockWriter(path, items.shape) as writer:
        view = writer.view(range(items.shape[0]))
        with pytest.raises(ContainerFormatError) as scaled:
            view.write_scaled(items, factor)
        with pytest.raises(ContainerFormatError) as rows:
            view.write_rows(container.token_rows(items.astype(np.float64) * factor))
        assert str(scaled.value) == str(rows.value) == "payload overflows 32-bit float storage"
        # the failed writes counted no token and wrote no byte
        view.write_scaled(items, np.ones_like(factor))
    assert path.read_bytes() == container._header(items.shape) + items.tobytes()


def test_scaled_write_rejects_items_of_another_shape(tmp_path):
    with container.BlockWriter(tmp_path / "x.slfm", (2, 4, 1, 1)) as writer:
        view = writer.view(range(2))
        with pytest.raises(ContainerFormatError, match="does not hold items"):
            view.write_scaled(np.ones((2, 3, 1, 1), dtype=np.float32), np.ones((2, 1, 1, 1)))
        view.write_scaled(np.ones((2, 4, 1, 1), dtype=np.float32), np.ones((2, 1, 1, 1)))


# ---------------------------------------------------------------------------
# write_container: one writer view, a block at a time


def _whole_array_cast(arr) -> bytes:
    """The container bytes of one whole-array cast of ``arr`` to f32."""
    return container._header(arr.shape) + arr.astype("<f4").tobytes()


def _wide_range(rng, shape):
    """Values from f32 subnormals to 1e35, each rounded to f32 on write."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-100.0, 80.0, shape))


# (37, 8, 3, 5): four blocks of 8 items and a last of 5 in 4 KiB blocks;
# (5, 64, 4, 4): 4 KiB items in 1000-byte blocks; d = 0 and h = 0: items
# without payload; the transposed stride-2 slice is not contiguous
@pytest.mark.parametrize(
    ("case", "block_bytes"),
    [("blocks", 4096), ("item-over-block", 1000), ("d0", 4096), ("h0", 4096), ("strided", 4096)],
)
def test_write_container_writes_the_bytes_of_a_whole_array_cast(tmp_path, monkeypatch, case, block_bytes):
    monkeypatch.setattr(container, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(60)
    arr = {
        "blocks": lambda: _wide_range(rng, (37, 8, 3, 5)),
        "item-over-block": lambda: _wide_range(rng, (5, 64, 4, 4)),
        "d0": lambda: np.zeros((5, 0, 3, 3)),
        "h0": lambda: np.zeros((4, 3, 0, 2)),
        "strided": lambda: _wide_range(rng, (75, 8, 5, 3)).transpose(0, 1, 3, 2)[::2],
    }[case]()
    assert case != "strided" or not arr.flags.c_contiguous
    path = tmp_path / "x.slfm"
    container.write_container(path, arr)
    assert path.read_bytes() == _whole_array_cast(arr)


def test_write_container_keeps_memory_bounded(tmp_path):
    # 2**22 float64 values (32 MiB): the whole-array cast and its bytes
    # copy held 32 MiB; one writer view holds one f32 block and its mask
    arr = np.random.default_rng(61).standard_normal((64, 16, 64, 64))
    path = tmp_path / "big.slfm"
    container.write_container(path, arr[:1])  # warm: first-call allocations
    tracemalloc.start()
    try:
        container.write_container(path, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * container.BLOCK_BYTES
    assert os.path.getsize(path) == HEADER_BYTES + 4 * arr.size


@pytest.mark.parametrize(
    ("value", "message"),
    [(np.nan, "payload contains non-finite values"), (1e39, "payload overflows 32-bit float storage")],
    ids=["nan", "f32-overflow"],
)
def test_write_container_fault_in_a_later_block_leaves_a_rejected_remnant(tmp_path, small_blocks, value, message):
    arr = np.ones((37, 8, 3, 5))
    arr[-1, -1, -1, -1] = value
    path = tmp_path / "x.slfm"
    with pytest.raises(ContainerFormatError) as err:
        container.write_container(path, arr)
    assert str(err.value) == message
    # the four blocks of 8 items before the faulty last one were written
    assert os.path.getsize(path) == HEADER_BYTES + 4 * 32 * 8 * 3 * 5
    with pytest.raises(ContainerFormatError, match="payload length"):
        container.read_container(path)


def test_write_container_needs_a_seekable_path(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not wait
    try:
        with pytest.raises(OSError) as err:
            container.write_container(fifo, np.ones((2, 3, 1, 1)))
        assert err.value.errno == errno.ESPIPE
    finally:
        os.close(reader)
