"""Streamed containers: block boundaries, all-or-nothing outputs, bounded memory.

Every test that crosses block boundaries shrinks ``container.BLOCK_BYTES`` to
a few KiB instead of writing a large container.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from slfm import container, diagnostics, sphere
from slfm.cli import main
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


def test_read_container_crosses_blocks(tmp_path, small_blocks):
    path = tmp_path / "lat.slfm"
    arr = _latents(path, (37, 8, 3, 5), seed=4)
    assert np.array_equal(container.read_container(path), arr)


def test_token_blocks_cover_every_token_once(tmp_path, small_blocks):
    path = tmp_path / "lat.slfm"
    arr = _latents(path, (37, 8, 3, 5), seed=5)
    with container.BlockReader(path) as reader:
        blocks = [rows.copy() for rows in reader.token_blocks()]
    assert [b.shape[0] for b in blocks] == [8 * 15] * 4 + [5 * 15]
    assert np.array_equal(np.concatenate(blocks), container.token_rows(arr))


def _nan_in_last_item(path, shape):
    _latents(path, shape, seed=6)
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        fh.write(np.array([np.nan], dtype="<f4").tobytes())


@pytest.mark.parametrize("argv", [["stats"], ["stats", "--project", "2.0"]], ids=["stats", "project"])
def test_stats_rejects_nan_in_a_later_block(tmp_path, capsys, small_blocks, argv):
    path = tmp_path / "lat.slfm"
    _nan_in_last_item(path, (37, 8, 3, 5))
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert "non-finite" in capsys.readouterr().err


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
            for _ in reader.token_blocks():
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
    _nan_in_last_item(substitute, (37, 8, 3, 5))
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
# memory


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_commands_keep_memory_bounded(tmp_path, capsys, small_blocks):
    # items of 512 bytes: n = 256 and 8n = 2048 items, 8 items to a block
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
    two_blocks = 2 * 2 * small_blocks  # a block promoted to float64 takes twice its bytes
    extra_tokens = (2048 - 256) * 16
    assert peaks["swap", 2048] - peaks["swap", 256] <= two_blocks
    # stats keeps one float64 norm per token
    assert peaks["stats", 2048] - peaks["stats", 256] <= 8 * extra_tokens + two_blocks
