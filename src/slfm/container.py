"""Binary latent-tensor container.

Layout: magic ``b"SLFM"``, version u16 = 1, then d, h, w, n_items as u32,
all little endian, followed by n*d*h*w IEEE-754 32-bit floats in C order of
the (n_items, d, h, w) array (item-major, then channel, then rows).

Payloads are stored in 32-bit but promoted to 64-bit on read; writing a
read-back array reproduces the file byte for byte.

Containers are streamed in blocks of whole items, about ``BLOCK_BYTES`` of
payload each (one item per block when an item is larger), so memory stays
bounded whatever the container's size:

- :class:`BlockReader` checks the header, and the payload length against the
  file size, before it reads any payload.  Each block is read into a reused
  f32 buffer and checked for finite values there, into a reused mask (the
  promotion to float64 is exact, so it makes no value non-finite).  One
  copy then promotes it and transposes it into a reused token-row buffer,
  whose (k, d, h, w) view is the strided target.  :meth:`BlockReader.blocks`
  yields both views of each block, the checked f32 items and the float64
  token rows; :meth:`BlockReader.token_blocks` yields the rows alone.  A
  truncated payload or a non-finite value in any block raises
  :class:`ContainerFormatError`.  :func:`read_container` is the one-shot
  case of the same reader, with C-ordered blocks of its result as targets.
- :class:`BlockWriter` writes the header and then one block at a time, into
  one reused f32 block and one reused mask for :func:`write_container`'s
  finite and f32-overflow checks.  Every block goes through
  :meth:`BlockWriter.write_scaled`, which takes items and a float64 factor
  per token and writes their products with a single multiply into the f32
  block: numpy's float64 loop rounds each product once to f32, the bytes
  :func:`write_container` writes for the float64 products, with no float64
  block in between.  ``slfm swap`` hands it f32 items as a reader yields
  them and the swap ratios; :meth:`BlockWriter.write_rows` hands it float64
  token rows, transposed into items, and a factor of 1.0, so each value is
  rounded once to f32 as a cast would round it.
  Streamed outputs are written to temporaries under :func:`replacing`, which
  moves them over their targets only once every write succeeded.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import ContainerFormatError

MAGIC = b"SLFM"
VERSION = 1
_HEADER = struct.Struct("<4sHIIII")

# Payload bytes per streamed block: whole items, at least one.
BLOCK_BYTES = 1 << 20


def _f32_payload(arr) -> np.ndarray:
    """``arr`` cast to little-endian f32; raises on non-finite values or
    values that overflow 32-bit storage.  Every value is finite before the
    cast if it is finite after it, so ``arr`` itself is scanned only to
    tell the two faults apart."""
    with np.errstate(over="ignore"):
        out = arr.astype("<f4")
    if not np.isfinite(out).all():
        if not np.isfinite(arr).all():
            raise ContainerFormatError("payload contains non-finite values")
        raise ContainerFormatError("payload overflows 32-bit float storage")
    return out


def write_container(path, array) -> None:
    """Write a (n_items, d, h, w) float array; raises on non-finite values
    or values that overflow 32-bit storage."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 4:
        raise ContainerFormatError(f"expected a 4-d (n, d, h, w) array, got shape {arr.shape}")
    header = _header(arr.shape)
    payload = _f32_payload(arr)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes(order="C"))


def _header(shape) -> bytes:
    n, d, h, w = shape
    if max(shape) >= 2 ** 32:
        raise ContainerFormatError("dimension exceeds the u32 header field")
    return _HEADER.pack(MAGIC, VERSION, d, h, w, n)


def _read_header(fh) -> tuple:
    """Validate the header, and the payload length against the file size,
    before any payload is read; returns the (n, d, h, w) shape."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ContainerFormatError(
            f"truncated header: {len(head)} bytes, need {_HEADER.size}"
        )
    magic, version, d, h, w, n = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ContainerFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerFormatError(f"unsupported version {version}")
    expected = 4 * n * d * h * w
    got = os.fstat(fh.fileno()).st_size - _HEADER.size
    if got != expected:
        raise ContainerFormatError(
            f"payload length {got} bytes, expected {expected} ({n}x{d}x{h}x{w} f32)"
        )
    return n, d, h, w


def _items_per_block(shape) -> int:
    n, d, h, w = shape
    item_bytes = 4 * d * h * w
    if item_bytes == 0:  # items without payload: one block holds them all
        return max(1, n)
    return max(1, BLOCK_BYTES // item_bytes)


class BlockReader:
    """A container opened for reading in blocks of whole items.

    Opening reads and checks the header; ``shape`` is the (n, d, h, w) shape
    it declares.  Use it as a context manager, which closes the file."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self.shape = _read_header(self._fh)
        except BaseException:
            self._fh.close()
            raise
        self._raw = np.empty(0, dtype="<f4")
        self._finite = np.empty(0, dtype=bool)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    @property
    def n_tokens(self) -> int:
        n, _, h, w = self.shape
        return n * h * w

    def _read_items(self, shape) -> np.ndarray:
        """The next k items, shape (k, d, h, w), read into the reused f32
        buffer and checked there; a view the next read overwrites."""
        size = math.prod(shape)
        if self._raw.size < size:
            self._raw = np.empty(size, dtype="<f4")
            self._finite = np.empty(size, dtype=bool)
        raw = self._raw[:size]
        got = self._fh.readinto(raw)
        if got != raw.nbytes:
            raise ContainerFormatError(
                f"payload ended early: read {got} of {raw.nbytes} bytes of a block"
            )
        if not np.isfinite(raw, out=self._finite[:size]).all():
            raise ContainerFormatError("payload contains non-finite values")
        return raw.reshape(shape)

    def blocks(self):
        """Yield the payload k whole items at a time, as pairs of views of
        one block: the checked f32 items, shape (k, d, h, w), and their
        float64 token rows, shape (k*h*w, d).  Both are views of buffers
        that the next block overwrites."""
        n, d, h, w = self.shape
        per_block = _items_per_block(self.shape)
        rows = np.empty((min(n, per_block) * h * w, d))
        for first in range(0, n, per_block):
            k = min(per_block, n - first)
            out = rows[: k * h * w]
            items = self._read_items((k, d, h, w))
            np.copyto(rows_to_tensor(out, items.shape), items)
            yield items, out

    def token_blocks(self):
        """Yield the payload as token-row blocks of shape (k*h*w, d), k whole
        items at a time.  Each block is a view of a buffer that the next
        block overwrites."""
        for _, rows in self.blocks():
            yield rows


class BlockWriter:
    """A container of ``shape`` written to ``path`` one block of whole items
    at a time.  Use it as a context manager, which closes the file."""

    def __init__(self, path, shape):
        self.shape = tuple(int(s) for s in shape)
        header = _header(self.shape)
        self._fh = open(path, "wb")
        try:
            self._fh.write(header)
        except BaseException:
            self._fh.close()
            raise
        self._buf = np.empty(0, dtype="<f4")
        self._finite = np.empty(0, dtype=bool)
        self._tokens = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._fh.close()
        n, _, h, w = self.shape
        if exc_type is None and self._tokens != n * h * w:
            raise ContainerFormatError(
                f"wrote {self._tokens} of the {n * h * w} tokens the header declares"
            )

    def _block(self, shape):
        """The reused f32 block and mask, as views of ``shape``."""
        size = math.prod(shape)
        if self._buf.size < size:
            self._buf = np.empty(size, dtype="<f4")
            self._finite = np.empty(size, dtype=bool)
        return self._buf[:size].reshape(shape), self._finite[:size].reshape(shape)

    def write_rows(self, rows) -> None:
        """Append whole items given as token rows of shape (k*h*w, d),
        through :meth:`write_scaled` with a factor of 1.0: each float64
        product is the value itself, rounded once to f32 as a cast would."""
        _, d, h, w = self.shape
        rows = np.asarray(rows, dtype=np.float64)
        k = rows.shape[0] // (h * w) if h * w else 0
        self.write_scaled(rows_to_tensor(rows, (k, d, h, w)), 1.0)

    def write_scaled(self, items, factor) -> None:
        """Append f32(``items`` * ``factor``): ``items`` are k whole items,
        shape (k, d, h, w), and ``factor`` holds one float64 per token,
        shape (k, 1, h, w), or one for all.  Each product is formed in
        float64 and rounded once to f32, the bytes :func:`write_container`
        writes for the float64 products, with the same checks; only when a
        check fails is the float64 product formed, to name the fault."""
        items = np.asarray(items)
        if items.ndim != 4 or items.shape[1:] != self.shape[1:]:
            raise ContainerFormatError(
                f"block of shape {items.shape} does not hold items of {self.shape[1:]}"
            )
        # an ndarray, not a Python float, so the float64 loop runs (NEP 50)
        factor = np.asarray(factor, dtype=np.float64)
        payload, mask = self._block(items.shape)
        with np.errstate(over="ignore"):
            np.multiply(items, factor, out=payload, casting="same_kind")
            if not np.isfinite(payload, out=mask).all():
                # raises, naming the fault of the float64 products
                _f32_payload(np.multiply(items, factor, dtype=np.float64))
        self._fh.write(payload.data)
        _, _, h, w = self.shape
        self._tokens += items.shape[0] * h * w


def _fsync(path) -> None:
    """Flush a written file, or a directory's entries, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def replacing(targets, fsync=_fsync):
    """Yield one temporary path ``<target>.<pid>.tmp`` beside each target.

    When the block exits normally, every temporary is flushed to disk, moved
    over its target with ``os.replace``, and the targets' directories are
    flushed.  Otherwise no target is touched.  The temporaries are removed
    either way.  ``fsync(path)`` flushes a file or a directory to disk."""
    targets = [str(t) for t in targets]
    temps = [f"{target}.{os.getpid()}.tmp" for target in targets]
    try:
        yield temps
        for temp in temps:
            fsync(temp)
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
        for directory in dict.fromkeys(os.path.dirname(t) or "." for t in targets):
            fsync(directory)  # the renames themselves
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def read_container(path) -> np.ndarray:
    """Read a container into a float64 (n_items, d, h, w) array."""
    with BlockReader(path) as reader:
        arr = np.empty(reader.shape)
        per_block = _items_per_block(reader.shape)
        for first in range(0, reader.shape[0], per_block):
            block = arr[first : first + per_block]
            np.copyto(block, reader._read_items(block.shape))
    return arr


def token_rows(tensor) -> np.ndarray:
    """Flatten a (n, d, h, w) tensor into per-position tokens of shape
    (n*h*w, d)."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 4:
        raise ContainerFormatError(f"expected a 4-d (n, d, h, w) array, got shape {arr.shape}")
    n, d, h, w = arr.shape
    return arr.transpose(0, 2, 3, 1).reshape(n * h * w, d)


def rows_to_tensor(rows, shape) -> np.ndarray:
    """Inverse of :func:`token_rows` for a given (n, d, h, w) shape."""
    n, d, h, w = shape
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape != (n * h * w, d):
        raise ContainerFormatError(
            f"row stack {arr.shape} does not match tensor shape {tuple(shape)}"
        )
    return arr.reshape(n, h, w, d).transpose(0, 3, 1, 2)
