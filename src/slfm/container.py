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
  f32 buffer, promoted into a reused float64 buffer, checked for finite
  values and transposed into a reused token-row buffer.  A truncated
  payload or a non-finite value in any block raises
  :class:`ContainerFormatError`.  :func:`read_container` is the one-shot
  case of the same reader.
- :class:`BlockWriter` writes the header and then one block of token rows at
  a time, with :func:`write_container`'s finite and f32-overflow checks.
  Streamed outputs are written to temporaries under :func:`replacing`, which
  moves them over their targets only once every write succeeded.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .errors import ContainerFormatError

MAGIC = b"SLFM"
VERSION = 1
_HEADER = struct.Struct("<4sHIIII")

# Payload bytes per streamed block: whole items, at least one.
BLOCK_BYTES = 1 << 20


def _f32_payload(arr, out=None) -> np.ndarray:
    """``arr`` cast to little-endian f32 (into ``out`` when given); raises on
    non-finite values or values that overflow 32-bit storage."""
    if not np.all(np.isfinite(arr)):
        raise ContainerFormatError("payload contains non-finite values")
    with np.errstate(over="ignore"):
        if out is None:
            out = arr.astype("<f4")
        else:
            np.copyto(out, arr, casting="same_kind")
    if not np.all(np.isfinite(out)):
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

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    @property
    def n_tokens(self) -> int:
        n, _, h, w = self.shape
        return n * h * w

    def _read_items(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a C-contiguous float64 (k, d, h, w) block, with the
        next k items."""
        if self._raw.size < out.size:
            self._raw = np.empty(out.size, dtype="<f4")
        raw = self._raw[: out.size]
        got = self._fh.readinto(raw)
        if got != raw.nbytes:
            raise ContainerFormatError(
                f"payload ended early: read {got} of {raw.nbytes} bytes of a block"
            )
        np.copyto(out.reshape(-1), raw)
        if not np.all(np.isfinite(out)):
            raise ContainerFormatError("payload contains non-finite values")
        return out

    def token_blocks(self):
        """Yield the payload as token-row blocks of shape (k*h*w, d), k whole
        items at a time.  Each block is a view of a buffer that the next
        block overwrites."""
        n, d, h, w = self.shape
        per_block = _items_per_block(self.shape)
        items = np.empty((min(n, per_block), d, h, w))
        rows = np.empty((min(n, per_block) * h * w, d))
        for first in range(0, n, per_block):
            k = min(per_block, n - first)
            block = self._read_items(items[:k])
            out = rows[: k * h * w]
            np.copyto(rows_to_tensor(out, block.shape), block)
            yield out


class BlockWriter:
    """A container of ``shape`` written to ``path`` one block of token rows
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

    def write_rows(self, rows) -> None:
        """Append whole items given as token rows of shape (k*h*w, d)."""
        _, d, h, w = self.shape
        rows = np.asarray(rows, dtype=np.float64)
        k = rows.shape[0] // (h * w) if h * w else 0
        items = rows_to_tensor(rows, (k, d, h, w))
        if self._buf.size < items.size:
            self._buf = np.empty(items.size, dtype="<f4")
        payload = _f32_payload(items, out=self._buf[: items.size].reshape(items.shape))
        self._fh.write(payload.data)
        self._tokens += rows.shape[0]


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
            reader._read_items(arr[first : first + per_block])
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
