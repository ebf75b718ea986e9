"""Binary latent-tensor container.

Layout: magic ``b"SLFM"``, version u16 = 1, then d, h, w, n_items as u32,
all little endian, followed by n*d*h*w IEEE-754 32-bit floats in C order of
the (n_items, d, h, w) array (item-major, then channel, then rows).

Payloads are stored in 32-bit but promoted to 64-bit on read; writing a
read-back array reproduces the file byte for byte.

Containers are streamed in blocks of whole items, about ``BLOCK_BYTES`` of
payload each (one item per block when an item is larger), so memory stays
bounded whatever the container's size.  Each file is opened once, and every
block is read or written at its own offset with positional I/O, so contiguous
ranges of whole blocks (:func:`block_slices`) can run on threads of their
own through the one descriptor, each with its own buffers:

- :class:`BlockReader` checks the header, and the payload length against the
  file size, before it reads any payload.  :meth:`BlockReader.blocks` streams
  a range of items (all by default) through its own f32 block and the mask
  that block is checked for finite values into (a promotion to float64 is
  exact, so it makes no value non-finite), and yields the checked f32 items
  in the container's own (k, d, h, w) layout.  ``slfm stats`` and ``swap``
  take each token's norm from those items' channel planes
  (``sphere._plane_norms_into``), so no float64 token rows are formed and
  nothing is transposed.  :meth:`BlockReader.token_blocks` gives each
  block's float64 token rows as a new array, for tests and library callers.
  A truncated payload or a non-finite value in any block raises
  :class:`ContainerFormatError`.  :func:`read_container` copies the same
  blocks into its float64 result.
- :class:`BlockWriter` writes the header, and :meth:`BlockWriter.view` gives
  a range of items that is written one block at a time, in order, through
  its own f32 block and mask for :func:`write_container`'s finite and
  f32-overflow checks; the writer's own ``write_rows`` writes through a view
  of all its items.  Every block goes through a view's ``write_scaled``,
  which takes items and a float64 factor per token and writes their
  products with a single multiply into the f32 block: numpy's float64 loop
  rounds each product once to f32, the bytes :func:`write_container` writes
  for the float64 products, with no float64 block in between.  ``slfm
  swap`` hands it f32 items as a reader yields them and the swap ratios;
  ``write_rows`` hands it float64 token rows, transposed into items, and a
  factor of 1.0, so each value is rounded once to f32 as a cast would round
  it.  A view refuses items past its range, and on exit each view must
  have written its whole range and the tokens its views wrote must add up
  to those the header declares.
  As each block lands, its write-back to disk starts
  (``POSIX_FADV_DONTNEED`` on the block's byte range, a hint that does not
  wait), so the disk writes the output while later blocks compute.
  Streamed outputs are written to temporaries under :func:`replacing`, which
  moves them over their targets only once every write succeeded; its
  ``fsync`` of each temporary still makes every byte durable before the
  rename, and so waits only for the blocks still in flight.
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


def block_slices(shape, parts) -> list:
    """The items of a container of ``shape`` as at most ``parts`` contiguous
    ranges of whole blocks, in file order, their block counts differing by
    at most one.  A container without items is one empty range."""
    n = shape[0]
    per_block = _items_per_block(shape)
    blocks = -(-n // per_block)
    parts = max(1, min(blocks, parts))
    bounds = [min(n, i * blocks // parts * per_block) for i in range(parts + 1)]
    return [range(first, stop) for first, stop in zip(bounds, bounds[1:])]


def _offset(shape, item) -> int:
    """The file offset of item ``item``'s payload."""
    _, d, h, w = shape
    return _HEADER.size + 4 * d * h * w * item


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

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    @property
    def n_tokens(self) -> int:
        n, _, h, w = self.shape
        return n * h * w

    def blocks(self, items=None):
        """Yield the payload of the item range ``items`` (all items by
        default) k whole items at a time, as checked f32 items of shape
        (k, d, h, w): views of one block that the next block overwrites.
        Each block is read at its own offset and checked for finite values
        into a mask of its own; each call has its own block and mask, so
        calls over disjoint ranges may run on threads of their own."""
        n = self.shape[0]
        items = range(n) if items is None else items
        per_block = _items_per_block(self.shape)
        raw = np.empty((min(len(items), per_block),) + self.shape[1:], dtype="<f4")
        finite = np.empty(raw.shape, dtype=bool)
        for first in range(items.start, items.stop, per_block):
            k = min(per_block, items.stop - first)
            block = raw[:k]
            buf = block.reshape(-1).view(np.uint8)
            offset, got = _offset(self.shape, first), 0
            while got < buf.size:
                read = os.preadv(self._fh.fileno(), [buf[got:]], offset + got)
                if read == 0:
                    raise ContainerFormatError(
                        f"payload ended early: read {got} of {buf.size} bytes of a block"
                    )
                got += read
            if not np.isfinite(block, out=finite[:k]).all():
                raise ContainerFormatError("payload contains non-finite values")
            yield block

    def token_blocks(self, items=None):
        """Yield the payload of the item range ``items`` (all items by
        default) as new float64 token-row blocks of shape (k*h*w, d), k
        whole items at a time: :func:`token_rows` of :meth:`blocks`."""
        for block in self.blocks(items):
            yield token_rows(block)


class BlockWriter:
    """A container of ``shape`` written to ``path`` one block of whole items
    at a time, through views of item ranges (:meth:`view`) or in order from
    the first item (:meth:`write_rows`).  Use it as a context manager,
    which closes the file."""

    def __init__(self, path, shape):
        self.shape = tuple(int(s) for s in shape)
        header = _header(self.shape)
        self._fh = open(path, "wb", buffering=0)
        try:
            _pwrite_all(self._fh.fileno(), header, 0)
        except BaseException:
            self._fh.close()
            raise
        self._views = []
        self._all = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._fh.close()
        if exc_type is not None:
            return
        n, _, h, w = self.shape
        for view in self._views:
            # items without payload leave no bytes to miss
            if _offset(self.shape, view._next) != _offset(self.shape, view._stop):
                raise ContainerFormatError(
                    f"items {view._next}..{view._stop - 1} of the {n} the header declares"
                    " were never written"
                )
        tokens = sum(view.tokens for view in self._views)
        if tokens != n * h * w:
            raise ContainerFormatError(
                f"wrote {tokens} of the {n * h * w} tokens the header declares"
            )

    def view(self, items) -> _WriterView:
        """A view that writes the item range ``items`` in order, from its
        first item, with buffers of its own; views of disjoint ranges may
        write on threads of their own.  Each view must write its whole
        range, and no item past it."""
        view = _WriterView(self, items)
        self._views.append(view)
        return view

    def _whole(self) -> _WriterView:
        if self._all is None:
            self._all = self.view(range(self.shape[0]))
        return self._all

    def write_rows(self, rows) -> None:
        """:meth:`_WriterView.write_rows` of the next items."""
        self._whole().write_rows(rows)


class _WriterView:
    """The item range ``items`` of a :class:`BlockWriter`'s container,
    written in order, each block at its own offset, through one reused f32
    block and mask; ``tokens`` counts the tokens written."""

    def __init__(self, writer, items):
        self.shape = writer.shape
        self._fd = writer._fh.fileno()
        self._next, self._stop = items.start, items.stop
        self._buf = np.empty(0, dtype="<f4")
        self._finite = np.empty(0, dtype=bool)
        self.tokens = 0

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
        if self._next + items.shape[0] > self._stop:
            raise ContainerFormatError(
                f"block of {items.shape[0]} items from item {self._next}"
                f" runs past item {self._stop}"
            )
        # an ndarray, not a Python float, so the float64 loop runs (NEP 50)
        factor = np.asarray(factor, dtype=np.float64)
        payload, mask = self._block(items.shape)
        with np.errstate(over="ignore"):
            np.multiply(items, factor, out=payload, casting="same_kind")
            if not np.isfinite(payload, out=mask).all():
                # raises, naming the fault of the float64 products
                _f32_payload(np.multiply(items, factor, dtype=np.float64))
        offset = _offset(self.shape, self._next)
        _pwrite_all(self._fd, payload.reshape(-1).view(np.uint8), offset)
        _start_writeback(self._fd, offset, payload.nbytes)
        _, _, h, w = self.shape
        self._next += items.shape[0]
        self.tokens += items.shape[0] * h * w


def _pwrite_all(fd, data, offset) -> None:
    """Write every byte of ``data`` at ``offset``."""
    data = memoryview(data)
    while data.nbytes:
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written


def _start_writeback(fd, offset, nbytes) -> None:
    """Start the write-back of the ``nbytes`` written at ``offset`` without
    waiting for it, so that the disk writes a block while the next ones are
    computed and a later ``fsync`` waits only for the blocks still in
    flight.  On Linux ``POSIX_FADV_DONTNEED`` queues the range's dirty
    pages for writing and drops only pages already clean, which those of a
    block just written mostly are not.  It is a hint: where ``os`` has no
    ``posix_fadvise`` nothing is done, and its errors are ignored.  An
    empty range is skipped, as a length of 0 would name the rest of the
    file."""
    advise = getattr(os, "posix_fadvise", None)
    if advise is None or nbytes == 0:
        return
    with contextlib.suppress(OSError):
        advise(fd, offset, nbytes, os.POSIX_FADV_DONTNEED)


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
    either way.  ``fsync(path)`` flushes a file or a directory to disk; it
    is what makes a temporary durable before its rename, whether or not a
    :class:`BlockWriter` already started its write-back block by block."""
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
        first = 0
        for block in reader.blocks():
            np.copyto(arr[first : first + block.shape[0]], block)
            first += block.shape[0]
    return arr


def token_rows(tensor) -> np.ndarray:
    """Flatten a (n, d, h, w) tensor into per-position tokens of shape
    (n*h*w, d), C-ordered whatever the shape, so each token's coordinates
    are summed in the same order however its container was laid out."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 4:
        raise ContainerFormatError(f"expected a 4-d (n, d, h, w) array, got shape {arr.shape}")
    n, d, h, w = arr.shape
    return np.ascontiguousarray(arr.transpose(0, 2, 3, 1).reshape(n * h * w, d))


def rows_to_tensor(rows, shape) -> np.ndarray:
    """Inverse of :func:`token_rows` for a given (n, d, h, w) shape."""
    n, d, h, w = shape
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape != (n * h * w, d):
        raise ContainerFormatError(
            f"row stack {arr.shape} does not match tensor shape {tuple(shape)}"
        )
    return arr.reshape(n, h, w, d).transpose(0, 3, 1, 2)
