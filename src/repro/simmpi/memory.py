"""Per-rank virtual memory: address spaces and load/store-tracked buffers.

The paper's Profiler instruments CPU load/store instructions selected by
ST-Analyzer (sections IV-A/IV-B).  Python has no load/store instructions to
instrument, so the substitute is :class:`TrackedBuffer`: a numpy-backed
buffer whose element reads and writes reach one block hook carrying a
*virtual address*, a byte size, a count and a stride — an element or a
slice is a block of one.  Addresses are allocated from a
per-rank :class:`AddressSpace`, so all downstream overlap logic (window
containment, conflict intervals) is byte-accurate, exactly as with real
addresses.

Two access paths exist deliberately:

* the *semantic* path (``buf[i]``, ``buf.load``, ``buf.store``, typed
  slicing) — these are the application's loads/stores and emit events when
  the buffer is instrumented;
* the *raw* path (``buf.raw_read_bytes`` / ``raw_write_bytes``) — used by
  the runtime itself to move message and RMA payloads.  Runtime data
  movement is represented in traces by the MPI call events, never by
  synthetic load/store events, matching the paper's PMPI-level view.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.util.errors import SimMPIError

#: Hook signature: (kind, buffer, byte_addr, byte_size, count,
#: byte_stride) -> None, with kind one of ``"load"`` or ``"store"``.  One
#: call describes ``count`` accesses of ``byte_size`` bytes each, access
#: *i* at ``byte_addr + i * byte_stride``; a stride of 0 means the same
#: bytes are touched ``count`` times (a loop re-reading one slice).  An
#: element or slice access is a block of one (``count=1, stride=0``); a
#: vectorized access reaches the profiler as one call, not ``count``.
BlockHook = Callable[[str, "TrackedBuffer", int, int, int, int], None]

_ALLOC_BASE = 0x1000
_ALIGN = 64


class AddressSpace:
    """A per-rank virtual address allocator (bump pointer, never freed).

    Buffers from different ranks may receive equal addresses — that is
    fine and realistic: conflict analysis always pairs an address with the
    rank that issued the access.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._next = _ALLOC_BASE

    def allocate(self, nbytes: int, align: int = _ALIGN) -> int:
        if nbytes < 0:
            raise ValueError(f"negative allocation size {nbytes}")
        addr = -(-self._next // align) * align
        self._next = addr + nbytes
        return addr


class TrackedBuffer:
    """A 1-D typed buffer whose element accesses can be traced.

    Parameters
    ----------
    space:
        The owning rank's :class:`AddressSpace`.
    name:
        The source-level variable name; ST-Analyzer reports are keyed by
        these names, and the profiler flips :attr:`instrumented` for the
        buffers whose names appear in the report.
    count:
        Number of elements.
    np_dtype:
        Element type (a numpy dtype).
    """

    __slots__ = ("name", "base", "array", "itemsize", "rank",
                 "instrumented", "_block_hook")

    def __init__(self, space: AddressSpace, name: str, count: int,
                 np_dtype: Union[str, np.dtype] = np.float64,
                 fill: Optional[float] = 0):
        dtype = np.dtype(np_dtype)
        self.name = name
        self.rank = space.rank
        self.itemsize = dtype.itemsize
        self.base = space.allocate(count * dtype.itemsize)
        if fill is None:
            self.array = np.empty(count, dtype=dtype)
        else:
            self.array = np.full(count, fill, dtype=dtype)
        self.instrumented = False
        self._block_hook: Optional[BlockHook] = None

    # ------------------------------------------------------------------
    # hook management (profiler attach/detach)
    # ------------------------------------------------------------------

    def set_block_hook(self, hook: Optional[BlockHook]) -> None:
        self._block_hook = hook

    @property
    def count(self) -> int:
        return int(self.array.size)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def addr_of(self, index: int) -> int:
        return self.base + index * self.itemsize

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TrackedBuffer({self.name!r}, rank={self.rank}, "
                f"base={self.base:#x}, count={self.count})")

    # ------------------------------------------------------------------
    # semantic (application) accesses — these are the "loads/stores"
    # ------------------------------------------------------------------

    def _emit(self, kind: str, index: int, nelems: int) -> None:
        self._emit_block(kind, index, nelems, 1, 0)

    def _emit_block(self, kind: str, index: int, nelems: int,
                    nrows: int, row_stride: int) -> None:
        """Record ``nrows`` accesses of ``nelems`` elements, row *i* at
        element index ``index + i * row_stride``, as one hook call."""
        if (not self.instrumented or self._block_hook is None
                or nrows <= 0 or nelems <= 0):
            return
        self._block_hook(kind, self, self.addr_of(index),
                         nelems * self.itemsize, nrows,
                         row_stride * self.itemsize)

    def _resolve(self, key: Union[int, slice]):
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise SimMPIError(
                    f"TrackedBuffer {self.name!r} slices must be contiguous "
                    f"(step 1), got step {key.step!r}; use read_rows/"
                    f"write_rows for strided access")
            start = self._resolve_endpoint(key.start, 0, key)
            stop = self._resolve_endpoint(key.stop, self.count, key)
            return start, max(0, stop - start)
        index = int(key)
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError(f"index {key} out of range for {self!r}")
        return index, 1

    def _resolve_endpoint(self, value, default: int, key: slice) -> int:
        # Unlike Python sequences, an out-of-range endpoint raises instead
        # of clamping: a simulated application indexing past a buffer is a
        # bug worth surfacing, not an access worth silently shrinking.
        if value is None:
            return default
        endpoint = int(value)
        if endpoint < 0:
            endpoint += self.count
        if not 0 <= endpoint <= self.count:
            raise IndexError(
                f"slice [{key.start!r}:{key.stop!r}] out of range for "
                f"{self!r}")
        return endpoint

    def __getitem__(self, key):
        index, nelems = self._resolve(key)
        self._emit("load", index, nelems)
        if isinstance(key, slice):
            return self.array[index:index + nelems].copy()
        return self.array[index].item()

    def __setitem__(self, key, value) -> None:
        index, nelems = self._resolve(key)
        self._emit("store", index, nelems)
        if isinstance(key, slice):
            self.array[index:index + nelems] = value
        else:
            self.array[index] = value

    def load(self, index: int):
        """Explicit load of one element (alias of ``buf[index]``)."""
        return self[index]

    def store(self, index: int, value) -> None:
        """Explicit store of one element (alias of ``buf[index] = value``)."""
        self[index] = value

    def read(self, offset: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Load ``count`` elements starting at ``offset`` (copy)."""
        count = self.count - offset if count is None else count
        return self[offset:offset + count]

    def write(self, values, offset: int = 0) -> None:
        """Store an element sequence starting at ``offset``."""
        values = np.asarray(values, dtype=self.array.dtype)
        self[offset:offset + values.size] = values

    # ------------------------------------------------------------------
    # vectorized accesses — one columnar record instead of N events
    # ------------------------------------------------------------------

    def _check_span(self, what: str, offset: int, nelems: int,
                    nrows: int = 1, row_stride: int = 0) -> None:
        if nelems < 0 or nrows < 0:
            raise SimMPIError(
                f"{what} on {self.name!r}: negative extent "
                f"(count={nelems}, rows={nrows})")
        if row_stride < 0:
            raise SimMPIError(
                f"{what} on {self.name!r}: negative stride {row_stride}")
        if nrows == 0 or nelems == 0:
            return
        last = offset + (nrows - 1) * row_stride + nelems
        if offset < 0 or last > self.count:
            raise IndexError(
                f"{what} [{offset}, {last}) out of range for {self!r}")

    def read_block(self, offset: int = 0, count: Optional[int] = None, *,
                   reps: int = 1) -> np.ndarray:
        """Load ``count`` elements at ``offset``, emitting ``reps`` access
        records for the same bytes.

        ``reps > 1`` is the vectorized form of a loop that re-reads one
        slice ``reps`` times: the data is copied once, but every semantic
        read the loop would have issued still appears in the trace.
        """
        count = self.count - offset if count is None else count
        self._check_span("read_block", offset, count, reps, 0)
        self._emit_block("load", offset, count, reps, 0)
        return self.array[offset:offset + count].copy()

    def write_block(self, values, offset: int = 0, *, reps: int = 1) -> None:
        """Store an element sequence, emitting ``reps`` access records."""
        values = np.asarray(values, dtype=self.array.dtype).reshape(-1)
        self._check_span("write_block", offset, values.size, reps, 0)
        self._emit_block("store", offset, values.size, reps, 0)
        if values.size:
            self.array[offset:offset + values.size] = values

    def read_rows(self, offset: int, width: int, nrows: int,
                  row_stride: int) -> np.ndarray:
        """Load ``nrows`` runs of ``width`` elements, run *i* starting at
        element ``offset + i * row_stride`` — one strided columnar record
        instead of ``nrows`` slice events.  Returns a ``(nrows, width)``
        copy.
        """
        self._check_span("read_rows", offset, width, nrows, row_stride)
        self._emit_block("load", offset, width, nrows, row_stride)
        if nrows == 0 or width == 0:
            return np.empty((nrows, width), dtype=self.array.dtype)
        view = np.lib.stride_tricks.as_strided(
            self.array[offset:], shape=(nrows, width),
            strides=(row_stride * self.itemsize, self.itemsize))
        return view.copy()

    def write_rows(self, values, offset: int, row_stride: int) -> None:
        """Store a ``(nrows, width)`` array strided across the buffer —
        the store-side counterpart of :meth:`read_rows`."""
        values = np.asarray(values, dtype=self.array.dtype)
        if values.ndim != 2:
            raise SimMPIError(
                f"write_rows on {self.name!r}: expected a 2-D array, got "
                f"shape {values.shape}")
        nrows, width = values.shape
        self._check_span("write_rows", offset, width, nrows, row_stride)
        self._emit_block("store", offset, width, nrows, row_stride)
        if nrows == 0 or width == 0:
            return
        view = np.lib.stride_tricks.as_strided(
            self.array[offset:], shape=(nrows, width),
            strides=(row_stride * self.itemsize, self.itemsize))
        view[:] = values

    # ------------------------------------------------------------------
    # raw (runtime) accesses — no load/store events
    # ------------------------------------------------------------------

    def raw_bytes_view(self) -> np.ndarray:
        return self.array.view(np.uint8)

    def raw_read_bytes(self, byte_offset: int, nbytes: int) -> bytes:
        if byte_offset < 0 or byte_offset + nbytes > self.nbytes:
            raise SimMPIError(
                f"raw read [{byte_offset}, {byte_offset + nbytes}) outside "
                f"buffer {self.name!r} of {self.nbytes} bytes")
        return self.raw_bytes_view()[byte_offset:byte_offset + nbytes].tobytes()

    def raw_write_bytes(self, byte_offset: int, data: bytes) -> None:
        if byte_offset < 0 or byte_offset + len(data) > self.nbytes:
            raise SimMPIError(
                f"raw write [{byte_offset}, {byte_offset + len(data)}) outside "
                f"buffer {self.name!r} of {self.nbytes} bytes")
        self.raw_bytes_view()[byte_offset:byte_offset + len(data)] = \
            np.frombuffer(data, dtype=np.uint8)

    def raw_elements(self) -> np.ndarray:
        """Direct ndarray access for runtime-internal arithmetic."""
        return self.array
