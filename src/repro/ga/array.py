"""Block-distributed global arrays lowered to MPI RMA.

API modelled on Global Arrays / ARMCI essentials:

* ``GlobalArray.create(mpi, name, n)`` — collective creation, 1-D block
  distribution (rank *r* owns a contiguous slice);
* ``ga.get(lo, hi)`` / ``ga.put(lo, hi, values)`` / ``ga.acc(lo, hi,
  values, op)`` — one-sided section access, split per owning rank and
  issued under shared passive-target locks;
* ``ga.read_inc(index)`` — GA's atomic read-and-increment, lowered to the
  MPI-3 ``fetch_and_op``;
* ``ga.sync()`` — collective quiescence point (GA_Sync);
* ``ga.local()`` — direct access to the owned block (a tracked buffer, so
  misuse is visible to MC-Checker exactly like any load/store).

Every lowering is epoch-correct: staging buffers are written before the
epoch opens and read after it closes, so a GA program that only uses this
API is consistency-clean — and one that mixes in unsynchronized
``local()`` accesses produces exactly the paper's Figure 2d defect.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.simmpi import LOCK_SHARED, MPIContext, TrackedBuffer
from repro.simmpi.window import WinHandle
from repro.util.datatypes import Datatype, PRIMITIVES
from repro.util.errors import SimMPIError


class GlobalArray:
    """A 1-D block-distributed array with one-sided section access."""

    def __init__(self, mpi: MPIContext, name: str, total: int,
                 block: TrackedBuffer, win: WinHandle, int_typed: bool):
        self.mpi = mpi
        self.name = name
        self.total = total
        self._block = block
        self._win = win
        self._int_typed = int_typed
        self._stage = mpi.alloc(f"{name}_stage", self._block_size(0),
                                datatype=block.array.dtype)
        self._one = mpi.alloc(f"{name}_one", 1, datatype=block.array.dtype,
                              fill=1)
        self._old = mpi.alloc(f"{name}_old", 1, datatype=block.array.dtype)
        self._destroyed = False

    # ------------------------------------------------------------------
    # creation / distribution
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, mpi: MPIContext, name: str, total: int,
               datatype: str = "DOUBLE", fill: float = 0) -> "GlobalArray":
        """Collective: create a block-distributed array of ``total`` elems."""
        if total < mpi.size:
            raise SimMPIError(
                f"GlobalArray {name!r}: {total} elements cannot be "
                f"distributed over {mpi.size} ranks")
        np_dtype = PRIMITIVES[datatype].numpy_dtype()
        lo, hi = cls._bounds(total, mpi.size, mpi.rank)
        block = mpi.alloc(name, hi - lo, datatype=np_dtype, fill=fill)
        win = mpi.win_create(block)
        ga = cls(mpi, name, total, block, win,
                 int_typed=np.issubdtype(np_dtype, np.integer))
        ga.sync()
        return ga

    @staticmethod
    def _bounds(total: int, size: int, rank: int) -> Tuple[int, int]:
        base, extra = divmod(total, size)
        lo = rank * base + min(rank, extra)
        return lo, lo + base + (1 if rank < extra else 0)

    def _block_size(self, rank: int) -> int:
        lo, hi = self._bounds(self.total, self.mpi.size, rank)
        return hi - lo

    def distribution(self, rank: Optional[int] = None) -> Tuple[int, int]:
        """Global index range owned by ``rank`` (default: mine)."""
        rank = self.mpi.rank if rank is None else rank
        return self._bounds(self.total, self.mpi.size, rank)

    def owner_of(self, index: int) -> int:
        for rank in range(self.mpi.size):
            lo, hi = self._bounds(self.total, self.mpi.size, rank)
            if lo <= index < hi:
                return rank
        raise IndexError(f"index {index} outside GlobalArray of "
                         f"{self.total} elements")

    def _segments(self, lo: int, hi: int):
        """Yield (owner, owner_lo_offset, length, result_offset) chunks."""
        if not 0 <= lo <= hi <= self.total:
            raise IndexError(f"section [{lo}, {hi}) outside GlobalArray "
                             f"of {self.total} elements")
        cursor = lo
        while cursor < hi:
            owner = self.owner_of(cursor)
            olo, ohi = self._bounds(self.total, self.mpi.size, owner)
            length = min(hi, ohi) - cursor
            yield owner, cursor - olo, length, cursor - lo
            cursor += length

    # ------------------------------------------------------------------
    # one-sided section operations
    # ------------------------------------------------------------------

    def get(self, lo: int, hi: int) -> np.ndarray:
        """Fetch the global section ``[lo, hi)`` (NGA_Get)."""
        self._check_live()
        out = np.empty(hi - lo, dtype=self._block.array.dtype)
        for owner, disp, length, off in self._segments(lo, hi):
            self._win.lock(owner, LOCK_SHARED)
            self._win.get(self._stage, target=owner, target_disp=disp,
                          origin_offset=0, origin_count=length)
            self._win.unlock(owner)  # the Get is complete here
            out[off:off + length] = self._stage.read_block(0, length)
        return out

    def put(self, lo: int, hi: int, values) -> None:
        """Write the global section ``[lo, hi)`` (NGA_Put).

        GA semantics: puts to the same section from different ranks
        without an intervening ``sync`` race — and MC-Checker will say so.
        """
        self._check_live()
        values = np.asarray(values, dtype=self._block.array.dtype)
        for owner, disp, length, off in self._segments(lo, hi):
            # stage before the epoch opens: ordered ahead of the Put
            self._stage.write_block(values[off:off + length], offset=0)
            self._win.lock(owner, LOCK_SHARED)
            self._win.put(self._stage, target=owner, target_disp=disp,
                          origin_offset=0, origin_count=length)
            self._win.unlock(owner)  # flushed: the stage is reusable

    def acc(self, lo: int, hi: int, values, op: str = "SUM") -> None:
        """Accumulate into the global section (NGA_Acc); concurrent
        same-op accumulates are legal (Table I's BOTH* cell)."""
        self._check_live()
        values = np.asarray(values, dtype=self._block.array.dtype)
        for owner, disp, length, off in self._segments(lo, hi):
            self._stage.write_block(values[off:off + length], offset=0)
            self._win.lock(owner, LOCK_SHARED)
            self._win.accumulate(self._stage, target=owner, op=op,
                                 target_disp=disp, origin_offset=0,
                                 origin_count=length)
            self._win.unlock(owner)

    def read_inc(self, index: int, inc: int = 1) -> int:
        """GA's atomic read-and-increment (NGA_Read_inc), via MPI-3
        fetch_and_op."""
        self._check_live()
        if not self._int_typed:
            raise SimMPIError("read_inc requires an integer-typed array")
        owner = self.owner_of(index)
        olo, _ohi = self._bounds(self.total, self.mpi.size, owner)
        self._one.store(0, inc)
        self._win.lock(owner, LOCK_SHARED)
        self._win.fetch_and_op(self._one, self._old, target=owner,
                               op="SUM", target_disp=index - olo)
        self._win.unlock(owner)  # fetch complete
        return int(self._old.load(0))

    # ------------------------------------------------------------------
    # local access & lifecycle
    # ------------------------------------------------------------------

    def local(self) -> TrackedBuffer:
        """The owned block.  Accesses are tracked: touching it while
        remote operations are in flight is exactly the Figure 2d bug."""
        return self._block

    def local_read(self, offset: int = 0, count: Optional[int] = None, *,
                   reps: int = 1) -> np.ndarray:
        """Vectorized tracked read of the owned block: one coalesced
        record (``reps`` of them for loop-equivalent re-reads) instead of
        per-element events.  Same consistency semantics as :meth:`local`
        element access — just coarser event granularity."""
        return self._block.read_block(offset, count, reps=reps)

    def local_write(self, values, offset: int = 0) -> None:
        """Vectorized tracked write of the owned block (one record)."""
        self._block.write_block(values, offset)

    def sync(self) -> None:
        """GA_Sync: collective quiescence (all prior ops complete)."""
        self._check_live()
        self.mpi.barrier()

    def to_numpy(self) -> np.ndarray:
        """Collective: gather the full array on every rank."""
        self._check_live()
        self.sync()
        parts = self.mpi.allgather(self._block)
        self.sync()
        return np.concatenate(parts)

    def fill(self, value) -> None:
        """Collective: every rank fills its own block."""
        self._check_live()
        self.sync()
        self._block.write(np.full(len(self._block), value,
                                  dtype=self._block.array.dtype))
        self.sync()

    def destroy(self) -> None:
        """Collective teardown (GA_Destroy)."""
        if not self._destroyed:
            self.sync()
            self._win.free()
            self._destroyed = True

    def _check_live(self) -> None:
        if self._destroyed:
            raise SimMPIError(f"GlobalArray {self.name!r} already destroyed")
