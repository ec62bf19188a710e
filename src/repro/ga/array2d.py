"""2-D block-row-distributed global arrays with strided section access.

The interesting part relative to the 1-D case: a 2-D section touches a
*strided* set of bytes in the owner's window, which is exactly what MPI
derived datatypes describe.  Section operations here build
``Type_vector(nrows, section_width, row_width)`` target datatypes, so the
whole data-map pipeline — runtime lowering, trace replay in DN-Analyzer's
preprocessing, interval computation for conflict detection — is exercised
with non-contiguous layouts: two sections that share rows but use disjoint
column ranges do NOT conflict, byte-for-byte, and MC-Checker agrees.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.simmpi import LOCK_SHARED, MPIContext, TrackedBuffer
from repro.simmpi.window import WinHandle
from repro.util.datatypes import Datatype, PRIMITIVES
from repro.util.errors import SimMPIError


class GlobalArray2D:
    """A (rows x cols) array distributed by contiguous row blocks."""

    def __init__(self, mpi: MPIContext, name: str, rows: int, cols: int,
                 block: TrackedBuffer, win: WinHandle, base: Datatype):
        self.mpi = mpi
        self.name = name
        self.rows = rows
        self.cols = cols
        self._block = block
        self._win = win
        self._base = base
        row_capacity = self._row_bounds(0)[1]  # rank 0 holds the most rows
        self._stage = mpi.alloc(f"{name}_stage", row_capacity * cols,
                                datatype=block.array.dtype)
        self._section_types: Dict[Tuple[int, int], Datatype] = {}
        self._destroyed = False

    # ------------------------------------------------------------------

    @classmethod
    def create(cls, mpi: MPIContext, name: str, rows: int, cols: int,
               datatype: str = "DOUBLE", fill: float = 0) -> "GlobalArray2D":
        if rows < mpi.size:
            raise SimMPIError(
                f"GlobalArray2D {name!r}: {rows} rows cannot be "
                f"distributed over {mpi.size} ranks")
        base = PRIMITIVES[datatype]
        lo, hi = cls._bounds(rows, mpi.size, mpi.rank)
        block = mpi.alloc(name, (hi - lo) * cols,
                          datatype=base.numpy_dtype(), fill=fill)
        win = mpi.win_create(block, disp_unit=base.size)
        ga = cls(mpi, name, rows, cols, block, win, base)
        ga.sync()
        return ga

    @staticmethod
    def _bounds(rows: int, size: int, rank: int) -> Tuple[int, int]:
        base, extra = divmod(rows, size)
        lo = rank * base + min(rank, extra)
        return lo, lo + base + (1 if rank < extra else 0)

    def _row_bounds(self, rank: int) -> Tuple[int, int]:
        return self._bounds(self.rows, self.mpi.size, rank)

    def distribution(self, rank: Optional[int] = None) -> Tuple[int, int]:
        """Owned row range of ``rank`` (default: mine)."""
        rank = self.mpi.rank if rank is None else rank
        return self._row_bounds(rank)

    def _row_segments(self, rlo: int, rhi: int):
        """Yield (owner, local_row_lo, nrows, result_row_offset)."""
        if not (0 <= rlo <= rhi <= self.rows):
            raise IndexError(f"rows [{rlo}, {rhi}) outside array of "
                             f"{self.rows} rows")
        cursor = rlo
        while cursor < rhi:
            for owner in range(self.mpi.size):
                olo, ohi = self._row_bounds(owner)
                if olo <= cursor < ohi:
                    break
            nrows = min(rhi, ohi) - cursor
            yield owner, cursor - olo, nrows, cursor - rlo
            cursor += nrows

    def _section_type(self, nrows: int, width: int) -> Datatype:
        """Strided datatype selecting an (nrows x width) sub-block."""
        if width == self.cols:
            key = (nrows * self.cols, 0)  # fully contiguous: plain rows
        else:
            key = (nrows, width)
        dtype = self._section_types.get(key)
        if dtype is None:
            if width == self.cols:
                dtype = self.mpi.type_contiguous(nrows * self.cols,
                                                 self._base)
            else:
                dtype = self.mpi.type_vector(nrows, width, self.cols,
                                             self._base)
            self._section_types[key] = dtype
        return dtype

    def _check_section(self, clo: int, chi: int) -> None:
        if not (0 <= clo < chi <= self.cols):
            raise IndexError(f"columns [{clo}, {chi}) outside array of "
                             f"{self.cols} columns")

    # ------------------------------------------------------------------
    # strided section operations
    # ------------------------------------------------------------------

    def get(self, rlo: int, rhi: int, clo: int, chi: int) -> np.ndarray:
        """Fetch the 2-D section as an (rhi-rlo, chi-clo) array."""
        self._check_live()
        self._check_section(clo, chi)
        width = chi - clo
        out = np.empty((rhi - rlo, width), dtype=self._block.array.dtype)
        for owner, local_row, nrows, row_off in self._row_segments(rlo, rhi):
            section = self._section_type(nrows, width)
            self._win.lock(owner, LOCK_SHARED)
            self._win.get(self._stage, target=owner,
                          target_disp=local_row * self.cols + clo,
                          origin_count=nrows * width,
                          target_count=1, target_dtype=section)
            self._win.unlock(owner)
            out[row_off:row_off + nrows] = \
                self._stage.read_block(0, nrows * width).reshape(nrows, width)
        return out

    def put(self, rlo: int, rhi: int, clo: int, chi: int, values) -> None:
        """Write a 2-D section."""
        self._check_live()
        self._check_section(clo, chi)
        width = chi - clo
        values = np.asarray(values,
                            dtype=self._block.array.dtype).reshape(
            rhi - rlo, width)
        for owner, local_row, nrows, row_off in self._row_segments(rlo, rhi):
            section = self._section_type(nrows, width)
            self._stage.write_block(
                values[row_off:row_off + nrows].reshape(-1), offset=0)
            self._win.lock(owner, LOCK_SHARED)
            self._win.put(self._stage, target=owner,
                          target_disp=local_row * self.cols + clo,
                          origin_count=nrows * width,
                          target_count=1, target_dtype=section)
            self._win.unlock(owner)

    def acc(self, rlo: int, rhi: int, clo: int, chi: int, values,
            op: str = "SUM") -> None:
        """Accumulate into a 2-D section."""
        self._check_live()
        self._check_section(clo, chi)
        width = chi - clo
        values = np.asarray(values,
                            dtype=self._block.array.dtype).reshape(
            rhi - rlo, width)
        for owner, local_row, nrows, row_off in self._row_segments(rlo, rhi):
            section = self._section_type(nrows, width)
            self._stage.write_block(
                values[row_off:row_off + nrows].reshape(-1), offset=0)
            self._win.lock(owner, LOCK_SHARED)
            self._win.accumulate(self._stage, target=owner, op=op,
                                 target_disp=local_row * self.cols + clo,
                                 origin_count=nrows * width,
                                 target_count=1, target_dtype=section)
            self._win.unlock(owner)

    # ------------------------------------------------------------------
    # local access & lifecycle
    # ------------------------------------------------------------------

    def local(self) -> TrackedBuffer:
        """My row block (row-major flattened), with tracked accesses —
        misuse is visible to MC-Checker like any load/store."""
        return self._block

    def set_local(self, values) -> None:
        """Tracked write of the whole owned block from a 2-D array."""
        lo, hi = self._row_bounds(self.mpi.rank)
        values = np.asarray(values, dtype=self._block.array.dtype)
        self._block.write_block(values.reshape((hi - lo) * self.cols))

    def local_section(self, rlo: int, rhi: int, clo: int, chi: int
                      ) -> np.ndarray:
        """Tracked strided read of a 2-D section of *owned* rows: one
        columnar record covering every row run, instead of one event per
        row.  Rows must lie within this rank's block."""
        lo, hi = self._row_bounds(self.mpi.rank)
        self._check_section(clo, chi)
        if not (lo <= rlo <= rhi <= hi):
            raise IndexError(
                f"rows [{rlo}, {rhi}) outside local block [{lo}, {hi}) of "
                f"GlobalArray2D {self.name!r}")
        return self._block.read_rows((rlo - lo) * self.cols + clo,
                                     chi - clo, rhi - rlo, self.cols)

    def set_local_section(self, rlo: int, rhi: int, clo: int, chi: int,
                          values) -> None:
        """Tracked strided write of a 2-D section of owned rows (one
        columnar record) — the store-side dual of :meth:`local_section`."""
        lo, hi = self._row_bounds(self.mpi.rank)
        self._check_section(clo, chi)
        if not (lo <= rlo <= rhi <= hi):
            raise IndexError(
                f"rows [{rlo}, {rhi}) outside local block [{lo}, {hi}) of "
                f"GlobalArray2D {self.name!r}")
        values = np.asarray(values, dtype=self._block.array.dtype).reshape(
            rhi - rlo, chi - clo)
        self._block.write_rows(values, (rlo - lo) * self.cols + clo,
                               self.cols)

    def local_view(self) -> np.ndarray:
        """Raw 2-D numpy view of the owned block.  Accesses through this
        view bypass tracking (useful for verification plumbing, invisible
        to MC-Checker — the aliasing false-negative of paper section V)."""
        lo, hi = self._row_bounds(self.mpi.rank)
        return self._block.raw_elements().reshape(hi - lo, self.cols)

    def sync(self) -> None:
        self._check_live()
        self.mpi.barrier()

    def to_numpy(self) -> np.ndarray:
        self._check_live()
        self.sync()
        parts = self.mpi.allgather(self._block)
        self.sync()
        return np.concatenate([p.reshape(-1, self.cols) for p in parts])

    def destroy(self) -> None:
        if not self._destroyed:
            self.sync()
            self._win.free()
            self._destroyed = True

    def _check_live(self) -> None:
        if self._destroyed:
            raise SimMPIError(
                f"GlobalArray2D {self.name!r} already destroyed")
