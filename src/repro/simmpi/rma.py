"""Deferred RMA operations and the delivery engine.

MPI one-sided operations are *nonblocking*: issuing ``MPI_Put`` only
requests the transfer, and the bytes may move at any instant up to the
synchronization that closes the epoch.  This gap is the root of every bug
class in the paper (Figure 2), so the simulator models it explicitly:

* each Put/Get/Accumulate becomes an :class:`RMAOp` record;
* the :class:`DeliveryEngine` decides *when* the data movement happens:

  - ``eager``  — at issue time (what most MPIs do for small messages, and
    why the ADLB stack-buffer bug stayed latent for years);
  - ``lazy``   — at epoch close (what Blue Gene/Q did when it ran out of
    eager buffers, which is what finally exposed that bug);
  - ``random`` — a seeded per-op coin flip between the two.

Under ``lazy``, a Put reads its origin buffer at the close of the epoch, so
an application that overwrites the origin buffer after the Put genuinely
transmits corrupted data — the simulator *manifests* the consistency error
that MC-Checker is built to detect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.simmpi.memory import TrackedBuffer
from repro.simmpi.ops import ACCUMULATE_OPS, combine
from repro.util.datatypes import Datatype
from repro.util.errors import SimMPIError

PUT = "put"
GET = "get"
ACC = "acc"
GET_ACC = "get_acc"
CAS = "cas"

EAGER = "eager"
LAZY = "lazy"
RANDOM = "random"

DELIVERY_POLICIES = (EAGER, LAZY, RANDOM)


@dataclass
class RMAOp:
    """One issued one-sided operation, pending or applied."""

    kind: str  # put | get | acc
    win_id: int
    origin_world: int
    target_world: int
    origin_buf: TrackedBuffer
    origin_offset: int  # element offset into origin_buf
    origin_count: int
    origin_dtype: Datatype
    target_disp: int  # in window disp_units
    target_count: int
    target_dtype: Datatype
    op: Optional[str] = None  # accumulate op
    seq: int = 0
    applied: bool = False
    #: MPI-3 fetching operations: where the old target value lands
    result_buf: Optional[TrackedBuffer] = None
    result_offset: int = 0
    #: compare_and_swap: the comparison value
    compare_value: Optional[bytes] = None


class DeliveryEngine:
    """Chooses, per operation, whether to deliver eagerly or lazily."""

    def __init__(self, policy: str = RANDOM, seed: int = 0):
        if policy not in DELIVERY_POLICIES:
            raise SimMPIError(f"unknown delivery policy {policy!r}")
        self.policy = policy
        self._rng = random.Random(seed)
        #: (win_id, origin, seq) entries forced lazy by fault injection.
        self.forced_lazy = set()

    def deliver_eagerly(self, op: RMAOp) -> bool:
        if (op.win_id, op.origin_world, op.seq) in self.forced_lazy:
            return False
        if self.policy == EAGER:
            return True
        if self.policy == LAZY:
            return False
        return self._rng.random() < 0.5


# ----------------------------------------------------------------------
# typed byte movement
# ----------------------------------------------------------------------

def _uniform_runs(byte_offset: int, dtype: Datatype,
                  count: int) -> Optional[np.ndarray]:
    """Start offsets of every ``(rep, segment)`` byte run, when all
    segments share one length; ``None`` for irregular datatypes (which
    take the generic per-segment path)."""
    datamap = dtype.datamap
    if not datamap:
        return None
    length = datamap[0][1]
    if any(seg_len != length for _, seg_len in datamap):
        return None
    disps = np.fromiter((disp for disp, _ in datamap), dtype=np.int64,
                        count=len(datamap))
    origins = byte_offset + np.arange(count, dtype=np.int64) * dtype.extent
    return (origins[:, None] + disps[None, :]).reshape(-1)


def _check_runs(buf: TrackedBuffer, starts: np.ndarray, length: int,
                verb: str) -> None:
    lo = int(starts.min())
    hi = int(starts.max()) + length
    if lo < 0 or hi > buf.nbytes:
        raise SimMPIError(
            f"raw {verb} [{lo}, {hi}) outside buffer {buf.name!r} of "
            f"{buf.nbytes} bytes")


def gather_typed(buf: TrackedBuffer, byte_offset: int, dtype: Datatype,
                 count: int) -> bytes:
    """Collect the bytes selected by ``count`` instances of ``dtype``.

    Data movement is bulk numpy copies, not a Python loop per element:
    contiguous types collapse to one slice, uniform-segment types (e.g.
    ``Type_vector``) to one fancy-indexed copy.
    """
    if count <= 0:
        return b""
    datamap = dtype.datamap
    if len(datamap) == 1:
        disp, length = datamap[0]
        if count == 1:
            return buf.raw_read_bytes(byte_offset + disp, length)
        if disp == 0 and length == dtype.extent:
            return buf.raw_read_bytes(byte_offset, count * length)
    starts = _uniform_runs(byte_offset, dtype, count)
    if starts is not None:
        length = datamap[0][1]
        _check_runs(buf, starts, length, "read")
        idx = starts[:, None] + np.arange(length, dtype=np.int64)
        return buf.raw_bytes_view()[idx].tobytes()
    out = bytearray()
    for rep in range(count):
        origin = byte_offset + rep * dtype.extent
        for disp, length in datamap:
            out += buf.raw_read_bytes(origin + disp, length)
    return bytes(out)


def scatter_typed(buf: TrackedBuffer, byte_offset: int, dtype: Datatype,
                  count: int, data: bytes) -> None:
    """Distribute a packed byte stream into the datatype's segments."""
    total = count * dtype.size
    datamap = dtype.datamap
    if len(datamap) == 1:
        disp, length = datamap[0]
        if count == 1 or (disp == 0 and length == dtype.extent):
            if total != len(data):
                raise SimMPIError(
                    f"typed scatter consumed {total} of {len(data)} bytes")
            buf.raw_write_bytes(byte_offset + (disp if count == 1 else 0),
                                data)
            return
    starts = _uniform_runs(byte_offset, dtype, count) if count > 0 else None
    if starts is not None:
        if total != len(data):
            raise SimMPIError(
                f"typed scatter consumed {total} of {len(data)} bytes")
        length = datamap[0][1]
        _check_runs(buf, starts, length, "write")
        idx = starts[:, None] + np.arange(length, dtype=np.int64)
        buf.raw_bytes_view()[idx] = np.frombuffer(
            data, dtype=np.uint8).reshape(len(starts), length)
        return
    cursor = 0
    for rep in range(count):
        origin = byte_offset + rep * dtype.extent
        for disp, length in datamap:
            buf.raw_write_bytes(origin + disp, data[cursor:cursor + length])
            cursor += length
    if cursor != len(data):
        raise SimMPIError(
            f"typed scatter consumed {cursor} of {len(data)} bytes")


def apply_rma(op: RMAOp, target_buf: TrackedBuffer, disp_unit: int) -> None:
    """Perform the data movement of a (possibly deferred) RMA operation.

    Crucially, the *origin buffer is read (put/acc) or written (get) now*,
    not at issue time — deferred application therefore observes any
    intervening application stores, which is exactly the undefined behaviour
    window the paper's compatibility rules exist to flag.
    """
    if op.applied:
        return
    op.applied = True
    origin_byte = op.origin_offset * op.origin_buf.itemsize
    target_byte = op.target_disp * disp_unit

    nbytes = op.origin_count * op.origin_dtype.size
    tbytes = op.target_count * op.target_dtype.size
    if nbytes != tbytes:
        raise SimMPIError(
            f"{op.kind}: origin transfers {nbytes} bytes but target "
            f"signature describes {tbytes}")

    if op.kind == PUT:
        data = gather_typed(op.origin_buf, origin_byte, op.origin_dtype,
                            op.origin_count)
        scatter_typed(target_buf, target_byte, op.target_dtype,
                      op.target_count, data)
    elif op.kind == GET:
        data = gather_typed(target_buf, target_byte, op.target_dtype,
                            op.target_count)
        scatter_typed(op.origin_buf, origin_byte, op.origin_dtype,
                      op.origin_count, data)
    elif op.kind == ACC:
        if op.op not in ACCUMULATE_OPS:
            raise SimMPIError(f"accumulate: invalid op {op.op!r}")
        if op.origin_dtype.base is None or op.target_dtype.base is None:
            raise SimMPIError(
                "accumulate requires datatypes with a unique primitive base")
        if op.origin_dtype.base != op.target_dtype.base:
            raise SimMPIError(
                f"accumulate: origin base {op.origin_dtype.base} != "
                f"target base {op.target_dtype.base}")
        np_dtype = op.origin_dtype.numpy_dtype()
        update = np.frombuffer(
            gather_typed(op.origin_buf, origin_byte, op.origin_dtype,
                         op.origin_count), dtype=np_dtype)
        current = np.frombuffer(
            gather_typed(target_buf, target_byte, op.target_dtype,
                         op.target_count), dtype=np_dtype)
        merged = combine(op.op, current.copy(), update)
        scatter_typed(target_buf, target_byte, op.target_dtype,
                      op.target_count,
                      np.ascontiguousarray(merged, dtype=np_dtype).tobytes())
    elif op.kind == GET_ACC:
        # MPI-3 MPI_Get_accumulate / MPI_Fetch_and_op: atomically fetch the
        # old target value into the result buffer and fold the origin in
        if op.op not in ACCUMULATE_OPS:
            raise SimMPIError(f"get_accumulate: invalid op {op.op!r}")
        np_dtype = op.origin_dtype.numpy_dtype()
        old = gather_typed(target_buf, target_byte, op.target_dtype,
                           op.target_count)
        scatter_typed(op.result_buf,
                      op.result_offset * op.result_buf.itemsize,
                      op.target_dtype, op.target_count, old)
        update = np.frombuffer(
            gather_typed(op.origin_buf, origin_byte, op.origin_dtype,
                         op.origin_count), dtype=np_dtype)
        current = np.frombuffer(old, dtype=np_dtype)
        merged = combine(op.op, current.copy(), update)
        scatter_typed(target_buf, target_byte, op.target_dtype,
                      op.target_count,
                      np.ascontiguousarray(merged, dtype=np_dtype).tobytes())
    elif op.kind == CAS:
        old = gather_typed(target_buf, target_byte, op.target_dtype, 1)
        scatter_typed(op.result_buf,
                      op.result_offset * op.result_buf.itemsize,
                      op.target_dtype, 1, old)
        if old == op.compare_value:
            new = gather_typed(op.origin_buf, origin_byte,
                               op.origin_dtype, 1)
            scatter_typed(target_buf, target_byte, op.target_dtype, 1, new)
    else:  # pragma: no cover - construction is validated upstream
        raise SimMPIError(f"unknown RMA op kind {op.kind!r}")
