"""RMA windows: creation, epochs (fence / lock / PSCW), and one-sided calls.

A :class:`Window` is the collective object shared by all ranks of the
window's communicator (per-rank exposure buffers, lock table, PSCW state).
Each rank holds a :class:`WinHandle`, which carries that rank's epoch state
and pending (deferred) operations.

Epoch rules enforced (MPI-2.2):

* ``put``/``get``/``accumulate`` require an open epoch covering the target:
  an active fence epoch, a held lock on the target, or a PSCW access epoch
  whose group contains the target — otherwise :class:`RMAUsageError`.
* ``fence`` flushes all pending operations, then synchronizes the
  communicator (it is both a consistency and a synchronization point).
* ``unlock``/``complete`` flush the operations of the closing epoch.

The *memory consistency* rules (which concurrent combinations are legal)
are deliberately NOT enforced here — applications with consistency bugs
must run so MC-Checker can catch them.  The simulator only rejects
structurally invalid usage, the role the paper assigns to the MPI
implementation or Marmot (section V).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.simmpi.comm import Comm
from repro.simmpi.group import Group
from repro.simmpi.memory import TrackedBuffer
from repro.simmpi.rma import ACC, CAS, GET, GET_ACC, PUT, RMAOp, apply_rma
from repro.util.datatypes import Datatype
from repro.util.errors import RMAUsageError, SimMPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.runtime import MPIContext

LOCK_EXCLUSIVE = "exclusive"
LOCK_SHARED = "shared"


@dataclass
class _Exposure:
    """One PSCW exposure epoch at a target (post .. wait)."""

    origins: Set[int]
    completed: Set[int] = field(default_factory=set)
    started: Set[int] = field(default_factory=set)


class Window:
    """Shared (collective) window state across the communicator."""

    def __init__(self, win_id: int, comm: Comm):
        self.win_id = win_id
        self.comm = comm
        self.buffers: Dict[int, Optional[TrackedBuffer]] = {}
        self.disp_units: Dict[int, int] = {}
        # target world rank -> {origin world rank: lock type}, and how
        # many of those hold it exclusively (an origin holds at most one
        # lock per target: WinHandle.lock / lock_all refuse a second)
        self.lock_holders: Dict[int, Dict[int, str]] = {}
        self._exclusive: Counter = Counter()
        # target world rank -> active exposure epoch
        self.exposures: Dict[int, Optional[_Exposure]] = {}
        self.freed = False

    def buffer_of(self, world_rank: int) -> TrackedBuffer:
        buf = self.buffers.get(world_rank)
        if buf is None:
            raise RMAUsageError(
                f"window {self.win_id}: rank {world_rank} exposes no memory")
        return buf

    # -- lock table ----------------------------------------------------

    def lock_grantable(self, target: int, lock_type: str) -> bool:
        if lock_type == LOCK_EXCLUSIVE:
            return not self.lock_holders.get(target)
        return not self._exclusive[target]

    def grant_lock(self, target: int, origin: int, lock_type: str) -> None:
        self.lock_holders.setdefault(target, {})[origin] = lock_type
        if lock_type == LOCK_EXCLUSIVE:
            self._exclusive[target] += 1

    def release_lock(self, target: int, origin: int) -> None:
        lock_type = self.lock_holders.get(target, {}).pop(origin, None)
        if lock_type is None:
            raise RMAUsageError(
                f"window {self.win_id}: rank {origin} unlocked target "
                f"{target} without holding a lock")
        if lock_type == LOCK_EXCLUSIVE:
            self._exclusive[target] -= 1


class RMARequest:
    """Handle for a request-based RMA operation (MPI-3 Rput/Rget/Racc)."""

    def __init__(self, handle: "WinHandle", op: RMAOp, req_id: int):
        self._handle = handle
        self._op = op
        self.req_id = req_id
        self.complete = False

    def wait(self) -> None:
        """MPI_Wait on the request: the operation is complete afterwards
        (its buffers are safe to reuse / read)."""
        handle = self._handle
        handle.ctx._yield_and_emit(
            "Rma_wait", {"win": handle.win_id, "req": self.req_id,
                         "target": self._op.target_world})
        if not self.complete:
            handle._complete_request(self._op)
            self.complete = True

    def test(self) -> bool:
        """MPI_Test: nonblocking completion check (completes it here,
        since the simulator can always make progress)."""
        if not self.complete:
            self.wait()
        return True


class WinHandle:
    """Per-rank view of a window: epoch state plus deferred operations."""

    def __init__(self, window: Window, ctx: "MPIContext"):
        self.window = window
        self.ctx = ctx
        self.rank = ctx.rank  # world rank
        self.fence_epoch_open = False
        self.lock_epochs: Dict[int, str] = {}  # target -> lock type
        self.access_group: Optional[Group] = None  # PSCW start..complete
        self.exposure_posted = False
        self._pending: Dict[int, List[RMAOp]] = {}
        self._op_seq = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def win_id(self) -> int:
        return self.window.win_id

    @property
    def comm(self) -> Comm:
        return self.window.comm

    @property
    def local_buffer(self) -> Optional[TrackedBuffer]:
        return self.window.buffers.get(self.rank)

    def pending_ops(self, target: Optional[int] = None) -> List[RMAOp]:
        if target is None:
            return [op for ops in self._pending.values() for op in ops]
        return list(self._pending.get(target, ()))

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.window.freed:
            raise RMAUsageError(f"window {self.win_id} already freed")

    def _epoch_covers(self, target: int) -> bool:
        if self.fence_epoch_open:
            return True
        if target in self.lock_epochs:
            return True
        if self.access_group is not None and target in self.access_group:
            return True
        return False

    def _target_world(self, target_comm_rank: int) -> int:
        world = self.comm.world_of_rank(target_comm_rank)
        return world

    def _flush(self, target: Optional[int] = None) -> None:
        """Apply all deferred operations (optionally to one target)."""
        targets = [target] if target is not None else sorted(self._pending)
        moved = False
        for t in targets:
            for op in self._pending.pop(t, ()):  # issue order preserved
                apply_rma(op, self.window.buffer_of(t),
                          self.window.disp_units[t])
                moved = True
        if moved:
            self.ctx.world.scheduler.register_progress()

    def _issue(self, kind: str, origin_buf: TrackedBuffer, origin_offset: int,
               origin_count: int, origin_dtype: Datatype,
               target: int, target_disp: int, target_count: int,
               target_dtype: Datatype, op: Optional[str],
               result_buf: Optional[TrackedBuffer] = None,
               result_offset: int = 0,
               compare_value: Optional[bytes] = None) -> RMAOp:
        """Issue one op whose origin buffer was checked and whose
        datatype and count defaults were resolved by :meth:`_call_args`."""
        self._check_open()
        target_world = self._target_world(target)
        if not self._epoch_covers(target_world):
            raise RMAUsageError(
                f"rank {self.rank}: {kind} to target {target} on window "
                f"{self.win_id} outside any access epoch")
        rma_op = RMAOp(
            kind=kind, win_id=self.win_id,
            origin_world=self.rank, target_world=target_world,
            origin_buf=origin_buf, origin_offset=origin_offset,
            origin_count=origin_count, origin_dtype=origin_dtype,
            target_disp=target_disp, target_count=target_count,
            target_dtype=target_dtype, op=op, seq=self._op_seq,
            result_buf=result_buf, result_offset=result_offset,
            compare_value=compare_value)
        self._op_seq += 1
        # validate target range eagerly so usage errors surface at issue
        tbuf = self.window.buffer_of(target_world)
        disp_unit = self.window.disp_units[target_world]
        span = target_dtype.intervals(target_disp * disp_unit, target_count)
        if span and span.bounds().stop > tbuf.nbytes:
            raise RMAUsageError(
                f"{kind}: target access [{span.bounds().start}, "
                f"{span.bounds().stop}) exceeds window size {tbuf.nbytes} "
                f"at rank {target_world}")
        if self.ctx.world.delivery.deliver_eagerly(rma_op):
            apply_rma(rma_op, tbuf, disp_unit)
            self.ctx.world.scheduler.register_progress()
        else:
            self._pending.setdefault(target_world, []).append(rma_op)
        return rma_op

    # ------------------------------------------------------------------
    # one-sided communication calls
    # ------------------------------------------------------------------

    def put(self, origin_buf: TrackedBuffer, target: int, target_disp: int = 0,
            origin_offset: int = 0, origin_count: Optional[int] = None,
            origin_dtype: Optional[Datatype] = None,
            target_count: Optional[int] = None,
            target_dtype: Optional[Datatype] = None) -> RMAOp:
        """MPI_Put: transfer origin elements into the target window."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        self.ctx._yield_and_emit("Put", args)
        return self._issue(PUT, origin_buf, origin_offset, origin_count,
                           origin_dtype, target, target_disp, target_count,
                           target_dtype, None)

    def get(self, origin_buf: TrackedBuffer, target: int, target_disp: int = 0,
            origin_offset: int = 0, origin_count: Optional[int] = None,
            origin_dtype: Optional[Datatype] = None,
            target_count: Optional[int] = None,
            target_dtype: Optional[Datatype] = None) -> RMAOp:
        """MPI_Get: transfer target window contents into the origin buffer."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        self.ctx._yield_and_emit("Get", args)
        return self._issue(GET, origin_buf, origin_offset, origin_count,
                           origin_dtype, target, target_disp, target_count,
                           target_dtype, None)

    def accumulate(self, origin_buf: TrackedBuffer, target: int, op: str,
                   target_disp: int = 0, origin_offset: int = 0,
                   origin_count: Optional[int] = None,
                   origin_dtype: Optional[Datatype] = None,
                   target_count: Optional[int] = None,
                   target_dtype: Optional[Datatype] = None) -> RMAOp:
        """MPI_Accumulate: combine origin elements into the target window."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        args["op"] = op
        self.ctx._yield_and_emit("Accumulate", args)
        return self._issue(ACC, origin_buf, origin_offset, origin_count,
                           origin_dtype, target, target_disp, target_count,
                           target_dtype, op)

    # ------------------------------------------------------------------
    # MPI-3 one-sided extensions (paper section V: the techniques extend
    # to the MPI-3 model; these calls exercise that claim)
    # ------------------------------------------------------------------

    def rput(self, origin_buf: TrackedBuffer, target: int,
             target_disp: int = 0, origin_offset: int = 0,
             origin_count: Optional[int] = None,
             origin_dtype: Optional[Datatype] = None,
             target_count: Optional[int] = None,
             target_dtype: Optional[Datatype] = None) -> "RMARequest":
        """MPI-3 MPI_Rput: a Put with per-operation completion."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        req_id = self._fresh_req_id()
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        args["req"] = req_id
        self.ctx._yield_and_emit("Rput", args)
        op = self._issue(PUT, origin_buf, origin_offset, origin_count,
                         origin_dtype, target, target_disp, target_count,
                         target_dtype, None)
        return RMARequest(self, op, req_id)

    def rget(self, origin_buf: TrackedBuffer, target: int,
             target_disp: int = 0, origin_offset: int = 0,
             origin_count: Optional[int] = None,
             origin_dtype: Optional[Datatype] = None,
             target_count: Optional[int] = None,
             target_dtype: Optional[Datatype] = None) -> "RMARequest":
        """MPI-3 MPI_Rget: a Get with per-operation completion."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        req_id = self._fresh_req_id()
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        args["req"] = req_id
        self.ctx._yield_and_emit("Rget", args)
        op = self._issue(GET, origin_buf, origin_offset, origin_count,
                         origin_dtype, target, target_disp, target_count,
                         target_dtype, None)
        return RMARequest(self, op, req_id)

    def raccumulate(self, origin_buf: TrackedBuffer, target: int, op: str,
                    target_disp: int = 0, origin_offset: int = 0,
                    origin_count: Optional[int] = None,
                    origin_dtype: Optional[Datatype] = None,
                    target_count: Optional[int] = None,
                    target_dtype: Optional[Datatype] = None
                    ) -> "RMARequest":
        """MPI-3 MPI_Raccumulate: an Accumulate with per-op completion."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        req_id = self._fresh_req_id()
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        args.update({"op": op, "req": req_id})
        self.ctx._yield_and_emit("Raccumulate", args)
        rma_op = self._issue(ACC, origin_buf, origin_offset, origin_count,
                             origin_dtype, target, target_disp,
                             target_count, target_dtype, op)
        return RMARequest(self, rma_op, req_id)

    def _fresh_req_id(self) -> int:
        req_id = getattr(self, "_next_rma_req", 0)
        self._next_rma_req = req_id + 1
        return req_id

    def _complete_request(self, op: RMAOp) -> None:
        """Apply a request-based op now and drop it from the pending set."""
        target = op.target_world
        pending = self._pending.get(target, [])
        # all ops issued before it to the same target complete first
        # (MPI ordering for accumulate-family; conservative for put/get)
        while pending and pending[0].seq <= op.seq:
            earlier = pending.pop(0)
            apply_rma(earlier, self.window.buffer_of(target),
                      self.window.disp_units[target])
        if not op.applied:
            apply_rma(op, self.window.buffer_of(target),
                      self.window.disp_units[target])
        self.ctx.world.scheduler.register_progress()

    def get_accumulate(self, origin_buf: TrackedBuffer,
                       result_buf: TrackedBuffer, target: int, op: str,
                       target_disp: int = 0, origin_offset: int = 0,
                       result_offset: int = 0,
                       origin_count: Optional[int] = None,
                       origin_dtype: Optional[Datatype] = None,
                       target_count: Optional[int] = None,
                       target_dtype: Optional[Datatype] = None) -> RMAOp:
        """MPI-3 MPI_Get_accumulate: atomic fetch-and-combine."""
        if origin_count is None:
            origin_count = origin_buf.count - origin_offset
        args, origin_dtype, target_count, target_dtype = self._call_args(
            origin_buf, origin_offset, origin_count, origin_dtype, target,
            target_disp, target_count, target_dtype)
        args.update({"op": op, "result_base": result_buf.base,
                     "result_offset": result_offset * result_buf.itemsize,
                     "result_var": result_buf.name})
        self.ctx._yield_and_emit("Get_accumulate", args)
        return self._issue(GET_ACC, origin_buf, origin_offset, origin_count,
                           origin_dtype, target, target_disp, target_count,
                           target_dtype, op, result_buf=result_buf,
                           result_offset=result_offset)

    def fetch_and_op(self, origin_buf: TrackedBuffer,
                     result_buf: TrackedBuffer, target: int, op: str,
                     target_disp: int = 0) -> RMAOp:
        """MPI-3 MPI_Fetch_and_op: single-element get_accumulate."""
        return self.get_accumulate(origin_buf, result_buf, target, op,
                                   target_disp=target_disp, origin_count=1)

    def compare_and_swap(self, origin_buf: TrackedBuffer,
                         compare_buf: TrackedBuffer,
                         result_buf: TrackedBuffer, target: int,
                         target_disp: int = 0) -> RMAOp:
        """MPI-3 MPI_Compare_and_swap on one element."""
        dtype = self.ctx.primitive_of(origin_buf)
        args = self._call_args(origin_buf, 0, 1, dtype, target, target_disp,
                               1, dtype)[0]
        args.update({"result_base": result_buf.base,
                     "result_offset": 0, "result_var": result_buf.name,
                     "compare_var": compare_buf.name})
        self.ctx._yield_and_emit("Compare_and_swap", args)
        compare_value = compare_buf.raw_read_bytes(0, dtype.size)
        return self._issue(CAS, origin_buf, 0, 1, dtype, target,
                           target_disp, 1, dtype, None,
                           result_buf=result_buf,
                           compare_value=compare_value)

    def lock_all(self) -> None:
        """MPI-3 MPI_Win_lock_all: shared locks on every member at once."""
        self._check_open()
        window = self.window
        targets = [window.comm.world_of_rank(r)
                   for r in range(window.comm.size)]

        def grantable(target: int):
            return lambda: window.lock_grantable(target, LOCK_SHARED)

        def unheld_then_first():
            for target_world in targets:
                if target_world in self.lock_epochs:
                    raise RMAUsageError(
                        f"rank {self.rank}: Win_lock_all while holding a "
                        f"lock on target {target_world}")
            return grantable(targets[0])

        sched = self.ctx.world.scheduler
        self.ctx._emit("Win_lock_all", {"win": self.win_id})
        for target_world in targets:
            reason = f"Win_lock_all target={target_world} win={self.win_id}"
            if target_world == targets[0]:
                sched.yield_then_wait(self.rank, unheld_then_first, reason)
            else:
                sched.wait_until(self.rank, grantable(target_world), reason)
            window.grant_lock(target_world, self.rank, LOCK_SHARED)
            self.lock_epochs[target_world] = LOCK_SHARED
        self.ctx.world.scheduler.register_progress()

    def unlock_all(self) -> None:
        """MPI-3 MPI_Win_unlock_all: flush and release every held lock."""
        self._check_open()
        self.ctx._yield_and_emit("Win_unlock_all", {"win": self.win_id})
        for target_world in sorted(self.lock_epochs):
            self._flush(target_world)
            self.window.release_lock(target_world, self.rank)
            del self.lock_epochs[target_world]
        self.ctx.world.scheduler.register_progress()

    def flush(self, target: int) -> None:
        """MPI-3 MPI_Win_flush: complete pending ops to ``target`` without
        closing the epoch (a consistency point mid-epoch)."""
        self._check_open()
        target_world = self._target_world(target)
        if target_world not in self.lock_epochs:
            raise RMAUsageError(
                f"rank {self.rank}: Win_flush of target {target_world} "
                "outside a passive-target epoch")
        self.ctx._yield_and_emit(
            "Win_flush", {"win": self.win_id, "target": target_world})
        self._flush(target_world)

    def flush_all(self) -> None:
        """MPI-3 MPI_Win_flush_all: complete all pending ops, epoch stays."""
        self._check_open()
        if not self.lock_epochs:
            raise RMAUsageError(
                f"rank {self.rank}: Win_flush_all outside any "
                "passive-target epoch")
        self.ctx._yield_and_emit("Win_flush_all", {"win": self.win_id})
        self._flush()

    def _call_args(self, origin_buf, origin_offset, origin_count,
                   origin_dtype, target, target_disp, target_count,
                   target_dtype) -> Tuple[dict, Datatype, int, Datatype]:
        """An op's trace arguments, and the defaults resolved on the way
        — origin datatype, target count, target datatype — for
        :meth:`_issue`."""
        if not isinstance(origin_buf, TrackedBuffer):
            raise RMAUsageError(
                f"one-sided origin must be a TrackedBuffer, got "
                f"{type(origin_buf).__name__}")
        if origin_dtype is None:
            origin_dtype = self.ctx.primitive_of(origin_buf)
        if target_dtype is None:
            target_dtype = origin_dtype
        if target_count is None:
            target_count = origin_count
        return {
            "win": self.win_id,
            "target": self._target_world(target),
            "origin_base": origin_buf.base,
            "origin_offset": origin_offset * origin_buf.itemsize,
            "origin_count": origin_count,
            "origin_dtype": origin_dtype.type_id,
            "target_disp": target_disp,
            "target_count": target_count,
            "target_dtype": target_dtype.type_id,
            "var": origin_buf.name,
        }, origin_dtype, target_count, target_dtype

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def fence(self, assertion: int = 0) -> None:
        """MPI_Win_fence: flush, synchronize the communicator, open epoch."""
        self._check_open()
        index, slot = self.ctx._collective(
            self.comm, f"Win_fence:{self.win_id}", before=self._flush,
            event=("Win_fence", {"win": self.win_id, "assert": assertion}))
        self.ctx.world.collectives.leave(self.comm, index, slot, self.rank)
        self.fence_epoch_open = True

    def lock(self, target: int, lock_type: str = LOCK_SHARED) -> None:
        """MPI_Win_lock: open a passive-target epoch at ``target``."""
        self._check_open()
        if lock_type not in (LOCK_SHARED, LOCK_EXCLUSIVE):
            raise RMAUsageError(f"unknown lock type {lock_type!r}")
        target_world = self._target_world(target)
        if target_world in self.lock_epochs:
            raise RMAUsageError(
                f"rank {self.rank} already holds a lock on target "
                f"{target_world} (window {self.win_id})")
        window = self.window

        def grantable() -> bool:
            return window.lock_grantable(target_world, lock_type)

        self.ctx._emit("Win_lock", {"win": self.win_id, "target": target_world,
                                    "lock_type": lock_type})
        self.ctx.world.scheduler.yield_then_wait(
            self.rank, lambda: grantable,
            f"Win_lock({lock_type}) target={target_world} win={self.win_id}")
        window.grant_lock(target_world, self.rank, lock_type)
        self.ctx.world.scheduler.register_progress()
        self.lock_epochs[target_world] = lock_type

    def unlock(self, target: int) -> None:
        """MPI_Win_unlock: flush this epoch's ops and release the lock."""
        self._check_open()
        target_world = self._target_world(target)
        if target_world not in self.lock_epochs:
            raise RMAUsageError(
                f"rank {self.rank}: unlock of target {target_world} without "
                f"a held lock (window {self.win_id})")
        self.ctx._yield_and_emit(
            "Win_unlock", {"win": self.win_id, "target": target_world})
        self._flush(target_world)
        self.window.release_lock(target_world, self.rank)
        del self.lock_epochs[target_world]
        self.ctx.world.scheduler.register_progress()

    def post(self, group: Group, assertion: int = 0) -> None:
        """MPI_Win_post: expose the local window to the origin group."""
        self._check_open()
        if self.exposure_posted:
            raise RMAUsageError(
                f"rank {self.rank}: Win_post while an exposure epoch is "
                f"already open (window {self.win_id})")
        self.ctx._yield_and_emit(
            "Win_post", {"win": self.win_id,
                         "group": list(group.world_ranks),
                         "assert": assertion})
        self.window.exposures[self.rank] = _Exposure(
            origins=set(group.world_ranks))
        self.exposure_posted = True
        self.ctx.world.scheduler.register_progress()

    def start(self, group: Group, assertion: int = 0) -> None:
        """MPI_Win_start: open an access epoch to the target group."""
        self._check_open()
        if self.access_group is not None:
            raise RMAUsageError(
                f"rank {self.rank}: Win_start while an access epoch is "
                f"already open (window {self.win_id})")
        window, me = self.window, self.rank

        def all_posted() -> bool:
            for target in group.world_ranks:
                exp = window.exposures.get(target)
                if exp is None or me not in exp.origins or me in exp.started:
                    return False
            return True

        self.ctx._emit("Win_start", {"win": self.win_id,
                                     "group": list(group.world_ranks),
                                     "assert": assertion})
        self.ctx.world.scheduler.yield_then_wait(
            self.rank, lambda: all_posted,
            f"Win_start targets={list(group.world_ranks)} win={self.win_id}")
        for target in group.world_ranks:
            window.exposures[target].started.add(me)
        self.access_group = group
        self.ctx.world.scheduler.register_progress()

    def complete(self) -> None:
        """MPI_Win_complete: flush and close the access epoch."""
        self._check_open()
        if self.access_group is None:
            raise RMAUsageError(
                f"rank {self.rank}: Win_complete without an open access "
                f"epoch (window {self.win_id})")
        self.ctx._yield_and_emit("Win_complete", {"win": self.win_id})
        for target in self.access_group.world_ranks:
            self._flush(target)
            self.window.exposures[target].completed.add(self.rank)
        self.access_group = None
        self.ctx.world.scheduler.register_progress()

    def wait(self) -> None:
        """MPI_Win_wait: close the exposure epoch once all origins completed."""
        self._check_open()
        if not self.exposure_posted:
            raise RMAUsageError(
                f"rank {self.rank}: Win_wait without Win_post "
                f"(window {self.win_id})")
        window, me = self.window, self.rank

        def all_completed() -> bool:
            exp = window.exposures.get(me)
            return exp is not None and exp.completed >= exp.origins

        self.ctx._emit("Win_wait", {"win": self.win_id})
        self.ctx.world.scheduler.yield_then_wait(
            self.rank, lambda: all_completed, f"Win_wait win={self.win_id}")
        window.exposures[me] = None
        self.exposure_posted = False
        self.ctx.world.scheduler.register_progress()

    def free(self) -> None:
        """MPI_Win_free: collective teardown."""
        self._check_open()

        def drained() -> None:
            if self._pending:
                raise RMAUsageError(
                    f"rank {self.rank}: Win_free with pending RMA "
                    f"operations (window {self.win_id})")

        index, slot = self.ctx._collective(
            self.comm, f"Win_free:{self.win_id}", before=drained,
            event=("Win_free", {"win": self.win_id}))
        self.ctx.world.collectives.leave(self.comm, index, slot, self.rank)
        self.fence_epoch_open = False
        self.window.freed = True
