"""The simulated MPI world and the per-rank API context.

:class:`World` owns the scheduler, message router, collective engine,
communicator/window registries, and the RMA delivery engine.
:class:`MPIContext` is the handle an application rank programs against —
its surface intentionally mirrors the MPI-2.2 subset the paper analyzes
(mpi4py-flavoured naming, world-rank orientation).

Applications are plain callables ``app(mpi: MPIContext, **params)``; run
them with :func:`run_app` (or :class:`World` directly for more control)::

    def main(mpi):
        buf = mpi.alloc("buf", 8, datatype=INT)
        win = mpi.win_create(buf)
        win.fence()
        if mpi.rank == 0:
            win.put(buf, target=1)
        win.fence()
        win.free()

    run_app(main, nranks=2)

Profiling hooks: a :class:`EventHook` registered on the world observes
every MPI call (``on_call``) and every instrumented load/store, as a
block of ``count`` accesses (``on_mem_block``; an element or slice
access is a block of one).  With no hooks registered the hot paths
reduce to an empty loop, which is what makes the "without Profiler" arm
of the Figure-8 overhead experiment meaningful.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simmpi import collectives as coll
from repro.simmpi.collectives import CollectiveEngine
from repro.simmpi.comm import Comm
from repro.simmpi.group import Group
from repro.simmpi.memory import AddressSpace, TrackedBuffer
from repro.simmpi.ops import REDUCE_OPS
from repro.simmpi.p2p import (
    ANY_SOURCE, ANY_TAG, Message, MessageRouter, Request, Status,
)
from repro.simmpi.rma import DeliveryEngine, gather_typed, scatter_typed
from repro.simmpi.scheduler import Scheduler
from repro.simmpi.window import WinHandle, Window
from repro.util.datatypes import (
    DOUBLE, WORLD_COMM_ID, Datatype, DatatypeFactory, PRIMITIVES,
    primitive_for_numpy,
)
from repro.util.errors import SimMPIError


class EventHook:
    """Observer interface for profiling (the PMPI-interposition analogue)."""

    def on_call(self, rank: int, fn: str, args: Dict[str, Any]) -> None:
        """An MPI call by ``rank``; ``args`` are trace-ready scalars."""

    def on_mem_block(self, rank: int, kind: str, buf: TrackedBuffer,
                     addr: int, size: int, count: int, stride: int) -> None:
        """``count`` instrumented loads/stores of ``size`` bytes by
        ``rank``, access *i* at ``addr + i * stride`` (``stride`` 0: the
        same bytes ``count`` times; one element or slice: ``count`` 1)."""

    def on_alloc(self, rank: int, buf: TrackedBuffer) -> None:
        """A buffer allocation by ``rank`` (instrumentation decisions)."""

    def on_win_buffer(self, rank: int, buf: TrackedBuffer) -> None:
        """``buf`` was exposed in a window by ``rank``.  Window buffers are
        relevant by definition (the seed set of ST-Analyzer's analysis),
        so profilers instrument them even when static analysis could not
        see the allocation site (e.g. a library allocating on the
        application's behalf)."""


class World:
    """One simulated MPI job: ``nranks`` ranks plus shared runtime state."""

    def __init__(self, nranks: int, sched_policy: str = "round_robin",
                 seed: int = 0, delivery: str = "random",
                 max_steps: int = 50_000_000):
        from repro import obs

        self.nranks = nranks
        # Stats feed publish_obs only, so they are counted exactly when
        # observability is on; with it off the hot paths skip the
        # per-call dict/counter work (and the f-string keys).
        self.counting = obs.is_enabled()
        self.scheduler = Scheduler(nranks, policy=sched_policy, seed=seed,
                                   max_steps=max_steps)
        self.router = MessageRouter(nranks)
        self.collectives = CollectiveEngine()
        self.delivery = DeliveryEngine(policy=delivery, seed=seed + 1)
        self.world_comm = Comm(WORLD_COMM_ID, Group(range(nranks)))
        self.comms: Dict[int, Comm] = {WORLD_COMM_ID: self.world_comm}
        self.windows: Dict[int, Window] = {}
        self._next_comm_id = WORLD_COMM_ID + 1
        self._next_win_id = 0
        self.hooks: List[EventHook] = []
        self.stats: Dict[str, int] = {}
        self._obs_published: Dict[str, int] = {}
        self.contexts: List["MPIContext"] = [
            MPIContext(self, rank) for rank in range(nranks)
        ]

    # -- registries (must be called while holding the token) -----------

    def fresh_comm_id(self) -> int:
        cid = self._next_comm_id
        self._next_comm_id += 1
        return cid

    def fresh_win_id(self) -> int:
        wid = self._next_win_id
        self._next_win_id += 1
        return wid

    def bump_stat(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    def publish_obs(self) -> None:
        """Publish one run's scheduler/runtime totals to ``repro.obs``.

        Deliberately a post-run summary rather than per-event metric
        calls: the simulator's hot paths stay untouched, so the
        "without Profiler" arm of the Figure-8 experiment is not
        polluted.  No-op (and re-invocable) when observability is off.
        """
        from repro import obs
        from repro.profiler.events import RMA_COMM_CALLS

        rec = obs.get_recorder()
        if not rec.enabled:
            return
        sched = self.scheduler
        rec.gauge("simmpi_context_switches", sched.switches,
                  help="Thread handoffs performed")
        rec.gauge("simmpi_wakeups_elided", sched.elided,
                  help="Grants to a blocked rank whose predicate was still "
                       "false, taken on the granting thread instead of "
                       "waking the rank")
        rec.gauge("simmpi_token_grants", sched.token_grants,
                  help="Token grants issued by the scheduler, handoffs "
                       "and elided wake-ups alike")
        os_switches = sched.os_switches()
        if os_switches is not None:
            rec.gauge("simmpi_os_context_switches", os_switches,
                      help="OS context switches of the rank threads "
                           "(voluntary + involuntary, getrusage)")
        token_times = sched.token_seconds()
        if token_times is not None:
            for rank, seconds in enumerate(token_times):
                rec.gauge("simmpi_rank_run_seconds", seconds,
                          help="Per-rank token-hold (execution) seconds",
                          rank=rank)
        for key in sorted(self.stats):
            # counters must only grow: publish the delta since the last
            # publish so repeated calls on one world stay correct
            n = self.stats[key] - self._obs_published.get(key, 0)
            self._obs_published[key] = self.stats[key]
            if n == 0:
                continue
            if key.startswith("call:"):
                fn = key[len("call:"):]
                rec.count("simmpi_calls_total", n, fn=fn,
                          help="MPI calls executed, by function")
                if fn in RMA_COMM_CALLS:
                    rec.count("simmpi_rma_ops_total", n, kind=fn,
                              help="One-sided communication ops, by kind")
            elif key.startswith("mem:"):
                rec.count("simmpi_mem_accesses_total", n,
                          kind=key[len("mem:"):],
                          help="Instrumented load/store accesses")

    def run(self, app: Callable, params: Optional[Dict[str, Any]] = None
            ) -> List[Any]:
        """Execute ``app(mpi, **params)`` on every rank; return per-rank results."""
        params = params or {}
        results: List[Any] = [None] * self.nranks

        def body_for(rank: int) -> Callable[[], None]:
            def body() -> None:
                results[rank] = app(self.contexts[rank], **params)
            return body

        self.scheduler.start([body_for(r) for r in range(self.nranks)])
        return results


def run_app(app: Callable, nranks: int, params: Optional[Dict[str, Any]] = None,
            sched_policy: str = "round_robin", seed: int = 0,
            delivery: str = "random") -> List[Any]:
    """Convenience wrapper: build a world, run the app, return rank results."""
    return World(nranks, sched_policy=sched_policy, seed=seed,
                 delivery=delivery).run(app, params)


class MPIContext:
    """Per-rank MPI API facade handed to application code."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.nranks
        self.space = AddressSpace(rank)
        self.types = DatatypeFactory()
        self._type_registry: Dict[int, Datatype] = dict(
            (t.type_id, t) for t in PRIMITIVES.values())
        self._next_req_id = 0
        self._buffers: List[TrackedBuffer] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def comm_world(self) -> Comm:
        return self.world.world_comm

    def _resolve_comm(self, comm: Optional[Comm]) -> Comm:
        return comm if comm is not None else self.world.world_comm

    def _emit(self, fn: str, args: Dict[str, Any]) -> None:
        """One call event, on this rank's thread (for a window call that
        yields into its wait)."""
        world = self.world
        if world.counting:
            world.bump_stat(f"call:{fn}")
        for hook in world.hooks:
            hook.on_call(self.rank, fn, args)

    def _yield_and_emit(self, fn: str, args: Dict[str, Any]) -> None:
        """One call event + one yield point; every call that does not
        block funnels here."""
        world = self.world
        if world.counting:
            world.bump_stat(f"call:{fn}")
        for hook in world.hooks:
            hook.on_call(self.rank, fn, args)
        world.scheduler.yield_point(self.rank)

    def _mem_block_hook(self, kind: str, buf: TrackedBuffer, addr: int,
                        size: int, count: int, stride: int) -> None:
        world = self.world
        if world.counting:
            world.bump_stat(f"mem:{kind}", count)
        for hook in world.hooks:
            hook.on_mem_block(self.rank, kind, buf, addr, size, count, stride)

    def _collective(self, comm: Comm, name: str, contribution: Any = None,
                    event: Optional[Tuple[str, Dict[str, Any]]] = None,
                    before: Optional[Callable[[], None]] = None):
        """Join slot ``name`` on ``comm``, wait for every member; return
        ``(index, slot)``.  With ``event`` (``fn, args``) the call is
        logged, and ``before()`` plus the join are its resumed step;
        without, the call is logged at return and joins where it stands."""
        world, rank = self.world, self.rank
        joined = []

        def join() -> Callable[[], bool]:
            if before is not None:
                before()
            joined.append(world.collectives.enter(comm, rank, name,
                                                  contribution))
            world.scheduler.register_progress()
            slot = joined[0][1]
            return lambda: slot.full

        reason = f"{name} on comm {comm.comm_id}"
        if event is None:
            world.scheduler.wait_until(rank, join(), reason)
            return joined[0]
        # emitted here, not through _emit: one runtime frame fewer for
        # capture_location to walk
        fn, args = event
        if world.counting:
            world.bump_stat(f"call:{fn}")
        for hook in world.hooks:
            hook.on_call(rank, fn, args)
        world.scheduler.yield_then_wait(rank, join, reason)
        return joined[0]

    def register_type(self, dtype: Datatype) -> Datatype:
        self._type_registry[dtype.type_id] = dtype
        return dtype

    def primitive_of(self, buf: TrackedBuffer) -> Datatype:
        return primitive_for_numpy(buf.array.dtype)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def alloc(self, name: str, count: int,
              datatype: Union[Datatype, str, np.dtype] = DOUBLE,
              fill: Optional[float] = 0) -> TrackedBuffer:
        """Allocate a named, trackable application buffer."""
        if isinstance(datatype, Datatype):
            np_dtype = datatype.numpy_dtype()
        elif isinstance(datatype, str) and datatype in PRIMITIVES:
            np_dtype = PRIMITIVES[datatype].numpy_dtype()
        else:
            np_dtype = np.dtype(datatype)
        buf = TrackedBuffer(self.space, name, count, np_dtype, fill=fill)
        buf.set_block_hook(self._mem_block_hook)
        self._buffers.append(buf)
        if self.world.counting:
            self.world.bump_stat("alloc")
        for hook in self.world.hooks:
            hook.on_alloc(self.rank, buf)
        return buf

    @property
    def buffers(self) -> Tuple[TrackedBuffer, ...]:
        return tuple(self._buffers)

    # ------------------------------------------------------------------
    # basic support calls
    # ------------------------------------------------------------------

    def comm_rank(self, comm: Optional[Comm] = None) -> int:
        comm = self._resolve_comm(comm)
        self._yield_and_emit("Comm_rank", {"comm": comm.comm_id})
        return comm.rank_of_world(self.rank)

    def comm_size(self, comm: Optional[Comm] = None) -> int:
        comm = self._resolve_comm(comm)
        self._yield_and_emit("Comm_size", {"comm": comm.comm_id})
        return comm.size

    def wtime(self) -> float:
        return time.perf_counter()

    # ------------------------------------------------------------------
    # communicator / group management
    # ------------------------------------------------------------------

    def comm_group(self, comm: Optional[Comm] = None) -> Group:
        comm = self._resolve_comm(comm)
        self._yield_and_emit("Comm_group", {"comm": comm.comm_id})
        return comm.group

    def group_incl(self, group: Group, ranks: Sequence[int]) -> Group:
        self._yield_and_emit("Group_incl", {
            "parent": list(group.world_ranks), "ranks": list(ranks)})
        return group.incl(ranks)

    def group_excl(self, group: Group, ranks: Sequence[int]) -> Group:
        self._yield_and_emit("Group_excl", {
            "parent": list(group.world_ranks), "ranks": list(ranks)})
        return group.excl(ranks)

    def comm_dup(self, comm: Optional[Comm] = None) -> Comm:
        comm = self._resolve_comm(comm)
        index, slot = self._collective(comm, f"Comm_dup:{comm.comm_id}")
        if not slot.computed:
            slot.computed = True
            slot.result = Comm(self.world.fresh_comm_id(), comm.group)
            self.world.comms[slot.result.comm_id] = slot.result
        new_comm = slot.result
        self.world.collectives.leave(comm, index, slot, self.rank)
        # logged at return so the output handle (newcomm) is known, as a
        # PMPI wrapper would do
        self._yield_and_emit("Comm_dup", {
            "comm": comm.comm_id, "newcomm": new_comm.comm_id})
        return new_comm

    def comm_split(self, color: int, key: int = 0,
                   comm: Optional[Comm] = None) -> Optional[Comm]:
        """MPI_Comm_split; ``color < 0`` (undefined) yields no communicator."""
        comm = self._resolve_comm(comm)
        index, slot = self._collective(
            comm, f"Comm_split:{comm.comm_id}", contribution=(color, key))
        if not slot.computed:
            slot.computed = True
            by_color: Dict[int, List[Tuple[int, int, int]]] = {}
            for comm_rank in range(comm.size):
                world_rank = comm.world_of_rank(comm_rank)
                c, k = slot.contributions[world_rank]
                if c >= 0:
                    by_color.setdefault(c, []).append((k, comm_rank, world_rank))
            result: Dict[int, Comm] = {}
            for c in sorted(by_color):
                members = [w for _k, _cr, w in sorted(by_color[c])]
                new_comm = Comm(self.world.fresh_comm_id(), Group(members))
                self.world.comms[new_comm.comm_id] = new_comm
                for w in members:
                    result[w] = new_comm
            slot.result = result
        new_comm = slot.result.get(self.rank)
        self.world.collectives.leave(comm, index, slot, self.rank)
        self._yield_and_emit("Comm_split", {
            "comm": comm.comm_id, "color": color, "key": key,
            "newcomm": new_comm.comm_id if new_comm is not None else -1})
        return new_comm

    def comm_create(self, group: Group, comm: Optional[Comm] = None
                    ) -> Optional[Comm]:
        comm = self._resolve_comm(comm)
        index, slot = self._collective(
            comm, f"Comm_create:{comm.comm_id}", contribution=group.world_ranks)
        if not slot.computed:
            slot.computed = True
            new_comm = Comm(self.world.fresh_comm_id(), group)
            self.world.comms[new_comm.comm_id] = new_comm
            slot.result = new_comm
        new_comm = slot.result
        self.world.collectives.leave(comm, index, slot, self.rank)
        member = self.rank in group
        self._yield_and_emit("Comm_create", {
            "comm": comm.comm_id, "group": list(group.world_ranks),
            "newcomm": new_comm.comm_id if member else -1})
        return new_comm if member else None

    # ------------------------------------------------------------------
    # datatypes
    # ------------------------------------------------------------------

    def type_contiguous(self, count: int, old: Datatype) -> Datatype:
        self._yield_and_emit("Type_contiguous", {
            "count": count, "oldtype": old.type_id})
        return self.register_type(self.types.contiguous(count, old))

    def type_vector(self, count: int, blocklength: int, stride: int,
                    old: Datatype) -> Datatype:
        self._yield_and_emit("Type_vector", {
            "count": count, "blocklength": blocklength, "stride": stride,
            "oldtype": old.type_id})
        return self.register_type(
            self.types.vector(count, blocklength, stride, old))

    def type_indexed(self, blocklengths: Sequence[int],
                     displacements: Sequence[int], old: Datatype) -> Datatype:
        self._yield_and_emit("Type_indexed", {
            "blocklengths": list(blocklengths),
            "displacements": list(displacements), "oldtype": old.type_id})
        return self.register_type(
            self.types.indexed(blocklengths, displacements, old))

    def type_struct(self, blocklengths: Sequence[int],
                    displacements: Sequence[int],
                    dtypes: Sequence[Datatype]) -> Datatype:
        self._yield_and_emit("Type_struct", {
            "blocklengths": list(blocklengths),
            "displacements": list(displacements),
            "oldtypes": [t.type_id for t in dtypes]})
        return self.register_type(
            self.types.struct(blocklengths, displacements, dtypes))

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def _pack_send(self, buf, offset: int, count: Optional[int],
                   datatype: Optional[Datatype]):
        """Returns (payload, elem_count, trace-args-fragment)."""
        if isinstance(buf, TrackedBuffer):
            dtype = datatype or self.primitive_of(buf)
            count = buf.count - offset if count is None else count
            payload = gather_typed(buf, offset * buf.itemsize, dtype, count)
            frag = {"base": buf.base, "offset": offset * buf.itemsize,
                    "count": count, "dtype": dtype.type_id, "var": buf.name}
            return payload, count, frag
        return buf, 0, {"count": 0}

    def _unpack_recv(self, msg: Message, buf, offset: int,
                     count: Optional[int], datatype: Optional[Datatype]):
        if isinstance(buf, TrackedBuffer):
            dtype = datatype or self.primitive_of(buf)
            scatter_typed(buf, offset * buf.itemsize, dtype,
                          msg.elem_count if count is None else count,
                          msg.payload)
            return None
        return msg.payload

    def send(self, buf, dest: int, tag: int = 0, comm: Optional[Comm] = None,
             offset: int = 0, count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> None:
        """Blocking (buffered) standard send."""
        comm = self._resolve_comm(comm)
        payload, elem_count, frag = self._pack_send(buf, offset, count, datatype)
        args = {"dest": dest, "tag": tag, "comm": comm.comm_id, **frag}
        self._yield_and_emit("Send", args)
        self.world.router.post(Message(
            src_world=self.rank, dst_world=comm.world_of_rank(dest),
            comm_id=comm.comm_id, tag=tag, payload=payload,
            elem_count=elem_count))
        self.world.scheduler.register_progress()

    def _take_message(self, comm_id: int, src_world: int, tag: int,
                      reason: str) -> Message:
        """Yield, wait for a matching message and take it (Recv, Wait)."""
        router, rank = self.world.router, self.rank

        def arrived() -> bool:
            return router.find(rank, comm_id, src_world, tag) is not None

        self.world.scheduler.yield_then_wait(rank, lambda: arrived, reason)
        msg = router.find(rank, comm_id, src_world, tag)
        router.take(rank, msg)
        self.world.scheduler.register_progress()
        return msg

    def recv(self, buf=None, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Optional[Comm] = None, offset: int = 0,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None):
        """Blocking receive; returns ``(payload_or_None, Status)``."""
        comm = self._resolve_comm(comm)
        src_world = (comm.world_of_rank(source)
                     if source != ANY_SOURCE else ANY_SOURCE)
        msg = self._take_message(
            comm.comm_id, src_world, tag,
            f"Recv source={source} tag={tag} comm={comm.comm_id}")
        payload = self._unpack_recv(msg, buf, offset, count, datatype)
        status = Status(source=comm.rank_of_world(msg.src_world), tag=msg.tag,
                        count=msg.elem_count)
        args = {"source": status.source, "tag": msg.tag, "comm": comm.comm_id,
                "req_source": source, "req_tag": tag}
        if isinstance(buf, TrackedBuffer):
            dtype = datatype or self.primitive_of(buf)
            n = msg.elem_count if count is None else count
            args.update({"base": buf.base, "offset": offset * buf.itemsize,
                         "count": n, "dtype": dtype.type_id, "var": buf.name})
        if self.world.counting:
            self.world.bump_stat("call:Recv")
        for hook in self.world.hooks:
            hook.on_call(self.rank, "Recv", args)
        return payload, status

    def sendrecv(self, sendbuf, dest: int, recvbuf=None,
                 source: int = ANY_SOURCE, sendtag: int = 0,
                 recvtag: int = ANY_TAG, comm: Optional[Comm] = None):
        """Combined send+recv (deadlock-free by construction here,
        since sends are buffered)."""
        self.send(sendbuf, dest, tag=sendtag, comm=comm)
        return self.recv(recvbuf, source=source, tag=recvtag, comm=comm)

    def isend(self, buf, dest: int, tag: int = 0,
              comm: Optional[Comm] = None, offset: int = 0,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Nonblocking send (buffered: complete at issue)."""
        comm = self._resolve_comm(comm)
        payload, elem_count, frag = self._pack_send(buf, offset, count, datatype)
        req_id = self._next_req_id
        self._next_req_id += 1
        args = {"dest": dest, "tag": tag, "comm": comm.comm_id,
                "req": req_id, **frag}
        self._yield_and_emit("Isend", args)
        self.world.router.post(Message(
            src_world=self.rank, dst_world=comm.world_of_rank(dest),
            comm_id=comm.comm_id, tag=tag, payload=payload,
            elem_count=elem_count))
        self.world.scheduler.register_progress()
        return Request(kind="isend", rank=self.rank, complete=True)

    def irecv(self, buf=None, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Optional[Comm] = None, offset: int = 0,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Nonblocking receive; completion happens in :meth:`wait`."""
        comm = self._resolve_comm(comm)
        req_id = self._next_req_id
        self._next_req_id += 1
        args: Dict[str, Any] = {"source": source, "tag": tag,
                                "comm": comm.comm_id, "req": req_id}
        if isinstance(buf, TrackedBuffer):
            args.update({"base": buf.base, "var": buf.name})
        self._yield_and_emit("Irecv", args)
        req = Request(kind="irecv", rank=self.rank)
        src_world = (comm.world_of_rank(source)
                     if source != ANY_SOURCE else ANY_SOURCE)
        req._match_spec = (comm.comm_id, src_world, tag)
        req._recv_into = buf
        req._recv_offset = offset
        req._recv_count = count
        req._recv_dtype = datatype
        req._payload = (comm, req_id)
        return req

    def wait(self, req) -> Optional[Status]:
        """Complete a nonblocking operation (MPI_Wait)."""
        if hasattr(req, "req_id") and hasattr(req, "_op"):
            req.wait()  # an RMARequest (Rput/Rget/Raccumulate)
            return None
        if req.kind == "icoll":
            return self._wait_icoll(req)
        if req.kind == "isend":
            self._yield_and_emit("Wait", {"req_kind": "isend"})
            return None
        comm, req_id = req._payload
        if req.complete:
            self._yield_and_emit("Wait", {"req_kind": "irecv", "req": req_id})
            return req.status
        comm_id, src_world, tag = req._match_spec
        msg = self._take_message(
            comm_id, src_world, tag,
            f"Wait(irecv) source={src_world} tag={tag} comm={comm_id}")
        self._unpack_recv(msg, req._recv_into, req._recv_offset,
                          req._recv_count, req._recv_dtype)
        req.complete = True
        req.status = Status(source=comm.rank_of_world(msg.src_world),
                            tag=msg.tag, count=msg.elem_count)
        args = {"req_kind": "irecv", "req": req_id,
                "source": req.status.source, "tag": msg.tag, "comm": comm_id}
        buf = req._recv_into
        if isinstance(buf, TrackedBuffer):
            dtype = req._recv_dtype or self.primitive_of(buf)
            n = msg.elem_count if req._recv_count is None else req._recv_count
            args.update({"base": buf.base,
                         "offset": req._recv_offset * buf.itemsize,
                         "count": n, "dtype": dtype.type_id, "var": buf.name})
        if self.world.counting:
            self.world.bump_stat("call:Wait")
        for hook in self.world.hooks:
            hook.on_call(self.rank, "Wait", args)
        return req.status

    def waitall(self, requests: Sequence[Request]) -> List[Optional[Status]]:
        return [self.wait(r) for r in requests]

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self, comm: Optional[Comm] = None) -> None:
        comm = self._resolve_comm(comm)
        index, slot = self._collective(
            comm, "Barrier", event=("Barrier", {"comm": comm.comm_id}))
        self.world.collectives.leave(comm, index, slot, self.rank)

    # ------------------------------------------------------------------
    # nonblocking collectives (MPI-3): initiation is nonblocking, the
    # synchronization effect lands at the completing MPI_Wait
    # ------------------------------------------------------------------

    def ibarrier(self, comm: Optional[Comm] = None) -> Request:
        """MPI_Ibarrier: nonblocking barrier; complete with :meth:`wait`."""
        comm = self._resolve_comm(comm)
        req_id = self._next_req_id
        self._next_req_id += 1
        self._yield_and_emit("Ibarrier", {"comm": comm.comm_id,
                                          "req": req_id})
        index, slot = self.world.collectives.enter(
            comm, self.rank, "Ibarrier")
        self.world.scheduler.register_progress()
        req = Request(kind="icoll", rank=self.rank)
        req._payload = ("Ibarrier", comm, index, slot, req_id, None, None)
        return req

    def ibcast(self, buf, root: int = 0, comm: Optional[Comm] = None,
               offset: int = 0, count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> Request:
        """MPI_Ibcast on a TrackedBuffer; data lands at :meth:`wait`."""
        comm = self._resolve_comm(comm)
        is_root = comm.rank_of_world(self.rank) == root
        args: Dict[str, Any] = {"root": root, "comm": comm.comm_id}
        contribution = None
        if isinstance(buf, TrackedBuffer):
            dtype = datatype or self.primitive_of(buf)
            count = buf.count - offset if count is None else count
            args.update({"base": buf.base, "offset": offset * buf.itemsize,
                         "count": count, "dtype": dtype.type_id,
                         "var": buf.name})
            if is_root:
                contribution = gather_typed(buf, offset * buf.itemsize,
                                            dtype, count)
        elif is_root:
            contribution = buf
        req_id = self._next_req_id
        self._next_req_id += 1
        args["req"] = req_id
        self._yield_and_emit("Ibcast", args)
        index, slot = self.world.collectives.enter(
            comm, self.rank, "Ibcast", contribution=contribution)
        self.world.scheduler.register_progress()
        req = Request(kind="icoll", rank=self.rank)
        req._payload = ("Ibcast", comm, index, slot, req_id,
                        (buf, offset, count, datatype), root)
        return req

    def _wait_icoll(self, req: Request):
        fn, comm, index, slot, req_id, recv_spec, root = req._payload
        if req.complete:
            self._yield_and_emit("Wait", {"req_kind": "icoll",
                                          "coll": fn, "req": req_id,
                                          "comm": comm.comm_id})
            return None

        def full() -> bool:
            return slot.full

        self.world.scheduler.yield_then_wait(
            self.rank, lambda: full, f"Wait({fn}) on comm {comm.comm_id}")
        if fn == "Ibcast":
            data = coll.compute_bcast(slot, comm, root)
            buf, offset, count, datatype = recv_spec
            if isinstance(buf, TrackedBuffer) and \
                    comm.rank_of_world(self.rank) != root:
                dtype = datatype or self.primitive_of(buf)
                scatter_typed(buf, offset * buf.itemsize, dtype, count,
                              data)
        self.world.collectives.leave(comm, index, slot, self.rank)
        req.complete = True
        # logged at completion, like a PMPI wrapper observing MPI_Wait
        if self.world.counting:
            self.world.bump_stat("call:Wait")
        args = {"req_kind": "icoll", "coll": fn, "req": req_id,
                "comm": comm.comm_id}
        for hook in self.world.hooks:
            hook.on_call(self.rank, "Wait", args)
        return None

    def bcast(self, buf, root: int = 0, comm: Optional[Comm] = None,
              offset: int = 0, count: Optional[int] = None,
              datatype: Optional[Datatype] = None):
        """Broadcast; for TrackedBuffers data lands in-place, for plain
        objects the root's object is returned on every rank."""
        comm = self._resolve_comm(comm)
        is_root = comm.rank_of_world(self.rank) == root
        args: Dict[str, Any] = {"root": root, "comm": comm.comm_id}
        contribution = None
        if isinstance(buf, TrackedBuffer):
            dtype = datatype or self.primitive_of(buf)
            count = buf.count - offset if count is None else count
            args.update({"base": buf.base, "offset": offset * buf.itemsize,
                         "count": count, "dtype": dtype.type_id,
                         "var": buf.name})
            if is_root:
                contribution = gather_typed(buf, offset * buf.itemsize,
                                            dtype, count)
        elif is_root:
            contribution = buf
        index, slot = self._collective(comm, "Bcast", contribution,
                                       event=("Bcast", args))
        data = coll.compute_bcast(slot, comm, root)
        self.world.collectives.leave(comm, index, slot, self.rank)
        if isinstance(buf, TrackedBuffer):
            if not is_root:
                dtype = datatype or self.primitive_of(buf)
                scatter_typed(buf, offset * buf.itemsize, dtype, count, data)
            return None
        return data

    def _reduce_like(self, fn: str, sendbuf, op: str,
                     comm: Comm, root: Optional[int], extra_args: Dict) -> Any:
        if op not in REDUCE_OPS:
            raise SimMPIError(f"{fn}: invalid reduction op {op!r}")
        if isinstance(sendbuf, TrackedBuffer):
            contribution = sendbuf.raw_elements().copy()
            extra_args.update({"base": sendbuf.base, "offset": 0,
                               "count": sendbuf.count,
                               "dtype": self.primitive_of(sendbuf).type_id,
                               "var": sendbuf.name})
        else:
            contribution = np.asarray(sendbuf)
        index, slot = self._collective(comm, fn, contribution,
                                       event=(fn, extra_args))
        if fn == "Scan":
            results = coll.compute_scan(slot, comm, op)
            result = results[comm.rank_of_world(self.rank)]
        else:
            result = coll.compute_reduce(slot, comm, op)
        self.world.collectives.leave(comm, index, slot, self.rank)
        return result

    def reduce(self, sendbuf, op: str = "SUM", root: int = 0,
               comm: Optional[Comm] = None, recvbuf=None):
        comm = self._resolve_comm(comm)
        result = self._reduce_like(
            "Reduce", sendbuf, op,
            comm, root, {"op": op, "root": root, "comm": comm.comm_id})
        if comm.rank_of_world(self.rank) != root:
            return None
        if isinstance(recvbuf, TrackedBuffer):
            recvbuf.raw_elements()[:result.size] = result
            return None
        return result

    def allreduce(self, sendbuf, op: str = "SUM",
                  comm: Optional[Comm] = None, recvbuf=None):
        comm = self._resolve_comm(comm)
        result = self._reduce_like(
            "Allreduce", sendbuf, op, comm, None,
            {"op": op, "comm": comm.comm_id})
        if isinstance(recvbuf, TrackedBuffer):
            recvbuf.raw_elements()[:result.size] = result
            return None
        return result

    def scan(self, sendbuf, op: str = "SUM", comm: Optional[Comm] = None):
        comm = self._resolve_comm(comm)
        return self._reduce_like("Scan", sendbuf, op, comm, None,
                                 {"op": op, "comm": comm.comm_id})

    def exscan(self, sendbuf, op: str = "SUM",
               comm: Optional[Comm] = None):
        """MPI_Exscan: exclusive prefix reduction (None at rank 0)."""
        comm = self._resolve_comm(comm)
        if op not in REDUCE_OPS:
            raise SimMPIError(f"Exscan: invalid reduction op {op!r}")
        contribution = (sendbuf.raw_elements().copy()
                        if isinstance(sendbuf, TrackedBuffer)
                        else np.asarray(sendbuf))
        index, slot = self._collective(
            comm, "Exscan", contribution,
            event=("Exscan", {"op": op, "comm": comm.comm_id}))
        results = coll.compute_exscan(slot, comm, op)
        mine = results[comm.rank_of_world(self.rank)]
        self.world.collectives.leave(comm, index, slot, self.rank)
        return mine

    def reduce_scatter(self, sendbuf, counts: Sequence[int],
                       op: str = "SUM", comm: Optional[Comm] = None):
        """MPI_Reduce_scatter: element-wise reduce, then scatter chunks of
        ``counts[i]`` elements to comm rank ``i``."""
        comm = self._resolve_comm(comm)
        if op not in REDUCE_OPS:
            raise SimMPIError(
                f"Reduce_scatter: invalid reduction op {op!r}")
        if len(counts) != comm.size:
            raise SimMPIError(
                f"Reduce_scatter: {len(counts)} counts for "
                f"{comm.size} ranks")
        contribution = (sendbuf.raw_elements().copy()
                        if isinstance(sendbuf, TrackedBuffer)
                        else np.asarray(sendbuf))
        if contribution.size != sum(counts):
            raise SimMPIError(
                f"Reduce_scatter: buffer of {contribution.size} elements "
                f"vs counts summing to {sum(counts)}")
        index, slot = self._collective(
            comm, "Reduce_scatter", contribution,
            event=("Reduce_scatter", {"op": op, "comm": comm.comm_id,
                                      "counts": list(counts)}))
        chunks = coll.compute_reduce_scatter(slot, comm, op, list(counts))
        mine = chunks[comm.rank_of_world(self.rank)]
        self.world.collectives.leave(comm, index, slot, self.rank)
        return mine

    def gatherv(self, sendobj, root: int = 0,
                comm: Optional[Comm] = None):
        """MPI_Gatherv-style: variable-size contributions; the root gets
        the list in comm rank order (object semantics, like gather)."""
        return self.gather(sendobj, root=root, comm=comm)

    def scatterv(self, sendchunks, root: int = 0,
                 comm: Optional[Comm] = None):
        """MPI_Scatterv-style: chunks may have different sizes."""
        return self.scatter(sendchunks, root=root, comm=comm)

    def gather(self, sendobj, root: int = 0, comm: Optional[Comm] = None):
        comm = self._resolve_comm(comm)
        contribution = (sendobj.raw_elements().copy()
                        if isinstance(sendobj, TrackedBuffer) else sendobj)
        index, slot = self._collective(
            comm, "Gather", contribution,
            event=("Gather", {"root": root, "comm": comm.comm_id}))
        parts = coll.compute_gather(slot, comm)
        self.world.collectives.leave(comm, index, slot, self.rank)
        return parts if comm.rank_of_world(self.rank) == root else None

    def allgather(self, sendobj, comm: Optional[Comm] = None):
        comm = self._resolve_comm(comm)
        contribution = (sendobj.raw_elements().copy()
                        if isinstance(sendobj, TrackedBuffer) else sendobj)
        index, slot = self._collective(
            comm, "Allgather", contribution,
            event=("Allgather", {"comm": comm.comm_id}))
        parts = coll.compute_gather(slot, comm)
        self.world.collectives.leave(comm, index, slot, self.rank)
        return parts

    def scatter(self, sendchunks, root: int = 0, comm: Optional[Comm] = None):
        """Root supplies a list of one chunk per comm rank."""
        comm = self._resolve_comm(comm)
        is_root = comm.rank_of_world(self.rank) == root
        index, slot = self._collective(
            comm, "Scatter", sendchunks if is_root else None,
            event=("Scatter", {"root": root, "comm": comm.comm_id}))
        chunks = coll.compute_bcast(slot, comm, root)
        mine = chunks[comm.rank_of_world(self.rank)]
        self.world.collectives.leave(comm, index, slot, self.rank)
        return mine

    def alltoall(self, sendchunks, comm: Optional[Comm] = None):
        """Each rank supplies one chunk per destination comm rank."""
        comm = self._resolve_comm(comm)
        index, slot = self._collective(
            comm, "Alltoall", list(sendchunks),
            event=("Alltoall", {"comm": comm.comm_id}))
        table = coll.compute_alltoall(slot, comm)
        mine = table[comm.rank_of_world(self.rank)]
        self.world.collectives.leave(comm, index, slot, self.rank)
        return mine

    # ------------------------------------------------------------------
    # RMA windows
    # ------------------------------------------------------------------

    def win_allocate(self, name: str, count: int,
                     datatype: Union[Datatype, str, np.dtype] = DOUBLE,
                     fill: Optional[float] = 0,
                     comm: Optional[Comm] = None) -> WinHandle:
        """MPI-3 MPI_Win_allocate: allocate memory and expose it in one
        collective call; the buffer is reachable via ``win.local_buffer``."""
        buf = self.alloc(name, count, datatype=datatype, fill=fill)
        return self.win_create(buf, comm=comm)

    def win_create(self, buf: Optional[TrackedBuffer],
                   disp_unit: Optional[int] = None,
                   comm: Optional[Comm] = None) -> WinHandle:
        """Collective window creation over ``comm`` (MPI_Win_create)."""
        comm = self._resolve_comm(comm)
        if comm.rank_of_world(self.rank) < 0:
            raise SimMPIError(
                f"rank {self.rank} is not a member of comm {comm.comm_id}")
        if disp_unit is None:
            disp_unit = buf.itemsize if buf is not None else 1
        args = {"comm": comm.comm_id, "disp_unit": disp_unit,
                "base": buf.base if buf is not None else 0,
                "size": buf.nbytes if buf is not None else 0}
        if buf is not None:
            args["var"] = buf.name
        index, slot = self._collective(
            comm, "Win_create", contribution=(buf, disp_unit))
        if not slot.computed:
            slot.computed = True
            window = Window(self.world.fresh_win_id(), comm)
            for comm_rank in range(comm.size):
                world_rank = comm.world_of_rank(comm_rank)
                member_buf, member_du = slot.contributions[world_rank]
                window.buffers[world_rank] = member_buf
                window.disp_units[world_rank] = member_du
            self.world.windows[window.win_id] = window
            slot.result = window
        window = slot.result
        self.world.collectives.leave(comm, index, slot, self.rank)
        args["win"] = window.win_id
        if buf is not None:
            for hook in self.world.hooks:
                hook.on_win_buffer(self.rank, buf)
        self._yield_and_emit("Win_create", args)
        return WinHandle(window, self)
