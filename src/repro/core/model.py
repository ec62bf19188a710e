"""Analyzable access views lifted from raw trace events.

Detection reasons about two access populations:

* :class:`RMAOpView` — one per Put/Get/Accumulate event, carrying the
  *target* byte intervals (in the target rank's address space, resolved
  through the window registry and data-maps) and the *origin* byte
  intervals (local), plus the enclosing epoch that bounds its span.
* :class:`LocalAccess` — every local touch of memory: instrumented
  loads/stores, MPI calls reading or writing a local buffer (send reads,
  recv writes, ...), and the local side of RMA calls themselves (a Put
  reads its origin buffer, a Get writes it — section IV-C-4: "they can be
  treated as local load and store, respectively").
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.calltable import calls_to, ensure_call_tables
from repro.core.clocks import Span
from repro.core.compat import ACC, GET, LOAD, PUT, STORE
from repro.core.epochs import (Epoch, EpochIndex, KIND_FENCE, KIND_LOCK,
                               KIND_PSCW_ACCESS, OPEN_ENDED)
from repro.core.preprocess import PreprocessedTrace
from repro.profiler.events import ACCESS_CODES
from repro.profiler.events import ACCESS_NAMES as _ACCESS_NAMES
from repro.profiler.events import CallEvent
from repro.util.errors import AnalysisError
from repro.util.intervals import IntervalSet, datamap_intervals, expand_ranges
from repro.util.location import SourceLocation

_RMA_KIND = {"Put": PUT, "Get": GET, "Accumulate": ACC,
             # MPI-3 atomics are accumulate-family ops for Table I purposes
             "Get_accumulate": ACC, "Compare_and_swap": ACC,
             # request-based variants behave like their plain counterparts,
             # with the span truncated at the request's MPI_Wait
             "Rput": PUT, "Rget": GET, "Raccumulate": ACC}

#: MPI calls whose logged buffer is read (load-like) / written (store-like).
_CALL_LOADS = frozenset({"Send", "Isend", "Reduce", "Allreduce", "Scan"})
_CALL_STORES = frozenset({"Recv"})
#: calls that may lift to a plain local access (see :func:`_lifts_buffer`)
_BUFFER_CALLS = _CALL_LOADS | _CALL_STORES | {"Bcast", "Wait"}
_REQUEST_RMA = frozenset({"Rput", "Rget", "Raccumulate"})
#: every call :func:`_lift_call` can lift — the rows the lifts select
_LIFT_CALLS = frozenset(_RMA_KIND) | _BUFFER_CALLS


_INT64_MAX = int(np.iinfo(np.int64).max)
_STORE_CODE = ACCESS_CODES["store"]


def check_address_columns(rank: int, seq, addr, size) -> None:
    """Reject memory rows outside the non-negative int64 address space.

    The sweep engine computes ``addr + size`` in int64 and drops empty
    intervals, so a row with a negative size, a negative address, or an
    end that wraps would silently conflict with nothing — a clean
    verdict from a corrupt trace.  Raise a typed error instead."""
    addr, size = np.asarray(addr), np.asarray(size)
    bad = (addr < 0) | (size < 0) | (addr > _INT64_MAX - np.maximum(size, 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise AnalysisError(
            f"rank {rank} seq {int(seq[i])}: memory access addr="
            f"{int(addr[i])} size={int(size[i])} lies outside the "
            f"non-negative int64 address space")


def _check_address_space(rank: int, seq: int, what: str,
                         intervals: IntervalSet) -> IntervalSet:
    """The interval-set counterpart, for buffers lifted from call
    arguments (RMA target/origin/result)."""
    ivs = intervals._ivs
    if ivs and (ivs[0].start < 0 or ivs[-1].stop > _INT64_MAX):
        raise AnalysisError(
            f"rank {rank} seq {seq}: {what} [{ivs[0].start}, "
            f"{ivs[-1].stop}) lies outside the non-negative int64 "
            f"address space")
    return intervals


@dataclass
class RMAOpView:
    """One one-sided communication operation, analysis-ready."""

    rank: int
    seq: int
    kind: str  # put | get | acc
    win_id: int
    target: int
    target_intervals: IntervalSet
    origin_intervals: IntervalSet
    origin_var: str
    loc: SourceLocation
    epoch: Optional[Epoch]
    acc_op: Optional[str] = None
    acc_base: Optional[str] = None
    fn: str = ""
    #: completion point: epoch close, or an earlier MPI-3 flush
    complete_seq: int = OPEN_ENDED

    @property
    def close_seq(self) -> int:
        return self.complete_seq

    @property
    def span(self) -> Span:
        """Influence interval: issue to guaranteed completion."""
        return Span(self.rank, self.seq, self.complete_seq)

    def describe(self) -> str:
        name = f"MPI_{self.fn}" if self.fn else {
            PUT: "MPI_Put", GET: "MPI_Get", ACC: "MPI_Accumulate",
        }[self.kind]
        return (f"{name} rank {self.rank} -> target {self.target} "
                f"(win {self.win_id}) at {self.loc.short}")


@dataclass
class LocalAccess:
    """One local memory access (direct or through an MPI call)."""

    rank: int
    seq: int
    access: str  # load | store
    intervals: IntervalSet
    var: str
    loc: SourceLocation
    fn: str  # "mem" for direct loads/stores, else the MPI call name
    origin_of: Optional[RMAOpView] = None  # set for RMA-origin accesses

    @property
    def span(self) -> Span:
        if self.origin_of is not None:
            # an RMA op may read/write its origin buffer any time until
            # its epoch closes
            return self.origin_of.span
        return Span.point(self.rank, self.seq)

    def describe(self) -> str:
        if self.fn == "mem":
            what = f"local {self.access} of '{self.var}'"
        elif self.origin_of is not None:
            what = (f"origin-buffer {self.access} ('{self.var}') by "
                    f"{self.fn}")
        else:
            what = f"{self.access} of '{self.var}' by MPI_{self.fn}"
        return f"{what} at rank {self.rank}, {self.loc.short}"


class MemRows:
    """One rank's instrumented loads/stores as parallel columns.

    The sweep engine's representation of plain memory events: numpy
    arrays straight out of the packed :class:`MemBlock`s (``seq`` is
    strictly increasing, so epoch/region membership is a
    ``searchsorted`` range, not a scan), with string-valued fields kept
    as ids into the rank's shared string ``table``.  A
    :class:`LocalAccess` object is materialized per row only when a row
    actually lands in a finding (:meth:`local_access`) — never for the
    bulk of the trace.
    """

    __slots__ = ("rank", "table", "seq", "addr", "size", "var", "loc",
                 "access")

    def __init__(self, rank: int, table, seq, addr, size, var, loc, access):
        self.rank = rank
        self.table = table
        self.seq = seq
        self.addr = addr
        self.size = size
        self.var = var
        self.loc = loc
        self.access = access

    @classmethod
    def from_struct(cls, rank: int, table, arr: np.ndarray) -> "MemRows":
        check_address_columns(rank, arr["seq"], arr["addr"], arr["size"])
        # contiguous copies detach the columns from any mmap backing
        return cls(rank, table,
                   np.ascontiguousarray(arr["seq"]),
                   np.ascontiguousarray(arr["addr"]),
                   np.ascontiguousarray(arr["size"]),
                   np.ascontiguousarray(arr["var"]),
                   np.ascontiguousarray(arr["loc"]),
                   np.ascontiguousarray(arr["access"]))

    @classmethod
    def from_blocks(cls, rank: int, blocks: List) -> "MemRows":
        if not blocks:
            empty64 = np.empty(0, dtype=np.int64)
            return cls(rank, None, empty64, empty64, empty64,
                       np.empty(0, dtype=np.int32),
                       np.empty(0, dtype=np.int32),
                       np.empty(0, dtype=np.uint8))
        arrays = [block.array for block in blocks]
        arr = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        return cls.from_struct(rank, blocks[0].table, arr)

    def __len__(self) -> int:
        return len(self.seq)

    def row_range(self, lo_seq: int, hi_seq: int) -> Tuple[int, int]:
        """Row indices with ``lo_seq < seq < hi_seq`` (both exclusive —
        the bound convention of epochs and concurrent regions)."""
        lo = int(np.searchsorted(self.seq, lo_seq, side="right"))
        hi = int(np.searchsorted(self.seq, hi_seq, side="left"))
        return lo, hi

    def local_access(self, i: int) -> LocalAccess:
        """Materialize row ``i`` as a LocalAccess object."""
        return LocalAccess(
            rank=self.rank, seq=int(self.seq[i]),
            access=_ACCESS_NAMES[int(self.access[i])],
            intervals=IntervalSet.single(int(self.addr[i]),
                                         int(self.size[i])),
            var=self.table.string(int(self.var[i])),
            loc=self.table.loc(int(self.loc[i])), fn="mem")


#: ``(rank, lo_seq, hi_seq)``: the rows of ``mems[rank]`` with ``lo_seq <
#: seq < hi_seq`` (the bound convention of :meth:`MemRows.row_range`)
RowBounds = Tuple[int, int, int]

#: flat rows gathered from several ranks/ranges: the index of the bounds
#: each row was selected by (its *group*), its index in its rank's
#: :class:`MemRows`, and the columns the sweep joins use
RowBatch = namedtuple("RowBatch", "group idx seq addr size store")


def gather_rows(mems: Dict[int, "MemRows"],
                bounds: List[RowBounds]) -> Optional[RowBatch]:
    """:meth:`MemRows.row_range` for many ranges at once: the rows inside
    every ``bounds[g]``, flattened and tagged with ``g`` — one
    ``searchsorted`` pair per rank over all of that rank's bounds.  A
    group's rows stay contiguous and in row order; ``None`` when no
    range holds a row."""
    ranks, lo_seq, hi_seq = np.array(bounds, dtype=np.int64).T
    parts = []
    for rank in np.unique(ranks).tolist():
        rows = mems.get(rank)
        if rows is None or not len(rows):
            continue
        groups = np.nonzero(ranks == rank)[0]
        lo = np.searchsorted(rows.seq, lo_seq[groups], side="right")
        hi = np.searchsorted(rows.seq, hi_seq[groups], side="left")
        rep, idx = expand_ranges(lo, np.maximum(hi - lo, 0))
        if len(idx):
            parts.append((groups[rep], idx, rows.seq[idx], rows.addr[idx],
                          rows.size[idx], rows.access[idx] == _STORE_CODE))
    if not parts:
        return None
    return RowBatch(*(np.concatenate(cols) for cols in zip(*parts)))


# ----------------------------------------------------------------------
# shared-memory backing for MemRows
# ----------------------------------------------------------------------

#: column order and dtypes of a MemRows shared segment — six contiguous
#: blocks laid out back to back (33 bytes per row)
_SHM_COLUMNS = (("seq", np.int64), ("addr", np.int64), ("size", np.int64),
                ("var", np.int32), ("loc", np.int32), ("access", np.uint8))


def rows_nbytes(desc: dict) -> int:
    """Payload size of the segment a share descriptor names."""
    return desc["n"] * sum(np.dtype(dt).itemsize for _c, dt in _SHM_COLUMNS)


def share_rows(rows: "MemRows", name: str):
    """Copy ``rows`` into a named ``multiprocessing.shared_memory``
    segment and return ``(descriptor, handle)``.

    The descriptor is a small picklable dict (segment name, row count,
    rank, string table contents) any process can hand to
    :func:`attach_rows`; the handle is the creator's — closing it is
    safe once the copy is done (the segment stays linked under its
    name), and whoever owns the name calls ``unlink()`` exactly once at
    end of run.  Empty rows get no segment (``(desc, None)``): a rank
    without rows is simply absent from the kernels' ``mems``."""
    from multiprocessing.shared_memory import SharedMemory

    n = len(rows)
    desc = {"name": None, "n": n, "rank": rows.rank,
            "strings": (list(rows.table.strings)
                        if rows.table is not None else None)}
    if n == 0:
        return desc, None
    shm = SharedMemory(name=name, create=True, size=rows_nbytes(desc))
    offset = 0
    for col, dtype in _SHM_COLUMNS:
        view = np.ndarray((n,), dtype=dtype, buffer=shm.buf, offset=offset)
        view[:] = getattr(rows, col)
        del view  # drop the buffer reference so close() can succeed
        offset += n * np.dtype(dtype).itemsize
    desc["name"] = name
    return desc, shm


def attach_rows(desc: dict):
    """Rebuild the :class:`MemRows` a share descriptor names as
    zero-copy views into the shared segment; returns ``(rows, handle)``.
    The caller keeps the handle alive for as long as the rows are used."""
    from multiprocessing.shared_memory import SharedMemory

    from repro.profiler.tracer import _StringTable

    n = desc["n"]
    shm = SharedMemory(name=desc["name"])
    cols = []
    offset = 0
    for _col, dtype in _SHM_COLUMNS:
        cols.append(np.ndarray((n,), dtype=dtype, buffer=shm.buf,
                               offset=offset))
        offset += n * np.dtype(dtype).itemsize
    table = (_StringTable(desc["strings"])
             if desc["strings"] is not None else None)
    return MemRows(desc["rank"], table, *cols), shm


@dataclass
class AccessModel:
    """All lifted accesses of a trace set.

    ``mems`` is the columnar population: instrumented loads/stores kept
    as per-rank :class:`MemRows` instead of one :class:`LocalAccess`
    object per event.  ``local`` holds the call-derived accesses; the
    two populations partition the accesses, so
    :attr:`total_local_accesses` counts each once.
    """

    ops: List[RMAOpView]
    local: List[LocalAccess]
    mems: Dict[int, MemRows] = field(default_factory=dict)

    @property
    def total_local_accesses(self) -> int:
        return len(self.local) + sum(len(rows)
                                     for rows in self.mems.values())

    def ops_by_rank(self) -> Dict[int, List[RMAOpView]]:
        out: Dict[int, List[RMAOpView]] = {}
        for op in self.ops:
            out.setdefault(op.rank, []).append(op)
        return out


def _lifts_buffer(event: CallEvent) -> bool:
    """Whether a :data:`_BUFFER_CALLS` call lifts to a local access: it
    reads or writes a buffer, and logged where the buffer is."""
    args = event.args
    return ((event.fn != "Wait" or args.get("req_kind") == "irecv")
            and "base" in args and "count" in args and "dtype" in args)


def _call_buffer_intervals(pre: PreprocessedTrace, rank: int,
                           event: CallEvent) -> IntervalSet:
    """Intervals of the local buffer named in a two-sided/collective call."""
    args = event.args
    dtype = pre.datatype(rank, int(args["dtype"]))
    base = int(args["base"]) + int(args.get("offset", 0))
    return dtype.intervals(base, int(args["count"]))


def build_access_model_sweep(pre: PreprocessedTrace,
                             epoch_index: EpochIndex,
                             traces: "TraceSet") -> AccessModel:
    """The sweep engine's model build: RMA ops and call-derived local
    accesses lift as usual (they are few), but instrumented loads/stores
    never become per-event objects — each rank's packed memory blocks
    concatenate into one columnar :class:`MemRows`.

    The calls were already read by the preprocess pass (``pre.events``),
    so only the packed memory columns are read back from the trace — no
    second call pass — and not even those where the preprocess pass
    produced them on the way (``pre.mem_blocks``: the batch checker)."""
    ops: List[RMAOpView] = []
    local: List[LocalAccess] = []
    mems: Dict[int, MemRows] = {}
    for rank in range(pre.nranks):
        blocks = pre.mem_blocks.pop(rank, None)
        if blocks is None:
            with traces.reader(rank) as reader:
                blocks = list(reader.mem_blocks())
        rank_ops, rank_local, rows = lift_rank_sweep(
            pre, epoch_index, rank, blocks)
        ops.extend(rank_ops)
        local.extend(rank_local)
        mems[rank] = rows
    return AccessModel(ops=ops, local=local, mems=mems)


def lift_rank_sweep(pre: PreprocessedTrace, epoch_index: EpochIndex,
                    rank: int, blocks) -> Tuple[
                        List[RMAOpView], List[LocalAccess], MemRows]:
    """Columnar lift of one rank: the :data:`_LIFT_CALLS` among
    ``pre.events[rank]`` become views (through the rank's
    :class:`LiftCache`), packed memory blocks become :class:`MemRows`
    columns."""
    ops: List[RMAOpView] = []
    local: List[LocalAccess] = []
    cache = LiftCache(epoch_index, rank)
    _rows, calls = calls_to(pre.events[rank],
                            ensure_call_tables(pre)[rank], _LIFT_CALLS)
    for event in calls:
        _lift_call(pre, epoch_index, rank, event, ops, local, cache)
    return ops, local, MemRows.from_blocks(rank, blocks)


class LiftCache:
    """Per-rank lift accelerator: the two lookups every lifted call
    makes, memoized.

    * **placement memo**: data-maps are placed by
      :func:`~repro.util.intervals.datamap_intervals` (the simulator's
      own placement function), memoized by ``(type_id, base, count)``
      for the buffers that repeat verbatim (origin/result buffers; loop
      nests register a fresh derived datatype per iteration, so target
      placements rarely repeat).
    * **epoch lookup**: per ``(win_id, target)``, the rank's access
      epochs that cover the target, pre-filtered once and bisected by
      ``open_seq`` — replacing the per-op linear scan of
      :meth:`~repro.core.epochs.EpochIndex.enclosing`.  Lock/PSCW
      epochs keep their precedence over fences by living in a separate,
      first-consulted list; within a list the scan walks back from the
      bisect point, so nested open-ended epochs still resolve.  Fence
      epochs cover every target, so their list is built once per window
      and shared by all of its targets.
    """

    __slots__ = ("_epochs", "_rank", "_placed", "_enclosing", "_by_win")

    def __init__(self, epoch_index: EpochIndex, rank: int):
        self._epochs = epoch_index
        self._rank = rank
        self._placed: Dict[Tuple[int, int, int], IntervalSet] = {}
        self._enclosing: Dict[Tuple[int, int], tuple] = {}
        self._by_win: Dict[int, tuple] = {}

    def intervals(self, dtype, base: int, count: int) -> IntervalSet:
        key = (dtype.type_id, base, count)
        placed = self._placed.get(key)
        if placed is None:
            placed = self._placed[key] = datamap_intervals(
                base, dtype.datamap, count, dtype.extent)
        return placed

    def target_intervals(self, win, target: int, target_disp: int,
                         count: int, dtype) -> IntervalSet:
        base = win.bases[target] + target_disp * win.disp_units[target]
        return self.intervals(dtype, base, count)

    def enclosing(self, win_id: int, seq: int,
                  target: int) -> Optional[Epoch]:
        """Bisect-backed :meth:`EpochIndex.enclosing` for this rank."""
        key = (win_id, target)
        index = self._enclosing.get(key)
        if index is None:
            of_win = self._by_win.get(win_id)
            if of_win is None:
                epochs = sorted(self._epochs.of_rank_win(self._rank, win_id),
                                key=lambda e: e.open_seq)
                fences = [e for e in epochs if e.kind == KIND_FENCE]
                of_win = self._by_win[win_id] = (
                    [e for e in epochs
                     if e.kind in (KIND_LOCK, KIND_PSCW_ACCESS)],
                    [e.open_seq for e in fences], fences)
            priority = [e for e in of_win[0] if e.covers_target(target)]
            index = self._enclosing[key] = (
                [e.open_seq for e in priority], priority, *of_win[1:])
        for opens, epochs in ((index[0], index[1]), (index[2], index[3])):
            # epochs with open_seq >= seq cannot contain seq; the usual
            # hit is immediately at the bisect point, walking further
            # back only past closed epochs nested inside an open one
            for k in range(bisect_right(opens, seq) - 1, -1, -1):
                if epochs[k].contains_seq(seq):
                    return epochs[k]
        return None


def _lift_call(pre: PreprocessedTrace, epoch_index: EpochIndex, rank: int,
               event: CallEvent, ops: List[RMAOpView],
               local: List[LocalAccess], cache: LiftCache) -> None:
    """Lift one MPI call into RMA op / local-access views.

    ``cache`` is the rank's :class:`LiftCache`: loops re-issue the same
    RMA call shape every iteration, and
    :class:`~repro.util.intervals.IntervalSet` is immutable, so repeat
    placements — the model phase's hottest allocation — are shared
    instead of rebuilt."""
    fn, args = event.fn, event.args
    if fn in _RMA_KIND:
        win = pre.window(int(args["win"]))
        target = int(args["target"])
        origin_dtype = pre.datatype(rank, int(args["origin_dtype"]))
        target_dtype = pre.datatype(rank, int(args["target_dtype"]))
        origin_base = int(args["origin_base"]) + \
            int(args["origin_offset"])
        target_ivs = cache.target_intervals(
            win, target, int(args["target_disp"]),
            int(args["target_count"]), target_dtype)
        origin_ivs = cache.intervals(origin_dtype, origin_base,
                                     int(args["origin_count"]))
        epoch = cache.enclosing(win.win_id, event.seq, target)
        _check_address_space(rank, event.seq, "RMA target", target_ivs)
        _check_address_space(rank, event.seq, "RMA origin buffer",
                             origin_ivs)
        acc_op = str(args["op"]) if "op" in args else None
        if fn == "Compare_and_swap":
            acc_op = "CAS"
        op = RMAOpView(
            rank=rank, seq=event.seq, kind=_RMA_KIND[fn],
            win_id=win.win_id, target=target,
            target_intervals=target_ivs,
            origin_intervals=origin_ivs,
            origin_var=str(args.get("var", "?")),
            loc=event.loc, epoch=epoch, fn=fn,
            acc_op=acc_op,
            acc_base=(origin_dtype.base
                      if _RMA_KIND[fn] == ACC else None),
            complete_seq=epoch_index.completion_seq(
                rank, win.win_id, event.seq, target, epoch,
                req=int(args["req"]) if fn in _REQUEST_RMA else None),
        )
        ops.append(op)
        # the local (origin-buffer) side of the call
        origin_access = STORE if op.kind == GET else LOAD
        local.append(LocalAccess(
            rank=rank, seq=event.seq, access=origin_access,
            intervals=origin_ivs, var=op.origin_var, loc=event.loc,
            fn=fn, origin_of=op))
        # MPI-3 fetching ops also *write* a local result buffer
        if "result_base" in args:
            result_base = int(args["result_base"]) + \
                int(args.get("result_offset", 0))
            result_ivs = cache.intervals(target_dtype, result_base,
                                         int(args["target_count"]))
            local.append(LocalAccess(
                rank=rank, seq=event.seq, access=STORE,
                intervals=_check_address_space(
                    rank, event.seq, "RMA result buffer", result_ivs),
                var=str(args.get("result_var", "?")),
                loc=event.loc, fn=fn, origin_of=op))
    elif fn in _BUFFER_CALLS and _lifts_buffer(event):
        intervals = _call_buffer_intervals(pre, rank, event)
        if fn == "Bcast":
            comm = int(args["comm"])
            root_world = pre.world_of_comm_rank(comm,
                                                int(args["root"]))
            access = LOAD if root_world == rank else STORE
        elif fn in _CALL_LOADS:
            access = LOAD
        else:
            access = STORE
        local.append(LocalAccess(
            rank=rank, seq=event.seq, access=access,
            intervals=intervals, var=str(args.get("var", "?")),
            loc=event.loc, fn=fn))


class CallLift:
    """The control state's call lift: columns for every call, views only
    on demand.

    A shard-at-a-time executor (:mod:`repro.core.plan`) needs, from *every*
    call that lifts, no more than where it sits and how far its influence
    reaches: one pass per rank over the :class:`CallTable` rows that can
    lift (RMA calls, calls with a logged buffer) records each such call's
    index in ``pre.events[rank]``, its seq and the seq its span ends at —
    an op's completion (:class:`LiftCache` epoch lookup), the call itself
    otherwise — and resolves no window, datatype or data-map.
    :meth:`views` then builds the :class:`RMAOpView` /
    :class:`LocalAccess` objects, through :func:`_lift_call`, for the seq
    ranges asked for — the identical views, in the identical order, the
    serial sweep checker lifts for those calls.  ``pre`` must be
    call-only (table rows index its event lists).
    """

    def __init__(self, pre: PreprocessedTrace, epoch_index: EpochIndex):
        self._pre = pre
        self._epochs = epoch_index
        self._caches = [LiftCache(epoch_index, rank)
                        for rank in range(pre.nranks)]
        #: per rank: event index, seq and span end of the calls that lift
        self.call: List[np.ndarray] = []
        self.seq: List[np.ndarray] = []
        self.end: List[np.ndarray] = []
        #: what ``len(model.ops)`` / ``len(model.local)`` of a full lift
        #: would be, and how many calls :meth:`views` has lifted so far
        self.n_ops = self.n_local = self.lifted = 0
        tables = ensure_call_tables(pre)
        for rank, cache in enumerate(self._caches):
            table = tables[rank]
            rows, events = calls_to(pre.events[rank], table, _LIFT_CALLS)
            calls, ends = [], []
            for k, event in zip(rows.tolist(), events):
                args = event.args
                if event.fn in _RMA_KIND:
                    win, target = int(args["win"]), int(args["target"])
                    ends.append(epoch_index.completion_seq(
                        rank, win, event.seq, target,
                        cache.enclosing(win, event.seq, target),
                        req=(int(args["req"]) if event.fn in _REQUEST_RMA
                             else None)))
                    self.n_ops += 1
                    self.n_local += 1 + ("result_base" in args)
                elif _lifts_buffer(event):
                    ends.append(event.seq)
                    self.n_local += 1
                else:
                    continue
                calls.append(k)
            self.call.append(np.array(calls, dtype=np.int64))
            self.seq.append(table.seq[self.call[-1]])
            self.end.append(np.array(ends, dtype=np.int64))

    def views(self, bounds: Optional[List[Tuple[np.ndarray, np.ndarray]]]
              = None) -> AccessModel:
        """Lift to views: every call, or per rank those with ``lo < seq
        <= hi`` for one of ``bounds[rank]``'s ascending, disjoint
        ``(lo, hi)`` pairs."""
        ops: List[RMAOpView] = []
        local: List[LocalAccess] = []
        for rank, cache in enumerate(self._caches):
            calls = self.call[rank]
            if bounds is not None:
                first, stop = (np.searchsorted(self.seq[rank], seqs,
                                               side="right")
                               for seqs in bounds[rank])
                calls = calls[expand_ranges(first, stop - first)[1]]
            events = self._pre.events[rank]
            for k in calls.tolist():
                _lift_call(self._pre, self._epochs, rank, events[k], ops,
                           local, cache)
            self.lifted += len(calls)
        return AccessModel(ops=ops, local=local)
