"""The access model: every analyzable access of a trace set, as rows.

Detection reasons about two access populations:

* RMA operations — one per Put/Get/Accumulate-family call, carrying the
  *target* byte intervals (in the target rank's address space, resolved
  through the window registry and data-maps) and the *origin* byte
  intervals (local), plus the enclosing epoch that bounds its span;
* local accesses — every local touch of memory: instrumented
  loads/stores, MPI calls reading or writing a local buffer (send reads,
  recv writes, ...), and the local side of RMA calls themselves (a Put
  reads its origin buffer, a Get writes it — section IV-C-4: "they can be
  treated as local load and store, respectively").

Both are columns here: :class:`OpTable` holds every lifted call — ops
and call-derived locals — built from the call columns with array
operations only, :class:`MemRows` one rank's instrumented loads/stores
straight out of the packed memory blocks.  The *view* classes,
:class:`RMAOpView` and :class:`LocalAccess`, are what a finding is
written from: :func:`_lift_call` builds them from one call's event, and
only :meth:`OpTable.op_view` / :meth:`OpTable.local_view` /
:meth:`MemRows.local_access` ask — for the pairs the sweep engine could
not rule out as arrays (``tests/reference/pairwise.py`` lifts every call
through the same function, as the oracle the table is tested against).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.calltable import (
    CallTable, ensure_call_table, fn_code, per_fn,
)
from repro.core.clocks import Span
from repro.core.compat import ACC, GET, KINDS, LOAD, PUT, STORE
from repro.core.epochs import Epoch, EpochIndex, OPEN_ENDED
from repro.core.preprocess import PreprocessedTrace
from repro.core.views import Views, count_views
from repro.profiler.callcols import KIND_INT, KIND_STR, CallColumns, Shape
from repro.profiler.events import ACCESS_CODES
from repro.profiler.events import ACCESS_NAMES as _ACCESS_NAMES
from repro.profiler.events import CallEvent
from repro.profiler.tracer import read_mems
from repro.util.errors import AnalysisError
from repro.util.intervals import (
    IntervalSet, datamap_intervals, expand_ranges, group_ids,
)
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


def check_mem_rows(rows: np.ndarray, offsets: Sequence[int],
                   calls: CallTable, after: Optional[int] = None) -> None:
    """Refuse memory rows the kernels would silently misread.

    * Rows outside the non-negative int64 address space: the sweep
      engine computes ``addr + size`` in int64 and drops empty
      intervals, so a negative size, a negative address or an end that
      wraps would conflict with nothing.
    * Rows out of trace order: epochs, regions and shards take a rank's
      rows by bisecting ``seq`` between two of its calls' seqs (both
      bounds exclusive), so a row whose seq does not increase, or that
      repeats a call's seq, leaves its range or joins another.

    Either way a corrupt trace would get a wrong verdict, clean ones
    included; raise a typed error instead — the first in rank order,
    and within a rank in the order above.  ``rows`` holds the rows of
    every rank of ``calls`` (the set's call table, or one rank's view)
    back to back, rank ``calls.rank_ids[k]``'s from ``offsets[k]``, and
    is checked with a rank column, all ranks at once.  ``after`` is the
    seq of the row before ``rows`` when one rank is read a block at a
    time."""
    seq, addr, size = rows["seq"], rows["addr"], rows["size"]
    rank = np.repeat(np.array(calls.rank_ids), np.diff(offsets))
    found = []
    bad = np.nonzero((addr < 0) | (size < 0)
                     | (addr > _INT64_MAX - np.maximum(size, 0)))[0]
    if len(bad):
        i = int(bad[0])
        found.append((int(rank[i]), 0,
                      f"rank {rank[i]} seq {int(seq[i])}: memory access "
                      f"addr={int(addr[i])} size={int(size[i])} lies "
                      "outside the non-negative int64 address space"))
    if after is not None and len(seq):
        seq, rank = np.concatenate(([after], seq)), np.concatenate(
            (rank[:1], rank))
    late = np.nonzero((seq[1:] <= seq[:-1]) & (rank[1:] == rank[:-1]))[0]
    if len(late):
        i = int(late[0]) + 1
        found.append((int(rank[i]), 1,
                      f"rank {rank[i]}: memory seq {int(seq[i])} follows "
                      f"{int(seq[i - 1])}: seq is not strictly increasing "
                      "over the rank's memory rows"))
    mem_seq, bounds = rows["seq"], calls.offsets.tolist()
    for k, r in enumerate(calls.rank_ids):
        own = calls.seq[bounds[k]:bounds[k + 1]]
        mine = mem_seq[offsets[k]:offsets[k + 1]]
        if len(own) and len(mine):
            at = np.searchsorted(own, mine).clip(max=len(own) - 1)
            clash = np.nonzero(own[at] == mine)[0]
            if len(clash):
                found.append((r, 2, f"rank {r}: memory seq "
                              f"{int(mine[clash[0]])} is also a call's seq"))
                break
    if found:
        raise AnalysisError(min(found)[2])


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
                 "access", "_views")

    def __init__(self, rank: int, table, seq, addr, size, var, loc, access):
        self._views: Dict[int, LocalAccess] = {}
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
        """Rows already passed by :func:`check_mem_rows`."""
        # contiguous copies detach the columns from any mmap backing
        return cls(rank, table,
                   np.ascontiguousarray(arr["seq"]),
                   np.ascontiguousarray(arr["addr"]),
                   np.ascontiguousarray(arr["size"]),
                   np.ascontiguousarray(arr["var"]),
                   np.ascontiguousarray(arr["loc"]),
                   np.ascontiguousarray(arr["access"]))

    @classmethod
    def split(cls, rows: np.ndarray, offsets: Sequence[int],
              tables: List) -> Dict[int, "MemRows"]:
        """Per rank ``0 ..``, its slice of ``rows`` (a set's, passed by
        :func:`check_mem_rows`; rank ``k``'s from ``offsets[k]``, its
        strings in ``tables[k]``) as columns: one contiguous copy per
        column for the set."""
        whole = cls.from_struct(-1, None, rows)
        columns = [getattr(whole, name) for name in cls.__slots__[2:8]]
        return {rank: cls(rank, table if hi > lo else None,
                          *(column[lo:hi] for column in columns))
                for rank, (table, lo, hi) in enumerate(zip(
                    tables, offsets[:-1], offsets[1:]))}

    def __len__(self) -> int:
        return len(self.seq)

    def row_range(self, lo_seq: int, hi_seq: int) -> Tuple[int, int]:
        """Row indices with ``lo_seq < seq < hi_seq`` (both exclusive —
        the bound convention of epochs and concurrent regions)."""
        lo = int(np.searchsorted(self.seq, lo_seq, side="right"))
        hi = int(np.searchsorted(self.seq, hi_seq, side="left"))
        return lo, hi

    def local_access(self, i: int) -> LocalAccess:
        """Row ``i`` as a LocalAccess object, built on first use."""
        view = self._views.get(i)
        if view is None:
            view = self._views[i] = LocalAccess(
                rank=self.rank, seq=int(self.seq[i]),
                access=_ACCESS_NAMES[int(self.access[i])],
                intervals=IntervalSet.single(int(self.addr[i]),
                                             int(self.size[i])),
                var=self.table.string(int(self.var[i])),
                loc=self.table.loc(int(self.loc[i])), fn="mem")
            count_views("local")
        return view


#: flat rows gathered from several ranks/ranges: the index of the bounds
#: each row was selected by (its *group*), its index in its rank's
#: :class:`MemRows`, and the columns the sweep joins use
RowBatch = namedtuple("RowBatch", "group idx seq addr size store")


def gather_rows(mems: Dict[int, "MemRows"], ranks: np.ndarray,
                lo_seq: np.ndarray, hi_seq: np.ndarray) -> RowBatch:
    """:meth:`MemRows.row_range` for many ranges at once: the rows of
    ``mems[ranks[g]]`` with ``lo_seq[g] < seq < hi_seq[g]``, flattened
    and tagged with ``g`` — one ``searchsorted`` pair per rank over all
    of that rank's bounds.  A group's rows stay contiguous and in row
    order."""
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
        empty = np.empty(0, dtype=np.int64)
        return RowBatch(empty, empty, empty, empty, empty,
                        np.empty(0, dtype=bool))
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

    Over an :class:`OpTable` (what :func:`build_access_model_sweep`
    returns) ``ops`` and ``local`` are lazy sequences: they know their
    length, and build a view when one is indexed.
    """

    ops: Sequence[RMAOpView]
    local: Sequence[LocalAccess]
    mems: Dict[int, MemRows] = field(default_factory=dict)
    #: the columns the sweep kernels run over (``None`` for a model
    #: assembled from objects: ``tests/reference``)
    table: Optional["OpTable"] = None

    @property
    def total_local_accesses(self) -> int:
        return len(self.local) + sum(len(rows)
                                     for rows in self.mems.values())


def _lifts_buffer(event: CallEvent) -> bool:
    """Whether a :data:`_BUFFER_CALLS` call lifts to a local access: it
    reads or writes a buffer, and logged where the buffer is."""
    args = event.args
    return ((event.fn != "Wait" or args.get("req_kind") == "irecv")
            and "base" in args and "count" in args and "dtype" in args)


def build_access_model_sweep(pre: PreprocessedTrace,
                             epoch_index: EpochIndex,
                             traces: "TraceSet") -> AccessModel:
    """The model build: every call that lifts becomes a row of one
    :class:`OpTable`, and the set's memory rows become one
    :class:`MemRows` per rank, sliced from columns the whole set shares
    — no per-event object either way.

    The calls were already read by the preprocess pass (``pre.events``),
    so only the memory rows are read back from the trace — the set's, at
    once, with no second call pass — and not even those where the
    preprocess pass produced them on the way (``pre.mem_rows``: the
    batch checker)."""
    table = OpTable(pre, epoch_index)
    if pre.mem_rows is None:
        with traces.open() as readers:
            pre.mem_rows = (*read_mems(readers),
                            [reader._table for reader in readers])
    return AccessModel(ops=table.ops, local=table.local,
                       mems=take_rows(pre), table=table)


def take_rows(pre: PreprocessedTrace) -> Dict[int, MemRows]:
    """The set's memory rows the ingest read (``pre.mem_rows``, which
    lets go of them), checked once against the set's calls
    (:func:`check_mem_rows`) and split per rank."""
    (rows, offsets, tables), pre.mem_rows = pre.mem_rows, None
    offsets = offsets.tolist()
    check_mem_rows(rows, offsets, ensure_call_table(pre))
    return MemRows.split(rows, offsets, tables)


class LiftCache:
    """Placement memo of one rank's view lift: data-maps are placed by
    :func:`~repro.util.intervals.datamap_intervals` (the simulator's own
    placement function), memoized by ``(type_id, base, count)`` for the
    buffers that repeat verbatim (origin/result buffers; loop nests
    register a fresh derived datatype per iteration, so target
    placements rarely repeat).  Datatype ids are rank-local, so is the
    memo."""

    __slots__ = ("_placed",)

    def __init__(self):
        self._placed: Dict[Tuple[int, int, int], IntervalSet] = {}

    def intervals(self, dtype, base: int, count: int) -> IntervalSet:
        key = (dtype.type_id, base, count)
        placed = self._placed.get(key)
        if placed is None:
            placed = self._placed[key] = datamap_intervals(
                base, dtype.datamap, count, dtype.extent)
        return placed


#: ``resolve(win_id, seq, target, req)`` -> ``(epoch, complete_seq)`` of
#: an RMA call: how :func:`_lift_call` learns an op's epoch and
#: completion point (``req`` is ``None`` unless the call is request-based)
Resolve = Callable[[int, int, int, Optional[int]],
                   Tuple[Optional[Epoch], int]]


def _lift_call(pre: PreprocessedTrace, rank: int, event: CallEvent,
               ops: List[RMAOpView], local: List[LocalAccess],
               cache: LiftCache, resolve: Resolve) -> None:
    """Lift one MPI call into RMA op / local-access views — the one
    place a view is built, and the scalar statement of what the
    :class:`OpTable` columns hold.  Every way the call's arguments can
    be wrong ends in an :class:`AnalysisError` naming rank and seq."""
    fn, args, seq = event.fn, event.args, event.seq

    def placed(what: str, dtype, base: int, count: int) -> IntervalSet:
        if count < 0:
            raise AnalysisError(f"rank {rank} seq {seq}: {what} has "
                                f"negative count {count}")
        return _check_address_space(rank, seq, what,
                                    cache.intervals(dtype, base, count))

    try:
        if fn in _RMA_KIND:
            win = pre.window(int(args["win"]))
            target = int(args["target"])
            if target not in win.bases:
                raise AnalysisError(
                    f"rank {rank} seq {event.seq}: RMA target {target} is "
                    f"not a rank of window {win.win_id}")
            origin_dtype = pre.datatype(rank, int(args["origin_dtype"]))
            target_dtype = pre.datatype(rank, int(args["target_dtype"]))
            target_ivs = placed(
                "RMA target", target_dtype,
                win.bases[target]
                + int(args["target_disp"]) * win.disp_units[target],
                int(args["target_count"]))
            origin_ivs = placed(
                "RMA origin buffer", origin_dtype,
                int(args["origin_base"]) + int(args["origin_offset"]),
                int(args["origin_count"]))
            epoch, complete_seq = resolve(
                win.win_id, event.seq, target,
                int(args["req"]) if fn in _REQUEST_RMA else None)
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
                complete_seq=complete_seq,
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
                local.append(LocalAccess(
                    rank=rank, seq=event.seq, access=STORE,
                    intervals=placed(
                        "RMA result buffer", target_dtype,
                        int(args["result_base"])
                        + int(args.get("result_offset", 0)),
                        int(args["target_count"])),
                    var=str(args.get("result_var", "?")),
                    loc=event.loc, fn=fn, origin_of=op))
        elif fn in _BUFFER_CALLS and _lifts_buffer(event):
            intervals = placed(
                f"{fn} buffer", pre.datatype(rank, int(args["dtype"])),
                int(args["base"]) + int(args.get("offset", 0)),
                int(args["count"]))
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
    except (KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(f"rank {rank} seq {seq}: malformed {fn} "
                            f"call: {exc!r}") from exc


# ----------------------------------------------------------------------
# the op table: every lifted call as a row
# ----------------------------------------------------------------------

#: access-kind codes: indices into :data:`repro.core.compat.KINDS`
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

#: the call arguments the lift reads — the columns of the raw argument
#: matrix: RMA calls first, then calls with a logged buffer
_ARG_KEYS = ("win", "target", "origin_base", "origin_offset",
             "origin_count", "origin_dtype", "target_disp", "target_count",
             "target_dtype", "req", "result_base", "result_offset", "op",
             "base", "offset", "count", "dtype", "comm", "root", "req_kind")
_ARG = {key: col for col, key in enumerate(_ARG_KEYS)}
#: logged as strings; the matrix holds table-wide codes for them
_TEXT_ARGS = frozenset({"op", "req_kind"})
_RMA_REQUIRED = [_ARG[key] for key in (
    "win", "target", "origin_base", "origin_offset", "origin_count",
    "origin_dtype", "target_disp", "target_count", "target_dtype")]
_BUFFER_REQUIRED = [_ARG[key] for key in ("base", "count", "dtype")]

#: below this magnitude float64 address arithmetic is exact, so a buffer
#: whose every term stays under it provably lies inside the address
#: space; anything else is re-checked in Python ints by the scalar lift
_EXACT = float(1 << 50)


@lru_cache(maxsize=4096)
def _arg_positions(shape: Shape) -> Optional[Tuple[int, ...]]:
    """Where in a call shape's value list each of :data:`_ARG_KEYS`
    sits (-1: not logged).  ``None`` when the shape logs one of them as
    something else than expected — an int argument as a string, say —
    and its calls are read through their decoded events instead."""
    _fn, keys, kinds = shape
    positions = [-1] * len(_ARG_KEYS)
    for at, (key, kind) in enumerate(zip(keys, kinds)):
        col = _ARG.get(key)
        if col is not None:
            if kind != (KIND_STR if key in _TEXT_ARGS else KIND_INT):
                return None
            positions[col] = at
    return tuple(positions)


#: one buffer population's data-maps, one entry per distinct datatype in
#: use: its positive-length segments (``seg_start`` / ``seg_n`` into
#: ``disp`` / ``length``), its extent, whether it tiles into one interval,
#: the float bounds of one instance (``lo`` / ``hi``), whether every
#: number in it is small enough for exact float arithmetic, and the code
#: of its basic type (-1: none)
_DataMaps = namedtuple(
    "_DataMaps", "seg_start seg_n disp length extent contiguous lo hi "
                 "exact base")


class OpTable:
    """Every call of a trace set that lifts, as rows — the one lift.

    Three row populations, each in ``(rank, trace order)``: the *lifted
    calls* (RMA calls, and two-sided / collective calls that logged a
    buffer), the *ops* among them, and the call-derived *local accesses*
    (an op's origin buffer, then its result buffer if it fetches; a
    buffer call's buffer) — the order ``model.ops`` / ``model.local`` of
    a full view lift would have.

    ========================  ==========================================
    ``call_rank/row/seq``     per lifted call: rank, row in the rank's
                              :class:`CallTable`, seq
    ``call_op/call_local``    its op row (-1: a buffer call), its first
                              local row
    ``rank seq kind win``     per op: issuing rank, seq, kind code
    ``target epoch complete`` (:data:`KIND_CODE`), window id, target rank,
    ``acc call``              index into ``epoch_index.epochs`` (-1: none),
                              completion seq, accumulate code (-1: no
                              accumulate exception possible), call row
    ``target_start/lo/hi``    CSR: op ``o``'s target byte intervals are
                              rows ``target_start[o]:target_start[o + 1]``
    ``l_rank l_seq l_end``    per local: rank, seq, end of its span (the
    ``l_store l_op l_call``   owning op's completion; its own seq for a
                              plain one), whether it writes, owning op
                              row (-1: plain), call row
    ``local_start/lo/hi``     CSR of the locals' byte intervals
    ========================  ==========================================

    Built with array operations only.  Arguments are gathered from the
    trace set's call columns by shape position (either trace format) or
    with one comprehension per argument over the decoded events (codec
    rows, a trace handed over as event lists), and the rows are those of
    the set's one call table.  Every column is validated before it is used
    as an index or placed: a window id, target rank, datatype id,
    communicator rank, count or address the scalar lift would refuse
    sends that call through :func:`_lift_call`, which raises the typed
    error (the first offender in ``(rank, seq)`` order).  Data-maps are
    placed by broadcasting — one interval for a map that tiles, ``count ×
    blocks`` otherwise; no normal form, the joins dedupe — and epochs and
    completions come from :meth:`EpochIndex.enclosing_rows` /
    :meth:`~EpochIndex.completion_rows`.

    A view (:meth:`op_view` / :meth:`local_view`) is built by
    :func:`_lift_call` from the call's event, on first use, together
    with the other views of that call and remembered — so
    ``la.origin_of is op`` holds for any two views taken from one table.
    """

    def __init__(self, pre: PreprocessedTrace, epoch_index: EpochIndex):
        self.nranks = pre.nranks
        #: epoch columns the kernels read (rank, seq bounds)
        self.epochs = epoch_index.columns
        self._pre = pre
        self._epoch_index = epoch_index
        self._caches: Dict[int, LiftCache] = {}
        self._call_lists: Dict[int, list] = {}
        self._built: Dict[int, Tuple[list, list]] = {}
        #: table-wide codes of the string arguments (``op``, ``req_kind``)
        self._codes: Dict[str, int] = {"irecv": 0, "CAS": 1}
        self._windows(pre)
        calls = self._gather(pre)
        self._build(pre, epoch_index, *calls)
        self._publish_obs()

    def _publish_obs(self) -> None:
        rec = obs.get_recorder()
        if not rec.enabled:
            return
        for route, n in self.rows_by_route.items():
            rec.count("analyzer_op_rows_total", n, route=route,
                      help="Calls read into the op table, by route: "
                           "gathered from call columns, or decoded events "
                           "(codec rows, event lists)")
        for kind, n in (("op", self.n_ops), ("local", self.n_local),
                        ("interval", len(self.target_lo)
                         + len(self.local_lo))):
            rec.gauge("analyzer_op_table_rows", n, kind=kind,
                      help="The last op table: RMA ops, call-derived local "
                           "accesses, byte-interval rows")

    def __getstate__(self) -> dict:
        """The columns only: what a pool worker's kernels read."""
        return {name: value for name, value in self.__dict__.items()
                if not name.startswith("_")
                and name not in ("ops", "local")}

    # ------------------------------------------------------- registries

    def _windows(self, pre: PreprocessedTrace) -> None:
        """The window registry as arrays: sorted ids, and per (window,
        rank) base / size / displacement unit / whether it takes part —
        with one more, empty row at the end, which is where the index of
        an unknown window (-1) lands."""
        ids = sorted(pre.windows)
        shape = (len(ids) + 1, pre.nranks)
        cells = {name: [[0] * pre.nranks for _ in range(shape[0])]
                 for name in ("base", "size", "unit")}
        member = np.zeros(shape, dtype=bool)
        for w, win_id in enumerate(ids):
            info = pre.windows[win_id]
            for rank, base in info.bases.items():
                if 0 <= rank < pre.nranks:
                    member[w, rank] = True
                    cells["base"][w][rank] = base
                    cells["size"][w][rank] = max(info.sizes.get(rank, 0), 0)
                    cells["unit"][w][rank] = info.disp_units[rank]
        try:
            self.win_ids = np.array(ids, dtype=np.int64)
            self.win_base, self.win_size, self.win_unit = (
                np.array(cells[name], dtype=np.int64).reshape(shape)
                for name in ("base", "size", "unit"))
        except OverflowError:
            raise AnalysisError(
                "a window's id, base, size or displacement unit lies "
                "outside int64") from None
        self.win_member = member

    def window_index(self, win: np.ndarray) -> np.ndarray:
        """Row of each window id in the ``win_*`` arrays, -1: unknown."""
        at = np.searchsorted(self.win_ids, win)
        known = at < len(self.win_ids)
        known[known] = self.win_ids[at[known]] == win[known]
        return np.where(known, at, -1)

    # ----------------------------------------------------------- gather

    def _gather(self, pre: PreprocessedTrace):
        """Every :data:`_LIFT_CALLS` call of the trace set: rank, call
        table row, seq, fn code, the raw argument matrix, which of its
        cells were logged, and the rows that could not be read."""
        calls = ensure_call_table(pre)
        wanted = per_fn(dict.fromkeys(_LIFT_CALLS, 1), 0) > 0
        odd = np.nonzero(wanted[calls.fn])[0]
        parts = []
        if pre.call_columns is not None:
            part, odd = self._gather_columns(pre.call_columns, calls, odd)
            parts.append(part)
        self.rows_by_route = {"columnar": len(parts[0][0]) if parts else 0,
                              "codec": len(odd)}
        if len(odd):
            parts.append(self._gather_events(pre, calls, odd))
        if not parts:
            return (*(np.empty(0, dtype=np.int64) for _ in range(4)),
                    np.empty((0, len(_ARG_KEYS)), dtype=np.int64),
                    np.empty((0, len(_ARG_KEYS)), dtype=bool),
                    np.empty(0, dtype=bool))
        if len(parts) == 1:
            return parts[0]
        merged = [np.concatenate(cols) for cols in zip(*parts)]
        order = np.lexsort((merged[1], merged[0]))
        return tuple(col[order] for col in merged)

    def _gather_columns(self, cols: CallColumns, calls, at: np.ndarray):
        """The columnar route: the arguments of the call table rows
        ``at`` gathered from the set's value pool by shape position —
        one gather for the whole trace set — and the rows it leaves to
        :meth:`_gather_events`."""
        # per shape, the plan of its argument positions
        plans: Dict[Optional[tuple], int] = {None: 0}
        plan = np.array(
            [plans.setdefault(_arg_positions(shape), len(plans))
             if shape[0] in _LIFT_CALLS else 0 for shape in cols.shapes]
            + [0], dtype=np.int64)[cols.shape[at]]  # 0: the codec rows
        position = np.array(
            [(-1,) * len(_ARG_KEYS) if p is None else p for p in plans],
            dtype=np.int64)[plan]
        pool, start = cols.vals, cols.val_off[at]
        present = position >= 0
        raw = np.zeros(position.shape, dtype=np.int64)
        if len(pool):
            raw = np.where(present, pool[np.minimum(
                start[:, None] + np.maximum(position, 0), len(pool) - 1)],
                0)
        # string arguments: the set's string ids -> table-wide codes
        for key in _TEXT_ARGS:
            logged = np.nonzero(present[:, _ARG[key]])[0]
            if len(logged):
                ids, inverse = np.unique(raw[logged, _ARG[key]],
                                         return_inverse=True)
                raw[logged, _ARG[key]] = np.array(
                    [self._code(cols.table.strings[i]) for i in ids.tolist()],
                    dtype=np.int64)[inverse]
        keep = plan > 0
        rank = calls.ranks[at[keep]]
        return ((rank, at[keep] - calls.offsets[rank], calls.seq[at[keep]],
                 calls.fn[at[keep]].astype(np.int64), raw[keep],
                 present[keep], np.zeros(len(rank), bool)), at[~keep])

    def _code(self, text: str) -> int:
        return self._codes.setdefault(text, len(self._codes))

    def _gather_events(self, pre, calls, at: np.ndarray):
        """The codec route: the decoded events of the call table rows
        ``at`` (codec rows, shapes the columnar route could not plan,
        event lists), one comprehension per logged argument over the
        calls of one form."""
        rank = calls.ranks[at]
        row, seq = at - calls.offsets[rank], calls.seq[at]
        fn = calls.fn[at].astype(np.int64)
        cut = np.searchsorted(at, calls.offsets).tolist()
        events = [event for r in range(pre.nranks)
                  for event in self._call_events(r, row[cut[r]:cut[r + 1]])]
        raw = np.zeros((len(events), len(_ARG_KEYS)), dtype=np.int64)
        present = np.zeros(raw.shape, dtype=bool)
        unread = np.zeros(len(events), dtype=bool)
        forms: Dict[tuple, List[int]] = {}
        for i, event in enumerate(events):
            forms.setdefault(tuple(event.args), []).append(i)
        for keys, members in forms.items():
            args = [events[i].args for i in members]
            for key in keys:
                col = _ARG.get(key)
                if col is None:
                    continue
                values = [a[key] for a in args]
                try:
                    if key in _TEXT_ARGS:
                        values = [self._code(str(v)) for v in values]
                    elif not all(type(v) is int for v in values):
                        values = [int(v) for v in values]
                    raw[members, col] = np.array(values, dtype=np.int64)
                    present[members, col] = True
                except (TypeError, ValueError, OverflowError):
                    unread[members] = True   # the scalar lift words it
        return rank, row, seq, fn, raw, present, unread

    # ------------------------------------------------------------- lift

    def _build(self, pre: PreprocessedTrace, epoch_index: EpochIndex,
               rank, row, seq, fn, raw, present, unread) -> None:
        arg = {key: raw[:, col] for key, col in _ARG.items()}
        has = {key: present[:, col] for key, col in _ARG.items()}
        kind = per_fn({name: KIND_CODE[kind]
                       for name, kind in _RMA_KIND.items()}, -1)[fn]
        is_op = kind >= 0
        writes = per_fn(dict.fromkeys(_BUFFER_CALLS - _CALL_LOADS, 1), 0)
        by_request = per_fn(dict.fromkeys(_REQUEST_RMA, 1), 0)[fn] > 0
        is_bcast = fn == fn_code("Bcast")
        lifts = is_op | (
            present[:, _BUFFER_REQUIRED].all(axis=1)
            & ((fn != fn_code("Wait"))
               | (has["req_kind"] & (arg["req_kind"] == self._codes["irecv"]))))

        # -- validation: everything the scalar lift would refuse -------
        suspect = unread.copy()
        suspect |= is_op & ~(present[:, _RMA_REQUIRED].all(axis=1)
                             & (has["req"] | ~by_request))
        w = self.window_index(arg["win"])
        target = arg["target"]
        t0 = np.where((target >= 0) & (target < self.nranks), target, 0)
        suspect |= is_op & ~((t0 == target) & self.win_member[w, t0])
        buffer = lifts & ~is_op
        root_world = np.zeros(len(fn), dtype=np.int64)
        if (buffer & is_bcast).any():
            at = np.nonzero(buffer & is_bcast)[0]
            known, root_world[at] = self._comm_rank(
                pre, arg["comm"][at], arg["root"][at],
                has["comm"][at] & has["root"][at])
            suspect[at[~known]] = True

        ops = np.nonzero(is_op & lifts)[0]
        # locals, in model.local order: per lifted call its origin (or
        # plain) buffer, then the result buffer of a fetching op
        call = np.nonzero(lifts)[0]
        n_local = 1 + (is_op & has["result_base"])[call]
        l_call, slot = expand_ranges(np.zeros(len(call), dtype=np.int64),
                                     n_local)
        at = call[l_call]            # row of each local in the raw matrix
        result = slot == 1
        plain = ~is_op[at]
        terms = [
            np.where(plain, arg["base"][at], np.where(
                result, arg["result_base"][at], arg["origin_base"][at])),
            np.where(plain, np.where(has["offset"][at], arg["offset"][at], 0),
                     np.where(result, np.where(has["result_offset"][at],
                                               arg["result_offset"][at], 0),
                              arg["origin_offset"][at]))]
        l_count = np.where(plain, arg["count"][at], np.where(
            result, arg["target_count"][at], arg["origin_count"][at]))
        l_type = np.where(plain, arg["dtype"][at], np.where(
            result, arg["target_dtype"][at], arg["origin_dtype"][at]))
        unit = self.win_unit[w[ops], t0[ops]]
        t_base = self.win_base[w[ops], t0[ops]]
        maps, (t_map, l_map), unknown = self._datamaps(
            pre, (rank[ops], rank[at]), (arg["target_dtype"][ops], l_type))
        suspect[ops[unknown[0]]] = True
        suspect[at[unknown[1]]] = True
        suspect[ops] |= _beyond(
            maps, t_map, arg["target_count"][ops],
            [t_base.astype(float),
             arg["target_disp"][ops].astype(float) * unit.astype(float)])
        suspect[at] |= _beyond(maps, l_map, l_count,
                               [term.astype(float) for term in terms])
        suspect = (suspect & lifts) | unread
        if suspect.any():
            self._refuse(pre, rank, row, np.nonzero(suspect)[0])

        # -- the columns ------------------------------------------------
        self.call_rank, self.call_row, self.call_seq = \
            rank[call], row[call], seq[call]
        op_of = np.full(len(fn), -1, dtype=np.int64)
        op_of[ops] = np.arange(len(ops))
        self.call_op = op_of[call]
        self.call_local = np.cumsum(n_local) - n_local
        self.rank, self.seq, self.kind = rank[ops], seq[ops], kind[ops]
        self.win, self.target = arg["win"][ops], target[ops]
        self.call = np.searchsorted(call, ops)
        self.epoch = epoch_index.enclosing_rows(
            self.rank, self.win, self.seq, self.target)
        self.complete = epoch_index.completion_rows(
            self.rank, self.win, self.seq, self.target, self.epoch,
            arg["req"][ops], by_request[ops])
        cas = fn[ops] == fn_code("Compare_and_swap")
        acc_op = np.where(cas, self._codes["CAS"],
                          np.where(has["op"][ops], arg["op"][ops], -1))
        # an op's first local is its origin buffer: the origin datatype
        acc_base = maps.base[l_map[self.call_local[self.call]]]
        self.acc = np.where(
            (self.kind == KIND_CODE[ACC]) & (acc_op >= 0) & (acc_base >= 0),
            acc_op * (int(maps.base.max(initial=0)) + 1) + acc_base, -1)
        self.target_start, self.target_lo, self.target_hi = _place(
            maps, t_map, t_base + arg["target_disp"][ops] * unit,
            arg["target_count"][ops])

        self.l_call = l_call
        self.l_rank, self.l_seq = rank[at], seq[at]
        self.l_op = np.where(plain, -1, op_of[at])
        self.l_end = np.where(plain, self.l_seq,
                              self.complete[np.maximum(self.l_op, 0)])
        self.l_store = np.where(
            plain, np.where(is_bcast[at], root_world[at] != rank[at],
                            writes[fn[at]] > 0),
            result | (kind[at] == KIND_CODE[GET]))
        self.local_start, self.local_lo, self.local_hi = _place(
            maps, l_map, terms[0] + terms[1], l_count)
        self._slot = slot
        self.n_ops, self.n_local = len(ops), len(at)
        self.ops: Sequence[RMAOpView] = Views(self.n_ops, self.op_view)
        self.local: Sequence[LocalAccess] = Views(self.n_local,
                                                  self.local_view)

    def _comm_rank(self, pre, comm, root, logged):
        """``pre.world_of_comm_rank`` for columns: which calls name a
        rank of a known communicator, and that rank's world rank."""
        ids = sorted(pre.comms)
        size = np.array([len(pre.comms[c]) for c in ids], dtype=np.int64)
        members = np.array([r for c in ids for r in pre.comms[c]],
                           dtype=np.int64)
        at = np.minimum(np.searchsorted(ids, comm), len(ids) - 1)
        known = logged & (np.array(ids, dtype=np.int64)[at] == comm) \
            & (root >= 0) & (root < size[at])
        world = np.zeros(len(comm), dtype=np.int64)
        world[known] = members[(np.cumsum(size) - size)[at[known]]
                               + root[known]]
        return known, world

    def _datamaps(self, pre, ranks, type_ids):
        """The data-maps of the datatypes the populations use: one
        :class:`_DataMaps` over the distinct ``(rank, type id)`` pairs,
        per population the index of each row's entry, and which rows
        name a datatype their rank never defined."""
        rank = np.concatenate(ranks)
        type_id = np.concatenate(type_ids)
        ids = group_ids(rank, type_id)
        first = np.unique(ids, return_index=True)[1]
        seg_n, disp, length, extent, tiles, lo, hi, exact, base, missing = (
            [], [], [], [], [], [], [], [], [], [])
        # per datatype object (ranks share the primitive ones): its
        # segments and what is said of it
        said: Dict[int, tuple] = {}
        for r, t in zip(rank[first].tolist(), type_id[first].tolist()):
            dtype = pre.datatypes[r].get(t) if 0 <= r < pre.nranks else None
            entry = said.get(id(dtype))
            if entry is None:
                segments = [seg for seg in dtype.datamap if seg[1] > 0] \
                    if dtype is not None else []
                ext = dtype.extent if dtype is not None else 0
                low = float(min((seg[0] for seg in segments), default=0))
                high = float(max((seg[0] + seg[1] for seg in segments),
                                 default=0))
                entry = said[id(dtype)] = (
                    segments, ext, len(segments) == 1
                    and segments[0][1] == ext, low, high,
                    max(abs(low), abs(high), abs(float(ext))) < _EXACT,
                    self._code(dtype.base) if dtype is not None
                    and dtype.base is not None else -1)
            segments = entry[0]
            missing.append(dtype is None)
            seg_n.append(len(segments))
            disp.extend(seg[0] for seg in segments)
            length.extend(seg[1] for seg in segments)
            for column, value in zip(
                    (extent, tiles, lo, hi, exact, base), entry[1:]):
                column.append(value)
        try:
            seg_n, disp, length, extent = (
                np.array(col, dtype=np.int64)
                for col in (seg_n, disp, length, extent))
        except OverflowError:
            raise AnalysisError("a datatype's data-map or extent lies "
                                "outside int64") from None
        maps = _DataMaps(
            np.cumsum(seg_n) - seg_n, seg_n, disp, length, extent,
            np.array(tiles, dtype=bool), np.array(lo), np.array(hi),
            np.array(exact, dtype=bool), np.array(base, dtype=np.int64))
        missing = np.array(missing, dtype=bool)[ids]
        cut = len(ranks[0])
        return (maps, (ids[:cut], ids[cut:]), (missing[:cut], missing[cut:]))

    def _refuse(self, pre, rank, row, suspects: np.ndarray) -> None:
        """Run the scalar lift over the suspect calls, in (rank, seq)
        order: it raises the typed error the first real offender
        deserves; a call it accepts was only too large for the float
        screen, and its columns are exact all the same (int64
        arithmetic that does not leave the address space does not
        wrap)."""
        for k in suspects.tolist():
            self._lifted(int(rank[k]), int(row[k]),
                         lambda *_call: (None, OPEN_ENDED))

    # ------------------------------------------------------------ views

    def _call_events(self, rank: int, rows: np.ndarray) -> List[CallEvent]:
        """The events of rows ``rows`` of rank ``rank``'s calls."""
        events = self._pre.events[rank]
        if isinstance(events, CallColumns):
            return events.take(rows)
        calls = self._call_lists.get(rank)
        if calls is None:
            # a typed event list has memory events in between
            calls = self._call_lists[rank] = [
                e for e in events if isinstance(e, CallEvent)]
        return [calls[k] for k in rows.tolist()]

    def _lifted(self, rank: int, row: int,
                resolve: Resolve) -> Tuple[list, list]:
        """The views of one call — the materialiser: the only caller of
        :func:`_lift_call`."""
        cache = self._caches.get(rank)
        if cache is None:
            cache = self._caches[rank] = LiftCache()
        ops: List[RMAOpView] = []
        local: List[LocalAccess] = []
        event = self._call_events(rank, np.array([row]))[0]
        _lift_call(self._pre, rank, event, ops, local, cache, resolve)
        return ops, local

    def _views(self, call: int) -> Tuple[list, list]:
        built = self._built.get(call)
        if built is None:
            op = int(self.call_op[call])

            def resolve(*_call):
                epoch = int(self.epoch[op])
                return (self._epoch_index.epochs[epoch] if epoch >= 0
                        else None), int(self.complete[op])

            built = self._built[call] = self._lifted(
                int(self.call_rank[call]), int(self.call_row[call]),
                resolve)
            count_views("op", len(built[0]))
            count_views("local", len(built[1]))
        return built

    def prefetch(self, ops: np.ndarray, local: np.ndarray) -> None:
        """Build the call events behind the views about to be asked for
        (op rows, local rows) rank by rank rather than one at a time:
        lazy call columns decode a batch of rows much cheaper than the
        same rows singly."""
        calls = np.unique(np.concatenate([self.call[ops],
                                          self.l_call[local]]))
        calls = calls[[c not in self._built for c in calls.tolist()]]
        ranks = self.call_rank[calls]
        for rank in np.unique(ranks).tolist():
            events = self._pre.events[rank]
            if isinstance(events, CallColumns):
                events.take(self.call_row[calls[ranks == rank]])

    def op_view(self, op: int) -> RMAOpView:
        """The :class:`RMAOpView` of op row ``op``."""
        return self._views(int(self.call[op]))[0][0]

    def local_view(self, local: int) -> LocalAccess:
        """The :class:`LocalAccess` of local row ``local``."""
        return self._views(int(self.l_call[local]))[1][
            int(self._slot[local])]

    # ------------------------------------------------------- unit views

    @cached_property
    def ops_by_epoch(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR ``(start, rows)``: the ops of epoch ``e``, in table
        order, are ``rows[start[e]:start[e + 1]]``."""
        return _by_key(self.epoch, len(self.epochs.rank))

    @cached_property
    def attached_by_epoch(self) -> Tuple[np.ndarray, np.ndarray]:
        """The same for the locals attached to each epoch's ops."""
        owner = np.where(self.l_op >= 0,
                         self.epoch[np.maximum(self.l_op, 0)]
                         if self.n_ops else -1, -1)
        return _by_key(owner, len(self.epochs.rank))

    @cached_property
    def plain(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The plain (buffer-call) locals sorted by ``(rank, seq)``:
        local rows, ranks, seqs."""
        rows = np.nonzero(self.l_op < 0)[0]
        rows = rows[np.lexsort((self.l_seq[rows], self.l_rank[rows]))]
        return rows, self.l_rank[rows], self.l_seq[rows]


def _by_key(key: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR grouping of row indices by a key in ``[0, n)`` (negative keys
    are left out), rows in ascending order within a key."""
    rows = np.nonzero(key >= 0)[0]
    rows = rows[np.argsort(key[rows], kind="stable")]
    return np.searchsorted(key[rows], np.arange(n + 1)), rows


def _beyond(maps: _DataMaps, which: np.ndarray, count: np.ndarray,
            terms: List[np.ndarray]) -> np.ndarray:
    """Which buffers are not *provably* inside ``[0, 2**63)``: a float64
    screen that is exact while every term stays below :data:`_EXACT`.
    ``terms`` sum to the buffer's base address."""
    base = sum(terms)
    span = np.maximum(count - 1, 0).astype(float) \
        * maps.extent[which].astype(float)
    lo = base + maps.lo[which] + np.minimum(span, 0.0)
    hi = base + maps.hi[which] + np.maximum(span, 0.0)
    sound = maps.exact[which] & (lo >= 0) & (hi < _EXACT) \
        & (np.abs(span) < _EXACT)
    for term in terms:
        sound &= np.abs(term) < _EXACT
    return (count < 0) | ((count > 0) & (maps.seg_n[which] > 0) & ~sound)


def _place(maps: _DataMaps, which: np.ndarray, base: np.ndarray,
           count: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place row ``k``'s data-map ``count[k]`` times at ``base[k]``: CSR
    ``(start, lo, hi)`` byte intervals per row.  A map that tiles is one
    interval; any other is its blocks once per repetition, as they come
    (unsorted, overlapping: the joins do not care)."""
    n = len(which)
    live = (count > 0) & (maps.seg_n[which] > 0)
    tiles = np.nonzero(live & maps.contiguous[which])[0]
    seg = maps.seg_start[which[tiles]]
    owner = [tiles]
    lo = [base[tiles] + maps.disp[seg]]
    hi = [lo[0] + count[tiles] * maps.length[seg]]
    rest = np.nonzero(live & ~maps.contiguous[which])[0]
    if len(rest):
        # (row, repetition) pairs, then each pair's blocks
        pair, rep = expand_ranges(np.zeros(len(rest), dtype=np.int64),
                                  count[rest])
        entry = which[rest][pair]
        each, seg = expand_ranges(maps.seg_start[entry], maps.seg_n[entry])
        at = base[rest][pair][each] + rep[each] * maps.extent[entry][each] \
            + maps.disp[seg]
        lo.append(at)
        hi.append(at + maps.length[seg])
        owner.append(rest[pair][each])
    owner = np.concatenate(owner)
    order = np.argsort(owner, kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    return start, np.concatenate(lo)[order], np.concatenate(hi)[order]
