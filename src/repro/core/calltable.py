"""Struct-of-arrays call tables — the control phases' input.

The memory events are columnar from the tracer through the sweep engine
(packed MemBlock columns never become Python objects); a
:class:`CallTable` is the same for the call stream: a struct-of-arrays
view — seq numbers, fn codes, a sync-class code, and the handful of
argument columns the matching / epoch / clock passes actually read
(communicator, window, peer, tag, request, lock target, PSCW group) —
of every rank's calls, stacked with a rank column.  One table per trace
set, shared by every control phase:

* ``EpochIndex`` pairs only the epoch-relevant rows (mask + take instead
  of a full event scan), ``OpTable`` gathers the lifted calls' rows, and
  :func:`repro.core.matching.match_synchronization` (Algorithm 1) sorts
  the sync rows into channels by the rank column;
* the shard plan reads a rank's rows, :meth:`CallTable.view`.

One builder.  Each rank file hands over its calls as columns
(:meth:`~repro.profiler.tracer.TraceReader.rank_calls`: stored so by a
binary trace, read into the same columns from the call lines of a
text trace); :func:`~repro.profiler.tracer.stack_calls` stacks the set's
into one :class:`~repro.profiler.callcols.CallColumns`, and
:meth:`CallTable.from_columns` classifies each *shape* once and gathers
each table column once; no call becomes an object on the way.  A call
the columns cannot hold (an argument past int64, say) is a *codec row*,
checked one by one by :class:`CallIngest`; :meth:`CallTable.from_events`
builds the same table from typed events (``preprocess()``,
``tests/reference/``).

Who turns calls into :class:`CallEvent` objects, then?  Only the phases
that read a call's *arguments*: the registry scan (window, communicator
and datatype constructors), the views of the op table (RMA calls, calls
with a logged buffer), and whatever walks a whole stream (tools,
incremental slice digests).  They select their rows by fn code with
:func:`rows_calling` and build those rows alone
(:meth:`~repro.profiler.callcols.CallColumns.take`).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.profiler.callcols import (
    KIND_INT, KIND_LIST, KIND_STR, CallColumns, Shape,
)
from repro.profiler.events import (
    COLLECTIVE_CALLS, DATATYPE_CALLS, NB_COLLECTIVE_CALLS, ONE_SIDED_CALLS,
    SUPPORT_CALLS, SYNC_CALLS, CallEvent, decode_event,
)
from repro.util.errors import TraceFormatError
from repro.util.intervals import expand_ranges

if TYPE_CHECKING:
    from repro.core.preprocess import PreprocessedTrace

SEND_CALLS = frozenset({"Send", "Isend"})


# ----------------------------------------------------------------------
# fn codes (shared, process-local interning; tables that cross a process
# boundary carry their name snapshot and remap on arrival)
# ----------------------------------------------------------------------

FN_NAMES: List[str] = sorted(
    ONE_SIDED_CALLS | DATATYPE_CALLS | SYNC_CALLS | SUPPORT_CALLS)
_FN_CODES: Dict[str, int] = {fn: i for i, fn in enumerate(FN_NAMES)}


def fn_code(fn: str) -> int:
    code = _FN_CODES.get(fn)
    if code is None:
        code = len(FN_NAMES)
        FN_NAMES.append(fn)
        _FN_CODES[fn] = code
    return code


def per_fn(values: Dict[str, int], default: int) -> np.ndarray:
    """An array over fn codes: ``values[name]`` at each named call's
    code, ``default`` elsewhere."""
    codes = {fn_code(name): value for name, value in values.items()}
    out = np.full(len(FN_NAMES), default, dtype=np.int64)
    out[list(codes)] = list(codes.values())
    return out


#: sync-class codes stored in ``CallTable.cls``
CLS_OTHER = 0
CLS_COLL = 1
CLS_SEND = 2
CLS_RECV = 3
CLS_POST = 4
CLS_START = 5
CLS_COMPLETE = 6
CLS_WAIT = 7        # Win_wait (PSCW exposure close)
CLS_ICOLL_WAIT = 8  # Wait completing a nonblocking collective

#: human-readable names of the sync-class codes (trace_stats, dashboards)
CLS_NAMES = {
    CLS_OTHER: "other", CLS_COLL: "collective", CLS_SEND: "send",
    CLS_RECV: "recv", CLS_POST: "post", CLS_START: "start",
    CLS_COMPLETE: "complete", CLS_WAIT: "wait",
    CLS_ICOLL_WAIT: "icoll_wait",
}

#: lock-type codes stored in ``CallTable.lock`` (3 = see ``lock_types``)
LOCK_NONE = 0
LOCK_SHARED = 1
LOCK_EXCLUSIVE = 2
LOCK_OTHER = 3
_LOCK_CODES = {"shared": LOCK_SHARED, "exclusive": LOCK_EXCLUSIVE}
#: the lock type each code but ``LOCK_OTHER`` stands for
LOCK_NAMES = (None, "shared", "exclusive")

_REQ_KIND_NONE = 0
_REQ_KIND_IRECV = 1
_REQ_KIND_ICOLL = 2
_REQ_KIND_OTHER = 3

#: the row tuple for calls that touch no control-plane column
_PLAIN_ROW = (CLS_OTHER, -1, -1, -1, -1, -1, _REQ_KIND_NONE, -1,
              LOCK_NONE, ())


def classify_call(fn: str, args: Dict[str, Any]
                  ) -> Tuple[Tuple[int, ...], Optional[str]]:
    """The :class:`CallTable` row for one call: ``((fn_code, cls, comm,
    win, peer, tag, req, req_kind, target, lock, group), lock_str)``.

    ``peer`` is the *raw* (communicator-relative) dest/source — world
    resolution needs the merged registries and happens vectorized in the
    matcher.  Missing columns are -1.  A call that lacks an argument its
    row needs, or logs a non-integer there, is a
    :class:`TraceFormatError`.
    """
    try:
        return _classify_call(fn, args)
    except KeyError as exc:
        raise TraceFormatError(
            f"call record {fn!r} lacks argument {exc}") from None
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"call record {fn!r} has a malformed argument: {exc}") from None


def _classify_call(fn: str, args: Dict[str, Any]
                   ) -> Tuple[Tuple[int, ...], Optional[str]]:
    cls = CLS_OTHER
    comm = win = peer = tag = req = target = -1
    req_kind = _REQ_KIND_NONE
    lock = LOCK_NONE
    lock_str: Optional[str] = None
    group: Tuple[int, ...] = ()
    if fn in COLLECTIVE_CALLS:
        cls = CLS_COLL
        if "comm" in args:
            comm = int(args["comm"])
        if "win" in args:
            win = int(args["win"])
        if fn in NB_COLLECTIVE_CALLS:
            req = int(args["req"])
    elif fn in SEND_CALLS:
        cls = CLS_SEND
        comm = int(args["comm"])
        peer = int(args["dest"])
        tag = int(args["tag"])
    elif fn == "Recv":
        cls = CLS_RECV
        comm = int(args["comm"])
        peer = int(args["source"])
        tag = int(args["tag"])
    elif fn == "Wait":
        rk = args.get("req_kind")
        if rk == "irecv" and "source" in args:
            cls = CLS_RECV
            req_kind = _REQ_KIND_IRECV
            comm = int(args["comm"])
            peer = int(args["source"])
            tag = int(args["tag"])
        elif rk == "icoll":
            cls = CLS_ICOLL_WAIT
            req_kind = _REQ_KIND_ICOLL
            req = int(args["req"])
        elif rk is not None:
            req_kind = _REQ_KIND_OTHER
    elif fn == "Win_post":
        cls = CLS_POST
        win = int(args["win"])
        group = tuple(int(r) for r in args["group"])
    elif fn == "Win_start":
        cls = CLS_START
        win = int(args["win"])
        group = tuple(int(r) for r in args["group"])
    elif fn == "Win_complete":
        cls = CLS_COMPLETE
        win = int(args["win"])
    elif fn == "Win_wait":
        cls = CLS_WAIT
        win = int(args["win"])
    elif fn == "Win_lock":
        win = int(args["win"])
        target = int(args["target"])
        lock_str = str(args["lock_type"])
        lock = _LOCK_CODES.get(lock_str, LOCK_OTHER)
    elif fn == "Win_lock_all":
        win = int(args["win"])
        lock = LOCK_SHARED
    elif fn in ("Win_unlock", "Win_flush"):
        win = int(args["win"])
        target = int(args["target"])
    elif fn in ("Win_unlock_all", "Win_flush_all"):
        win = int(args["win"])
    elif fn == "Rma_wait":
        win = int(args["win"])
        req = int(args["req"])
    else:
        return (fn_code(fn),) + _PLAIN_ROW, None
    return ((fn_code(fn), cls, comm, win, peer, tag, req, req_kind, target,
             lock, group), lock_str)


#: calls whose table row depends on the *value* of a string argument
_TEXT_ARGUMENT = {"Wait": "req_kind", "Win_lock": "lock_type"}

_NOT_AN_INT = "\0"
#: the plan row of calls classified one by one
_NO_PLAN = (0, 0, 0, 0) + (-1,) * 7


def _text_argument(fn: str, keys: Tuple[str, ...],
                   kinds: Tuple[int, ...]) -> Optional[int]:
    """Position of the string argument :func:`classify_call` reads the
    text of, in a shape that logs it as a string."""
    key = _TEXT_ARGUMENT.get(fn)
    if key in keys and kinds[keys.index(key)] == KIND_STR:
        return keys.index(key)
    return None


@lru_cache(maxsize=4096)
def _shape_plan(shape: Shape, text: Optional[str]) -> Optional[tuple]:
    """:func:`classify_call` for every call of one shape at once:
    ``((fn code, cls, req_kind, lock, *sources), lock_str)``, where the
    seven ``sources`` name the argument position that feeds each of
    ``comm, win, peer, tag, req, target, group`` (-1: none).  ``text`` is
    the value of the shape's :data:`_TEXT_ARGUMENT`.

    Found by classifying a probe call whose every int argument holds its
    own position.  ``None`` when that does not work — a control argument
    missing, or logged as a string or a list — and the rows must be
    classified one by one, which is also where a malformed call gets its
    error."""
    fn, keys, kinds = shape
    probe: Dict[str, Any] = {
        key: pos if kind == KIND_INT else (pos,) if kind == KIND_LIST
        else _NOT_AN_INT
        for pos, (key, kind) in enumerate(zip(keys, kinds))}
    if _TEXT_ARGUMENT.get(fn) in probe:
        if text is None:
            return None
        probe[_TEXT_ARGUMENT[fn]] = text
    try:
        row, lock_str = _classify_call(fn, probe)
    except (KeyError, TypeError, ValueError):
        return None
    code, cls, comm, win, peer, tag, req, req_kind, target, lock, group = row
    return ((code, cls, req_kind, lock, comm, win, peer, tag, req, target,
             group[0] if group else -1),
            lock_str if lock == LOCK_OTHER else None)


class CallTable:
    """Struct-of-arrays view of the call streams of a trace set.

    Built from the attributes in ``__slots__`` order: ``rank`` (of a
    one-rank table, :meth:`view`; ``None`` for several), ``n``, then
    parallel int columns over the ``n`` calls — rank by rank, each
    rank's in trace order — from ``seq`` to ``lock``; ``group`` is
    ragged (``group_off``/``group_val`` CSR pair); ``lock_types``
    carries the rare lock-type strings that are neither ``shared`` nor
    ``exclusive`` (row index -> string); last the rank column
    ``ranks``, and ``offsets``, the first row of each of ``rank_ids``.
    """

    __slots__ = ("rank", "n", "seq", "fn", "cls", "comm", "win", "peer",
                 "tag", "req", "req_kind", "target", "lock",
                 "group_off", "group_val", "lock_types", "ranks", "offsets",
                 "rank_ids")

    def __init__(self, *attributes: Any):
        for name, value in zip(self.__slots__, attributes):
            setattr(self, name, value)

    def group(self, i: int) -> Tuple[int, ...]:
        lo, hi = self.group_off[i], self.group_off[i + 1]
        return tuple(self.group_val[lo:hi].tolist())

    def view(self, k: int) -> "CallTable":
        """The rows of rank ``rank_ids[k]``, sliced (offsets rebased)."""
        lo, hi = int(self.offsets[k]), int(self.offsets[k + 1])
        g0, g1 = int(self.group_off[lo]), int(self.group_off[hi])
        return CallTable(                             # seq ... lock, sliced
            self.rank_ids[k], hi - lo, *(getattr(self, name)[lo:hi] for name
                                         in self.__slots__[2:13]),
            self.group_off[lo:hi + 1] - g0, self.group_val[g0:g1],
            {row - lo: text for row, text in self.lock_types.items()
             if lo <= row < hi}, self.ranks[lo:hi], np.array([0, hi - lo]),
            self.rank_ids[k:k + 1])

    # -- construction ---------------------------------------------------

    @classmethod
    def from_events(cls, rank: int, events: Sequence[Any]) -> "CallTable":
        """Build from already-materialized events (non-call events are
        skipped) — the table of a trace that was not read by
        ``read_calls``, and of the codec rows of one that was."""
        return cls.from_streams({rank: events})

    @classmethod
    def from_streams(cls, streams: Dict[int, Sequence[Any]]) -> "CallTable":
        """:meth:`from_events` of several ranks' events, stacked."""
        seqs: List[int] = []
        rows: List[Tuple[int, ...]] = []
        lock_types: Dict[int, str] = {}
        sizes = []
        for events in streams.values():
            sizes.append(len(seqs))
            for event in events:
                if not isinstance(event, CallEvent):
                    continue
                row, lock_str = classify_call(event.fn, event.args)
                if lock_str is not None and row[9] == LOCK_OTHER:
                    lock_types[len(seqs)] = lock_str
                seqs.append(event.seq)
                rows.append(row)
        n = len(seqs)
        offsets = np.array(sizes + [n], dtype=np.int64)
        cols = list(zip(*rows)) or [()] * 11
        groups = cols[10]
        group_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, groups), dtype=np.int64, count=n),
                  out=group_off[1:])
        group_val = np.fromiter((v for g in groups for v in g),
                                dtype=np.int64, count=int(group_off[-1]))
        column = (np.array(values, dtype=dtype) for values, dtype in zip(
            [seqs] + cols[:10],
            (np.int64, np.int32, np.uint8) + (np.int64,) * 5
            + (np.uint8, np.int64, np.uint8)))
        rank_ids = list(streams)
        return cls(rank_ids[0] if len(rank_ids) == 1 else None, n, *column,
                   group_off, group_val, lock_types,
                   np.repeat(np.array(rank_ids, dtype=np.int64),
                             np.diff(offsets)), offsets, rank_ids)

    @classmethod
    def from_columns(cls, cols: CallColumns) -> "CallTable":
        """Build from call columns — a trace set's, of either format or
        both — without building an event: one
        :func:`classify_call` per shape says which
        argument position feeds which table column, one gather per
        column moves the values.  Rows the columns do not describe —
        calls that took the codec route, shapes that log a control
        argument as a string — are classified one by one and scattered
        into place; the result equals ``from_events(list(cols))``."""
        n, vals = cols.n, cols.vals
        starts = cols.val_off[:-1]
        nshapes = len(cols.shapes)
        # one plan per shape id; ``None`` marks rows classified one by
        # one (the codec rows' id ``nshapes`` among them).  A shape whose
        # class depends on a string argument's value splits into one
        # virtual shape, with its own plan, per distinct value.
        shape_of = cols.shape.astype(np.int64)
        plans = [_shape_plan(shape, None) for shape in cols.shapes] + [None]
        split = [(index, at) for index, shape in enumerate(cols.shapes)
                 for at in [_text_argument(*shape)] if at is not None]
        for index, at in split:
            rows = np.nonzero(cols.shape == index)[0]
            ids = vals[starts[rows] + at]
            plan_of = np.zeros(len(cols.table.strings), dtype=np.int64)
            for sid in set(ids.tolist()):
                plan_of[sid] = len(plans)
                plans.append(_shape_plan(cols.shapes[index],
                                         cols.table.strings[sid]))
            shape_of[rows] = plan_of[ids]
        # per row: its plan's constants and, for the seven argument
        # columns, the pool entry that holds the value (or -1)
        picked = np.array([plan[0] if plan else _NO_PLAN for plan in plans],
                          dtype=np.int64)[shape_of]
        source = picked[:, 4:]
        if len(vals):
            taken = np.where(source >= 0, vals[starts[:, None] + source], -1)
        else:
            taken = np.full((n, 7), -1, dtype=np.int64)
        comm, win, peer, tag, req, target, group_len = \
            np.ascontiguousarray(taken.T)
        fn, kind, req_kind, lock = np.ascontiguousarray(picked[:, :4].T)
        np.maximum(group_len, 0, out=group_len)
        lock_types: Dict[int, str] = {}
        for k, plan in enumerate(plans):
            if plan is not None and plan[1] is not None:
                lock_types.update(dict.fromkeys(
                    np.nonzero(shape_of == k)[0].tolist(), plan[1]))
        # rows classified one by one: as the codec decoded them, or here
        unplanned = np.array([plan is None for plan in plans])
        unplanned[nshapes] = False
        odd_rows = np.nonzero(unplanned[shape_of])[0]
        parts = []     # (only their columns are read: rank -1)
        if cols.codec:
            parts.append((np.nonzero(cols.shape == nshapes)[0],
                          cls.from_events(-1, cols.codec.values())))
        if len(odd_rows):
            parts.append((odd_rows, cls.from_events(
                -1, cols.take(odd_rows))))
        columns = {"fn": fn, "cls": kind, "comm": comm, "win": win,
                   "peer": peer, "tag": tag, "req": req,
                   "req_kind": req_kind, "target": target, "lock": lock}
        for rows, part in parts:
            for name, column in columns.items():
                column[rows] = getattr(part, name)
            group_len[rows] = np.diff(part.group_off)
            lock_types.update((int(rows[i]), text)
                              for i, text in part.lock_types.items())
        # the ragged group column: offsets from the lengths, then the
        # elements, from the list pool and from the row-wise parts
        group_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(group_len, out=group_off[1:])
        group_val = np.empty(int(group_off[-1]), dtype=np.int64)
        if len(group_val):
            grouped = np.nonzero(source[:, 6] >= 0)[0]
            entry = starts[grouped] + source[grouped, 6]
            _rep, dst = expand_ranges(group_off[:-1][grouped],
                                      group_len[grouped])
            _rep, src = expand_ranges(
                cols.list_start[cols.list_before[entry]],
                group_len[grouped])
            group_val[dst] = cols.lists[src]
            for rows, part in parts:
                _rep, dst = expand_ranges(group_off[:-1][rows],
                                          group_len[rows])
                group_val[dst] = part.group_val
        return cls(cols.rank, n, cols.seq, fn.astype(np.int32),
                   kind.astype(np.uint8), comm, win, peer, tag, req,
                   req_kind.astype(np.uint8), target,
                   lock.astype(np.uint8), group_off, group_val, lock_types,
                   cols.ranks, cols.offsets, cols.rank_ids)

    # -- pickling (cross-process fn-code remapping) ---------------------

    def __getstate__(self) -> dict:
        return dict({name: getattr(self, name) for name in self.__slots__},
                    fn_names=list(FN_NAMES))

    def __setstate__(self, state: dict) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])
        self.fn = _remap_fn_codes(self.fn, state["fn_names"])


def _remap_fn_codes(codes: np.ndarray, names: List[str]) -> np.ndarray:
    """Translate fn codes minted in another process into local codes."""
    if names == FN_NAMES[:len(names)]:
        return codes  # identical prefix — the common (static-table) case
    remap = np.fromiter((fn_code(fn) for fn in names), dtype=np.int64,
                        count=len(names))
    return remap[codes].astype(np.int32)


@lru_cache(maxsize=None)
def _fn_codes(fns: FrozenSet[str]) -> np.ndarray:
    return np.array(sorted(fn_code(fn) for fn in fns), dtype=np.int32)


def rows_calling(table: "CallTable", fns: FrozenSet[str]) -> np.ndarray:
    """The rows of ``table`` whose call is one of ``fns``."""
    wanted = np.zeros(len(FN_NAMES), dtype=bool)
    wanted[_fn_codes(fns)] = True
    return np.nonzero(wanted[table.fn])[0]


def ensure_call_table(pre: "PreprocessedTrace") -> CallTable:
    """The one call table of ``pre``'s trace set, every rank stacked —
    built from the materialized events, with its per-rank views, if
    ingest did not already attach it."""
    if pre.call_table is None:
        pre.call_table = CallTable.from_streams(
            {rank: pre.events[rank] for rank in range(pre.nranks)})
        pre.call_tables = {rank: pre.call_table.view(rank)
                           for rank in range(pre.nranks)}
    return pre.call_table


def ensure_call_tables(pre: "PreprocessedTrace") -> Dict[int, CallTable]:
    """The per-rank views of :func:`ensure_call_table`."""
    ensure_call_table(pre)
    return pre.call_tables


def total_calls(pre: "PreprocessedTrace") -> int:
    """Number of call events in the trace."""
    return ensure_call_table(pre).n


# ----------------------------------------------------------------------
# calls classified one by one (the codec rows of a reader)
# ----------------------------------------------------------------------

_PACK_INT64 = struct.Struct("<11q").pack


def check_call(fn: str, args: Dict[str, Any], seq: int = 0) -> None:
    """Raise the :class:`TraceFormatError` that says why a call has no
    :class:`CallTable` row: it does not classify, or its row or its seq
    lies outside the int64 columns — asked by packing them as int64, the
    one range check that runs at C speed."""
    row, _lock = classify_call(fn, args)
    try:
        _PACK_INT64(seq, *row[:10])
        if row[10]:
            struct.pack(f"<{len(row[10])}q", *row[10])
    except struct.error:
        raise TraceFormatError(f"call record {fn!r} at seq {seq} has a "
                               "field outside int64") from None


class CallIngest:
    """The calls of one rank that its reader does not put into columns
    — ``C`` frames, records the column encoder refused — decoded by the
    record codec and checked one by one: results and errors are those of
    :func:`repro.profiler.events.decode_event` and :func:`check_call`."""

    def __init__(self, rank: int):
        self.rank = rank

    def add(self, line: str):
        """The event of one record; a call comes back only if it has a
        table row."""
        event = decode_event(self.rank, line)
        if isinstance(event, CallEvent):
            check_call(event.fn, event.args, event.seq)
        return event
