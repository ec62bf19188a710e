"""Trace preprocessing (section IV-C-1): communicators, windows, datatypes.

The per-rank traces record MPI calls with the arguments visible at the PMPI
layer.  Before any analysis, DN-Analyzer must rebuild three registries:

a. **communicators/groups** — membership and rank order of every
   communicator, so group-relative ranks can be resolved to absolute
   (world) ranks;
b. **window buffers** — which byte range each rank exposes in each window;
c. **datatypes** — the data-map of every derived datatype, reconstructed
   by replaying each rank's ``Type_*`` calls (datatype ids are per-rank,
   exactly as MPI handles are local).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.calltable import rows_calling
from repro.profiler.events import DATATYPE_CALLS, CallEvent, Event
from repro.profiler.tracer import (
    FORMAT_BINARY, TraceReader, TraceSet, read_mems, stack_calls,
)
from repro.util.datatypes import (
    PRIMITIVES_BY_ID, WORLD_COMM_ID, Datatype, DatatypeFactory,
)
from repro.util.errors import AnalysisError
from repro.util.intervals import IntervalSet


@dataclass
class WindowInfo:
    """Per-window registry entry: what every rank exposes."""

    win_id: int
    comm_id: int
    bases: Dict[int, int] = field(default_factory=dict)
    sizes: Dict[int, int] = field(default_factory=dict)
    disp_units: Dict[int, int] = field(default_factory=dict)
    var_names: Dict[int, str] = field(default_factory=dict)
    #: memoized per-rank exposure sets (IntervalSet is immutable; the
    #: detectors query the same (window, rank) exposure per access)
    _exposure_cache: Dict[int, IntervalSet] = \
        field(default_factory=dict, repr=False, compare=False)

    def exposure(self, rank: int) -> IntervalSet:
        """The byte interval rank ``rank`` exposes (empty if none)."""
        cached = self._exposure_cache.get(rank)
        if cached is None:
            size = self.sizes.get(rank, 0)
            cached = (IntervalSet.single(self.bases[rank], size)
                      if size > 0 else IntervalSet())
            self._exposure_cache[rank] = cached
        return cached


@dataclass
class RankScan:
    """The registry-relevant facts of one rank's trace, each kind of
    record in trace order — what :func:`scan_rank` collects and
    ``PreprocessedTrace._merge`` folds, rank by rank, into the
    communicator, window and datatype registries (``Comm_split``
    ordering, window exposure maps and per-rank datatype tables do not
    depend on the order ranks are merged in)."""

    rank: int
    #: (win, comm, base, size, disp_unit, var-or-None), in trace order
    windows: List[Tuple[int, int, int, int, int, Optional[str]]] = \
        field(default_factory=list)
    #: (newcomm, parent, key), in trace order
    splits: List[Tuple[int, int, int]] = field(default_factory=list)
    #: (newcomm, parent), in trace order
    dups: List[Tuple[int, int]] = field(default_factory=list)
    #: (newcomm, world-rank members), in trace order
    creates: List[Tuple[int, Tuple[int, ...]]] = field(default_factory=list)
    #: derived datatypes replayed from this rank's ``Type_*`` calls
    datatypes: Dict[int, Datatype] = field(default_factory=dict)
    #: total events in the rank's trace (calls + loads/stores)
    n_events: int = 0


#: the calls :func:`scan_rank` reads the arguments of
REGISTRY_CALLS = DATATYPE_CALLS | {"Win_create", "Comm_split", "Comm_dup",
                                   "Comm_create"}


def scan_rank(rank: int, events: Sequence[Event],
              n_events: Optional[int] = None) -> RankScan:
    """Single pass over one rank's events collecting registry records.

    ``n_events`` overrides the recorded trace-event total for call-only
    event lists (the memory events were counted elsewhere, e.g. by a
    binary trace footer, and never materialized) — as for the
    :data:`REGISTRY_CALLS` events alone, which is what the call-only
    preprocess scans."""
    scan = RankScan(rank=rank,
                    n_events=len(events) if n_events is None else n_events)
    factory = DatatypeFactory()

    def resolve(type_id: int) -> Datatype:
        dt = scan.datatypes.get(type_id) or PRIMITIVES_BY_ID.get(type_id)
        if dt is None:
            raise AnalysisError(f"rank {rank}: unknown datatype id {type_id}")
        return dt

    # a registry call the analysis cannot read (an argument missing or
    # of another type: a file whose shape table lies) is refused typed
    try:
        for event in events:
            if not isinstance(event, CallEvent):
                continue
            fn, args = event.fn, event.args
            if fn == "Win_create":
                scan.windows.append((
                    int(args["win"]), int(args["comm"]), int(args["base"]),
                    int(args["size"]), int(args["disp_unit"]),
                    str(args["var"]) if "var" in args else None))
            elif fn == "Comm_split":
                newcomm = int(args["newcomm"])
                if newcomm >= 0:
                    scan.splits.append((newcomm, int(args["comm"]),
                                        int(args["key"])))
            elif fn == "Comm_dup":
                scan.dups.append((int(args["newcomm"]), int(args["comm"])))
            elif fn == "Comm_create":
                newcomm = int(args["newcomm"])
                if newcomm >= 0:
                    scan.creates.append((newcomm, tuple(
                        int(r) for r in args["group"])))
            elif fn == "Type_contiguous":
                dt = factory.contiguous(int(args["count"]),
                                        resolve(int(args["oldtype"])))
                scan.datatypes[dt.type_id] = dt
            elif fn == "Type_vector":
                dt = factory.vector(
                    int(args["count"]), int(args["blocklength"]),
                    int(args["stride"]), resolve(int(args["oldtype"])))
                scan.datatypes[dt.type_id] = dt
            elif fn == "Type_indexed":
                dt = factory.indexed(
                    list(args["blocklengths"]), list(args["displacements"]),
                    resolve(int(args["oldtype"])))
                scan.datatypes[dt.type_id] = dt
            elif fn == "Type_struct":
                dt = factory.struct(
                    list(args["blocklengths"]), list(args["displacements"]),
                    [resolve(t) for t in args["oldtypes"]])
                scan.datatypes[dt.type_id] = dt
    except (KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(
            f"rank {rank}: {event.fn} call seq {event.seq}: malformed "
            f"argument: {exc!r}") from exc
    return scan


class PreprocessedTrace:
    """All per-rank events plus the reconstructed registries.

    ``events[rank]`` is a sequence of typed events: from the call-only
    preprocess (either trace format) the rank's view of the set's
    :class:`~repro.profiler.callcols.CallColumns`, which builds an event
    when a row is indexed; from :func:`preprocess`, or by hand, a list.
    Phases that read call arguments pick their rows with
    :func:`~repro.core.calltable.rows_calling`; everything else runs off
    ``call_table`` and its per-rank views ``call_tables``.

    ``scans`` short-circuits the per-rank registry scan (the call-only
    preprocess scans each rank once the set is read); the merge here is
    deterministic in rank order.
    """

    def __init__(self, events: Dict[int, Sequence[Event]],
                 scans: Optional[List[RankScan]] = None):
        self.events = events
        self.nranks = len(events)
        self.comms: Dict[int, Tuple[int, ...]] = {
            WORLD_COMM_ID: tuple(range(self.nranks))
        }
        self.windows: Dict[int, WindowInfo] = {}
        self.datatypes: Dict[int, Dict[int, Datatype]] = {
            rank: dict(PRIMITIVES_BY_ID) for rank in range(self.nranks)
        }
        #: the set's one CallTable (repro.core.calltable) and its per-rank
        #: views, and the CallColumns ``events`` views — from the call-only
        #: ingest; else None (ensure_call_table builds the tables)
        self.call_table = self.call_tables = self.call_columns = None
        #: the set's memory rows the call pass read on the way
        #: (:func:`preprocess_readers` with ``mems``): ``(rows, offsets,
        #: string tables)`` of :func:`~repro.profiler.tracer.read_mems`,
        #: taken by ``model.take_rows`` in place of a second read
        self.mem_rows: Optional[tuple] = None
        if scans is None:
            scans = [scan_rank(rank, events[rank])
                     for rank in range(self.nranks)]
        #: total trace events (calls + loads/stores); may exceed the
        #: materialized ``events`` when the build was call-only
        self.total_events = sum(scan.n_events for scan in scans)
        self._merge(scans)

    # ------------------------------------------------------------------

    def comm_members(self, comm_id: int) -> Tuple[int, ...]:
        try:
            return self.comms[comm_id]
        except KeyError:
            raise AnalysisError(f"unknown communicator id {comm_id}") from None

    def world_of_comm_rank(self, comm_id: int, comm_rank: int) -> int:
        members = self.comm_members(comm_id)
        if not 0 <= comm_rank < len(members):
            raise AnalysisError(
                f"comm {comm_id} has no rank {comm_rank} "
                f"(size {len(members)})")
        return members[comm_rank]

    def datatype(self, rank: int, type_id: int) -> Datatype:
        try:
            return self.datatypes[rank][type_id]
        except KeyError:
            raise AnalysisError(
                f"rank {rank}: unknown datatype id {type_id}") from None

    def window(self, win_id: int) -> WindowInfo:
        try:
            return self.windows[win_id]
        except KeyError:
            raise AnalysisError(f"unknown window id {win_id}") from None

    # ------------------------------------------------------------------

    def _merge(self, scans: List[RankScan]) -> None:
        split_members: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
        create_members: Dict[int, Tuple[int, ...]] = {}
        dup_parents: Dict[int, int] = {}

        for scan in sorted(scans, key=lambda s: s.rank):
            rank = scan.rank
            for win, comm, base, size, disp_unit, var in scan.windows:
                info = self.windows.setdefault(win, WindowInfo(win, comm))
                info.bases[rank] = base
                info.sizes[rank] = size
                info.disp_units[rank] = disp_unit
                if var is not None:
                    info.var_names[rank] = var
            for newcomm, parent, key in scan.splits:
                split_members.setdefault(newcomm, (parent, []))[1] \
                    .append((key, rank))
            for newcomm, parent in scan.dups:
                dup_parents[newcomm] = parent
            for newcomm, members in scan.creates:
                create_members[newcomm] = members
            self.datatypes[rank].update(scan.datatypes)

        # Communicator ids are assigned in creation order, so a parent
        # always has a smaller id than its children — resolving ascending
        # guarantees the parent's rank order is available when needed.
        for comm_id, members in create_members.items():
            self.comms[comm_id] = members
        pending_ids = sorted(set(split_members) | set(dup_parents))
        for comm_id in pending_ids:
            if comm_id in dup_parents:
                parent = dup_parents[comm_id]
                if parent not in self.comms:
                    raise AnalysisError(
                        f"Comm_dup of unknown parent comm {parent}")
                self.comms[comm_id] = self.comms[parent]
            else:
                parent, entries = split_members[comm_id]
                if parent not in self.comms:
                    raise AnalysisError(
                        f"Comm_split of unknown parent comm {parent}")
                parent_order = {w: i for i, w in enumerate(self.comms[parent])}
                # MPI_Comm_split rank order: by key, ties by parent rank
                self.comms[comm_id] = tuple(
                    w for _k, _pr, w in sorted(
                        (key, parent_order[w], w) for key, w in entries))


def preprocess(traces: TraceSet) -> PreprocessedTrace:
    """Load all rank traces and build the registries."""
    return PreprocessedTrace(traces.all_events())


def preprocess_calls(traces: TraceSet) -> PreprocessedTrace:
    """Call-only preprocess: every pipeline phase except the access model
    is derivable from call events alone (the observation the streaming
    checker exploits), so the memory events — which dominate trace volume
    — are never turned into Python objects here.  Exact event totals
    still land in ``total_events`` via the readers' per-class counts
    (free for binary traces, counted by the text decoder), and the calls
    stay columns, one stack for the set (``stack_calls``): an event is
    built for the rows a phase indexes.

    This is the batch checker's preprocess: it holds every rank's memory
    rows through detection anyway, so they ride along in ``mem_rows`` —
    decoded by the same bulk pass (text) or expanded from the frames,
    every file's at once (binary) — and the model phase does not open
    the files a second time."""
    return preprocess_calls_with_counts(traces)[0]


def preprocess_calls_with_counts(
        traces: TraceSet
) -> Tuple[PreprocessedTrace, Dict[int, Dict[str, int]]]:
    """:func:`preprocess_calls` plus the per-rank per-class event counts
    the readers produced along the way — the plan executors derive report
    statistics from them: :func:`preprocess_readers` over the set, read
    as one (``traces.open()``), memory rows included."""
    with traces.open() as readers:
        return preprocess_readers(readers, mems=True)


def preprocess_readers(readers: Sequence[TraceReader], mems: bool = False
                       ) -> Tuple[PreprocessedTrace,
                                  Dict[int, Dict[str, int]]]:
    """The call ingest over a set's open readers: its calls stacked and
    checked once, its :data:`REGISTRY_CALLS` events built by one
    ``take`` and split by rank for the scans, each rank's view of the
    call columns and of the call table sliced when a phase first asks
    for it.  With ``mems``, every memory row of the set too, expanded
    once (:func:`read_mems`), with each file's string table, in
    ``pre.mem_rows``; without, the streaming control pass leaves them to
    its forward cursor."""
    parts = [reader.rank_calls(mems=mems) for reader in readers]
    cols, table = stack_calls(parts)
    counts_by_rank = {reader.header.rank: reader.counts()
                      for reader in readers}
    held = (*read_mems(readers), [reader._table for reader in readers]
            ) if mems else None
    binary = [part for part, reader in zip(parts, readers)
              if reader.format == FORMAT_BINARY]
    if binary:
        for route, n in (("columnar", sum(len(seq) for part in binary
                                          for seq in part.seq)),
                         ("codec", sum(len(part.codec) for part in binary))):
            obs.count("trace_call_rows_total", n, route=route,
                      help="Binary trace call rows read, by route")
    rows = rows_calling(table, REGISTRY_CALLS)
    events = cols.take(rows)
    cut = np.searchsorted(rows, table.offsets).tolist()
    scans = [scan_rank(rank, events[cut[rank]:cut[rank + 1]],
                       n_events=counts["call"] + counts["mem"])
             for rank, counts in counts_by_rank.items()]
    nranks = len(readers)
    pre = PreprocessedTrace(RankViews(cols.view, nranks), scans=scans)
    pre.call_columns, pre.call_table = cols, table
    pre.call_tables = RankViews(table.view, nranks)
    pre.mem_rows = held
    return pre, counts_by_rank


class RankViews(Mapping):
    """``rank -> make(rank)`` for ranks ``0 .. nranks - 1``, each made
    the first time it is asked for: a rank's slice of the set's call
    columns or call table."""

    def __init__(self, make: Callable[[int], object], nranks: int):
        self._make, self._nranks = make, nranks
        self._made: Dict[int, object] = {}

    def __getitem__(self, rank: int):
        view = self._made.get(rank)
        if view is None:
            if not 0 <= rank < self._nranks:
                raise KeyError(rank)
            view = self._made[rank] = self._make(rank)
        return view

    def __iter__(self):
        return iter(range(self._nranks))

    def __len__(self) -> int:
        return self._nranks
