"""The shard plan: the one cut every non-batch executor runs over.

DN-Analyzer decomposes in exactly one way.  Concurrent regions are
separated by global synchronization, so no conflicting pair crosses a
region boundary, and no within-epoch pair crosses an epoch (sections
IV-C-3/4).  A *shard* is a maximal run of regions closed under both — no
epoch interior, op span or local-access span reaches over its boundary —
so shards are independent, and any way of running them (all at once, in
chunks, only the changed ones, a few at a time) concatenates to the
serial result.  This module states that once:

* :func:`build_control_state` — everything derivable from call events
  alone, the :class:`~repro.core.model.OpTable` (the one lift, the same
  the serial route checks over) as its model;
* :class:`ShardPlan` — regions grouped into shards, as arrays;
  :meth:`~ShardPlan.units` names the sweep kernels' work units of the
  shards asked for as index arrays (epoch ids, region ids — nothing is
  lifted or copied), :meth:`~ShardPlan.merge` restores the serial
  concatenation order over any subset of results;
* :func:`find_shards` / :func:`emit_shards` — the two sweep kernels,
  once each, over a list of shard units: first the pairs that are
  findings, with their rules, as arrays (what a pool worker runs), then
  their views and findings, split back per shard (always in the process
  that holds the call events); :func:`run_shards` is one after the
  other;
* :class:`_RowLoader` — how a plan executor gets memory rows: a rank at
  a time, or as a forward cursor; :class:`SharedReaders` — one open
  reader per rank file for an executor that passes over them again.

The executors are policies over it: ``jobs > 1`` ships chunks of the
plan to the worker pool (:mod:`~repro.core.parallel`), the incremental
checker re-runs only the shards whose content keys moved
(:mod:`~repro.core.incremental`), the streaming checker releases
consecutive shards under a row budget (:mod:`~repro.core.streaming`).
The serial batch route (:class:`~repro.core.checker.MCChecker`) is the
degenerate plan: one shard, every unit, over the same table.

Shard grouping: regions ``i`` and ``i + 1`` share a shard when an epoch
*interior* or a call span reaches over both.  The interior —
``contains_seq`` is exclusive on both ends — is what matters: every
input of an epoch unit (ops, attached and plain locals, memory rows)
lies strictly between the opening and closing synchronization, and
grouping by the full span would chain-merge every fence-delimited region
(consecutive fence epochs share their boundary cut) into one shard.  An
epoch left open to the end of the trace merges everything from its
opening region onward — coarse, but sound.  Within a shard, findings are
keyed by the epoch's position among the shard's epochs / the region's
offset in the shard — fixed by the shard's content, unlike a trace-wide
position — which lets :meth:`ShardPlan.merge` reproduce the cold order.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro import obs
from repro.core.calltable import CallTable, ensure_call_tables
from repro.core.clocks import ConcurrencyOracle
from repro.core.diagnostics import ConsistencyError
from repro.core.engine import (
    RegionMembers, Survivors, emit_epoch_findings, emit_region_findings,
    find_epoch_pairs, find_region_pairs,
)
from repro.core.epochs import EpochIndex, LocalLockIndex
from repro.core.matching import match_synchronization
from repro.core.model import MemRows, OpTable, check_mem_rows
from repro.core.preprocess import (
    PreprocessedTrace, preprocess_calls_with_counts,
)
from repro.core.regions import RegionIndex
from repro.profiler.tracer import MEM_DTYPE, TraceReader, TraceSet
from repro.util.hashing import hash_strings
from repro.util.intervals import expand_ranges, grouped_searchsorted

#: one shard's findings: ``(intra, inter)`` lists of ``(position,
#: findings)`` — the epoch's position among the shard's epochs / the
#: region's offset in the shard — holding only units that found something
ShardFindings = Tuple[List[Tuple[int, List[ConsistencyError]]],
                      List[Tuple[int, List[ConsistencyError]]]]

#: one shard's detector inputs, as index arrays: its epoch units (ids
#: into ``epoch_index.epochs``) tagged with each one's position among
#: the shard's epochs, its region units tagged with each one's offset in
#: the shard (what :meth:`ShardPlan.merge` orders by), and how many
#: lifted calls lie inside it
ShardUnits = namedtuple("ShardUnits",
                        "epoch_at epochs region_at regions calls")


def phase_timer(timings: Dict[str, float]) -> Callable:
    """``timed(name, fn, **attrs)``: run ``fn`` under the obs span
    ``analyzer.<name>`` and add its duration to ``timings[name]``
    (``CheckStats.phase_seconds``), whether or not it was recorded."""
    rec = obs.get_recorder()

    def timed(name: str, fn: Callable, **attrs):
        with rec.span(f"analyzer.{name}", **attrs) as sp:
            result = fn()
        timings[name] = timings.get(name, 0.0) + sp.duration
        return result
    return timed


# -------------------------------------------------------- control state


@dataclass
class ControlState:
    """Everything the control pass derives from call events alone:
    registries, synchronization matches, the happens-before oracle,
    epochs, the op table and concurrent regions."""

    pre: PreprocessedTrace
    matches: list
    oracle: ConcurrencyOracle
    epochs: EpochIndex
    table: OpTable
    regions: RegionIndex
    #: per-rank per-class event counts from the trace readers
    counts: Dict[int, Dict[str, int]]

    @cached_property
    def lock_index(self) -> LocalLockIndex:
        return LocalLockIndex(self.epochs)

    @cached_property
    def members(self) -> RegionMembers:
        return RegionMembers(self.table, self.regions)

    def sizes(self) -> Dict[str, int]:
        """The size fields of ``CheckStats``, counted as the batch model
        does: call-derived locals plus a row per instrumented access."""
        return dict(
            nranks=self.pre.nranks, events=self.pre.total_events,
            rma_ops=self.table.n_ops,
            local_accesses=self.table.n_local + sum(
                c["mem"] for c in self.counts.values()),
            sync_matches=len(self.matches), regions=len(self.regions),
            epochs=len(self.epochs.epochs))


def build_control_state(traces: TraceSet, timed=None) -> ControlState:
    """Run the call-only control pass over a trace set (memory events
    are stepped over undecoded, whole packed blocks at a time in binary
    traces).  ``timed`` is a :func:`phase_timer`; the phases keep the
    batch pipeline's names."""
    timed = timed or phase_timer({})
    pre, counts = timed("preprocess",
                        lambda: preprocess_calls_with_counts(traces))
    matches = timed("matching", lambda: match_synchronization(pre),
                    nranks=pre.nranks, events=pre.total_events)
    oracle = timed("clocks", lambda: ConcurrencyOracle(pre, matches))
    epochs = timed("epochs", lambda: EpochIndex(pre))
    table = timed("model", lambda: OpTable(pre, epochs))
    regions = timed("regions", lambda: RegionIndex(pre, matches))
    return ControlState(pre, matches, oracle, epochs, table, regions,
                        counts)


# ------------------------------------------------------------- the plan


@dataclass
class ShardPlan:
    """The shards of one control state as parallel arrays (one entry per
    shard unless noted)."""

    #: first / last region index (inclusive)
    first: np.ndarray
    last: np.ndarray
    #: epoch indices grouped by shard, in index order within one, and the
    #: ``n_shards + 1`` offsets of the groups
    epoch_ids: np.ndarray
    epoch_start: np.ndarray
    #: ``(n_regions + 1, nranks)``: row ``r`` is region ``r``'s lo seq at
    #: every rank, row ``r + 1`` its hi
    bounds: np.ndarray
    #: memory rows inside each shard, summed over ranks — from the seq
    #: bounds and the call tables alone (a trace record index is a call
    #: or a row), so planning reads no row
    rows: np.ndarray

    @classmethod
    def build(cls, control: ControlState) -> "ShardPlan":
        pre, regions = control.pre, control.regions
        nranks, n = pre.nranks, len(regions)
        epochs = control.epochs.columns

        # group: regions i and i+1 share a shard when an epoch interior
        # or a call span reaches over both; an epoch's home is the first
        # region of its interior
        home, reach = regions.regions_of_spans(
            epochs.rank, epochs.open_seq + 1, epochs.close_seq - 1)
        members = control.members
        first = np.concatenate([home, members.op_span[0],
                                members.local_span[0]])
        last = np.concatenate([reach, members.op_span[1],
                               members.local_span[1]])
        over = first < last
        cover = (np.bincount(first[over], minlength=n + 1)
                 - np.bincount(last[over], minlength=n + 1))
        breaks = np.nonzero(np.cumsum(cover)[:n - 1] <= 0)[0]
        first = np.concatenate([[0], breaks + 1])
        last = np.concatenate([breaks, [n - 1]])
        n_shards = len(first)
        shard_of_region = np.repeat(np.arange(n_shards), last - first + 1)
        epoch_shard = shard_of_region[np.minimum(home, n - 1)]
        bounds = regions.bounds

        # rows before each cut: the cut's seq less the calls before it;
        # pinned to the reader's count at the end of the trace
        before = np.zeros((n + 1, nranks), dtype=np.int64)
        tables = ensure_call_tables(pre)
        for rank in range(nranks):
            cuts = regions.cuts[rank]
            total = control.counts[rank]["mem"]
            before[1:n, rank] = np.clip(
                cuts - np.searchsorted(tables[rank].seq, cuts), 0, total)
            before[n, rank] = total
        return cls(
            first=first, last=last,
            epoch_ids=np.argsort(epoch_shard, kind="stable"),
            epoch_start=np.concatenate([[0], np.cumsum(
                np.bincount(epoch_shard, minlength=n_shards))]),
            bounds=bounds,
            rows=(before[last + 1] - before[first]).sum(axis=1))

    def __len__(self) -> int:
        return len(self.first)

    @cached_property
    def lo(self) -> np.ndarray:
        """``(nranks, n_shards)``: a shard's calls have ``lo < seq <=
        hi`` (the cut that closes a region feeds that region's locals),
        its memory rows ``lo < seq < hi``."""
        return self.bounds[self.first].T

    @cached_property
    def hi(self) -> np.ndarray:
        return self.bounds[self.last + 1].T

    def sizes(self, shard: int) -> Tuple[int, int]:
        """How many epochs and regions the shard holds."""
        return (int(self.epoch_start[shard + 1] - self.epoch_start[shard]),
                int(self.last[shard] - self.first[shard]) + 1)

    def publish_obs(self, releases: int) -> None:
        """The plan as gauges; ``releases`` is how many pieces the
        executor ran it in — stream: releases; pool: chunks; cache:
        dirty shards."""
        for key, value in (("shards", len(self)), ("releases", releases),
                           ("largest_shard_rows", int(self.rows.max()))):
            obs.gauge(f"analyzer_plan_{key}", value,
                      help="The last analysis' shard plan: shards, memory "
                           "rows of the largest, pieces it ran in")

    def units(self, control: ControlState,
              shards: Sequence[int]) -> List[ShardUnits]:
        """The detector inputs of ``shards`` (ascending) as index
        arrays: which of each shard's epochs and regions hold an op —
        the kernels' units — and where in the shard they sit.  Nothing
        is lifted or copied; memory rows are named by the units' seq
        bounds, so a unit pickles as a few small arrays."""
        table, members = control.table, control.members
        shards = np.asarray(list(shards), dtype=np.int64)
        cuts = np.arange(len(shards) + 1)
        has_op = np.zeros(len(control.epochs.epochs), dtype=bool)
        has_op[table.epoch[table.epoch >= 0]] = True
        shard, at = expand_ranges(
            self.epoch_start[shards],
            self.epoch_start[shards + 1] - self.epoch_start[shards])
        keep = has_op[self.epoch_ids[at]]
        shard, at = shard[keep], at[keep]
        epochs, epoch_at = self.epoch_ids[at], at - self.epoch_start[shards][shard]
        epoch_cut = np.searchsorted(shard, cuts)
        start, _rows = members.ops
        shard, regions = expand_ranges(
            self.first[shards], self.last[shards] - self.first[shards] + 1)
        keep = np.diff(start)[regions] > 0
        shard, regions = shard[keep], regions[keep]
        region_at = regions - self.first[shards][shard]
        region_cut = np.searchsorted(shard, cuts)
        # lifted calls inside: ``lo < seq <= hi`` at every rank
        nranks = control.pre.nranks
        ranks = np.repeat(np.arange(nranks), len(shards))
        before = grouped_searchsorted(
            table.call_rank, table.call_seq, np.concatenate([ranks, ranks]),
            np.concatenate([self.hi[:, shards].ravel(),
                            self.lo[:, shards].ravel()]), side="right")
        calls = (before[:len(ranks)] - before[len(ranks):]).reshape(
            nranks, -1).sum(axis=0)
        return [ShardUnits(epoch_at[a:b], epochs[a:b], region_at[c:d],
                           regions[c:d], n)
                for a, b, c, d, n in zip(
                    epoch_cut[:-1].tolist(), epoch_cut[1:].tolist(),
                    region_cut[:-1].tolist(), region_cut[1:].tolist(),
                    calls.tolist())]

    def merge(self, per_shard: Iterable[Tuple[int, ShardFindings]]
              ) -> List[ConsistencyError]:
        """``(shard, findings)`` pairs, in any order, back in the cold
        concatenation order: intra findings in epoch-index order, then
        inter findings in region order — the pre-sort list order decides
        each duplicate group's surviving representative, so callers
        ``dedupe(sort_findings(...))`` the result."""
        intra, inter = [], []
        for shard, (by_epoch, by_region) in per_shard:
            ids = self.epoch_ids[self.epoch_start[shard]:]
            intra.extend((int(ids[k]), errors) for k, errors in by_epoch)
            inter.extend((int(self.first[shard]) + offset, errors)
                         for offset, errors in by_region)
        return [error for part in (intra, inter)
                for _at, errors in sorted(part, key=lambda p: p[0])
                for error in errors]


def ranks_read(units: List[ShardUnits], control: ControlState) -> List[int]:
    """The only ranks whose memory rows the kernels read for ``units``:
    epoch ranks and op targets."""
    table = control.table
    start, rows = control.members.ops
    regions = _strung(unit.regions for unit in units)
    _unit, at = expand_ranges(start[regions],
                              start[regions + 1] - start[regions])
    return np.union1d(
        table.epochs.rank[_strung(unit.epochs for unit in units)],
        table.target[rows[at]]).tolist()


def _strung(parts: Iterable[np.ndarray]) -> np.ndarray:
    """The units' index arrays back to back (none: an empty array)."""
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def find_shards(units: List[ShardUnits], table: OpTable,
                members: RegionMembers, oracle: ConcurrencyOracle,
                memory_model: str, mems: Dict[int, MemRows]
                ) -> Tuple[Survivors, Survivors]:
    """Run each sweep kernel's finding half once over every unit of
    ``units``: the intra and the inter pairs that are findings, with
    their rules, as arrays (units numbered through the shards, in
    order).
    Reads columns only — what a pool worker holds.  ``mems`` maps the
    ranks the units read to :class:`MemRows` holding at least the rows
    inside the units' bounds — whole ranks from the row-loader or the
    attached shared segments, a release's rows from the forward
    cursor."""
    return (
        find_epoch_pairs(table, _strung(unit.epochs for unit in units),
                         mems, memory_model),
        find_region_pairs(table, members,
                          _strung(unit.regions for unit in units), mems,
                          oracle, memory_model))


def emit_shards(units: List[ShardUnits],
                survivors: Tuple[Survivors, Survivors],
                control: ControlState,
                mems: Dict[int, MemRows]) -> List[ShardFindings]:
    """The emitting half: views and findings for what
    :func:`find_shards` found (row indices in ``mems`` must mean what
    they meant there), split back per shard, keeping the units that
    found something."""
    intra = iter(emit_epoch_findings(
        control.table, mems, survivors[0],
        sum(len(unit.epochs) for unit in units)))
    inter = iter(emit_region_findings(
        control.table, mems, control.pre, control.lock_index,
        survivors[1], sum(len(unit.regions) for unit in units)))

    def part(positions: np.ndarray, found) -> list:
        return [(at, errors)
                for at, errors in zip(positions.tolist(), found) if errors]

    return [(part(unit.epoch_at, intra), part(unit.region_at, inter))
            for unit in units]


def run_shards(units: List[ShardUnits], control: ControlState,
               memory_model: str, mems: Dict[int, MemRows]
               ) -> List[ShardFindings]:
    """Both halves in this process: each shard's findings."""
    return emit_shards(
        units, find_shards(units, control.table, control.members,
                           control.oracle, memory_model, mems),
        control, mems)


# ------------------------------------------------------------ row access


class SharedReaders:
    """A :class:`TraceSet` as a plan executor that passes over the files
    more than once sees it: ``reader(rank)`` opens a rank file the first
    time it is asked for, hands the same reader to every later ``with``,
    and all of them close when this object's own ``with`` ends — digest
    verification, the control pass and the row loader of an incremental
    run share one reader per rank."""

    def __init__(self, traces: TraceSet):
        self._traces = traces
        self.nranks = traces.nranks
        self._open: Dict[int, TraceReader] = {}

    @contextmanager
    def reader(self, rank: int) -> Iterator[TraceReader]:
        reader = self._open.get(rank)
        if reader is None:
            reader = self._open[rank] = self._traces.reader(rank)
        yield reader

    def release(self, rank: int) -> None:
        """Close ``rank``'s reader now; asked for again, it reopens."""
        self._open.pop(rank).close()

    def __enter__(self) -> "SharedReaders":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for rank in list(self._open):
            self.release(rank)


class _RowLoader:
    """How a plan executor gets memory rows, and the count of what it
    read.  Whole-rank (:meth:`packed` / :meth:`rows`): each rank at most
    once per run — as one struct array for the slice digests, as
    :class:`MemRows` columns for the kernels.  Forward cursor
    (:meth:`take`): the rows before a seq bound, then forgotten.  One
    loader serves one of the two.  Every row is checked
    (:func:`~repro.core.model.check_mem_rows`) against its rank's call
    table in ``calls`` as it is read."""

    def __init__(self, traces: TraceSet, calls: Dict[int, CallTable]):
        self._traces = traces
        self._calls = calls
        #: rank -> [struct array (until the columns replace it), string
        #: table, string-table digest]
        self._packed: Dict[int, list] = {}
        self._rows: Dict[int, MemRows] = {}
        #: cursor state: rank -> [block iterator, string table, rows read
        #: past the last bound]
        self._cursor: Dict[int, list] = {}
        self.rows_loaded = 0

    def packed(self, rank: int) -> list:
        entry = self._packed.get(rank)
        if entry is None:
            with self._traces.reader(rank) as reader:
                blocks = list(reader.mem_blocks())
                # concatenate copies, which detaches the rows from the map
                rows = (np.concatenate([block.array for block in blocks])
                        if blocks else np.empty(0, dtype=MEM_DTYPE))
            check_mem_rows(rank, rows, self._calls[rank].seq)
            table = blocks[0].table if blocks else None
            entry = self._packed[rank] = [rows, table, hash_strings(
                table.strings if table is not None else [])]
            self.rows_loaded += len(rows)
        return entry

    def rows(self, rank: int) -> MemRows:
        rows = self._rows.get(rank)
        if rows is None:
            entry = self.packed(rank)
            rows = self._rows[rank] = MemRows.from_struct(rank, entry[1],
                                                          entry[0])
            entry[0] = None
        return rows

    @property
    def ranks(self) -> List[int]:
        return sorted(self._packed)

    def _blocks(self, rank: int):
        last = None
        for block in self._traces.mem_blocks(rank):
            # the copy detaches the rows from the map
            rows = np.array(block.array)
            check_mem_rows(rank, rows, self._calls[rank].seq, after=last)
            if len(rows):
                last = int(rows["seq"][-1])
            yield block.table, rows

    def take(self, rank: int, upto: int) -> Optional[MemRows]:
        """Drain the rank's rows with ``seq < upto`` — those not handed
        out by an earlier call — or ``None`` when there are none.
        ``upto`` must not decrease from call to call."""
        state = self._cursor.get(rank)
        if state is None:
            state = self._cursor[rank] = [self._blocks(rank), None, None]
        pieces: List[np.ndarray] = []
        piece, state[2] = state[2], None
        while True:
            if piece is None:
                block = next(state[0], None)
                if block is None:
                    break
                state[1], piece = block
            cut = int(np.searchsorted(piece["seq"], upto))
            if cut:
                pieces.append(piece[:cut])
            if cut < len(piece):
                state[2] = piece[cut:]
                break
            piece = None
        if not pieces:
            return None
        self.rows_loaded += sum(len(piece) for piece in pieces)
        return MemRows.from_struct(
            rank, state[1],
            pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
