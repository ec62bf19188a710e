"""Streaming (online) analysis — the paper's stated future work.

Section VII-B: "While MC-Checker analyzes the traces offline, we can
extend it to perform online analysis by leveraging streaming processing
algorithms in the future."  This module is that extension: a region-at-a-
time checker whose memory footprint is bounded by the synchronization
structure plus a *single concurrent region's* load/store events, rather
than the full trace.

Two passes over the per-rank trace files:

1. **Control pass** (:func:`build_control_state`, shared with the
   incremental checker) — retain only MPI *call* events
   (synchronization, RMA, datatype, support).  These suffice to rebuild
   the registries, match synchronization, build the happens-before
   oracle, identify epochs, and lift the calls: as columns first
   (:class:`~repro.core.model.CallLift`), as RMA operation views on
   demand.  Call events are typically a small fraction of a trace; the
   load/store events the Profiler emits for compute-heavy applications
   dominate (Figure 10).
2. **Data pass** — stream the load/store events region by region (the
   global synchronization cuts are known after pass 1).  Each region is
   analyzed with the same kernel the batch checker uses
   (:func:`~repro.core.engine.detect_regions_sweep`, handed the one
   region) and then discarded; epoch-local accesses are held only until
   their epoch's closing synchronization has been passed, at which point
   :func:`~repro.core.engine.check_epochs_sweep` runs and the buffer is
   freed.  A per-rank cursor (:class:`_EpochCursor`) visits an epoch
   from the region its opening call lies in to the one passing its close.

Findings are identical to the batch pipeline (differential-tested), and
:class:`StreamingChecker.peak_buffered_mems` records the bound actually
achieved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.clocks import ConcurrencyOracle
from repro.core.diagnostics import (
    SEVERITY_ERROR, ConsistencyError, dedupe, sort_findings,
)
from repro.core.engine import check_epochs_sweep, detect_regions_sweep
from repro.core.epochs import Epoch, EpochIndex
from repro.core.inter import LocalLockIndex, bucket_by_region
from repro.core.matching import match_synchronization
from repro.core.model import CallLift, LocalAccess, MemRows
from repro.core.preprocess import (
    PreprocessedTrace, preprocess_calls_with_counts,
)
from repro.core.regions import RegionIndex
from repro.profiler.tracer import TraceSet


@dataclass
class RegionReport:
    """Findings of one concurrent region, emitted as it closes."""

    index: int
    findings: List[ConsistencyError]
    mem_events: int


@dataclass
class ControlState:
    """Everything the control pass derives from call events alone.

    Shared by the streaming checker (pass 1) and the incremental checker
    (whose cache planning is exactly a control pass): registries,
    synchronization matches, the happens-before oracle, epochs, the
    columnar call lift and concurrent regions."""

    pre: PreprocessedTrace
    matches: list
    oracle: ConcurrencyOracle
    epochs: EpochIndex
    lift: CallLift
    regions: RegionIndex
    #: per-rank per-class event counts from the trace readers
    counts: Dict[int, Dict[str, int]]

    @cached_property
    def lock_index(self) -> LocalLockIndex:
        return LocalLockIndex(self.epochs, self.pre.nranks)

    def sizes(self) -> Dict[str, int]:
        """The size fields of ``CheckStats``, counted as the batch model
        does: call-derived locals plus a row per instrumented access."""
        return dict(
            nranks=self.pre.nranks, events=self.pre.total_events,
            rma_ops=self.lift.n_ops,
            local_accesses=self.lift.n_local + sum(
                c["mem"] for c in self.counts.values()),
            sync_matches=len(self.matches), regions=len(self.regions),
            epochs=len(self.epochs.epochs))


def build_control_state(traces: TraceSet, timed=None,
                        pool=None) -> ControlState:
    """Run the call-only control pass over a trace set.

    ``timed(name, fn, **attrs)`` optionally wraps each phase (the
    incremental checker threads its phase-timing helper through); the
    default runs the phases untimed.  ``pool`` optionally provides an
    acquired :class:`~repro.core.parallel.WorkerPool` — the per-rank
    scan then fans out over its workers instead of running serially
    (the result is identical either way)."""
    if timed is None:
        def timed(_name, fn, **_attrs):
            return fn()
    if pool is not None:
        from repro.core.parallel import scan_traceset
        pre, counts = timed("preprocess",
                            lambda: scan_traceset(pool, traces))
    else:
        pre, counts = timed("preprocess",
                            lambda: preprocess_calls_with_counts(traces))
    matches = timed("matching", lambda: match_synchronization(pre),
                    nranks=pre.nranks, events=pre.total_events)
    oracle = timed("clocks", lambda: ConcurrencyOracle(pre, matches))
    epochs = timed("epochs", lambda: EpochIndex(pre))
    lift = timed("model", lambda: CallLift(pre, epochs))
    regions = timed("regions", lambda: RegionIndex(pre, matches))
    return ControlState(pre, matches, oracle, epochs, lift, regions,
                        counts)


class _EpochCursor:
    """The access epochs of a data pass, queued per rank by ``open_seq``:
    :meth:`opened` moves those the pass has reached to the rank's live
    list, :meth:`close` drops the ones it has passed — both in ``(rank,
    open_seq)`` order, the order a scan over every epoch finds them in."""

    def __init__(self, epochs: List[Epoch], nranks: int):
        self._queued: List[List[Epoch]] = [[] for _ in range(nranks)]
        for epoch in reversed(sorted(epochs, key=lambda e: e.open_seq)):
            self._queued[epoch.rank].append(epoch)
        self._live: List[List[Epoch]] = [[] for _ in range(nranks)]

    def opened(self, rank: int, upto: int) -> List[Epoch]:
        """The rank's epochs that can hold an event with ``seq < upto``
        and have not been closed."""
        queued, live = self._queued[rank], self._live[rank]
        while queued and queued[-1].open_seq < upto:
            live.append(queued.pop())
        return live

    def close(self, consumed_upto: List[int]) -> Iterator[Epoch]:
        """Drop and yield every epoch whose closing sync lies before its
        rank's ``consumed_upto``."""
        for rank, upto in enumerate(consumed_upto):
            live = self.opened(rank, upto)
            self._live[rank] = [e for e in live if e.close_seq >= upto]
            yield from (e for e in live if e.close_seq < upto)

    def unclosed(self) -> Iterator[Epoch]:
        """Epochs never closed in the trace (truncated programs)."""
        for live, queued in zip(self._live, self._queued):
            yield from live
            yield from reversed(queued)


class StreamingChecker:
    """Region-at-a-time DN-Analyzer with bounded data-event memory."""

    def __init__(self, traces: TraceSet, memory_model: str = "separate"):
        self.traces = traces
        self.memory_model = memory_model
        self.peak_buffered_mems = 0
        self._control_pass()

    def _control_pass(self) -> None:
        """Pass 1: everything derivable from call events alone (memory
        events are stepped over undecoded, whole packed blocks at a time
        in binary traces).  Every region is analyzed, so every call is
        lifted to views, once, up front."""
        state = self.control = build_control_state(self.traces)
        self.pre = state.pre
        self.oracle = state.oracle
        self.epochs = state.epochs
        self.regions = state.regions
        self.lock_index = state.lock_index
        model = state.lift.views()
        self._ops_by_region, self._call_locals_by_region = \
            bucket_by_region(model, state.regions)
        #: ``id(epoch)`` (epochs are interned in ``epochs``) -> its ops
        #: and their attached origin/result buffers
        self._by_epoch: Dict[int, Tuple[list, List[LocalAccess]]] = {}
        for op in model.ops:
            if op.epoch is not None:
                self._by_epoch.setdefault(id(op.epoch), ([], []))[0] \
                    .append(op)
        for la in model.local:
            if la.origin_of is not None and la.origin_of.epoch is not None:
                self._by_epoch[id(la.origin_of.epoch)][1].append(la)

    def _rank_blocks(self, rank: int):
        """One rank's packed memory blocks ``(table, struct array)``, in
        seq order, never decoded to objects."""
        with self.traces.reader(rank) as reader:
            for block in reader.mem_blocks():
                yield block.table, block.array

    def run(self) -> Iterator[RegionReport]:
        """Pass 2: stream memory events, yielding per-region findings.

        Memory events stay packed as struct-array pieces — sliced per
        region (and per open epoch) with ``searchsorted``, handed to the
        sweep kernels, then discarded."""
        nranks = self.pre.nranks
        streams = [self._rank_blocks(rank) for rank in range(nranks)]
        tables: List = [None] * nranks
        pending: List[Optional[np.ndarray]] = [None] * nranks
        # per-epoch buffered row pieces, freed at epoch close
        epoch_pieces: Dict[int, List[np.ndarray]] = {}
        cursor = _EpochCursor(self.epochs.access_epochs(), nranks)

        def take(rank: int, upto: int) -> List[np.ndarray]:
            """Drain rank's packed rows with seq < upto."""
            pieces: List[np.ndarray] = []
            arr = pending[rank]
            if arr is not None:
                cut = int(np.searchsorted(arr["seq"], upto))
                pieces.append(arr[:cut])
                if cut < len(arr):
                    pending[rank] = arr[cut:]
                    return pieces
                pending[rank] = None
            for table, block_arr in streams[rank]:
                tables[rank] = table
                block_arr = np.array(block_arr)  # detach from the mmap
                cut = int(np.searchsorted(block_arr["seq"], upto))
                pieces.append(block_arr[:cut])
                if cut < len(block_arr):
                    pending[rank] = block_arr[cut:]
                    break
            return [p for p in pieces if len(p)]

        for region in self.regions:
            findings: List[ConsistencyError] = []
            region_pieces: Dict[int, List[np.ndarray]] = {}
            consumed_upto = [min(region.bounds[rank][1] + 1, 1 << 62)
                             for rank in range(nranks)]
            for rank, upto in enumerate(consumed_upto):
                pieces = take(rank, upto)
                if not pieces:
                    continue
                region_pieces[rank] = pieces
                for epoch in cursor.opened(rank, upto):
                    for piece in pieces:
                        seqs = piece["seq"]
                        lo = int(np.searchsorted(seqs, epoch.open_seq,
                                                 side="right"))
                        hi_row = int(np.searchsorted(seqs, epoch.close_seq))
                        if hi_row > lo:
                            epoch_pieces.setdefault(id(epoch), []).append(
                                piece[lo:hi_row])

            mem_events = sum(len(p) for pieces in region_pieces.values()
                             for p in pieces)
            buffered = mem_events + sum(
                len(p) for plist in epoch_pieces.values() for p in plist)
            self.peak_buffered_mems = max(self.peak_buffered_mems, buffered)

            # cross-process pass over this region
            region_ops = self._ops_by_region.get(region.index, [])
            if region_ops:
                region_mems = {
                    rank: MemRows.from_struct(
                        rank, tables[rank],
                        pieces[0] if len(pieces) == 1
                        else np.concatenate(pieces))
                    for rank, pieces in region_pieces.items()}
                unit = (region_ops, self._call_locals_by_region.get(
                    region.index, []), region.bounds)
                findings.extend(detect_regions_sweep(
                    self.pre, [unit], region_mems, self.oracle,
                    self.lock_index, self.memory_model)[0])

            for epoch in cursor.close(consumed_upto):
                findings.extend(self._close_epoch(epoch, epoch_pieces,
                                                  tables))

            yield RegionReport(index=region.index, findings=findings,
                               mem_events=mem_events)

        for epoch in cursor.unclosed():
            findings = self._close_epoch(epoch, epoch_pieces, tables)
            if findings:
                yield RegionReport(index=len(self.regions), mem_events=0,
                                   findings=findings)

    def _close_epoch(self, epoch: Epoch,
                     epoch_pieces: Dict[int, List[np.ndarray]],
                     tables: List) -> List[ConsistencyError]:
        """Run the within-epoch check and free the epoch's rows (only
        *instrumented* rows are buffered per epoch, so the unit's
        call-derived plain locals stay empty)."""
        pieces = epoch_pieces.pop(id(epoch), [])
        unit = self._by_epoch.get(id(epoch))
        if unit is None:  # no op was issued in it: nothing can conflict
            return []
        mems = {}
        if pieces:
            mems[epoch.rank] = MemRows.from_struct(
                epoch.rank, tables[epoch.rank],
                pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
        return check_epochs_sweep([(epoch, *unit, [])], mems,
                                  self.memory_model)[0]


def check_streaming(traces: TraceSet, memory_model: str = "separate"
                    ) -> Tuple[List[ConsistencyError], StreamingChecker]:
    """Run the streaming pipeline to completion; returns deduplicated
    findings plus the checker (for its memory statistics)."""
    checker = StreamingChecker(traces, memory_model=memory_model)
    findings: List[ConsistencyError] = []
    for report in checker.run():
        findings.extend(report.findings)
    return dedupe(sort_findings(findings)), checker
