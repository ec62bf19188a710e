"""Streaming (online) analysis — the paper's stated future work.

Section VII-B: "While MC-Checker analyzes the traces offline, we can
extend it to perform online analysis by leveraging streaming processing
algorithms in the future."  This module is that extension, as a release
policy over the shard plan (:mod:`repro.core.plan`): memory is bounded
by the synchronization structure plus *one release's* load/store events,
not the full trace.  Two passes over the per-rank trace files, which are
opened once (:meth:`~repro.profiler.tracer.TraceSet.open`) for both:

1. **Control pass** (:func:`~repro.core.plan.build_control_state`) —
   MPI *call* events only: registries, matches, the happens-before
   oracle, epochs, regions, and the :class:`~repro.core.plan.ShardPlan`.
   Calls are a small fraction of a trace; the Profiler's load/store
   events dominate (Figure 10).
2. **Data pass** — walk the plan in order.  A *release* is as many
   consecutive shards as hold at most :data:`~repro.core.engine.BATCH_ROWS`
   memory rows (always at least one): their units are named as index
   arrays over the control pass's op table, exactly their rows are read
   through the forward cursor (:meth:`RowCursor.take`) from the readers
   the control pass opened, both kernels run over them
   (:func:`~repro.core.plan.run_shards`), the rows are dropped.
   No epoch cursor is needed: a shard is closed under epoch interiors,
   op spans and local spans, so nothing a release reads is still open
   when it ends.

The bound is ``max(BATCH_ROWS, largest shard)`` rows — the constant the
kernels already sub-batch by, not a knob — and
:attr:`StreamingChecker.peak_buffered_mems` records what a release
actually held.  An epoch left open to the end of a truncated trace makes
its tail one shard: coarse, but sound.  Findings are identical to the
batch pipeline (differential-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import engine
from repro.core.calltable import CallTable, ensure_call_tables
from repro.core.diagnostics import ConsistencyError, dedupe, sort_findings
from repro.core.model import MemRows, check_mem_rows
from repro.core.plan import (
    ControlState, ShardFindings, ShardPlan, build_control_state,
    phase_timer, run_shards,
)
from repro.core.preprocess import preprocess_readers
from repro.profiler.tracer import TraceReader, TraceSet


@dataclass
class ShardReport:
    """Findings of one shard, emitted as its release completes."""

    index: int
    parts: ShardFindings

    @property
    def findings(self) -> List[ConsistencyError]:
        return [error for part in self.parts for _at, errors in part
                for error in errors]


class RowCursor:
    """Each rank's memory rows read forward, a block at a time, from the
    set's open readers: :meth:`take` hands out the rows before a seq
    bound, which are then forgotten.  Every row is checked
    (:func:`~repro.core.model.check_mem_rows`) against its rank's call
    table in ``calls`` as it is read."""

    def __init__(self, readers: Sequence[TraceReader],
                 calls: Dict[int, CallTable]):
        self._readers = readers
        self._calls = calls
        #: rank -> [block iterator, rows read past the last bound]
        self._cursor: Dict[int, list] = {}

    def _blocks(self, rank: int):
        last = None
        for block in self._readers[rank].mem_blocks():
            rows = block.array
            check_mem_rows(rows, [0, len(rows)], self._calls[rank],
                           after=last)
            if len(rows):
                last = int(rows["seq"][-1])
            yield rows

    def take(self, rank: int, upto: int) -> Optional[MemRows]:
        """Drain the rank's rows with ``seq < upto`` — those not handed
        out by an earlier call — or ``None`` when there are none.
        ``upto`` must not decrease from call to call."""
        state = self._cursor.get(rank)
        if state is None:
            state = self._cursor[rank] = [self._blocks(rank), None]
        pieces: List[np.ndarray] = []
        piece, state[1] = state[1], None
        while True:
            if piece is None:
                piece = next(state[0], None)
                if piece is None:
                    break
            cut = int(np.searchsorted(piece["seq"], upto))
            if cut:
                pieces.append(piece[:cut])
            if cut < len(piece):
                state[1] = piece[cut:]
                break
            piece = None
        if not pieces:
            return None
        return MemRows.from_struct(
            rank, self._readers[rank]._table,
            pieces[0] if len(pieces) == 1 else np.concatenate(pieces))


class StreamingChecker:
    """Release-at-a-time DN-Analyzer with bounded data-event memory.
    Both passes run in :meth:`run`, over one open set; ``control`` and
    ``plan`` are there once it has started."""

    def __init__(self, traces: TraceSet, memory_model: str = "separate"):
        self.traces = traces
        self.memory_model = memory_model
        #: most load/store events a release held, and how many there were
        self.peak_buffered_mems = 0
        self.releases = 0
        #: ``CheckStats.phase_seconds`` of the run so far
        self.phase_seconds: Dict[str, float] = {}
        self._timed = phase_timer(self.phase_seconds)
        self.control: Optional[ControlState] = None
        self.plan: Optional[ShardPlan] = None

    def _release(self, cursor: RowCursor, lo: int,
                 hi: int) -> List[ShardFindings]:
        control, plan = self.control, self.plan
        units = plan.units(control, range(lo, hi))
        mems = {}
        for rank, upto in enumerate(plan.hi[:, hi - 1].tolist()):
            rows = cursor.take(rank, upto)
            if rows is not None:
                mems[rank] = rows
        self.peak_buffered_mems = max(
            self.peak_buffered_mems,
            sum(len(rows) for rows in mems.values()))
        self.releases += 1
        return run_shards(units, control, self.memory_model, mems)

    def run(self) -> Iterator[ShardReport]:
        """Both passes: the control pass and the plan, then per-shard
        findings, release by release."""
        with self.traces.open() as readers:
            control = self.control = build_control_state(
                *self._timed("preprocess", lambda: preprocess_readers(
                    readers)), self._timed)
            self.plan = self._timed("plan", lambda: ShardPlan.build(control))
            cursor = RowCursor(readers, ensure_call_tables(control.pre))
            for lo, hi in engine.batch_bounds(self.plan.rows.tolist(),
                                              engine.BATCH_ROWS):
                found = self._timed(
                    "detect", lambda: self._release(cursor, lo, hi),
                    shards=hi - lo)
                for shard, parts in enumerate(found, lo):
                    yield ShardReport(shard, parts)

    def finish(self, reports: List[ShardReport]) -> List[ConsistencyError]:
        """The run's deduplicated findings, in the batch report's order."""
        return self._timed("merge", lambda: dedupe(sort_findings(
            self.plan.merge((r.index, r.parts) for r in reports))))


def check_streaming(traces: TraceSet, memory_model: str = "separate"
                    ) -> Tuple[List[ConsistencyError], StreamingChecker]:
    """Run the streaming pipeline to completion; returns deduplicated
    findings plus the checker (for its memory statistics)."""
    checker = StreamingChecker(traces, memory_model=memory_model)
    return checker.finish(list(checker.run())), checker
