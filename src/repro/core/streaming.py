"""Streaming (online) analysis — the paper's stated future work.

Section VII-B: "While MC-Checker analyzes the traces offline, we can
extend it to perform online analysis by leveraging streaming processing
algorithms in the future."  This module is that extension, as a release
policy over the shard plan (:mod:`repro.core.plan`): memory is bounded
by the synchronization structure plus *one release's* load/store events,
not the full trace.  Two passes over the per-rank trace files:

1. **Control pass** (:func:`~repro.core.plan.build_control_state`) —
   MPI *call* events only: registries, matches, the happens-before
   oracle, epochs, regions, and the :class:`~repro.core.plan.ShardPlan`.
   Calls are a small fraction of a trace; the Profiler's load/store
   events dominate (Figure 10).
2. **Data pass** — walk the plan in order.  A *release* is as many
   consecutive shards as hold at most :data:`~repro.core.engine.BATCH_ROWS`
   memory rows (always at least one): their units are named as index
   arrays over the control pass's op table, exactly their rows are read
   through the forward cursor (:meth:`~repro.core.plan._RowLoader.take`),
   both kernels run over them (:func:`~repro.core.plan.run_shards`), the
   rows are dropped.
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
from typing import Dict, Iterator, List, Tuple

from repro.core import engine
from repro.core.diagnostics import ConsistencyError, dedupe, sort_findings
from repro.core.plan import (
    ShardFindings, ShardPlan, _RowLoader, build_control_state, phase_timer,
    run_shards,
)
from repro.profiler.tracer import TraceSet


@dataclass
class ShardReport:
    """Findings of one shard, emitted as its release completes."""

    index: int
    parts: ShardFindings

    @property
    def findings(self) -> List[ConsistencyError]:
        return [error for part in self.parts for _at, errors in part
                for error in errors]


class StreamingChecker:
    """Release-at-a-time DN-Analyzer with bounded data-event memory."""

    def __init__(self, traces: TraceSet, memory_model: str = "separate"):
        self.traces = traces
        self.memory_model = memory_model
        #: most load/store events a release held, and how many there were
        self.peak_buffered_mems = 0
        self.releases = 0
        #: ``CheckStats.phase_seconds`` of the run so far
        self.phase_seconds: Dict[str, float] = {}
        self._timed = phase_timer(self.phase_seconds)
        self.control = build_control_state(traces, self._timed)
        self.regions = self.control.regions
        self.plan: ShardPlan = self._timed(
            "plan", lambda: ShardPlan.build(self.control))

    def _release(self, loader: _RowLoader, lo: int,
                 hi: int) -> List[ShardFindings]:
        control, plan = self.control, self.plan
        units = plan.units(control, range(lo, hi))
        mems = {}
        for rank, upto in enumerate(plan.hi[:, hi - 1].tolist()):
            rows = loader.take(rank, upto)
            if rows is not None:
                mems[rank] = rows
        self.peak_buffered_mems = max(
            self.peak_buffered_mems,
            sum(len(rows) for rows in mems.values()))
        self.releases += 1
        return run_shards(units, control, self.memory_model, mems)

    def run(self) -> Iterator[ShardReport]:
        """Pass 2: yield per-shard findings, release by release."""
        loader = _RowLoader(self.traces)
        for lo, hi in engine.batch_bounds(self.plan.rows.tolist(),
                                          engine.BATCH_ROWS):
            found = self._timed(
                "detect", lambda: self._release(loader, lo, hi),
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
