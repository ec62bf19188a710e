"""The interposition layer: an EventHook that writes trace events.

This is the analogue of the paper's PMPI wrappers plus the LLVM
instrumentation pass output.  Instrumentation *scope* reproduces the
ST-Analyzer ablation:

* ``SCOPE_REPORT`` — only buffers named in an
  :class:`~repro.stanalyzer.report.InstrumentationReport` emit load/store
  events (the paper's configuration);
* ``SCOPE_ALL`` — every buffer is instrumented (the "without static
  analysis" baseline the paper says costs hundreds of times more);
* ``SCOPE_NONE`` — no memory events at all (MPI calls only).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.profiler.tracer import FORMAT_BINARY, FORMATS, TraceSet, TraceWriter
from repro.simmpi.memory import TrackedBuffer
from repro.simmpi.runtime import EventHook
from repro.util.location import capture_location

SCOPE_REPORT = "report"
SCOPE_ALL = "all"
SCOPE_NONE = "none"

SCOPES = (SCOPE_REPORT, SCOPE_ALL, SCOPE_NONE)


class ProfilerHook(EventHook):
    """Event hook logging every MPI call and instrumented memory access."""

    def __init__(self, directory: str, nranks: int, app: str = "",
                 scope: str = SCOPE_REPORT,
                 relevant_vars: Optional[Set[str]] = None,
                 capture_locations: bool = True,
                 trace_format: str = FORMAT_BINARY):
        if scope not in SCOPES:
            raise ValueError(f"unknown instrumentation scope {scope!r}")
        if trace_format not in FORMATS:
            raise ValueError(f"unknown trace format {trace_format!r}")
        self.scope = scope
        self.relevant_vars = set(relevant_vars or ())
        self.capture_locations = capture_locations
        self._writers: List[TraceWriter] = []
        try:
            for rank in range(nranks):
                self._writers.append(TraceWriter(
                    TraceSet.rank_path(directory, rank, trace_format),
                    rank, nranks, app, format=trace_format))
        except BaseException:
            # e.g. a directory named like a later rank's file: the files
            # already opened are closed as partial, not left to the GC
            self.abort()
            raise
        self._calls = 0

    # -- EventHook interface -------------------------------------------
    # location capture plus one append: the writers encode in batches,
    # and a rank's next seq is the count of events its writer took

    def on_call(self, rank: int, fn: str, args: Dict[str, Any]) -> None:
        writer = self._writers[rank]
        self._calls += 1
        writer.append_call(
            fn, args, capture_location() if self.capture_locations else None,
            writer.events_written)

    def on_mem_block(self, rank: int, kind: str, buf: TrackedBuffer,
                     addr: int, size: int, count: int, stride: int) -> None:
        writer = self._writers[rank]
        writer.append_mem_columns(
            kind, buf.name,
            capture_location() if self.capture_locations else None,
            writer.events_written, addr, size, count, stride)

    def on_alloc(self, rank: int, buf: TrackedBuffer) -> None:
        """Decide, per the scope, whether this buffer's accesses are traced."""
        if self.scope == SCOPE_ALL:
            buf.instrumented = True
        elif self.scope == SCOPE_REPORT:
            if buf.name in self.relevant_vars:
                buf.instrumented = True

    def on_win_buffer(self, rank: int, buf: TrackedBuffer) -> None:
        """Window buffers are relevant by definition: instrument them even
        when the allocation site was outside ST-Analyzer's view (dynamic
        refinement of the static report)."""
        if self.scope != SCOPE_NONE:
            buf.instrumented = True

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        for writer in self._writers:
            writer.close()

    def abort(self) -> None:
        """The run did not complete: leave every rank's file marked as
        partial (:meth:`TraceWriter.abort`) instead of finalizing it."""
        for writer in self._writers:
            writer.abort()

    @property
    def events_written(self) -> int:
        return sum(w.events_written for w in self._writers)

    @property
    def bytes_written(self) -> int:
        return sum(w.bytes_written for w in self._writers)

    def emitted(self) -> Dict[str, int]:
        """Emitted-event totals by event kind."""
        return {"call": self._calls,
                "mem": self.events_written - self._calls}

    def events_by_rank(self) -> List[int]:
        return [w.events_written for w in self._writers]

    def bytes_by_rank(self) -> List[int]:
        return [w.bytes_written for w in self._writers]
