"""Profiler — online event collection (the paper's PMPI + LLVM-pass layer).

Registers an :class:`~repro.simmpi.runtime.EventHook` on the simulated
world, logging the four MPI call categories of section IV-B plus the
load/store accesses of ST-Analyzer-selected buffers into one trace file per
rank.  :func:`repro.profiler.session.profile_run` is the one-call entry
point: run an app under profiling and get back a
:class:`~repro.profiler.tracer.TraceSet`.

The package re-exports only the trace I/O DN-Analyzer reads, so a
checker loads it without the simulator; import the hook and the session
from :mod:`~repro.profiler.interpose` and :mod:`~repro.profiler.session`.
"""

from repro.profiler.events import (
    CallEvent,
    MemEvent,
    Event,
    call_category,
    CATEGORY_ONE_SIDED,
    CATEGORY_DATATYPE,
    CATEGORY_SYNC,
    CATEGORY_SUPPORT,
)
from repro.profiler.tracer import (
    FORMAT_BINARY, FORMAT_TEXT, MemBlock, TraceReader, TraceSet, TraceWriter,
)

__all__ = [
    "CallEvent", "MemEvent", "Event", "call_category",
    "CATEGORY_ONE_SIDED", "CATEGORY_DATATYPE", "CATEGORY_SYNC",
    "CATEGORY_SUPPORT",
    "TraceReader", "TraceSet", "TraceWriter", "MemBlock",
    "FORMAT_TEXT", "FORMAT_BINARY",
]
