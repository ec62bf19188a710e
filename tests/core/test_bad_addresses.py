"""No silent clean verdict from bad address columns.

A memory row with a negative size, a negative address, or an ``addr +
size`` that wraps int64 used to be dropped as an empty interval by the
sweep engine's tables, so it could not conflict with anything and the
report came out clean.  Each shape — and an RMA target interval lifted
outside the address space — must raise a typed ``AnalysisError`` naming
rank and seq, in both trace formats and in every executor.
"""

import dataclasses
import glob
import os

import pytest

from repro import api
from repro.apps.registry import BUG_CASES
from repro.gen.fuzz import canonical_report
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import TraceSet, TraceWriter
from repro.util.errors import AnalysisError
from tests.reference.pairwise import check_pairwise

INT64_MAX = (1 << 63) - 1

#: MemEvent field overrides producing each bad shape
BAD_ROWS = {
    "negative-size": dict(size=-8),
    "negative-addr": dict(addr=-4096),
    "wrapping-end": dict(addr=INT64_MAX - 3, size=8),
}

FORMATS = ("text", "binary")


@pytest.fixture(scope="module")
def jacobi_events():
    """The buggy jacobi case: its finding is a plain store racing a
    remote Put, i.e. it hinges on one instrumented memory row."""
    case = next(c for c in BUG_CASES if c.name == "jacobi")
    run = api.run(case.app, 4, params=case.params(True))
    report = api.check(run.traces)
    finding = next(f for f in report.findings
                   if "mem" in (f.a.fn, f.b.fn))
    row = finding.a if finding.a.fn == "mem" else finding.b
    events = {rank: run.traces.events(rank) for rank in range(4)}
    return events, (row.rank, row.seq)


def rewrite(directory, events_by_rank, fmt, mutate):
    """Write ``events_by_rank`` as a ``fmt`` trace set, passing every
    event through ``mutate``."""
    os.makedirs(directory, exist_ok=True)
    nranks = len(events_by_rank)
    for rank, events in events_by_rank.items():
        with TraceWriter(TraceSet.rank_path(directory, rank, fmt), rank,
                         nranks, app="mutated", format=fmt) as writer:
            for event in events:
                writer.write(mutate(event))
    return TraceSet(directory)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shape", sorted(BAD_ROWS))
def test_bad_memory_row_is_a_typed_error(jacobi_events, tmp_path, fmt,
                                         shape):
    events, (bad_rank, bad_seq) = jacobi_events

    def mutate(event):
        if isinstance(event, MemEvent) and \
                (event.rank, event.seq) == (bad_rank, bad_seq):
            return dataclasses.replace(event, **BAD_ROWS[shape])
        return event

    traces = rewrite(str(tmp_path / "t"), events, fmt, mutate)
    arms = [dict(), dict(streaming=True), dict(jobs=2),
            dict(incremental=True, cache_dir=str(tmp_path / "cache"))]
    for arm in arms:
        # the same typed error on every arm: a failure does not depend
        # on the job count (rows are read, and checked, in the parent)
        with pytest.raises(AnalysisError,
                           match=rf"rank {bad_rank} seq {bad_seq}\b"):
            api.check(traces, **arm)
    # ... and the failed pooled run left no shared segment behind
    assert glob.glob("/dev/shm/mcc-*") == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_unmutated_rewrite_still_finds_the_bug(jacobi_events, tmp_path,
                                               fmt):
    events, _ = jacobi_events
    traces = rewrite(str(tmp_path / "t"), events, fmt, lambda e: e)
    report = api.check(traces)
    assert report.findings
    assert canonical_report(report) == \
        canonical_report(check_pairwise(traces))


@pytest.mark.parametrize("fmt", FORMATS)
def test_rma_target_outside_address_space(jacobi_events, tmp_path, fmt):
    events, _ = jacobi_events
    first_put = next(e for rank in sorted(events) for e in events[rank]
                     if isinstance(e, CallEvent) and e.fn == "Put")

    def mutate(event):
        if event is first_put:
            return dataclasses.replace(
                event, args=dict(event.args, target_disp=-(1 << 50)))
        return event

    traces = rewrite(str(tmp_path / "t"), events, fmt, mutate)
    for check in (api.check, lambda t: api.check(t, streaming=True),
                  check_pairwise):
        with pytest.raises(
                AnalysisError,
                match=rf"rank {first_put.rank} seq {first_put.seq}: "
                      "RMA target"):
            check(traces)
