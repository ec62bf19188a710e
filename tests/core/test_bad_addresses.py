"""No silent clean verdict from bad address columns.

A memory row with a negative size, a negative address, or an ``addr +
size`` that wraps int64 used to be dropped as an empty interval by the
sweep engine's tables, so it could not conflict with anything and the
report came out clean.  Each shape — and an RMA target interval lifted
outside the address space — must raise a typed ``AnalysisError`` naming
rank and seq, in both trace formats and in every executor.

The same goes for the arguments of an RMA call: a target that is not a
rank of its window, a negative count, a displacement that wraps int64
and a datatype the rank never defined used to end in a bare ``KeyError``
/ ``ValueError`` — and would be a wrong address out of an unchecked
gather.  The op table validates its columns before it uses them, and
every arm raises the error the scalar lift words.
"""

import dataclasses
import glob
import os

import pytest

from repro import api
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES
from repro.core.model import check_mem_rows
from repro.gen.fuzz import canonical_report
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import TraceReader, TraceSet, TraceWriter, read_mems
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
    refused_on_every_arm(traces, rf"rank {bad_rank} seq {bad_seq}\b",
                         str(tmp_path / "cache"))


def refused_on_every_arm(traces, match, cache_dir):
    """The refusal of every executor, which must match ``match``."""
    arms = [dict(), dict(streaming=True), dict(jobs=2),
            dict(incremental=True, cache_dir=cache_dir)]
    said = set()
    for arm in arms:
        # the same typed error on every arm: a failure does not depend
        # on the job count (rows are read, and checked, in the parent)
        with pytest.raises(AnalysisError, match=match) as err:
            api.check(traces, **arm)
        said.add(str(err.value))
    # ... and the failed pooled run left no shared segment behind
    assert glob.glob("/dev/shm/mcc-*") == []
    return said


def _mem_rows(events):
    return [k for k, event in enumerate(events)
            if isinstance(event, MemEvent)]


def _bad_row(shape):
    def mutate(events):
        k = _mem_rows(events)[len(_mem_rows(events)) // 2]
        events[k] = dataclasses.replace(events[k], **BAD_ROWS[shape])
        return rf"^rank {{rank}} seq {events[k].seq}: memory access"
    return mutate


def _out_of_order(events):
    """The first and the last memory row trade their seqs."""
    rows = _mem_rows(events)
    a, b = rows[0], rows[-1]
    events[a], events[b] = (dataclasses.replace(events[a], seq=events[b].seq),
                            dataclasses.replace(events[b], seq=events[a].seq))
    return r"^rank {rank}: memory seq \d+ follows \d+: seq is not strictly"


def _seq_of_a_call(events):
    """The first memory row after a call takes the call's seq."""
    k = next(k for k in _mem_rows(events)
             if isinstance(events[k - 1], CallEvent))
    events[k] = dataclasses.replace(events[k], seq=events[k - 1].seq)
    return rf"^rank {{rank}}: memory seq {events[k].seq} is also a call's"


#: one rank's memory rows spoilt -> what the refusal says
SPOILT = {**{shape: _bad_row(shape) for shape in BAD_ROWS},
          "out-of-order": _out_of_order, "seq-of-a-call": _seq_of_a_call}


@pytest.fixture(scope="module")
def lu8_events():
    """An eight-rank run, race-free, whose every rank logs memory rows
    a call apart."""
    run = api.run(lu, 8, params=dict(n=16), delivery="eager",
                  trace_format="binary")
    return {rank: run.traces.events(rank) for rank in range(8)}


@pytest.mark.parametrize("position", [0, 4, 7])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("spoil", sorted(SPOILT))
def test_bad_memory_rows_at_each_position_of_a_set(lu8_events, tmp_path,
                                                   spoil, fmt, position):
    """Rows out of the address space or out of trace order in the file
    of rank 0, a middle rank or the last rank of eight: every executor
    says, naming rank and seq, what that file alone says."""
    events = {rank: list(rank_events)
              for rank, rank_events in lu8_events.items()}
    match = SPOILT[spoil](events[position]).format(rank=position)
    traces = rewrite(str(tmp_path / "t"), events, fmt, lambda e: e)
    said = refused_on_every_arm(traces, match, str(tmp_path / "cache"))
    with TraceReader(traces.path(position)) as reader:
        reader.read_calls()
        rows, offsets = read_mems([reader])
        with pytest.raises(AnalysisError) as alone:
            check_mem_rows(rows, offsets, reader.call_table)
    assert said == {str(alone.value)}


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


#: argument overrides of one RMA call -> the error every arm must raise
#: (``{rank}`` / ``{seq}`` are the mutated call's)
BAD_ARGS = {
    "target-outside-window": (
        dict(target=99),
        "rank {rank} seq {seq}: RMA target 99 is not a rank of window"),
    "negative-origin-count": (
        dict(origin_count=-1),
        "rank {rank} seq {seq}: RMA origin buffer has negative count -1"),
    "negative-target-count": (
        dict(target_count=-3),
        "rank {rank} seq {seq}: RMA target has negative count -3"),
    "target-disp-wraps-up": (
        dict(target_disp=1 << 62), "rank {rank} seq {seq}: RMA target ["),
    "target-disp-wraps-down": (
        dict(target_disp=-(1 << 62)), "rank {rank} seq {seq}: RMA target [-"),
    "unknown-datatype": (
        dict(origin_dtype=12345), "rank {rank}: unknown datatype id 12345"),
}


@pytest.fixture(scope="module")
def emulate_events():
    """The buggy emulate case (Table II) and its first RMA call."""
    case = next(c for c in BUG_CASES if c.name == "emulate")
    run = api.run(case.app, case.nranks, params=case.params(True))
    events = {rank: run.traces.events(rank) for rank in range(case.nranks)}
    first = next(e for rank in sorted(events) for e in events[rank]
                 if isinstance(e, CallEvent) and e.fn in ("Put", "Get"))
    return events, first


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mutation", sorted(BAD_ARGS))
def test_hostile_rma_argument_is_a_typed_error(emulate_events, tmp_path,
                                               fmt, mutation):
    events, first = emulate_events
    overrides, message = BAD_ARGS[mutation]
    message = message.format(rank=first.rank, seq=first.seq)

    def mutate(event):
        if event is first:
            return dataclasses.replace(event,
                                       args=dict(event.args, **overrides))
        return event

    # a cache populated before the mutation: the warm arm
    warm = dict(incremental=True, cache_dir=str(tmp_path / "warm"))
    clean = rewrite(str(tmp_path / "clean"), events, fmt, lambda e: e)
    assert api.check(clean, **warm).findings
    traces = rewrite(str(tmp_path / "t"), events, fmt, mutate)
    arms = {
        "batch": lambda: api.check(traces),
        "jobs=2": lambda: api.check(traces, jobs=2),
        "streaming": lambda: api.check(traces, streaming=True),
        "incremental cold": lambda: api.check(
            traces, incremental=True, cache_dir=str(tmp_path / "cold")),
        "incremental warm": lambda: api.check(traces, **warm),
        "pairwise": lambda: check_pairwise(traces),
    }
    raised = {}
    for arm, check in arms.items():
        with pytest.raises(AnalysisError) as caught:
            check()
        raised[arm] = str(caught.value)
    # same class, same words — hence same rank and seq — on every arm
    assert set(raised.values()) == {raised["batch"]}, raised
    assert raised["batch"].startswith(message), raised["batch"]
    assert glob.glob("/dev/shm/mcc-*") == []
