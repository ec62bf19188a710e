"""Producer differential: the bulk columnar lane must be invisible.

``ProfilerHook`` coalesces block accesses into
``TraceWriter.append_mem_columns`` / ``append_call`` fast paths.  Its
contract is byte-identity with the scalar reference lane — a test-local
hook that hands each block back to ``EventHook.on_mem_block``, which
decomposes it into one ``on_mem`` (one ``MemEvent``) per access: every
bundled bug case, profiled through both lanes in both trace formats,
must produce identical trace files — hence identical content digests —
and byte-identical checker reports under both memory models.

A hypothesis property test additionally drives ``append_mem_columns``
across mem-block flush boundaries, interleaved with scalar writes and
call records, and round-trips the result through ``TraceReader``.
"""

import hashlib
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.profiler import session
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.interpose import ProfilerHook
from repro.profiler.session import profile_run
from repro.profiler.tracer import (
    FORMAT_BINARY, FORMAT_TEXT, TraceReader, TraceWriter,
)
from repro.simmpi.runtime import EventHook
from repro.util.location import SourceLocation

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
RANKS_CAP = 8
MEMORY_MODELS = ("separate", "unified")
FORMATS = (FORMAT_TEXT, FORMAT_BINARY)

_TRACES = {}


class ScalarHook(ProfilerHook):
    """The scalar reference lane: every block access becomes ``count``
    ``on_mem`` calls, one ``MemEvent`` object each.  (Bound directly, not
    through a wrapper defined here: ``capture_location`` attributes an
    event to the innermost frame outside the runtime, and a frame of this
    file would become every access's source location.)"""

    on_mem_block = EventHook.on_mem_block


def traces_for(case, fmt, bulk):
    """Profile each (case, format, lane) once; reuse across tests."""
    key = (case.name, fmt, bulk)
    if key not in _TRACES:
        nranks = min(case.nranks, RANKS_CAP)
        hook = ProfilerHook if bulk else ScalarHook
        with mock.patch.object(session, "ProfilerHook", hook):
            run = profile_run(case.app, nranks, params=case.params(True),
                              trace_format=fmt)
        _TRACES[key] = run.traces
    return _TRACES[key]


def canonical(report) -> str:
    """Byte-comparable form of a report, modulo wall-clock timings."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


def file_digests(traces):
    out = {}
    for name in sorted(os.listdir(traces.directory)):
        if name.startswith("trace."):
            with open(os.path.join(traces.directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_lanes_produce_identical_trace_files(case, fmt):
    scalar = traces_for(case, fmt, bulk=False)
    bulk = traces_for(case, fmt, bulk=True)
    assert scalar.nranks == bulk.nranks
    assert file_digests(scalar) == file_digests(bulk), (
        f"{case.name}/{fmt}: bulk lane changed the trace bytes")
    for rank in range(scalar.nranks):
        with scalar.reader(rank) as a, bulk.reader(rank) as b:
            assert a.content_digest() == b.content_digest(), (
                f"{case.name}/{fmt}/rank{rank}: content digest diverged")


@pytest.mark.parametrize("memory_model", MEMORY_MODELS)
@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_lane_reports_identical(case, memory_model):
    config = CheckConfig(memory_model=memory_model)
    ref = canonical(check_traces(traces_for(case, FORMAT_TEXT, False),
                                 config=config))
    for fmt in FORMATS:
        got = canonical(check_traces(traces_for(case, fmt, True),
                                     config=config))
        assert got == ref, (
            f"{case.name}/{memory_model}/{fmt}: bulk-lane report diverged")


# ----------------------------------------------------------------------
# append_mem_columns round-trip property
# ----------------------------------------------------------------------

_LOC = SourceLocation("app.py", 42, "stepper")

_SCALAR = st.tuples(
    st.just("mem"), st.sampled_from(["load", "store"]),
    st.integers(0, 1 << 24), st.integers(1, 64))
_BLOCK = st.tuples(
    st.just("block"), st.sampled_from(["load", "store"]),
    st.integers(0, 1 << 24), st.integers(1, 64),
    st.integers(1, 3000), st.integers(0, 128))
_CALL = st.tuples(
    st.just("call"), st.sampled_from(["Barrier", "Win_fence", "Put"]))

OPS = st.lists(st.one_of(_SCALAR, _BLOCK, _CALL), min_size=1, max_size=10)

#: one block larger than the 4096-row flush threshold plus stragglers on
#: both sides — pins the chunk-boundary behaviour even on a minimal run
_BOUNDARY = [("mem", "load", 0, 8),
             ("block", "store", 64, 8, 5000, 8),
             ("call", "Win_fence"),
             ("block", "load", 0, 8, 4096, 0),
             ("mem", "store", 8, 8)]


def _emit(path, fmt, ops, fast):
    """Write ``ops`` through the fast paths or the scalar reference."""
    seq = 0
    with TraceWriter(path, rank=0, nranks=1, app="prop",
                     format=fmt) as writer:
        for op in ops:
            if op[0] == "mem":
                _, access, addr, size = op
                writer.write(MemEvent(rank=0, seq=seq, access=access,
                                      addr=addr, size=size, var="buf",
                                      loc=_LOC))
                seq += 1
            elif op[0] == "block":
                _, access, addr, size, count, stride = op
                if fast:
                    writer.append_mem_columns(access, "buf", _LOC, seq,
                                              addr, size, count, stride)
                else:
                    for i in range(count):
                        writer.write(MemEvent(
                            rank=0, seq=seq + i, access=access,
                            addr=addr + i * stride, size=size, var="buf",
                            loc=_LOC))
                seq += count
            else:
                _, fn = op
                if fast:
                    writer.append_call(fn, {"count": 3, "skip": None},
                                       _LOC, seq)
                else:
                    writer.write(CallEvent(rank=0, seq=seq, fn=fn,
                                           args={"count": 3}, loc=_LOC))
                seq += 1
        events = writer.events_written
    return events


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=40, deadline=None)
@example(ops=_BOUNDARY)
@given(ops=OPS)
def test_append_mem_columns_round_trip(fmt, ops):
    with tempfile.TemporaryDirectory() as tmp:
        fast_path = os.path.join(tmp, "trace.fast")
        ref_path = os.path.join(tmp, "trace.ref")
        n_fast = _emit(fast_path, fmt, ops, fast=True)
        n_ref = _emit(ref_path, fmt, ops, fast=False)
        assert n_fast == n_ref
        if fmt == FORMAT_TEXT:
            # text is one line per event: framing cannot diverge
            with open(fast_path, "rb") as fh:
                fast_bytes = fh.read()
            with open(ref_path, "rb") as fh:
                ref_bytes = fh.read()
            assert fast_bytes == ref_bytes
        # binary M-frame boundaries may differ across lanes when a bulk
        # append crosses the flush threshold; the contract is that the
        # content digests and the decoded stream cannot tell
        with TraceReader(fast_path) as reader:
            events = reader.events()
            digest = reader.content_digest()
            counts = reader.counts()
        with TraceReader(ref_path) as reader:
            assert digest == reader.content_digest()
            assert counts == reader.counts()
        # the decoded stream matches the op list (seq, addr arithmetic)
        seq = 0
        it = iter(events)
        for op in ops:
            if op[0] == "mem":
                event = next(it)
                assert (event.seq, event.addr, event.size,
                        event.access) == (seq, op[2], op[3], op[1])
                seq += 1
            elif op[0] == "block":
                _, access, addr, size, count, stride = op
                for i in range(count):
                    event = next(it)
                    assert (event.seq, event.addr, event.access) == \
                        (seq + i, addr + i * stride, access)
                seq += count
            else:
                event = next(it)
                assert (event.seq, event.fn) == (seq, op[1])
                seq += 1
        assert next(it, None) is None
