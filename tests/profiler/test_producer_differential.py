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

The hook resolves what is static about an event once per call site; a
second property requires ``ProfilerHook.on_call`` / ``on_mem`` to leave
the bytes and digests ``write(CallEvent)`` / ``write(MemEvent)`` leave —
for every call form (all ints, strings, lists, dropped ``None``s, an int
past int64 on the ``C`` route, a ``str`` where the form had an int),
wherever the segments are cut, in both formats — and three pins cover the
site tables themselves: equal locations share one string id whatever
object carries them, and a call site decodes to its own statement from
two lines of one function, a comprehension and ``exec``'d code.
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


# ----------------------------------------------------------------------
# the hook's call and memory lanes against write(event)
# ----------------------------------------------------------------------

#: two location objects per value: the writer keys its site tables by
#: object identity, the bytes must depend on the value alone
_SITES = [SourceLocation("app.py", 10, "main"),
          SourceLocation("dir with space/k=1|%.py", 42, "compute")]
_TWINS = [SourceLocation(loc.filename, loc.lineno, loc.function)
          for loc in _SITES]

_INT = st.integers(-(1 << 63), (1 << 63) - 1)
_HUGE = st.integers(1 << 63, 1 << 70)        # forces the C route
_TEXT = st.text(max_size=8)
_INTS = st.lists(st.integers(-(1 << 40), 1 << 40), max_size=5)

#: call forms: string-free (the plain arm), with a string, with a list,
#: with a dropped ``None``, past int64, and a form whose ``win`` is an
#: int in one call and a string in the next
_ARGS = st.one_of(
    st.fixed_dictionaries({"win": _INT, "assert": st.booleans()}),
    st.fixed_dictionaries({"win": _INT, "var": _TEXT}),
    st.fixed_dictionaries({"win": _INT, "group": _INTS, "assert": _INT}),
    st.fixed_dictionaries({"comm": _INT, "newcomm": st.none(),
                           "key": _INT}),
    st.fixed_dictionaries({"win": _HUGE, "assert": _INT}),
    st.fixed_dictionaries({"win": st.one_of(_INT, _TEXT),
                           "assert": _INT}),
)
#: names whose call-table row reads no argument (the table rejects a
#: ``Win_fence`` whose ``win`` is a string or past int64)
_HOOK_CALL = st.tuples(st.just("call"),
                       st.sampled_from(["Put", "Comm_rank", "user call"]),
                       _ARGS, st.integers(0, 1))
_HOOK_MEM = st.tuples(st.just("mem"), st.sampled_from(["load", "store"]),
                      st.integers(0, 1 << 40), st.integers(1, 64),
                      st.integers(0, 1))
HOOK_OPS = st.lists(st.one_of(_HOOK_CALL, _HOOK_CALL, _HOOK_MEM),
                    min_size=1, max_size=24)


class _Buffer:
    name = "grid"


def _through_hook(directory, fmt, ops):
    """The producer's way: ``ProfilerHook.on_call`` / ``on_mem``, the
    location captured per event (here: dealt from ``_SITES``)."""
    from repro.profiler import interpose
    sites = iter([_SITES[op[-1]] for op in ops])
    with mock.patch.object(interpose, "capture_location",
                           lambda: next(sites)):
        hook = ProfilerHook(directory, 1, app="prop", scope="all",
                            trace_format=fmt)
        for op in ops:
            if op[0] == "call":
                hook.on_call(0, op[1], op[2])
            else:
                hook.on_mem(0, op[1], _Buffer, op[2], op[3])
        hook.close()
    return hook


def _through_write(path, fmt, ops):
    """The reference: one typed event per op through ``write``."""
    with TraceWriter(path, 0, 1, app="prop", format=fmt) as writer:
        for seq, op in enumerate(ops):
            loc = _TWINS[op[-1]]
            if op[0] == "call":
                writer.write(CallEvent(rank=0, seq=seq, fn=op[1],
                                       args=op[2], loc=loc))
            else:
                writer.write(MemEvent(rank=0, seq=seq, access=op[1],
                                      addr=op[2], size=op[3], var="grid",
                                      loc=loc))


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=60, deadline=None)
@given(ops=HOOK_OPS, cut=st.sampled_from((1, 2, 3, 7, 4096)))
# a lone carriage return in a string value is data, not a line break
@example(ops=[("call", "Put", {"win": 0, "var": "\r0"}, 0)], cut=1)
def test_hook_lanes_equal_write(fmt, ops, cut):
    """Whatever a call looks like and wherever the segments are cut, the
    hook's lanes leave the bytes ``write(event)`` leaves."""
    from repro.profiler import tracer
    with tempfile.TemporaryDirectory() as tmp:
        hooked, written = os.path.join(tmp, "hook"), os.path.join(tmp, "ref")
        os.mkdir(hooked)
        with mock.patch.object(tracer, "_FLUSH_EVERY", cut):
            hook = _through_hook(hooked, fmt, ops)
            _through_write(written, fmt, ops)
        hooked = os.path.join(hooked, os.listdir(hooked)[0])
        with open(hooked, "rb") as a, open(written, "rb") as b:
            assert a.read() == b.read()
        assert hook.events_written == len(ops)
        assert hook.bytes_written == os.path.getsize(hooked)
        with TraceReader(hooked) as a, TraceReader(written) as b:
            assert a.digests() == b.digests()
            assert a.counts() == b.counts()
            events = a.events()
        assert [e.seq for e in events] == list(range(len(ops)))
        assert [e.loc for e in events] == [_SITES[op[-1]] for op in ops]


def test_equal_locations_share_one_string_id(tmp_path):
    """Fresh location objects per event — what a rewriter decoding a text
    trace passes — with few distinct values: one string each, however
    often the table of resolved sites starts over and whichever ``id``
    a collected object hands on."""
    from repro.profiler import tracer
    path = str(tmp_path / "trace.0.bin")
    n = 600
    with mock.patch.object(tracer, "_SITE_CACHE", 16):
        with TraceWriter(path, 0, 1, format=FORMAT_BINARY) as writer:
            for seq in range(n):
                loc = SourceLocation("app.py", seq % 5, "main")
                if seq % 2:
                    writer.write(CallEvent(0, seq, "Barrier",
                                           {"comm": 0}, loc))
                else:
                    writer.write(MemEvent(0, seq, "load", 64, 8, "x", loc))
                assert len(writer._call_sites) <= 16
                assert len(writer._mem_sites) <= 16
    with TraceReader(path) as reader:
        strings = reader._table.strings
        events = reader.events()
    assert sorted(s for s in strings if s.startswith("app.py")) == \
        [f"app.py:{line}:main" for line in range(5)]
    assert [e.loc.lineno for e in events] == [seq % 5 for seq in range(n)]


def _located_app(mpi, lines):
    """Calls from two lines of one function, from a comprehension and
    from ``exec``'d code; ``lines`` learns where they were."""
    import sys
    mpi.barrier(); lines["first"] = sys._getframe().f_lineno  # noqa: E702
    mpi.barrier(); lines["second"] = sys._getframe().f_lineno  # noqa: E702
    lines["comp"] = sys._getframe().f_lineno + 1
    [mpi.barrier() for _ in range(2)]
    exec(compile("def step(mpi):\n    mpi.barrier()\nstep(mpi)\n",
                 "<generated>", "exec"), {"mpi": mpi})


@pytest.mark.parametrize("fmt", FORMATS)
def test_call_sites_decode_to_the_right_statement(tmp_path, fmt):
    lines = {}
    run = profile_run(_located_app, 2, params={"lines": lines},
                      trace_dir=str(tmp_path), trace_format=fmt)
    for rank in range(2):
        locs = [e.loc for e in run.traces.events(rank)
                if isinstance(e, CallEvent) and e.fn == "Barrier"]
        assert [(loc.filename, loc.lineno, loc.function) for loc in locs] \
            == [(__file__, lines["first"], "_located_app"),
                (__file__, lines["second"], "_located_app"),
                (__file__, lines["comp"], "<listcomp>"),
                (__file__, lines["comp"], "<listcomp>"),
                ("<generated>", 2, "step")]
