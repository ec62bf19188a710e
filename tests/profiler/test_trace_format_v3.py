"""Binary format v6: calls as columns, memory rows as strided runs, call
columns at their narrowest width, each source file named once per rank
file, and the one version read.

* round trip: arbitrary call events — negative ints, bools, empty and
  long int lists, strings needing escapes, unicode, an int past int64
  that forces the codec route — interleaved with memory rows and
  strided runs of them survive both writer lanes with the same bytes,
  equal decoded events, equal ``stream()`` order and equal ``digests()``
  wherever the writer cut its segments; so do calls whose seqs, values
  and list elements sit at the edges of the 1-, 2-, 4- and 8-byte
  widths, and each ``K`` column takes the narrowest width that holds it;
  so do locations whose files and functions hold ``:``, spaces and
  non-ASCII characters, several files to a rank, and a checkout path
  10 characters longer costs a rank file 10 bytes, not 10 per location;
* the lazy ``CallColumns`` ``read_calls`` returns for a text and for a
  binary file of one run equal, element by element, the per-line
  ``decode_event`` of the text file, and ``CallTable.from_columns`` of
  either equals ``CallTable.from_events`` column by column, on the
  Table II corpus, LU, heat2d and three generated programs;
* the committed sets check to their reports under every executor, and
  ``tools/trace_filter`` rewrites each to the same bytes; a file whose
  header names any other binary version is refused by that version.
"""

import dataclasses
import json
import os
import pickle
import re
import shutil
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import api
from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES
from repro.core.calltable import CallTable
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import canonical_report, profile_program
from repro.profiler import tracer
from repro.profiler.callcols import CallColumns
from repro.profiler.events import CallEvent, MemEvent, decode_event
from repro.profiler.tracer import (
    FORMAT_BINARY, MemBlock, TraceReader, TraceSet, TraceWriter,
)
from repro.tools.trace_filter import filter_traces
from repro.util.errors import TraceFormatError
from repro.util.location import SourceLocation
from repro.util.records import INT64_MAX, INT64_MIN

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
#: the committed sets and the frames their files hold: ``ping-pong`` on
#: 2 ranks, and ``lu`` n=16 on 4 ranks (race-free) without and with its
#: locations captured (under the app's path relative to the repository)
FIXTURES = {"pingpong": {"K", "M"}, "lu4_noloc": {"K", "R", "M"},
            "lu4": {"K", "R", "M"}}

LOCS = (SourceLocation("app.py", 10, "main"),
        SourceLocation("dir with space/k=1|%.py", 42, "compute"))
KEYS = ("win", "comm", "target", "group", "var", "op", "count", "flag",
        "blocklengths", "displacements", "assert")

ints = st.one_of(
    st.integers(-(1 << 63), (1 << 63) - 1), st.integers(-5, 5),
    st.booleans())
huge = st.integers(1 << 63, 1 << 70)
texts = st.text(max_size=12)
int_lists = st.one_of(
    st.lists(st.integers(-(1 << 40), 1 << 40), max_size=6),
    st.lists(st.integers(0, 9), min_size=200, max_size=300),
    st.lists(st.integers(0, 9), max_size=4).map(tuple))
values = st.one_of(ints, ints, texts, int_lists, st.none(), huge,
                   st.lists(huge, min_size=1, max_size=2))


@st.composite
def event_streams(draw):
    """A per-rank stream with increasing seqs: calls with arbitrary
    arguments, single memory events and strided runs of them."""
    events, seq = [], 0
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(("call", "call", "mem", "run")))
        loc = draw(st.sampled_from(LOCS))
        if kind == "call":
            keys = draw(st.lists(st.sampled_from(KEYS), unique=True,
                                 max_size=5))
            events.append(CallEvent(
                rank=0, seq=seq,
                # names whose table row reads no argument: the table
                # rejects e.g. a Win_fence whose ``win`` is a string
                fn=draw(st.one_of(st.sampled_from(("Put", "Comm_rank",
                                                   "Type_indexed")),
                                  texts.map("user ".__add__))),
                args={key: draw(values) for key in keys}, loc=loc))
            seq += 1
            continue
        count = 1 if kind == "mem" else draw(st.integers(2, 9))
        access = draw(st.sampled_from(("load", "store")))
        var, addr = draw(texts.filter(bool)), draw(st.integers(0, 1 << 40))
        size, stride = draw(st.sampled_from((4, 8))), \
            draw(st.sampled_from((0, 8, 24)))
        events.extend(MemEvent(rank=0, seq=seq + i, access=access,
                               addr=addr + stride * i, size=size, var=var,
                               loc=loc)
                      for i in range(count))
        seq += count
    return events


def canonical(event):
    """What any reader decodes ``event`` to: the text round trip (bools
    are ints, lists are tuples, ``None`` arguments are not logged)."""
    return decode_event(event.rank, event.encode())


def emit(path, events, fast):
    """Write through ``write(event)``, or through the profiler's fast
    lanes (``append_call``, and ``append_mem_columns`` per strided run:
    rows of one var, loc, access and size whose address steps by the
    stride of the first two)."""
    with TraceWriter(path, 0, 1, app="p", format=FORMAT_BINARY) as writer:
        k = 0
        while k < len(events):
            event = events[k]
            k += 1
            if not fast:
                writer.write(event)
            elif isinstance(event, CallEvent):
                writer.append_call(event.fn, event.args, event.loc,
                                   event.seq)
            else:
                run, stride = 1, None
                while k < len(events) and \
                        isinstance(events[k], MemEvent) and \
                        (events[k].var, events[k].loc, events[k].access,
                         events[k].size) == \
                        (event.var, event.loc, event.access, event.size):
                    step = events[k].addr - event.addr
                    if stride is None:
                        if step < 0:
                            break
                        stride = step
                    if step != run * stride:
                        break
                    run += 1
                    k += 1
                writer.append_mem_columns(event.access, event.var,
                                          event.loc, event.seq, event.addr,
                                          event.size, run, stride or 0)


def flatten(stream):
    out = []
    for item in stream:
        out.extend(item.iter_events() if isinstance(item, MemBlock)
                   else [item])
    return out


@given(events=event_streams(), cut=st.sampled_from((1, 2, 3, 7, 4096)))
@example(events=[CallEvent(0, 0, "Put", {"win": 1 << 63}, LOCS[0]),
                 MemEvent(0, 1, "load", 64, 8, "x", LOCS[1]),
                 CallEvent(0, 2, "Win_post", {"win": True, "group": []},
                           LOCS[0])], cut=2)
@settings(max_examples=150, deadline=None)
def test_prop_round_trip(tmp_path_factory, events, cut):
    tmp = tmp_path_factory.mktemp("v3")
    expected = [canonical(event) for event in events]
    calls = [event for event in expected if isinstance(event, CallEvent)]
    digests, files = set(), {}
    for name, fast, every in (("write", False, 4096), ("fast", True, 4096),
                              ("cut", False, cut), ("fastcut", True, cut)):
        path = str(tmp / f"{name}.bin")
        with mock.patch.object(tracer, "_FLUSH_EVERY", every):
            emit(path, events, fast)
        with open(path, "rb") as fh:
            # a block leaves the bytes its rows one at a time leave
            assert files.setdefault(every, fh.read()) == files[every]
        with TraceReader(path) as reader:
            assert reader.header.version == tracer.BINARY_VERSION
            assert reader.events() == expected
            assert flatten(reader.stream()) == expected
            read, counts = reader.read_calls()
            assert isinstance(read, CallColumns)
            assert list(read) == calls
            assert counts["call"] == len(calls)
            assert counts["mem"] == len(expected) - len(calls) == \
                sum(len(block) for block in reader.mem_blocks())
            digests.add(json.dumps(reader.digests(), sort_keys=True))
    assert len(digests) == 1


#: the edges of the widths a K column may take (v5), a step either side
#: of each, and the int64 extremes
EDGES = sorted({sign * (1 << bits) + step for bits in (7, 15, 31)
                for sign in (1, -1) for step in (-1, 0, 1)}
               | {0, INT64_MIN, INT64_MAX})
edge_ints = st.one_of(st.sampled_from(EDGES), ints)


@st.composite
def edge_calls(draw):
    """Calls whose seqs, values and list elements sit at the width
    edges: a frame's columns take every width, and frames cut apart
    take different ones."""
    n = draw(st.integers(1, 12))
    seqs = sorted(draw(st.lists(
        st.one_of(st.sampled_from([e for e in EDGES if e >= 0]),
                  st.integers(0, INT64_MAX)),
        min_size=n, max_size=n, unique=True)))
    return [CallEvent(0, seq, draw(st.sampled_from(("Put", "user f"))),
                      {"count": draw(edge_ints),
                       "displacements": draw(st.lists(edge_ints,
                                                      max_size=4)),
                       "var": draw(st.sampled_from(("x", "y")))},
                      draw(st.sampled_from(LOCS)))
            for seq in seqs]


@given(events=edge_calls(), cut=st.sampled_from((1, 2, 3, 4096)))
@settings(max_examples=100, deadline=None)
def test_prop_round_trip_at_the_width_edges(tmp_path_factory, events, cut):
    tmp = tmp_path_factory.mktemp("edges")
    expected = [canonical(event) for event in events]
    digests = set()
    for name, fast, every in (("write", False, 4096), ("fast", True, cut)):
        path = str(tmp / f"{name}.bin")
        with mock.patch.object(tracer, "_FLUSH_EVERY", every):
            emit(path, events, fast)
        with TraceReader(path) as reader:
            assert set(reader._frames[0]) == {"K"}     # no call refused
            assert reader.events() == expected
            assert list(reader.read_calls()[0]) == expected
            digests.add(reader.content_digest(verify=True))
    assert len(digests) == 1


#: file and function names a location may hold: separators of the text
#: form, spaces, non-ASCII
names = st.text(alphabet=st.sampled_from("ab:/ .é中"), max_size=8)


@st.composite
def located_streams(draw):
    """Calls and memory runs at locations over several files, whose
    names hold ``:`` (the text form's separator), spaces and non-ASCII
    characters."""
    files = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    locations = st.builds(SourceLocation, st.sampled_from(files),
                          st.integers(0, 1 << 40), names)
    events, seq = [], 0
    for _ in range(draw(st.integers(1, 20))):
        loc = draw(locations)
        if draw(st.booleans()):
            events.append(CallEvent(0, seq, draw(st.sampled_from(
                ("Put", "Win_fence", "user f"))), {"win": draw(ints),
                                                   "var": "x"}, loc))
            seq += 1
            continue
        count, stride = draw(st.integers(1, 5)), draw(st.sampled_from((0, 8)))
        events.extend(MemEvent(0, seq + i, "store", 64 + stride * i, 8,
                               draw(st.sampled_from(("x", "y:z é"))), loc)
                      for i in range(count))
        seq += count
    return events


def exact(event):
    """What a v6 reader decodes ``event`` to: its arguments as any
    reader has them, its location as written — which the text form
    cannot hold when a function name has a ``:``."""
    return dataclasses.replace(
        canonical(dataclasses.replace(event, loc=LOCS[0])), loc=event.loc)


@given(events=located_streams())
@example(events=[
    CallEvent(0, 0, "Put", {"win": 1, "var": "x"},
              SourceLocation("a:b/c é.py", 3, "f:1:g")),
    MemEvent(0, 1, "store", 64, 8, "x", SourceLocation("中 d", 0, "h:"))])
@settings(max_examples=100, deadline=None)
def test_prop_round_trip_of_locations(tmp_path_factory, events):
    tmp = tmp_path_factory.mktemp("locations")
    expected = [exact(event) for event in events]
    calls = [event for event in expected if isinstance(event, CallEvent)]
    files = {event.loc.filename for event in events}
    digests = set()
    for name, fast in (("write", False), ("fast", True)):
        path = str(tmp / f"{name}.bin")
        emit(path, events, fast)
        with TraceReader(path) as reader:
            assert reader.header.version == tracer.BINARY_VERSION
            assert set(reader._frames[0]) <= {"K", "R", "M"}
            assert reader.events() == expected
            assert list(reader.read_calls()[0]) == calls
            digests.add(reader.content_digest(verify=True))
        with open(path, "rb") as fh:
            data = fh.read()
        footer_off = struct.unpack("<Q", data[-16:-8])[0]
        footer = json.loads(data[footer_off + 5:-16])
        assert sorted(footer["files"]) == sorted(files)   # each once
    assert len(digests) == 1


def test_a_longer_checkout_costs_its_length_once(tmp_path):
    """The same events at 40 sites of one file, its directory 10
    characters longer the second time: the rank file is 10 bytes
    longer, not 10 per location."""
    sizes = []
    for root in ("/work/repo", "/work/repo0123456789"):
        path = str(tmp_path / f"{len(root)}.bin")
        with TraceWriter(path, 0, 1, format=FORMAT_BINARY) as writer:
            for line in range(40):
                loc = SourceLocation(f"{root}/src/app.py", line + 1, "main")
                writer.write(CallEvent(0, 2 * line, "Win_fence",
                                       {"win": 0}, loc))
                writer.write(MemEvent(0, 2 * line + 1, "store", 64, 8, "x",
                                      loc))
        sizes.append(os.path.getsize(path))
    assert sizes[1] - sizes[0] == 10


@pytest.mark.parametrize("rows", [3, 100])
@pytest.mark.parametrize("value,width", [
    (127, 1), (-128, 1), (128, 2), (-129, 2), (32767, 2), (-32768, 2),
    (32768, 4), (-32769, 4), ((1 << 31) - 1, 4), (-(1 << 31), 4),
    (1 << 31, 8), (-(1 << 31) - 1, 8), (INT64_MAX, 8), (INT64_MIN, 8)])
def test_call_columns_take_their_narrowest_width(tmp_path, value, width,
                                                 rows):
    """The K header's width bytes (seq, vals, lists, loc, shape): each
    the narrowest of 1, 2, 4 and 8 bytes that holds the column's min and
    max — spelled out here, the layout is the spec.  Short and long
    columns alike (the writer finds the extremes two ways)."""
    counts = [-(k % 2) for k in range(rows - 1)] + [value]
    path = str(tmp_path / "trace.0.bin")
    with TraceWriter(path, 0, 1, format=FORMAT_BINARY) as writer:
        for seq, count in enumerate(counts):
            writer.write(CallEvent(0, seq, "Put",
                                   {"count": count, "var": "x"}, LOCS[0]))
    with TraceReader(path) as reader:
        offset = reader._frames[1][0]
        assert [event.args["count"] for event in reader.events()] == counts
    with open(path, "rb") as fh:
        data = fh.read()
    assert data[offset:offset + 1] == b"K"
    assert list(data[offset + 17:offset + 22]) == [1, width, 1, 1, 1]
    nrows, nvals, nlists, _nmem = struct.unpack_from("<IIII", data,
                                                     offset + 1)
    assert (nrows, nvals, nlists) == (rows, 2 * rows, 0)
    vals = offset + 22 + rows
    assert [v for v, in struct.iter_unpack(
        {1: "<b", 2: "<h", 4: "<i", 8: "<q"}[width],
        data[vals:vals + nvals * width])][0::2] == counts


@pytest.mark.parametrize("args", [{"win": "w"}, {"win": [1]}, {}])
def test_malformed_control_argument_is_typed(tmp_path, args):
    """A call the table cannot place — its window a string, a list, or
    missing — is a ``TraceFormatError`` from either route, never a bare
    ``ValueError``/``KeyError`` out of the gather."""
    for fmt in ("binary", "text"):
        path = str(tmp_path / f"trace.0.{fmt}")
        with TraceWriter(path, 0, 1, format=fmt) as writer:
            writer.write(CallEvent(0, 0, "Win_complete", args, LOCS[0]))
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match="Win_complete"):
                reader.read_calls()


def test_unplannable_shape_of_a_text_keyed_call_is_classified(tmp_path):
    """``Win_lock``'s row depends on the text of ``lock_type``; a shape
    of it that also logs ``win`` as a string has no plan, and its rows
    are classified one by one — from either format."""
    calls = [CallEvent(0, 0, "Win_lock", {"win": 1, "target": 1,
                                          "lock_type": "shared"}, LOCS[0]),
             CallEvent(0, 1, "Win_lock", {"win": "12", "target": 0,
                                          "lock_type": "odd"}, LOCS[0])]
    expected = CallTable.from_events(0, calls)
    assert expected.win.tolist() == [1, 12]
    for fmt in ("binary", "text"):
        path = str(tmp_path / f"trace.0.{fmt}")
        with TraceWriter(path, 0, 1, format=fmt) as writer:
            for call in calls:
                writer.write(call)
        with TraceReader(path) as reader:
            cols, _counts = reader.read_calls()
            assert not cols.codec and list(cols) == calls
            assert_tables_equal(reader.call_table, expected)


def test_digest_tells_content_apart(tmp_path):
    """Same shapes, one value changed: only the ``calls`` digest moves."""
    def written(value):
        path = str(tmp_path / f"{value}.bin")
        emit(path, [CallEvent(0, 0, "Put", {"win": value}, LOCS[0]),
                    MemEvent(0, 1, "load", 64, 8, "x", LOCS[0])], True)
        with TraceReader(path) as reader:
            return reader.digests()
    a, b = written(1), written(2)
    assert a["calls"] != b["calls"]
    assert (a["mems"], a["strings"]) == (b["mems"], b["strings"])


def test_segments_not_cut_at_calls(tmp_path):
    """Memory rows between calls share one ``M`` frame per segment — a
    frame per ``_FLUSH_EVERY`` events, not one per call."""
    events, seq = [], 0
    for _ in range(3000):
        events.append(CallEvent(0, seq, "Win_fence", {"win": 0}, LOCS[0]))
        events.append(MemEvent(0, seq + 1, "store", 64, 8, "x", LOCS[0]))
        seq += 2
    path = str(tmp_path / "trace.0.bin")
    emit(path, events, True)
    with TraceReader(path) as reader:
        kinds = "".join(reader._frames[0])
        assert kinds == "KMKM"
        assert flatten(reader.stream()) == events
        sizes = reader.frame_bytes()
    assert sum(sizes.values()) == os.path.getsize(path)
    assert sizes["calls"] and sizes["mems"] and sizes["footer"]


def test_out_of_order_seq_starts_a_segment(tmp_path):
    """``seq`` restores the interleaving only while it increases; an
    event that breaks the order is kept in place by a segment cut."""
    events = [CallEvent(0, 5, "Barrier", {"comm": 0}, LOCS[0]),
              MemEvent(0, 3, "load", 64, 8, "x", LOCS[0]),
              CallEvent(0, 3, "Barrier", {"comm": 0}, LOCS[0]),
              MemEvent(0, 9, "load", 64, 8, "x", LOCS[0])]
    path = str(tmp_path / "trace.0.bin")
    emit(path, events, False)
    with TraceReader(path) as reader:
        assert reader.events() == events


# ----------------------------------------------------------------------
# lazy columns vs the record codec, table from columns vs from events
# ----------------------------------------------------------------------


def assert_tables_equal(a: CallTable, b: CallTable):
    assert (a.rank, a.n) == (b.rank, b.n)
    for col in ("seq", "fn", "cls", "comm", "win", "peer", "tag", "req",
                "req_kind", "target", "lock", "group_off", "group_val"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col),
                                      err_msg=col)
        assert getattr(a, col).dtype == getattr(b, col).dtype, col
    assert a.lock_types == b.lock_types


def corpus():
    for case in BUG_CASES:
        for buggy in (True, False):
            yield (f"{case.name}-{'buggy' if buggy else 'fixed'}",
                   lambda d, fmt, case=case, buggy=buggy: api.run(
                       case.app, case.nranks, params=case.params(buggy),
                       trace_dir=d, trace_format=fmt))
    yield "lu", lambda d, fmt: api.run(
        lu, 4, params=dict(n=32), trace_dir=d, trace_format=fmt,
        delivery="eager")
    yield "heat2d", lambda d, fmt: api.run(
        heat2d, 4, params=dict(rows=16, cols=8, steps=6), trace_dir=d,
        trace_format=fmt)
    for seed in (2, 5, 11):
        generated = generate_program(GenConfig(
            seed=seed, nranks=5, rounds=6, ops_per_round=5, reps=4,
            bugs=("any",) * 2))
        yield f"gen-{seed}", lambda d, fmt, g=generated: profile_program(
            g, trace_dir=d, trace_format=fmt)


@pytest.mark.parametrize("name,profile", list(corpus()),
                         ids=[name for name, _ in corpus()])
def test_columns_equal_codec(tmp_path, name, profile):
    """Either format's ``read_calls`` hands over the same thing: lazy
    columns whose events are the per-line ``decode_event`` of the text
    file, and one ``CallTable``, column by column."""
    binary = profile(str(tmp_path / "bin"), "binary").traces
    text = profile(str(tmp_path / "text"), "text").traces
    for rank in range(binary.nranks):
        decoded = [event for event in text.events(rank)
                   if isinstance(event, CallEvent)]
        with text.reader(rank) as reader:
            lines, text_counts = reader.read_calls()
            text_table = reader.call_table
        with binary.reader(rank) as reader:
            lazy, counts = reader.read_calls()
            table = reader.call_table
            assert "C" not in reader._frames[0]
        assert counts == text_counts
        assert_tables_equal(table, CallTable.from_events(rank, decoded))
        assert_tables_equal(text_table, table)
        for cols in (lines, lazy):
            assert isinstance(cols, CallColumns) and not cols.codec
            assert len(cols) == len(decoded)
            for k, event in enumerate(decoded):
                assert cols[k] == event
            # what a pool worker ships when the parent needs the calls:
            # the columns, not the objects built from them so far
            shipped = pickle.loads(pickle.dumps(cols))
            assert not shipped._events and list(shipped) == decoded
            assert_tables_equal(CallTable.from_columns(shipped), table)
        # the same shapes in the same order: a text line is read by the
        # encoder that wrote the K frame
        assert lines.shapes == lazy.shapes
        np.testing.assert_array_equal(lines.shape, lazy.shape)
        np.testing.assert_array_equal(lines.lists, lazy.lists)


def test_lazy_columns_build_only_what_is_read(tmp_path):
    """A batch check turns only registry, RMA and buffer calls into
    objects; every other call stays a row."""
    from repro.core.checker import MCChecker
    run = api.run(lu, 4, params=dict(n=32), trace_format="binary",
                  trace_dir=str(tmp_path), delivery="eager")
    checker = MCChecker(run.traces)
    checker.run()
    built = sum(len(events._events) for events in
                checker.pre.events.values())
    total = sum(len(events) for events in checker.pre.events.values())
    assert 0 < built < total / 2


# ----------------------------------------------------------------------
# the committed sets, and the one version read
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_committed_fixture_checks_to_its_report(tmp_path, name):
    """Every file is the version written, the set checks to its report
    under every executor, and a rewrite is the same bytes."""
    directory = os.path.join(FIXTURE_DIR, name)
    with open(os.path.join(directory, "expected_report.json")) as fh:
        expected = fh.read().strip()
    traces = TraceSet(directory)
    for rank in range(traces.nranks):
        with traces.reader(rank) as reader:
            assert reader.header.version == tracer.BINARY_VERSION
            assert set(reader._frames[0]) == FIXTURES[name]
    assert canonical_report(api.check(directory)) == expected
    for extra in (dict(streaming=True), dict(jobs=2),
                  dict(incremental=True, cache_dir=str(tmp_path / "c"))):
        assert canonical_report(api.check(directory, **extra)) == expected
    again = filter_traces(traces, str(tmp_path / "again"))
    for rank in range(traces.nranks):
        with open(traces.path(rank), "rb") as a, \
                open(again.path(rank), "rb") as b:
            assert a.read() == b.read()


@pytest.mark.parametrize("version", [2, 3, 4, 5, 7])
def test_a_file_of_another_version_is_refused(tmp_path, capsys, version):
    """One version is read: a file whose header names any other is a
    one-line error naming the file and its version, and the CLI exits
    2."""
    from repro.cli import main
    directory = str(tmp_path / "t")
    shutil.copytree(os.path.join(FIXTURE_DIR, "lu4"), directory)
    path = os.path.join(directory, "trace.2.bin")
    with open(path, "r+b") as fh:
        at = fh.read(64).index(b" v=6 ") + 3
        fh.seek(at)
        fh.write(str(version).encode())
    message = f"{path}: binary trace version {version} is not read"
    with pytest.raises(TraceFormatError) as err:
        TraceReader(path)
    assert str(err.value).startswith(message)
    assert "\n" not in str(err.value)
    with pytest.raises(TraceFormatError, match=re.escape(message)):
        api.check(directory)
    assert main(["check", directory, "--no-ledger"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and message in captured.err
