"""Binary columnar trace format and the vectorized reader paths.

Covers the format-parity contract: a randomized event stream written in
either format reads back as the *same* typed events, the footer-served
``event_counts`` equals a full scan, and an unclosed or truncated binary
file is rejected with a clear :class:`TraceFormatError` rather than
silently losing events.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calltable import CallTable
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import (
    FORMAT_BINARY, FORMAT_TEXT, MemBlock, TraceReader, TraceSet,
    TraceWriter, _END_MAGIC, _MAGIC,
)
from repro.util.errors import TraceFormatError
from repro.util.location import SourceLocation

FORMATS = (FORMAT_TEXT, FORMAT_BINARY)

LOC_A = SourceLocation("app.py", 10, "main")
LOC_B = SourceLocation("kernel.py", 42, "compute")


def sample_events(rank, nmems=5):
    events = [CallEvent(rank=rank, seq=0, fn="Win_create",
                        args={"win": 1, "comm": 0, "base": 4096,
                              "size": 256, "disp_unit": 1, "var": "buf"},
                        loc=LOC_A)]
    seq = 1
    for i in range(nmems):
        events.append(MemEvent(
            rank=rank, seq=seq, access="store" if i % 2 else "load",
            addr=4096 + 8 * i, size=8, var="buf",
            loc=LOC_A if i % 3 else LOC_B))
        seq += 1
    events.append(CallEvent(rank=rank, seq=seq, fn="Win_fence",
                            args={"win": 1}, loc=LOC_B))
    return events


def write_trace(directory, rank, events, fmt, nranks=1):
    path = TraceSet.rank_path(str(directory), rank, fmt)
    with TraceWriter(path, rank, nranks, app="t", format=fmt) as writer:
        for event in events:
            writer.write(event)
    return path


class TestCodecFrames:
    """A call the columns cannot hold is framed as its text record (a
    ``C`` frame) and read back as a codec row in its place, in a file
    with ``K`` frames or without any."""

    HUGE = 1 << 63      # past int64: no column holds it

    def test_a_call_that_does_not_fit_is_the_one_codec_row(self, tmp_path):
        events = sample_events(0)
        events[-1] = dataclasses.replace(
            events[-1], args={"win": 1, "pad": self.HUGE})
        path = write_trace(tmp_path, 0, events, FORMAT_BINARY)
        with TraceReader(path) as reader:
            assert set(reader._frames[0]) == {"K", "M", "C"}
            cols, _counts = reader.read_calls()
            assert list(cols.codec) == [1] and cols[1] == events[-1]
            assert list(cols) == [events[0], events[-1]]
            table = reader.call_table
        reference = CallTable.from_events(0, [events[0], events[-1]])
        assert (table.win.tolist(), table.fn.tolist()) == \
            (reference.win.tolist(), reference.fn.tolist())

    def test_a_file_without_a_k_frame(self, tmp_path):
        events = [dataclasses.replace(event, args={**event.args,
                                                   "pad": self.HUGE})
                  if isinstance(event, CallEvent) else event
                  for event in sample_events(0)]
        path = write_trace(tmp_path, 0, events, FORMAT_BINARY)
        with TraceReader(path) as reader:
            assert set(reader._frames[0]) == {"C", "M"}
            assert reader.events() == events
            cols, counts = reader.read_calls()
            assert list(cols.codec) == [0, 1] and counts["call"] == 2
            assert list(cols) == [events[0], events[-1]]
            assert reader.call_table.seq.tolist() == [0, 6]
            assert reader.content_digest(verify=True) == \
                reader.content_digest()

    def test_a_bad_record_names_its_frame(self, tmp_path):
        events = sample_events(0)
        events[-1] = dataclasses.replace(
            events[-1], args={"win": "x", "pad": self.HUGE})
        path = write_trace(tmp_path, 0, events, FORMAT_BINARY)
        with TraceReader(path) as reader:
            offset = reader._frames[1][reader._frames[0].index("C")]
            with pytest.raises(TraceFormatError,
                               match=f"C frame at byte {offset}: .*"
                                     "malformed") as err:
                reader.read_calls()
        assert str(err.value).startswith(f"{path}: ")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_typed_iteration_identical(self, tmp_path, fmt):
        events = sample_events(0)
        path = write_trace(tmp_path, 0, events, fmt)
        with TraceReader(path) as reader:
            assert reader.format == fmt
            assert reader.events() == events

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_stream_preserves_order_and_packs_mems(self, tmp_path, fmt):
        events = sample_events(0)
        path = write_trace(tmp_path, 0, events, fmt)
        with TraceReader(path) as reader:
            items = list(reader.stream())
        kinds = [type(item).__name__ for item in items]
        assert kinds == ["CallEvent", "MemBlock", "CallEvent"]
        # flattening the stream restores the exact typed event sequence
        flat = []
        for item in items:
            flat.extend(item.iter_events() if isinstance(item, MemBlock)
                        else [item])
        assert flat == events

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_mem_block_columns_match_events(self, tmp_path, fmt):
        events = sample_events(0, nmems=7)
        mems = [e for e in events if isinstance(e, MemEvent)]
        path = write_trace(tmp_path, 0, events, fmt)
        with TraceReader(path) as reader:
            blocks = list(reader.mem_blocks())
        assert sum(len(b) for b in blocks) == len(mems)
        block = blocks[0]
        arr = block.array
        assert arr["addr"].tolist() == [m.addr for m in mems]
        assert arr["seq"].tolist() == [m.seq for m in mems]
        assert arr["size"].tolist() == [m.size for m in mems]
        assert [block.table.string(v) for v in arr["var"]] == \
            [m.var for m in mems]
        assert [block.table.loc(v) for v in arr["loc"]] == \
            [m.loc for m in mems]
        assert arr["access"].tolist() == \
            [0 if m.access == "load" else 1 for m in mems]

    def test_binary_much_smaller_than_text(self, tmp_path):
        events = sample_events(0, nmems=2000)
        text = write_trace(tmp_path, 0, events, FORMAT_TEXT)
        os.rename(text, str(tmp_path / "text.trace"))
        binary = write_trace(tmp_path, 0, events, FORMAT_BINARY)
        assert os.path.getsize(binary) * 2 <= \
            os.path.getsize(str(tmp_path / "text.trace"))


SMALL_INT = st.integers(min_value=0, max_value=2 ** 40)


@st.composite
def event_stream(draw):
    """A randomized per-rank event stream with valid, increasing seqs."""
    n = draw(st.integers(min_value=0, max_value=40))
    events = []
    for seq in range(n):
        if draw(st.booleans()):
            events.append(MemEvent(
                rank=0, seq=seq,
                access=draw(st.sampled_from(("load", "store"))),
                addr=draw(SMALL_INT), size=draw(
                    st.integers(min_value=1, max_value=1 << 20)),
                var=draw(st.text(
                    alphabet=st.characters(min_codepoint=33,
                                           max_codepoint=126),
                    min_size=1, max_size=8)),
                loc=draw(st.sampled_from((LOC_A, LOC_B)))))
        else:
            events.append(CallEvent(
                rank=0, seq=seq,
                fn=draw(st.sampled_from(("Barrier", "Win_fence", "Put"))),
                args={"win": draw(st.integers(0, 3))},
                loc=draw(st.sampled_from((LOC_A, LOC_B)))))
    return events


@given(events=event_stream(), fmt=st.sampled_from(FORMATS))
@settings(max_examples=60, deadline=None)
def test_prop_round_trip_both_formats(tmp_path_factory, events, fmt):
    tmp_path = tmp_path_factory.mktemp("prop")
    path = write_trace(tmp_path, 0, events, fmt)
    with TraceReader(path) as reader:
        assert reader.events() == events
        counts = reader.counts()
    assert counts["call"] == sum(
        isinstance(e, CallEvent) for e in events)
    assert counts["mem"] == counts["load"] + counts["store"]
    assert counts["load"] == sum(
        isinstance(e, MemEvent) and e.access == "load" for e in events)


class TestWriterLifecycle:
    def test_context_manager_closes(self, tmp_path):
        path = TraceSet.rank_path(str(tmp_path), 0, FORMAT_BINARY)
        with TraceWriter(path, 0, 1, format=FORMAT_BINARY) as writer:
            writer.write(sample_events(0)[0])
        with TraceReader(path) as reader:
            assert reader.counts()["call"] == 1

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_context_manager_aborts_on_error(self, tmp_path, fmt):
        path = TraceSet.rank_path(str(tmp_path), 0, fmt)
        with pytest.raises(RuntimeError):
            with TraceWriter(path, 0, 1, format=fmt) as writer:
                for event in sample_events(0):
                    writer.write(event)
                raise RuntimeError("boom")
        assert writer._closed
        if fmt == FORMAT_BINARY:
            # no footer/trailer => the reader refuses the file
            with pytest.raises(TraceFormatError):
                TraceReader(path)

    def test_unclosed_binary_writer_detected(self, tmp_path):
        path = TraceSet.rank_path(str(tmp_path), 0, FORMAT_BINARY)
        writer = TraceWriter(path, 0, 1, format=FORMAT_BINARY)
        for event in sample_events(0, nmems=20):
            writer.write(event)
        writer.abort()  # simulates a crash before close()
        with pytest.raises(TraceFormatError,
                           match="trailer|truncated|unclosed|empty"):
            TraceReader(path)

    def test_truncated_binary_file_detected(self, tmp_path):
        path = TraceSet.rank_path(str(tmp_path), 0, FORMAT_BINARY)
        write_trace(tmp_path, 0, sample_events(0, nmems=50),
                    FORMAT_BINARY)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) // 2])
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_empty_file_detected(self, tmp_path):
        path = TraceSet.rank_path(str(tmp_path), 0, FORMAT_BINARY)
        open(path, "wb").close()
        with pytest.raises(TraceFormatError, match="empty"):
            TraceReader(path)

    def test_close_is_idempotent(self, tmp_path):
        path = TraceSet.rank_path(str(tmp_path), 0, FORMAT_BINARY)
        writer = TraceWriter(path, 0, 1, format=FORMAT_BINARY)
        writer.write(sample_events(0)[0])
        writer.close()
        writer.close()
        with TraceReader(path) as reader:
            # a double close must not have appended a second footer
            assert reader._mm[-len(_END_MAGIC):] == _END_MAGIC
            assert reader._mm[:len(_MAGIC)] == _MAGIC


class TestReaderHandleReuse:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_multiple_iterations_one_reader(self, tmp_path, fmt):
        events = sample_events(0)
        path = write_trace(tmp_path, 0, events, fmt)
        with TraceReader(path) as reader:
            assert reader.events() == events
            assert reader.events() == events  # handle is reused, not reopened
            calls, counts = reader.read_calls()
            assert [c.fn for c in calls] == ["Win_create", "Win_fence"]
            assert reader.events() == events  # still fine after read_calls

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_counts_match_full_scan(self, tmp_path, fmt):
        events = sample_events(0, nmems=11)
        path = write_trace(tmp_path, 0, events, fmt)
        with TraceReader(path) as reader:
            counts = reader.counts()
            scanned = {"call": 0, "mem": 0, "load": 0, "store": 0}
            for event in reader:
                if isinstance(event, CallEvent):
                    scanned["call"] += 1
                else:
                    scanned["mem"] += 1
                    scanned[event.access] += 1
        assert counts == scanned


class TestTraceSet:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_event_counts_differential(self, tmp_path, fmt):
        for rank in range(3):
            write_trace(tmp_path, rank,
                        sample_events(rank, nmems=4 + rank), fmt,
                        nranks=3)
        traces = TraceSet(str(tmp_path))
        counts = traces.event_counts()
        scanned = {"call": 0, "mem": 0, "load": 0, "store": 0}
        for rank in range(3):
            for event in traces.iter_events(rank):
                if isinstance(event, CallEvent):
                    scanned["call"] += 1
                else:
                    scanned["mem"] += 1
                    scanned[event.access] += 1
        assert counts == scanned

    def test_mixed_format_set(self, tmp_path):
        write_trace(tmp_path, 0, sample_events(0), FORMAT_TEXT, nranks=2)
        write_trace(tmp_path, 1, sample_events(1), FORMAT_BINARY,
                    nranks=2)
        traces = TraceSet(str(tmp_path))
        assert traces.nranks == 2
        assert traces.events(0) == sample_events(0)
        assert traces.events(1) == sample_events(1)

    def test_both_formats_for_one_rank_rejected(self, tmp_path):
        write_trace(tmp_path, 0, sample_events(0), FORMAT_TEXT)
        write_trace(tmp_path, 0, sample_events(0), FORMAT_BINARY)
        with pytest.raises(TraceFormatError, match="both"):
            TraceSet(str(tmp_path))

    def test_iter_events_is_lazy(self, tmp_path):
        write_trace(tmp_path, 0, sample_events(0), FORMAT_BINARY)
        traces = TraceSet(str(tmp_path))
        iterator = traces.iter_events(0)
        first = next(iterator)
        assert isinstance(first, CallEvent)
        assert list(iterator) == sample_events(0)[1:]

    def test_backup_files_ignored(self, tmp_path):
        write_trace(tmp_path, 0, sample_events(0), FORMAT_BINARY)
        (tmp_path / "trace.backup").write_text("junk")
        (tmp_path / "trace.0.bin.orig").write_text("junk")
        traces = TraceSet(str(tmp_path))
        assert traces.nranks == 1
