"""Trace file writer/reader/set tests."""

import dataclasses
import os
from collections import Counter

import pytest

from repro import api
from repro.apps.registry import bug_case
from repro.profiler import tracer
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import TraceReader, TraceSet, TraceWriter
from repro.util.errors import TraceFormatError


def write_trace(tmp_path, rank, nranks, events):
    path = TraceSet.rank_path(str(tmp_path), rank)
    writer = TraceWriter(path, rank, nranks, app="t")
    for event in events:
        writer.write(event)
    writer.close()
    return path


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        events = [CallEvent(0, 0, "Barrier", {"comm": 0}),
                  MemEvent(0, 1, "load", 4096, 8, "x")]
        path = write_trace(tmp_path, 0, 1, events)
        reader = TraceReader(path)
        assert reader.header.rank == 0
        assert reader.header.nranks == 1
        assert reader.header.app == "t"
        back = reader.events()
        assert len(back) == 2
        assert back[0].fn == "Barrier"
        assert back[1].addr == 4096

    def test_large_trace_buffering(self, tmp_path):
        events = [MemEvent(0, i, "load", 4096 + i, 8, "x")
                  for i in range(10_000)]
        path = write_trace(tmp_path, 0, 1, events)
        assert len(TraceReader(path).events()) == 10_000

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.0.log"
        path.write_text("C seq=0 fn=$Barrier loc=$a:1:f\n")
        with pytest.raises(TraceFormatError, match="header"):
            TraceReader(str(path))

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_bytes_written_is_the_file_size(self, tmp_path, fmt):
        """Encoded bytes, not characters: a non-ASCII buffer name or
        path must not make the profiler under-report what it wrote."""
        from repro.util.location import SourceLocation
        loc = SourceLocation("/tmp/прог.py", 3, "main")
        path = TraceSet.rank_path(str(tmp_path), 0, fmt)
        with TraceWriter(path, 0, 1, app="naïve", format=fmt) as writer:
            for seq in range(0, 6000, 2):   # past one flush
                writer.write(MemEvent(0, seq, "load", 64, 8, "ψ_буфер", loc))
                writer.write(CallEvent(0, seq + 1, "Put", {"var": "ψ"}, loc))
        assert writer.bytes_written == os.path.getsize(path)
        assert len(TraceReader(path).events()) == 6000

    def test_events_written_counter(self, tmp_path):
        path = TraceSet.rank_path(str(tmp_path), 0)
        writer = TraceWriter(path, 0, 1)
        writer.write(CallEvent(0, 0, "Barrier", {}))
        assert writer.events_written == 1
        writer.close()


class TestTraceSet:
    def test_discovers_all_ranks(self, tmp_path):
        for rank in range(3):
            write_trace(tmp_path, rank, 3,
                        [CallEvent(rank, 0, "Barrier", {"comm": 0})])
        ts = TraceSet(str(tmp_path))
        assert ts.nranks == 3
        assert len(ts.events(2)) == 1

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_a_check_reads_every_rank_file_once(self, tmp_path, monkeypatch,
                                                fmt):
        """One reader per rank file per check, whatever the executor:
        the set learns its rank count from a header, then opens each
        file once for the whole check (a reader is constructed by
        ``TraceReader._open``) and reads each file's memory rows at most
        once (a binary file's segments are walked by
        ``TraceReader._segments``, a text file's rows decoded by a
        ``_TextSection`` pass with columns)."""
        case = bug_case("lockopts")
        trace_dir, cache = str(tmp_path / "t"), str(tmp_path / "cache")
        run = api.run(case.app, case.nranks, params=case.params(True),
                      trace_dir=trace_dir, trace_format=fmt)
        paths = [run.traces.path(rank) for rank in range(case.nranks)]
        opened, read = [], Counter()
        open_file = TraceReader._open
        monkeypatch.setattr(TraceReader, "_open", lambda self, path: (
            opened.append(path), open_file(self, path))[1])
        segments = TraceReader._segments
        monkeypatch.setattr(TraceReader, "_segments", lambda self: (
            read.update([self.path]), segments(self))[1])
        section = tracer._TextSection.__iter__
        monkeypatch.setattr(tracer._TextSection, "__iter__", lambda self: (
            read.update([self._reader.path] if self._columns else []),
            section(self))[1])

        def check(**config):
            del opened[:]
            read.clear()
            report = api.check(trace_dir, **config)
            assert sorted(opened) == sorted(paths), config
            assert {path: n for path, n in read.items() if n > 1} == {}, \
                config
            assert set(read) <= set(paths), config
            return report

        try:
            for config in ({}, dict(jobs=2), dict(streaming=True),
                           dict(incremental=True, cache_dir=cache),
                           dict(incremental=True, cache_dir=cache)):
                assert check(**config).findings
        finally:
            api.shutdown_pools()
        # one rank edited, re-checked against the populated cache
        with TraceReader(paths[0]) as reader:
            header, events = reader.header, reader.events()
        k = next(k for k, event in enumerate(events)
                 if isinstance(event, MemEvent))
        events[k] = dataclasses.replace(events[k], addr=events[k].addr + 8)
        with TraceWriter(paths[0], 0, header.nranks, app=header.app,
                         format=fmt) as writer:
            for event in events:
                writer.write(event)
        check(incremental=True, cache_dir=cache)

    def test_missing_rank_rejected(self, tmp_path):
        write_trace(tmp_path, 0, 3, [])
        write_trace(tmp_path, 2, 3, [])
        with pytest.raises(TraceFormatError, match="expected traces"):
            TraceSet(str(tmp_path))

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="no trace files"):
            TraceSet(str(tmp_path))

    def test_event_counts(self, tmp_path):
        write_trace(tmp_path, 0, 2, [
            CallEvent(0, 0, "Barrier", {"comm": 0}),
            MemEvent(0, 1, "load", 0, 8, "x"),
            MemEvent(0, 2, "store", 0, 8, "x"),
        ])
        write_trace(tmp_path, 1, 2, [MemEvent(1, 0, "load", 0, 4, "y")])
        counts = TraceSet(str(tmp_path)).event_counts()
        assert counts == {"call": 1, "mem": 3, "load": 2, "store": 1}


class TestValidationAtTheCall:
    """An append only records, and the batch is encoded later; a block
    that cannot be written must still fail at its own call, in either
    format, and leave nothing behind."""

    INT64_MAX = (1 << 63) - 1
    BAD = {
        "negative-stride": ("load", 64, 2, -8),
        "unknown-access": ("poke", 64, 1, 0),
        "seq-past-int64": ("load", 64, 2, 0),
        "addr-past-int64": ("store", INT64_MAX - 4, 2, 8),
    }

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_block_raises_at_its_call_and_records_nothing(
            self, tmp_path, fmt, case):
        access, addr, count, stride = self.BAD[case]
        seq = self.INT64_MAX if case == "seq-past-int64" else 1
        path = TraceSet.rank_path(str(tmp_path), 0, fmt)
        writer = TraceWriter(path, 0, 1, format=fmt)
        writer.append_call("Barrier", {"comm": 0}, None, 0)
        with pytest.raises(TraceFormatError):
            writer.append_mem_columns(access, "x", None, seq, addr, 8,
                                      count, stride)
        assert writer.events_written == 1
        writer.append_mem_columns("store", "x", None, 1, 128, 8, 2, 8)
        writer.close()
        events = TraceReader(path).events()
        assert [(e.seq, getattr(e, "fn", None), getattr(e, "addr", None))
                for e in events] == [(0, "Barrier", None), (1, None, 128),
                                     (2, None, 136)]
