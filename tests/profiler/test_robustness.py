"""Trace-format robustness: malformed inputs must fail loudly, not crash
or silently mis-analyze."""

import dataclasses
import functools
import glob
import json
import os
import re
import shutil
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.apps.heat2d import heat2d
from repro.apps.registry import BUG_CASES, bug_case
from repro.cli import main
from repro.core.preprocess import preprocess_calls
from repro.gen.fuzz import canonical_report
from repro.profiler.events import CallEvent, MemEvent, decode_event
from repro.profiler.tracer import (
    _END_MAGIC, _K_HEAD, FORMAT_BINARY, TraceReader, TraceSet, TraceWriter,
)
from repro.tools.trace_filter import filter_traces
from repro.util.errors import (
    AnalysisError, DeadlockError, SimMPIError, TraceFormatError,
)
from repro.util.location import SourceLocation
from repro.util.records import decode_record


class TestMalformedLines:
    @pytest.mark.parametrize("line", [
        "",                     # empty
        "X seq=0",              # unknown kind
        "C",                    # no fields at all (missing seq/fn/loc)
        "C seq=zzz fn=$Put",    # unparseable int
        "M seq=0 a=$load",      # missing addr/size
        "C seq=0 fn=$Put loc=$a:b:c",  # non-numeric line number
    ])
    def test_raises_trace_format_error(self, line):
        with pytest.raises((TraceFormatError, ValueError)):
            decode_event(0, line)

    def test_truncated_field(self):
        with pytest.raises(TraceFormatError):
            decode_record("C seq")


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               min_size=1, max_size=60))
@settings(max_examples=120, deadline=None)
def test_prop_fuzz_never_crashes_uncontrolled(line):
    """Arbitrary printable garbage either decodes (if it happens to be
    well-formed) or raises a controlled error type."""
    try:
        decode_event(0, line)
    except (TraceFormatError, ValueError, KeyError):
        pass  # controlled failure modes only


class TestCorruptTraceFiles:
    def test_header_with_wrong_version(self, tmp_path):
        path = tmp_path / "trace.0.log"
        path.write_text("H v=99 rank=0 nranks=1 app=$x\n")
        with pytest.raises(TraceFormatError, match="version"):
            TraceReader(str(path))

    def test_body_corruption_surfaces_on_iteration(self, tmp_path):
        path = tmp_path / "trace.0.log"
        path.write_text("H v=1 rank=0 nranks=1 app=$x\n"
                        "C seq=0 fn=$Barrier comm=0 loc=$a.py:1:f\n"
                        "GARBAGE LINE HERE\n")
        reader = TraceReader(str(path))
        with pytest.raises((TraceFormatError, ValueError)):
            list(reader)

    def test_non_trace_files_ignored_by_traceset(self, tmp_path):
        (tmp_path / "trace.0.log").write_text(
            "H v=1 rank=0 nranks=1 app=$x\n")
        (tmp_path / "notes.txt").write_text("irrelevant")
        (tmp_path / "trace.backup").write_text("irrelevant")
        ts = TraceSet(str(tmp_path))
        assert ts.nranks == 1


# ----------------------------------------------------------------------
# binary traces: a footer, an index or a K column that lies
# ----------------------------------------------------------------------

LOC = SourceLocation("app.py", 3, "main")


def rewrite_footer(path, mutate):
    """Re-frame the JSON footer after ``mutate(footer)``; nothing else
    in the file changes."""
    with open(path, "rb") as fh:
        data = fh.read()
    footer_off = struct.unpack("<Q", data[-16:-8])[0]
    length = struct.unpack_from("<I", data, footer_off + 1)[0]
    footer = json.loads(data[footer_off + 5:footer_off + 5 + length])
    mutate(footer)
    payload = json.dumps(footer).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data[:footer_off] + b"F" + struct.pack("<I", len(payload))
                 + payload + struct.pack("<Q", footer_off) + _END_MAGIC)
    return footer_off


@pytest.fixture
def heat_traces(tmp_path):
    return api.run(heat2d, 2, params=dict(rows=8, cols=4, steps=3),
                   trace_format="binary", trace_dir=str(tmp_path)).traces


class TestFooterIsCrossChecked:
    """The footer's counts and frame index are claims about the data
    section; a reader that trusted them served ``stats.events`` from a
    rewritten footer and a clean report with it."""

    @pytest.mark.parametrize("counts", [
        {"call": 1, "mem": 7, "load": 3, "store": 4},   # the issue's case
        {"call": None, "mem": None, "load": 0, "store": 0},
    ])
    def test_rewritten_counts_rejected(self, heat_traces, counts):
        path = heat_traces.path(0)

        def mutate(footer):
            for key, value in counts.items():
                if value is not None:
                    footer["counts"][key] = value
        footer_off = rewrite_footer(path, mutate)
        with pytest.raises(TraceFormatError) as err:
            api.check(heat_traces)
        assert path in str(err.value)
        assert f"byte {footer_off}" in str(err.value)

    def test_index_must_match_the_frames(self, heat_traces):
        path = heat_traces.path(1)

        def mutate(footer):
            footer["frames"]["offsets"][-1] += 1
        rewrite_footer(path, mutate)
        with pytest.raises(TraceFormatError,
                           match=r"frame index disagrees.*byte \d+"):
            TraceReader(path)

    def test_index_pointing_outside_the_data_section(self, heat_traces):
        path = heat_traces.path(1)

        def mutate(footer):
            footer["frames"]["offsets"][0] = 1 << 40
        rewrite_footer(path, mutate)
        with pytest.raises(TraceFormatError, match="frame index"):
            TraceReader(path)

    def test_missing_digests_are_recomputed_from_the_frames(self,
                                                            heat_traces):
        """The reader's formulas are the writer's: a footer that records
        no digests gets the same ones back from the mapped columns."""
        path = heat_traces.path(0)
        with TraceReader(path) as reader:
            recorded = reader.digests()
        rewrite_footer(path, lambda footer: footer.pop("digests"))
        with TraceReader(path) as reader:
            assert reader.digests() == recorded

    def test_shape_naming_a_string_outside_the_table(self, heat_traces):
        path = heat_traces.path(0)

        def mutate(footer):
            footer["shapes"][0][0] = len(footer["strings"])
        rewrite_footer(path, mutate)
        with pytest.raises(TraceFormatError, match="corrupt footer.*shape"):
            with TraceReader(path) as reader:
                reader.read_calls()


def k_frame(path):
    """``(offset, rows, nvals, nlists)`` of the first K frame, and the
    byte offsets of its five columns."""
    with TraceReader(path) as reader:
        kinds, offsets, _rows = reader._frames
        offset = offsets[kinds.index("K")]
        rows, nvals, nlists, _ = _K_HEAD.unpack_from(reader._mm, offset + 1)
    # spelled out, not taken from the reader: the layout is the spec
    seq = offset + 1 + _K_HEAD.size
    vals = seq + 8 * rows
    lists = vals + 8 * nvals
    loc = lists + 8 * nlists
    return offset, rows, dict(seq=seq, vals=vals, lists=lists, loc=loc,
                              shape=loc + 4 * rows)


def poke(path, at, fmt, value):
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(struct.pack(fmt, value))


def read_set(path):
    """The stacked call ingest over the set ``path`` belongs to."""
    return preprocess_calls(TraceSet(os.path.dirname(path)))


class TestCorruptCallColumns:
    """Every id and offset of a K frame is checked before any gather —
    in the stacked columns of the whole set: the error is typed and
    names the file and the frame's byte offset, never a bare
    ``IndexError`` out of numpy."""

    #: the rank of the two-rank set whose file is corrupted
    RANK = 0

    @pytest.fixture
    def path(self, tmp_path):
        for rank in range(2):
            with TraceWriter(str(tmp_path / f"trace.{rank}.bin"), rank, 2,
                             format=FORMAT_BINARY) as writer:
                writer.write(CallEvent(rank, 0, "Win_post",
                                       {"win": 0, "group": [1, 2, 3]}, LOC))
                writer.write(MemEvent(rank, 1, "load", 64, 8, "x", LOC))
                writer.write(CallEvent(rank, 2, "Put",
                                       {"win": 0, "var": "x"}, LOC))
                writer.write(CallEvent(rank, 3, "Win_post",
                                       {"win": 0, "group": [4]}, LOC))
        path = str(tmp_path / f"trace.{self.RANK}.bin")
        assert [len(read_set(path).events[rank]) for rank in range(2)] \
            == [3, 3]                       # valid as written
        return path

    @pytest.mark.parametrize("column,row,fmt,value,message", [
        ("shape", 1, "<i", 99, "row 1: shape id 99 outside table"),
        ("shape", 0, "<i", -1, "row 0: shape id -1 outside table"),
        ("loc", 2, "<i", 1 << 20, "row 2: location id 1048576 outside"),
        ("seq", 1, "<q", 0, "seq is not strictly increasing"),
        # Win_post values: win, len(group); Put values: win, var id
        ("vals", 1, "<q", -2, "row 0: negative list length"),
        ("vals", 1, "<q", 9, "list pool holds"),
        ("vals", 3, "<q", 1 << 40, "row 1: string id 1099511627776 outside"),
    ])
    def test_typed_error_names_path_and_offset(self, path, column, row,
                                               fmt, value, message):
        offset, _rows, columns = k_frame(path)
        poke(path, columns[column] + row * struct.calcsize(fmt), fmt, value)
        with pytest.raises(TraceFormatError, match=message) as err:
            read_set(path)
        assert re.match(rf"{re.escape(path)}: K frame at byte {offset}\b",
                        str(err.value))

    def test_value_pool_shorter_than_the_shapes_imply(self, path):
        """A shape table that gives Put an argument the pool does not
        hold."""
        def mutate(footer):
            put = next(s for s in footer["shapes"]
                       if footer["strings"][s[0]] == "Put")
            put[1] += put[1][:2]
        rewrite_footer(path, mutate)
        with pytest.raises(TraceFormatError, match="value pool holds") as err:
            read_set(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_segment_must_be_completed_by_its_rows(self, path):
        offset, _rows, _columns = k_frame(path)
        poke(path, offset + 1 + 12, "<I", 5)      # the K header's nmem
        with pytest.raises(TraceFormatError, match="completed by 5"):
            TraceReader(path)

    def test_every_byte_flip_in_the_k_frame_is_survivable(self, path):
        """Flip each byte of the K frame in turn: the file either still
        reads (the flip landed in a free integer) or fails typed."""
        offset, rows, columns = k_frame(path)
        with open(path, "rb") as fh:
            original = fh.read()
        end = columns["shape"] + 4 * rows
        for at in range(offset, end):
            flipped = bytearray(original)
            flipped[at] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(flipped)
            try:
                pre = read_set(path)
                [list(calls) for calls in pre.events.values()]
                np.asarray(pre.call_table.seq)
            except TraceFormatError:
                pass


class TestCorruptCallColumnsOfTheLastRank(TestCorruptCallColumns):
    """The same bytes in the set's last file: the stacked checks name
    that file, and the row within it."""

    RANK = 1


#: a v3 set written before runs existed; its v4 rewrite has an R frame
#: per rank (``lu`` n=16 on 4 ranks, race-free)
V3_LU = os.path.join(os.path.dirname(__file__), "fixtures", "v3_lu4")

#: byte offset of each field in a 45-byte run row (RUN_DTYPE), spelled
#: out: the layout is the spec
RUN_FIELDS = {"seq": (0, "<q"), "addr": (8, "<q"), "size": (16, "<q"),
              "var": (24, "<i"), "loc": (28, "<i"), "access": (32, "<B"),
              "count": (33, "<i"), "stride": (37, "<q")}
INT64_MAX = (1 << 63) - 1


def runs_of(directory):
    """The fixture's v4 rewrite in ``directory``, and its report."""
    with open(os.path.join(V3_LU, "expected_report.json")) as fh:
        expected = fh.read().strip()
    filter_traces(TraceSet(V3_LU), directory)
    return expected


def r_frame(path):
    """``(offset, runs)`` of the first R frame, runs as dicts."""
    with TraceReader(path) as reader:
        kinds, offsets, _rows = reader._frames
        offset = offsets[kinds.index("R")]
        nruns = struct.unpack_from("<I", reader._mm, offset + 1)[0]
        runs = []
        for i in range(nruns):
            at = offset + 9 + 45 * i
            runs.append({name: struct.unpack_from(fmt, reader._mm,
                                                  at + shift)[0]
                         for name, (shift, fmt) in RUN_FIELDS.items()})
    return offset, runs


def poke_run(path, field, value, run=0):
    """Overwrite one field of one run, then record the digests of what
    the file now holds: only the reader's checks can refuse it."""
    offset, _runs = r_frame(path)
    shift, fmt = RUN_FIELDS[field]
    poke(path, offset + 9 + 45 * run + shift, fmt, value)
    try:
        with TraceReader(path) as reader:
            digests = reader._recompute_binary_digests()
    except TraceFormatError:
        return offset
    rewrite_footer(path, lambda footer: footer.update(digests=digests))
    return offset


class TestCorruptRuns:
    """An R frame's runs are claims the reader checks before it expands
    them: a corrupt run is a typed error naming the file and the byte,
    or a row that reads (a free integer) — never a bare numpy error, an
    allocation the size of a flipped count, or a silent misread."""

    @pytest.fixture
    def path(self, tmp_path):
        self.expected = runs_of(str(tmp_path / "t"))
        return str(tmp_path / "t" / "trace.0.bin")

    def test_every_byte_flip_in_the_r_frame_is_survivable(self, path):
        """Flip each byte of the R frame in turn: the set checks to the
        unchanged report (the flip landed in a free integer: an address,
        a size, a seq past the rank's last call) or fails typed."""
        offset, runs = r_frame(path)
        with open(path, "rb") as fh:
            original = fh.read()
        outcomes = set()
        for at in range(offset, offset + 9 + 45 * len(runs)):
            flipped = bytearray(original)
            flipped[at] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(flipped)
            try:
                report = canonical_report(api.check(os.path.dirname(path)))
            except (TraceFormatError, AnalysisError) as exc:
                outcomes.add(type(exc).__name__)
                continue
            assert report == self.expected, f"flip at byte {at}"
            outcomes.add("unchanged")
        assert outcomes == {"TraceFormatError", "AnalysisError",
                            "unchanged"}

    @pytest.mark.parametrize("field,value,message", [
        ("count", 0, "count 0 < 2"),
        ("count", 3000, "completed by 10 memory events; the R frame "
         "there by 3007"),
        ("count", 1 << 30, "more than a segment holds"),
        ("access", 7, "access code 7 is neither load nor store"),
        ("var", 1 << 20, "var id 1048576 or loc id"),
    ])
    def test_typed_error_names_path_and_offset(self, path, field, value,
                                               message):
        offset = poke_run(path, field, value)
        with pytest.raises(TraceFormatError, match=message) as err:
            TraceReader(path)
        assert re.match(rf"{re.escape(path)}: (the K frame before )?(R "
                        rf"frame at )?byte {offset}\b", str(err.value))


# ----------------------------------------------------------------------
# a run that did not complete must not leave a set that reads as whole
# ----------------------------------------------------------------------


def _crashes_after_a_fence(mpi):
    buf = mpi.alloc("buf", 4)
    win = mpi.win_create(buf)
    win.fence()
    if mpi.rank == 1:
        raise RuntimeError("application bug")
    win.fence()
    win.free()


def _completes_after_a_fence(mpi):
    buf = mpi.alloc("buf", 4)
    win = mpi.win_create(buf)
    win.fence()
    win.fence()
    win.free()


def _deadlocks_after_a_fence(mpi):
    buf = mpi.alloc("buf", 4)
    win = mpi.win_create(buf)
    win.fence()
    mpi.recv(source=1 - mpi.rank, tag=7)


def _spins_after_a_fence(mpi):
    buf = mpi.alloc("buf", 4)
    win = mpi.win_create(buf)
    win.fence()
    while True:
        mpi.world.scheduler.yield_point(mpi.rank)


class TestAbortedRuns:
    """``profile_run`` used to finalize every rank file on its way out
    of an exception, and ``api.check`` then reported the prefix of the
    run as a clean program: 0 findings, no error."""

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("app,error,message", [
        (_crashes_after_a_fence, RuntimeError, "application bug"),
        (_deadlocks_after_a_fence, DeadlockError, "Recv"),
        (_spins_after_a_fence, SimMPIError, "livelock"),
    ], ids=["exception", "deadlock", "livelock"])
    def test_partial_trace_set_is_rejected(self, tmp_path, fmt, app, error,
                                           message):
        from repro.profiler import session
        from repro.simmpi.runtime import World
        trace_dir = str(tmp_path)
        with mock.patch.object(session, "World",
                               functools.partial(World, max_steps=500)):
            with pytest.raises(error, match=message):
                api.run(app, 2, trace_dir=trace_dir, trace_format=fmt)
        with pytest.raises(TraceFormatError) as err:
            api.check(trace_dir)
        if fmt == "text":
            # path:line of the abort record, and what it means
            assert re.search(r"trace\.0\.log:\d+: abort record", str(err.value))
            assert "did not complete" in str(err.value)
        else:
            assert "trailer" in str(err.value)

    def test_every_text_consumer_meets_the_abort_record(self, tmp_path):
        path = str(tmp_path / "trace.0.log")
        writer = TraceWriter(path, 0, 1, app="x")
        writer.write(CallEvent(0, 0, "Barrier", {"comm": 0}, LOC))
        writer.write(MemEvent(0, 1, "load", 64, 8, "x", LOC))
        writer.abort()
        writer.abort()          # idempotent, like close()
        with open(path) as fh:
            assert fh.read().splitlines()[-1] == "A events=2"
        consumers = {
            "events": lambda r: r.events(),
            "stream": lambda r: list(r.stream()),
            "read_calls": lambda r: r.read_calls(),
            "rank_calls+mems": lambda r: r.rank_calls(mems=True),
            "mem_blocks": lambda r: list(r.mem_blocks()),
            "counts": lambda r: r.counts(),
        }
        for name, consume in consumers.items():
            with TraceReader(path) as reader:
                with pytest.raises(TraceFormatError,
                                   match=r"trace\.0\.log:4: abort record"):
                    consume(reader)
        with pytest.raises(TraceFormatError, match="abort record"):
            TraceSet(str(tmp_path)).event_counts()

    def test_with_block_aborts_on_exception(self, tmp_path):
        for fmt, name in (("text", "trace.0.log"), ("binary", "trace.0.bin")):
            path = str(tmp_path / name)
            with pytest.raises(KeyError):
                with TraceWriter(path, 0, 1, format=fmt) as writer:
                    writer.write(CallEvent(0, 0, "Barrier", {"comm": 0}, LOC))
                    raise KeyError("mid-run")
            with pytest.raises(TraceFormatError):
                with TraceReader(path) as reader:
                    reader.events()

    def test_completed_run_carries_no_marker(self, tmp_path):
        run = api.run(heat2d, 2, params=dict(rows=8, cols=4, steps=2),
                      trace_dir=str(tmp_path), trace_format="text")
        for rank in range(2):
            with open(run.traces.path(rank)) as fh:
                assert not any(line.startswith("A") for line in fh)


# ----------------------------------------------------------------------
# hostile input under every executor
# ----------------------------------------------------------------------

#: how the check is run: plain, pooled, streamed, cached cold, and cached
#: against a cache populated *before* the corruption
ARMS = ["batch", "jobs2", "streaming", "incremental-cold",
        "incremental-warm"]


def _rewritten_counts(path):
    def mutate(footer):
        footer["counts"].update(call=1, mem=7, load=3, store=4)
    rewrite_footer(path, mutate)


def _corrupt_k_column(path):
    _offset, _rows, columns = k_frame(path)
    poke(path, columns["shape"] + 4, "<i", 99)      # row 1's shape id


def _reversed_mem_seqs(events):
    """The rank's memory rows keep their place, their seqs reversed."""
    at = [k for k, event in enumerate(events) if isinstance(event, MemEvent)]
    for k, seq in zip(at, [events[k].seq for k in reversed(at)]):
        events[k] = dataclasses.replace(events[k], seq=seq)


def _mem_seq_of_call(events):
    """Each memory row right after a call takes that call's seq."""
    for k in range(len(events) - 1, 0, -1):
        if isinstance(events[k], MemEvent) and \
                isinstance(events[k - 1], CallEvent):
            events[k] = dataclasses.replace(events[k],
                                            seq=events[k - 1].seq)


@pytest.mark.parametrize("arm", ARMS)
class TestEveryExecutorRejects:
    """The same typed error, naming the same file, whichever executor
    meets the bytes: never a clean report (a warm cache must not answer
    for files it has not seen), never a hang, no shared segment left."""

    #: the rank of the two-rank set whose file is bad
    RANK = 0

    @staticmethod
    def _check(arm, trace_dir, cache_dir):
        kwargs = {"batch": {}, "jobs2": dict(jobs=2),
                  "streaming": dict(streaming=True)}.get(
                      arm, dict(incremental=True, cache_dir=cache_dir))
        return api.check(trace_dir, **kwargs)

    def _rejected(self, arm, trace_dir, cache_dir, path):
        try:
            with pytest.raises(TraceFormatError) as err:
                self._check(arm, trace_dir, cache_dir)
        finally:
            api.shutdown_pools()
        assert glob.glob("/dev/shm/mcc-*") == []
        assert path in str(err.value)
        return str(err.value)

    @pytest.mark.parametrize("corrupt,message,cached", [
        (_rewritten_counts, "footer", "footer"),
        # the cache hashes a file before it answers for it, and so
        # meets the altered column before the K-frame checks do
        (_corrupt_k_column, "shape id 99", "content digests"),
    ], ids=["rewritten-counts", "k-column"])
    def test_corrupt_rank_file(self, tmp_path, arm, corrupt, message,
                               cached):
        trace_dir, cache_dir = str(tmp_path / "t"), str(tmp_path / "cache")
        traces = api.run(heat2d, 2, params=dict(rows=8, cols=4, steps=3),
                         trace_format="binary", trace_dir=trace_dir).traces
        if arm == "incremental-warm":
            assert not self._check(arm, trace_dir, cache_dir).findings
        corrupt(traces.path(self.RANK))
        said = self._rejected(arm, trace_dir, cache_dir,
                              traces.path(self.RANK))
        assert (cached if arm.startswith("incremental") else message) \
            in said

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_call_seq_out_of_order(self, tmp_path, arm, fmt):
        """A rank whose calls do not come in strictly increasing ``seq``
        — across ``K`` frames too, where no frame check looks — is
        refused where it is read: every control pass bisects that
        column."""
        import dataclasses
        trace_dir, cache_dir = str(tmp_path / "t"), str(tmp_path / "cache")
        traces = api.run(heat2d, 2, params=dict(rows=8, cols=4, steps=3),
                         trace_format=fmt, trace_dir=trace_dir).traces
        if arm == "incremental-warm":
            assert not self._check(arm, trace_dir, cache_dir).findings
        path = traces.path(self.RANK)
        with TraceReader(path) as reader:
            header, events = reader.header, reader.events()
        calls = [k for k, event in enumerate(events)
                 if isinstance(event, CallEvent)]
        a, b = calls[2], calls[4]
        events[a], events[b] = (
            dataclasses.replace(events[a], seq=events[b].seq),
            dataclasses.replace(events[b], seq=events[a].seq))
        with TraceWriter(path, self.RANK, header.nranks, app=header.app,
                         format=fmt) as writer:
            for event in events:
                writer.write(event)
        with TraceReader(path) as reader:       # the file itself is whole
            assert reader.events() == events
        said = self._rejected(arm, trace_dir, cache_dir, path)
        assert "seq is not strictly increasing" in said
        assert re.search(rf"trace\.{self.RANK}\.log:\d+: call seq"
                         if fmt == "text"
                         else r"K frame at byte \d+, row \d+: call seq",
                         said)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("case,mutate,said", [
        ("BT-broadcast", _reversed_mem_seqs, r"follows \d+: seq is not "
         r"strictly increasing over the rank's memory rows"),
        ("ping-pong", _reversed_mem_seqs, r"follows \d+: seq is not "
         r"strictly increasing over the rank's memory rows"),
        ("lockopts", _mem_seq_of_call, r"is also a call's seq"),
    ], ids=["bt-reversed", "ping-pong-reversed", "lockopts-call-seq"])
    def test_mem_seq_out_of_trace_order(self, tmp_path, arm, fmt, case,
                                        mutate, said):
        """Every epoch, region and shard bisects a rank's memory rows on
        ``seq``, so a row out of trace order is refused where rows
        become columns.  With every rank so rewritten, these three
        silently took the Table II verdicts to zero findings."""
        bug = bug_case(case)
        trace_dir, cache_dir = str(tmp_path / "t"), str(tmp_path / "cache")
        traces = api.run(bug.app, bug.nranks, params=bug.params(True),
                         trace_format=fmt, trace_dir=trace_dir).traces
        if arm == "incremental-warm":
            assert self._check(arm, trace_dir, cache_dir).findings
        path = traces.path(self.RANK)
        with TraceReader(path) as reader:
            header, events = reader.header, reader.events()
        mutate(events)
        with TraceWriter(path, self.RANK, header.nranks, app=header.app,
                         format=fmt) as writer:
            for event in events:
                writer.write(event)
        with TraceReader(path) as reader:       # the file itself is whole
            assert reader.events() == events
        try:
            with pytest.raises(AnalysisError,
                               match=rf"^rank {self.RANK}: memory seq \d+ "
                               + said):
                self._check(arm, trace_dir, cache_dir)
        finally:
            api.shutdown_pools()
        assert glob.glob("/dev/shm/mcc-*") == []

    @pytest.mark.parametrize("case", [
        "count-1", "negative-stride", "seq-overflow", "addr-overflow",
        "seq-of-an-m-row", "seq-of-a-call"])
    def test_bad_run_row(self, tmp_path, arm, case):
        """Hand-made bad runs in a v4 file whose footer records the
        digests of what it holds: refused by the frame walk (file and
        byte), by the segment merge (file and byte) or where rows
        become columns (rank and seq) — whichever executor reads it."""
        trace_dir, cache_dir = str(tmp_path / "t"), str(tmp_path / "cache")
        runs_of(trace_dir)
        if arm == "incremental-warm":
            assert not self._check(arm, trace_dir, cache_dir).findings
        path = TraceSet.rank_path(trace_dir, self.RANK, FORMAT_BINARY)
        with TraceReader(path) as reader:
            events = reader.events()
            kinds, offsets, rows = reader._frames
            at = kinds.index("M")       # the lone rows of the R's segment
            lone = int(reader._mem_rows(offsets[at], rows[at])["seq"][0])
        calls = {e.seq for e in events if isinstance(e, CallEvent)}
        count = r_frame(path)[1][0]["count"]
        clash = next(seq for seq in sorted(calls)
                     if calls.issuperset(range(seq, seq + count)))
        field, value, said = {
            "count-1": ("count", 1, r"run 0 \(byte \d+\): count 1 < 2"),
            "negative-stride": ("stride", -8, "stride -8 < 0"),
            "seq-overflow": ("seq", INT64_MAX, r"seq \d+ \+ \d+ - 1 "
                             "overflows int64"),
            "addr-overflow": ("stride", INT64_MAX, "overflows int64"),
            "seq-of-an-m-row": ("seq", lone, r"memory seq \d+ follows \d+ in "
                             "its segment"),
            "seq-of-a-call": ("seq", clash, None),
        }[case]
        offset = poke_run(path, field, value)
        if said is not None:
            message = self._rejected(arm, trace_dir, cache_dir, path)
            assert re.search(rf"R frame at byte {offset}\b.*{said}",
                             message), message
            return
        try:
            with pytest.raises(AnalysisError,
                               match=rf"^rank {self.RANK}: memory seq "
                               rf"{clash} is also a call's seq"):
                self._check(arm, trace_dir, cache_dir)
        finally:
            api.shutdown_pools()
        assert glob.glob("/dev/shm/mcc-*") == []

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_partial_trace_set(self, tmp_path, arm, fmt):
        from repro.profiler import session
        from repro.simmpi.runtime import World
        trace_dir, cache_dir = str(tmp_path / "t"), str(tmp_path / "cache")
        if arm == "incremental-warm":
            # the cache knows the program that ran to completion
            api.run(_completes_after_a_fence, 2, trace_dir=trace_dir,
                    trace_format=fmt)
            assert not self._check(arm, trace_dir, cache_dir).findings
        with mock.patch.object(session, "World",
                               functools.partial(World, max_steps=500)):
            with pytest.raises(DeadlockError):
                api.run(_deadlocks_after_a_fence, 2, trace_dir=trace_dir,
                        trace_format=fmt)
        # only RANK's file is partial: the other is a whole run's
        whole = str(tmp_path / "whole")
        api.run(_completes_after_a_fence, 2, trace_dir=whole,
                trace_format=fmt)
        shutil.copy(TraceSet.rank_path(whole, 1 - self.RANK, fmt),
                    TraceSet.rank_path(trace_dir, 1 - self.RANK, fmt))
        self._rejected(arm, trace_dir, cache_dir,
                       TraceSet.rank_path(trace_dir, self.RANK, fmt))


class TestEveryExecutorRejectsTheLastRank(TestEveryExecutorRejects):
    """The same with the set's last file bad: the stacked ingest still
    names it."""

    RANK = 1


def _swap_ranks_0_and_1(trace_dir, fmt):
    paths = [TraceSet.rank_path(trace_dir, rank, fmt) for rank in (0, 1)]
    os.rename(paths[0], paths[0] + ".x")
    os.rename(paths[1], paths[0])
    os.rename(paths[0] + ".x", paths[1])
    return paths[0], ("rank=1", "rank=0")


def _recount_rank_2(trace_dir, fmt):
    path = TraceSet.rank_path(trace_dir, 2, fmt)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:        # the header comes first
        fh.write(data.replace(b" nranks=4 ", b" nranks=5 ", 1))
    return path, ("nranks=5", "nranks=4")


@pytest.mark.parametrize("fmt", ["text", "binary"])
class TestRankFilesAgreeWithTheirNames:
    """A rank file whose header names another rank, or another rank
    count than the set's, is refused wherever it is opened: by every
    executor (a warm cache included) and by the CLI, which exits 2 with
    one line naming the file and both values."""

    @pytest.mark.parametrize("case,mutate", [
        ("ping-pong", _swap_ranks_0_and_1), ("jacobi", _recount_rank_2)],
        ids=["swapped-files", "nranks-rewritten"])
    def test_refused_by_every_executor(self, tmp_path, capsys, fmt, case,
                                       mutate):
        bug = next(bug for bug in BUG_CASES if bug.name == case)
        trace_dir, warm = str(tmp_path / "t"), str(tmp_path / "warm")
        api.run(bug.app, bug.nranks, params=bug.params(True),
                trace_dir=trace_dir, trace_format=fmt)
        assert api.check(trace_dir, incremental=True, cache_dir=warm).findings
        path, values = mutate(trace_dir, fmt)
        for arm in ARMS:
            cache_dir = warm if arm == "incremental-warm" \
                else str(tmp_path / "cold")
            try:
                with pytest.raises(TraceFormatError) as err:
                    TestEveryExecutorRejects._check(arm, trace_dir,
                                                    cache_dir)
            finally:
                api.shutdown_pools()
            assert str(err.value).startswith(f"{path}: the header says")
            assert all(value in str(err.value) for value in values)
        assert main(["check", trace_dir, "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert path in captured.err and values[0] in captured.err
