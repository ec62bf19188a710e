"""The text data-section decoder and the shared placement function.

``TraceReader`` decodes a text trace's data section in bulk (one
compiled pattern per chunk) and falls back to the record codec, line by
line, for any chunk the pattern does not fully account for.  The
contract pinned here: whichever route a section takes, every reader API
returns what per-line :func:`decode_event` returns — same events, same
``MemBlock`` columns, string table and counts — or raises the same
``TraceFormatError``, prefixed with ``path:line``.

``datamap_intervals`` is pinned alongside: it is the one placement
function of the simulator and the analyzer, and placing a contiguous
datatype must stay O(1).
"""

import os

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.core.model import LiftCache
from repro.profiler.events import (
    ACCESS_CODES, CallEvent, MemEvent, decode_event,
)
from repro.profiler.tracer import (
    MemBlock, TraceReader, TraceSet, stack_calls,
)
from repro.util.datatypes import Datatype
from repro.util import intervals as intervals_module
from repro.util.errors import TraceFormatError
from repro.util.intervals import Interval, IntervalSet, datamap_intervals
from repro.util.location import SourceLocation

HEADER = "H v=1 rank=0 nranks=1 app=$x\n"
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

# ----------------------------------------------------------------------
# generated data sections
# ----------------------------------------------------------------------

#: names exercising every escape of the record codec (%20 %25 %7C %3D %0A)
names = st.text(alphabet="ab %|=\n$@_é", max_size=6)
plain = st.integers(-5, 5000)
extreme = st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1,
                           INT64_MAX + 1, 10 ** 19, 10 ** 30])
small = st.integers(0, 4096)
locations = st.builds(SourceLocation, st.sampled_from(
    ["a.py", "/x y/b%c.py", "d|e.py"]), st.integers(0, 99), names)


def mem_lines(ints):
    return st.builds(
        MemEvent, rank=st.just(0), seq=ints, access=st.sampled_from(
            ["load", "store"]), addr=ints, size=small, var=names,
        loc=locations).map(MemEvent.encode)


call_lines = st.builds(
    CallEvent, rank=st.just(0), seq=small, fn=st.sampled_from(
        ["Barrier", "Win_fence", "Put"]),
    args=st.fixed_dictionaries({"comm": small}, optional={
        "win": small, "var": names, "group": st.lists(small, max_size=3)}),
    loc=locations).map(CallEvent.encode)


@st.composite
def mangled(draw, hows):
    """A memory line the bulk pattern must not account for."""
    fields = draw(mem_lines(plain)).split(" ")[1:]
    how = draw(st.sampled_from(hows))
    if how == "permute":
        fields = draw(st.permutations(fields))
    elif how == "extra":
        fields.insert(draw(st.integers(0, len(fields))), "extra=1")
    elif how == "blank":
        return ""
    elif how == "missing":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif how == "access":
        fields[1] = "a=$fetch"
    elif how == "value":
        fields[2] = "addr=zz"
    else:
        return " ".join(["X"] + fields)
    return " ".join(["M"] + list(fields))


canonical = st.one_of(mem_lines(plain), mem_lines(plain), call_lines)
#: off the fast path, yet every line still decodes
benign = st.one_of(canonical, canonical,
                   mangled(("permute", "extra", "blank")))
hostile = st.one_of(benign, benign, benign, mem_lines(extreme), mangled(
    ("missing", "access", "value", "kind")))


@st.composite
def sections(draw):
    lines = draw(st.lists(draw(st.sampled_from(
        [canonical, benign, hostile])), max_size=12))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    if lines and draw(st.booleans()):
        text += "\n"                     # else: missing final newline
    if text and not draw(st.integers(0, 3)):     # truncated last line
        text = text[:draw(st.integers(0, len(text)))]
    return text


def reference(text, check_int64, calls=True):
    """Per-line ``decode_event`` over the data section: the events, or
    ``(lineno, message)`` of the first line that does not decode.  With
    ``calls`` off, call lines are stepped over undecoded (the mem pass)."""
    events = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), 2):
        if not line or (not calls and line.startswith("C ")):
            continue
        try:
            if not calls and not line.startswith("M "):
                raise TraceFormatError(
                    "unknown record kind in data section: "
                    f"{line.split(' ', 1)[0]!r}")
            event = decode_event(0, line)
            if isinstance(event, MemEvent):
                if event.access not in ACCESS_CODES:
                    raise TraceFormatError(
                        f"unknown access kind {event.access!r}")
                for key in ("seq", "addr", "size") if check_int64 else ():
                    value = getattr(event, key)
                    if not INT64_MIN <= value <= INT64_MAX:
                        raise TraceFormatError(
                            f"field {key}={value} outside int64")
        except TraceFormatError as exc:
            return events, (lineno, str(exc))
        except ValueError:
            # a truncated ``loc``: readers decode locations lazily, per
            # string-table entry, so it is outside this contract
            reject()
        events.append(event)
    return events, None


def seq_order_error(text):
    """``(lineno, message)`` of the first call line of a section that
    decodes whose seq does not exceed the call's before it — what
    ``read_calls`` refuses once every line has decoded."""
    last = None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), 2):
        if line.startswith("C "):
            seq = decode_event(0, line).seq
            if last is not None and seq <= last:
                return lineno, (f"call seq {seq} follows {last}: seq is "
                                "not strictly increasing over the rank's "
                                "calls")
            last = seq
    return None


def outcome(path, read):
    """``read(reader)``'s result, or the error it raises."""
    try:
        with TraceReader(path) as reader:
            return read(reader), None
    except TraceFormatError as exc:
        return None, str(exc)


def flatten(stream):
    out = []
    for item in stream:
        out.extend(item.iter_events() if isinstance(item, MemBlock)
                   else [item])
    return out


def packed(events):
    """The ``MemBlock`` rows and string table of the memory events, as
    a line-by-line decode interns them."""
    table, rows = [], []
    for event in events:
        if isinstance(event, MemEvent):
            for token in (event.var, event.loc.encode()):
                if token not in table:
                    table.append(token)
            rows.append((event.seq, event.addr, event.size,
                         table.index(event.var),
                         table.index(event.loc.encode()),
                         ACCESS_CODES[event.access]))
    return rows, table


def calls_and_counts(events):
    """What ``read_calls`` returns for these events."""
    mems = [e for e in events if isinstance(e, MemEvent)]
    stores = sum(e.access == "store" for e in mems)
    return ([e for e in events if isinstance(e, CallEvent)],
            {"call": len(events) - len(mems), "mem": len(mems),
             "store": stores, "load": len(mems) - stores})


def block_rows(reader):
    """Memory rows with strings resolved, plus the string table."""
    rows = []
    for block in reader.mem_blocks():
        rows.extend(zip(*block.columns()))
    return rows, list(reader._table.strings)


@given(sections())
@settings(max_examples=300, deadline=None)
def test_prop_bulk_decode_equals_per_line_decode(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("t") / "trace.0.log")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + text)

    def located(error):
        return f"{path}:{error[0]}: {error[1]}"

    # columns + calls, in order: the typed iteration and the stream
    events, error = reference(text, check_int64=True)
    for read in (list, lambda r: flatten(r.stream())):
        got, raised = outcome(path, read)
        if error is None:
            assert raised is None and got == events
        else:
            assert raised == located(error)

    # the mem pass: same columns, same string table, calls not decoded
    mems, error = reference(text, check_int64=True, calls=False)
    got, raised = outcome(path, block_rows)
    if error is None:
        assert raised is None and got == packed(mems)
    else:
        assert raised == located(error)

    def read_calls(reader):
        calls, counts = reader.read_calls()
        return list(calls), counts

    # the call pass: memory lines are counted, never range-checked ...
    events, error = reference(text, check_int64=False)
    error = error or seq_order_error(text)
    got, raised = outcome(path, read_calls)
    if error is None:
        assert raised is None and got == calls_and_counts(events)
    else:
        assert raised == located(error)

    # ... unless it also decodes them, for a caller that wants both (the
    # path the preprocess takes: per-rank calls, then the stack)
    events, error = reference(text, check_int64=True)
    error = error or seq_order_error(text)
    got, raised = outcome(path, lambda r: (
        (list(stack_calls([r.rank_calls(mems=True)])[0]), r.counts()),
        list(zip(*MemBlock(r.header.rank, r._table, r.mem_rows).columns()))))
    if error is None:
        assert raised is None
        assert got == (calls_and_counts(events), packed(events)[0])
    else:
        assert raised == located(error)


# ----------------------------------------------------------------------
# call lines the column encoder refuses
# ----------------------------------------------------------------------

BEYOND = 10 ** 20
#: what is done to a call line -> whether the line, if it still
#: decodes and classifies, must be a codec row
SPOILERS = {
    None: False,
    " pad={}".format(BEYOND): True,              # an int beyond int64
    " pads=@1,{}".format(BEYOND): True,          # ... inside a list
    "win={}".format(BEYOND): True,               # ... where a row reads it
    "win=$x": False,          # a string where a control argument is read
    "win=$12": False,         # ... one that reads as an int
    " win=3": False,      # a key twice: the codec's last-one-wins
    " seq=7": True,       # ... but a second seq changes the row's order
    " pads=@1,x": True,                          # not an int list
}

control_calls = st.sampled_from([
    ("Win_fence", {"win": 1}), ("Barrier", {"comm": 0, "win": 1}),
    ("Put", {"win": 1, "target": 0, "var": "a b"}),
    ("Win_post", {"win": 1, "group": (0, 2)}),
    ("Win_lock", {"win": 1, "target": 1, "lock_type": "shared"}),
    ("Win_lock", {"win": 1, "target": 1, "lock_type": "odd"})])


@given(st.lists(st.tuples(control_calls, st.sampled_from(list(SPOILERS)),
                          locations), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_prop_refused_call_lines_are_codec_rows(tmp_path_factory, drawn):
    """A call line the columns cannot hold is decoded and classified by
    the record codec, one by one: its event, its table row — or its
    error, with the file and the line — are those of ``decode_event``
    and ``classify_call``; every other line is a columnar row."""
    from repro.core.calltable import CallTable, classify_call
    lines, codec_lines = [], []
    for k, ((fn, args), spoiler, loc) in enumerate(drawn):
        line = CallEvent(0, 10 * k, fn, args, loc).encode()
        if spoiler is not None:
            line = (line.replace("win=1", spoiler) if spoiler[0] != " "
                    else line + spoiler)
        lines.append(line)
        if SPOILERS[spoiler]:
            codec_lines.append(k)
    path = str(tmp_path_factory.mktemp("t") / "trace.0.log")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "".join(line + "\n" for line in lines))

    events, expected = [], None
    for lineno, line in enumerate(lines, 2):
        try:
            event = decode_event(0, line)
            row, _lock = classify_call(event.fn, event.args)
            if not all(INT64_MIN <= value <= INT64_MAX for value in
                       (event.seq, *row[:10], *row[10])):
                raise TraceFormatError(
                    f"call record {event.fn!r} at seq {event.seq} has a "
                    "field outside int64")
        except TraceFormatError as exc:
            expected = TraceFormatError, f"{path}:{lineno}: {exc}"
            break
        except ValueError as exc:       # the codec's own, never located
            expected = ValueError, str(exc)
            break
        events.append(event)
    if expected is None and \
            any(b.seq <= a.seq for a, b in zip(events, events[1:])):
        return          # a doubled seq out of order: the other property

    with TraceReader(path) as reader:
        if expected is not None:
            with pytest.raises(expected[0]) as err:
                reader.read_calls()
            assert str(err.value) == expected[1]
            return
        cols, counts = reader.read_calls()
        table = reader.call_table
    assert list(cols) == events and counts["call"] == len(events)
    assert sorted(cols.codec) == codec_lines
    reference = CallTable.from_events(0, events)
    for name in ("seq", "fn", "cls", "comm", "win", "peer", "tag", "req",
                 "req_kind", "target", "lock", "group_off", "group_val"):
        assert getattr(table, name).tolist() == \
            getattr(reference, name).tolist(), name
    assert table.lock_types == reference.lock_types


def test_canonical_section_takes_the_bulk_route(tmp_path):
    """What the writer emits is what the pattern recognises — including
    escaped names — so a profiler-written file never sees the codec."""
    from repro import obs
    from repro.profiler.tracer import TraceWriter
    path = str(tmp_path / "trace.0.log")
    with TraceWriter(path, 0, 1) as writer:
        writer.write(CallEvent(0, 0, "Barrier", {"comm": 0}))
        writer.append_mem_columns("store", "a b%|=", None, 1, 64, 8, 5, 8)
        writer.write(MemEvent(0, 6, "load", 64, 8, "x\ny"))
    obs.configure(enabled=True)
    try:
        with TraceReader(path) as reader:
            assert len(list(reader)) == 7
        counter = obs.get_recorder().registry.get("trace_text_lines_total")
        assert {(labels["kind"], labels["path"]): value
                for labels, value in counter.samples()} == {
                    ("mem", "bulk"): 6, ("call", "bulk"): 1}
    finally:
        obs.reset()


# ----------------------------------------------------------------------
# hostile input: typed errors that name the file and the line
# ----------------------------------------------------------------------


def write_lines(directory, *lines):
    path = os.path.join(str(directory), "trace.0.log")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "".join(line + "\n" for line in lines))
    return path


class TestHostileText:
    GOOD = "M seq=1 a=$load addr=64 size=8 var=$x loc=$a.py:1:f"

    def test_mem_field_outside_int64(self, tmp_path):
        path = write_lines(
            tmp_path, self.GOOD,
            "M seq=2 a=$load addr=99999999999999999999999 size=8 var=$x "
            "loc=$a.py:1:f")
        with pytest.raises(TraceFormatError) as err:
            list(TraceSet(str(tmp_path)).mem_blocks(0))
        assert str(err.value).startswith(f"{path}:3: ")
        assert "outside int64" in str(err.value)

    def test_call_field_outside_int64(self, tmp_path):
        path = write_lines(
            tmp_path, self.GOOD,
            "C seq=2 fn=$Barrier comm=99999999999999999999999 "
            "loc=$a.py:1:f")
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError) as err:
                reader.read_calls()
        assert str(err.value).startswith(f"{path}:3: ")
        assert "outside int64" in str(err.value)

    def test_unparseable_value_names_file_and_line(self, tmp_path):
        path = write_lines(tmp_path, self.GOOD, self.GOOD,
                           "M seq=zz a=$load addr=1 size=8 var=$x "
                           "loc=$a.py:1:f")
        for read in (list, lambda r: list(r.mem_blocks()),
                     lambda r: r.read_calls()):
            with TraceReader(path) as reader:
                with pytest.raises(TraceFormatError) as err:
                    read(reader)
            assert str(err.value) == f"{path}:4: unparseable value 'zz'"

    def test_non_int_field_is_a_format_error(self, tmp_path):
        path = write_lines(tmp_path, "M seq=$one a=$load addr=1 size=8 "
                                     "var=$x loc=$a.py:1:f")
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match=":2: .*not an int"):
                list(reader)

    def test_stray_trace_file_name(self, tmp_path):
        write_lines(tmp_path, self.GOOD)
        (tmp_path / "trace.foo.log").write_text("x")
        with pytest.raises(TraceFormatError, match="trace.foo.log"):
            TraceSet(str(tmp_path))


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------

datamaps = st.lists(st.tuples(st.integers(-8, 48), st.integers(0, 12)),
                    max_size=5)


@given(st.integers(0, 200), datamaps, st.integers(0, 5),
       st.integers(0, 64))
def test_prop_datamap_intervals_is_the_normalised_segments(
        base, datamap, count, extent):
    """Sorted, unsorted, overlapping, zero-length, ``count=0``: the
    placement equals the normal form of its raw segments."""
    naive = IntervalSet(
        Interval(base + rep * extent + disp, base + rep * extent + disp + n)
        for rep in range(count) for disp, n in datamap)
    placed = datamap_intervals(base, datamap, count, extent)
    assert placed == naive
    assert list(placed) == sorted(placed)   # normal form, not just equal


def test_contiguous_placement_allocates_one_interval(monkeypatch):
    made = []

    class Counted(Interval):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(intervals_module, "Interval", Counted)
    double = Datatype(name="DOUBLE", datamap=((0, 8),), extent=8,
                      base="DOUBLE", type_id=-7)
    placed = LiftCache().intervals(double, 4096, 174)
    assert len(made) == 1
    assert [(iv.start, iv.stop) for iv in placed] == [
        (4096, 4096 + 174 * 8)]
    assert double.intervals(4096, 174) == placed
