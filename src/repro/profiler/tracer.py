"""Per-rank trace files: buffered writers, readers, and the TraceSet handle.

Each rank logs to its own file, independently — the property the paper
credits for the Profiler's scalability (section VII-B: "Profiler logs the
runtime events into the local disk independently for each process").

Two on-disk formats (see ``docs/trace-format.md``):

* **binary (v4)** — ``trace.<rank>.bin``, the default: memory events —
  the bulk of a compute-heavy trace (Figure 10) — as strided runs
  (``R`` frames) and packed rows (``M`` frames), calls as int columns
  over a per-rank shape table (``K`` frames,
  :mod:`repro.profiler.callcols`), and a footer with exact per-class
  event counts, the string and shape tables and a frame index.  The
  reader memory-maps the file, expands a segment's runs in one
  vectorised pass and exposes the columns (:meth:`TraceReader.mem_blocks`,
  :meth:`TraceReader.read_calls`): no Python object per event.  A call
  the columns cannot hold is a text record (``C`` frame); v3 files (no
  ``R`` frames) and v2 files (every call a ``C`` frame) read through the
  same loop;
* **text (v1)** — ``trace.<rank>.log``, one self-describing record per
  line (the seed format, written on request).

Readers sniff the format per file; every consumer-facing API
(:meth:`TraceReader.__iter__`, :meth:`TraceReader.stream`, ...) behaves
identically over both formats, and :meth:`TraceReader.read_calls` hands
the analyzer call columns and :class:`MemBlock` columns whichever
format holds them: the formats differ in how bytes are parsed and in
nothing a later phase can observe.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import struct
import time
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice, takewhile
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro import obs
from repro.profiler.callcols import (
    CALL_COLUMNS, CallBuffer, CallColumns, RankCalls, calls_digest,
    resolve_shapes,
)
from repro.profiler.events import (
    ACCESS_CODES, ACCESS_NAMES, ACCESS_STORE, CallEvent, Event, MemEvent, decode_event,
)
from repro.util.errors import TraceFormatError
from repro.util.hashing import hash_file, hash_strings, stable_hash
from repro.util.location import SourceLocation, UNKNOWN_LOCATION
from repro.util.records import (
    INT64_MAX, INT64_MIN, decode_record, decode_value, encode_record,
    encode_value, unescape,
)

TRACE_VERSION = 1        # text (v1) format version
BINARY_VERSION = 4       # binary format version written
#: binary versions read: a v3 file is a v4 file without ``R`` frames, a
#: v2 file a v3 file whose every call took the ``C`` route and whose
#: footer carries no frame index
_BINARY_VERSIONS = (2, 3, 4)

FORMAT_TEXT = "text"
FORMAT_BINARY = "binary"
FORMATS = (FORMAT_TEXT, FORMAT_BINARY)

_FLUSH_EVERY = 4096      # events per segment at most (runs counted expanded)
_SITE_CACHE = 4096       # resolved sites a writer keeps (see _keep_site)

#: kind of the record that ends the text trace of a run that did not
#: complete (:meth:`TraceWriter.abort`)
ABORT_KIND = "A"

#: binary framing constants
_MAGIC = b"MCT2"         # file magic (doubles as the format sniff)
_END_MAGIC = b"MCT2TRLR"  # trailer magic; absent => unclosed/truncated
_TRAILER_LEN = 8 + len(_END_MAGIC)  # u64 footer offset + end magic
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: K frame header: call rows, value-pool and list-pool entries, and the
#: memory events of the R / M frames that complete the segment (0: none)
_K_HEAD = struct.Struct("<IIII")
#: R frame header: runs, and the rows of the M frame that completes the
#: segment (0: none follows)
_R_HEAD = struct.Struct("<II")
_CALL_DTYPES = {"q": np.dtype("<i8"), "i": np.dtype("<i4")}

#: columnar layout of one packed memory event (33 bytes, little-endian):
#: ``var``/``loc`` index the footer string table, ``access`` is an
#: :data:`~repro.profiler.events.ACCESS_CODES` code.
MEM_DTYPE = np.dtype([("seq", "<i8"), ("addr", "<i8"), ("size", "<i8"),
                      ("var", "<i4"), ("loc", "<i4"), ("access", "u1")])

#: one run of an ``R`` frame (45 bytes): ``count`` >= 2 memory events,
#: row *i* being ``(seq + i, addr + i * stride, size, var, loc, access)``
RUN_DTYPE = np.dtype(MEM_DTYPE.descr + [("count", "<i4"), ("stride", "<i8")])

#: per access code, a text memory line between its ``seq`` and ``addr``
_MEM_HEADS = tuple(f" a={encode_value(name)} addr=" for name in ACCESS_NAMES)


def _call_frame(mm, offset: int
                ) -> Tuple[int, List[Tuple[str, np.dtype, int, int]], int]:
    """The layout of the ``K`` frame at ``offset``: the rows of the
    ``M`` frame that completes its segment, its columns as ``(name,
    dtype, entries, byte offset)``, and the byte the frame ends at."""
    rows, nvals, nlists, owed = _K_HEAD.unpack_from(mm, offset + 1)
    pos = offset + 1 + _K_HEAD.size
    columns = []
    for (name, code), count in zip(CALL_COLUMNS,
                                   (rows, nvals, nlists, rows, rows)):
        dtype = _CALL_DTYPES[code]
        columns.append((name, dtype, count, pos))
        pos += count * dtype.itemsize
    return owed, columns, pos


class _StringTable:
    """Interned strings shared by every mem block of one trace file.

    Holds buffer names and encoded source locations; locations are
    decoded to :class:`SourceLocation` lazily and cached, so a location
    string is parsed once per file instead of once per event.
    """

    __slots__ = ("strings", "_ids", "_locs")

    def __init__(self, strings: Optional[List[str]] = None):
        self.strings: List[str] = list(strings or ())
        #: built by the first :meth:`intern`: most tables are only read
        self._ids: Optional[Dict[str, int]] = None
        self._locs: List[Optional[SourceLocation]] = [None] * len(
            self.strings)

    def intern(self, text: str) -> int:
        if self._ids is None:
            self._ids = {s: i for i, s in enumerate(self.strings)}
        sid = self._ids.get(text)
        if sid is None:
            sid = self._ids[text] = len(self.strings)
            self.strings.append(text)
            self._locs.append(None)
        return sid

    def string(self, sid: int) -> str:
        try:
            return self.strings[sid]
        except IndexError:
            raise TraceFormatError(
                f"string id {sid} outside table of {len(self.strings)}"
            ) from None

    def loc(self, sid: int) -> SourceLocation:
        if not 0 <= sid < len(self.strings):
            raise TraceFormatError(
                f"location id {sid} outside table of {len(self.strings)}")
        cached = self._locs[sid]
        if cached is None:
            cached = self._locs[sid] = SourceLocation.decode(
                self.strings[sid])
        return cached


class MemBlock:
    """A packed run of consecutive memory events of one rank.

    The vectorized unit of trace ingest: ``array`` is one structured
    numpy array (:data:`MEM_DTYPE`), string-valued fields are ids into
    ``table``.  Binary readers hand out views of the memory-mapped file
    or a segment's runs expanded; text readers decode lines in bulk into
    the same shape, so consumers never branch on the on-disk format.
    """

    __slots__ = ("rank", "table", "array", "_cols")

    def __init__(self, rank: int, table: _StringTable, array: np.ndarray):
        self.rank = rank
        self.table = table
        self.array = array
        self._cols: Optional[Tuple[list, ...]] = None

    def __len__(self) -> int:
        return len(self.array)

    def columns(self) -> Tuple[list, list, list, list, list, list]:
        """``(seq, addr, size, var_id, loc_id, access_code)`` as plain
        Python lists — the fastest shape for building detector objects."""
        if self._cols is None:
            a = self.array
            self._cols = (a["seq"].tolist(), a["addr"].tolist(),
                          a["size"].tolist(), a["var"].tolist(),
                          a["loc"].tolist(), a["access"].tolist())
        return self._cols

    def iter_events(self) -> Iterator[MemEvent]:
        """Typed-event view (one :class:`MemEvent` per row)."""
        table = self.table
        seqs, addrs, sizes, var_ids, loc_ids, accs = self.columns()
        for i in range(len(seqs)):
            yield MemEvent(rank=self.rank, seq=seqs[i],
                           access=ACCESS_NAMES[accs[i]], addr=addrs[i],
                           size=sizes[i], var=table.string(var_ids[i]),
                           loc=table.loc(loc_ids[i]))


#: what :meth:`TraceReader.stream` yields: call events stay typed, memory
#: events arrive packed.
StreamItem = Union[CallEvent, MemBlock]


class TraceWriter:
    """Buffered writer for one rank's event stream (text or binary).

    A binary writer holds the pending events as columns — calls in a
    :class:`~repro.profiler.callcols.CallBuffer`, memory events as
    strided runs grown greedily row by row (so a block leaves the bytes
    its rows one at a time leave) — and flushes them as one *segment*:
    ``K``, ``R`` (runs of two rows or more) and ``M`` (lone rows)
    frames, every ``_FLUSH_EVERY`` events.  Within a segment ``seq``
    increases strictly across the populations (an event that does not
    continue the order starts a new segment), so the reader restores
    their interleaving from ``seq`` alone.

    What is static about an event — its source location, and with it
    the call's name or the buffer's — is resolved the first time its
    *site* is seen and looked up afterwards: string-table ids for a
    binary trace, the encoded ``key=value`` fields for a text trace.
    """

    def __init__(self, path: str, rank: int, nranks: int, app: str = "",
                 format: str = FORMAT_TEXT):
        if format not in FORMATS:
            raise ValueError(f"unknown trace format {format!r}")
        self.path = path
        self.rank = rank
        self.format = format
        self.events_written = 0
        self.bytes_written = 0
        self._closed = False
        #: per-class totals of the events flushed so far (the footer's
        #: ``counts`` once the last segment is out)
        self._counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        #: ``(fn, id(loc))`` / ``(var, id(loc))`` -> what this writer
        #: logs for the site, ending with the location object itself:
        #: the entry keeps it alive, so its ``id`` cannot be recycled
        #: for another location while the entry is there
        self._call_sites: Dict[Tuple[str, int], tuple] = {}
        self._mem_sites: Dict[Tuple[str, int], tuple] = {}
        # recorder captured once at construction: the per-event write path
        # never re-checks global state
        self._obs = obs.get_recorder() if obs.is_enabled() else None
        self._fh = open(path, "wb")
        if format == FORMAT_BINARY:
            self._offset = 0  # bytes already drained to the file
            self._out = bytearray(_MAGIC)
            self._frame(b"H", encode_record("H", {
                "v": BINARY_VERSION, "rank": rank, "nranks": nranks,
                "app": app}).encode("utf-8"))
            self._table = _StringTable()
            self._calls = CallBuffer(self._table.intern)
            #: the open segment's runs, a packed column per RUN_DTYPE
            #: field, and the one rows may still join: ``[seq, addr,
            #: count, stride, (size, var, loc, access)]``
            self._pending: Tuple[array, ...] = tuple(
                array(code) for code in "qqqiiBiq")
            self._run: Optional[list] = None
            self._last_seq = INT64_MIN - 1
            #: events the open segment takes before it is flushed
            self._room = _FLUSH_EVERY
            #: the frame index: kind, byte offset and rows per frame
            self._frames: Tuple[list, list, list] = ([], [], [])
            # content digests accumulated at write time and recorded in
            # the footer, so incremental checking can detect unchanged
            # ranks without re-reading event payloads
            self._hash_codec = hashlib.sha256()
            self._hash_mems = hashlib.sha256()
        else:
            self._buffer: List[str] = [
                encode_record("H", {"v": TRACE_VERSION, "rank": rank,
                                    "nranks": nranks, "app": app})
            ]

    # -- shared ---------------------------------------------------------

    def write(self, event: Event) -> None:
        """One typed event, through the lane of its kind."""
        if isinstance(event, MemEvent):
            self.append_mem_columns(event.access, event.var, event.loc,
                                    event.seq, event.addr, event.size, 1)
        else:
            self.append_call(event.fn, event.args, event.loc, event.seq)

    def append_call(self, fn: str, args: Dict[str, Any],
                    loc: Optional[SourceLocation], seq: int) -> None:
        """Record one call without building a :class:`CallEvent` — what
        lands on disk (and in the content digests) is what
        ``write(CallEvent(seq=seq, fn=fn, args=args, loc=loc))``
        produces, which is this method."""
        site = self._call_sites.get((fn, id(loc)))
        if site is None:
            site = self._new_call_site(fn, loc)
        if self.format == FORMAT_BINARY:
            if seq <= self._last_seq:
                self._flush_segment()
            if self._calls.append(fn, args, site[0], seq):
                self._last_seq = seq
                self._room -= 1
                if self._room <= 0:
                    self._flush_segment()
            else:
                self._write_call_record(_call_line(
                    _call_fields(fn, self._table.strings[site[0]]),
                    args, seq))
        else:
            self._buffer.append(_call_line(site[0], args, seq))
            if len(self._buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += 1

    def append_mem_columns(self, access: str, var: str,
                           loc: Optional[SourceLocation], seq0: int,
                           addr: int, size: int, count: int,
                           stride: int = 0) -> None:
        """Record ``count`` memory events without building per-event
        objects.  Row *i* is ``(seq0 + i, addr + i * stride, size, var,
        loc, access)`` — on disk (and in the content digests) what
        ``count`` :meth:`write` calls with the matching
        :class:`MemEvent`\\ s produce, which are this method with
        ``count=1``.

        Binary traces grow the open segment's runs (a block fills the
        segment's room and goes on in the next, as its rows would); the
        mems digest hashes the expanded rows without block-length
        prefixes, so neither where a bulk append cuts its blocks nor
        where a segment ends can perturb it.  Text traces format one
        line per row from the site's pre-encoded fields.
        """
        if count <= 0:
            return
        if stride < 0:
            raise TraceFormatError(
                f"append_mem_columns: negative stride {stride}")
        try:
            code = ACCESS_CODES[access]
        except KeyError:
            raise TraceFormatError(
                f"unknown access kind {access!r}") from None
        site = self._mem_sites.get((var, id(loc)))
        if site is None:
            site = self._new_mem_site(var, loc)
        if self.format == FORMAT_BINARY:
            last = count - 1
            if not (INT64_MIN <= seq0 and seq0 + last <= INT64_MAX
                    and INT64_MIN <= addr
                    and addr + last * stride <= INT64_MAX
                    and INT64_MIN <= size <= INT64_MAX):
                raise TraceFormatError(
                    f"memory event outside the int64 columns: {count} rows "
                    f"from seq {seq0} addr {addr} by {stride}, size {size}")
            key = (size, site[0], site[1], code)
            while last >= 0:
                if seq0 <= self._last_seq:
                    self._flush_segment()
                # rows a stride past int64 apart (two at most) never join
                rows = min(last + 1 if stride <= INT64_MAX else 1,
                           self._room)
                self._add_rows(seq0, addr, rows, stride, key)
                self._last_seq = seq0 + rows - 1
                self._room -= rows
                if self._room <= 0:
                    self._flush_segment()
                seq0, addr, last = seq0 + rows, addr + rows * stride, \
                    last - rows
        else:
            buffer = self._buffer
            head = _MEM_HEADS[code]
            tail = f" size={size}{site[0]}"
            if count == 1:
                buffer.append(f"M seq={seq0}{head}{addr}{tail}")
            elif stride:
                buffer.extend(
                    f"M seq={seq0 + i}{head}{addr + i * stride}{tail}"
                    for i in range(count))
            else:
                line_tail = f"{head}{addr}{tail}"
                buffer.extend(f"M seq={seq0 + i}{line_tail}"
                              for i in range(count))
            if len(buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += count

    def _add_rows(self, seq0: int, addr: int, count: int, stride: int,
                  key: tuple) -> None:
        """Put ``count`` rows in the open segment: each joins the open
        run if it continues it, else opens the next run."""
        run = self._run
        if run is not None and run[4] == key and seq0 == run[0] + run[2]:
            joined = run[2]
            step = addr - run[1] if joined == 1 else run[3]
            if 0 <= step <= INT64_MAX and addr == run[1] + joined * step:
                run[3] = step
                if count == 1 or stride == step:
                    run[2] = joined + count
                    return
                run[2] = joined + 1
                seq0, addr, count = seq0 + 1, addr + stride, count - 1
        self._close_run()
        self._run = [seq0, addr, count, stride if count > 1 else 0, key]

    def _close_run(self) -> None:
        run = self._run
        if run is not None:
            seq0, addr, count, stride, (size, var, loc, code) = run
            for column, value in zip(self._pending, (
                    seq0, addr, size, var, loc, code, count, stride)):
                column.append(value)
            self._run = None

    def _new_call_site(self, fn: str,
                       loc: Optional[SourceLocation]) -> tuple:
        """Resolve a call site on first sight: ``(location id, loc)``
        for a binary trace, ``(" fn=... loc=..." fields, loc)`` for a
        text trace."""
        text = _location_text(loc)
        if self.format == FORMAT_BINARY:
            site = (self._table.intern(text), loc)
        else:
            site = (_call_fields(fn, text), loc)
        return _keep_site(self._call_sites, (fn, id(loc)), site)

    def _new_mem_site(self, var: str,
                      loc: Optional[SourceLocation]) -> tuple:
        """Resolve a memory site on first sight: ``(var id, location
        id, loc)`` for a binary trace, ``(" var=... loc=..." fields,
        loc)`` for a text trace."""
        text = _location_text(loc)
        if self.format == FORMAT_BINARY:
            intern = self._table.intern
            site = (intern(var), intern(text), loc)
        else:
            site = (f" var={encode_value(var)} loc={encode_value(text)}",
                    loc)
        return _keep_site(self._mem_sites, (var, id(loc)), site)

    def close(self) -> None:
        """Flush everything and finalize the file (footer + trailer for
        binary).  Idempotent."""
        if self._closed:
            return
        if self.format == FORMAT_BINARY:
            self._flush_segment()
            kinds, offsets, rows = self._frames
            shapes = self._calls.shapes
            footer = json.dumps(
                {"version": BINARY_VERSION, "counts": self._counts,
                 "strings": self._table.strings, "shapes": shapes,
                 "frames": {"kinds": "".join(kinds), "offsets": offsets,
                            "rows": rows},
                 "digests": {
                     "calls": calls_digest(
                         [h.digest() for h in self._calls.hashes], shapes,
                         self._hash_codec.digest()),
                     "mems": self._hash_mems.hexdigest(),
                     "strings": hash_strings(self._table.strings)}},
                ensure_ascii=False, separators=(",", ":")).encode("utf-8")
            footer_offset = self._offset + len(self._out)
            self._frame(b"F", footer)
            self._out += _U64.pack(footer_offset) + _END_MAGIC
        self._drain()
        self._fh.close()
        self._closed = True

    def abort(self) -> None:
        """Drain buffered bytes and close the OS handle *without*
        finalizing — used on error, so that what was written of a run
        that did not complete can never be read as a whole trace: a
        binary file is left without its trailer, a text file ends in an
        ``A`` record, and the reader rejects either."""
        if not self._closed:
            if self.format == FORMAT_BINARY:
                self._flush_segment()
            else:
                self._buffer.append(
                    encode_record(ABORT_KIND,
                                  {"events": self.events_written}))
            self._drain()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.abort()
        else:
            self.close()
        return False

    # -- binary ---------------------------------------------------------

    def _frame(self, tag: bytes, payload: bytes) -> None:
        self._out += tag
        self._out += _U32.pack(len(payload))
        self._out += payload

    def _index_frame(self, kind: str, rows: int) -> None:
        kinds, offsets, counts = self._frames
        kinds.append(kind)
        offsets.append(self._offset + len(self._out))
        counts.append(rows)

    def _write_call_record(self, line: str) -> None:
        """The codec route: one call the columns cannot hold, framed as
        its self-describing text record, in a segment of its own."""
        self._flush_segment()
        payload = line.encode("utf-8")
        self._index_frame("C", 1)
        self._frame(b"C", payload)
        self._hash_codec.update(_U32.pack(len(payload)))
        self._hash_codec.update(payload)
        self._counts["call"] += 1

    def _flush_segment(self) -> None:
        self._close_run()
        table = np.empty(len(self._pending[0]), dtype=RUN_DTYPE)
        for name, col in zip(RUN_DTYPE.names, self._pending):
            table[name] = np.frombuffer(col, dtype=col.typecode)
            del col[:]
        lone = table[table["count"] == 1][list(MEM_DTYPE.names)].astype(
            MEM_DTYPE)
        runs = table[table["count"] > 1]
        # the segment's rows in seq order: what is hashed and counted,
        # so both are those of the rows written one at a time
        rows = _expand(table) if len(runs) else lone
        counts = self._counts
        if len(self._calls):
            calls, nvals, nlists, payload = self._calls.take_frame()
            self._index_frame("K", calls)
            self._out += b"K"
            self._out += _K_HEAD.pack(calls, nvals, nlists, len(rows))
            self._out += payload
            counts["call"] += calls
        if len(runs):
            self._index_frame("R", len(rows) - len(lone))
            self._out += b"R" + _R_HEAD.pack(len(runs), len(lone))
            self._out += runs.tobytes()
        if len(lone):
            self._index_frame("M", len(lone))
            self._out += b"M" + _U32.pack(len(lone)) + lone.tobytes()
        if len(rows):
            # no length prefix: rows are fixed-width, so the mems digest
            # is a pure function of the expanded content regardless of
            # where the writer happened to cut its segments
            self._hash_mems.update(rows.tobytes())
            stores = int(np.count_nonzero(
                rows["access"] == ACCESS_CODES[ACCESS_STORE]))
            counts["mem"] += len(rows)
            counts["store"] += stores
            counts["load"] += len(rows) - stores
        self._room = _FLUSH_EVERY
        if len(self._out) >= 1 << 20:
            self._drain()

    def _drain(self) -> None:
        if self.format == FORMAT_BINARY:
            data = self._out
            self._offset += len(data)
            self._out = bytearray()
        else:
            data = ("\n".join(self._buffer) + "\n").encode("utf-8") \
                if self._buffer else b""
            self._buffer.clear()
        if not data:
            return
        if self._obs is not None:
            start = time.perf_counter()
            self._fh.write(data)
            self._obs.observe(
                "profiler_flush_seconds", time.perf_counter() - start,
                help="Trace-buffer flush latency", rank=self.rank)
        else:
            self._fh.write(data)
        self.bytes_written += len(data)


def _expand(runs: np.ndarray) -> np.ndarray:
    """The memory rows ``runs`` (a contiguous :data:`RUN_DTYPE` array,
    counts >= 1, checked to stay inside int64) stand for, run after
    run: one ``repeat`` / ``arange`` pass."""
    counts = runs["count"]
    at = np.repeat(np.arange(len(runs)), counts)
    # a run's leading 33 bytes are its first row
    rows = np.ndarray(len(runs), MEM_DTYPE, runs, 0,
                      (RUN_DTYPE.itemsize,)).take(at)
    step = np.arange(len(at)) - (np.cumsum(counts) - counts).take(at)
    rows["seq"] += step
    rows["addr"] += step * runs["stride"].take(at)
    return rows


def _location_text(loc: Optional[SourceLocation]) -> str:
    return (loc if loc is not None else UNKNOWN_LOCATION).encode()


def _keep_site(sites: dict, key: tuple, site: tuple) -> tuple:
    """Remember a resolved site.  A producer has a few hundred; a
    rewriter that decodes a fresh location object per event would
    otherwise pin one entry per event, so a full table starts over."""
    if len(sites) >= _SITE_CACHE:
        sites.clear()
    sites[key] = site
    return site


def _call_fields(fn: str, loc_text: str) -> str:
    """The static fields of a call's text record."""
    return f" fn={encode_value(fn)} loc={encode_value(loc_text)}"


def _call_line(fields: str, args: Dict[str, Any], seq: int) -> str:
    """One call as its text record, from its :func:`_call_fields` —
    byte-identical to ``CallEvent(seq=seq, fn=fn, args=args,
    loc=loc).encode()``."""
    parts = [f"C seq={seq}{fields}"]
    for key, value in args.items():
        if value is not None:
            parts.append(f"{key}={encode_value(value)}")
    return " ".join(parts)


def _section_pattern(value: str) -> "re.Pattern[str]":
    """The data-section line grammar the bulk text decoder recognises:
    a memory line in the writer's canonical layout (what
    :meth:`MemEvent.encode` and :meth:`TraceWriter.append_mem_columns`
    emit) or a call line, whole.  ``value`` wraps the value of each
    memory field — ``"({})"`` captures it.  At most 19 digits, so an
    integer the pattern admits parses, and overflows int64 or not."""
    integer = value.format("-?[0-9]{1,19}")
    token = value.format(r"[^ \n]*")
    return re.compile(
        rf"^(?:M seq={integer} a=\$(load|store) addr={integer}"
        rf" size={integer} var=\${token} loc=\${token}|(C [^\n]*))$",
        re.MULTILINE)


#: groups: seq, access, addr, size, var, loc | call line
_SECTION_ROWS = _section_pattern("({})")
#: groups: access | call line — for the call pass, which only counts
#: memory lines
_SECTION_KINDS = _section_pattern("(?:{})")

_CHUNK_CHARS = 1 << 20   # text decoded per bulk step (plus the line it cuts)


class _TextSection:
    """One pass over the data section of a text trace — the single text
    decoder behind every :class:`TraceReader` iteration method.

    Iterating yields ``(mems, calls, cuts)`` per chunk of whole lines:
    the chunk's memory events as one :data:`MEM_DTYPE` array (``None``
    with ``columns`` off, when memory lines are only counted), its call
    lines as decoded by ``decode_call`` (none when that is ``None``: call
    lines are stepped over), and per call the number of the chunk's
    memory rows that precede it.  ``counts`` holds the per-class event
    totals of the chunks consumed so far.

    A chunk decodes in bulk when :func:`_section_pattern` accounts for
    every one of its lines and every column value fits int64.  Any other
    chunk (permuted or extra fields, unknown kind, blank or truncated
    line, ...) goes through the record codec line by line, so results
    and errors are those of :func:`decode_event`; every error names the
    file and the 1-based line.  The ``A`` record that ends the trace of
    a run that did not complete (:meth:`TraceWriter.abort`) is such an
    error, whichever consumer meets it.
    """

    def __init__(self, reader: "TraceReader",
                 decode_call: Optional[Callable[[str], Event]] = None,
                 columns: bool = True):
        self._reader = reader
        self._decode_call = decode_call
        self._columns = columns
        self.counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        #: lines decoded into a product (mem row / call event) by route
        self._routes: Dict[Tuple[str, str], int] = Counter()

    def __iter__(self) -> Iterator[Tuple[Optional[np.ndarray], list, list]]:
        fh = self._reader._fh
        fh.seek(self._reader._data_pos)
        pattern = _SECTION_ROWS if self._columns else _SECTION_KINDS
        lineno = 2   # the header is line 1
        try:
            while True:
                chunk = fh.read(_CHUNK_CHARS)
                if not chunk:
                    break
                chunk += fh.readline()
                if not chunk.endswith("\n"):
                    chunk += "\n"
                n_lines = chunk.count("\n")
                rows = pattern.findall(chunk)
                decoded = (self._bulk(rows, lineno)
                           if len(rows) == n_lines else None)
                yield decoded or self._codec(chunk, lineno)
                lineno += n_lines
        finally:
            for (kind, path), n in self._routes.items():
                obs.count("trace_text_lines_total", n,
                          help="Text trace lines decoded, by route",
                          kind=kind, path=path)

    def _located(self, lineno: int, exc: TraceFormatError
                 ) -> TraceFormatError:
        return TraceFormatError(f"{self._reader.path}:{lineno}: {exc}")

    def _tally(self, path: str, mems: int, stores: int, calls: int) -> None:
        counts, routes = self.counts, self._routes
        counts["mem"] += mems
        counts["store"] += stores
        counts["load"] += mems - stores
        counts["call"] += calls
        if self._columns:
            routes["mem", path] += mems
        if self._decode_call is not None:
            routes["call", path] += calls

    def _bulk(self, rows: List[tuple], lineno: int):
        """Decode a chunk whose every line matched the pattern; ``None``
        when an integer does not fit int64 (the codec path then names
        the line)."""
        *fields, call_lines = zip(*rows)
        call_at = list(compress(count(), call_lines))
        n = len(rows) - len(call_at)
        access = fields[1 if self._columns else 0]   # "" on call rows
        stores = access.count("store")
        mems = np.empty(n, dtype=MEM_DTYPE) if self._columns else None
        if n and self._columns:
            seq, _, addr, size, var, loc = (
                tuple(compress(col, access)) if call_at else col
                for col in fields)
            try:
                for name, col in (("seq", seq), ("addr", addr),
                                  ("size", size)):
                    mems[name] = np.fromiter(map(int, col), np.int64, n)
            except OverflowError:
                return None
            # unescape + intern once per distinct token, in the
            # first-appearance order a line-by-line decode interns in
            ids = dict.fromkeys(chain.from_iterable(zip(var, loc)))
            intern = self._reader._table.intern
            for token in ids:
                ids[token] = intern(unescape(token))
            mems["var"] = np.fromiter(map(ids.__getitem__, var), np.int32, n)
            mems["loc"] = np.fromiter(map(ids.__getitem__, loc), np.int32, n)
            mems["access"] = np.fromiter(
                map(ACCESS_CODES.__getitem__, compress(access, access)),
                np.uint8, n)
        calls: list = []
        decode = self._decode_call
        if decode is not None:
            try:
                for line in compress(call_lines, call_lines):
                    calls.append(decode(line))
            except TraceFormatError as exc:   # at the first call not decoded
                raise self._located(lineno + call_at[len(calls)],
                                    exc) from exc
        self._tally("bulk", n, stores, len(call_at))
        return mems, calls, [i - k for k, i in enumerate(call_at)]

    def _codec(self, chunk: str, lineno: int):
        """Decode a chunk line by line through the record codec."""
        intern = self._reader._table.intern
        decode = self._decode_call
        rows: List[tuple] = []
        calls: list = []
        cuts: List[int] = []
        n_mems = n_stores = n_calls = 0
        for lineno, line in enumerate(chunk.split("\n"), lineno):
            if not line:
                continue
            try:
                if line.startswith("M "):
                    rec = decode_record(line)
                    # field order of MemEvent.from_record
                    seq, access = rec.get_int("seq"), rec.get_str("a")
                    ints = (seq, rec.get_int("addr"), rec.get_int("size"))
                    var, loc = rec.get_str("var"), rec.get_str("loc")
                    if access not in ACCESS_CODES:
                        raise TraceFormatError(
                            f"unknown access kind {access!r}")
                    n_mems += 1
                    n_stores += access == ACCESS_STORE
                    if self._columns:
                        for name, value in zip(MEM_DTYPE.names, ints):
                            if not INT64_MIN <= value <= INT64_MAX:
                                raise TraceFormatError(
                                    f"field {name}={value} outside int64")
                        rows.append((*ints, intern(var), intern(loc),
                                     ACCESS_CODES[access]))
                    continue
                if line.split(" ", 1)[0] == ABORT_KIND:
                    raise TraceFormatError(
                        "abort record: the profiled run did not complete "
                        "(it crashed, deadlocked or was interrupted), so "
                        "this trace is partial")
                n_calls += 1
                if decode is not None:
                    cuts.append(n_mems)
                    calls.append(decode(line))
                elif not line.startswith("C "):
                    raise TraceFormatError(
                        "unknown record kind in data section: "
                        f"{line.split(' ', 1)[0]!r}")
            except TraceFormatError as exc:
                raise self._located(lineno, exc) from exc
        self._tally("codec", n_mems, n_stores, n_calls)
        mems = np.array(rows, dtype=MEM_DTYPE) if self._columns else None
        return mems, calls, cuts


class _CallRecords:
    """One rank's call records — the ``C`` lines of a text trace, the
    ``C`` frames of a binary one — read into the columns a ``K`` frame
    maps to.

    The first record with a given tail past its ``seq`` is parsed and
    appended to a :class:`CallBuffer`, the writer's own encoder — which
    is also the int64 and list-element check; what the encoder appended
    is the row of every later record with that tail (loops re-issue the
    same call endlessly).  A record the buffer refuses, or that does not
    read as ``C seq=<int>`` and the fields the writer emits, is a *codec
    row*: decoded and checked on its own by
    :class:`~repro.core.calltable.CallIngest`, with :func:`decode_event`'s
    result or error.
    """

    def __init__(self, rank: int, table: _StringTable):
        from repro.core.calltable import CallIngest, check_call
        self.rank, self.table = rank, table
        self.buffer = CallBuffer(table.intern)
        self._ingest, self._check_call = CallIngest(rank), check_call
        #: ``(columnar rows before it, event)`` per codec row
        self.codec: List[Tuple[int, CallEvent]] = []
        #: tail -> its encoded row: (values, list elements, loc, shape)
        self._tails: Dict[str, tuple] = {}

    def add(self, line: str) -> None:
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0] == "C" and \
                parts[1].startswith("seq="):
            row = self._tails.get(parts[2])
            try:
                seq = int(parts[1][4:])
                if row is None:
                    if self._first(parts[2], seq):
                        return
                else:
                    seqs, vals, lists, locs, shapes = \
                        self.buffer.columns.values()
                    seqs.append(seq)    # or OverflowError, nothing added
                    vals.extend(row[0])
                    lists.extend(row[1])
                    locs.append(row[2])
                    shapes.append(row[3])
                    return
            except (ValueError, OverflowError):
                pass
        self.add_codec(line, len(self.buffer))

    def add_codec(self, line: str, before: int) -> None:
        """A record that stays a record, after ``before`` columnar rows."""
        event = self._ingest.add(line)
        if not isinstance(event, CallEvent):
            raise TraceFormatError("not a call record")
        self.codec.append((before, event))

    def _first(self, rest: str, seq: int) -> bool:
        """Encode the first record with this tail and remember its row
        — if it reads as the writer's fields, names no second ``seq``,
        has a location that decodes and a table row."""
        try:
            args: Dict[str, Any] = {}
            for part in rest.split(" "):
                key, raw = part.split("=", 1)
                args[key] = decode_value(raw)
            fn = str(args.pop("fn"))
            loc = self.table.intern(str(args.pop("loc")))
            self.table.loc(loc)
            self._check_call(fn, args)
        except (KeyError, ValueError, TraceFormatError):
            return False
        _seqs, vals, lists, _locs, shapes = self.buffer.columns.values()
        at = len(vals), len(lists)
        if "seq" in args or not self.buffer.append(fn, args, loc, seq):
            return False
        _keep_site(self._tails, rest,
                   (vals[at[0]:], lists[at[1]:], loc, shapes[-1]))
        return True

    def finish(self, locate: Callable[[int], str]) -> RankCalls:
        """The rank's calls: what the buffer holds — taken over its own
        memory, no copy — and the codec rows."""
        columns = {name: [np.frombuffer(column, dtype=column.typecode)]
                   for name, column in self.buffer.columns.items()}
        return RankCalls(
            self.rank, self.table.strings,
            resolve_shapes(self.buffer.shapes, self.table),
            codec=self.codec, locate=locate, **columns)


@dataclass
class TraceHeader:
    version: int
    rank: int
    nranks: int
    app: str


class TraceReader:
    """Reads one rank's trace back (format sniffed from the file).

    The header is read once at construction and the open handle is
    reused by every iteration method (no double-open).  Iteration
    methods share the handle, so at most one text iterator should be
    live at a time; binary iteration follows the frame index over the
    memory map and is reentrant.
    """

    def __init__(self, path: str):
        self.path = path
        #: the rank's columnar CallTable, populated as a side product of
        #: :meth:`read_calls`
        self.call_table = None
        #: the rank's memory blocks, after ``rank_calls(mems=True)``
        self.call_mems: Optional[List[MemBlock]] = None
        fh = open(path, "rb")
        magic = fh.read(len(_MAGIC))
        if magic == _MAGIC:
            self.format = FORMAT_BINARY
            self._fh, self._mm = fh, None
            try:
                self._init_binary(fh)
            except Exception:
                self.close()
                raise
        else:
            fh.close()
            if not magic:
                raise TraceFormatError(
                    f"{path}: empty trace file (unclosed writer?)")
            self.format = FORMAT_TEXT
            self._init_text()

    # -- construction ---------------------------------------------------

    def _init_text(self) -> None:
        self._mm = None
        self._fh = open(self.path, encoding="utf-8")
        first = self._fh.readline()
        rec = decode_record(first)
        if rec.kind != "H":
            raise TraceFormatError(f"{self.path}: missing trace header")
        self.header = TraceHeader(
            version=rec.get_int("v"), rank=rec.get_int("rank"),
            nranks=rec.get_int("nranks"), app=rec.get_str("app", ""))
        if self.header.version != TRACE_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported trace version "
                f"{self.header.version}")
        self._data_pos = self._fh.tell()
        self._table = _StringTable()
        self._counts: Optional[Dict[str, int]] = None
        self._digests: Optional[Dict[str, str]] = None

    def _init_binary(self, fh) -> None:
        size = os.fstat(fh.fileno()).st_size
        if size < len(_MAGIC) + _TRAILER_LEN:
            raise TraceFormatError(
                f"{self.path}: truncated binary trace (unclosed writer?)")
        self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        trailer = self._mm[size - _TRAILER_LEN:]
        if trailer[8:] != _END_MAGIC:
            raise TraceFormatError(
                f"{self.path}: missing end-of-trace trailer — the writer "
                "was not closed or the file is truncated")
        footer_off = _U64.unpack(trailer[:8])[0]
        if not len(_MAGIC) <= footer_off <= size - _TRAILER_LEN - 5:
            raise TraceFormatError(
                f"{self.path}: corrupt footer offset {footer_off}")
        tag, payload, _next = self._read_frame(footer_off)
        if tag != b"F":
            raise TraceFormatError(f"{self.path}: footer frame missing "
                                   f"(found {tag!r})")
        try:
            footer = json.loads(payload.decode("utf-8"))
            counts = footer["counts"]
            self._counts = {k: int(counts[k])
                            for k in ("call", "mem", "load", "store")}
            self._table = _StringTable(
                [str(s) for s in footer["strings"]])
            digests = footer.get("digests")
            self._digests = (
                {k: str(digests[k]) for k in ("calls", "mems", "strings")}
                if isinstance(digests, dict) else None)
            self._shapes_raw = footer.get("shapes", [])
            indexed = footer.get("frames")
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt footer: {exc}") from exc
        tag, payload, data_start = self._read_frame(len(_MAGIC))
        if tag != b"H" or data_start > footer_off:
            raise TraceFormatError(f"{self.path}: missing trace header")
        rec = decode_record(payload.decode("utf-8"))
        self.header = TraceHeader(
            version=rec.get_int("v"), rank=rec.get_int("rank"),
            nranks=rec.get_int("nranks"), app=rec.get_str("app", ""))
        if self.header.version not in _BINARY_VERSIONS:
            raise TraceFormatError(
                f"{self.path}: unsupported binary trace version "
                f"{self.header.version}")
        self._data_pos = data_start
        self._footer_off = footer_off
        self._frames = self._index_frames(indexed)
        self._calls: Optional[RankCalls] = None

    def _read_frame(self, pos: int) -> Tuple[bytes, bytes, int]:
        mm = self._mm
        length = _U32.unpack_from(mm, pos + 1)[0]
        end = pos + 5 + length
        return mm[pos:pos + 1], mm[pos + 5:end], end

    def _index_frames(self, indexed: Optional[dict]
                      ) -> Tuple[List[str], List[int], List[int]]:
        """The frame index ``(kinds, offsets, rows)`` of the data
        section, from one walk over the frame headers — and the checks
        that make every later pass a plain gather: frames tile the
        section exactly, every run of an ``R`` frame (v4) is sound, the
        footer's own index (v3) names the same frames, and the rows per
        kind (an ``R`` frame's: its events) sum to the footer's counts."""
        mm, end = self._mm, self._footer_off
        kinds: List[str] = []
        offsets: List[int] = []
        rows: List[int] = []
        pos = self._data_pos
        # memory events the frames that complete the open segment still
        # owe it, and the kind of frame that announced them
        owed, owner = 0, ""
        while pos < end:
            tag = mm[pos:pos + 1]
            if pos + 5 > end:
                raise TraceFormatError(
                    f"{self.path}: frame header at byte {pos} overruns "
                    "the footer")
            count = _U32.unpack_from(mm, pos + 1)[0]
            if owed and not ((tag == b"M" and count == owed)
                             or (tag == b"R" and owner == "K")):
                raise TraceFormatError(
                    f"{self.path}: the {owner} frame before byte {pos} "
                    f"is completed by {owed} memory events; found "
                    f"{tag!r} with {count}")
            announced, owed, owner = owed, 0, ""
            if tag == b"M":
                stop = pos + 5 + count * MEM_DTYPE.itemsize
            elif tag == b"C":
                stop, count = pos + 5 + count, 1
            elif tag == b"K" and pos + 1 + _K_HEAD.size <= end:
                owed, _columns, stop = _call_frame(mm, pos)
                owner = "K"
            elif tag == b"R" and self.header.version >= 4 and \
                    pos + 1 + _R_HEAD.size <= end:
                count, owed = _R_HEAD.unpack_from(mm, pos + 1)
                stop = pos + 1 + _R_HEAD.size + count * RUN_DTYPE.itemsize
                owner = "R"
            else:
                raise TraceFormatError(
                    f"{self.path}: unknown frame tag {tag!r} at byte "
                    f"{pos}")
            if stop > end:
                raise TraceFormatError(
                    f"{self.path}: {tag.decode()} frame at byte {pos} "
                    "overruns the footer")
            if owner == "R":
                count = self._check_runs(pos)
                if announced and count + owed != announced:
                    raise TraceFormatError(
                        f"{self.path}: the K frame before byte {pos} is "
                        f"completed by {announced} memory events; the R "
                        f"frame there by {count + owed}")
            kinds.append(tag.decode())
            offsets.append(pos)
            rows.append(count)
            pos = stop
        if owed:
            raise TraceFormatError(
                f"{self.path}: the last {owner} frame (byte {offsets[-1]}) "
                f"is completed by {owed} memory events; found the footer")
        walked = {"kinds": "".join(kinds), "offsets": offsets, "rows": rows}
        if indexed is not None and indexed != walked:
            try:
                listed = list(zip(*(indexed[key] for key in walked)))
            except (KeyError, TypeError):
                listed = []
            same = sum(1 for _ in takewhile(
                lambda pair: pair[0] == pair[1],
                zip(listed, zip(*walked.values()))))
            raise TraceFormatError(
                f"{self.path}: frame index disagrees with the data "
                f"section at frame {same} (byte "
                f"{offsets[same] if same < len(offsets) else end})")
        counts = self._counts
        calls = sum(n for kind, n in zip(kinds, rows) if kind in "KC")
        mems = sum(n for kind, n in zip(kinds, rows) if kind in "MR")
        if (calls, mems) != (counts["call"], counts["mem"]) or \
                counts["load"] + counts["store"] != counts["mem"]:
            raise TraceFormatError(
                f"{self.path}: footer at byte {end} counts "
                f"{counts['call']} calls and {counts['mem']} memory events "
                f"({counts['load']} loads + {counts['store']} stores), the "
                f"frames hold {calls} and {mems}")
        return kinds, offsets, rows

    def _runs(self, offset: int) -> np.ndarray:
        """The runs of the ``R`` frame at ``offset``, a view of the map."""
        nruns = _U32.unpack_from(self._map(), offset + 1)[0]
        return np.frombuffer(self._mm, dtype=RUN_DTYPE, count=nruns,
                             offset=offset + 1 + _R_HEAD.size)

    def _check_runs(self, offset: int) -> int:
        """The events the ``R`` frame at ``offset`` expands to — refused
        unless every run has two rows or more, a stride >= 0, a last row
        inside int64, an access code and string ids the file defines,
        and the frame fits a segment."""
        runs, strings = self._runs(offset), len(self._table.strings)
        count, stride = runs["count"], runs["stride"]
        steps = np.maximum(count, 2) - np.int64(1)
        # INT64_MAX - addr, exact as uint64 (two's complement wraps back)
        room = np.uint64(INT64_MAX) - runs["addr"].view(np.uint64)
        wrong = [
            (count < 2, "count {count} < 2"),
            (runs["access"] >= len(ACCESS_NAMES),
             "access code {access} is neither load nor store"),
            ((runs["var"].view(np.uint32) >= strings)
             | (runs["loc"].view(np.uint32) >= strings),
             f"var id {{var}} or loc id {{loc}} outside {strings} strings"),
            (stride < 0, "stride {stride} < 0"),
            (runs["seq"] > INT64_MAX - steps,
             "seq {seq} + {count} - 1 overflows int64"),
            (stride.view(np.uint64) > room // steps.view(np.uint64),
             "addr {addr} + ({count} - 1) * {stride} overflows int64")]
        bad = wrong[0][0]
        for test, _why in wrong[1:]:
            bad = bad | test
        bad = np.nonzero(bad)[0]
        if len(bad):
            i = int(bad[0])
            run = {name: int(runs[name][i]) for name in RUN_DTYPE.names}
            what = next(why for test, why in wrong if test[i])
            raise TraceFormatError(
                f"{self.path}: R frame at byte {offset}, run {i} (byte "
                f"{offset + 1 + _R_HEAD.size + i * RUN_DTYPE.itemsize}): "
                + what.format(**run))
        events = int(count.sum())
        if events > _FLUSH_EVERY:
            raise TraceFormatError(
                f"{self.path}: R frame at byte {offset} expands to {events} "
                f"memory events, more than a segment holds ({_FLUSH_EVERY})")
        return events

    def _map(self):
        if self._mm is None:
            raise TraceFormatError(f"{self.path}: reader is closed")
        return self._mm

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # a MemBlock view is still alive
                pass
            self._mm = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        """Typed events, in trace order (both formats)."""
        for item in self.stream():
            if isinstance(item, MemBlock):
                yield from item.iter_events()
            else:
                yield item

    def events(self) -> List[Event]:
        return list(self)

    def stream(self) -> Iterator[StreamItem]:
        """Call events typed, memory events packed — the analyzer's
        ingest shape.  Consecutive memory events coalesce into one
        :class:`MemBlock`; trace (``seq``) order is preserved across the
        two populations."""
        rank, table = self.header.rank, self._table
        if self.format != FORMAT_BINARY:
            section = _TextSection(self, partial(decode_event, rank))
            for mems, calls, cuts in section:
                yield from _interleave(rank, table, mems, calls, cuts)
            return
        calls = self._call_columns()
        cols = CallColumns([calls], _StringTable(calls.strings))
        for start, stop, mems in self._segments():
            calls = cols[start:stop]
            if mems is None:
                yield from calls
                continue
            cuts = np.searchsorted(
                mems["seq"], [call.seq for call in calls]).tolist()
            yield from _interleave(rank, table, mems, calls, cuts)

    def read_calls(self) -> Tuple[CallColumns, Dict[str, int]]:
        """The rank's calls plus exact per-class event counts: the stack
        (:func:`stack_calls`) of this one rank, which also leaves its
        :class:`~repro.core.calltable.CallTable` in ``self.call_table``."""
        cols, self.call_table = stack_calls([self.rank_calls()])
        return cols, dict(self._counts)

    def rank_calls(self, mems: bool = False) -> RankCalls:
        """The per-file half of the call ingest, in one pass: the rank's
        calls as columns, its exact per-class event counts left for
        :meth:`counts`.  A binary trace maps its ``K`` frames and takes
        the counts from the footer; the call lines of a text trace are
        read into the same columns by :class:`_CallRecords`, memory lines
        counted by access kind without building their columns.  A call
        the columns cannot hold is a *codec row*, kept as its event.

        ``mems`` asks for the memory events too, for a caller that would
        otherwise open the file again for :meth:`mem_blocks`: the packed
        blocks are left in ``self.call_mems`` — decoded by the same bulk
        pass (text) or mapped from the frame index (binary: views of the
        file, which stays mapped while they live)."""
        if self.format == FORMAT_BINARY:
            if mems:
                self.call_mems = list(self.mem_blocks())
            return self._call_columns()
        rank = self.header.rank
        records = _CallRecords(rank, _StringTable())
        section = _TextSection(self, records.add, columns=mems)
        blocks = [MemBlock(rank, self._table, rows)
                  for rows, _calls, _cuts in section if mems and len(rows)]
        if mems:
            self.call_mems = blocks
        self._counts = section.counts
        return records.finish(self._call_line)

    def _call_line(self, row: int) -> str:
        """``path:line`` of the ``row``-th call line of a text trace,
        counted when an error needs it (the reader may be closed)."""
        with open(self.path, encoding="utf-8") as fh:
            fh.seek(self._data_pos)
            lines = (n for n, line in enumerate(fh, 2)
                     if line.startswith("C "))
            return f"{self.path}:{next(islice(lines, row, None))}"

    def _call_columns(self) -> RankCalls:
        """A binary trace's calls, mapped once per reader.  Every ``K``
        frame adds its columns as chunks and ``C`` frames take their
        place by frame order as codec rows; a file without a ``K`` frame
        (v2) has its ``C`` frames read into columns like text lines."""
        if self._calls is not None:
            return self._calls
        mm = self._map()
        try:
            shapes = resolve_shapes(self._shapes_raw, self._table)
        except TraceFormatError as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt footer at byte {self._footer_off}: "
                f"{exc}") from exc
        kinds, offsets, counts = self._frames
        mapped = "K" in kinds      # else every call is a record (v2)
        # records intern their strings: not into the table the footer
        # digests
        records = None if mapped and "C" not in kinds else _CallRecords(
            self.header.rank, self._table if mapped else _StringTable())
        parts: Dict[str, list] = {name: [] for name, _ in CALL_COLUMNS}
        firsts: List[int] = []     # per call frame: its first row,
        frames: List[Tuple[str, int]] = []      # kind and byte offset
        rows = columnar = 0
        for kind, offset, count in zip(kinds, offsets, counts):
            if kind in "MR":
                continue
            firsts.append(rows)
            frames.append((kind, offset))
            rows += count
            if kind == "K":
                for name, dtype, n, start in _call_frame(mm, offset)[1]:
                    parts[name].append(np.frombuffer(mm, dtype, n, start))
                columnar += count
                continue
            try:
                length = _U32.unpack_from(mm, offset + 1)[0]
                line = mm[offset + 5:offset + 5 + length].decode("utf-8")
                if mapped:
                    records.add_codec(line, columnar)
                else:
                    records.add(line)
            except (TraceFormatError, UnicodeDecodeError) as exc:
                raise TraceFormatError(
                    f"{self.path}: C frame at byte {offset}: {exc}"
                ) from exc

        def locate(row: int) -> str:
            k = max(bisect_right(firsts, row) - 1, 0)
            kind, offset = frames[k]
            return (f"{self.path}: {kind} frame at byte {offset}"
                    + (f", row {row - firsts[k]}" if kind == "K" else ""))

        # views of the mapping: the stack copies them out
        calls = records.finish(locate) if not mapped else RankCalls(
            self.header.rank, self._table.strings, shapes,
            codec=records.codec if records else (), locate=locate, **parts)
        for route, n in (("columnar", rows - len(calls.codec)),
                         ("codec", len(calls.codec))):
            obs.count("trace_call_rows_total", n,
                      help="Binary trace call rows read, by route",
                      route=route)
        self._calls = calls
        return calls

    def _mem_rows(self, offset: int, rows: int) -> np.ndarray:
        return np.frombuffer(self._map(), dtype=MEM_DTYPE, count=rows,
                             offset=offset + 5)

    def _segments(self) -> Iterator[Tuple[int, int, Optional[np.ndarray]]]:
        """Per segment of a binary trace: the rows ``start:stop`` of the
        rank's call columns it holds, and its memory rows (``None``: it
        has none) — a view of an ``M`` frame, or its runs expanded."""
        mm = self._map()
        frames = iter(zip(*self._frames))
        row = 0
        for kind, offset, rows in frames:
            start = row
            if kind in "KC":
                row += rows
                if kind == "C" or not _call_frame(mm, offset)[0]:
                    yield start, row, None
                    continue
                kind, offset, rows = next(frames)   # the segment's rows
            if kind == "M":
                yield start, row, self._mem_rows(offset, rows)
                continue
            runs = self._runs(offset)
            if _R_HEAD.unpack_from(mm, offset + 1)[1]:
                # lone rows are runs of one: back in the writer's order
                _kind, at, lone = next(frames)
                merged = np.zeros(len(runs) + lone, dtype=RUN_DTYPE)
                merged[:len(runs)] = runs
                ones = merged[len(runs):]
                ones[list(MEM_DTYPE.names)] = self._mem_rows(at, lone)
                ones["count"] = 1
                runs = merged[np.argsort(merged["seq"], kind="stable")]
            mems = _expand(runs)
            seq = mems["seq"]
            late = np.nonzero(seq[1:] <= seq[:-1])[0]
            if len(late):
                raise TraceFormatError(
                    f"{self.path}: R frame at byte {offset}: memory seq "
                    f"{int(seq[late[0] + 1])} follows {int(seq[late[0]])} "
                    "in its segment")
            yield start, row, mems

    def counts(self) -> Dict[str, int]:
        """Per-class event counts: served from the footer for binary
        traces, from one cheap scan (cached) for text traces."""
        if self._counts is None:
            self.rank_calls()
        return dict(self._counts)

    # -- content digests ------------------------------------------------

    def digests(self) -> Dict[str, str]:
        """Content digests identifying this rank's trace.

        Binary traces report the ``calls``/``mems``/``strings`` digests
        the writer recorded in the footer; files predating digest
        recording get the same values recomputed from the mapped frames
        (identical formulas, so old and new files with the same content
        agree).  Text traces hash the raw file bytes.  Digests of
        different formats are never comparable — :meth:`content_digest`
        folds the format in."""
        if self._digests is None:
            if self.format == FORMAT_BINARY:
                self._digests = self._recompute_binary_digests()
            else:
                self._digests = {"file": hash_file(self.path)}
        return dict(self._digests)

    def content_digest(self, verify: bool = False) -> str:
        """One digest summarizing format + content of this rank's file.

        A text trace's digest is of its bytes; a binary trace's is what
        its footer *records*.  ``verify`` first recomputes it from the
        frames — what a cache does before it answers for the file, so a
        data section altered under an intact footer is a typed error and
        not a stale report."""
        digests = self.digests()
        if verify and self.format == FORMAT_BINARY \
                and self._recompute_binary_digests() != digests:
            raise TraceFormatError(
                f"{self.path}: the content digests recorded in the "
                "footer disagree with the data section")
        return stable_hash({"format": self.format, "digests": digests})

    def _recompute_binary_digests(self) -> Dict[str, str]:
        """The writer's digests for a footer that records none, from
        the mapped frames (identical formulas)."""
        mm = self._map()
        columns = [hashlib.sha256() for _ in CALL_COLUMNS]
        codec, mems = hashlib.sha256(), hashlib.sha256()
        for kind, offset, rows in zip(*self._frames):
            if kind == "C":
                length = _U32.unpack_from(mm, offset + 1)[0]
                codec.update(mm[offset + 1:offset + 5 + length])
            elif kind == "K":
                for digest, (_name, dtype, count, at) in zip(
                        columns, _call_frame(mm, offset)[1]):
                    digest.update(mm[at:at + count * dtype.itemsize])
        for _start, _stop, rows in self._segments():
            if rows is not None:
                mems.update(rows.tobytes())
        # a v2 writer recorded the running hash of its ``C`` records
        calls = (codec.hexdigest() if self.header.version == 2
                 else calls_digest([h.digest() for h in columns],
                                   self._shapes_raw, codec.digest()))
        return {"calls": calls, "mems": mems.hexdigest(),
                "strings": hash_strings(self._table.strings)}

    def mem_blocks(self) -> Iterator[MemBlock]:
        """Memory events only, packed (the vectorized data pass): text
        traces yield one block per decoded chunk of the data section,
        binary traces one per segment of the frame index — a zero-copy
        view of its ``M`` frame, or its runs expanded once — no call is
        decoded or stepped over either way."""
        rank, table = self.header.rank, self._table
        if self.format != FORMAT_BINARY:
            for mems, _calls, _cuts in _TextSection(self):
                if len(mems):
                    yield MemBlock(rank, table, mems)
            return
        for _start, _stop, mems in self._segments():
            if mems is not None:
                yield MemBlock(rank, table, mems)

    def frame_bytes(self) -> Dict[str, int]:
        """File bytes by what they hold — ``calls`` (``K`` and ``C``
        frames), ``mems`` (``R`` and ``M`` frames) and ``footer`` (magic,
        header, footer, trailer) — for a binary trace; text lines are not
        framed, so a text trace reports only its ``file`` size."""
        size = os.path.getsize(self.path)
        if self.format != FORMAT_BINARY:
            return {"file": size}
        kinds, offsets, _rows = self._frames
        sizes = Counter()
        for kind, start, stop in zip(kinds, offsets,
                                     offsets[1:] + [self._footer_off]):
            sizes["mems" if kind in "MR" else "calls"] += stop - start
        return {"calls": sizes["calls"], "mems": sizes["mems"],
                "footer": size - sizes["calls"] - sizes["mems"]}


def _interleave(rank: int, table: _StringTable, mems: np.ndarray,
                calls: Sequence[CallEvent], cuts: List[int]
                ) -> Iterator[StreamItem]:
    """One stretch of a trace in event order: ``cuts[i]`` of ``mems``'
    rows precede ``calls[i]``."""
    pos = 0
    for cut, event in zip(cuts, calls):
        if cut > pos:
            yield MemBlock(rank, table, mems[pos:cut])
            pos = cut
        yield event
    if pos < len(mems):
        yield MemBlock(rank, table, mems[pos:])


def stack_calls(parts: Sequence[RankCalls]):
    """The call ingest's one builder: the calls of several rank files
    (:meth:`TraceReader.rank_calls`, in rank order) as one
    :class:`CallColumns` over the set's strings, checked once, and the
    one :class:`~repro.core.calltable.CallTable` gathered from it.  A
    rank whose call ``seq`` does not increase strictly is refused: every
    later pass bisects that column."""
    from repro.core.calltable import CallTable
    cols = CallColumns(parts, _StringTable(
        [text for part in parts for text in part.strings]))
    late = np.nonzero((cols.seq[1:] <= cols.seq[:-1])
                      & (cols.ranks[1:] == cols.ranks[:-1]))[0]
    if len(late):
        row = int(late[0]) + 1
        k = int(np.searchsorted(cols.offsets, row, side="right")) - 1
        raise TraceFormatError(
            f"{parts[k].locate(row - int(cols.offsets[k]))}: call seq "
            f"{int(cols.seq[row])} follows {int(cols.seq[row - 1])}: seq "
            "is not strictly increasing over the rank's calls")
    return cols, CallTable.from_columns(cols)


class TraceSet:
    """All per-rank traces of one profiled run (formats may mix)."""

    _SUFFIXES = {".log": FORMAT_TEXT, ".bin": FORMAT_BINARY}

    def __init__(self, directory: str):
        self.directory = directory
        self._paths: Dict[int, str] = {}
        for name in sorted(os.listdir(directory)):
            if not name.startswith("trace."):
                continue
            suffix = name[name.rfind("."):]
            if suffix not in self._SUFFIXES:
                continue
            try:
                rank = int(name.split(".")[1])
            except ValueError:
                raise TraceFormatError(
                    f"{directory}: trace file {name!r} is not named "
                    "trace.<rank>" + suffix) from None
            if rank in self._paths:
                raise TraceFormatError(
                    f"{directory}: rank {rank} has both a text and a "
                    "binary trace file")
            self._paths[rank] = os.path.join(directory, name)
        if not self._paths:
            raise TraceFormatError(f"no trace files found in {directory}")
        with TraceReader(self._paths[min(self._paths)]) as reader:
            self.nranks = reader.header.nranks
        if sorted(self._paths) != list(range(self.nranks)):
            raise TraceFormatError(
                f"{directory}: expected traces for ranks 0..{self.nranks - 1}, "
                f"found {sorted(self._paths)}")

    @staticmethod
    def rank_path(directory: str, rank: int,
                  format: str = FORMAT_TEXT) -> str:
        if format not in FORMATS:
            raise ValueError(f"unknown trace format {format!r}")
        suffix = "bin" if format == FORMAT_BINARY else "log"
        return os.path.join(directory, f"trace.{rank}.{suffix}")

    def path(self, rank: int) -> str:
        """The on-disk trace file of one rank.  A ``TraceSet`` pickles
        as directory + paths only — pool workers (fork or spawn) reopen
        the file by this path and mmap the frames themselves, so the
        stable path, not an inherited file handle, is the cross-process
        contract."""
        return self._paths[rank]

    def reader(self, rank: int) -> TraceReader:
        """A reader of one rank's file — refused if its header disagrees
        with the file's name or with the set's rank count."""
        reader = TraceReader(self.path(rank))
        said = reader.header.rank, reader.header.nranks
        if said != (rank, self.nranks):
            reader.close()
            raise TraceFormatError(
                f"{reader.path}: the header says rank={said[0]} nranks="
                f"{said[1]}, the trace set rank={rank} nranks={self.nranks}")
        return reader

    def iter_events(self, rank: int) -> Iterator[Event]:
        """Lazily iterate one rank's typed events (no list copy)."""
        with self.reader(rank) as reader:
            yield from reader

    def stream(self, rank: int) -> Iterator[StreamItem]:
        """One rank's ingest stream (typed calls + packed mem blocks)."""
        with self.reader(rank) as reader:
            yield from reader.stream()

    def mem_blocks(self, rank: int) -> Iterator[MemBlock]:
        with self.reader(rank) as reader:
            yield from reader.mem_blocks()

    def events(self, rank: int) -> List[Event]:
        return list(self.iter_events(rank))

    def all_events(self) -> Dict[int, List[Event]]:
        return {rank: list(self.iter_events(rank))
                for rank in range(self.nranks)}

    def event_counts(self) -> Dict[str, int]:
        """Aggregate event counts by class (for the Figure 10
        experiment).  Served from the binary footer where available — no
        event is decoded for a binary trace set."""
        counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        for rank in range(self.nranks):
            with self.reader(rank) as reader:
                for key, value in reader.counts().items():
                    counts[key] += value
        return counts
