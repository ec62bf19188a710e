"""Per-rank trace files: buffered writers, readers, and the TraceSet handle.

Each rank logs to its own file, independently — the property the paper
credits for the Profiler's scalability (section VII-B: "Profiler logs the
runtime events into the local disk independently for each process").

Two on-disk formats (see ``docs/trace-format.md``):

* **text (v1)** — ``trace.<rank>.log``, one self-describing record per
  line (the seed format, still the default);
* **binary (v2)** — ``trace.<rank>.bin``, where call events remain
  self-describing records but memory events — the bulk of a compute-heavy
  trace (Figure 10) — are packed into columnar numpy blocks, with a
  footer carrying exact per-class event counts and a string table for
  buffer names / source locations.  The reader memory-maps the file and
  exposes the blocks directly (:meth:`TraceReader.mem_blocks`), so the
  analyzer ingests load/store events without constructing one Python
  object per event.

Readers sniff the format per file; every consumer-facing API
(:meth:`TraceReader.__iter__`, :meth:`TraceReader.stream`, ...) behaves
identically over both formats.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import struct
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

import numpy as np

from repro import obs
from repro.profiler.events import (
    ACCESS_CODES, ACCESS_NAMES, ACCESS_STORE, CallEvent, Event, MemEvent, decode_event,
)
from repro.util.errors import TraceFormatError
from repro.util.hashing import hash_file, hash_strings, stable_hash
from repro.util.location import SourceLocation, UNKNOWN_LOCATION
from repro.util.records import (
    INT64_MAX, INT64_MIN, decode_record, encode_record, encode_value,
    unescape,
)

TRACE_VERSION = 1        # text (v1) format version
BINARY_VERSION = 2       # binary (v2) format version

FORMAT_TEXT = "text"
FORMAT_BINARY = "binary"
FORMATS = (FORMAT_TEXT, FORMAT_BINARY)

_FLUSH_EVERY = 4096      # buffered events between writes / per mem block

#: v2 framing constants
_MAGIC = b"MCT2"         # file magic (doubles as the format sniff)
_END_MAGIC = b"MCT2TRLR"  # trailer magic; absent => unclosed/truncated
_TRAILER_LEN = 8 + len(_END_MAGIC)  # u64 footer offset + end magic
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: columnar layout of one packed memory event (33 bytes, little-endian):
#: ``var``/``loc`` index the footer string table, ``access`` is an
#: :data:`~repro.profiler.events.ACCESS_CODES` code.
MEM_DTYPE = np.dtype([("seq", "<i8"), ("addr", "<i8"), ("size", "<i8"),
                      ("var", "<i4"), ("loc", "<i4"), ("access", "u1")])


class _StringTable:
    """Interned strings shared by every mem block of one trace file.

    Holds buffer names and encoded source locations; locations are
    decoded to :class:`SourceLocation` lazily and cached, so a location
    string is parsed once per file instead of once per event.
    """

    __slots__ = ("strings", "_ids", "_locs")

    def __init__(self, strings: Optional[List[str]] = None):
        self.strings: List[str] = list(strings or ())
        self._ids: Dict[str, int] = {s: i for i, s in
                                     enumerate(self.strings)}
        self._locs: List[Optional[SourceLocation]] = [None] * len(
            self.strings)

    def intern(self, text: str) -> int:
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
    ``table``.  Binary readers hand out zero-copy views of the
    memory-mapped file; text readers decode lines in bulk into the same
    shape, so consumers never branch on the on-disk format.
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

    def to_events(self) -> List[MemEvent]:
        return list(self.iter_events())


#: what :meth:`TraceReader.stream` yields: call events stay typed, memory
#: events arrive packed.
StreamItem = Union[CallEvent, MemBlock]


class TraceWriter:
    """Buffered writer for one rank's event stream (text or binary)."""

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
        self._counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        # recorder captured once at construction: the per-event write path
        # never re-checks global state
        self._obs = obs.get_recorder() if obs.is_enabled() else None
        if format == FORMAT_BINARY:
            self._fh = open(path, "wb")
            self._offset = 0  # bytes already drained to the file
            self._out = bytearray(_MAGIC)
            self._frame(b"H", encode_record("H", {
                "v": BINARY_VERSION, "rank": rank, "nranks": nranks,
                "app": app}).encode("utf-8"))
            self._table = _StringTable()
            #: pending mem columns: seq, addr, size, var, loc, access
            self._pending: Tuple[list, ...] = tuple([] for _ in range(6))
            # content digests accumulated at write time and recorded in
            # the footer, so incremental checking can detect unchanged
            # ranks without re-reading event payloads
            self._hash_calls = hashlib.sha256()
            self._hash_mems = hashlib.sha256()
        else:
            self._buffer: List[str] = [
                encode_record("H", {"v": TRACE_VERSION, "rank": rank,
                                    "nranks": nranks, "app": app})
            ]
            self._fh = open(path, "w", encoding="utf-8")

    # -- shared ---------------------------------------------------------

    def write(self, event: Event) -> None:
        if self.format == FORMAT_BINARY:
            self._write_binary(event)
        else:
            self._buffer.append(event.encode())
            if len(self._buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += 1

    def append_call(self, fn: str, args: Dict[str, Any],
                    loc: Optional[SourceLocation], seq: int) -> None:
        """Call fast path: write one call record without building a
        :class:`CallEvent` — the line is byte-identical to
        ``CallEvent(seq=seq, fn=fn, args=args, loc=loc).encode()``."""
        loc_text = (loc if loc is not None else UNKNOWN_LOCATION).encode()
        parts = [f"C seq={seq} fn={encode_value(fn)}"
                 f" loc={encode_value(loc_text)}"]
        for key, value in args.items():
            if value is not None:
                parts.append(f"{key}={encode_value(value)}")
        line = " ".join(parts)
        if self.format == FORMAT_BINARY:
            self._flush_mem_block()  # preserve on-disk event order
            payload = line.encode("utf-8")
            self._frame(b"C", payload)
            self._hash_calls.update(_U32.pack(len(payload)))
            self._hash_calls.update(payload)
            self._counts["call"] += 1
            if len(self._out) >= 1 << 20:
                self._drain()
        else:
            self._buffer.append(line)
            if len(self._buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += 1

    def append_mem_columns(self, access: str, var: str,
                           loc: Optional[SourceLocation], seq0: int,
                           addr: int, size: int, count: int,
                           stride: int = 0) -> None:
        """Bulk fast path: append ``count`` memory rows without building
        per-event objects.  Row *i* is ``(seq0 + i, addr + i * stride,
        size, var, loc, access)`` — byte-identical on disk (and in the
        content digests) to ``count`` :meth:`write` calls with the
        matching :class:`MemEvent`\\ s.

        Binary traces extend the pending packed-column lists directly;
        the mems digest hashes packed content without block-length
        prefixes, so block boundaries introduced by bulk appends cannot
        perturb it.  Text traces replicate ``MemEvent.encode()`` output
        from one pre-encoded template.
        """
        if count <= 0:
            return
        if stride < 0:
            raise TraceFormatError(
                f"append_mem_columns: negative stride {stride}")
        loc_text = (loc if loc is not None else UNKNOWN_LOCATION).encode()
        if self.format == FORMAT_BINARY:
            try:
                code = ACCESS_CODES[access]
            except KeyError:
                raise TraceFormatError(
                    f"unknown access kind {access!r}") from None
            counts = self._counts
            seqs, addrs, sizes, var_ids, loc_ids, accs = self._pending
            seqs.extend(range(seq0, seq0 + count))
            if stride:
                addrs.extend(range(addr, addr + count * stride, stride))
            else:
                addrs.extend([addr] * count)
            sizes.extend([size] * count)
            var_ids.extend([self._table.intern(var)] * count)
            loc_ids.extend([self._table.intern(loc_text)] * count)
            accs.extend([code] * count)
            counts["mem"] += count
            counts[access] += count
            if len(seqs) >= _FLUSH_EVERY:
                self._flush_mem_block()
        else:
            if access not in ACCESS_CODES:
                raise TraceFormatError(
                    f"unknown access kind {access!r}")
            buffer = self._buffer
            mid = f" a={encode_value(access)} addr="
            tail = (f" size={size} var={encode_value(var)}"
                    f" loc={encode_value(loc_text)}")
            if stride:
                buffer.extend(
                    f"M seq={seq0 + i}{mid}{addr + i * stride}{tail}"
                    for i in range(count))
            else:
                line_tail = f"{mid}{addr}{tail}"
                buffer.extend(f"M seq={seq0 + i}{line_tail}"
                              for i in range(count))
            if len(buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += count

    def close(self) -> None:
        """Flush everything and finalize the file (footer + trailer for
        binary).  Idempotent."""
        if self._closed:
            return
        if self.format == FORMAT_BINARY:
            self._flush_mem_block()
            footer = json.dumps(
                {"version": BINARY_VERSION, "counts": self._counts,
                 "strings": self._table.strings,
                 "digests": {
                     "calls": self._hash_calls.hexdigest(),
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
        finalizing — used on error so a partially written file stays
        detectable (a binary file without its trailer is rejected by the
        reader)."""
        if not self._closed:
            if self.format == FORMAT_BINARY:
                self._flush_mem_block()
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

    # -- text -----------------------------------------------------------

    def _drain_text(self) -> None:
        if not self._buffer:
            return
        chunk = "\n".join(self._buffer) + "\n"
        self._fh.write(chunk)
        self.bytes_written += len(chunk)
        self._buffer.clear()

    # -- binary ---------------------------------------------------------

    def _frame(self, tag: bytes, payload: bytes) -> None:
        self._out += tag
        self._out += _U32.pack(len(payload))
        self._out += payload

    def _write_binary(self, event: Event) -> None:
        counts = self._counts
        if type(event) is MemEvent or isinstance(event, MemEvent):
            seqs, addrs, sizes, var_ids, loc_ids, accs = self._pending
            seqs.append(event.seq)
            addrs.append(event.addr)
            sizes.append(event.size)
            var_ids.append(self._table.intern(event.var))
            loc_ids.append(self._table.intern(event.loc.encode()))
            try:
                accs.append(ACCESS_CODES[event.access])
            except KeyError:
                raise TraceFormatError(
                    f"unknown access kind {event.access!r}") from None
            counts["mem"] += 1
            counts[event.access] += 1
            if len(seqs) >= _FLUSH_EVERY:
                self._flush_mem_block()
        else:
            self._flush_mem_block()  # preserve on-disk event order
            payload = event.encode().encode("utf-8")
            self._frame(b"C", payload)
            self._hash_calls.update(_U32.pack(len(payload)))
            self._hash_calls.update(payload)
            counts["call"] += 1
            if len(self._out) >= 1 << 20:
                self._drain()

    def _flush_mem_block(self) -> None:
        seqs = self._pending[0]
        if not seqs:
            return
        arr = np.empty(len(seqs), dtype=MEM_DTYPE)
        for name, col in zip(("seq", "addr", "size", "var", "loc",
                              "access"), self._pending):
            arr[name] = col
        self._out += b"M"
        self._out += _U32.pack(len(seqs))
        payload = arr.tobytes()
        self._out += payload
        # no length prefix: rows are fixed-width, so the mems digest is a
        # pure function of the packed content regardless of where the
        # writer happened to cut its blocks
        self._hash_mems.update(payload)
        for col in self._pending:
            col.clear()
        if len(self._out) >= 1 << 20:
            self._drain()

    def _drain(self) -> None:
        if self.format != FORMAT_BINARY:
            if self._obs is not None:
                start = time.perf_counter()
                self._drain_text()
                self._obs.observe(
                    "profiler_flush_seconds", time.perf_counter() - start,
                    help="Trace-buffer flush latency", rank=self.rank)
            else:
                self._drain_text()
            return
        if not self._out:
            return
        if self._obs is not None:
            start = time.perf_counter()
            self._fh.write(self._out)
            self._obs.observe(
                "profiler_flush_seconds", time.perf_counter() - start,
                help="Trace-buffer flush latency", rank=self.rank)
        else:
            self._fh.write(self._out)
        self._offset += len(self._out)
        self.bytes_written += len(self._out)
        self._out = bytearray()


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
    file and the 1-based line.
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
    live at a time; binary iteration walks the memory map and is
    reentrant.
    """

    def __init__(self, path: str):
        self.path = path
        #: the rank's columnar CallTable, populated as a side product of
        #: :meth:`read_calls`
        self.call_table = None
        #: the rank's memory blocks, where ``read_calls(mems=True)``
        #: decoded them in the same pass as the calls (text traces)
        self.call_mems: Optional[List[MemBlock]] = None
        fh = open(path, "rb")
        magic = fh.read(len(_MAGIC))
        if magic == _MAGIC:
            self.format = FORMAT_BINARY
            self._init_binary(fh)
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
        self._fh = fh
        size = os.fstat(fh.fileno()).st_size
        if size < len(_MAGIC) + _TRAILER_LEN:
            fh.close()
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
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt footer: {exc}") from exc
        tag, payload, data_start = self._read_frame(len(_MAGIC))
        if tag != b"H":
            raise TraceFormatError(f"{self.path}: missing trace header")
        rec = decode_record(payload.decode("utf-8"))
        self.header = TraceHeader(
            version=rec.get_int("v"), rank=rec.get_int("rank"),
            nranks=rec.get_int("nranks"), app=rec.get_str("app", ""))
        if self.header.version != BINARY_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported binary trace version "
                f"{self.header.version}")
        self._data_pos = data_start
        self._footer_off = footer_off

    def _read_frame(self, pos: int) -> Tuple[bytes, bytes, int]:
        mm = self._mm
        tag = mm[pos:pos + 1]
        if tag == b"M":
            count = _U32.unpack_from(mm, pos + 1)[0]
            end = pos + 5 + count * MEM_DTYPE.itemsize
            return tag, mm[pos + 5:end], end
        length = _U32.unpack_from(mm, pos + 1)[0]
        end = pos + 5 + length
        return tag, mm[pos + 5:end], end

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
        :class:`MemBlock`; on-disk order is preserved across the two
        populations."""
        if self.format == FORMAT_BINARY:
            yield from self._stream_binary()
            return
        rank, table = self.header.rank, self._table
        section = _TextSection(self, partial(decode_event, rank))
        for mems, calls, cuts in section:
            pos = 0
            for cut, event in zip(cuts, calls):
                if cut > pos:
                    yield MemBlock(rank, table, mems[pos:cut])
                    pos = cut
                yield event
            if pos < len(mems):
                yield MemBlock(rank, table, mems[pos:])

    def read_calls(self, mems: bool = False
                   ) -> Tuple[List[CallEvent], Dict[str, int]]:
        """One pass returning every call event plus exact per-class
        event counts — the analyzer control-pass primitive.  Binary
        traces take the counts from the footer and never touch memory
        frames' payloads; text traces count memory lines by access kind
        without building their columns — unless ``mems`` asks for them:
        the one bulk pass then decodes both populations and leaves the
        packed memory blocks in ``self.call_mems``, for a caller that
        would otherwise read the file again with :meth:`mem_blocks`
        (binary blocks are mapped, not decoded, so there ``call_mems``
        stays ``None``).

        Decoding runs through :class:`repro.core.calltable.CallIngest`
        — a memoizing line parser that also leaves the rank's
        :class:`CallTable` in ``self.call_table`` as a free side
        product."""
        from repro.core.calltable import CallIngest
        rank = self.header.rank
        ingest = CallIngest(rank)
        if self.format == FORMAT_BINARY:
            calls = self._read_calls_binary(ingest)
            self.call_table = ingest.finish()
            return calls, dict(self._counts)
        section = _TextSection(self, ingest.add, columns=mems)
        calls: List[CallEvent] = []
        blocks: List[MemBlock] = []
        for rows, events, _cuts in section:
            calls.extend(events)
            if mems and len(rows):
                blocks.append(MemBlock(rank, self._table, rows))
        self.call_table = ingest.finish()
        if mems:
            self.call_mems = blocks
        self._counts = section.counts
        return calls, dict(section.counts)

    def _read_calls_binary(self, ingest) -> List[CallEvent]:
        """Binary call pass through an ingest object: C frames decode
        via the memoizing parser, M frames are stepped over untouched."""
        mm = self._mm
        if mm is None:
            raise TraceFormatError(f"{self.path}: reader is closed")
        calls: List[CallEvent] = []
        pos = self._data_pos
        end = self._footer_off
        itemsize = MEM_DTYPE.itemsize
        add = ingest.add
        while pos < end:
            tag = mm[pos:pos + 1]
            length = _U32.unpack_from(mm, pos + 1)[0]
            start = pos + 5
            if tag == b"M":
                pos = start + length * itemsize
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: memory block overruns the footer")
            elif tag == b"C":
                pos = start + length
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: call record overruns the footer")
                calls.append(add(mm[start:pos].decode("utf-8")))
            else:
                raise TraceFormatError(
                    f"{self.path}: unknown frame tag {tag!r} at byte "
                    f"{pos}")
        return calls

    def counts(self) -> Dict[str, int]:
        """Per-class event counts: served from the footer for binary
        traces, from one cheap scan (cached) for text traces."""
        if self._counts is None:
            self.read_calls()
        return dict(self._counts)

    # -- content digests ------------------------------------------------

    def digests(self) -> Dict[str, str]:
        """Content digests identifying this rank's trace.

        Binary traces report the ``calls``/``mems``/``strings`` digests
        the writer recorded in the footer; v2 files predating digest
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

    def content_digest(self) -> str:
        """One digest summarizing format + content of this rank's file."""
        return stable_hash({"format": self.format,
                            "digests": self.digests()})

    def _recompute_binary_digests(self) -> Dict[str, str]:
        mm = self._mm
        if mm is None:
            raise TraceFormatError(f"{self.path}: reader is closed")
        hash_calls = hashlib.sha256()
        hash_mems = hashlib.sha256()
        pos = self._data_pos
        end = self._footer_off
        itemsize = MEM_DTYPE.itemsize
        while pos < end:
            tag = mm[pos:pos + 1]
            length = _U32.unpack_from(mm, pos + 1)[0]
            start = pos + 5
            if tag == b"M":
                pos = start + length * itemsize
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: memory block overruns the footer")
                hash_mems.update(mm[start:pos])
            elif tag == b"C":
                pos = start + length
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: call record overruns the footer")
                hash_calls.update(_U32.pack(length))
                hash_calls.update(mm[start:pos])
            else:
                raise TraceFormatError(
                    f"{self.path}: unknown frame tag {tag!r} at byte "
                    f"{pos}")
        return {"calls": hash_calls.hexdigest(),
                "mems": hash_mems.hexdigest(),
                "strings": hash_strings(self._table.strings)}

    def mem_blocks(self) -> Iterator[MemBlock]:
        """Memory events only, packed (the vectorized data pass).

        Unlike :meth:`stream`, call records are stepped over without
        decoding, and blocks span them: text traces yield one block per
        decoded chunk, binary traces coalesce consecutive on-disk blocks
        up to ``_FLUSH_EVERY`` rows (synchronization-heavy traces flush
        a small block before every call frame, and re-packing here keeps
        the per-block Python overhead out of the data pass)."""
        if self.format == FORMAT_BINARY:
            yield from self._mem_blocks_binary()
            return
        for mems, _calls, _cuts in _TextSection(self):
            if len(mems):
                yield MemBlock(self.header.rank, self._table, mems)

    # -- binary internals ----------------------------------------------

    def _stream_binary(self) -> Iterator[StreamItem]:
        mm = self._mm
        if mm is None:
            raise TraceFormatError(f"{self.path}: reader is closed")
        rank = self.header.rank
        table = self._table
        pos = self._data_pos
        end = self._footer_off
        itemsize = MEM_DTYPE.itemsize
        while pos < end:
            tag = mm[pos:pos + 1]
            if tag == b"M":
                count = _U32.unpack_from(mm, pos + 1)[0]
                start = pos + 5
                pos = start + count * itemsize
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: memory block overruns the footer")
                arr = np.frombuffer(mm, dtype=MEM_DTYPE, count=count,
                                    offset=start)
                yield MemBlock(rank, table, arr)
            elif tag == b"C":
                length = _U32.unpack_from(mm, pos + 1)[0]
                start = pos + 5
                pos = start + length
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: call record overruns the footer")
                yield decode_event(rank,
                                   mm[start:pos].decode("utf-8"))
            else:
                raise TraceFormatError(
                    f"{self.path}: unknown frame tag {tag!r} at byte "
                    f"{pos}")

    def _mem_blocks_binary(self) -> Iterator[MemBlock]:
        mm = self._mm
        if mm is None:
            raise TraceFormatError(f"{self.path}: reader is closed")
        rank = self.header.rank
        table = self._table
        pos = self._data_pos
        end = self._footer_off
        itemsize = MEM_DTYPE.itemsize
        pending: List[np.ndarray] = []
        pending_rows = 0

        def flush() -> MemBlock:
            nonlocal pending_rows
            # a lone large frame stays a zero-copy view; runs of small
            # frames pay one vectorized concatenate
            arr = pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending.clear()
            pending_rows = 0
            return MemBlock(rank, table, arr)

        while pos < end:
            tag = mm[pos:pos + 1]
            length = _U32.unpack_from(mm, pos + 1)[0]
            start = pos + 5
            if tag == b"M":
                pos = start + length * itemsize
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: memory block overruns the footer")
                pending.append(np.frombuffer(mm, dtype=MEM_DTYPE,
                                             count=length, offset=start))
                pending_rows += length
                if pending_rows >= _FLUSH_EVERY:
                    yield flush()
            elif tag == b"C":
                pos = start + length
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: call record overruns the footer")
            else:
                raise TraceFormatError(
                    f"{self.path}: unknown frame tag {tag!r} at byte "
                    f"{pos}")
        if pending:
            yield flush()


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
        the file by this path and mmap the v2 blocks themselves, so the
        stable path, not an inherited file handle, is the cross-process
        contract."""
        return self._paths[rank]

    def reader(self, rank: int) -> TraceReader:
        return TraceReader(self.path(rank))

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
        experiment).  Served from the v2 footer where available — no
        event is decoded for a binary trace set."""
        counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        for rank in range(self.nranks):
            with self.reader(rank) as reader:
                for key, value in reader.counts().items():
                    counts[key] += value
        return counts
