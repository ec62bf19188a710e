"""Call events as columns — the ``K`` frame codec of the binary format.

A call record is a ``seq``, a source location, a function name and an
ordered mapping of argument names to ints, strings or int lists.  Loops
re-issue the same call with the same argument names endlessly, so the
binary format (``docs/trace-format.md``) stores one *shape* — the
function name plus the ordered ``(key, kind)`` pairs — per distinct call
form in the footer and, per call, five columns:

========  ======  ====================================================
``seq``   int64   the call's per-rank event index
``loc``   int32   string-table id of the encoded source location
``shape`` int32   index into the shape table
``vals``  int64   flat value pool, one entry per argument in shape
                  order: the int itself, the string's table id, or the
                  int list's length
``lists`` int64   flat pool of the int lists' elements, in value order
========  ======  ====================================================

The types are the columns' canonical ones: what a reader widens them to
and what the ``calls`` digest hashes.  A frame stores each column in
the narrowest of 1, 2, 4 or 8 bytes that holds its values.

:class:`CallBuffer` is the encoder (pending columns and their running
digests): the writer's side, and that of a reader whose file holds
calls as text records (a text trace).  What a reader
hands on is a :class:`RankCalls` — the file's columns, ids into the
file's own tables — and :class:`CallColumns` stacks those of a whole
trace set into one set of validated columns, viewed per rank as a lazy
``Sequence[CallEvent]``: an event object exists only for the rows
something indexes, which for a batch check is the calls whose
*arguments* a phase reads (registry, RMA and buffer calls); every other
call stays five integers.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from collections.abc import Sequence
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.profiler.events import CallEvent
from repro.util.errors import TraceFormatError

KIND_INT, KIND_STR, KIND_LIST = 0, 1, 2

#: of ``analyzer_views_built_total``; :mod:`repro.core.views` counts the
#: other kinds
BUILT_HELP = ("Analysis objects built: RMA op and local access views, "
              "epoch and region objects, and the call events built from "
              "the call columns")

#: the columns of a ``K`` frame, in payload order, with their array
#: typecodes: each column's canonical type, the widest it is stored at
CALL_COLUMNS = (("seq", "q"), ("vals", "q"), ("lists", "q"),
                ("loc", "i"), ("shape", "i"))
#: the little-endian integer types a ``K`` column is stored as, by width
INT_DTYPES = {width: np.dtype(f"<i{width}") for width in (1, 2, 4, 8)}
CALL_DTYPES = {code: INT_DTYPES[array(code).itemsize]
               for _name, code in CALL_COLUMNS}

_VALUE_KINDS = {int: KIND_INT, bool: KIND_INT, str: KIND_STR,
                tuple: KIND_LIST, list: KIND_LIST}
_NONE = type(None)

#: (fn, keys, kinds): a shape with its string ids resolved
Shape = Tuple[str, Tuple[str, ...], Tuple[int, ...]]


def _le_bytes(column: array) -> bytes:
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


@lru_cache(maxsize=4096)
def _form_layout(form: tuple) -> Optional[tuple]:
    """What a call form ``(fn, *keys, *value types)`` looks like as a
    shape, whichever writer meets it: ``(logged keys, their kinds, kept
    positions or None, string positions, list positions)`` — ``None``
    arguments are not logged — or ``None`` when a type has no kind."""
    n = len(form) // 2
    kept = [(i, key, _VALUE_KINDS.get(kind)) for i, (key, kind)
            in enumerate(zip(form[1:1 + n], form[1 + n:]))
            if kind is not _NONE]
    kinds = tuple(kind for _i, _key, kind in kept)
    if None in kinds:
        return None
    return (tuple(key for _i, key, _kind in kept), kinds,
            [i for i, _key, _kind in kept] if len(kept) < n else None,
            tuple(i for i, kind in enumerate(kinds) if kind == KIND_STR),
            tuple(i for i, kind in enumerate(kinds) if kind == KIND_LIST))


class CallBuffer:
    """The pending call columns of one :class:`TraceWriter` — or of one
    reader putting call records into columns.

    :meth:`append` is the per-call hot path: one dict hit on the call's
    form ``(fn, keys, value types)`` finds the shape id and the
    positions holding strings and lists; the values then enter the
    ``array('q')`` pools at C speed — which is also the range and type
    check, an int outside int64 or a non-int list element raising there.
    A call that does not fit is rolled back and refused (``False``):
    the writer frames it as a self-describing ``C`` record instead, the
    reader keeps it as a codec row.
    """

    def __init__(self, intern: Callable[[str], int]):
        self._intern = intern
        #: footer form of the shape table: ``[fn_id, [key_id, kind, ...]]``
        self.shapes: List[list] = []
        self._shape_ids: Dict[tuple, int] = {}
        self._plans: Dict[tuple, tuple] = {}
        self.columns: Dict[str, array] = {
            name: array(code) for name, code in CALL_COLUMNS}
        # drained in place (take_frame), so append can hold them by name
        self._seqs, self._vals, self._lists, self._locs, self._shapes = (
            self.columns[name] for name, _code in CALL_COLUMNS)
        #: one running hash per column: the calls digest is a function
        #: of the columns' content, not of where segments were cut
        self.hashes = [hashlib.sha256() for _ in CALL_COLUMNS]

    def __len__(self) -> int:
        return len(self._seqs)

    def append(self, fn: str, args: Dict[str, Any], loc_id: int,
               seq: int) -> bool:
        values = args.values()
        form = (fn, *args, *map(type, values))
        plan = self._plans.get(form)
        if plan is None:
            plan = self._plans[form] = self._plan(form)
        shape, plain, keep, str_pos, list_pos = plan
        seqs, vals = self._seqs, self._vals
        if plain:
            # every argument an int and logged (Win_fence, Barrier,
            # Win_unlock, ...): the values go to the pool as they are
            mark = len(vals)
            try:
                vals.extend(values)
                seqs.append(seq)
            except (OverflowError, TypeError):
                del vals[mark:]
                return False
        elif shape < 0:
            return False
        else:
            values = [*values]
            if keep is not None:
                values = [values[i] for i in keep]
            lists = self._lists
            marks = len(seqs), len(vals), len(lists)
            try:
                for i in list_pos:
                    items = values[i]
                    lists.extend(items)
                    values[i] = len(items)
                for i in str_pos:
                    values[i] = self._intern(values[i])
                vals.extend(values)
                seqs.append(seq)
            except (OverflowError, TypeError):
                del seqs[marks[0]:], vals[marks[1]:], lists[marks[2]:]
                return False
        self._locs.append(loc_id)
        self._shapes.append(shape)
        return True

    def _plan(self, form: tuple) -> tuple:
        """``(shape id, plain, kept positions or None, string positions,
        list positions)`` for one call form — ``plain``: nothing dropped,
        no string, no list; shape id -1 when a value's type has no
        column kind (the codec then writes ``str(value)``)."""
        layout = _form_layout(form)
        if layout is None:
            return -1, False, None, (), ()
        keys, kinds, keep, str_pos, list_pos = layout
        intern = self._intern
        footer = (intern(form[0]), *(x for key, kind in zip(keys, kinds)
                                     for x in (intern(key), kind)))
        shape = self._shape_ids.get(footer)
        if shape is None:
            shape = self._shape_ids[footer] = len(self.shapes)
            self.shapes.append([footer[0], list(footer[1:])])
        return (shape, keep is None and not str_pos and not list_pos,
                keep, str_pos, list_pos)

    def take_frame(self) -> Tuple[int, int, int, bytes, bytes]:
        """Drain the pending rows: ``(rows, nvals, nlists, widths,
        payload)``, the payload being the columns back to back in
        :data:`CALL_COLUMNS` order, each in the narrowest width that
        holds its values (``widths``: one byte per column).  The running
        hashes take the canonical bytes, so the digest does not depend
        on the widths."""
        cols = self.columns
        sizes = len(cols["seq"]), len(cols["vals"]), len(cols["lists"])
        widths, parts = bytearray(), []
        for (name, _code), digest in zip(CALL_COLUMNS, self.hashes):
            data = _le_bytes(cols[name])
            digest.update(data)
            width, data = _narrowest(cols[name], data)
            del cols[name][:]
            widths.append(width)
            parts.append(data)
        return (*sizes, bytes(widths), b"".join(parts))


#: per bit length of a value's magnitude, the narrowest width that holds
#: the value (int64: 63 bits at most)
_WIDTH_BY_BITS = [next(w for w in INT_DTYPES if bits < 8 * w)
                  for bits in range(64)]


def _narrowest(column: array, data: bytes) -> Tuple[int, bytes]:
    """The narrowest width that holds ``column``'s values, and the
    column at that width as little-endian bytes (``data``: at its full
    width).  A value that fits ``w`` bytes is the low ``w`` bytes of its
    full-width little-endian form, so narrowing is strided slicing."""
    if len(column) > 64:        # numpy's fixed cost pays off
        values = np.frombuffer(data, dtype=CALL_DTYPES[column.typecode])
        lo, hi = int(values.min()), int(values.max())
    else:
        lo, hi = (min(column), max(column)) if column else (0, 0)
    width, full = _WIDTH_BY_BITS[max(hi, ~lo).bit_length()], column.itemsize
    if width == full:
        return width, data
    if width == 1:
        return width, data[::full]
    out = bytearray(len(column) * width)
    for i in range(width):
        out[i::width] = data[i::full]
    return width, bytes(out)


def calls_digest(column_digests: List[bytes], shapes: List[list],
                 codec_digest: bytes) -> str:
    """The ``calls`` content digest: the per-column running hashes, the
    shape table they index, and the running hash of the calls that took
    the ``C`` route."""
    digest = hashlib.sha256()
    for part in column_digests:
        digest.update(part)
    digest.update(repr(shapes).encode("utf-8"))
    digest.update(codec_digest)
    return digest.hexdigest()


def resolve_shapes(raw: Any, strings: Sequence[str]) -> List[Shape]:
    """The footer's shape table with its ids into ``strings`` resolved;
    any id outside the string table or malformed entry is a
    :class:`TraceFormatError`."""
    try:
        shapes = [(strings[fn_id], tuple([strings[k] for k in fields[0::2]]),
                   tuple(fields[1::2])) for fn_id, fields in raw]
        ids = [k for fn_id, fields in raw for k in (fn_id, *fields[0::2])]
        if ids and min(ids) < 0:     # would have indexed from the end
            raise IndexError(f"string id {min(ids)}")
        if any(len(keys) != len(kinds) or
               not set(kinds) <= {KIND_INT, KIND_STR, KIND_LIST}
               for _fn, keys, kinds in shapes):
            raise ValueError("an argument without a kind, or a kind "
                             "that is not 0, 1 or 2")
    except (TypeError, ValueError, IndexError) as exc:
        raise TraceFormatError(
            f"malformed shape table ({len(strings)} strings): {exc}"
        ) from exc
    return shapes


_NEW_EVENT = object.__new__


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, counts[0], counts[0] + counts[1], ...]``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


#: One rank's calls as its file holds them: each column a list of chunks
#: (per ``K`` frame, or one a text parse fills) of ids into the rank's own
#: ``shapes`` and string ``table``; ``codec``: ``(columnar rows before,
#: event)`` per call the columns cannot hold; ``locate(row)``: where a row
#: sits.
RankCalls = namedtuple("RankCalls", "rank table shapes seq loc shape vals "
                                    "lists codec locate")


class CallColumns(Sequence):
    """The calls of a trace set as validated columns and, on demand, as
    :class:`CallEvent` objects (``cols[k]``, iteration, slices).

    Rows are stacked rank by rank, each rank's in trace order: ``ranks``
    is the rank column, ``offsets`` the first row of each of
    ``rank_ids``, and :meth:`view` one rank's rows.  The set's tables
    are the ranks' distinct shapes and their strings back to back
    (``string_base``: where each rank's begin); a codec row has shape id
    ``len(shapes)``.  Every id and offset is checked here, once, with
    array operations, so a gather over these columns cannot index out of
    bounds: shape, string and location ids inside their rank's tables,
    each rank's value and list pool exactly as long as its shapes and
    list lengths imply, no negative list length.  A violation raises
    :class:`TraceFormatError` worded by the rank's ``locate``.
    """

    def __init__(self, parts: Sequence[RankCalls], table):
        self.table = table
        self.rank_ids = [part.rank for part in parts]
        #: the rank of a one-rank stack or view, ``None`` for several
        self.rank = self.rank_ids[0] if len(parts) == 1 else None
        index: Dict[Shape, int] = {}
        # per distinct shape table: the files of a set mostly share one
        ids: Dict[int, List[int]] = {}
        for part in parts:
            if id(part.shapes) not in ids:
                ids[id(part.shapes)] = [index.setdefault(shape, len(index))
                                        for shape in part.shapes]
        to_set = np.array([k for part in parts for k in ids[id(part.shapes)]],
                          dtype=np.int64)
        self.shapes = shapes = list(index)
        nshapes = len(shapes)
        rows, n_vals, n_lists, n_strings, n_shapes, n_codec = (
            np.array(sizes, dtype=np.int64) for sizes in zip(*(
                (sum(map(len, p.seq)), sum(map(len, p.vals)),
                 sum(map(len, p.lists)), len(p.table.strings), len(p.shapes),
                 len(p.codec)) for p in parts)))
        first = _offsets(rows)
        owner = np.repeat(np.arange(len(parts)), rows)
        # at the canonical types: narrow chunks would
        # otherwise concatenate to a narrow type
        seq, vals, lists, loc, shape = (
            np.concatenate([chunk for part in parts
                            for chunk in getattr(part, name)],
                           dtype=CALL_DTYPES[code])
            for name, code in CALL_COLUMNS)
        befores = [[at for at, _event in part.codec] for part in parts]

        def located(p: int, row: int) -> str:
            # the checks below run over the columnar rows alone
            row = int(row)
            return parts[p].locate(row + bisect_right(befores[p], row))

        def check_ids(ids: np.ndarray, size: np.ndarray, what: str,
                      rows=None) -> None:
            # ``size`` per id: the table of the id's rank
            if len(ids) and (int(ids.min()) < 0 or (ids >= size).any()):
                at = int(np.argmax((ids < 0) | (ids >= size)))
                row = at if rows is None else int(rows()[at])
                raise TraceFormatError(
                    f"{located(owner[row], row - first[owner[row]])}: "
                    f"{what} {int(ids[at])} outside table of {size[at]}")

        check_ids(shape, n_shapes[owner], "shape id")
        check_ids(loc, n_strings[owner], "location id")
        self.string_base = string_base = _offsets(n_strings)
        shape = to_set[_offsets(n_shapes)[owner] + shape]
        loc = loc + string_base[owner]
        width = np.array([len(keys) for _fn, keys, _kinds in shapes] + [0],
                         dtype=np.int64)
        widths = width[shape]
        val_off = _offsets(widths)

        def check_pool(held: np.ndarray, implied: np.ndarray,
                       message: str) -> None:
            if (held != implied).any():
                p = int(np.argmax(held != implied))
                raise TraceFormatError(f"{located(p, 0)}: "
                                       + message.format(held[p], implied[p]))

        check_pool(n_vals, np.diff(val_off[first]),
                   "value pool holds {} entries, the shapes imply {}")
        # the kind of every pool entry: its row's shape, its position
        kind_flat = np.array([k for _fn, _keys, kinds in shapes
                              for k in kinds], dtype=np.int8)
        kinds = kind_flat[
            np.repeat(_offsets(width)[shape] - val_off[:-1], widths)
            + np.arange(len(vals), dtype=np.int64)]
        #: per pool entry: is it a string-table id
        self.is_str = is_str = kinds == KIND_STR
        is_list = kinds == KIND_LIST

        def entry_rows(mask: np.ndarray):
            return lambda: np.repeat(np.arange(len(seq)), widths)[mask]

        str_owner = np.repeat(owner, widths)[is_str]
        check_ids(vals[is_str], n_strings[str_owner], "string id",
                  entry_rows(is_str))
        vals[is_str] += string_base[str_owner]
        lengths = vals[is_list]
        if len(lengths) and int(lengths.min()) < 0:
            at = int(entry_rows(is_list)()[np.argmax(lengths < 0)])
            raise TraceFormatError(
                f"{located(owner[at], at - first[owner[at]])}: negative "
                "list length")
        #: start of every list argument in ``lists``, in value order, and
        #: per pool entry the number of list arguments before it
        self.list_start = _offsets(lengths)
        self.list_before = _offsets(is_list)
        check_pool(n_lists, np.diff(self.list_start[
            self.list_before[val_off[first]]]),
            "list pool holds {} entries, the list lengths sum to {}")
        self.codec: Dict[int, CallEvent] = {}
        if n_codec.any():
            events = [event for part in parts for _b, event in part.codec]
            at = np.repeat(first[:-1], n_codec) + np.array(
                [b for before in befores for b in before], dtype=np.int64)
            seq = np.insert(seq, at, [event.seq for event in events])
            loc = np.insert(loc, at, -1)
            shape = np.insert(shape, at, nshapes)
            val_off = _offsets(width[shape])
            self.codec = dict(zip(np.nonzero(shape == nshapes)[0].tolist(),
                                  events))
        self.n = len(seq)
        self.offsets = _offsets(rows + n_codec)
        self.ranks = np.repeat(np.array(self.rank_ids, dtype=np.int64),
                               rows + n_codec)
        self.seq, self.loc, self.shape = seq, loc, shape
        self.vals, self.lists = vals, lists
        #: ``vals[val_off[k]:val_off[k + 1]]`` are row ``k``'s values
        self.val_off = val_off
        #: the events built, by row of the stack — shared with its views,
        #: whose first row in the stack is ``_first``
        self._events: Dict[int, CallEvent] = {}
        self._first = 0
        #: per shape: fn, keys, string positions, list positions
        self._decoders: Optional[list] = None

    def view(self, k: int) -> "CallColumns":
        """The rows of rank ``rank_ids[k]``, sliced: the pools and the
        events built are the stack's (``val_off`` still indexes them),
        nothing is copied."""
        lo, hi = int(self.offsets[k]), int(self.offsets[k + 1])
        view = object.__new__(CallColumns)
        view.__dict__.update(
            self.__dict__, n=hi - lo, _first=self._first + lo,
            rank=self.rank_ids[k], rank_ids=self.rank_ids[k:k + 1],
            offsets=np.array([0, hi - lo]), val_off=self.val_off[lo:hi + 1],
            string_base=self.string_base[k:k + 2],
            codec={row - lo: event for row, event in self.codec.items()
                   if lo <= row < hi},
            **{name: getattr(self, name)[lo:hi]
               for name in ("seq", "loc", "shape", "ranks")})
        return view

    # -- content, for a digest -----------------------------------------

    @staticmethod
    def _digests(texts: Iterable[str]) -> np.ndarray:
        """``(len(texts) + 1, 32)`` bytes: row ``i`` is the SHA-256 of
        ``texts[i]``, the last row zeros — what stands for a table id in
        content that must not depend on the table (an id of ``-1`` or
        one past the table, which names no entry, reads the zero row)."""
        rows = [hashlib.sha256(text.encode("utf-8")).digest()
                for text in texts]
        return np.frombuffer(b"".join(rows) + bytes(32),
                             dtype=np.uint8).reshape(-1, 32)

    def content_ranges(self, first: np.ndarray, last: np.ndarray
                       ) -> List[Tuple[Any, np.ndarray, np.ndarray]]:
        """What the row spans ``[first[k], last[k])`` hold, as
        ``(buffer, starts, ends)`` byte ranges for
        :func:`~repro.util.hashing.hash_ranges` — with no table id in
        them, so a span reads the same whatever else the rank's tables
        hold.  A row is its ``seq`` and the digests of its shape and
        location; its arguments are its span of the value pool (string
        ids zeroed, the strings' digests in a part of their own) and of
        the list pool.  A codec row reads as zeros there and as the
        ``repr`` of its event here: ints, strings and tuples of them
        parse back to what they were made from, so two different spans
        never share bytes.  Only this view's rank's strings and span of
        the value pool are read."""
        s0, s1 = int(self.string_base[0]), int(self.string_base[-1])
        names = self._digests(self.table.strings[s0:s1])
        rows = np.empty(self.n, dtype=[("seq", "<i8"), ("shape", "u1", 32),
                                       ("loc", "u1", 32)])
        rows["seq"] = self.seq
        rows["loc"] = names[np.where(self.loc < 0, s1 - s0, self.loc - s0)]
        rows["shape"] = self._digests(map(repr, self.shapes))[self.shape]
        v0, v1 = int(self.val_off[0]), int(self.val_off[-1])
        is_str, pool = self.is_str[v0:v1], self.vals[v0:v1]
        vals, string_at = self.val_off - v0, _offsets(is_str)
        codec = sorted(self.codec.items())
        texts = [repr((e.seq, e.fn, e.args, e.loc.filename, e.loc.lineno,
                       e.loc.function)).encode("utf-8") for _k, e in codec]
        text_at = _offsets(np.array([len(text) for text in texts], dtype=int))
        codec_rows = np.array([k for k, _e in codec], dtype=np.int64)

        def part(column: np.ndarray, width: int, starts, ends) -> tuple:
            return column.reshape(-1).view(np.uint8), starts * width, \
                ends * width
        return [
            part(rows, rows.itemsize, first, last),
            part(np.where(is_str, 0, pool), 8, vals[first], vals[last]),
            part(names[pool[is_str] - s0], 32, string_at[vals[first]],
                 string_at[vals[last]]),
            part(self.lists, 8,
                 self.list_start[self.list_before[vals[first] + v0]],
                 self.list_start[self.list_before[vals[last] + v0]]),
            (b"".join(texts), text_at[np.searchsorted(codec_rows, first)],
             text_at[np.searchsorted(codec_rows, last)])]

    # -- the lazy event sequence ---------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.take(np.arange(*k.indices(self.n)))
        if k < 0:
            k += self.n
        event = self._events.get(k + self._first)
        if event is None:
            if not 0 <= k < self.n:
                raise IndexError("call row out of range")
            event = self.take(np.array([k]))[0]
        return event

    def __iter__(self):
        return iter(self.take(np.arange(self.n)))

    def __getstate__(self) -> dict:
        return dict(self.__dict__, _events={}, _decoders=None)

    def take(self, rows: np.ndarray) -> List[CallEvent]:
        """The events of ``rows`` (ascending), built together and
        remembered, so a row is one object however often it is asked
        for."""
        events, first = self._events, self._first
        wanted = (rows + first).tolist()
        todo = [k for k in wanted if k not in events]
        if todo:
            self._build(rows if len(todo) == len(wanted)
                        else np.array(todo, dtype=np.int64) - first)
        return [events[k] for k in wanted]

    def _build(self, rows: np.ndarray) -> None:
        # one plain-list copy of the pool span the rows lie in, then
        # list slicing per row: a few array operations however many rows
        lo = self.val_off[rows]
        base, stop = int(lo[0]), int(self.val_off[rows[-1] + 1])
        values = self.vals[base:stop].tolist()
        if len(self.lists):
            first = self.list_start[self.list_before[lo]]
            list_base = int(first[0])
            elements = self.lists[list_base:int(self.list_start[
                self.list_before[stop]])].tolist()
            firsts = (first - list_base).tolist()
        else:
            elements, firsts = [], [0] * len(rows)
        if self._decoders is None:
            self._decoders = [
                (fn, keys,
                 tuple(i for i, k in enumerate(kinds) if k == KIND_STR),
                 tuple(i for i, k in enumerate(kinds) if k == KIND_LIST))
                for fn, keys, kinds in self.shapes]
        decoders, events, first = self._decoders, self._events, self._first
        strings, loc_of = self.table.strings, self.table.loc
        built = len(rows)
        for k, rank, seq, loc, shape, at, taken in zip(
                rows.tolist(), self.ranks[rows].tolist(),
                self.seq[rows].tolist(), self.loc[rows].tolist(),
                self.shape[rows].tolist(), (lo - base).tolist(), firsts):
            if shape == len(decoders):
                # decoded by the reader, not built here
                events[k + first] = self.codec[k]
                built -= 1
                continue
            fn, keys, str_pos, list_pos = decoders[shape]
            args = values[at:at + len(keys)]
            for i in str_pos:
                args[i] = strings[args[i]]
            for i in list_pos:
                args[i] = tuple(elements[taken:taken + args[i]])
                taken += len(args[i])
            event = _NEW_EVENT(CallEvent)
            event.__dict__ = {"rank": rank, "seq": seq, "fn": fn,
                              "args": dict(zip(keys, args)),
                              "loc": loc_of(loc)}
            events[k + first] = event
        obs.count("analyzer_views_built_total", built, kind="event",
                  help=BUILT_HELP)
