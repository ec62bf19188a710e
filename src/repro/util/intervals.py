"""Byte-interval algebra.

All overlap reasoning in MC-Checker — "do these two accesses touch the same
memory?" — reduces to half-open byte intervals ``[start, stop)`` over a
per-rank virtual address space.  Derived MPI datatypes lower to *data-maps*
(lists of ``(displacement, length)`` segments, section IV-C-1c of the
paper); applying a data-map ``count`` times at a base address yields an
:class:`IntervalSet`, and two accesses conflict on memory iff their interval
sets intersect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open byte range ``[start, stop)``; empty iff ``start >= stop``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"interval stop {self.stop} < start {self.start}")

    def __len__(self) -> int:
        return self.stop - self.start

    def is_empty(self) -> bool:
        return self.stop <= self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.stop and other.start < self.stop

    def intersection(self, other: "Interval") -> "Interval":
        start = max(self.start, other.start)
        stop = min(self.stop, other.stop)
        return Interval(start, max(start, stop))

    def contains(self, other: "Interval") -> bool:
        return self.start <= other.start and other.stop <= self.stop

    def shift(self, offset: int) -> "Interval":
        return Interval(self.start + offset, self.stop + offset)


class IntervalSet:
    """A normalized (sorted, disjoint, coalesced) set of byte intervals.

    Supports the operations DN-Analyzer needs: overlap test, intersection,
    union, and total byte count.  Normalization keeps every query
    ``O(n + m)`` by merge-walking the two sorted lists.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._ivs: List[Interval] = _normalize(intervals)

    @classmethod
    def single(cls, start: int, length: int) -> "IntervalSet":
        return cls([Interval(start, start + length)]) if length > 0 else cls()

    @property
    def intervals(self) -> Sequence[Interval]:
        return tuple(self._ivs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(tuple(self._ivs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"[{iv.start},{iv.stop})" for iv in self._ivs)
        return f"IntervalSet({body})"

    def byte_count(self) -> int:
        return sum(len(iv) for iv in self._ivs)

    def bounds(self) -> Interval:
        """The tight covering interval (empty set -> empty interval at 0)."""
        if not self._ivs:
            return Interval(0, 0)
        return Interval(self._ivs[0].start, self._ivs[-1].stop)

    def shift(self, offset: int) -> "IntervalSet":
        shifted = IntervalSet.__new__(IntervalSet)
        shifted._ivs = [iv.shift(offset) for iv in self._ivs]
        return shifted

    def overlaps(self, other: "IntervalSet") -> bool:
        """True iff any byte is in both sets; linear merge walk."""
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i].overlaps(b[j]):
                return True
            if a[i].stop <= b[j].stop:
                i += 1
            else:
                j += 1
        return False

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._ivs, other._ivs
        out: List[Interval] = []
        i = j = 0
        while i < len(a) and j < len(b):
            cut = a[i].intersection(b[j])
            if not cut.is_empty():
                out.append(cut)
            if a[i].stop <= b[j].stop:
                i += 1
            else:
                j += 1
        result = IntervalSet.__new__(IntervalSet)
        result._ivs = out
        return result

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self._ivs) + list(other._ivs))

    def contains_point(self, addr: int) -> bool:
        lo, hi = 0, len(self._ivs)
        while lo < hi:
            mid = (lo + hi) // 2
            iv = self._ivs[mid]
            if addr < iv.start:
                hi = mid
            elif addr >= iv.stop:
                lo = mid + 1
            else:
                return True
        return False


def _normalize(intervals: Iterable[Interval]) -> List[Interval]:
    ivs = sorted(iv for iv in intervals if not iv.is_empty())
    out: List[Interval] = []
    for iv in ivs:
        if out and iv.start <= out[-1].stop:
            if iv.stop > out[-1].stop:
                out[-1] = Interval(out[-1].start, iv.stop)
        else:
            out.append(iv)
    return out


def datamap_intervals(
    base: int, datamap: Sequence[Tuple[int, int]], count: int, extent: int
) -> IntervalSet:
    """Apply a datatype data-map ``count`` times starting at ``base``.

    ``datamap`` is the list of ``(displacement, length)`` segments of one
    datatype instance and ``extent`` is the datatype extent (stride between
    consecutive instances), exactly the representation of section IV-C-1c:
    ``MPI_INT`` is ``[(0, 4)]`` with extent 4; two ints separated by an
    8-byte gap are ``[(0, 4), (12, 4)]`` with extent 16.

    The one placement function of the simulator and the analyzer, by
    shape: a contiguous type is one interval in O(1), a single-block
    vector needs no sort, a sorted map coalesces as it goes, and only an
    unsorted one is normalised by sorting.
    """
    if count < 0:
        raise ValueError(f"negative count {count}")
    if count > 0 and len(datamap) == 1:
        # fast paths for the overwhelmingly common shapes: a primitive or
        # contiguous type tiles into ONE interval; a vector type's blocks
        # are already sorted and disjoint, so normalization is a no-op
        disp, length = datamap[0]
        if length > 0:
            start = base + disp
            result = IntervalSet.__new__(IntervalSet)
            if length == extent:
                result._ivs = [Interval(start, start + count * length)]
                return result
            if length < extent:
                result._ivs = [
                    Interval(start + rep * extent, start + rep * extent + length)
                    for rep in range(count)]
                return result
    # general path: nearly every data-map is sorted and its repetitions
    # don't run backwards, so segments arrive in address order and
    # coalesce on the fly straight into normal form; the first segment
    # that starts before the run being built sends the whole placement
    # through the sorting constructor instead
    ivs: List[Interval] = []
    cur_start = cur_stop = None
    for rep in range(count):
        origin = base + rep * extent
        for disp, length in datamap:
            if length <= 0:
                continue
            start = origin + disp
            if cur_start is None:
                cur_start, cur_stop = start, start + length
            elif start > cur_stop:
                ivs.append(Interval(cur_start, cur_stop))
                cur_start, cur_stop = start, start + length
            elif start >= cur_start:
                if start + length > cur_stop:
                    cur_stop = start + length
            else:
                return IntervalSet(
                    Interval(base + rep * extent + disp,
                             base + rep * extent + disp + length)
                    for rep in range(count) for disp, length in datamap
                    if length > 0)
    if cur_start is not None:
        ivs.append(Interval(cur_start, cur_stop))
    result = IntervalSet.__new__(IntervalSet)
    result._ivs = ivs
    return result


# ----------------------------------------------------------------------
# Vectorized batch API: interval *tables* and the sweep join
# ----------------------------------------------------------------------


class IntervalTable:
    """A column-oriented batch of intervals: ``(lo, hi, owner)`` arrays.

    Each row is one half-open byte range ``[lo, hi)`` belonging to
    ``owner`` (an arbitrary integer id — typically the index of the
    access the interval came from; several rows may share an owner when
    an access touches a multi-segment :class:`IntervalSet`).  Empty rows
    (``lo >= hi``) are dropped at construction, matching
    :class:`IntervalSet` normalization, so a join can never pair them.

    The optional non-negative integer ``group`` column partitions the
    rows: :func:`overlap_join` pairs rows only within equal groups, so
    many small independent joins (one per epoch, per ``(window,
    target)`` entry, ...) run as *one* join.  A table without the column
    is all group 0.
    """

    __slots__ = ("lo", "hi", "owner", "group")

    def __init__(self, lo, hi, owner: Optional[Sequence[int]] = None,
                 group: Optional[Sequence[int]] = None):
        lo = np.asarray(lo, dtype=np.int64).ravel()
        hi = np.asarray(hi, dtype=np.int64).ravel()
        if len(lo) != len(hi):
            raise ValueError(f"lo/hi length mismatch: {len(lo)} vs {len(hi)}")
        owner = self._column(owner, len(lo), "owner")
        if owner is None:
            owner = np.arange(len(lo), dtype=np.int64)
        group = self._column(group, len(lo), "group")
        if group is not None and len(group) and group.min() < 0:
            raise ValueError("negative group id")
        keep = lo < hi
        if not keep.all():
            lo, hi, owner = lo[keep], hi[keep], owner[keep]
            if group is not None:
                group = group[keep]
        self.lo, self.hi, self.owner, self.group = lo, hi, owner, group

    @staticmethod
    def _column(values, n: int, name: str) -> Optional[np.ndarray]:
        if values is None:
            return None
        values = np.asarray(values, dtype=np.int64).ravel()
        if len(values) != n:
            raise ValueError(f"{name} length mismatch: {len(values)} vs {n}")
        return values

    @classmethod
    def from_columns(cls, addr, size, owner: Optional[Sequence[int]] = None,
                     group: Optional[Sequence[int]] = None
                     ) -> "IntervalTable":
        """Build from parallel ``(addr, size)`` columns (one row each).

        ``addr + size`` must not wrap: callers validate their columns
        (``addr >= 0``, ``size >= 0``, ``addr <= INT64_MAX - size``)
        where they are read, because a wrapped row would be dropped
        here as empty and silently conflict with nothing."""
        addr = np.asarray(addr, dtype=np.int64).ravel()
        size = np.asarray(size, dtype=np.int64).ravel()
        return cls(addr, addr + size, owner, group)

    @classmethod
    def from_sets(cls, sets: Sequence[IntervalSet],
                  owners: Optional[Sequence[int]] = None,
                  groups: Optional[Sequence[int]] = None) -> "IntervalTable":
        """Flatten interval sets into rows; set ``i`` owns its rows (or
        ``owners[i]`` when given) and puts them in ``groups[i]``."""
        lo: List[int] = []
        hi: List[int] = []
        index: List[int] = []
        for i, ivset in enumerate(sets):
            for iv in ivset:
                lo.append(iv.start)
                hi.append(iv.stop)
                index.append(i)
        index = np.asarray(index, dtype=np.int64)

        def per_row(per_set):
            if per_set is None:
                return None
            return np.asarray(per_set, dtype=np.int64)[index]

        return cls(lo, hi, index if owners is None else per_row(owners),
                   per_row(groups))

    @classmethod
    def concat(cls, tables: Sequence["IntervalTable"]) -> "IntervalTable":
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls((), ())
        if len(tables) == 1:
            return tables[0]
        group = None
        if any(t.group is not None for t in tables):
            group = np.concatenate([t.groups() for t in tables])
        return cls(np.concatenate([t.lo for t in tables]),
                   np.concatenate([t.hi for t in tables]),
                   np.concatenate([t.owner for t in tables]), group)

    def groups(self) -> np.ndarray:
        """The group column, materialized (all zeros when absent)."""
        if self.group is None:
            return np.zeros(len(self.lo), dtype=np.int64)
        return self.group

    def __len__(self) -> int:
        return len(self.lo)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntervalTable({len(self)} rows)"


def expand_ranges(starts: np.ndarray,
                  counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate ``(i, starts[i] + k)`` for ``k in range(counts[i])``."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    reps = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts,
                                                           counts)
    return reps, np.repeat(starts, counts) + offsets


def group_ids(*columns: np.ndarray) -> np.ndarray:
    """Dense ids of the rows' tuples ``(columns[0][k], columns[1][k],
    ...)``: equal tuples share an id, and ids ascend in lexicographic
    tuple order.  Sort-based, so any int64 values do (no composite key
    that could wrap)."""
    n = len(columns[0])
    ids = np.zeros(n, dtype=np.int64)
    if n:
        order = np.lexsort(columns[::-1])
        changed = np.zeros(n, dtype=bool)
        for column in columns:
            column = column[order]
            changed[1:] |= column[1:] != column[:-1]
        ids[order] = np.cumsum(changed)
    return ids


_INT63 = 1 << 63


def _grouped_keys(group: np.ndarray, value: np.ndarray,
                  *more: np.ndarray) -> Optional[Tuple[np.ndarray, ...]]:
    """One int64 per row that orders ``(group, value)`` pairs — ``group *
    span + (value - low)``, ``span`` covering ``value`` and the value
    arrays in ``more`` (whose keys follow, pairwise) — or ``None`` when
    ``(max group + 1) * span`` would leave int63."""
    values = (value,) + more[1::2]
    low = min(int(v.min()) for v in values if v.size)
    span = max(int(v.max()) for v in values if v.size) - low + 1
    top = max(int(g.max()) for g in (group,) + more[::2] if g.size)
    if (top + 1) * span >= _INT63:
        return None
    return tuple(g.astype(np.int64) * span + (v.astype(np.int64) - low)
                 for g, v in zip((group,) + more[::2], values))


def grouped_searchsorted(group: np.ndarray, value: np.ndarray,
                         q_group: np.ndarray, q_value: np.ndarray,
                         side: str = "left") -> np.ndarray:
    """``np.searchsorted`` within groups: the rows ``(group, value)`` are
    sorted lexicographically, groups being small non-negative ints, and
    each query gets the position in that order at which ``(q_group,
    q_value)`` would be inserted.  One composite key per row
    (:func:`_grouped_keys`); where that would not fit, values are first
    replaced by their dense ranks."""
    if not value.size or not q_value.size:
        return np.zeros(q_value.size, dtype=np.intp)
    keys = _grouped_keys(group, value, q_group, q_value)
    if keys is None:
        coords = np.unique(np.concatenate([value, q_value]))
        keys = _grouped_keys(group, np.searchsorted(coords, value),
                             q_group, np.searchsorted(coords, q_value))
    return np.searchsorted(*keys, side=side)


def pair_order(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """An order of the rows by ``(group, value)`` (small non-negative
    groups; equal pairs in any order): one composite key where it fits
    (:func:`_grouped_keys`), else a lexsort."""
    if not value.size:
        return np.zeros(0, dtype=np.intp)
    keys = _grouped_keys(group, value)
    return np.lexsort((value, group)) if keys is None else np.argsort(keys[0])


def unique_pairs(oa: np.ndarray,
                 ob: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(oa[k], ob[k])`` pairs, lexicographically sorted.

    One ``np.unique`` over the composite key ``oa * width + ob`` (4-6x
    cheaper than a row-wise unique of the stacked pairs at every size);
    falls back to the row-wise form only when the key would not fit."""
    if not len(oa):
        return oa, ob
    a0, b0 = int(oa.min()), int(ob.min())
    width = int(ob.max()) - b0 + 1
    if (int(oa.max()) - a0 + 1) * width < _INT63:
        keys = np.unique((oa - a0) * width + (ob - b0))
        return keys // width + a0, keys % width + b0
    pairs = np.unique(np.stack([oa, ob], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def _group_keys(a: IntervalTable, b: IntervalTable):
    """Sort keys ``(a_lo, a_hi, b_lo, b_hi)`` under which only rows of
    equal group can overlap.

    Each group is shifted into its own disjoint key range, ``group *
    stride + (addr - addr_min)`` with ``stride`` the joint address span:
    within a group every comparison is unchanged (one constant added to
    both sides), and across groups a smaller group's largest ``hi`` is
    at most the next group's smallest ``lo`` — half-open, so no overlap.
    When ``n_groups * stride`` would leave int63, addresses and groups
    are first remapped to dense ranks (order- and equality-preserving,
    so again every comparison is unchanged), which bounds the product
    by ``2 * (len(a) + len(b)) ** 2``.
    """
    a_lo, a_hi, b_lo, b_hi = a.lo, a.hi, b.lo, b.hi
    if a.group is None and b.group is None:
        return a_lo, a_hi, b_lo, b_hi
    ga, gb = a.groups(), b.groups()
    base = min(int(a_lo.min()), int(b_lo.min()))
    stride = max(int(a_hi.max()), int(b_hi.max())) - base
    if (max(int(ga.max()), int(gb.max())) + 1) * stride >= _INT63:
        coords = np.unique(np.concatenate([a_lo, a_hi, b_lo, b_hi]))
        a_lo, a_hi, b_lo, b_hi = (np.searchsorted(coords, col)
                                  for col in (a_lo, a_hi, b_lo, b_hi))
        ids = np.unique(np.concatenate([ga, gb]))
        ga, gb = np.searchsorted(ids, ga), np.searchsorted(ids, gb)
        base, stride = 0, len(coords)
    shift_a, shift_b = ga * stride - base, gb * stride - base
    return a_lo + shift_a, a_hi + shift_a, b_lo + shift_b, b_hi + shift_b


def overlap_join(a: IntervalTable,
                 b: IntervalTable) -> Tuple[np.ndarray, np.ndarray]:
    """All distinct owner pairs ``(a.owner, b.owner)`` whose rows share a
    group and overlap in bytes.

    The sweep: sort each side by ``lo`` once, then split every
    overlapping row pair into two disjoint cases —

    * ``b.lo`` starts inside ``a``  (``a.lo <= b.lo < a.hi``), a
      contiguous run of the ``b`` rows sorted by ``lo``;
    * ``a.lo`` starts strictly inside ``b``  (``b.lo < a.lo < b.hi``), a
      contiguous run of the ``a`` rows sorted by ``lo``

    — each enumerated with two ``searchsorted`` calls per row, so the
    cost is ``O((n + m) log(n + m) + output)`` and *only candidate pairs*
    are ever materialized.  Groups ride the same sweep through the key
    shift of :func:`_group_keys`.  Returned pairs are deduplicated across
    multi-segment owners and lexicographically sorted, which makes every
    downstream consumer order-deterministic.
    """
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    a_lo, a_hi, b_lo, b_hi = _group_keys(a, b)
    a_order = np.argsort(a_lo, kind="stable")
    b_order = np.argsort(b_lo, kind="stable")
    a_lo_sorted = a_lo[a_order]
    b_lo_sorted = b_lo[b_order]

    # case 1: a.lo <= b.lo < a.hi
    first = np.searchsorted(b_lo_sorted, a_lo, side="left")
    last = np.searchsorted(b_lo_sorted, a_hi, side="left")
    rows_a, sorted_b = expand_ranges(first, last - first)
    oa1 = a.owner[rows_a]
    ob1 = b.owner[b_order[sorted_b]]

    # case 2: b.lo < a.lo < b.hi
    first = np.searchsorted(a_lo_sorted, b_lo, side="right")
    last = np.searchsorted(a_lo_sorted, b_hi, side="left")
    rows_b, sorted_a = expand_ranges(first, np.maximum(last - first, 0))
    oa2 = a.owner[a_order[sorted_a]]
    ob2 = b.owner[rows_b]

    return unique_pairs(np.concatenate([oa1, oa2]),
                        np.concatenate([ob1, ob2]))


def naive_overlap_join(a: IntervalTable,
                       b: IntervalTable) -> Tuple[np.ndarray, np.ndarray]:
    """The O(n*m) reference join (differential tests, tiny inputs)."""
    empty = np.empty(0, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return empty, empty.copy()
    hit = (a.lo[:, None] < b.hi[None, :]) & (b.lo[None, :] < a.hi[:, None]) \
        & (a.groups()[:, None] == b.groups()[None, :])
    ai, bi = np.nonzero(hit)
    if not len(ai):
        return empty, empty.copy()
    return unique_pairs(a.owner[ai], b.owner[bi])
