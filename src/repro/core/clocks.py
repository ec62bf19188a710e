"""Happens-before oracle: vector clocks over the synchronization graph.

Checking whether two trace events are concurrent is the innermost query of
both detection passes.  Rather than answering it with DAG reachability
(quadratic in trace length), DN-Analyzer assigns *vector clocks* to
synchronization events only:

* the sync events of each rank form a chain (program order);
* a collective match fuses its member events into one *unit* whose clock
  joins all members' histories (everything before the barrier at any
  member happens-before everything after it at any member);
* directed matches (send->recv, post->start, complete->wait) contribute a
  one-way edge.

For arbitrary events, ``a happens-before b`` iff the first sync at
``rank(a)`` at-or-after ``a`` is known to the last sync at ``rank(b)``
at-or-before ``b`` — two binary searches and one integer compare.

Nonblocking RMA operations are compared by their *spans*: an operation
issued at ``seq_i`` whose epoch closes at ``seq_c`` may touch memory at any
instant in between, so span ``[seq_i, seq_c]`` is ordered after another
access only if the access happens-before the issue, and before it only if
the close happens-before the access (section II-B's consistency order).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.matching import (
    ROLE_DST, ROLE_EXIT, ROLE_MEMBER, ROLE_SRC, MatchTable,
)
from repro.core.preprocess import PreprocessedTrace
from repro.util.errors import AnalysisError
from repro.util.intervals import expand_ranges, pair_order


@dataclass(frozen=True)
class Span:
    """The influence interval of an access: ``[start_seq, end_seq]`` at a rank.

    Point accesses (loads/stores) have ``start == end``; a nonblocking RMA
    operation spans issue to epoch close.
    """

    rank: int
    start_seq: int
    end_seq: int

    @classmethod
    def point(cls, rank: int, seq: int) -> "Span":
        return cls(rank, seq, seq)


def _cycle() -> AnalysisError:
    return AnalysisError(
        "synchronization graph contains a cycle — inconsistent trace")


class ConcurrencyOracle:
    """Vector-clock-based happens-before and concurrency queries."""

    def __init__(self, pre: PreprocessedTrace, matches: MatchTable):
        self.nranks = pre.nranks
        self._build(matches)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self, matches: MatchTable) -> None:
        """Assign the unit clocks, from the participant columns.

        One sort over (rank, seq) gives every rank's sync positions and
        the unit that owns each: a collective member's match, or a
        singleton minted per position, rank by rank.  The clock fixpoint
        batches work along *chains*: maximal paths of units with in/out
        degree one — the overwhelming shape of sync graphs, e.g. a fence
        loop is one chain of collective units — found by pointer
        jumping, and swept by ``np.maximum.accumulate``.  The condensed
        DAG of forks and joins between them is run one *wave* of ready
        paths at a time: their heads join their predecessors' clocks,
        and one segmented accumulate sweeps all of the wave's paths.
        Clock *values* are the unique fixpoint of the constraints in the
        module docstring; ``tests/core/test_clocks.py`` checks the
        answers against Figure-4 DAG reachability
        (:mod:`repro.core.dag`), and against the per-path loop in
        ``tests/reference/clocks.py``.
        """
        n, m = self.nranks, matches
        coll = np.flatnonzero((m.kind == 0) & (m.counts(ROLE_MEMBER) > 0))
        n_coll = coll.size
        uid = np.full(len(m), -1, dtype=np.int64)
        uid[coll] = np.arange(n_coll)
        # sync positions, each owned by the last match (in match order)
        # that has a member there, else by a singleton
        order = pair_order(m.rank, m.seq)
        rank, seq = m.rank[order], m.seq[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (rank[1:] != rank[:-1]) | (seq[1:] != seq[:-1])
        part_pos = np.empty_like(order)
        part_pos[order] = np.cumsum(new) - 1
        pos_rank, pos_seq = rank[new], seq[new]
        unit = np.maximum.reduceat(np.where(
            m.role[order] == ROLE_MEMBER, uid[m.match[order]], -1),
            np.flatnonzero(new)) if order.size else order
        nb = unit >= 0
        nb[nb] = m.has_exits[coll[unit[nb]]]
        single = unit < 0
        unit[single] = n_coll + np.arange(int(single.sum()))
        n_units = n_coll + int(single.sum())
        lo = np.searchsorted(pos_rank, np.arange(n + 1))
        local = np.arange(pos_rank.size) - lo[pos_rank]
        # the nearest at-or-before non-initiation position, rank-local
        skip = np.maximum.accumulate(np.where(nb, lo[pos_rank] - 1,
                                              np.arange(pos_rank.size))) \
            - lo[pos_rank] if pos_rank.size else local

        # edges: program order, directed pairs, collective -> exit
        src, dst = m.end(ROLE_SRC), m.end(ROLE_DST)
        both = (src >= 0) & (dst >= 0)
        exits = np.flatnonzero(m.role == ROLE_EXIT)
        chained = pos_rank[1:] == pos_rank[:-1]
        e_u = np.concatenate([unit[:-1][chained],
                              unit[part_pos[src[both]]],
                              uid[m.match[exits]]])
        e_v = np.concatenate([unit[1:][chained],
                              unit[part_pos[dst[both]]],
                              unit[part_pos[exits]]])
        keep = e_u != e_v
        e_u, e_v = e_u[keep], e_v[keep]
        if e_u.size:
            _, first = np.unique(e_u * n_units + e_v, return_index=True)
            e_u, e_v = e_u[first], e_v[first]

        # per-unit own entries (sync position + 1 at the owning rank)
        clocks = np.zeros((n_units, n), dtype=np.int64)
        clocks[unit, pos_rank] = local + 1

        # chain condensation: an edge u->v with outdeg(u)==indeg(v)==1
        # is interior to a path; paths are vertex-disjoint, every other
        # edge ends at a path's head.  Pointer jumping ranks each unit
        # on its path (a pure chain cycle never reaches a head).
        chain = (np.bincount(e_u, minlength=n_units)[e_u] == 1) \
            & (np.bincount(e_v, minlength=n_units)[e_v] == 1)
        ids = np.arange(n_units)
        root = ids.copy()
        root[e_v[chain]] = e_u[chain]
        is_head = root == ids
        depth = (~is_head).astype(np.int64)
        for _ in range(n_units.bit_length() + 1):
            up = root[root]
            if np.array_equal(up, root):
                break
            depth += depth[root]
            root = up
        if not is_head[root].all():
            raise _cycle()
        path_of = (np.cumsum(is_head) - 1)[root]
        n_paths = int(is_head.sum())

        # the condensed DAG over paths, in waves: wave k holds the paths
        # whose longest chain of predecessors is k long (Kahn's order)
        nc_u, nc_v = e_u[~chain], e_v[~chain]
        src_path, dst_path = path_of[nc_u], path_of[nc_v]
        by_src = np.argsort(src_path, kind="stable")
        out_dst = dst_path[by_src]
        out_off = np.searchsorted(src_path[by_src], np.arange(n_paths + 1))
        waiting = np.bincount(dst_path, minlength=n_paths)
        level = np.zeros(n_paths, dtype=np.int64)
        wave = np.flatnonzero(waiting == 0)
        done = n_levels = 0
        while wave.size:
            done += wave.size
            level[wave] = n_levels
            n_levels += 1
            _, at = expand_ranges(out_off[wave],
                                  out_off[wave + 1] - out_off[wave])
            ready, hits = np.unique(out_dst[at], return_counts=True)
            waiting[ready] -= hits
            wave = ready[waiting[ready] == 0]
        if done != n_paths:
            raise _cycle()

        # wave by wave: the heads join their external predecessors, and
        # one accumulate, segmented by a per-path lift, sweeps every path
        by_dst = np.lexsort((nc_v, level[dst_path]))
        in_src, in_head = nc_u[by_dst], nc_v[by_dst]
        in_off = np.searchsorted(level[dst_path][by_dst],
                                 np.arange(n_levels + 1))
        joins = np.flatnonzero(np.diff(in_head, prepend=-1))
        join_off = np.searchsorted(joins, in_off)
        units = np.lexsort((depth, path_of, level[path_of]))
        unit_off = np.searchsorted(level[path_of][units],
                                   np.arange(n_levels + 1))
        # a clock never exceeds the largest own entry
        lift = (path_of[units] * (int(clocks.max(initial=0)) + 1))[:, None]
        for k in range(n_levels):
            first = joins[join_off[k]:join_off[k + 1]]
            if first.size:
                heads = in_head[first]
                clocks[heads] = np.maximum(clocks[heads], np.maximum.reduceat(
                    clocks[in_src[in_off[k]:in_off[k + 1]]],
                    first - in_off[k], axis=0))
            at = slice(unit_off[k], unit_off[k + 1])
            if unit_off[k + 1] - unit_off[k] > 1:
                clocks[units[at]] = np.maximum.accumulate(
                    clocks[units[at]] + lift[at], axis=0) - lift[at]

        cut = lo[1:-1]
        self._sync_np = np.split(pos_seq, cut)
        self.sync_seqs = [a.tolist() for a in self._sync_np]
        self._unit_at = np.split(unit, cut)
        self._coll_at = np.split(unit < n_coll, cut)
        self._nb_skip = np.split(skip, cut)
        self._clocks = clocks

    # ------------------------------------------------------------------
    # serialization (the compact worker-shippable form)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Compact picklable state: the per-rank lookup arrays and the
        unit-clock matrix — every query reads only these."""
        return {
            "nranks": self.nranks,
            "sync": self._sync_np,
            "unit_at": self._unit_at,
            "coll_at": self._coll_at,
            "nb_skip": self._nb_skip,
            "clocks": self._clocks,
        }

    def __setstate__(self, state: dict) -> None:
        self.nranks = state["nranks"]
        self._sync_np = state["sync"]
        self.sync_seqs = [a.tolist() for a in state["sync"]]
        self._unit_at = state["unit_at"]
        self._coll_at = state["coll_at"]
        self._nb_skip = state["nb_skip"]
        self._clocks = state["clocks"]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _visible_unit(self, b_rank: int, b_seq: int) -> int:
        """The unit whose clock is visible at ``(b_rank, b_seq)``, or -1.

        The last sync at ``b_rank`` at-or-before ``b_seq``.  If that sync
        *is* a collective member call, the collective's join becomes
        visible only after it (its call vertex only feeds the synthetic
        sync node), so step back to the previous sync; a directed
        destination (recv, start, wait) does receive its incoming edge at
        the call itself.  Nonblocking-collective initiations carry no
        incoming knowledge (the join lands at their Wait), so step past
        them too.
        """
        b_syncs = self.sync_seqs[b_rank]
        j = bisect_right(b_syncs, b_seq) - 1
        if j >= 0 and b_syncs[j] == b_seq and self._coll_at[b_rank][j]:
            j -= 1
        if j >= 0:  # nearest at-or-before non-initiation position
            j = int(self._nb_skip[b_rank][j])
        if j < 0:
            return -1  # b's rank has not synchronized yet
        return int(self._unit_at[b_rank][j])

    def happens_before(self, a_rank: int, a_seq: int, b_rank: int,
                       b_seq: int) -> bool:
        """True iff the event at ``(a_rank, a_seq)`` happens-before (or is
        program-order-before) the event at ``(b_rank, b_seq)``."""
        if a_rank == b_rank:
            return a_seq <= b_seq
        # first sync at a_rank at-or-after a
        a_syncs = self.sync_seqs[a_rank]
        i = bisect_left(a_syncs, a_seq)
        if i >= len(a_syncs):
            return False  # a's rank never synchronizes again
        b_unit = self._visible_unit(b_rank, b_seq)
        if b_unit < 0:
            return False
        return bool(self._clocks[b_unit][a_rank] >= i + 1)

    def ordered(self, a: Span, b: Span) -> bool:
        """True iff the spans are ordered (either direction) by
        happens-before + consistency order."""
        if a.rank == b.rank:
            return a.end_seq <= b.start_seq or b.end_seq <= a.start_seq
        return (self.happens_before(a.rank, a.end_seq, b.rank, b.start_seq)
                or self.happens_before(b.rank, b.end_seq, a.rank,
                                       a.start_seq))

    def concurrent(self, a: Span, b: Span) -> bool:
        return not self.ordered(a, b)

    # ------------------------------------------------------------------
    # batched queries
    # ------------------------------------------------------------------

    def _hb_many_to_one(self, a_ranks: np.ndarray, a_seqs: np.ndarray,
                        b_rank: int, b_seq: int) -> np.ndarray:
        """Vectorized ``happens_before(a_ranks[k], a_seqs[k], b, b)``;
        callers guarantee ``a_ranks[k] != b_rank``."""
        out = np.zeros(len(a_ranks), dtype=bool)
        b_unit = self._visible_unit(b_rank, b_seq)
        if b_unit < 0:
            return out
        row = self._clocks[b_unit]
        for r in np.unique(a_ranks):
            m = a_ranks == r
            sync = self._sync_np[r]
            i = np.searchsorted(sync, a_seqs[m], side="left")
            out[m] = (i < len(sync)) & (row[r] >= i + 1)
        return out

    def _hb_one_to_many(self, a_rank: int, a_seq: int, b_ranks: np.ndarray,
                        b_seqs: np.ndarray) -> np.ndarray:
        """Vectorized ``happens_before(a, a, b_ranks[k], b_seqs[k])``;
        callers guarantee ``b_ranks[k] != a_rank``."""
        out = np.zeros(len(b_ranks), dtype=bool)
        a_syncs = self.sync_seqs[a_rank]
        i = bisect_left(a_syncs, a_seq)
        if i >= len(a_syncs):
            return out
        for r in np.unique(b_ranks):
            m = b_ranks == r
            sync = self._sync_np[r]
            if not len(sync):
                continue
            seqs = b_seqs[m]
            # the vectorized form of _visible_unit
            j = np.searchsorted(sync, seqs, side="right") - 1
            j_safe = np.maximum(j, 0)
            exact_coll = (j >= 0) & (sync[j_safe] == seqs) \
                & self._coll_at[r][j_safe]
            j = np.where(exact_coll, j - 1, j)
            j_safe = np.maximum(j, 0)
            j = np.where(j >= 0, self._nb_skip[r][j_safe], -1)
            valid = j >= 0
            res = np.zeros(len(seqs), dtype=bool)
            if valid.any():
                units = self._unit_at[r][j[valid]]
                res[valid] = self._clocks[units, a_rank] >= i + 1
            out[m] = res
        return out

    def ordered_batch(self, ranks: Sequence[int], starts: Sequence[int],
                      ends: Sequence[int], b: Span) -> np.ndarray:
        """Vectorized :meth:`ordered` of many spans against one.

        ``ranks``/``starts``/``ends`` are parallel arrays describing spans
        ``Span(ranks[k], starts[k], ends[k])``; the result is a boolean
        mask with ``mask[k] == ordered(spans[k], b)``.  One call replaces
        the per-pair Python queries of a detection inner loop.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        out = np.empty(len(ranks), dtype=bool)
        same = ranks == b.rank
        if same.any():
            out[same] = (ends[same] <= b.start_seq) \
                | (b.end_seq <= starts[same])
        diff = ~same
        if diff.any():
            out[diff] = self._hb_many_to_one(
                ranks[diff], ends[diff], b.rank, b.start_seq) \
                | self._hb_one_to_many(
                    b.rank, b.end_seq, ranks[diff], starts[diff])
        return out

    def _hb_pairs(self, a_ranks: np.ndarray, a_seqs: np.ndarray,
                  b_ranks: np.ndarray, b_seqs: np.ndarray) -> np.ndarray:
        """Elementwise ``happens_before(a[k], b[k])`` over pair arrays;
        callers guarantee ``a_ranks[k] != b_ranks[k]``."""
        n = len(a_ranks)
        out = np.zeros(n, dtype=bool)
        # index of a's first sync at-or-after a_seq, grouped per a-rank
        sync_i = np.zeros(n, dtype=np.int64)
        a_has_sync = np.zeros(n, dtype=bool)
        for r in np.unique(a_ranks):
            m = a_ranks == r
            sync = self._sync_np[r]
            i = np.searchsorted(sync, a_seqs[m], side="left")
            sync_i[m] = i
            a_has_sync[m] = i < len(sync)
        # the unit visible at (b_rank, b_seq), grouped per b-rank (the
        # vectorized form of _visible_unit, as in _hb_one_to_many)
        unit = np.full(n, -1, dtype=np.int64)
        for r in np.unique(b_ranks):
            m = b_ranks == r
            sync = self._sync_np[r]
            if not len(sync):
                continue
            seqs = b_seqs[m]
            j = np.searchsorted(sync, seqs, side="right") - 1
            j_safe = np.maximum(j, 0)
            exact_coll = (j >= 0) & (sync[j_safe] == seqs) \
                & self._coll_at[r][j_safe]
            j = np.where(exact_coll, j - 1, j)
            j_safe = np.maximum(j, 0)
            j = np.where(j >= 0, self._nb_skip[r][j_safe], -1)
            units = np.full(len(seqs), -1, dtype=np.int64)
            valid = j >= 0
            if valid.any():
                units[valid] = self._unit_at[r][j[valid]]
            unit[m] = units
        ok = a_has_sync & (unit >= 0)
        if ok.any():
            out[ok] = self._clocks[unit[ok], a_ranks[ok]] >= sync_i[ok] + 1
        return out

    def ordered_pairs(self, a_ranks: Sequence[int], a_starts: Sequence[int],
                      a_ends: Sequence[int], b_ranks: Sequence[int],
                      b_starts: Sequence[int], b_ends: Sequence[int]
                      ) -> np.ndarray:
        """Vectorized :meth:`ordered` over parallel pair arrays:
        ``mask[k] == ordered(Span(a...[k]), Span(b...[k]))``.

        Where :meth:`ordered_batch` compares many spans against one fixed
        span (one call per inner-loop *group*), this batches over both
        sides at once, so a detection pass needs a single oracle query
        for *all* its candidate pairs."""
        a_ranks = np.asarray(a_ranks, dtype=np.int64)
        a_starts = np.asarray(a_starts, dtype=np.int64)
        a_ends = np.asarray(a_ends, dtype=np.int64)
        b_ranks = np.asarray(b_ranks, dtype=np.int64)
        b_starts = np.asarray(b_starts, dtype=np.int64)
        b_ends = np.asarray(b_ends, dtype=np.int64)
        out = np.empty(len(a_ranks), dtype=bool)
        same = a_ranks == b_ranks
        if same.any():
            out[same] = (a_ends[same] <= b_starts[same]) \
                | (b_ends[same] <= a_starts[same])
        diff = ~same
        if diff.any():
            out[diff] = self._hb_pairs(
                a_ranks[diff], a_ends[diff], b_ranks[diff],
                b_starts[diff]) \
                | self._hb_pairs(
                    b_ranks[diff], b_ends[diff], a_ranks[diff],
                    a_starts[diff])
        return out

    def ordered_spans(self, spans: Sequence[Span], b: Span) -> np.ndarray:
        """:meth:`ordered_batch` convenience over :class:`Span` objects."""
        n = len(spans)
        ranks = np.fromiter((s.rank for s in spans), dtype=np.int64, count=n)
        starts = np.fromiter((s.start_seq for s in spans), dtype=np.int64,
                             count=n)
        ends = np.fromiter((s.end_seq for s in spans), dtype=np.int64,
                           count=n)
        return self.ordered_batch(ranks, starts, ends, b)
