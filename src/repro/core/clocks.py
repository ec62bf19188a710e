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
from typing import List, Sequence

import numpy as np

_EMPTY_I64 = np.empty(0, dtype=np.int64)

from repro.core.matching import KIND_COLLECTIVE, SyncMatch
from repro.core.preprocess import PreprocessedTrace
from repro.util.errors import AnalysisError


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


class ConcurrencyOracle:
    """Vector-clock-based happens-before and concurrency queries."""

    def __init__(self, pre: PreprocessedTrace, matches: Sequence[SyncMatch]):
        self.nranks = pre.nranks
        self._build(matches)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self, matches: Sequence[SyncMatch]) -> None:
        """Assign the unit clocks.

        Sync points, unit ids, and graph edges are assembled as numpy
        arrays (``np.unique`` dedups participants, ``searchsorted``
        looks points up), and the clock fixpoint batches work along
        *chains*: maximal paths of units with in/out degree one — the
        overwhelming shape of sync graphs, e.g. a fence loop is one
        chain of collective units — are condensed so one
        ``np.maximum.accumulate`` sweep propagates clocks down an entire
        chain, with the scalar Kahn loop left only for the condensed DAG
        of forks/joins.  Clock *values* are the unique fixpoint of the
        constraints in the module docstring (unit numbering is
        internal); ``tests/core/test_clocks.py`` checks the answers
        against Figure-4 DAG reachability (:mod:`repro.core.dag`).
        """
        n = self.nranks
        coll_s: List[List[int]] = [[] for _ in range(n)]
        coll_u: List[List[int]] = [[] for _ in range(n)]
        coll_nb: List[List[int]] = [[] for _ in range(n)]
        oth_s: List[List[int]] = [[] for _ in range(n)]
        exit_u: List[int] = []
        exit_r: List[int] = []
        exit_s: List[int] = []
        dir_sr: List[int] = []
        dir_ss: List[int] = []
        dir_dr: List[int] = []
        dir_ds: List[int] = []
        n_coll = 0
        for m in matches:
            if m.kind == KIND_COLLECTIVE:
                if not m.members:
                    continue
                uid = n_coll
                n_coll += 1
                nb = 1 if m.exits else 0
                for r, s in m.members.items():
                    coll_s[r].append(s)
                    coll_u[r].append(uid)
                    coll_nb[r].append(nb)
                for r, s in m.exits.items():
                    oth_s[r].append(s)
                    exit_u.append(uid)
                    exit_r.append(r)
                    exit_s.append(s)
            else:
                if m.src is not None:
                    oth_s[m.src[0]].append(m.src[1])
                if m.dst is not None:
                    oth_s[m.dst[0]].append(m.dst[1])
                if m.src is not None and m.dst is not None:
                    dir_sr.append(m.src[0])
                    dir_ss.append(m.src[1])
                    dir_dr.append(m.dst[0])
                    dir_ds.append(m.dst[1])

        # per-rank sorted unique sync positions + owning-unit arrays;
        # singleton units are minted per rank in position order
        sync_np: List[np.ndarray] = []
        unit_at: List[np.ndarray] = []
        coll_at: List[np.ndarray] = []
        nb_skip: List[np.ndarray] = []
        next_uid = n_coll
        for r in range(n):
            cs = np.asarray(coll_s[r], dtype=np.int64)
            alls = np.concatenate(
                [cs, np.asarray(oth_s[r], dtype=np.int64)])
            uniq = np.unique(alls)
            ua = np.full(uniq.size, -1, dtype=np.int64)
            nb = np.zeros(uniq.size, dtype=bool)
            if cs.size:
                pos = np.searchsorted(uniq, cs)
                ua[pos] = np.asarray(coll_u[r], dtype=np.int64)
                nb[pos] = np.asarray(coll_nb[r], dtype=bool)
            single = ua < 0
            cnt = int(single.sum())
            if cnt:
                ua[single] = np.arange(next_uid, next_uid + cnt)
                next_uid += cnt
            sync_np.append(uniq)
            unit_at.append(ua)
            coll_at.append(ua < n_coll)
            idx = np.arange(uniq.size, dtype=np.int64)
            nb_skip.append(np.maximum.accumulate(np.where(nb, -1, idx))
                           if uniq.size else idx)
        n_units = next_uid

        def lookup(ranks: List[int], seqs: List[int]) -> np.ndarray:
            rr = np.asarray(ranks, dtype=np.int64)
            ss = np.asarray(seqs, dtype=np.int64)
            out = np.empty(rr.size, dtype=np.int64)
            for r in np.unique(rr).tolist():
                mask = rr == r
                out[mask] = unit_at[r][
                    np.searchsorted(sync_np[r], ss[mask])]
            return out

        eu: List[np.ndarray] = []
        ev: List[np.ndarray] = []
        for r in range(n):
            ua = unit_at[r]
            if ua.size >= 2:  # program-order chain
                eu.append(ua[:-1])
                ev.append(ua[1:])
        if dir_sr:
            eu.append(lookup(dir_sr, dir_ss))
            ev.append(lookup(dir_dr, dir_ds))
        if exit_u:
            eu.append(np.asarray(exit_u, dtype=np.int64))
            ev.append(lookup(exit_r, exit_s))
        if eu:
            e_u = np.concatenate(eu)
            e_v = np.concatenate(ev)
            keep = e_u != e_v
            e_u = e_u[keep]
            e_v = e_v[keep]
            if e_u.size:
                _, first = np.unique(e_u * n_units + e_v,
                                     return_index=True)
                e_u = e_u[first]
                e_v = e_v[first]
        else:
            e_u = e_v = np.empty(0, dtype=np.int64)

        # per-unit own entries (sync position + 1 at the owning rank)
        clocks = np.zeros((n_units, n), dtype=np.int64)
        for r in range(n):
            ua = unit_at[r]
            if ua.size:
                clocks[ua, r] = np.arange(1, ua.size + 1)

        # chain condensation: an edge u->v with outdeg(u)==indeg(v)==1
        # is interior to a path; paths are vertex-disjoint, all external
        # edges attach at a path's head or tail
        outdeg = np.bincount(e_u, minlength=n_units)
        indeg = np.bincount(e_v, minlength=n_units)
        chain = (outdeg[e_u] == 1) & (indeg[e_v] == 1)
        nxt = np.full(n_units, -1, dtype=np.int64)
        nxt[e_u[chain]] = e_v[chain]
        is_head = np.ones(n_units, dtype=bool)
        is_head[e_v[chain]] = False
        path_units = np.empty(n_units, dtype=np.int64)
        path_of = np.empty(n_units, dtype=np.int64)
        path_off = [0]
        nxt_l = nxt.tolist()
        w = 0
        p = 0
        for h in np.nonzero(is_head)[0].tolist():
            u = h
            while u != -1:
                path_units[w] = u
                path_of[u] = p
                w += 1
                u = nxt_l[u]
            path_off.append(w)
            p += 1
        if w != n_units:  # a pure chain cycle never reaches a head
            raise AnalysisError(
                "synchronization graph contains a cycle — inconsistent "
                "trace")
        n_paths = p

        # condensed DAG over paths: the non-chain edges
        nc_u = e_u[~chain]
        nc_v = e_v[~chain]
        ce_u = path_of[nc_u]
        ce_v = path_of[nc_v]
        cind = np.bincount(ce_v, minlength=n_paths)
        order = np.argsort(ce_u, kind="stable")
        out_src = ce_u[order]
        out_dst = ce_v[order]
        out_lo = np.searchsorted(out_src, np.arange(n_paths), side="left")
        out_hi = np.searchsorted(out_src, np.arange(n_paths), side="right")
        iorder = np.argsort(ce_v, kind="stable")
        in_units = nc_u[iorder]  # source *unit* of each incoming edge
        in_dst = ce_v[iorder]
        in_lo = np.searchsorted(in_dst, np.arange(n_paths), side="left")
        in_hi = np.searchsorted(in_dst, np.arange(n_paths), side="right")

        ready = np.nonzero(cind == 0)[0].tolist()
        cind_l = cind.tolist()
        done = 0
        while ready:
            pth = ready.pop()
            done += 1
            lo, hi = path_off[pth], path_off[pth + 1]
            units = path_units[lo:hi]
            a, b = in_lo[pth], in_hi[pth]
            if b > a:  # join external preds into the path head
                srcs = in_units[a:b]
                head = units[0]
                if srcs.size == 1:
                    np.maximum(clocks[head], clocks[srcs[0]],
                               out=clocks[head])
                else:
                    np.maximum(clocks[head], clocks[srcs].max(axis=0),
                               out=clocks[head])
            if hi - lo > 1:  # sweep the chain in one accumulate pass
                clocks[units] = np.maximum.accumulate(clocks[units],
                                                      axis=0)
            for q in out_dst[out_lo[pth]:out_hi[pth]].tolist():
                cind_l[q] -= 1
                if cind_l[q] == 0:
                    ready.append(q)
        if done != n_paths:
            raise AnalysisError(
                "synchronization graph contains a cycle — inconsistent "
                "trace")

        self.sync_seqs = [a.tolist() for a in sync_np]
        self._sync_np = [a if a.size else _EMPTY_I64 for a in sync_np]
        self._unit_at = unit_at
        self._coll_at = coll_at
        self._nb_skip = nb_skip
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
