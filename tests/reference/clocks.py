"""The clock build production used before the match set became columns
— a test oracle, not production.

:class:`PerPathOracle` is :class:`~repro.core.clocks.ConcurrencyOracle`
with its former ``_build``: it reads the matches as
:class:`~repro.core.matching.SyncMatch` objects, gathers each rank's
sync positions in Python lists, and runs the condensed-DAG fixpoint one
path at a time (a Kahn loop).  Production reads the
:class:`~repro.core.matching.MatchTable` columns and runs the fixpoint
one wave of ready paths at a time; both number the units alike, so the
differential compares the ``_clocks`` matrices whole.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.clocks import ConcurrencyOracle
from repro.core.matching import KIND_COLLECTIVE, SyncMatch
from repro.util.errors import AnalysisError

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class PerPathOracle(ConcurrencyOracle):
    """The oracle, built by the per-path loop."""

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
