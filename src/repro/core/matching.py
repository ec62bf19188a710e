"""Synchronization-call matching across processes (Algorithm 1).

The paper's DN-Analyzer matches every synchronization call with its
counterparts in other ranks using a vector of *progress counters*,
consulting each trace from its current scan position, never from the
beginning.  :func:`match_synchronization` computes the same match set
from the set's one stacked :class:`~repro.core.calltable.CallTable`:
each matching dimension is a channel, and the k-th entry on one side of
a channel pairs with the k-th on the other — a stable sort per channel
kind, the ordinal of a row being its distance from its run's start.
The result is a :class:`MatchTable`, the match set as columns; a
:class:`SyncMatch` is built only for a row someone indexes (the DAG,
the CLI, tests).  (The progress-counter walk, the rescanning strawman
it improves on and a per-rank dict walk that lists the matches in this
order are kept as test oracles in ``tests/reference/matching.py``.)

Matched call classes:

* **collectives** — Barrier, Bcast, reductions, ``Win_create``/``free``/
  ``fence``, communicator constructors; matched by per-communicator call
  order (the k-th collective on a communicator at each member is one
  match).  ``Win_fence``/``Win_free`` participate in the stream of their
  window's communicator, exactly as MPI requires.  A nonblocking one's
  exit at a member is the first icoll ``Wait`` on its request after it.
* **point-to-point** — Send/Isend matched to the Recv (or the Wait
  completing an Irecv) that consumed the message; since the Profiler logs
  the *actual* source/tag at receive completion, matching is a per-channel
  FIFO zip.
* **PSCW** — the k-th ``Win_post`` at a target exposing origin *o* matches
  the k-th ``Win_start`` at *o* naming that target (happens-before
  post -> start), and symmetrically ``Win_complete`` -> ``Win_wait``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.calltable import (
    CLS_COLL, CLS_COMPLETE, CLS_ICOLL_WAIT, CLS_POST, CLS_RECV, CLS_SEND,
    CLS_START, CLS_WAIT, FN_NAMES, CallTable, ensure_call_table, fn_code,
    per_fn,
)
from repro.core.preprocess import PreprocessedTrace
from repro.core.views import Views, remembered
from repro.profiler.events import NB_COLLECTIVE_CALLS
from repro.util.errors import AnalysisError
from repro.util.intervals import (
    expand_ranges, group_ids, grouped_searchsorted,
)

KIND_COLLECTIVE = "collective"
KIND_P2P = "p2p"
KIND_POST_START = "post_start"
KIND_COMPLETE_WAIT = "complete_wait"
#: ``MatchTable.kind`` codes index this (0: a collective)
KINDS = (KIND_COLLECTIVE, KIND_P2P, KIND_POST_START, KIND_COMPLETE_WAIT)
#: ``MatchTable.role`` codes: a collective's member and exit calls, a
#: directed match's two ends
ROLE_MEMBER, ROLE_EXIT, ROLE_SRC, ROLE_DST = range(4)


@dataclass
class SyncMatch:
    """One matched synchronization: either a collective slot or a directed
    pair (send->recv, post->start, complete->wait)."""

    kind: str
    fn: str
    members: Dict[int, int] = field(default_factory=dict)  # rank -> seq
    src: Optional[Tuple[int, int]] = None  # (rank, seq) for directed kinds
    dst: Optional[Tuple[int, int]] = None
    comm_id: Optional[int] = None
    win_id: Optional[int] = None
    index: int = 0
    #: nonblocking collectives: rank -> seq of the completing Wait; the
    #: match's entry points are ``members``, its exit points these
    exits: Dict[int, int] = field(default_factory=dict)

    def participants(self) -> List[Tuple[int, int]]:
        if self.kind == KIND_COLLECTIVE:
            return sorted(list(self.members.items())
                          + list(self.exits.items()))
        return [end for end in (self.src, self.dst) if end is not None]

    def is_global(self, nranks: int) -> bool:
        """True iff this match is a valid global region cut: every rank
        participates AND the synchronization is blocking (a nonblocking
        collective does not order the events between its initiation and
        its completing Wait, so it cannot truncate the trace)."""
        return (self.kind == KIND_COLLECTIVE
                and len(self.members) == nranks and not self.exits)


class MatchTable(Views):
    """The match set as columns.

    One row per match — ``kind`` (an index into :data:`KINDS`), ``fn`` (a
    fn code), ``comm`` and ``win`` (-1: none) and ``slot`` (a
    collective's index on its communicator) — and one per participant:
    ``match``, ``role`` (``ROLE_*``), ``rank`` and ``seq``, grouped by
    match and role, ``off`` the first participant row of each match.
    It is also the sequence of the matches as :class:`SyncMatch` views,
    each built when it is indexed."""

    def __init__(self, kind, fn, comm, win, slot, match, role, rank, seq):
        self.kind, self.fn, self.comm, self.win, self.slot = (
            np.asarray(column, dtype=np.int64)
            for column in (kind, fn, comm, win, slot))
        match, role = (np.asarray(c, dtype=np.int64) for c in (match, role))
        order = np.argsort(match * 4 + role, kind="stable")
        self.match, self.role, self.rank, self.seq = (
            np.asarray(c, dtype=np.int64)[order]
            for c in (match, role, rank, seq))
        self.off = np.searchsorted(self.match, np.arange(len(self.kind) + 1))
        super().__init__(len(self.kind), remembered(self._match,
                                                    "sync_match"))

    def _match(self, k: int) -> SyncMatch:
        """Match ``k`` as an object: the one place one is constructed."""
        lo, hi = self.off[k], self.off[k + 1]
        ends: List[Dict[int, int]] = [{}, {}, {}, {}]
        for role, rank, seq in zip(self.role[lo:hi].tolist(),
                                   self.rank[lo:hi].tolist(),
                                   self.seq[lo:hi].tolist()):
            ends[role][rank] = seq
        comm, win = int(self.comm[k]), int(self.win[k])
        return SyncMatch(
            kind=KINDS[self.kind[k]], fn=FN_NAMES[self.fn[k]],
            members=ends[ROLE_MEMBER], exits=ends[ROLE_EXIT],
            src=next(iter(ends[ROLE_SRC].items()), None),
            dst=next(iter(ends[ROLE_DST].items()), None),
            comm_id=None if comm < 0 else comm,
            win_id=None if win < 0 else win, index=int(self.slot[k]))

    def counts(self, role: int) -> np.ndarray:
        """Participants of each match in ``role``."""
        return np.bincount(self.match[self.role == role],
                           minlength=len(self))

    def end(self, role: int) -> np.ndarray:
        """Each match's participant row in ``role`` (``ROLE_SRC`` or
        ``ROLE_DST``), -1 where it has none."""
        out = np.full(len(self), -1, dtype=np.int64)
        rows = np.nonzero(self.role == role)[0]
        out[self.match[rows]] = rows
        return out

    @cached_property
    def has_exits(self) -> np.ndarray:
        return self.counts(ROLE_EXIT) > 0

    def is_global(self, nranks: int) -> np.ndarray:
        """:meth:`SyncMatch.is_global` of every match."""
        return ((self.kind == 0) & (self.counts(ROLE_MEMBER) == nranks)
                & ~self.has_exits)


@lru_cache(maxsize=None)
def _fn_digest(code: int) -> int:
    return int.from_bytes(hashlib.sha256(FN_NAMES[code].encode("utf-8"))
                          .digest()[:8], "little", signed=True)


def match_columns(matches: MatchTable,
                  nranks: int) -> Tuple[np.ndarray, np.ndarray]:
    """The matches as two integer tables, for a consumer that hashes
    them: ``head``, a row ``(kind, fn, comm, win, index, src rank, src
    seq, dst rank, dst seq, members, exits, rank 0's member)`` per match
    (``-1`` where there is none; 64 bits of the fn name's digest stand
    for it; ``members`` and ``exits`` are counts), and ``part``, a row
    ``(match, role, rank, seq)`` per collective member (role 0) and exit
    (1) — but none for a global cut (:meth:`SyncMatch.is_global`), whose
    members are a row of :attr:`RegionIndex.bounds`."""
    m = matches
    src, dst = m.end(ROLE_SRC), m.end(ROLE_DST)
    first = np.full(len(m), -1, dtype=np.int64)
    at0 = np.nonzero((m.role == ROLE_MEMBER) & (m.rank == 0))[0]
    first[m.match[at0]] = m.seq[at0]
    digest = np.array([_fn_digest(c) for c in range(len(FN_NAMES))],
                      dtype=np.int64)

    def end(rows: np.ndarray, column: np.ndarray) -> np.ndarray:
        return np.where(rows >= 0, column[rows], -1)
    head = np.column_stack([
        m.kind, digest[m.fn], m.comm, m.win, m.slot,
        end(src, m.rank), end(src, m.seq), end(dst, m.rank),
        end(dst, m.seq), m.counts(ROLE_MEMBER), m.counts(ROLE_EXIT), first])
    rows = np.nonzero((m.role <= ROLE_EXIT)
                      & ~m.is_global(nranks)[m.match])[0]
    return head, np.column_stack(
        [m.match[rows], m.role[rows], m.rank[rows], m.seq[rows]])


# ----------------------------------------------------------------------
# the matcher
# ----------------------------------------------------------------------


def _ordinal(*keys: np.ndarray) -> np.ndarray:
    """Each row's count of earlier rows with equal ``keys`` (one int key
    or several columns): its place on its channel, the rows being in
    channel order already."""
    ids = group_ids(*keys) if len(keys) > 1 else keys[0]
    order = np.argsort(ids, kind="stable")
    out = np.empty_like(order)
    out[order] = np.arange(order.size) - np.searchsorted(ids[order],
                                                         ids[order])
    return out


class _Comms:
    """The communicators as tables, rows in id order: ``members`` (world
    ranks, -1 padded), ``size``, and ``place[i, r]``, world rank ``r``'s
    rank in communicator ``ids[i]`` (-1: not a member)."""

    def __init__(self, pre: PreprocessedTrace):
        self.pre = pre
        self.ids = np.array(sorted(pre.comms), dtype=np.int64)
        groups = [pre.comms[c] for c in self.ids.tolist()]
        self.size = np.array([len(g) for g in groups], dtype=np.int64)
        width = max([pre.nranks, 1] + [max(g) + 1 for g in groups if g])
        self.members = np.full((len(groups), width), -1, dtype=np.int64)
        self.place = np.full((len(groups), width), -1, dtype=np.int64)
        for i, group in enumerate(groups):
            self.members[i, :len(group)] = group
            self.place[i, list(group)] = np.arange(len(group))

    def rows(self, comm: np.ndarray) -> np.ndarray:
        """Each communicator's row; an unknown one is refused."""
        at = np.searchsorted(self.ids, comm).clip(max=len(self.ids) - 1)
        bad = self.ids[at] != comm if len(self.ids) else comm == comm
        if bad.any():
            self.pre.comm_members(int(comm[np.argmax(bad)]))
        return at

    def world(self, comm: np.ndarray, peer: np.ndarray) -> np.ndarray:
        """Vectorized ``world_of_comm_rank``."""
        at = self.rows(comm)
        bad = (peer < 0) | (peer >= self.size[at])
        if bad.any():
            k = int(np.argmax(bad))
            raise AnalysisError(f"comm {comm[k]} has no rank {peer[k]} "
                                f"(size {self.size[at[k]]})")
        return self.members[at, peer]


class _Emit:
    """The table being assembled, one kind of match after another."""

    def __init__(self):
        self.head: List[Tuple[np.ndarray, ...]] = []
        self.part: List[Tuple[np.ndarray, ...]] = []
        self.n = 0

    def matches(self, kind: int, fn, comm, win, slot) -> int:
        """Add matches (one per ``fn``); the first one's id."""
        count = len(fn)
        self.head.append(tuple(np.broadcast_to(c, count) for c in (
            kind, fn, comm, win, slot)))
        self.n += count
        return self.n - count

    def ends(self, match, role, rank, seq) -> None:
        self.part.append((match, np.broadcast_to(role, len(match)), rank,
                          seq))

    def table(self) -> MatchTable:
        return MatchTable(*(np.concatenate(c) if c else () for c in (
            *(list(zip(*self.head)) or [()] * 5),
            *(list(zip(*self.part)) or [()] * 4))))


def _collectives(pre: PreprocessedTrace, comms: _Comms, t: CallTable,
                 rows: np.ndarray, waits: np.ndarray, out: _Emit) -> None:
    """One match per (communicator, slot): the k-th collective of every
    member, in communicator order; a nonblocking collective's exit at a
    member is the first icoll Wait on its request after it there (a
    freed handle may be reused)."""
    rank, seq, fn, win = t.ranks[rows], t.seq[rows], t.fn[rows], t.win[rows]
    comm = t.comm[rows].copy()
    missing = np.flatnonzero(comm < 0)
    if missing.size:
        windowed = per_fn({"Win_fence": 1, "Win_free": 1}, 0)[fn[missing]]
        if not windowed.all():
            k = missing[np.argmin(windowed)]
            raise AnalysisError(
                f"collective event {FN_NAMES[fn[k]]} (rank {rank[k]}, seq "
                f"{seq[k]}) carries no communicator")
        known = np.array(sorted(pre.windows), dtype=np.int64)
        at = np.searchsorted(known, win[missing]).clip(max=known.size - 1)
        bad = known[at] != win[missing] if known.size else windowed
        if bad.any():
            pre.window(int(win[missing][np.argmax(bad)]))
        comm[missing] = np.array([pre.windows[w].comm_id
                                  for w in known.tolist()])[at]
    at = comms.rows(comm)
    place = comms.place[at, rank]
    if (place < 0).any():
        k = int(np.argmax(place < 0))
        raise AnalysisError(
            f"collective event {FN_NAMES[fn[k]]} (rank {rank[k]}, seq "
            f"{seq[k]}) is on comm {comm[k]}, which does not include "
            f"rank {rank[k]}")
    # the k-th on a (communicator, rank) is in slot k; the matches are
    # the (communicator, slot) runs, members in communicator order
    slot = _ordinal(at * comms.place.shape[1] + rank)
    key = at * (slot.max() + 1) + slot
    order = np.argsort(key * comms.place.shape[1] + place)
    new = np.ones(order.size, dtype=bool)
    new[1:] = key[order][1:] != key[order][:-1]
    match = np.empty_like(order)
    match[order] = np.cumsum(new) - 1
    lead = order[new]
    odd = fn[order] != fn[lead][match[order]]
    if odd.any():
        k = order[np.argmax(odd)]
        init = lead[match[k]]
        raise AnalysisError(
            f"collective mismatch on comm {comm[k]}: rank {rank[init]} "
            f"calls {FN_NAMES[fn[init]]} but rank {rank[k]} calls "
            f"{FN_NAMES[fn[k]]} (seq {seq[k]})")
    base = out.matches(0, fn[lead], comm[lead], win[lead], slot[lead])
    out.ends(base + match[order], ROLE_MEMBER, rank[order], seq[order])
    nb = order[per_fn(dict.fromkeys(NB_COLLECTIVE_CALLS, 1), 0)[fn[order]]
               .astype(bool)]
    if nb.size and waits.size:
        pair = group_ids(np.concatenate([rank[nb], t.ranks[waits]]),
                         np.concatenate([t.req[rows[nb]], t.req[waits]]))
        w_pair, w_seq = pair[nb.size:], t.seq[waits]
        by = np.lexsort((w_seq, w_pair))
        w_pair, w_seq = w_pair[by], w_seq[by]
        at = grouped_searchsorted(w_pair, w_seq, pair[:nb.size], seq[nb],
                                  side="right")
        ok = at < by.size
        ok[ok] = w_pair[at[ok]] == pair[:nb.size][ok]
        out.ends(base + match[nb[ok]], ROLE_EXIT, rank[nb[ok]],
                 w_seq[at[ok]])


def _p2p(comms: _Comms, t: CallTable, sends: np.ndarray,
         recvs: np.ndarray, out: _Emit) -> None:
    """A FIFO zip per (src, dst, comm, tag) channel, channels in order."""
    both = np.concatenate([sends, recvs])
    side = np.repeat([0, 1], [sends.size, recvs.size])
    world = comms.world(t.comm[both], t.peer[both])
    src = np.where(side == 0, t.ranks[both], world)
    dst = np.where(side == 0, world, t.ranks[both])
    comm, tag = t.comm[both], t.tag[both]
    match = group_ids(src, dst, comm, tag,
                      _ordinal(side, src, dst, comm, tag))
    fn = np.full(match.max() + 1, fn_code("Send"))
    fn[match[:sends.size]] = t.fn[sends]
    comm_of = np.empty_like(fn)
    comm_of[match] = comm
    base = out.matches(1, fn, comm_of, -1, 0)
    out.ends(base + match, ROLE_SRC + side, t.ranks[both], t.seq[both])


def _pscw(t: CallTable, rows: np.ndarray, out: _Emit) -> None:
    """The k-th Post at a target naming an origin pairs with the k-th
    Start at that origin naming the target, per window; a Complete (a
    Wait) names the group of its rank's last Start (Post) before it,
    unless a Complete (Wait) came in between — the walk's per-rank
    state, one variable per rank and not per window."""
    cls, rank = t.cls[rows], t.ranks[rows]
    acting = np.full(rows.size, -1)         # whose group a row names
    for opener, closer in ((CLS_START, CLS_COMPLETE), (CLS_POST, CLS_WAIT)):
        sel = np.flatnonzero((cls == opener) | (cls == closer))
        acting[sel[cls[sel] == opener]] = sel[cls[sel] == opener]
        prev, cur = sel[:-1], sel[1:]
        led = (cls[cur] == closer) & (cls[prev] == opener) \
            & (rank[cur] == rank[prev])
        acting[cur[led]] = prev[led]
    named = np.flatnonzero(acting >= 0)
    g = rows[acting[named]]
    reps, at = expand_ranges(t.group_off[g],
                             t.group_off[g + 1] - t.group_off[g])
    e, peer = rows[named[reps]], t.group_val[at]
    ecls, erank, win = t.cls[e], t.ranks[e], t.win[e]
    at_target = (ecls == CLS_POST) | (ecls == CLS_WAIT)
    target = np.where(at_target, erank, peer)
    origin = np.where(at_target, peer, erank)
    k = _ordinal(ecls, target, win, origin)
    for kind, fn, first, second in ((2, "Win_post", CLS_POST, CLS_START), (
            3, "Win_complete", CLS_COMPLETE, CLS_WAIT)):
        a, b = np.flatnonzero(ecls == first), np.flatnonzero(ecls == second)
        ids = group_ids(*(np.concatenate([c[a], c[b]])
                          for c in (target, win, origin, k)))
        pair = np.full(ids.size + 1, -1)
        pair[ids[a.size:]] = b
        pair = pair[ids[:a.size]]
        base = out.matches(kind, np.full(a.size, fn_code(fn)), -1, win[a],
                           0)
        out.ends(base + np.arange(a.size), ROLE_SRC, erank[a], t.seq[e[a]])
        hit = pair >= 0
        out.ends(base + np.flatnonzero(hit), ROLE_DST, erank[pair[hit]],
                 t.seq[e[pair[hit]]])


def match_synchronization(pre: PreprocessedTrace) -> MatchTable:
    """Match all synchronization calls — Algorithm 1 over the set's
    :class:`~repro.core.calltable.CallTable` columns.

    Collectives by per-communicator slot index, point-to-point as
    per-(src, dst, comm, tag)-channel FIFO zips, PSCW by per-(rank,
    window, peer)-channel occurrence index.  The match *set* is the one
    the paper's progress-counter walk produces; the table lists the
    collectives by (communicator, slot), then the point-to-point matches
    by channel and place on it, then the Posts and the Completes in
    trace order, rank by rank.  A collective logged on a communicator
    its rank is not in is an :class:`AnalysisError`.
    """
    t = ensure_call_table(pre)
    rows = np.flatnonzero(t.cls != 0)
    rows = rows[np.argsort(t.ranks[rows], kind="stable")]
    cls = t.cls[rows]
    out, comms = _Emit(), _Comms(pre)
    coll = rows[cls == CLS_COLL]
    if coll.size:
        _collectives(pre, comms, t, coll, rows[cls == CLS_ICOLL_WAIT], out)
    sends, recvs = rows[cls == CLS_SEND], rows[cls == CLS_RECV]
    if sends.size or recvs.size:
        _p2p(comms, t, sends, recvs, out)
    pscw = rows[(cls >= CLS_POST) & (cls <= CLS_WAIT)]
    if pscw.size:
        _pscw(t, pscw, out)
    return out.table()
