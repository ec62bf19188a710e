"""Synchronization-call matching across processes (Algorithm 1).

The paper's DN-Analyzer matches every synchronization call with its
counterparts in other ranks using a vector of *progress counters*,
consulting each trace from its current scan position, never from the
beginning.  :func:`match_synchronization` computes the same match set
from the per-rank :class:`~repro.core.calltable.CallTable` columns: each
matching dimension is a channel, and the k-th entry on one side of a
channel pairs with the k-th on the other.  (The literal progress-counter
walk and the rescanning strawman it improves on are kept as test
oracles in ``tests/reference/matching.py``.)

Matched call classes:

* **collectives** — Barrier, Bcast, reductions, ``Win_create``/``free``/
  ``fence``, communicator constructors; matched by per-communicator call
  order (the k-th collective on a communicator at each member is one
  match).  ``Win_fence``/``Win_free`` participate in the stream of their
  window's communicator, exactly as MPI requires.
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
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.calltable import (
    CLS_COLL, CLS_COMPLETE, CLS_ICOLL_WAIT, CLS_POST, CLS_RECV, CLS_SEND,
    CLS_START, CLS_WAIT, FN_NAMES, ensure_call_tables, fn_code,
)
from repro.core.preprocess import PreprocessedTrace
from repro.profiler.events import NB_COLLECTIVE_CALLS
from repro.util.errors import AnalysisError

KIND_COLLECTIVE = "collective"
KIND_P2P = "p2p"
KIND_POST_START = "post_start"
KIND_COMPLETE_WAIT = "complete_wait"


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
        out = []
        if self.src is not None:
            out.append(self.src)
        if self.dst is not None:
            out.append(self.dst)
        return out

    def is_global(self, nranks: int) -> bool:
        """True iff this match is a valid global region cut: every rank
        participates AND the synchronization is blocking (a nonblocking
        collective does not order the events between its initiation and
        its completing Wait, so it cannot truncate the trace)."""
        return (self.kind == KIND_COLLECTIVE
                and len(self.members) == nranks and not self.exits)


_KIND_CODES = {kind: code for code, kind in enumerate((
    KIND_COLLECTIVE, KIND_P2P, KIND_POST_START, KIND_COMPLETE_WAIT))}


def match_columns(matches: List[SyncMatch],
                  nranks: int) -> Tuple[np.ndarray, np.ndarray]:
    """The matches as two integer tables, for a consumer that reads them
    all at once: ``head``, a row ``(kind, fn, comm, win, index, src
    rank, src seq, dst rank, dst seq, members, exits, rank 0's member)``
    per match (``-1`` where there is none; ``fn`` is one of the few
    dozen synchronization call names, and 64 bits of its digest stand
    for it; ``members`` and ``exits`` are counts), and ``part``, a row
    ``(match, role, rank, seq)`` per collective member (role 0) and exit
    (1) — but none for a global cut (:meth:`SyncMatch.is_global`), whose
    members are a row of :attr:`RegionIndex.bounds`."""
    fn_id = {fn: int.from_bytes(hashlib.sha256(fn.encode("utf-8")).digest()
                                [:8], "little", signed=True)
             for fn in {match.fn for match in matches}}
    none = (-1, -1)
    head = np.array([
        (_KIND_CODES[m.kind], fn_id[m.fn],
         -1 if m.comm_id is None else m.comm_id,
         -1 if m.win_id is None else m.win_id, m.index,
         *(m.src or none), *(m.dst or none), len(m.members), len(m.exits),
         m.members.get(0, -1)) for m in matches],
        dtype=np.int64).reshape(-1, 12)
    rest = np.nonzero((head[:, 0] != _KIND_CODES[KIND_COLLECTIVE])
                      | (head[:, 9] != nranks) | (head[:, 10] != 0))[0]

    def entries(role: int, dicts: List[Dict[int, int]]) -> np.ndarray:
        count = head[rest, 9 + role]
        size = int(count.sum())
        return np.stack([
            np.repeat(rest, count), np.full(size, role),
            np.fromiter(chain.from_iterable(dicts), np.int64, size),
            np.fromiter(chain.from_iterable(map(dict.values, dicts)),
                        np.int64, size)], axis=1)
    rest_matches = [matches[i] for i in rest.tolist()]
    return head, np.concatenate([
        entries(0, [m.members for m in rest_matches]),
        entries(1, [m.exits for m in rest_matches])])


_FENCE_FREE_CODES = None


def _fence_free_codes() -> np.ndarray:
    global _FENCE_FREE_CODES
    if _FENCE_FREE_CODES is None:
        _FENCE_FREE_CODES = np.asarray(
            [fn_code("Win_fence"), fn_code("Win_free")], dtype=np.int64)
    return _FENCE_FREE_CODES


def _resolve_world(pre: PreprocessedTrace, comms: np.ndarray,
                   peers: np.ndarray) -> np.ndarray:
    """Vectorized ``world_of_comm_rank`` over parallel arrays."""
    out = np.empty_like(peers)
    for c in np.unique(comms).tolist():
        m = comms == c
        members = np.asarray(pre.comm_members(int(c)), dtype=np.int64)
        p = peers[m]
        bad = (p < 0) | (p >= members.size)
        if bad.any():
            raise AnalysisError(
                f"comm {int(c)} has no rank {int(p[bad][0])} "
                f"(size {members.size})")
        out[m] = members[p]
    return out


def match_synchronization(pre: PreprocessedTrace) -> List[SyncMatch]:
    """Match all synchronization calls — Algorithm 1 over
    :class:`~repro.core.calltable.CallTable` columns.

    Collectives by per-communicator slot index, point-to-point as
    per-(src, dst, comm, tag)-channel FIFO zips, PSCW by per-(rank,
    window, peer)-channel occurrence index.  The match *set* is the one
    the paper's progress-counter walk produces; the list comes out
    grouped by kind, not progress-interleaved, and no consumer is
    order-sensitive — regions sort their cuts, the clock fixpoint is
    order-independent, and the incremental fingerprints sort the rows
    of :func:`match_columns`.
    """
    tables = ensure_call_tables(pre)
    nranks = pre.nranks
    matches: List[SyncMatch] = []
    # comm -> rank -> (seqs, fn codes, wins, reqs) in trace order
    coll: Dict[int, Dict[int, Tuple[List[int], ...]]] = {}
    sends: Dict[Tuple[int, int, int, int],
                Tuple[List[int], List[int]]] = {}
    recvs: Dict[Tuple[int, int, int, int], List[int]] = {}
    starts: Dict[Tuple[int, int, int], List[int]] = {}
    waits: Dict[Tuple[int, int, int], List[int]] = {}
    icoll_waits: Dict[Tuple[int, int], int] = {}
    # (rank, seq, win, group) in trace order, per initiating side
    post_events: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    complete_events: List[Tuple[int, int, int, Tuple[int, ...]]] = []

    for rank in range(nranks):
        t = tables.get(rank)
        if t is None or not t.n:
            continue
        cls = t.cls

        idx = np.nonzero(cls == CLS_COLL)[0]
        if idx.size:
            seqs = t.seq[idx]
            comms = t.comm[idx].copy()
            wins = t.win[idx]
            fns = t.fn[idx]
            reqs = t.req[idx]
            missing = comms < 0
            if missing.any():
                mf = fns[missing]
                not_win = ~np.isin(mf, _fence_free_codes())
                if not_win.any():
                    k = int(np.nonzero(missing)[0][np.nonzero(not_win)[0][0]])
                    raise AnalysisError(
                        f"collective event {FN_NAMES[int(fns[k])]} "
                        f"(rank {rank}, seq {int(seqs[k])}) "
                        "carries no communicator")
                mw = wins[missing]
                sub = comms[missing]
                for w in np.unique(mw).tolist():
                    sub[mw == w] = pre.window(int(w)).comm_id
                comms[missing] = sub
            for c in np.unique(comms).tolist():
                m = comms == c
                coll.setdefault(int(c), {})[rank] = (
                    seqs[m].tolist(), fns[m].tolist(), wins[m].tolist(),
                    reqs[m].tolist())

        idx = np.nonzero(cls == CLS_ICOLL_WAIT)[0]
        if idx.size:
            for i in idx.tolist():
                icoll_waits[(rank, int(t.req[i]))] = int(t.seq[i])

        idx = np.nonzero(cls == CLS_SEND)[0]
        if idx.size:
            dsts = _resolve_world(pre, t.comm[idx], t.peer[idx]).tolist()
            comms = t.comm[idx].tolist()
            tags = t.tag[idx].tolist()
            seqs = t.seq[idx].tolist()
            fns = t.fn[idx].tolist()
            for i, dst in enumerate(dsts):
                chan = sends.setdefault((rank, dst, comms[i], tags[i]),
                                        ([], []))
                chan[0].append(seqs[i])
                chan[1].append(fns[i])

        idx = np.nonzero(cls == CLS_RECV)[0]
        if idx.size:
            srcs = _resolve_world(pre, t.comm[idx], t.peer[idx]).tolist()
            comms = t.comm[idx].tolist()
            tags = t.tag[idx].tolist()
            seqs = t.seq[idx].tolist()
            for i, src in enumerate(srcs):
                recvs.setdefault((rank, src, comms[i], tags[i]),
                                 []).append(seqs[i])

        idx = np.nonzero((cls >= CLS_POST) & (cls <= CLS_WAIT))[0]
        if idx.size:
            # per-rank sequential mini-walk over the access/exposure
            # group state (one variable per rank, not per window — as in
            # the paper's walk, tests/reference/matching.py)
            access_group: Optional[Tuple[int, ...]] = None
            exposure_group: Optional[Tuple[int, ...]] = None
            for i in idx.tolist():
                c = int(cls[i])
                win = int(t.win[i])
                seq = int(t.seq[i])
                if c == CLS_POST:
                    exposure_group = t.group(i)
                    post_events.append((rank, seq, win, exposure_group))
                elif c == CLS_START:
                    access_group = t.group(i)
                    for target in access_group:
                        starts.setdefault((rank, win, target),
                                          []).append(seq)
                elif c == CLS_COMPLETE:
                    complete_events.append(
                        (rank, seq, win, access_group or ()))
                    access_group = None
                else:  # CLS_WAIT
                    for origin in (exposure_group or ()):
                        waits.setdefault((rank, win, origin),
                                         []).append(seq)
                    exposure_group = None

    # collectives: one match per (comm, slot)
    for comm in sorted(coll):
        members = pre.comm_members(comm)
        per = coll[comm]
        streams = [per.get(m) for m in members]
        nslots = max((len(s[0]) for s in streams if s is not None),
                     default=0)
        for k in range(nslots):
            fnc = -1
            win_val = -1
            init_rank = -1
            mdict: Dict[int, int] = {}
            for mi, member in enumerate(members):
                s = streams[mi]
                if s is None or k >= len(s[0]):
                    continue  # ragged trace: partial match
                if fnc < 0:
                    fnc, win_val, init_rank = s[1][k], s[2][k], member
                elif s[1][k] != fnc:
                    raise AnalysisError(
                        f"collective mismatch on comm {comm}: rank "
                        f"{init_rank} calls {FN_NAMES[fnc]} but rank "
                        f"{member} calls {FN_NAMES[s[1][k]]} "
                        f"(seq {s[0][k]})")
                mdict[member] = s[0][k]
            if fnc < 0:
                continue
            fn = FN_NAMES[fnc]
            match = SyncMatch(
                kind=KIND_COLLECTIVE, fn=fn, comm_id=comm,
                win_id=(int(win_val) if win_val >= 0 else None),
                members=mdict, index=k)
            if fn in NB_COLLECTIVE_CALLS:
                for mi, member in enumerate(members):
                    s = streams[mi]
                    if s is None or k >= len(s[0]):
                        continue
                    wait_seq = icoll_waits.get((member, s[3][k]))
                    if wait_seq is not None:
                        match.exits[member] = wait_seq
            matches.append(match)

    # point-to-point: FIFO zip per (src, dst, comm, tag) channel
    channels = set(sends)
    channels.update((src, dst, comm, tag)
                    for (dst, src, comm, tag) in recvs)
    for key in sorted(channels):
        src, dst, comm, tag = key
        send_seqs, send_fns = sends.get(key, ((), ()))
        recv_seqs = recvs.get((dst, src, comm, tag), ())
        for k in range(max(len(send_seqs), len(recv_seqs))):
            has_send = k < len(send_seqs)
            matches.append(SyncMatch(
                kind=KIND_P2P,
                fn=(FN_NAMES[send_fns[k]] if has_send else "Send"),
                comm_id=comm,
                src=((src, send_seqs[k]) if has_send else None),
                dst=((dst, recv_seqs[k]) if k < len(recv_seqs) else None)))

    # PSCW: k-th post at (rank, win, origin) <-> k-th start at
    # (origin, win, rank); symmetrically complete <-> wait
    cursors: Dict[Tuple[int, int, int], int] = {}
    for rank, seq, win, group in post_events:
        for origin in group:
            k = cursors.get((rank, win, origin), 0)
            cursors[(rank, win, origin)] = k + 1
            start_seqs = starts.get((origin, win, rank), ())
            matches.append(SyncMatch(
                kind=KIND_POST_START, fn="Win_post", win_id=win,
                src=(rank, seq),
                dst=((origin, start_seqs[k])
                     if k < len(start_seqs) else None)))
    cursors = {}
    for rank, seq, win, group in complete_events:
        for target in group:
            k = cursors.get((rank, win, target), 0)
            cursors[(rank, win, target)] = k + 1
            wait_seqs = waits.get((target, win, rank), ())
            matches.append(SyncMatch(
                kind=KIND_COMPLETE_WAIT, fn="Win_complete", win_id=win,
                src=(rank, seq),
                dst=((target, wait_seqs[k])
                     if k < len(wait_seqs) else None)))
    return matches
