"""Reference synchronization matchers — test oracles, not production.

:func:`match_synchronization_object` is the paper's literal Algorithm 1:
a vector of *progress counters* drives the walk; at each step the
least-progressed rank's next unmatched entry is examined, non-sync
entries are skipped, and sync entries are matched by consulting the
target ranks' traces from their current scan position (never from the
beginning).  It covers every match class production does — collectives
(blocking and nonblocking, with their completing Waits), point-to-point
and PSCW.

:func:`match_synchronization_naive` is the strawman the paper argues
against (scan other traces from the beginning for every sync call); it
backs the E8 ablation benchmark and referees collectives and
point-to-point only.

:func:`match_synchronization_dict` is the matcher production used
before its matches became columns: per-rank dicts of channels filled
from each rank's call-table view, then zipped.  It lists the matches in
production's order, so the differential compares the two element by
element.

Production (:func:`repro.core.matching.match_synchronization`) computes
the same match set from the stacked call table as a
:class:`~repro.core.matching.MatchTable`; the differential tests
compare it against all three.  :func:`match_table` turns a hand-built
list of :class:`SyncMatch` objects into such a table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calltable import (
    CLS_COLL, CLS_COMPLETE, CLS_ICOLL_WAIT, CLS_POST, CLS_RECV, CLS_SEND,
    CLS_START, CLS_WAIT, FN_NAMES, SEND_CALLS, ensure_call_tables, fn_code,
)
from repro.core.matching import (
    KIND_COLLECTIVE, KIND_COMPLETE_WAIT, KIND_P2P, KIND_POST_START, KINDS,
    ROLE_DST, ROLE_EXIT, ROLE_MEMBER, ROLE_SRC, MatchTable, SyncMatch,
)
from repro.core.preprocess import PreprocessedTrace
from repro.profiler.events import (
    COLLECTIVE_CALLS, NB_COLLECTIVE_CALLS, CallEvent,
)
from repro.util.errors import AnalysisError


def _is_recv_endpoint(event: CallEvent) -> bool:
    if event.fn == "Recv":
        return True
    return event.fn == "Wait" and event.args.get("req_kind") == "irecv" \
        and "source" in event.args


def _effective_comm(event: CallEvent, pre: PreprocessedTrace) -> int:
    """The communicator whose collective stream this event belongs to."""
    if "comm" in event.args:
        return int(event.args["comm"])
    if event.fn in ("Win_fence", "Win_free"):
        return pre.window(int(event.args["win"])).comm_id
    raise AnalysisError(
        f"collective event {event.fn} (rank {event.rank}, seq {event.seq}) "
        "carries no communicator")


def _is_sync_event(event: CallEvent) -> bool:
    if event.fn in COLLECTIVE_CALLS or event.fn in SEND_CALLS:
        return True
    if _is_recv_endpoint(event):
        return True
    return event.fn in ("Win_post", "Win_start", "Win_complete", "Win_wait")


class _Streams:
    """Precomputed per-rank event streams keyed by matching dimension."""

    def __init__(self, pre: PreprocessedTrace):
        self.pre = pre
        # (rank, comm) -> ordered collective seqs
        self.collectives: Dict[Tuple[int, int], List[int]] = {}
        # (src, dst, comm, tag) -> ordered send seqs
        self.sends: Dict[Tuple[int, int, int, int], List[int]] = {}
        # (dst, src, comm, tag) -> ordered recv-endpoint seqs
        self.recvs: Dict[Tuple[int, int, int, int], List[int]] = {}
        # (rank, win, peer) -> ordered post/start/complete/wait seqs; PSCW
        # endpoints pair per (window, origin, target) channel.
        self.posts: Dict[Tuple[int, int, int], List[int]] = {}
        self.starts: Dict[Tuple[int, int, int], List[int]] = {}
        self.completes: Dict[Tuple[int, int, int], List[int]] = {}
        self.waits: Dict[Tuple[int, int, int], List[int]] = {}
        # (rank, seq) of a Win_complete -> targets of its access epoch
        self.complete_targets: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # (rank, req) -> seqs of the Waits completing a nonblocking
        # collective on that request
        self.icoll_waits: Dict[Tuple[int, int], List[int]] = {}
        self._scan()

    def _scan(self) -> None:
        pre = self.pre
        for rank in range(pre.nranks):
            access_group: Optional[Tuple[int, ...]] = None
            exposure_group: Optional[Tuple[int, ...]] = None
            for event in pre.events[rank]:
                if not isinstance(event, CallEvent):
                    continue
                fn = event.fn
                if fn in COLLECTIVE_CALLS:
                    comm = _effective_comm(event, pre)
                    if rank not in pre.comm_members(comm):
                        raise AnalysisError(
                            f"collective event {fn} (rank {rank}, seq "
                            f"{event.seq}) is on comm {comm}, which does "
                            f"not include rank {rank}")
                    self.collectives.setdefault((rank, comm), []).append(
                        event.seq)
                elif fn == "Wait" and \
                        event.args.get("req_kind") == "icoll":
                    self.icoll_waits.setdefault(
                        (rank, int(event.args["req"])), []).append(event.seq)
                elif fn in SEND_CALLS:
                    comm = int(event.args["comm"])
                    dst = pre.world_of_comm_rank(comm,
                                                 int(event.args["dest"]))
                    tag = int(event.args["tag"])
                    self.sends.setdefault((rank, dst, comm, tag), []).append(
                        event.seq)
                elif _is_recv_endpoint(event):
                    comm = int(event.args["comm"])
                    src = pre.world_of_comm_rank(comm,
                                                 int(event.args["source"]))
                    tag = int(event.args["tag"])
                    self.recvs.setdefault((rank, src, comm, tag), []).append(
                        event.seq)
                elif fn == "Win_post":
                    win = int(event.args["win"])
                    exposure_group = tuple(int(r) for r in event.args["group"])
                    for origin in exposure_group:
                        self.posts.setdefault((rank, win, origin), []).append(
                            event.seq)
                elif fn == "Win_start":
                    win = int(event.args["win"])
                    access_group = tuple(int(r) for r in event.args["group"])
                    for target in access_group:
                        self.starts.setdefault((rank, win, target), []).append(
                            event.seq)
                elif fn == "Win_complete":
                    win = int(event.args["win"])
                    self.complete_targets[(rank, event.seq)] = \
                        access_group or ()
                    for target in access_group or ():
                        self.completes.setdefault(
                            (rank, win, target), []).append(event.seq)
                    access_group = None
                elif fn == "Win_wait":
                    win = int(event.args["win"])
                    for origin in exposure_group or ():
                        self.waits.setdefault(
                            (rank, win, origin), []).append(event.seq)
                    exposure_group = None


def match_synchronization_object(pre: PreprocessedTrace) -> List[SyncMatch]:
    """The paper's Algorithm 1: a per-event walk.

    The progress-counter loop drives matching; per-stream cursors ensure
    each trace is consulted from its current position, never rescanned.
    """
    streams = _Streams(pre)
    events = pre.events
    totals = {r: len(events[r]) for r in range(pre.nranks)}
    pos = {r: 0 for r in range(pre.nranks)}
    matched: Dict[Tuple[int, int], SyncMatch] = {}
    matches: List[SyncMatch] = []
    # per-key cursors: how many entries of each stream are already matched
    cursors: Dict[Tuple, int] = {}
    coll_counter: Dict[int, Dict[Tuple[int, int], int]] = {}

    def progress(rank: int) -> float:
        total = totals[rank]
        return pos[rank] / total if total else 1.0

    def next_in_stream(stream_map: Dict, key: Tuple) -> Optional[int]:
        seqs = stream_map.get(key)
        cursor_key = (id(stream_map), key)
        cursor = cursors.get(cursor_key, 0)
        if seqs is None or cursor >= len(seqs):
            return None
        cursors[cursor_key] = cursor + 1
        return seqs[cursor]

    def handle(rank: int, event: CallEvent) -> None:
        fn = event.fn
        if fn in COLLECTIVE_CALLS:
            if (rank, event.seq) in matched:
                return
            comm = _effective_comm(event, pre)
            members = pre.comm_members(comm)
            match = SyncMatch(kind=KIND_COLLECTIVE, fn=fn, comm_id=comm,
                              win_id=(int(event.args["win"])
                                      if "win" in event.args else None))
            counters = coll_counter.setdefault(comm, {})
            match.index = counters.get(("n", comm), 0)
            counters[("n", comm)] = match.index + 1
            for member in members:
                seq = next_in_stream(streams.collectives, (member, comm))
                if seq is None:
                    continue  # ragged trace (rank died mid-run): partial
                member_event = _event_at(pre, member, seq)
                if member_event.fn != fn:
                    raise AnalysisError(
                        f"collective mismatch on comm {comm}: rank {rank} "
                        f"calls {fn} but rank {member} calls "
                        f"{member_event.fn} (seq {seq})")
                match.members[member] = seq
                matched[(member, seq)] = match
                if fn in NB_COLLECTIVE_CALLS:
                    req_id = int(member_event.args["req"])
                    # the first Wait on the request after it
                    waits = streams.icoll_waits.get((member, req_id), [])
                    at = bisect_right(waits, seq)
                    if at < len(waits):
                        wait_seq = waits[at]
                        match.exits[member] = wait_seq
                        matched[(member, wait_seq)] = match
            matches.append(match)
        elif fn in SEND_CALLS:
            if (rank, event.seq) in matched:
                return  # already paired from the receive side
            comm = int(event.args["comm"])
            dst = pre.world_of_comm_rank(comm, int(event.args["dest"]))
            tag = int(event.args["tag"])
            # consume my own slot in the send stream
            next_in_stream(streams.sends, (rank, dst, comm, tag))
            recv_seq = next_in_stream(streams.recvs, (dst, rank, comm, tag))
            match = SyncMatch(kind=KIND_P2P, fn=fn, comm_id=comm,
                              src=(rank, event.seq),
                              dst=((dst, recv_seq)
                                   if recv_seq is not None else None))
            matched[(rank, event.seq)] = match
            if recv_seq is not None:
                matched[(dst, recv_seq)] = match
            matches.append(match)
        elif _is_recv_endpoint(event):
            if (rank, event.seq) in matched:
                return
            comm = int(event.args["comm"])
            src = pre.world_of_comm_rank(comm, int(event.args["source"]))
            tag = int(event.args["tag"])
            next_in_stream(streams.recvs, (rank, src, comm, tag))
            send_seq = next_in_stream(streams.sends, (src, rank, comm, tag))
            send_fn = (_event_at(pre, src, send_seq).fn
                       if send_seq is not None else "Send")
            match = SyncMatch(kind=KIND_P2P, fn=send_fn, comm_id=comm,
                              src=((src, send_seq)
                                   if send_seq is not None else None),
                              dst=(rank, event.seq))
            matched[(rank, event.seq)] = match
            if send_seq is not None:
                matched[(src, send_seq)] = match
            matches.append(match)
        elif fn == "Win_post":
            win = int(event.args["win"])
            for origin in (int(r) for r in event.args["group"]):
                next_in_stream(streams.posts, (rank, win, origin))
                start_seq = next_in_stream(streams.starts,
                                           (origin, win, rank))
                match = SyncMatch(kind=KIND_POST_START, fn="Win_post",
                                  win_id=win, src=(rank, event.seq),
                                  dst=((origin, start_seq)
                                       if start_seq is not None else None))
                matches.append(match)
                matched[(rank, event.seq)] = match
        elif fn == "Win_complete":
            win = int(event.args["win"])
            for target in streams.complete_targets.get((rank, event.seq), ()):
                next_in_stream(streams.completes, (rank, win, target))
                wait_seq = next_in_stream(streams.waits, (target, win, rank))
                match = SyncMatch(kind=KIND_COMPLETE_WAIT, fn="Win_complete",
                                  win_id=win, src=(rank, event.seq),
                                  dst=((target, wait_seq)
                                       if wait_seq is not None else None))
                matches.append(match)
                matched[(rank, event.seq)] = match
        # Win_start / Win_wait are matched from the initiating side

    live = [r for r in range(pre.nranks) if totals[r] > 0]
    while live:
        rank = min(live, key=progress)
        event = events[rank][pos[rank]]
        if isinstance(event, CallEvent) and _is_sync_event(event):
            handle(rank, event)
        pos[rank] += 1
        if pos[rank] >= totals[rank]:
            live.remove(rank)
    return matches


def match_synchronization_naive(pre: PreprocessedTrace) -> List[SyncMatch]:
    """Quadratic strawman: for every sync call, scan the other traces from
    the beginning.  Produces the same collective and point-to-point
    matches as the walk; exists for the E8 ablation benchmark."""
    events = pre.events
    matched: Dict[Tuple[int, int], bool] = {}
    matches: List[SyncMatch] = []

    def scan_for(rank: int, want) -> Optional[int]:
        """First unmatched event seq at ``rank`` satisfying ``want``."""
        for event in events[rank]:  # always from the beginning (the point)
            if isinstance(event, CallEvent) and \
                    not matched.get((rank, event.seq)) and want(event):
                return event.seq
        return None

    for rank in range(pre.nranks):
        for event in events[rank]:
            if not isinstance(event, CallEvent):
                continue
            if matched.get((rank, event.seq)):
                continue
            fn = event.fn
            if fn in COLLECTIVE_CALLS:
                comm = _effective_comm(event, pre)
                match = SyncMatch(kind=KIND_COLLECTIVE, fn=fn, comm_id=comm)
                for member in pre.comm_members(comm):
                    seq = (event.seq if member == rank else scan_for(
                        member,
                        lambda e: e.fn in COLLECTIVE_CALLS and
                        _effective_comm(e, pre) == comm))
                    if seq is None:
                        continue
                    match.members[member] = seq
                    matched[(member, seq)] = True
                matches.append(match)
            elif fn in SEND_CALLS:
                comm = int(event.args["comm"])
                dst = pre.world_of_comm_rank(comm, int(event.args["dest"]))
                tag = int(event.args["tag"])
                matched[(rank, event.seq)] = True
                recv_seq = scan_for(
                    dst, lambda e: _is_recv_endpoint(e) and
                    int(e.args["comm"]) == comm and
                    int(e.args["tag"]) == tag and
                    pre.world_of_comm_rank(comm, int(e.args["source"]))
                    == rank)
                if recv_seq is not None:
                    matched[(dst, recv_seq)] = True
                matches.append(SyncMatch(
                    kind=KIND_P2P, fn=fn, comm_id=comm,
                    src=(rank, event.seq),
                    dst=(dst, recv_seq) if recv_seq is not None else None))
            elif _is_recv_endpoint(event):
                comm = int(event.args["comm"])
                src = pre.world_of_comm_rank(comm, int(event.args["source"]))
                tag = int(event.args["tag"])
                matched[(rank, event.seq)] = True
                send_seq = scan_for(
                    src, lambda e: e.fn in SEND_CALLS and
                    int(e.args["comm"]) == comm and
                    int(e.args["tag"]) == tag and
                    pre.world_of_comm_rank(comm, int(e.args["dest"]))
                    == rank)
                if send_seq is not None:
                    matched[(src, send_seq)] = True
                send_fn = (_event_at(pre, src, send_seq).fn
                           if send_seq is not None else "Send")
                matches.append(SyncMatch(
                    kind=KIND_P2P, fn=send_fn, comm_id=comm,
                    src=(src, send_seq) if send_seq is not None else None,
                    dst=(rank, event.seq)))
    return matches


def _event_at(pre: PreprocessedTrace, rank: int, seq: int) -> CallEvent:
    events = pre.events[rank]
    # per-rank seq numbers are dense when the full trace is materialized,
    # so seq often doubles as the list index
    if seq < len(events) and events[seq].seq == seq:
        event = events[seq]
    else:
        # sparse traces (call-only preprocess, filtered or hand-written):
        # per-rank seqs are still strictly increasing, so binary-search
        i = bisect_left(events, seq, key=lambda e: e.seq)
        if i == len(events) or events[i].seq != seq:
            raise AnalysisError(f"rank {rank} has no event with seq {seq}")
        event = events[i]
    if not isinstance(event, CallEvent):
        raise AnalysisError(
            f"rank {rank} seq {seq}: expected a call event")
    return event


def match_table(matches: Sequence[SyncMatch]) -> MatchTable:
    """The :class:`MatchTable` of a list of matches, in list order —
    how a test hands hand-built (or edited) matches to the consumers."""
    participants = [
        (k, role, rank, seq) for k, m in enumerate(matches)
        for role, ends in ((ROLE_MEMBER, m.members.items()),
                           (ROLE_EXIT, m.exits.items()),
                           (ROLE_SRC, [m.src] if m.src else ()),
                           (ROLE_DST, [m.dst] if m.dst else ()))
        for rank, seq in ends]
    return MatchTable(
        [KINDS.index(m.kind) for m in matches],
        [fn_code(m.fn) for m in matches],
        [-1 if m.comm_id is None else m.comm_id for m in matches],
        [-1 if m.win_id is None else m.win_id for m in matches],
        [m.index for m in matches],
        *(np.array(participants, dtype=np.int64).reshape(-1, 4).T))


# ----------------------------------------------------------------------
# the per-rank dict walk
# ----------------------------------------------------------------------

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


def match_synchronization_dict(pre: PreprocessedTrace) -> List[SyncMatch]:
    """Match all synchronization calls — Algorithm 1 over the per-rank
    :class:`~repro.core.calltable.CallTable` views, rank by rank.

    Collectives by per-communicator slot index, point-to-point as
    per-(src, dst, comm, tag)-channel FIFO zips, PSCW by per-(rank,
    window, peer)-channel occurrence index.  The match *set* is the one
    the paper's progress-counter walk produces, listed in the order of
    production's :class:`~repro.core.matching.MatchTable` — the
    exact-order oracle of the differential.
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
    icoll_waits: Dict[Tuple[int, int], List[int]] = {}
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
                if rank not in pre.comm_members(int(c)):
                    raise AnalysisError(
                        f"collective event {FN_NAMES[int(fns[m][0])]} "
                        f"(rank {rank}, seq {int(seqs[m][0])}) is on comm "
                        f"{int(c)}, which does not include rank {rank}")
                coll.setdefault(int(c), {})[rank] = (
                    seqs[m].tolist(), fns[m].tolist(), wins[m].tolist(),
                    reqs[m].tolist())

        idx = np.nonzero(cls == CLS_ICOLL_WAIT)[0]
        if idx.size:
            for i in idx.tolist():
                icoll_waits.setdefault((rank, int(t.req[i])),
                                       []).append(int(t.seq[i]))

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
                    # the first Wait on the request after it
                    completions = icoll_waits.get((member, s[3][k]), [])
                    at = bisect_right(completions, s[0][k])
                    if at < len(completions):
                        match.exits[member] = completions[at]
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
