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

Production (:func:`repro.core.matching.match_synchronization`) computes
the same match set from call-table columns; the differential tests
compare it against both.  The logic here is the former
``repro.core.matching`` object walk, moved unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.calltable import SEND_CALLS
from repro.core.matching import (
    KIND_COLLECTIVE, KIND_COMPLETE_WAIT, KIND_P2P, KIND_POST_START,
    SyncMatch,
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
        # (rank, req) -> seq of the Wait completing a nonblocking collective
        self.icoll_waits: Dict[Tuple[int, int], int] = {}
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
                    self.collectives.setdefault((rank, comm), []).append(
                        event.seq)
                elif fn == "Wait" and \
                        event.args.get("req_kind") == "icoll":
                    self.icoll_waits[(rank, int(event.args["req"]))] = \
                        event.seq
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
                    wait_seq = streams.icoll_waits.get((member, req_id))
                    if wait_seq is not None:
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
