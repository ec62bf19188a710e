"""Epoch identification (section IV-C-3, first half).

An epoch is the completion unit of RMA operations: it starts at an RMA
synchronization call and ends at the matching one.  Per rank and window,
DN-Analyzer recognizes:

* **fence epochs** — between consecutive ``Win_fence`` calls (each fence
  closes the previous epoch and opens the next; ``Win_free`` closes the
  last);
* **lock epochs** — ``Win_lock(target)`` .. ``Win_unlock(target)``,
  carrying the lock type (the exclusive/shared distinction decides
  error-vs-warning severity later), and ``Win_lock_all`` ..
  ``Win_unlock_all``, a shared lock of every target;
* **PSCW access epochs** — ``Win_start(group)`` .. ``Win_complete``;
* **PSCW exposure epochs** — ``Win_post(group)`` .. ``Win_wait``.

:class:`EpochIndex` holds them as columns (:data:`EpochColumns`), built
from the trace set's call table with array operations only.  *The pairing
rule*: the epoch calls are grouped by what their running state is keyed
on — ``(rank, window)``, for locks ``(rank, window, target)`` with
``lock_all`` as the target "every rank" — and within a group, in trace
order, a closing call ends the epoch opened by the row just before it.
An open followed by an open is dropped (only the later one can still be
closed), a close that does not follow an open is an
:class:`AnalysisError` (``Win_free`` excepted), an open that ends its
group stays :data:`OPEN_ENDED`.  *The order*: per rank by closing call,
then the rank's never-closed epochs — fence, lock, PSCW access, PSCW
exposure, each class by the call that began its group's last run of
opens.  ``epochs`` is the same as objects, an :class:`Epoch` built for
the row that is indexed.  The per-rank state machine this replaced is
the oracle in ``tests/reference/epochs.py``.

The epoch an RMA operation belongs to — one rule, one implementation
(:meth:`EpochIndex.enclosing_rows`): among the access epochs of its rank
and window whose interior contains the issue point and that cover the
target, lock and PSCW epochs come before fence epochs (they are more
specific), and within a class the latest opened wins.  A correct
execution has one candidate; overlapping lock and PSCW epochs to one
target, or a truncated trace, have several.  The operation's memory
effects may occur anywhere up to its completion (its *span*): the
epoch's closing call, or earlier the first MPI-3 flush covering its
target or the wait on its request (:meth:`EpochIndex.completion_rows`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.calltable import (
    FN_NAMES, LOCK_EXCLUSIVE, LOCK_NAMES, LOCK_OTHER, ensure_call_table,
    per_fn,
)
from repro.core.preprocess import PreprocessedTrace
from repro.core.views import Views, remembered
from repro.util.errors import AnalysisError
from repro.util.intervals import (
    IntervalTable, expand_ranges, group_ids, grouped_searchsorted,
    overlap_join,
)

#: Sentinel close for epochs never closed in the trace (program ended or
#: crashed mid-epoch): orders after every real seq.
OPEN_ENDED = 1 << 60

KIND_FENCE = "fence"
KIND_LOCK = "lock"
KIND_PSCW_ACCESS = "pscw_access"
KIND_PSCW_EXPOSURE = "pscw_exposure"
EPOCH_KINDS = (KIND_FENCE, KIND_LOCK, KIND_PSCW_ACCESS, KIND_PSCW_EXPOSURE)
_FENCE, _LOCK, _ACCESS, _EXPOSURE = range(4)
_EXCLUSIVE = LOCK_NAMES[LOCK_EXCLUSIVE]

#: :attr:`EpochIndex.columns`: ``kind`` indexes :data:`EPOCH_KINDS`, ``target``
#: is :data:`NO_TARGET` for ``None``, ``lock`` indexes ``lock_types``, and
#: ``group_val`` holds the groups back to back (``group_len`` each)
EpochColumns = namedtuple(
    "EpochColumns", "rank win kind open_seq close_seq target lock "
                    "group_len group_val lock_types")
NO_TARGET = -(1 << 63)

#: MPI-3 completion points short of an epoch close, in (rank, trace)
#: order: flushes (``target`` is :data:`NO_TARGET` for ``Win_flush_all``)
#: and the waits on request-based operations
FlushColumns = namedtuple("FlushColumns", "rank win seq target")
WaitColumns = namedtuple("WaitColumns", "rank win req seq")

#: what the pairing reads of a call, as bits: the kind of epoch it opens
#: or closes (the low two), whether it opens one, closes one — and then
#: must find one open — or names every target; the two completion points
_OPENS, _CLOSES, _MUST_CLOSE, _ALL, _FLUSH, _WAIT = 4, 8, 16, 32, 64, 128
_ROLES = {
    "Win_fence": _FENCE | _OPENS | _CLOSES,
    "Win_free": _FENCE | _CLOSES,
    "Win_lock": _LOCK | _OPENS,
    "Win_lock_all": _LOCK | _OPENS | _ALL,
    "Win_unlock": _LOCK | _CLOSES | _MUST_CLOSE,
    "Win_unlock_all": _LOCK | _CLOSES | _MUST_CLOSE | _ALL,
    "Win_start": _ACCESS | _OPENS,
    "Win_complete": _ACCESS | _CLOSES | _MUST_CLOSE,
    "Win_post": _EXPOSURE | _OPENS,
    "Win_wait": _EXPOSURE | _CLOSES | _MUST_CLOSE,
    "Win_flush": _FLUSH,
    "Win_flush_all": _FLUSH | _ALL,
    "Rma_wait": _WAIT,
}
#: what the call a must-close call did not find would have been
_OPENER = {"Win_unlock": "Win_lock", "Win_unlock_all": "Win_lock_all",
           "Win_complete": "Win_start", "Win_wait": "Win_post"}


@dataclass
class Epoch:
    """One epoch at one rank on one window."""

    rank: int
    win_id: int
    kind: str
    open_seq: int
    close_seq: int = OPEN_ENDED
    target: Optional[int] = None  # lock epochs: the locked target
    lock_type: Optional[str] = None
    group: Tuple[int, ...] = ()  # PSCW epochs: the partner group

    def contains_seq(self, seq: int) -> bool:
        return self.open_seq < seq < self.close_seq

    def covers_target(self, target: int) -> bool:
        if self.kind == KIND_FENCE:
            return True
        if self.kind == KIND_LOCK:
            # ``target is None`` marks an MPI-3 lock_all epoch
            return self.target is None or self.target == target
        if self.kind == KIND_PSCW_ACCESS:
            return target in self.group
        return False

    @property
    def is_access(self) -> bool:
        return self.kind in (KIND_FENCE, KIND_LOCK, KIND_PSCW_ACCESS)

    @property
    def exclusive(self) -> bool:
        """An exclusive lock epoch: what it holds is serialized against
        any other exclusive holder of the target, in no fixed order."""
        return self.kind == KIND_LOCK and self.lock_type == _EXCLUSIVE

    def describe(self) -> str:
        close = "<open>" if self.close_seq == OPEN_ENDED else self.close_seq
        extra = ""
        if self.kind == KIND_LOCK:
            extra = f" target={self.target} type={self.lock_type}"
        elif self.group:
            extra = f" group={list(self.group)}"
        return (f"{self.kind} epoch win={self.win_id} rank={self.rank} "
                f"[{self.open_seq}..{close}]{extra}")


class EpochIndex:
    """All epochs of a preprocessed trace, as columns and — a row at a
    time — as objects, with lookup by op issue point."""

    def __init__(self, pre: PreprocessedTrace):
        self.nranks = pre.nranks
        self._build(pre)
        self._group_start = np.concatenate(
            [[0], np.cumsum(self.columns.group_len)])
        #: the same as :class:`Epoch` objects, each built when indexed
        self.epochs = Views(len(self.columns.rank),
                            remembered(self._epoch, "epoch"))

    def _build(self, pre: PreprocessedTrace) -> None:
        """The module's pairing rule: ``columns``, ``flushes`` and
        ``req_waits`` off the trace set's call table."""
        calls = ensure_call_table(pre)
        role = per_fn(_ROLES, 0)[calls.fn]
        row = np.nonzero(role)[0]
        role = role[row]
        rank, seq, win = calls.ranks[row], calls.seq[row], calls.win[row]
        target = np.where(role & _ALL, NO_TARGET, calls.target[row])
        flush, wait = np.nonzero(role & _FLUSH)[0], np.nonzero(role & _WAIT)[0]
        self.flushes = FlushColumns(rank[flush], win[flush], seq[flush],
                                    target[flush])
        self.req_waits = WaitColumns(rank[wait], win[wait],
                                     calls.req[row[wait]], seq[wait])

        # the calls that pair, grouped by the state they touch with the
        # trace order kept: ``before`` is the row just ahead of each in
        # its group, ``last`` marks the row that ends one
        kind = role & 3
        keys = (np.where(kind == _LOCK, target, 0), win, rank * 4 + kind)
        order = np.lexsort(keys)
        order = order[(role[order] & (_OPENS | _CLOSES)) > 0]
        ahead, behind = order[:-1], order[1:]
        same = np.ones(len(ahead), dtype=bool)
        for key in keys:
            same &= key[ahead] == key[behind]
        before = np.full(len(row), -1, dtype=np.int64)
        before[behind[same]] = ahead[same]
        last = np.ones(len(row), dtype=bool)
        last[ahead[same]] = False
        opens = (role & _OPENS) > 0
        paired = ((role & _CLOSES) > 0) & (before >= 0) & opens[before]
        stray = np.nonzero(((role & _MUST_CLOSE) > 0) & ~paired)[0]
        if len(stray):
            k = stray[0]
            fn = FN_NAMES[calls.fn[row[k]]]
            whom = f" of target {target[k]}" if fn == "Win_unlock" else ""
            raise AnalysisError(
                f"rank {rank[k]} seq {seq[k]}: {fn}{whom} without "
                f"matching {_OPENER[fn]}")
        closing = np.nonzero(paired)[0]
        left = np.nonzero(opens & last)[0]
        if len(left):
            # never closed: by class, then by the call that began the
            # run of opens each one ends
            run = opens[order]
            run[1:] &= ~(same & opens[ahead])
            began = np.maximum.accumulate(
                np.where(run, np.arange(len(order)), 0))
            first = np.empty(len(row), dtype=np.int64)
            first[order] = order[began]
            left = left[np.lexsort((first[left], kind[left]))]
        opening = np.concatenate([before[closing], left])
        close_seq = np.concatenate(
            [seq[closing], np.full(len(left), OPEN_ENDED)])
        by_rank = np.argsort(rank[opening], kind="stable")
        opening, close_seq = opening[by_rank], close_seq[by_rank]

        kind, at = kind[opening], row[opening]
        lock, lock_types = _lock_types(calls, at)
        off = calls.group_off
        group_len = off[at + 1] - off[at]
        _owner, member = expand_ranges(off[at], group_len)
        #: every epoch, in index order, as parallel int64 arrays plus
        #: the lock-type strings the ``lock`` codes index (``None``
        #: first) — what the op table, the shard plan and the
        #: incremental hashes read
        self.columns = EpochColumns(
            rank[opening], win[opening], kind, seq[opening], close_seq,
            np.where(kind == _LOCK, target[opening], NO_TARGET), lock,
            group_len, calls.group_val[member], lock_types)

    def _epoch(self, k: int) -> Epoch:
        """Row ``k`` as an object: the one place one is constructed."""
        cols, start = self.columns, self._group_start
        rank, win, kind, open_seq, close_seq, target, lock = (
            int(col[k]) for col in cols[:7])
        return Epoch(
            rank, win, EPOCH_KINDS[kind], open_seq, close_seq,
            None if target == NO_TARGET else target, cols.lock_types[lock],
            tuple(cols.group_val[start[k]:start[k + 1]].tolist()))

    def enclosing(self, rank: int, win_id: int, seq: int,
                  target: int) -> Optional[Epoch]:
        """The access epoch an RMA op issued at ``seq`` belongs to:
        :meth:`enclosing_rows` for one call."""
        row = self.enclosing_rows(
            *np.array([[rank], [win_id], [seq], [target]]))[0]
        return self.epochs[row] if row >= 0 else None

    def enclosing_rows(self, rank: np.ndarray, win: np.ndarray,
                       seq: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The module's rule for columns of calls: the index into
        ``epochs`` of each call's epoch, -1 for none.  One grouped join
        of the issue points against the epoch interiors finds the
        candidates, one sort ranks them."""
        cols = self.columns
        out = np.full(len(seq), -1, dtype=np.int64)
        if not len(seq) or not len(cols.rank):
            return out
        group = group_ids(np.concatenate([cols.rank, rank]),
                          np.concatenate([cols.win, win]))
        n = len(cols.rank)
        # interiors clipped to the issue points' range: the join's keys
        # stay small however far an open-ended epoch reaches
        call, epoch = overlap_join(
            IntervalTable(seq, seq + 1, group=group[n:]),
            IntervalTable(cols.open_seq + 1,
                          np.minimum(cols.close_seq, int(seq.max()) + 1),
                          group=group[:n]))
        kind, locked = cols.kind[epoch], cols.target[epoch]
        member = np.zeros(len(epoch), dtype=bool)
        started = np.nonzero(kind == _ACCESS)[0]
        if len(started):
            # (epoch, target) among the (epoch, group member) pairs, the
            # ranks on either side numbered densely: any value keys
            ranks, number = np.unique(
                np.concatenate([target[call[started]], cols.group_val]),
                return_inverse=True)
            member[started] = np.isin(
                epoch[started] * len(ranks) + number[:len(started)],
                np.repeat(np.arange(n), cols.group_len) * len(ranks)
                + number[len(started):])
        keep = (kind == _FENCE) | member | (
            (kind == _LOCK)
            & ((locked == NO_TARGET) | (locked == target[call])))
        call, epoch = call[keep], epoch[keep]
        order = np.lexsort((cols.open_seq[epoch], cols.kind[epoch] != _FENCE,
                            call))
        call, epoch = call[order], epoch[order]
        best = np.ones(len(call), dtype=bool)
        best[:-1] = call[1:] != call[:-1]
        out[call[best]] = epoch[best]
        return out

    def completion_rows(self, rank: np.ndarray, win: np.ndarray,
                        seq: np.ndarray, target: np.ndarray,
                        epoch: np.ndarray, req: np.ndarray,
                        has_req: np.ndarray) -> np.ndarray:
        """When each op of the columns is guaranteed complete: its
        epoch's closing synchronization (``epoch`` indexes ``epochs``,
        -1 for none), or earlier the wait on its request (``has_req``
        marks the request-based ops; the last ``Rma_wait`` naming a
        request counts) or the first flush after the issue that covers
        the target."""
        close = np.full(len(seq), OPEN_ENDED, dtype=np.int64)
        inside = epoch >= 0
        close[inside] = self.columns.close_seq[epoch[inside]]
        waits = self.req_waits
        if has_req.any() and len(waits.seq):
            asked = np.nonzero(has_req)[0]
            ids = group_ids(np.concatenate([waits.rank, rank[asked]]),
                            np.concatenate([waits.win, win[asked]]),
                            np.concatenate([waits.req, req[asked]]))
            n = len(waits.seq)
            last = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
            # trace order within a rank: the later wait overwrites
            order = np.argsort(ids[:n], kind="stable")
            final = np.ones(n, dtype=bool)
            final[:-1] = ids[order][1:] != ids[order][:-1]
            last[ids[order][final]] = waits.seq[order][final]
            wait = last[ids[n:]]
            hit = (wait > seq[asked]) & (wait < close[asked])
            close[asked[hit]] = wait[hit]
        flushes = self.flushes
        for everyone in (True, False):
            mine = (flushes.target == NO_TARGET) == everyone
            if not mine.any():
                continue
            columns = [np.concatenate([flushes.rank[mine], rank]),
                       np.concatenate([flushes.win[mine], win])]
            if not everyone:
                columns.append(np.concatenate([flushes.target[mine],
                                               target]))
            ids = group_ids(*columns)
            n = int(mine.sum())
            order = np.lexsort((flushes.seq[mine], ids[:n]))
            group, at = ids[:n][order], flushes.seq[mine][order]
            nxt = np.minimum(grouped_searchsorted(
                group, at, ids[n:], seq, side="right"), n - 1)
            hit = (group[nxt] == ids[n:]) & (at[nxt] > seq) \
                & (at[nxt] < close)
            close[hit] = at[nxt][hit]
        return close


class LocalLockIndex:
    """Which local accesses are protected by a self-targeted exclusive lock.

    Per ``(rank, win)`` the qualifying lock epochs are disjoint (a second
    ``Win_lock`` of the same window/target before the unlock replaces the
    open epoch, which is then never indexed), so their opens — one mask
    over the epoch columns, sorted by ``(rank, win, open seq)`` — answer
    each query with one ``bisect`` instead of a scan over every epoch.
    """

    def __init__(self, epoch_index: EpochIndex):
        cols = epoch_index.columns
        exclusive = np.array([name == _EXCLUSIVE for name in cols.lock_types])
        mine = np.nonzero((cols.kind == _LOCK) & (cols.target == cols.rank)
                          & exclusive[cols.lock])[0]
        mine = mine[np.lexsort((cols.open_seq[mine], cols.win[mine],
                                cols.rank[mine]))]
        self._opens: List[Tuple[int, int, int]] = list(zip(
            cols.rank[mine].tolist(), cols.win[mine].tolist(),
            cols.open_seq[mine].tolist()))
        self._closes: List[int] = cols.close_seq[mine].tolist()

    def covers(self, la, win_id: int) -> bool:
        """Whether the local access ``la`` lies inside such an epoch of
        window ``win_id``."""
        # last epoch of the window opening strictly before la.seq
        # (contains_seq is exclusive on both bounds)
        i = bisect_right(self._opens, (la.rank, win_id, la.seq - 1)) - 1
        return i >= 0 and self._opens[i][:2] == (la.rank, win_id) \
            and la.seq < self._closes[i]


def _lock_types(calls, rows: np.ndarray) -> Tuple[np.ndarray, list]:
    """The lock types of the call table rows ``rows`` as the ``lock`` /
    ``lock_types`` pair of :data:`EpochColumns`: the strings numbered in
    order of first appearance, ``None`` (no lock call) first."""
    code = calls.lock[rows].astype(np.int64)
    names = list(LOCK_NAMES)
    other = np.nonzero(code == LOCK_OTHER)[0]
    if len(other):
        # neither shared nor exclusive: told apart by the text logged
        texts, which = np.unique(
            [calls.lock_types[k] for k in rows[other].tolist()],
            return_inverse=True)
        code[other] = len(names) + which
        names += texts.tolist()
    locked = np.nonzero(code)[0]
    used, first = np.unique(code[locked], return_index=True)
    used = np.concatenate([[0], used[np.argsort(first)]])
    number = np.zeros(len(names), dtype=np.int64)
    number[used] = np.arange(len(used))
    return number[code], [names[k] for k in used.tolist()]
