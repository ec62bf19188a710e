"""Epoch identification (section IV-C-3, first half).

An epoch is the completion unit of RMA operations: it starts at an RMA
synchronization call and ends at the matching one.  Per rank and window,
DN-Analyzer recognizes:

* **fence epochs** — between consecutive ``Win_fence`` calls (each fence
  closes the previous epoch and opens the next);
* **lock epochs** — ``Win_lock(target)`` .. ``Win_unlock(target)``,
  carrying the lock type (the exclusive/shared distinction decides
  error-vs-warning severity later);
* **PSCW access epochs** — ``Win_start(group)`` .. ``Win_complete``;
* **PSCW exposure epochs** — ``Win_post(group)`` .. ``Win_wait``.

The epoch an RMA operation belongs to — one rule, stated here and
implemented twice (:meth:`EpochIndex.enclosing` for one call,
:meth:`EpochIndex.enclosing_rows` for columns of them): among the access
epochs of its rank and window whose interior contains the issue point
and that cover the target, lock and PSCW epochs come before fence epochs
(they are more specific), and within a class the latest opened wins.  A
correct execution has one candidate; overlapping lock and PSCW epochs to
one target, or a truncated trace, have several.  The operation's memory
effects may occur anywhere up to its completion (its *span*): the
epoch's closing call, or earlier the first MPI-3 flush covering its
target or the wait on its request (:meth:`EpochIndex.completion_rows`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.calltable import ensure_call_tables, fn_code
from repro.core.preprocess import PreprocessedTrace
from repro.util.errors import AnalysisError
from repro.util.intervals import (
    IntervalTable, group_ids, grouped_searchsorted, overlap_join,
)

#: the calls the epoch state machine reads — everything else is skipped
_EPOCH_FNS = ("Win_fence", "Win_free", "Win_lock", "Win_lock_all",
              "Win_unlock_all", "Win_flush", "Win_flush_all", "Rma_wait",
              "Win_unlock", "Win_start", "Win_complete", "Win_post",
              "Win_wait")

#: Sentinel close for epochs never closed in the trace (program ended or
#: crashed mid-epoch): orders after every real seq.
OPEN_ENDED = 1 << 60

KIND_FENCE = "fence"
KIND_LOCK = "lock"
KIND_PSCW_ACCESS = "pscw_access"
KIND_PSCW_EXPOSURE = "pscw_exposure"
_KINDS = (KIND_FENCE, KIND_LOCK, KIND_PSCW_ACCESS, KIND_PSCW_EXPOSURE)

#: :meth:`EpochIndex.columns`: ``kind`` indexes :data:`_KINDS`, ``target``
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
    """All epochs of a preprocessed trace, with lookup by op issue point."""

    def __init__(self, pre: PreprocessedTrace):
        self.nranks = pre.nranks
        self.epochs: List[Epoch] = []
        # (rank, win) -> epochs at that rank/window, in close order
        self._by_rank_win: Dict[Tuple[int, int], List[Epoch]] = {}
        flushes: List[Tuple[int, int, int, int]] = []
        waits: List[Tuple[int, int, int, int]] = []
        self._build(pre, flushes, waits)
        self.flushes = FlushColumns(*_columns(flushes, 4))
        self.req_waits = WaitColumns(*_columns(waits, 4))

    def _add(self, epoch: Epoch) -> None:
        self.epochs.append(epoch)
        self._by_rank_win.setdefault((epoch.rank, epoch.win_id), []) \
            .append(epoch)

    def _build(self, pre: PreprocessedTrace, flushes: list,
               waits: list) -> None:
        """A mask selects each rank's epoch-relevant call-table rows;
        the sequential per-window state machine runs over just those."""
        tables = ensure_call_tables(pre)
        names = {fn_code(fn): fn for fn in _EPOCH_FNS}
        codes = np.asarray(sorted(names), dtype=np.int64)
        for rank in range(pre.nranks):
            t = tables.get(rank)
            # per-window running state
            fence_open: Dict[int, int] = {}
            lock_open: Dict[Tuple[int, Optional[int]], Epoch] = {}
            pscw_access: Dict[int, Epoch] = {}
            pscw_exposure: Dict[int, Epoch] = {}
            if t is not None and t.n:
                idx = np.nonzero(np.isin(t.fn, codes))[0]
                # single bulk extraction: python-int lists beat
                # per-element numpy scalar indexing in the loop below
                l_fn = t.fn[idx].tolist()
                l_seq = t.seq[idx].tolist()
                l_win = t.win[idx].tolist()
                l_target = t.target[idx].tolist()
                l_req = t.req[idx].tolist()
                rows = idx.tolist()
            else:
                rows = []
            for k, i in enumerate(rows):
                fn = names[l_fn[k]]
                seq = l_seq[k]
                win = l_win[k]
                if fn == "Win_fence":
                    if win in fence_open:
                        self._add(Epoch(rank, win, KIND_FENCE,
                                        open_seq=fence_open[win],
                                        close_seq=seq))
                    fence_open[win] = seq
                elif fn == "Win_free":
                    if win in fence_open:
                        # final fence epoch closes at Win_free
                        self._add(Epoch(rank, win, KIND_FENCE,
                                        open_seq=fence_open.pop(win),
                                        close_seq=seq))
                elif fn == "Win_lock":
                    target = l_target[k]
                    lock_open[(win, target)] = Epoch(
                        rank, win, KIND_LOCK, open_seq=seq, target=target,
                        lock_type=t.lock_type(i))
                elif fn == "Win_lock_all":
                    lock_open[(win, None)] = Epoch(
                        rank, win, KIND_LOCK, open_seq=seq, target=None,
                        lock_type="shared")
                elif fn == "Win_unlock_all":
                    epoch = lock_open.pop((win, None), None)
                    if epoch is None:
                        raise AnalysisError(
                            f"rank {rank} seq {seq}: Win_unlock_all "
                            "without matching Win_lock_all")
                    epoch.close_seq = seq
                    self._add(epoch)
                elif fn == "Win_flush":
                    flushes.append((rank, win, seq, l_target[k]))
                elif fn == "Win_flush_all":
                    flushes.append((rank, win, seq, NO_TARGET))
                elif fn == "Rma_wait":
                    waits.append((rank, win, l_req[k], seq))
                elif fn == "Win_unlock":
                    target = l_target[k]
                    epoch = lock_open.pop((win, target), None)
                    if epoch is None:
                        raise AnalysisError(
                            f"rank {rank} seq {seq}: Win_unlock of "
                            f"target {target} without matching Win_lock")
                    epoch.close_seq = seq
                    self._add(epoch)
                elif fn == "Win_start":
                    pscw_access[win] = Epoch(
                        rank, win, KIND_PSCW_ACCESS, open_seq=seq,
                        group=t.group(i))
                elif fn == "Win_complete":
                    epoch = pscw_access.pop(win, None)
                    if epoch is None:
                        raise AnalysisError(
                            f"rank {rank} seq {seq}: Win_complete "
                            "without matching Win_start")
                    epoch.close_seq = seq
                    self._add(epoch)
                elif fn == "Win_post":
                    pscw_exposure[win] = Epoch(
                        rank, win, KIND_PSCW_EXPOSURE, open_seq=seq,
                        group=t.group(i))
                else:  # Win_wait
                    epoch = pscw_exposure.pop(win, None)
                    if epoch is None:
                        raise AnalysisError(
                            f"rank {rank} seq {seq}: Win_wait without "
                            "matching Win_post")
                    epoch.close_seq = seq
                    self._add(epoch)
            # unterminated epochs (crashed/truncated programs) stay open
            for win, open_seq in fence_open.items():
                self._add(Epoch(rank, win, KIND_FENCE, open_seq=open_seq))
            for epoch in lock_open.values():
                self._add(epoch)
            for epoch in pscw_access.values():
                self._add(epoch)
            for epoch in pscw_exposure.values():
                self._add(epoch)

    # ------------------------------------------------------------------

    def of_rank_win(self, rank: int, win_id: int) -> List[Epoch]:
        return self._by_rank_win.get((rank, win_id), [])

    def enclosing(self, rank: int, win_id: int, seq: int,
                  target: int) -> Optional[Epoch]:
        """The access epoch an RMA op issued at ``seq`` belongs to (the
        module's rule, for one call)."""
        best: Optional[Epoch] = None
        for epoch in self.of_rank_win(rank, win_id):
            if epoch.is_access and epoch.contains_seq(seq) \
                    and epoch.covers_target(target) \
                    and (best is None
                         or _precedence(epoch) > _precedence(best)):
                best = epoch
        return best

    def enclosing_rows(self, rank: np.ndarray, win: np.ndarray,
                       seq: np.ndarray, target: np.ndarray) -> np.ndarray:
        """:meth:`enclosing` for columns of calls: the index into
        ``epochs`` of each call's epoch, -1 for none.  One grouped join
        of the issue points against the epoch interiors finds the
        candidates, one sort ranks them.  ``target`` must lie in ``[0,
        nranks)``."""
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
        started = kind == _KINDS.index(KIND_PSCW_ACCESS)
        if started.any():
            owner = np.repeat(np.arange(n), cols.group_len)
            inside = (cols.group_val >= 0) & (cols.group_val < self.nranks)
            member[started] = np.isin(
                epoch[started] * self.nranks + target[call[started]],
                owner[inside] * self.nranks + cols.group_val[inside])
        keep = (kind == _KINDS.index(KIND_FENCE)) | member | (
            (kind == _KINDS.index(KIND_LOCK))
            & ((locked == NO_TARGET) | (locked == target[call])))
        call, epoch = call[keep], epoch[keep]
        order = np.lexsort((cols.open_seq[epoch],
                            cols.kind[epoch] != _KINDS.index(KIND_FENCE),
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

    def access_epochs(self) -> List[Epoch]:
        return [e for e in self.epochs if e.is_access]

    @cached_property
    def columns(self) -> "EpochColumns":
        """Every epoch, in index order, as parallel int64 arrays plus the
        list of lock-type strings the ``lock`` codes index (``None``
        first) — the shape the shard plan groups epochs in and the
        incremental checker hashes them in (built once: 8 passes over
        every epoch)."""
        epochs = self.epochs
        lock_types: Dict[Optional[str], int] = {None: 0}
        group_len = np.fromiter((len(e.group) for e in epochs), np.int64,
                                len(epochs))
        return EpochColumns(
            *(np.fromiter(values, np.int64, len(epochs)) for values in (
                (e.rank for e in epochs), (e.win_id for e in epochs),
                (_KINDS.index(e.kind) for e in epochs),
                (e.open_seq for e in epochs), (e.close_seq for e in epochs),
                (NO_TARGET if e.target is None else e.target
                 for e in epochs),
                (lock_types.setdefault(e.lock_type, len(lock_types))
                 for e in epochs))),
            group_len,
            np.fromiter((r for e in epochs for r in e.group), np.int64,
                        int(group_len.sum())),
            list(lock_types))


def _precedence(epoch: Epoch) -> Tuple[bool, int]:
    """The rule's order among an op's candidate epochs: lock / PSCW
    before fence, then the latest opened."""
    return epoch.kind != KIND_FENCE, epoch.open_seq


def _columns(rows: List[tuple], width: int) -> List[np.ndarray]:
    return list(np.array(rows, dtype=np.int64).reshape(len(rows), width).T)
