"""Reference epoch and region builders — the per-object walks.

Test oracles, not production: nothing under ``src/`` imports this
module.  Production pairs every closing call with the row before it in
its group as array operations (:mod:`repro.core.epochs`) and cuts the
regions with one scatter (:mod:`repro.core.regions`); here are the
walks they replaced, moved unchanged:

* :class:`ReferenceEpochIndex` — the per-rank state machine of section
  IV-C-3: one :class:`~repro.core.epochs.Epoch` appended per epoch, the
  running state (``fence_open``, ``lock_open``, ...) in dicts, the
  columns read back off the objects in eight passes;
* :func:`enclosing` / :func:`of_rank_win` / :func:`access_epochs` — the
  per-call walk of the epoch rule over any index's ``epochs`` (the
  production index's lazy sequence included: its views are remembered,
  so identity comparisons hold), the referee for
  ``EpochIndex.enclosing_rows``;
* :class:`ReferenceRegionIndex` — the cut matrix filled cell by cell,
  one :class:`~repro.core.regions.Region` with a per-rank bounds dict
  per region, span lookup by scalar bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calltable import (
    LOCK_NAMES, LOCK_OTHER, ensure_call_tables, fn_code,
)
from repro.core.clocks import Span
from repro.core.epochs import (
    EPOCH_KINDS, KIND_FENCE, KIND_LOCK, KIND_PSCW_ACCESS, KIND_PSCW_EXPOSURE,
    NO_TARGET, Epoch, EpochColumns, FlushColumns, WaitColumns,
)
from repro.core.matching import SyncMatch
from repro.core.preprocess import PreprocessedTrace
from repro.core.regions import Region
from repro.util.errors import AnalysisError

#: the calls the epoch state machine reads — everything else is skipped
_EPOCH_FNS = ("Win_fence", "Win_free", "Win_lock", "Win_lock_all",
              "Win_unlock_all", "Win_flush", "Win_flush_all", "Rma_wait",
              "Win_unlock", "Win_start", "Win_complete", "Win_post",
              "Win_wait")


class ReferenceEpochIndex:
    """All epochs of a preprocessed trace, one object each, in the
    order the walk closes them."""

    def __init__(self, pre: PreprocessedTrace):
        self.nranks = pre.nranks
        self.epochs: List[Epoch] = []
        flushes: List[Tuple[int, int, int, int]] = []
        waits: List[Tuple[int, int, int, int]] = []
        self._build(pre, flushes, waits)
        self.flushes = FlushColumns(*_columns(flushes, 4))
        self.req_waits = WaitColumns(*_columns(waits, 4))

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
                        self.epochs.append(Epoch(
                            rank, win, KIND_FENCE,
                            open_seq=fence_open[win], close_seq=seq))
                    fence_open[win] = seq
                elif fn == "Win_free":
                    if win in fence_open:
                        # final fence epoch closes at Win_free
                        self.epochs.append(Epoch(
                            rank, win, KIND_FENCE,
                            open_seq=fence_open.pop(win), close_seq=seq))
                elif fn == "Win_lock":
                    target = l_target[k]
                    lock_open[(win, target)] = Epoch(
                        rank, win, KIND_LOCK, open_seq=seq, target=target,
                        lock_type=_lock_type(t, i))
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
                    self.epochs.append(epoch)
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
                    self.epochs.append(epoch)
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
                    self.epochs.append(epoch)
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
                    self.epochs.append(epoch)
            # unterminated epochs (crashed/truncated programs) stay open
            for win, open_seq in fence_open.items():
                self.epochs.append(
                    Epoch(rank, win, KIND_FENCE, open_seq=open_seq))
            for epoch in lock_open.values():
                self.epochs.append(epoch)
            for epoch in pscw_access.values():
                self.epochs.append(epoch)
            for epoch in pscw_exposure.values():
                self.epochs.append(epoch)

    @property
    def columns(self) -> EpochColumns:
        """Every epoch, in index order, as parallel int64 arrays plus the
        list of lock-type strings the ``lock`` codes index (``None``
        first), read off the objects."""
        epochs = self.epochs
        lock_types: Dict[Optional[str], int] = {None: 0}
        group_len = np.fromiter((len(e.group) for e in epochs), np.int64,
                                len(epochs))
        return EpochColumns(
            *(np.fromiter(values, np.int64, len(epochs)) for values in (
                (e.rank for e in epochs), (e.win_id for e in epochs),
                (EPOCH_KINDS.index(e.kind) for e in epochs),
                (e.open_seq for e in epochs), (e.close_seq for e in epochs),
                (NO_TARGET if e.target is None else e.target
                 for e in epochs),
                (lock_types.setdefault(e.lock_type, len(lock_types))
                 for e in epochs))),
            group_len,
            np.fromiter((r for e in epochs for r in e.group), np.int64,
                        int(group_len.sum())),
            list(lock_types))


def _lock_type(t, i: int) -> Optional[str]:
    """The lock type row ``i`` of a call table logged."""
    code = int(t.lock[i])
    return t.lock_types[i] if code == LOCK_OTHER else LOCK_NAMES[code]


def _columns(rows: List[tuple], width: int) -> List[np.ndarray]:
    return list(np.array(rows, dtype=np.int64).reshape(len(rows), width).T)


# ----------------------------------------------------------------------
# the epoch rule, one call at a time
# ----------------------------------------------------------------------


def of_rank_win(index, rank: int, win_id: int) -> List[Epoch]:
    """The epochs of one rank on one window, in index order (``index``:
    anything with ``epochs``; filed once per index)."""
    filed = index.__dict__.get("_reference_by_rank_win")
    if filed is None:
        filed = index.__dict__["_reference_by_rank_win"] = {}
        for epoch in index.epochs:
            filed.setdefault((epoch.rank, epoch.win_id), []).append(epoch)
    return filed.get((rank, win_id), [])


def access_epochs(index) -> List[Epoch]:
    return [e for e in index.epochs if e.is_access]


def enclosing(index, rank: int, win_id: int, seq: int,
              target: int) -> Optional[Epoch]:
    """The access epoch an RMA op issued at ``seq`` belongs to: among
    the access epochs of its rank and window whose interior contains the
    issue point and that cover the target, lock and PSCW epochs before
    fence epochs, within a class the latest opened."""
    best: Optional[Epoch] = None
    for epoch in of_rank_win(index, rank, win_id):
        if epoch.is_access and epoch.contains_seq(seq) \
                and epoch.covers_target(target) \
                and (best is None
                     or _precedence(epoch) > _precedence(best)):
            best = epoch
    return best


def _precedence(epoch: Epoch) -> Tuple[bool, int]:
    """The rule's order among an op's candidate epochs: lock / PSCW
    before fence, then the latest opened."""
    return epoch.kind != KIND_FENCE, epoch.open_seq


# ----------------------------------------------------------------------
# regions, one object each
# ----------------------------------------------------------------------


class ReferenceRegionIndex:
    """All concurrent regions plus span -> region lookup, built cell by
    cell and region by region."""

    def __init__(self, pre: PreprocessedTrace,
                 matches: Sequence[SyncMatch]):
        self.nranks = pre.nranks
        glob = [match.members for match in matches
                if match.is_global(pre.nranks)]
        mat = np.empty((len(glob), pre.nranks), dtype=np.int64)
        for i, members in enumerate(glob):
            for r, s in members.items():
                mat[i, r] = s
        if len(glob) > 1:
            mat = mat[np.argsort(mat[:, 0], kind="stable")]
            if (np.diff(mat, axis=0) <= 0).any():
                raise AnalysisError(
                    "global synchronization cuts are not consistently "
                    "ordered across ranks — inconsistent trace")
        cuts: List[Dict[int, int]] = [
            dict(enumerate(row)) for row in mat.tolist()]
        cut_seqs = [mat[:, r].tolist() for r in range(pre.nranks)]

        self.regions: List[Region] = []
        n_regions = len(cuts) + 1
        self._cut_seqs: List[List[int]] = cut_seqs
        self.cuts = np.array(cut_seqs, dtype=np.int64).reshape(
            pre.nranks, len(cuts))
        self.bounds = np.vstack([np.full((1, pre.nranks), -1), self.cuts.T,
                                 np.full((1, pre.nranks), 1 << 62)])
        for i in range(n_regions):
            bounds = {}
            for rank in range(pre.nranks):
                lo = cuts[i - 1][rank] if i > 0 else -1
                hi = cuts[i][rank] if i < len(cuts) else (1 << 62)
                bounds[rank] = (lo, hi)
            self.regions.append(Region(index=i, bounds=bounds))

    def region_of_seq(self, rank: int, seq: int) -> int:
        return bisect_right(self._cut_seqs[rank], seq - 1)

    def regions_of_span(self, span: Span) -> range:
        first = bisect_right(self._cut_seqs[span.rank], span.start_seq - 1)
        last = bisect_left(self._cut_seqs[span.rank], span.end_seq)
        return range(first, min(last, len(self.regions) - 1) + 1)
