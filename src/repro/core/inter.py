"""Cross-process conflict rules (section IV-C-4).

The key observation the paper exploits: memory consistency errors across
processes can only occur *in the window buffers at target processes*.  So
instead of comparing every pair of operations in a concurrent region
(combinatorial), DN-Analyzer makes two linear passes:

1. scan the region's one-sided operations; record each into a vector entry
   keyed by ``(window, target rank)``, checking it against the operations
   already recorded there (Table I on target intervals);
2. scan the region's *local* operations at each rank — direct loads and
   stores, MPI calls touching local buffers, and the origin side of RMA
   calls — and check the ones that fall inside an exposed window against
   the remote operations recorded for that window.

The happens-before oracle prunes ordered pairs (e.g. separated by a
send/recv chain inside the region).  The MPI-2.2 special rule is honoured:
a local **store** conflicts with any concurrent Put/Accumulate epoch on the
same window even with no byte overlap (``ERROR`` cells of Table I).

Severity: a conflict whose two sides are both serialized by *exclusive*
locks on the same window is reported as a **warning** — the accesses
cannot overlap in time, but their order is nondeterministic, which is how
the paper handles the original (exclusive-lock) lockopts bug.

This module holds what every survivor of the engine's joins goes
through — the per-pair Table-I checks, the only place a cross-process
finding's payload is written — and the local-lock index they consult.
:func:`repro.core.engine.find_region_pairs` buckets the ops into
``(window, target)`` entries, joins and cuts the candidates as arrays
over the :class:`~repro.core.model.OpTable`;
:func:`~repro.core.engine.emit_region_findings` builds views for what is
left and calls the checks.  The literal per-region scan (``_OpVector``,
``check_local_against_entries``, ``bucket_by_region``) and the
combinatorial strawman it improves on are test oracles in
``tests/reference/pairwise.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.core.compat import accumulate_exception, compat_verdict
from repro.core.diagnostics import (
    CROSS_PROCESS, SEVERITY_ERROR, SEVERITY_WARNING,
    AccessDesc, ConsistencyError,
)
from repro.core.epochs import EPOCH_KINDS, EpochIndex, KIND_LOCK
from repro.core.model import LocalAccess, RMAOpView
from repro.simmpi.window import LOCK_EXCLUSIVE
from repro.util.intervals import IntervalSet


def _desc_op(op: RMAOpView) -> AccessDesc:
    fn = op.fn or {"put": "Put", "get": "Get", "acc": "Accumulate"}[op.kind]
    return AccessDesc(rank=op.rank, kind=op.kind, fn=fn, var=op.origin_var,
                      loc=op.loc, intervals=op.target_intervals, seq=op.seq)


def _desc_local(la: LocalAccess) -> AccessDesc:
    return AccessDesc(rank=la.rank, kind=la.access, fn=la.fn, var=la.var,
                      loc=la.loc, intervals=la.intervals, seq=la.seq)


def _span_ref(span) -> list:
    """Trace reference of an influence span: ``[rank, start, end]`` in
    trace sequence numbers (the record indices of the rank's trace)."""
    return [span.rank, span.start_seq, span.end_seq]


def _op_exclusive(op: RMAOpView) -> bool:
    return (op.epoch is not None and op.epoch.kind == KIND_LOCK
            and op.epoch.lock_type == LOCK_EXCLUSIVE)


class _LocalLockIndex:
    """Which local accesses are protected by a self-targeted exclusive lock.

    Per ``(rank, win)`` the qualifying lock epochs are disjoint (a second
    ``Win_lock`` of the same window/target before the unlock replaces the
    open epoch, which is then never indexed), so their opens — one mask
    over the epoch columns, sorted by ``(rank, win, open seq)`` — answer
    each query with one ``bisect`` instead of a scan over every epoch.
    """

    def __init__(self, epoch_index: EpochIndex, nranks: int):
        cols = epoch_index.columns
        exclusive = np.array([name == LOCK_EXCLUSIVE
                              for name in cols.lock_types])
        mine = np.nonzero((cols.kind == EPOCH_KINDS.index(KIND_LOCK))
                          & (cols.target == cols.rank)
                          & exclusive[cols.lock])[0]
        mine = mine[np.lexsort((cols.open_seq[mine], cols.win[mine],
                                cols.rank[mine]))]
        self._opens: List[Tuple[int, int, int]] = list(zip(
            cols.rank[mine].tolist(), cols.win[mine].tolist(),
            cols.open_seq[mine].tolist()))
        self._closes: List[int] = cols.close_seq[mine].tolist()

    def covers(self, la: LocalAccess, win_id: int) -> bool:
        # last epoch of the window opening strictly before la.seq
        # (contains_seq is exclusive on both bounds)
        i = bisect_right(self._opens, (la.rank, win_id, la.seq - 1)) - 1
        return i >= 0 and self._opens[i][:2] == (la.rank, win_id) \
            and la.seq < self._closes[i]


def _pair_severity(a_exclusive: bool, b_exclusive: bool) -> str:
    """Two sides both serialized by exclusive locks: order exists but is
    nondeterministic -> warning; otherwise a hard race."""
    if a_exclusive and b_exclusive:
        return SEVERITY_WARNING
    return SEVERITY_ERROR


def _check_concurrent_ops(op_a: RMAOpView, op_b: RMAOpView,
                          model: str = "separate"
                          ) -> Optional[ConsistencyError]:
    """Table-I verdict for a pair already known concurrent + cross-rank."""
    overlap = op_a.target_intervals.intersection(op_b.target_intervals)
    verdict = compat_verdict(
        op_a.kind, op_b.kind, bool(overlap),
        acc_same=accumulate_exception(op_a.acc_op, op_a.acc_base,
                                      op_b.acc_op, op_b.acc_base),
        model=model)
    if verdict is None:
        return None
    return ConsistencyError(
        kind=CROSS_PROCESS, rule=verdict,
        severity=_pair_severity(_op_exclusive(op_a), _op_exclusive(op_b)),
        win_id=op_a.win_id, a=_desc_op(op_a), b=_desc_op(op_b),
        overlap=overlap,
        note=(f"concurrent one-sided operations on the window at rank "
              f"{op_a.target}"),
        provenance={
            "phase": "inter", "pattern": "op_pair",
            "spans": {"a": _span_ref(op_a.span),
                      "b": _span_ref(op_b.span)},
            "target": op_a.target,
            "hb": {"edge": "concurrent",
                   "detail": "no happens-before path orders the two "
                             "operations' influence spans"},
        })


def _check_concurrent_local_vs_op(la: LocalAccess,
                                  la_in_window: IntervalSet,
                                  op: RMAOpView,
                                  lock_index: _LocalLockIndex,
                                  model: str = "separate"
                                  ) -> Optional[ConsistencyError]:
    """Table-I verdict for a local/remote pair already known concurrent."""
    if la.origin_of is op:
        return None  # an op does not conflict with its own origin access
    if la.origin_of is not None and la.origin_of.rank == op.rank:
        return None  # same-origin RMA pair: handled as op-op / intra
    overlap = la_in_window.intersection(op.target_intervals)
    verdict = compat_verdict(la.access, op.kind, bool(overlap),
                             model=model)
    if verdict is None:
        return None
    la_exclusive = lock_index.covers(la, op.win_id)
    return ConsistencyError(
        kind=CROSS_PROCESS, rule=verdict,
        severity=_pair_severity(la_exclusive, _op_exclusive(op)),
        win_id=op.win_id, a=_desc_local(la), b=_desc_op(op),
        overlap=overlap,
        note=(f"local access at target rank {la.rank} concurrent with a "
              "remote one-sided operation on the same window"),
        provenance={
            "phase": "inter", "pattern": "local_vs_op",
            "spans": {"a": _span_ref(la.span),
                      "b": _span_ref(op.span)},
            "target": la.rank,
            "hb": {"edge": "concurrent",
                   "detail": "no happens-before path orders the local "
                             "access against the remote operation"},
        })


#: public alias
LocalLockIndex = _LocalLockIndex
