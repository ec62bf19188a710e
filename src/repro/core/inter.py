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
through: the per-pair Table-I checks, the ``(window, target)`` vector
entry, the step-2 loop for call-derived local accesses, and the
per-region bucketing.  :func:`repro.core.engine.detect_regions_sweep`
drives them; the literal per-region scan and the combinatorial strawman
it improves on are test oracles in ``tests/reference/pairwise.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.clocks import ConcurrencyOracle
from repro.core.compat import ACC, GET, PUT, accumulate_exception, compat_verdict
from repro.core.diagnostics import (
    CROSS_PROCESS, SEVERITY_ERROR, SEVERITY_WARNING,
    AccessDesc, ConsistencyError,
)
from repro.core.epochs import EpochIndex, KIND_LOCK
from repro.core.model import AccessModel, LocalAccess, RMAOpView
from repro.core.preprocess import PreprocessedTrace
from repro.core.regions import RegionIndex
from repro.simmpi.window import LOCK_EXCLUSIVE
from repro.util.intervals import IntervalSet

_WRITES = (PUT, ACC)


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
    open epoch, which is then never indexed), so a sorted interval list
    answers each query with one ``bisect`` instead of a scan over every
    exclusive epoch in the trace.
    """

    def __init__(self, epoch_index: EpochIndex, nranks: int):
        by_key: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for e in epoch_index.epochs:
            if e.kind == KIND_LOCK and e.lock_type == LOCK_EXCLUSIVE \
                    and e.target == e.rank:
                by_key.setdefault((e.rank, e.win_id), []).append(
                    (e.open_seq, e.close_seq))
        self._index: Dict[Tuple[int, int],
                          Tuple[List[int], List[int]]] = {}
        for key, spans in by_key.items():
            spans.sort()
            self._index[key] = ([open_seq for open_seq, _ in spans],
                                [close_seq for _, close_seq in spans])

    def covers(self, la: LocalAccess, win_id: int) -> bool:
        entry = self._index.get((la.rank, win_id))
        if entry is None:
            return False
        opens, closes = entry
        # last epoch opening strictly before la.seq (contains_seq is
        # exclusive on both bounds)
        i = bisect_right(opens, la.seq - 1) - 1
        return i >= 0 and la.seq < closes[i]


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


def _check_local_vs_op(la: LocalAccess, la_in_window: IntervalSet,
                       op: RMAOpView, oracle: ConcurrencyOracle,
                       lock_index: _LocalLockIndex,
                       model: str = "separate"
                       ) -> Optional[ConsistencyError]:
    if la.origin_of is op:
        return None  # an op does not conflict with its own origin access
    if la.origin_of is not None and la.origin_of.rank == op.rank:
        return None  # same-origin RMA pair: handled as op-op / intra
    if oracle.ordered(la.span, op.span):
        return None
    return _check_concurrent_local_vs_op(la, la_in_window, op, lock_index,
                                         model)


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


def bucket_by_region(model: AccessModel, regions: RegionIndex
                     ) -> Tuple[Dict[int, List[RMAOpView]],
                                Dict[int, List[LocalAccess]]]:
    """Assign ops and local accesses to the regions their spans intersect.

    Ops are visited in ``(rank, seq)`` order so each region's list — and
    therefore the order findings are emitted in downstream — is the same
    no matter how ``model`` was assembled (serial build or merged shards).
    """
    ops_by_region: Dict[int, List[RMAOpView]] = {}
    for op in sorted(model.ops, key=lambda o: (o.rank, o.seq)):
        for region_index in regions.regions_of_span(op.span):
            ops_by_region.setdefault(region_index, []).append(op)
    locals_by_region: Dict[int, List[LocalAccess]] = {}
    for la in model.local:
        for region_index in regions.regions_of_span(la.span):
            locals_by_region.setdefault(region_index, []).append(la)
    return ops_by_region, locals_by_region


#: below this many recorded ops in a vector entry, scalar oracle queries
#: beat the numpy batch setup cost
_BATCH_MIN = 4


class _OpVector:
    """The ops recorded for one ``(window, target)`` vector entry, with
    their spans mirrored into numpy arrays for batched oracle queries."""

    __slots__ = ("win_id", "target", "ops", "_ranks", "_starts", "_ends",
                 "_arrays")

    def __init__(self, win_id: int, target: int):
        self.win_id = win_id
        self.target = target
        self.ops: List[RMAOpView] = []
        self._ranks: List[int] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None

    def append(self, op: RMAOpView) -> None:
        span = op.span
        self.ops.append(op)
        self._ranks.append(span.rank)
        self._starts.append(span.start_seq)
        self._ends.append(span.end_seq)
        self._arrays = None

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (np.asarray(self._ranks, dtype=np.int64),
                            np.asarray(self._starts, dtype=np.int64),
                            np.asarray(self._ends, dtype=np.int64))
        return self._arrays


def check_local_against_entries(pre: PreprocessedTrace, la: LocalAccess,
                                entries: Iterable[_OpVector],
                                oracle: ConcurrencyOracle,
                                lock_index: "_LocalLockIndex",
                                memory_model: str,
                                errors: List[ConsistencyError]) -> None:
    """One local access vs every ``(window, target)`` entry at its rank —
    the step-2 inner loop (the sweep engine routes the *object* locals
    through it and handles the packed memory rows columnar)."""
    for entry in entries:
        window = pre.window(entry.win_id)
        la_in_window = la.intervals.intersection(
            window.exposure(la.rank))
        if not la_in_window:
            continue
        if len(entry.ops) >= _BATCH_MIN:
            ranks, starts, ends = entry.arrays()
            concurrent = ~oracle.ordered_batch(ranks, starts, ends,
                                               la.span)
            for i in np.nonzero(concurrent)[0]:
                error = _check_concurrent_local_vs_op(
                    la, la_in_window, entry.ops[i], lock_index,
                    memory_model)
                if error is not None:
                    errors.append(error)
        else:
            for op in entry.ops:
                error = _check_local_vs_op(la, la_in_window, op, oracle,
                                           lock_index, memory_model)
                if error is not None:
                    errors.append(error)


#: public alias for the streaming checker
LocalLockIndex = _LocalLockIndex
