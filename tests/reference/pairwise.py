"""Reference detectors — the paper's literal per-pair algorithms.

Test oracles, not production: nothing under ``src/`` imports this
module.  Production finds candidate pairs with grouped interval joins
and judges them as arrays (:mod:`repro.core.engine`: completion and
program order, Table I as an integer lookup, one batched
happens-before query).  The drivers here enumerate the pairs the way the
paper describes and judge each one with this module's own per-pair
predicates — completion order, same target, byte overlap,
:func:`~repro.core.compat.compat_verdict` with the accumulate exception,
the two-reads rule, own-origin and same-origin exclusion, span
concurrency.  Only the wording of a finding is shared
(:func:`repro.core.diagnostics.write_finding`), so reference and
production decide independently: a disagreement is a bug in the joins,
the cuts, the batching or an executor.

* :func:`build_access_model` / :func:`lift_rank` — the object access
  model: every call lifted to views one by one (through the production
  materialiser ``_lift_call``, with this module's own epoch and
  completion lookup: :class:`LiftCache`, :func:`completion_seq`), every
  instrumented load/store one ``LocalAccess``;
* :func:`bucket_by_epoch` / :func:`bucket_by_region` — the per-object
  walks that hand those views to the detectors, the oracle for the
  production unit arrays;
* :func:`detect_intra_epoch` / :func:`check_epoch` — all pairs of one
  epoch (section IV-C-3);
* :func:`detect_cross_process` / :func:`detect_region` — the linear
  ``(window, target)`` vector scan of section IV-C-4 (``_OpVector``,
  :func:`check_local_against_entries`);
* :func:`detect_cross_process_naive` — the combinatorial strawman that
  scan improves on (E7 ablation);
* :func:`check_pairwise` — a whole check: production control phases,
  then these drivers.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.checker import CheckReport, CheckStats
from repro.core.clocks import ConcurrencyOracle, Span
from repro.core.compat import ORIGIN, accumulate_exception, compat_verdict
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, dedupe,
    sort_findings, write_finding,
)
from repro.core.epochs import (
    KIND_FENCE, KIND_LOCK, KIND_PSCW_ACCESS, NO_TARGET, OPEN_ENDED, Epoch,
    EpochIndex, LocalLockIndex,
)
from repro.core.matching import match_synchronization
from repro.core.model import (
    AccessModel, LocalAccess, RMAOpView, _lift_call,
)
from repro.core.model import LiftCache as PlacementMemo
from repro.core.preprocess import PreprocessedTrace, preprocess
from repro.core.regions import RegionIndex
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import TraceSet
from repro.util.intervals import IntervalSet
from tests.reference.epochs import access_epochs, of_rank_win

# ----------------------------------------------------------------------
# the object access model
# ----------------------------------------------------------------------


def build_access_model(pre: PreprocessedTrace,
                       epoch_index: EpochIndex) -> AccessModel:
    """Lift every relevant trace event into analysis views."""
    ops: List[RMAOpView] = []
    local: List[LocalAccess] = []
    for rank in range(pre.nranks):
        rank_ops, rank_local = lift_rank(pre, epoch_index, rank)
        ops.extend(rank_ops)
        local.extend(rank_local)
    return AccessModel(ops=ops, local=local)


class LiftCache(PlacementMemo):
    """Per-rank lift accelerator of the reference lift: the placement
    memo, plus the bisect-backed epoch lookup production used before the
    op table — the oracle for ``EpochIndex.enclosing`` /
    ``enclosing_rows``.

    Per ``(win_id, target)``, the rank's access epochs that cover the
    target, pre-filtered once and bisected by ``open_seq``.  Lock/PSCW
    epochs keep their precedence over fences by living in a separate,
    first-consulted list; within a list the scan walks back from the
    bisect point, so nested open-ended epochs still resolve.  Fence
    epochs cover every target, so their list is built once per window
    and shared by all of its targets.
    """

    __slots__ = ("_epochs", "_rank", "_enclosing", "_by_win")

    def __init__(self, epoch_index: EpochIndex, rank: int):
        super().__init__()
        self._epochs = epoch_index
        self._rank = rank
        self._enclosing: Dict[Tuple[int, int], tuple] = {}
        self._by_win: Dict[int, tuple] = {}

    def enclosing(self, win_id: int, seq: int,
                  target: int) -> Optional[Epoch]:
        key = (win_id, target)
        index = self._enclosing.get(key)
        if index is None:
            of_win = self._by_win.get(win_id)
            if of_win is None:
                epochs = sorted(of_rank_win(self._epochs, self._rank, win_id),
                                key=lambda e: e.open_seq)
                fences = [e for e in epochs if e.kind == KIND_FENCE]
                of_win = self._by_win[win_id] = (
                    [e for e in epochs
                     if e.kind in (KIND_LOCK, KIND_PSCW_ACCESS)],
                    [e.open_seq for e in fences], fences)
            priority = [e for e in of_win[0] if e.covers_target(target)]
            index = self._enclosing[key] = (
                [e.open_seq for e in priority], priority, *of_win[1:])
        for opens, epochs in ((index[0], index[1]), (index[2], index[3])):
            # epochs with open_seq >= seq cannot contain seq; the usual
            # hit is immediately at the bisect point, walking further
            # back only past closed epochs nested inside an open one
            for k in range(bisect_right(opens, seq) - 1, -1, -1):
                if epochs[k].contains_seq(seq):
                    return epochs[k]
        return None


def completion_seq(epoch_index: EpochIndex, rank: int, win_id: int,
                   issue_seq: int, target: int, epoch: Optional[Epoch],
                   req: Optional[int] = None) -> int:
    """When an op issued at ``issue_seq`` is guaranteed complete — the
    scalar oracle for ``EpochIndex.completion_rows``.

    Normally the epoch's closing synchronization; an MPI-3
    ``Win_flush``/``Win_flush_all`` covering the target — or, for a
    request-based operation, the MPI_Wait on its request — completes
    it earlier without closing the epoch.
    """
    tables = epoch_index.__dict__.get("_reference_tables")
    if tables is None:
        # (rank, win) -> [(seq, target)] in trace order; (rank, win, req)
        # -> seq of the last wait on the request
        flushes: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for f_rank, f_win, f_seq, f_target in zip(
                *(col.tolist() for col in epoch_index.flushes)):
            flushes.setdefault((f_rank, f_win), []).append((f_seq, f_target))
        waits = {(w_rank, w_win, w_req): w_seq
                 for w_rank, w_win, w_req, w_seq in zip(
                     *(col.tolist() for col in epoch_index.req_waits))}
        tables = epoch_index.__dict__["_reference_tables"] = flushes, waits
    flushes, waits = tables
    close = epoch.close_seq if epoch is not None else OPEN_ENDED
    if req is not None:
        wait_seq = waits.get((rank, win_id, req))
        if wait_seq is not None and issue_seq < wait_seq < close:
            close = wait_seq
    for seq, flush_target in flushes.get((rank, win_id), ()):
        if issue_seq < seq < close and flush_target in (NO_TARGET, target):
            return seq
    return close


def lift_rank(pre: PreprocessedTrace, epoch_index: EpochIndex,
              rank: int) -> Tuple[List[RMAOpView], List[LocalAccess]]:
    """Lift one rank's events, every load/store as its own object."""
    ops: List[RMAOpView] = []
    local: List[LocalAccess] = []
    cache = LiftCache(epoch_index, rank)

    def resolve(win_id, seq, target, req):
        epoch = cache.enclosing(win_id, seq, target)
        return epoch, completion_seq(epoch_index, rank, win_id, seq,
                                     target, epoch, req=req)

    for event in pre.events[rank]:
        if isinstance(event, MemEvent):
            local.append(LocalAccess(
                rank=rank, seq=event.seq, access=event.access,
                intervals=IntervalSet.single(event.addr, event.size),
                var=event.var, loc=event.loc, fn="mem"))
            continue
        assert isinstance(event, CallEvent)
        _lift_call(pre, rank, event, ops, local, cache, resolve)
    return ops, local


# ----------------------------------------------------------------------
# the per-object walks: which views each epoch / region holds
# ----------------------------------------------------------------------

#: one epoch's worth of intra-epoch detection work
EpochUnit = Tuple[Epoch, List[RMAOpView], List[LocalAccess],
                  List[LocalAccess]]


def bucket_by_epoch(model: AccessModel,
                    epoch_index: EpochIndex) -> List[EpochUnit]:
    """Per-epoch work units ``(epoch, ops, attached, mems)``.

    Units come out in ``epoch_index`` order and carry everything the
    within-epoch check needs, so any contiguous chunk of the list is an
    independent piece of work — and the serial detector just walks it.
    """
    ops_by_epoch: Dict[int, List[RMAOpView]] = {}
    for op in model.ops:
        if op.epoch is not None:
            ops_by_epoch.setdefault(id(op.epoch), []).append(op)

    attached_by_epoch: Dict[int, List[LocalAccess]] = {}
    plain_by_rank: Dict[int, List[LocalAccess]] = {}
    for la in model.local:
        if la.origin_of is not None:
            if la.origin_of.epoch is not None:
                attached_by_epoch.setdefault(
                    id(la.origin_of.epoch), []).append(la)
        else:
            plain_by_rank.setdefault(la.rank, []).append(la)

    units: List[EpochUnit] = []
    for epoch in access_epochs(epoch_index):
        ops = ops_by_epoch.get(id(epoch), [])
        if not ops:
            continue
        attached = attached_by_epoch.get(id(epoch), [])
        mems = [
            la for la in plain_by_rank.get(epoch.rank, ())
            if epoch.contains_seq(la.seq)
        ]
        units.append((epoch, ops, attached, mems))
    return units


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



# ----------------------------------------------------------------------
# the per-pair predicates: the paper's rules, stated pair by pair
# ----------------------------------------------------------------------


def _spans_concurrent(a: Span, b: Span) -> bool:
    """Same-rank span concurrency (consistency order only)."""
    return not (a.end_seq <= b.start_seq or b.end_seq <= a.start_seq)


def _op_verdict(op_a: RMAOpView, op_b: RMAOpView, overlap: IntervalSet,
                model: str) -> Optional[str]:
    """Table I on two operations' target bytes, with the accumulate
    exception."""
    return compat_verdict(
        op_a.kind, op_b.kind, bool(overlap),
        acc_same=accumulate_exception(op_a.acc_op, op_a.acc_base,
                                      op_b.acc_op, op_b.acc_base),
        model=model)


def _check_target_pair(op_a: RMAOpView, op_b: RMAOpView,
                       model: str) -> Optional[ConsistencyError]:
    # ops completing at different points (MPI-3 flush between them) are
    # consistency-ordered even within one epoch
    if op_a.complete_seq <= op_b.seq or op_b.complete_seq <= op_a.seq:
        return None
    if op_a.target != op_b.target:
        return None
    verdict = _op_verdict(op_a, op_b, op_a.target_intervals.intersection(
        op_b.target_intervals), model)
    if verdict is None:
        return None
    return write_finding("intra", "op_pair", verdict, op_a, op_b)


def _check_attached_vs_plain(attached: LocalAccess, la: LocalAccess
                             ) -> Optional[ConsistencyError]:
    op = attached.origin_of
    # program order protects accesses before the issue; the flush/close
    # completes the op before anything after it
    if la.seq < op.seq or la.seq > op.complete_seq:
        return None
    if attached.access != "store" and la.access != "store":
        return None  # two reads never conflict
    if not attached.intervals.intersection(la.intervals):
        return None
    return write_finding("intra", "origin_vs_plain", ORIGIN, attached, la)


def _check_attached_pair(acc_a: LocalAccess, acc_b: LocalAccess
                         ) -> Optional[ConsistencyError]:
    if acc_a.origin_of is acc_b.origin_of:
        return None  # one call's own buffers don't self-conflict
    if not _spans_concurrent(acc_a.span, acc_b.span):
        return None
    if acc_a.access != "store" and acc_b.access != "store":
        return None
    if not acc_a.intervals.intersection(acc_b.intervals):
        return None
    return write_finding("intra", "origin_pair", ORIGIN, acc_a, acc_b)


def _check_concurrent_ops(op_a: RMAOpView, op_b: RMAOpView,
                          model: str) -> Optional[ConsistencyError]:
    """Table I for a pair already known concurrent + cross-rank."""
    verdict = _op_verdict(op_a, op_b, op_a.target_intervals.intersection(
        op_b.target_intervals), model)
    if verdict is None:
        return None
    return write_finding("inter", "op_pair", verdict, op_a, op_b)


def _check_concurrent_local_vs_op(la: LocalAccess, exposure: IntervalSet,
                                  op: RMAOpView, lock_index: LocalLockIndex,
                                  model: str) -> Optional[ConsistencyError]:
    """Table I for a local/remote pair already known concurrent; only
    the local bytes inside the window's ``exposure`` count."""
    if la.origin_of is op:
        return None  # an op does not conflict with its own origin access
    if la.origin_of is not None and la.origin_of.rank == op.rank:
        return None  # same-origin RMA pair: handled as op-op / intra
    overlap = la.intervals.intersection(exposure).intersection(
        op.target_intervals)
    verdict = compat_verdict(la.access, op.kind, bool(overlap), model=model)
    if verdict is None:
        return None
    return write_finding("inter", "local_vs_op", verdict, la, op, exposure,
                         lock_index)


def _check_local_vs_op(la: LocalAccess, exposure: IntervalSet,
                       op: RMAOpView, oracle: ConcurrencyOracle,
                       lock_index: LocalLockIndex,
                       model: str) -> Optional[ConsistencyError]:
    if oracle.ordered(la.span, op.span):
        return None
    return _check_concurrent_local_vs_op(la, exposure, op, lock_index, model)


def _check_ops(op_a: RMAOpView, op_b: RMAOpView, oracle: ConcurrencyOracle,
               model: str) -> Optional[ConsistencyError]:
    if op_a.rank == op_b.rank:
        return None  # same-rank pairs are program/epoch ordered or intra
    if oracle.ordered(op_a.span, op_b.span):
        return None
    return _check_concurrent_ops(op_a, op_b, model)


def _keep(errors: List[ConsistencyError],
          error: Optional[ConsistencyError]) -> None:
    if error is not None:
        errors.append(error)


# ----------------------------------------------------------------------
# within one epoch (section IV-C-3)
# ----------------------------------------------------------------------


def detect_intra_epoch(model: AccessModel, epoch_index: EpochIndex,
                       memory_model: str = "separate"
                       ) -> List[ConsistencyError]:
    """Find conflicting operation pairs inside each access epoch."""
    errors: List[ConsistencyError] = []
    for epoch, ops, attached, mems in bucket_by_epoch(model, epoch_index):
        errors.extend(check_epoch(epoch, ops, attached, mems, memory_model))
    return errors


def check_epoch(epoch: Epoch, ops: List[RMAOpView],
                attached: List[LocalAccess], mems: List[LocalAccess],
                memory_model: str = "separate") -> List[ConsistencyError]:
    """Run the within-epoch ruleset over one epoch's accesses: every
    pair, checked in turn."""
    errors: List[ConsistencyError] = []

    # (a) RMA op pairs: target-side conflicts under Table I
    for i, op_a in enumerate(ops):
        for op_b in ops[i + 1:]:
            _keep(errors, _check_target_pair(op_a, op_b, memory_model))

    # (b) local buffers attached to RMA ops vs plain loads/stores and
    # vs each other: unordered while the owning op is incomplete
    for i, acc_a in enumerate(attached):
        for la in mems:
            _keep(errors, _check_attached_vs_plain(acc_a, la))
        for acc_b in attached[i + 1:]:
            _keep(errors, _check_attached_pair(acc_a, acc_b))
    return errors


# ----------------------------------------------------------------------
# across processes (section IV-C-4)
# ----------------------------------------------------------------------


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
                                lock_index: LocalLockIndex,
                                memory_model: str,
                                errors: List[ConsistencyError]) -> None:
    """One local access vs every ``(window, target)`` entry at its rank —
    the step-2 inner loop (the sweep engine routes the *object* locals
    through it and handles the packed memory rows columnar)."""
    for entry in entries:
        exposure = pre.window(entry.win_id).exposure(la.rank)
        if not la.intervals.intersection(exposure):
            continue
        if len(entry.ops) >= _BATCH_MIN:
            ranks, starts, ends = entry.arrays()
            concurrent = ~oracle.ordered_batch(ranks, starts, ends,
                                               la.span)
            for i in np.nonzero(concurrent)[0]:
                _keep(errors, _check_concurrent_local_vs_op(
                    la, exposure, entry.ops[i], lock_index, memory_model))
        else:
            for op in entry.ops:
                _keep(errors, _check_local_vs_op(
                    la, exposure, op, oracle, lock_index, memory_model))


def detect_cross_process(pre: PreprocessedTrace, model: AccessModel,
                         regions: RegionIndex, oracle: ConcurrencyOracle,
                         epoch_index: EpochIndex,
                         memory_model: str = "separate"
                         ) -> List[ConsistencyError]:
    """The paper's linear two-step detector, one pass per concurrent region."""
    errors: List[ConsistencyError] = []
    lock_index = LocalLockIndex(epoch_index)
    ops_by_region, locals_by_region = bucket_by_region(model, regions)

    for region in regions:
        region_ops = ops_by_region.get(region.index, [])
        if not region_ops:
            continue
        errors.extend(detect_region(
            pre, region_ops, locals_by_region.get(region.index, []),
            oracle, lock_index, memory_model))
    return errors


def detect_region(pre: PreprocessedTrace, region_ops: List[RMAOpView],
                  region_locals: List[LocalAccess],
                  oracle: ConcurrencyOracle, lock_index: LocalLockIndex,
                  memory_model: str = "separate") -> List[ConsistencyError]:
    """The two linear passes over one concurrent region's accesses.

    Once a vector entry holds enough ops, each incoming access resolves
    its happens-before relation to the whole entry in one vectorized
    :meth:`ordered_batch` call.
    """
    errors: List[ConsistencyError] = []
    # step 1: record remote ops per (window, target), checking as we go
    vector: Dict[Tuple[int, int], _OpVector] = {}
    # entries grouped by target rank, in first-recorded order, so step 2
    # touches only the entries that can involve a given local access
    entries_by_rank: Dict[int, List[_OpVector]] = {}
    for op in region_ops:
        key = (op.win_id, op.target)
        entry = vector.get(key)
        if entry is None:
            entry = vector[key] = _OpVector(op.win_id, op.target)
            entries_by_rank.setdefault(op.target, []).append(entry)
        if len(entry.ops) >= _BATCH_MIN:
            ranks, starts, ends = entry.arrays()
            concurrent = ~oracle.ordered_batch(ranks, starts, ends, op.span)
            concurrent &= ranks != op.rank  # same-rank pairs: intra's job
            for i in np.nonzero(concurrent)[0]:
                _keep(errors, _check_concurrent_ops(entry.ops[i], op,
                                                    memory_model))
        else:
            for prev in entry.ops:
                _keep(errors, _check_ops(prev, op, oracle, memory_model))
        entry.append(op)

    # step 2: local operations at each target vs recorded remote ops
    for la in region_locals:
        check_local_against_entries(
            pre, la, entries_by_rank.get(la.rank, ()), oracle, lock_index,
            memory_model, errors)
    return errors


def detect_cross_process_naive(pre: PreprocessedTrace, model: AccessModel,
                               regions: RegionIndex,
                               oracle: ConcurrencyOracle,
                               epoch_index: EpochIndex,
                               memory_model: str = "separate"
                               ) -> List[ConsistencyError]:
    """Combinatorial strawman: compare *every* pair of accesses in each
    region, with no window-vector keying.  Same findings, quadratic time —
    the baseline the paper's section IV-C-4 improves upon."""
    errors: List[ConsistencyError] = []
    lock_index = LocalLockIndex(epoch_index)
    ops_by_region, locals_by_region = bucket_by_region(model, regions)

    for region in regions:
        region_ops = ops_by_region.get(region.index, [])
        region_locals = locals_by_region.get(region.index, [])
        for i, op_a in enumerate(region_ops):
            for op_b in region_ops[i + 1:]:
                if op_a.win_id != op_b.win_id or op_a.target != op_b.target:
                    continue  # still must touch the same target window
                _keep(errors, _check_ops(op_a, op_b, oracle, memory_model))
        for la in region_locals:
            for op in region_ops:
                if op.target != la.rank:
                    continue
                exposure = pre.window(op.win_id).exposure(la.rank)
                if not la.intervals.intersection(exposure):
                    continue
                _keep(errors, _check_local_vs_op(
                    la, exposure, op, oracle, lock_index, memory_model))
    return errors


# ----------------------------------------------------------------------
# a whole check
# ----------------------------------------------------------------------


def check_pairwise(traces: TraceSet, memory_model: str = "separate",
                   inter=detect_cross_process) -> CheckReport:
    """Check a trace set the paper's way: the production control phases
    (preprocess, matching, clocks, epochs, regions), the object access
    model, then the per-pair drivers.  ``inter`` swaps in
    :func:`detect_cross_process_naive`."""
    pre = preprocess(traces)
    matches = match_synchronization(pre)
    oracle = ConcurrencyOracle(pre, matches)
    epochs = EpochIndex(pre)
    model = build_access_model(pre, epochs)
    regions = RegionIndex(pre, matches)
    findings = detect_intra_epoch(model, epochs, memory_model)
    findings += inter(pre, model, regions, oracle, epochs, memory_model)
    findings = dedupe(sort_findings(findings))
    return CheckReport(
        errors=[f for f in findings if f.severity == SEVERITY_ERROR],
        warnings=[f for f in findings if f.severity == SEVERITY_WARNING],
        stats=CheckStats(
            nranks=pre.nranks, events=pre.total_events,
            rma_ops=len(model.ops),
            local_accesses=model.total_local_accesses,
            sync_matches=len(matches), regions=len(regions),
            epochs=len(epochs.epochs)))
