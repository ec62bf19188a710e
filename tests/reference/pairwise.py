"""Reference detectors — the paper's literal per-pair algorithms.

Test oracles, not production: nothing under ``src/`` imports this
module.  Production finds candidate pairs with grouped interval joins
(:mod:`repro.core.engine`) and runs the per-pair Table-I checks of
:mod:`repro.core.intra` / :mod:`repro.core.inter` on the survivors; the
drivers here enumerate the pairs the way the paper describes and call
the same checks, so a disagreement is a bug in the joins, the batching
or an executor — never in Table I itself (``repro.gen`` manifests are
the independent oracle for that).

* :func:`build_access_model` / :func:`lift_rank` — the object access
  model: every instrumented load/store becomes one ``LocalAccess``;
* :func:`detect_intra_epoch` / :func:`check_epoch` — all pairs of one
  epoch (section IV-C-3);
* :func:`detect_cross_process` / :func:`detect_region` — the linear
  ``(window, target)`` vector scan of section IV-C-4;
* :func:`detect_cross_process_naive` — the combinatorial strawman that
  scan improves on (E7 ablation);
* :func:`check_pairwise` — a whole check: production control phases,
  then these drivers.

The logic is the former ``repro.core`` pairwise engine, moved unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.checker import CheckReport, CheckStats
from repro.core.clocks import ConcurrencyOracle
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, dedupe,
    sort_findings,
)
from repro.core.epochs import Epoch, EpochIndex
from repro.core.inter import (
    _BATCH_MIN, _LocalLockIndex, _OpVector, _check_concurrent_ops,
    _check_local_vs_op, bucket_by_region, check_local_against_entries,
)
from repro.core.intra import (
    _check_attached_pair, _check_attached_vs_plain, _check_target_pair,
    bucket_by_epoch,
)
from repro.core.matching import match_synchronization
from repro.core.model import (
    AccessModel, LiftCache, LocalAccess, RMAOpView, _lift_call,
)
from repro.core.preprocess import PreprocessedTrace, preprocess
from repro.core.regions import RegionIndex
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import TraceSet
from repro.util.intervals import IntervalSet

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


def lift_rank(pre: PreprocessedTrace, epoch_index: EpochIndex,
              rank: int) -> Tuple[List[RMAOpView], List[LocalAccess]]:
    """Lift one rank's events, every load/store as its own object."""
    ops: List[RMAOpView] = []
    local: List[LocalAccess] = []
    cache = LiftCache(epoch_index, rank)
    for event in pre.events[rank]:
        if isinstance(event, MemEvent):
            local.append(LocalAccess(
                rank=rank, seq=event.seq, access=event.access,
                intervals=IntervalSet.single(event.addr, event.size),
                var=event.var, loc=event.loc, fn="mem"))
            continue
        assert isinstance(event, CallEvent)
        _lift_call(pre, epoch_index, rank, event, ops, local, cache)
    return ops, local


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
            error = _check_target_pair(op_a, op_b, memory_model)
            if error is not None:
                errors.append(error)

    # (b) local buffers attached to RMA ops vs plain loads/stores and
    # vs each other: unordered while the owning op is incomplete
    for i, acc_a in enumerate(attached):
        for la in mems:
            errors.extend(_check_attached_vs_plain(acc_a, la))
        for acc_b in attached[i + 1:]:
            if acc_a.origin_of is acc_b.origin_of:
                continue  # one call's own buffers don't self-conflict
            errors.extend(_check_attached_pair(acc_a, acc_b))
    return errors


# ----------------------------------------------------------------------
# across processes (section IV-C-4)
# ----------------------------------------------------------------------


def _check_ops(op_a: RMAOpView, op_b: RMAOpView,
               oracle: ConcurrencyOracle,
               model: str = "separate") -> Optional[ConsistencyError]:
    if op_a.rank == op_b.rank:
        return None  # same-rank pairs are program/epoch ordered or intra
    if oracle.ordered(op_a.span, op_b.span):
        return None
    return _check_concurrent_ops(op_a, op_b, model)


def detect_cross_process(pre: PreprocessedTrace, model: AccessModel,
                         regions: RegionIndex, oracle: ConcurrencyOracle,
                         epoch_index: EpochIndex,
                         memory_model: str = "separate"
                         ) -> List[ConsistencyError]:
    """The paper's linear two-step detector, one pass per concurrent region."""
    errors: List[ConsistencyError] = []
    lock_index = _LocalLockIndex(epoch_index, pre.nranks)
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
                  oracle: ConcurrencyOracle, lock_index: "_LocalLockIndex",
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
                error = _check_concurrent_ops(entry.ops[i], op, memory_model)
                if error is not None:
                    errors.append(error)
        else:
            for prev in entry.ops:
                error = _check_ops(prev, op, oracle, memory_model)
                if error is not None:
                    errors.append(error)
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
    lock_index = _LocalLockIndex(epoch_index, pre.nranks)
    ops_by_region, locals_by_region = bucket_by_region(model, regions)

    for region in regions:
        region_ops = ops_by_region.get(region.index, [])
        region_locals = locals_by_region.get(region.index, [])
        for i, op_a in enumerate(region_ops):
            for op_b in region_ops[i + 1:]:
                if op_a.win_id != op_b.win_id or op_a.target != op_b.target:
                    continue  # still must touch the same target window
                error = _check_ops(op_a, op_b, oracle, memory_model)
                if error is not None:
                    errors.append(error)
        for la in region_locals:
            for op in region_ops:
                if op.target != la.rank:
                    continue
                window = pre.window(op.win_id)
                la_in_window = la.intervals.intersection(
                    window.exposure(la.rank))
                if not la_in_window:
                    continue
                error = _check_local_vs_op(la, la_in_window, op, oracle,
                                           lock_index, memory_model)
                if error is not None:
                    errors.append(error)
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
