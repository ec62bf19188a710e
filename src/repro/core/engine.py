"""repro.core.engine — the sweep-line columnar conflict engine.

The paper's detectors enumerate access pairs — every pair of an epoch,
every access against a ``(window, target)`` vector entry — and then test
each for byte overlap (kept as test oracles in
``tests/reference/pairwise.py``).  This module inverts that, for a whole
*list* of work units (epochs, or concurrent regions) at once: the units'
access intervals go into one
:class:`~repro.util.intervals.IntervalTable` whose ``group`` column
keeps apart what those loops keep apart, and one
sort+``searchsorted`` sweep (:func:`~repro.util.intervals.overlap_join`)
per stage yields *only the candidate pairs that actually share bytes* —
a constant number of numpy joins per batch, not one per epoch or vector
entry.  Table-I compatibility, happens-before pruning, and diagnostic
payloads then run on that (usually tiny) survivor set, through the
per-pair check functions of :mod:`repro.core.intra` and
:mod:`repro.core.inter`.

The kernels, :func:`check_epochs_sweep` and :func:`detect_regions_sweep`,
return findings *per unit*, in the order the per-unit nested loops emit
them, so any contiguous chunking of a unit list concatenates to the same
sequence.  Every executor is a policy over them: the serial checker
passes all units, a pool worker its chunk, the incremental checker its
dirty shards, the streaming checker the unit that just closed.  Inside,
unit lists are cut into sub-batches of at most :data:`BATCH_ROWS`
flattened rows, which bounds the joins' working set at any trace size.

Completeness of the join: among the RMA kinds (put/get/acc) Table I has
no ``ERROR`` cells, and its ``NONOV`` cells fire only on overlap, so
every op-op (and every attached-origin) finding requires byte overlap —
the join loses nothing.  The one Table-I rule that fires *without*
overlap is the MPI-2.2 store-vs-Put/Accumulate ``ERROR`` cell (separate
memory model only): those pairs are enumerated explicitly as the
stores-inside-the-exposed-window × put/acc-ops product, which is
output-bounded by the same quantity the paper's linear scan walks.

Candidate-pair counts land in the obs metric
``engine_candidate_pairs_total{phase,stage}`` and join invocations in
``engine_join_calls_total{phase}``, so pruning effectiveness and the
batching are observable (deliberately *not* in ``CheckStats`` — the
canonical report must not depend on how the pairs were found).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.clocks import ConcurrencyOracle
from repro.core.compat import GET, MODEL_SEPARATE
from repro.core.diagnostics import ConsistencyError
from repro.core.epochs import Epoch, EpochIndex
from repro.core.inter import (
    _LocalLockIndex, _OpVector, _check_concurrent_local_vs_op,
    _check_concurrent_ops, bucket_by_region, check_local_against_entries,
)
from repro.core.intra import (
    EpochUnit, _check_attached_pair, _check_attached_vs_plain,
    _check_target_pair, bucket_by_epoch,
)
from repro.core.model import (
    AccessModel, LocalAccess, MemRows, RMAOpView, RowBounds, gather_rows,
)
from repro.core.preprocess import PreprocessedTrace
from repro.core.regions import RegionIndex
from repro.util.intervals import (
    IntervalTable, expand_ranges, overlap_join, unique_pairs,
)

#: sub-batch budget: at most this many flattened rows (op intervals plus
#: an upper bound on the memory rows in range) enter one kernel pass —
#: it bounds the joins' transient arrays (docs/performance.md has the sizing)
BATCH_ROWS = 1 << 15

#: per-unit findings, aligned with the unit list a kernel was handed
UnitFindings = List[List[ConsistencyError]]

#: one region's work unit: ``(region_ops, region_locals, {rank: (lo_seq,
#: hi_seq)})`` — the region's seq bounds select each rank's memory rows
RegionUnit = Tuple[List[RMAOpView], List[LocalAccess],
                   Dict[int, Tuple[int, int]]]


def _record_candidates(phase: str, stage: str, n: int) -> None:
    if n:
        rec = obs.get_recorder()
        if rec.enabled:
            rec.count("engine_candidate_pairs_total", n, phase=phase,
                      stage=stage,
                      help="Candidate pairs surviving the sweep-engine "
                           "interval join, per phase and stage")


def _join(phase: str, a: IntervalTable,
          b: IntervalTable) -> Tuple[np.ndarray, np.ndarray]:
    """The engine's only route into :func:`overlap_join`, counted."""
    rec = obs.get_recorder()
    if rec.enabled:
        rec.count("engine_join_calls_total", 1, phase=phase,
                  help="overlap_join invocations of the sweep engine, "
                       "per phase")
    return overlap_join(a, b)


def _self_join(phase: str,
               table: IntervalTable) -> Tuple[np.ndarray, np.ndarray]:
    """Overlapping owner pairs within one table, each once (``a < b``)."""
    pair_a, pair_b = _join(phase, table, table)
    keep = pair_a < pair_b
    return pair_a[keep], pair_b[keep]


def _rows_bound(mems: Dict[int, MemRows], bounds: RowBounds) -> int:
    """Upper bound on the rows inside ``bounds`` (seqs are distinct
    trace record indices), without touching them."""
    rank, lo_seq, hi_seq = bounds
    rows = mems.get(rank)
    return min(len(rows), max(hi_seq - lo_seq - 1, 0)) if rows else 0


def batch_bounds(weights: Iterable[int],
                 budget: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` index ranges over ``weights`` of at most
    ``budget`` total weight each — always at least one item, so the
    bound on a range is ``max(budget, heaviest item)``."""
    out: List[Tuple[int, int]] = []
    lo = load = stop = 0
    for stop, w in enumerate(weights, 1):
        if stop - 1 > lo and load + w > budget:
            out.append((lo, stop - 1))
            lo, load = stop - 1, 0
        load += w
    if lo < stop:
        out.append((lo, stop))
    return out


def _batched(kernel: Callable[[Sequence], UnitFindings], units: Sequence,
             weight: Callable[[tuple], int]) -> UnitFindings:
    """Run ``kernel`` over contiguous sub-batches of ``units`` holding at
    most :data:`BATCH_ROWS` weight each (always at least one unit)."""
    found: UnitFindings = []
    for lo, hi in batch_bounds(map(weight, units), BATCH_ROWS):
        found.extend(kernel(units[lo:hi]))
    return found


def _flatten(found: UnitFindings) -> List[ConsistencyError]:
    return [error for unit_found in found for error in unit_found]


# ----------------------------------------------------------------------
# intra-epoch detection
# ----------------------------------------------------------------------


def detect_intra_epoch_sweep(model: AccessModel, epoch_index: EpochIndex,
                             memory_model: str = MODEL_SEPARATE
                             ) -> List[ConsistencyError]:
    """Find conflicting operation pairs inside each access epoch."""
    return _flatten(check_epochs_sweep(
        bucket_by_epoch(model, epoch_index), model.mems, memory_model))


def _epoch_rows(epoch: Epoch) -> RowBounds:
    return epoch.rank, epoch.open_seq, epoch.close_seq


def check_epochs_sweep(units: Sequence[EpochUnit],
                       mems: Dict[int, MemRows],
                       memory_model: str = MODEL_SEPARATE) -> UnitFindings:
    """Within-epoch ruleset over a list of epoch units, joins first.

    ``units`` are :func:`~repro.core.intra.bucket_by_epoch` tuples whose
    last field holds the call-derived plain locals; the instrumented
    loads/stores are ``mems[epoch.rank]`` inside the epoch's seq bounds.
    Every candidate pair goes to the per-pair checkers of
    :mod:`repro.core.intra`, and no intra finding exists without byte
    overlap (op-op NONOV cells and both ORIGIN rules require it), so
    nothing outside the joins can fire.
    """
    def weight(unit: EpochUnit) -> int:
        epoch, ops, attached, _obj_mems = unit
        return len(ops) + len(attached) + (
            _rows_bound(mems, _epoch_rows(epoch)) if attached else 0)

    return _batched(lambda batch: _epochs_pass(batch, mems, memory_model),
                    units, weight)


def _epochs_pass(units: Sequence[EpochUnit], mems: Dict[int, MemRows],
                 memory_model: str) -> UnitFindings:
    found: UnitFindings = [[] for _ in units]

    # (a) RMA op pairs on the same target: one self-join of target
    # intervals, group = (epoch, target)
    ops: List[RMAOpView] = []
    op_group: List[int] = []
    op_unit: List[int] = []
    n_groups = 0
    for u, (_epoch, unit_ops, _attached, _obj_mems) in enumerate(units):
        if len(unit_ops) < 2:
            continue
        by_target: Dict[int, List[RMAOpView]] = {}
        for op in unit_ops:
            by_target.setdefault(op.target, []).append(op)
        for same in by_target.values():
            if len(same) > 1:
                ops.extend(same)
                op_group.extend([n_groups] * len(same))
                op_unit.extend([u] * len(same))
                n_groups += 1
    if ops:
        pair_a, pair_b = _self_join("intra", IntervalTable.from_sets(
            [op.target_intervals for op in ops], groups=op_group))
        _record_candidates("intra", "op_pair", len(pair_a))
        for i, j in zip(pair_a.tolist(), pair_b.tolist()):
            error = _check_target_pair(ops[i], ops[j], memory_model)
            if error is not None:
                found[op_unit[i]].append(error)

    # (b) attached origin buffers vs plain locals (columnar rows first,
    # then the call-derived objects) and vs each other, group = epoch
    with_attached = [u for u, unit in enumerate(units) if unit[2]]
    if not with_attached:
        return found
    attached = [acc for u in with_attached for acc in units[u][2]]
    att_unit = [u for u in with_attached for _acc in units[u][2]]
    objs = [la for u in with_attached for la in units[u][3]]
    obj_unit = [u for u in with_attached for _la in units[u][3]]
    att_table = IntervalTable.from_sets([acc.intervals for acc in attached],
                                        groups=att_unit)
    rows = gather_rows(mems, [_epoch_rows(units[u][0])
                               for u in with_attached])
    n_rows = len(rows.idx) if rows is not None else 0
    plain_parts = [IntervalTable.from_sets(
        [la.intervals for la in objs],
        owners=range(n_rows, n_rows + len(objs)), groups=obj_unit)]
    plain_seq = np.array([la.seq for la in objs], dtype=np.int64)
    plain_store = np.array([la.access == "store" for la in objs],
                           dtype=bool)
    if n_rows:
        plain_parts.insert(0, IntervalTable.from_columns(
            rows.addr, rows.size,
            group=np.array(with_attached, dtype=np.int64)[rows.group]))
        plain_seq = np.concatenate([rows.seq, plain_seq])
        plain_store = np.concatenate([rows.store, plain_store])
    pair_a, pair_p = (_join("intra", att_table,
                            IntervalTable.concat(plain_parts))
                      if n_rows or objs else ((), ()))
    if len(pair_a):
        # vectorized prefilter mirroring _check_attached_vs_plain's
        # seq-window and store conditions; survivors re-run the full
        # scalar check for the identical payload
        att_seq = np.array([acc.origin_of.seq for acc in attached],
                           dtype=np.int64)
        att_complete = np.array(
            [acc.origin_of.complete_seq for acc in attached],
            dtype=np.int64)
        att_store = np.array([acc.access == "store" for acc in attached])
        keep = ((plain_seq[pair_p] >= att_seq[pair_a])
                & (plain_seq[pair_p] <= att_complete[pair_a])
                & (att_store[pair_a] | plain_store[pair_p]))
        pair_a, pair_p = pair_a[keep], pair_p[keep]
        _record_candidates("intra", "origin_vs_plain", len(pair_a))
        for k, m in zip(pair_a.tolist(), pair_p.tolist()):
            acc = attached[k]
            la = (mems[acc.rank].local_access(int(rows.idx[m]))
                  if m < n_rows else objs[m - n_rows])
            found[att_unit[k]].extend(_check_attached_vs_plain(acc, la))

    if len(attached) == len(with_attached):  # one buffer per epoch
        return found
    pair_a, pair_b = _self_join("intra", att_table)
    _record_candidates("intra", "origin_pair", len(pair_a))
    for k, m in zip(pair_a.tolist(), pair_b.tolist()):
        acc_a, acc_b = attached[k], attached[m]
        if acc_a.origin_of is acc_b.origin_of:
            continue  # one call's own buffers don't self-conflict
        found[att_unit[k]].extend(_check_attached_pair(acc_a, acc_b))
    return found


# ----------------------------------------------------------------------
# cross-process detection
# ----------------------------------------------------------------------


def region_units(model: AccessModel,
                 regions: RegionIndex) -> List[RegionUnit]:
    """Per-region work units for regions that contain at least one op
    (others cannot produce cross-process findings), in region order."""
    ops_by_region, locals_by_region = bucket_by_region(model, regions)
    return [(ops_by_region[region.index],
             locals_by_region.get(region.index, []), region.bounds)
            for region in regions if ops_by_region.get(region.index)]


def detect_cross_process_sweep(pre: PreprocessedTrace, model: AccessModel,
                               regions: RegionIndex,
                               oracle: ConcurrencyOracle,
                               epoch_index: EpochIndex,
                               memory_model: str = MODEL_SEPARATE
                               ) -> List[ConsistencyError]:
    """Cross-process detection over every concurrent region — the
    paper's two-step scan of section IV-C-4, joins first."""
    return _flatten(detect_regions_sweep(
        pre, region_units(model, regions), model.mems, oracle,
        _LocalLockIndex(epoch_index, pre.nranks), memory_model))


def detect_regions_sweep(pre: PreprocessedTrace,
                         units: Sequence[RegionUnit],
                         mems: Dict[int, MemRows],
                         oracle: ConcurrencyOracle,
                         lock_index: _LocalLockIndex,
                         memory_model: str = MODEL_SEPARATE
                         ) -> UnitFindings:
    """A list of concurrent regions, joins first.

    Per unit, the paper's two linear passes with ``region_locals`` plus
    ``mems[rank]`` inside the region's seq bounds as the local
    population: object locals take the step-2 loop
    (:func:`~repro.core.inter.check_local_against_entries`), op-op
    pairs and the packed memory rows go through grouped interval joins
    with one batched happens-before query each, and the no-overlap
    store-vs-put/acc ``ERROR`` rule (separate model) is enumerated as an
    explicit product over the stores that touch the exposed window.
    """
    def weight(unit: RegionUnit) -> int:
        region_ops, _locals, bounds = unit
        return len(region_ops) + sum(
            _rows_bound(mems, (target, *bounds[target]))
            for target in {op.target for op in region_ops})

    return _batched(
        lambda batch: _regions_pass(pre, batch, mems, oracle, lock_index,
                                    memory_model), units, weight)


def _regions_pass(pre: PreprocessedTrace, units: Sequence[RegionUnit],
                  mems: Dict[int, MemRows], oracle: ConcurrencyOracle,
                  lock_index: _LocalLockIndex,
                  memory_model: str) -> UnitFindings:
    found: UnitFindings = [[] for _ in units]

    # bucket each region's ops into (window, target) vector entries, in
    # first-recorded order (step 1's walk); each (region, target) is one
    # memory-row group, numbered in first-recorded order too, so step
    # 2b's walk — by region, target, entry — is by (group, entry)
    entries: List[_OpVector] = []
    entry_unit: List[int] = []
    entry_group: List[int] = []
    entries_by_rank: List[Dict[int, List[_OpVector]]] = []
    row_bounds: List[RowBounds] = []
    for u, (region_ops, _locals, bounds) in enumerate(units):
        vector: Dict[Tuple[int, int], _OpVector] = {}
        by_rank: Dict[int, List[_OpVector]] = {}
        group_of: Dict[int, int] = {}
        for op in region_ops:
            key = (op.win_id, op.target)
            entry = vector.get(key)
            if entry is None:
                entry = vector[key] = _OpVector(op.win_id, op.target)
                if op.target not in group_of:
                    group_of[op.target] = len(row_bounds)
                    row_bounds.append((op.target, *bounds[op.target]))
                by_rank.setdefault(op.target, []).append(entry)
                entries.append(entry)
                entry_unit.append(u)
                entry_group.append(group_of[op.target])
            entry.append(op)
        entries_by_rank.append(by_rank)
    n_entries = len(entries)
    if not n_entries:
        return found
    ops = [op for entry in entries for op in entry.ops]
    op_entry = np.repeat(np.arange(n_entries, dtype=np.int64),
                         [len(entry.ops) for entry in entries])
    op_rank = np.array([op.rank for op in ops], dtype=np.int64)
    op_start = np.array([op.seq for op in ops], dtype=np.int64)
    op_end = np.array([op.complete_seq for op in ops], dtype=np.int64)

    def op_spans(idx: np.ndarray):
        return op_rank[idx], op_start[idx], op_end[idx]

    # step 1: one self-join of every entry's target intervals
    tgt_table = IntervalTable.from_sets(
        [op.target_intervals for op in ops], groups=op_entry)
    pair_a, pair_b = _self_join("inter", tgt_table)
    keep = op_rank[pair_a] != op_rank[pair_b]  # same-rank: intra's job
    pair_a, pair_b = pair_a[keep], pair_b[keep]
    _record_candidates("inter", "op_pair", len(pair_a))
    keep = ~oracle.ordered_pairs(*op_spans(pair_a), *op_spans(pair_b))
    for i, j in zip(pair_a[keep].tolist(), pair_b[keep].tolist()):
        error = _check_concurrent_ops(ops[i], ops[j], memory_model)
        if error is not None:
            found[entry_unit[op_entry[i]]].append(error)

    # step 2a: call-derived local objects — the per-access inner loop
    for u, (_ops, region_locals, _bounds) in enumerate(units):
        by_rank = entries_by_rank[u]
        for la in region_locals:
            check_local_against_entries(
                pre, la, by_rank.get(la.rank, ()), oracle, lock_index,
                memory_model, found[u])

    # step 2b: packed memory rows, columnar over every entry at once
    rows = gather_rows(mems, row_bounds)
    if rows is None:
        return found
    entry_group = np.array(entry_group, dtype=np.int64)
    # clip rows to each entry's exposed window: a row matters only
    # through its bytes inside the exposure (the `la_in_window` clip
    # of check_local_against_entries); rows meet the exposures of their own (region, target) group
    exposures = {key: pre.window(key[0]).exposure(key[1])
                 for key in {(entry.win_id, entry.target)
                             for entry in entries}}
    expo = [(iv.start, iv.stop, e) for e, entry in enumerate(entries)
            for iv in exposures[entry.win_id, entry.target]]
    if not expo:
        return found
    expo_lo, expo_hi, expo_entry = (np.array(col, dtype=np.int64)
                                    for col in zip(*expo))
    row_idx, expo_idx = _join(
        "inter",
        IntervalTable.from_columns(rows.addr, rows.size, group=rows.group),
        IntervalTable(expo_lo, expo_hi, group=entry_group[expo_entry]))
    if not len(row_idx):
        return found
    hit_entry = expo_entry[expo_idx]
    clipped = IntervalTable(
        np.maximum(rows.addr[row_idx], expo_lo[expo_idx]),
        np.minimum(rows.addr[row_idx] + rows.size[row_idx],
                   expo_hi[expo_idx]),
        owner=row_idx, group=hit_entry)

    # overlap-born candidates (Table-I NONOV cells)
    op_is_update = np.array([op.kind != GET for op in ops])
    pair_r, pair_o = _join("inter", clipped, tgt_table)
    row_is_store = rows.store[pair_r]
    update = op_is_update[pair_o]
    if memory_model == MODEL_SEPARATE:
        # store vs put/acc is the ERROR rule, enumerated below without
        # the overlap requirement; load-load and load-get cells are
        # BOTH — never errors
        keep = row_is_store != update
    else:
        keep = update | row_is_store  # only load-vs-get drops
    pair_r, pair_o = pair_r[keep], pair_o[keep]
    by_op = np.zeros(len(pair_r), dtype=bool)

    # the MPI-2.2 special rule: a store inside the exposed window vs any
    # concurrent put/acc on it, byte overlap not required — per entry,
    # its stores × its update ops, walked op-major
    if memory_model == MODEL_SEPARATE and op_is_update.any():
        store_row, store_entry = unique_pairs(row_idx, hit_entry)
        keep = rows.store[store_row]
        store_row, store_entry = store_row[keep], store_entry[keep]
        update_ops = np.nonzero(op_is_update)[0]
        n_updates = np.bincount(op_entry[update_ops], minlength=n_entries)
        rep, k = expand_ranges((np.cumsum(n_updates) - n_updates)[store_entry],
                               n_updates[store_entry])
        pair_r = np.concatenate([pair_r, store_row[rep]])
        pair_o = np.concatenate([pair_o, update_ops[k]])
        by_op = np.concatenate([by_op, np.ones(len(rep), dtype=bool)])
    if not len(pair_r):
        return found
    # emission order: step 2b's walk over entries; per entry the
    # overlap-born pairs row-major, then the special-rule product
    # op-major
    pair_entry = op_entry[pair_o]
    order = np.lexsort((np.where(by_op, pair_r, pair_o),
                        np.where(by_op, pair_o, pair_r), by_op,
                        pair_entry, entry_group[pair_entry]))
    pair_r, pair_o = pair_r[order], pair_o[order]
    _record_candidates("inter", "local_vs_op", len(pair_r))

    # happens-before filter, one batched query for every candidate pair;
    # survivors materialize a LocalAccess and take the per-pair
    # verdict path
    seqs = rows.seq[pair_r]
    keep = ~oracle.ordered_pairs(
        np.array([op.target for op in ops], dtype=np.int64)[pair_o],
        seqs, seqs, *op_spans(pair_o))
    for r, o in zip(pair_r[keep].tolist(), pair_o[keep].tolist()):
        op = ops[o]
        la = mems[op.target].local_access(int(rows.idx[r]))
        error = _check_concurrent_local_vs_op(
            la, la.intervals.intersection(exposures[op.win_id, op.target]),
            op, lock_index, memory_model)
        if error is not None:
            found[entry_unit[op_entry[o]]].append(error)
    return found
