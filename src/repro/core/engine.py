"""repro.core.engine — the sweep-line columnar conflict engine.

The paper's detectors enumerate access pairs — every pair of an epoch,
every access against a ``(window, target)`` vector entry — and then test
each for byte overlap (kept as test oracles in
``tests/reference/pairwise.py``).  This module inverts that, for a whole
*list* of work units (epochs, or concurrent regions) at once, and without
an object per access: the units are index arrays into the
:class:`~repro.core.model.OpTable`, their byte intervals go into
:class:`~repro.util.intervals.IntervalTable`\\ s whose ``group`` column
keeps apart what those loops keep apart, and one sort+``searchsorted``
sweep (:func:`~repro.util.intervals.overlap_join`) per stage yields
*only the candidate pairs that actually share bytes* — a constant number
of numpy joins per batch, not one per epoch or vector entry.  The
candidates are then cut as arrays: program order and completion points,
Table I (:data:`~repro.core.compat.VERDICT_LOOKUP`, the table itself as
an integer lookup), one batched happens-before query.  These cuts are
the only place production judges a pair.

What is left — the *survivors*, each a finding, carrying the rule its
cut decided — is all that ever becomes an object:
:func:`emit_epoch_findings` / :func:`emit_region_findings` build the two
views of each (:meth:`OpTable.op_view`, :meth:`OpTable.local_view`,
:meth:`MemRows.local_access`) and hand them to
:func:`~repro.core.diagnostics.write_finding`, which words it.  A clean
trace has no survivors and builds no view.

The two halves are separate so that they can run in different
processes: a pool worker *finds* (it holds the columns, no call event),
the parent *emits*.  :func:`check_epochs_sweep` and
:func:`detect_regions_sweep` do both, and return findings *per unit*, in
the order the per-unit nested loops emit them, so any contiguous
chunking of a unit list concatenates to the same sequence.  Every
executor is a policy over them: the serial checker passes all units,
the pool its chunks, the incremental checker its dirty shards, the
streaming checker a release.  Inside, unit lists are cut into
sub-batches of at most :data:`BATCH_ROWS` flattened rows, which bounds
the joins' working set at any trace size.

Completeness of the join: among the RMA kinds (put/get/acc) Table I has
no ``ERROR`` cells, and its ``NONOV`` cells fire only on overlap, so
every op-op (and every attached-origin) finding requires byte overlap —
the join loses nothing.  Cells that fire *without* overlap (the MPI-2.2
store-vs-Put/Accumulate ``ERROR`` cell of the separate memory model) are
read off the lookup and enumerated explicitly, as the product of the
local accesses that touch an entry's exposed window with that entry's
ops of a firing kind — output-bounded by the same quantity the paper's
linear scan walks.

Candidate-pair counts land in the obs metric
``engine_candidate_pairs_total{phase,stage}`` (``stage="table_filter"``:
what the Table-I lookup let through) and join invocations in
``engine_join_calls_total{phase}``, so pruning effectiveness and the
batching are observable (deliberately *not* in ``CheckStats`` — the
canonical report must not depend on how the pairs were found).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro import obs
from repro.core.clocks import ConcurrencyOracle
from repro.core.compat import (
    MODELS, MODEL_SEPARATE, ORIGIN, VERDICT_LOOKUP, VERDICTS,
)
from repro.core.diagnostics import ConsistencyError, write_finding
from repro.core.epochs import EpochIndex, LocalLockIndex
from repro.core.model import AccessModel, MemRows, OpTable, gather_rows
from repro.core.preprocess import PreprocessedTrace
from repro.core.regions import RegionIndex
from repro.util.intervals import (
    IntervalTable, expand_ranges, grouped_searchsorted, overlap_join,
    unique_pairs,
)

#: sub-batch budget: at most this many flattened rows (op intervals plus
#: an upper bound on the memory rows in range) enter one kernel pass —
#: it bounds the joins' transient arrays (docs/performance.md has the sizing)
BATCH_ROWS = 1 << 15

#: per-unit findings, aligned with the unit list a kernel was handed
UnitFindings = List[List[ConsistencyError]]

#: the pairs of a unit list that survive every cut — each one finding —
#: in emission order: the unit's position in the list, the pattern
#: (below), the rule the cut decided (a code into
#: :data:`~repro.core.compat.VERDICTS`), and what ``a`` / ``b`` index
Survivors = namedtuple("Survivors", "unit pattern rule a b")

OP_PAIR = 0          # a, b: op rows
ORIGIN_VS_ROW = 1    # a: attached local row, b: memory row of its rank
ORIGIN_VS_LOCAL = 2  # a: attached local row, b: plain local row
ORIGIN_PAIR = 3      # a, b: attached local rows
LOCAL_VS_OP = 4      # a: local row, b: op row
ROW_VS_OP = 5        # a: memory row of the op's target rank, b: op row

#: the provenance pattern each pattern is written as
PATTERN_NAMES = ("op_pair", "origin_vs_plain", "origin_vs_plain",
                 "origin_pair", "local_vs_op", "local_vs_op")

_ORIGIN = VERDICTS.index(ORIGIN)
_NONE = np.empty(0, dtype=np.int64)


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


def _batched(kernel: Callable[[int, int], List[tuple]],
             weights: np.ndarray) -> Survivors:
    """Run ``kernel(lo, hi)`` over contiguous sub-batches of a unit list
    holding at most :data:`BATCH_ROWS` weight each (always at least one
    unit) and string the stages' survivors together: per unit, stage
    after stage."""
    stages = [(stage[0] + lo, *stage[1:])
              for lo, hi in batch_bounds(weights.tolist(), BATCH_ROWS)
              for stage in kernel(lo, hi) if len(stage[0])]
    if not stages:
        return Survivors(*[_NONE] * len(Survivors._fields))
    columns = [np.concatenate(
        [np.broadcast_to(stage[k], stage[0].shape) for stage in stages])
        for k in range(len(Survivors._fields))]
    order = np.argsort(columns[0], kind="stable")
    return Survivors(*(column[order] for column in columns))


def _mem_sizes(table: OpTable, mems: Dict[int, MemRows]) -> np.ndarray:
    return np.array([len(mems[rank]) if rank in mems else 0
                     for rank in range(table.nranks)], dtype=np.int64)


def _rows_bound(sizes: np.ndarray, rank: np.ndarray, lo_seq: np.ndarray,
                hi_seq: np.ndarray) -> np.ndarray:
    """Upper bound on the memory rows inside each ``(rank, lo, hi)``
    (seqs are distinct trace record indices), without touching them."""
    return np.minimum(sizes[rank], np.maximum(hi_seq - lo_seq - 1, 0))


def _csr_table(start: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               rows: np.ndarray, group: np.ndarray,
               first_owner: int = 0) -> IntervalTable:
    """The byte intervals of ``rows`` out of a CSR interval table;
    position ``k`` in ``rows`` owns its intervals as ``first_owner + k``
    and puts them in ``group[k]``."""
    owner, at = expand_ranges(start[rows], start[rows + 1] - start[rows])
    return IntervalTable(lo[at], hi[at], owner=owner + first_owner,
                         group=group[owner])


def _first_seen(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, ids)`` for a walk that opens a bucket per distinct key
    as it meets it: ``ids`` numbers the keys in first-seen order and
    ``order`` lists the positions bucket by bucket, each in walk
    order."""
    _keys, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
    number = np.empty(len(first), dtype=np.int64)
    number[np.argsort(first)] = np.arange(len(first))
    ids = number[inverse]
    return np.argsort(ids, kind="stable"), ids


def _verdicts(table: OpTable, model: int, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """Table I's verdict on overlapping op pairs, as codes (0: allowed)."""
    same = (table.acc[a] >= 0) & (table.acc[a] == table.acc[b])
    return VERDICT_LOOKUP[model, table.kind[a], table.kind[b], 1,
                          same.astype(np.int64)]


# ----------------------------------------------------------------------
# intra-epoch detection
# ----------------------------------------------------------------------


def detect_intra_epoch_sweep(model: AccessModel, epoch_index: EpochIndex,
                             memory_model: str = MODEL_SEPARATE
                             ) -> List[ConsistencyError]:
    """Find conflicting operation pairs inside each access epoch."""
    table = model.table
    return [error for found in check_epochs_sweep(
        table, epoch_units(table), model.mems, memory_model)
        for error in found]


def epoch_units(table: OpTable) -> np.ndarray:
    """The intra-epoch work units: the epochs (indices into
    ``epoch_index.epochs``, ascending) that hold at least one op —
    others cannot produce a finding."""
    start, _rows = table.ops_by_epoch
    return np.nonzero(np.diff(start))[0]


def check_epochs_sweep(table: OpTable, epochs: np.ndarray,
                       mems: Dict[int, MemRows],
                       memory_model: str = MODEL_SEPARATE) -> UnitFindings:
    """Within-epoch ruleset over a list of epoch units, joins first:
    findings per unit, aligned with ``epochs``."""
    return emit_epoch_findings(
        table, mems, find_epoch_pairs(table, epochs, mems, memory_model),
        len(epochs))


def find_epoch_pairs(table: OpTable, epochs: np.ndarray,
                     mems: Dict[int, MemRows],
                     memory_model: str = MODEL_SEPARATE) -> Survivors:
    """The pairs of the epoch units ``epochs`` that are findings, with
    their rules.  An epoch's ops and attached origin/result buffers are table
    rows, its call-derived plain locals the table's plain locals inside
    its seq bounds, its instrumented loads/stores ``mems[epoch rank]``
    inside them; no intra finding exists without byte overlap (op-op
    NONOV cells and both ORIGIN rules require it), so nothing outside
    the joins can fire."""
    epochs = np.asarray(epochs, dtype=np.int64)
    op_start, _rows = table.ops_by_epoch
    att_start, _rows = table.attached_by_epoch
    n_attached = att_start[epochs + 1] - att_start[epochs]
    cols = table.epochs
    weights = op_start[epochs + 1] - op_start[epochs] + n_attached + np.where(
        n_attached > 0, _rows_bound(
            _mem_sizes(table, mems), cols.rank[epochs],
            cols.open_seq[epochs], cols.close_seq[epochs]), 0)
    model = MODELS.index(memory_model)
    return _batched(lambda lo, hi: _epochs_pass(table, epochs[lo:hi], mems,
                                                model), weights)


def _epochs_pass(table: OpTable, epochs: np.ndarray,
                 mems: Dict[int, MemRows], model: int) -> List[tuple]:
    stages: List[tuple] = []

    # (a) RMA op pairs on the same target: one self-join of target
    # intervals, group = (epoch, target), buckets in first-seen order
    start, rows = table.ops_by_epoch
    unit, at = expand_ranges(start[epochs], start[epochs + 1] - start[epochs])
    if len(at) > 1:
        ops = rows[at]
        order, group = _first_seen(unit * table.nranks + table.target[ops])
        ops, unit, group = ops[order], unit[order], group[order]
        # (a bucket of one has no pair: most epochs hold one op a target)
        pair_a, pair_b = _self_join("intra", _csr_table(
            table.target_start, table.target_lo, table.target_hi, ops,
            group)) if len(ops) > group[-1] + 1 else (_NONE, _NONE)
        _record_candidates("intra", "op_pair", len(pair_a))
        a, b = ops[pair_a], ops[pair_b]
        # ops completing at different points (MPI-3 flush between them)
        # are consistency-ordered even within one epoch
        rule = _verdicts(table, model, a, b)
        keep = (table.complete[a] > table.seq[b]) \
            & (table.complete[b] > table.seq[a]) & (rule > 0)
        _record_candidates("intra", "table_filter", int(keep.sum()))
        stages.append((unit[pair_a][keep], OP_PAIR, rule[keep], a[keep],
                       b[keep]))

    # (b) attached origin buffers vs plain locals (columnar rows first,
    # then the call-derived ones) and vs each other, group = epoch
    start, rows = table.attached_by_epoch
    unit, at = expand_ranges(start[epochs], start[epochs + 1] - start[epochs])
    if not len(at):
        return stages
    attached = rows[at]
    holders = np.unique(unit)          # the units with attached buffers
    att_group = np.searchsorted(holders, unit)
    owner_op = table.l_op[attached]
    att_table = _csr_table(table.local_start, table.local_lo,
                           table.local_hi, attached, att_group)
    cols = table.epochs
    bounds = (cols.rank[epochs[holders]], cols.open_seq[epochs[holders]],
              cols.close_seq[epochs[holders]])
    mem = gather_rows(mems, *bounds)
    call_group, calls = plain_locals_inside(table, *bounds)
    n_mem = len(mem.idx)
    pair_a, pair_p = _join("intra", att_table, IntervalTable.concat([
        IntervalTable.from_columns(mem.addr, mem.size, group=mem.group),
        _csr_table(table.local_start, table.local_lo, table.local_hi,
                   calls, call_group, first_owner=n_mem)]))
    if len(pair_a):
        # program order protects accesses before the issue, the
        # flush/close completes the op before anything after it; two
        # reads never conflict
        seq = np.concatenate([mem.seq, table.l_seq[calls]])[pair_p]
        store = np.concatenate([mem.store, table.l_store[calls]])[pair_p]
        keep = (seq >= table.seq[owner_op[pair_a]]) \
            & (seq <= table.complete[owner_op[pair_a]]) \
            & (table.l_store[attached[pair_a]] | store)
        pair_a, pair_p = pair_a[keep], pair_p[keep]
        _record_candidates("intra", "origin_vs_plain", len(pair_a))
        is_mem = pair_p < n_mem
        stages.append((
            unit[pair_a], np.where(is_mem, ORIGIN_VS_ROW, ORIGIN_VS_LOCAL),
            _ORIGIN, attached[pair_a],
            np.concatenate([mem.idx, calls])[pair_p]))

    if len(attached) == len(holders):  # one buffer per epoch
        return stages
    pair_a, pair_b = _self_join("intra", att_table)
    _record_candidates("intra", "origin_pair", len(pair_a))
    a, b = owner_op[pair_a], owner_op[pair_b]
    # one call's own buffers don't self-conflict; spans must overlap and
    # one side must write
    keep = (a != b) & (table.complete[a] > table.seq[b]) \
        & (table.complete[b] > table.seq[a]) \
        & (table.l_store[attached[pair_a]] | table.l_store[attached[pair_b]])
    stages.append((unit[pair_a][keep], ORIGIN_PAIR, _ORIGIN,
                   attached[pair_a][keep], attached[pair_b][keep]))
    return stages


def plain_locals_inside(table: OpTable, rank: np.ndarray, lo_seq: np.ndarray,
                        hi_seq: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The call-derived plain locals (buffer calls) of ``rank[g]`` with
    ``lo_seq[g] < seq < hi_seq[g]``: ``(g, local row)`` pairs, by ``g``
    and in table order within one."""
    plain, plain_rank, plain_seq = table.plain
    first, stop = np.split(grouped_searchsorted(
        plain_rank, plain_seq, np.concatenate([rank, rank]),
        np.concatenate([lo_seq, hi_seq - 1]), side="right"), 2)
    group, at = expand_ranges(first, np.maximum(stop - first, 0))
    order = np.lexsort((plain[at], group))
    return group[order], plain[at][order]


def emit_epoch_findings(table: OpTable, mems: Dict[int, MemRows],
                        survivors: Survivors, n_units: int) -> UnitFindings:
    """Build the views of the intra survivors and write each one's
    finding: the findings, per unit."""
    found: UnitFindings = [[] for _ in range(n_units)]
    if not len(survivors.unit):
        return found
    op, local = table.op_view, table.local_view
    pairs = survivors.pattern == OP_PAIR
    table.prefetch(
        np.concatenate([survivors.a[pairs], survivors.b[pairs]]),
        np.concatenate([survivors.a[~pairs], survivors.b[
            (survivors.pattern == ORIGIN_PAIR)
            | (survivors.pattern == ORIGIN_VS_LOCAL)]]))
    for unit, pattern, rule, a, b in zip(
            *(col.tolist() for col in survivors)):
        if pattern == OP_PAIR:
            a, b = op(a), op(b)
        else:
            a = local(a)
            b = (mems[a.rank].local_access(b) if pattern == ORIGIN_VS_ROW
                 else local(b))
        found[unit].append(write_finding(
            "intra", PATTERN_NAMES[pattern], VERDICTS[rule], a, b))
    return found


# ----------------------------------------------------------------------
# cross-process detection
# ----------------------------------------------------------------------


class RegionMembers:
    """Which ops and call-derived locals each concurrent region holds —
    every region their span intersects — as CSR pairs ``(start, rows)``
    over the :class:`OpTable`: ops in ``(rank, seq)`` order (the order
    the paper's scan records them in, whatever way the table was
    assembled), locals in table order."""

    def __init__(self, table: OpTable, regions: RegionIndex):
        #: ``(n_regions + 1, nranks)`` seq bounds (``RegionIndex.bounds``)
        self.bounds = regions.bounds
        first, last = regions.regions_of_spans(
            np.concatenate([table.rank, table.l_rank]),
            np.concatenate([table.seq, table.l_seq]),
            np.concatenate([table.complete, table.l_end]))
        #: per op / local row, the first and last region of its span
        self.op_span = first[:table.n_ops], last[:table.n_ops]
        self.local_span = first[table.n_ops:], last[table.n_ops:]
        self.ops = _spread(len(regions), *self.op_span,
                           np.lexsort((table.seq, table.rank)))
        self.locals = _spread(len(regions), *self.local_span,
                              np.arange(table.n_local))

    def units(self) -> np.ndarray:
        """The cross-process work units: the regions that contain at
        least one op (others cannot produce cross-process findings)."""
        return np.nonzero(np.diff(self.ops[0]))[0]


def _spread(n_regions: int, first: np.ndarray, last: np.ndarray,
            rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(start, rows)``: ``rows`` — each a member of regions
    ``first..last`` — grouped by region, in the order given."""
    member, region = expand_ranges(first[rows],
                                   np.maximum(last - first + 1, 0)[rows])
    order = np.argsort(region, kind="stable")
    return (np.searchsorted(region[order], np.arange(n_regions + 1)),
            rows[member[order]])


def detect_cross_process_sweep(pre: PreprocessedTrace, model: AccessModel,
                               regions: RegionIndex,
                               oracle: ConcurrencyOracle,
                               epoch_index: EpochIndex,
                               memory_model: str = MODEL_SEPARATE
                               ) -> List[ConsistencyError]:
    """Cross-process detection over every concurrent region — the
    paper's two-step scan of section IV-C-4, joins first."""
    members = RegionMembers(model.table, regions)
    return [error for found in detect_regions_sweep(
        pre, model.table, members, members.units(), model.mems, oracle,
        LocalLockIndex(epoch_index), memory_model)
        for error in found]


def detect_regions_sweep(pre: PreprocessedTrace, table: OpTable,
                         members: RegionMembers, regions: np.ndarray,
                         mems: Dict[int, MemRows],
                         oracle: ConcurrencyOracle,
                         lock_index: LocalLockIndex,
                         memory_model: str = MODEL_SEPARATE
                         ) -> UnitFindings:
    """A list of concurrent regions, joins first: findings per unit,
    aligned with ``regions``."""
    return emit_region_findings(
        table, mems, pre, lock_index,
        find_region_pairs(table, members, regions, mems, oracle,
                          memory_model), len(regions))


def find_region_pairs(table: OpTable, members: RegionMembers,
                      regions: np.ndarray, mems: Dict[int, MemRows],
                      oracle: ConcurrencyOracle,
                      memory_model: str = MODEL_SEPARATE) -> Survivors:
    """The pairs of the region units ``regions`` that are findings, with
    their rules.  Per unit, the paper's two linear passes as joins: the
    region's ops bucketed into ``(window, target)`` vector entries and
    self-joined (step 1), then the local population at each target — the
    region's call-derived locals with their spans, and ``mems[target]``
    inside the region's seq bounds — clipped to the entries' exposed
    windows and joined against the entries' ops (step 2); Table I and
    one batched happens-before query cut each candidate set."""
    regions = np.asarray(regions, dtype=np.int64)
    start, rows = members.ops
    n_ops = start[regions + 1] - start[regions]
    # a unit's weight: its ops plus the memory rows in range at each of
    # its targets
    unit, at = expand_ranges(start[regions], n_ops)
    key = np.unique(unit * table.nranks + table.target[rows[at]])
    unit, target = key // table.nranks, key % table.nranks
    weights = n_ops + np.bincount(unit, _rows_bound(
        _mem_sizes(table, mems), target,
        members.bounds[regions[unit], target],
        members.bounds[regions[unit] + 1, target]),
        minlength=len(regions)).astype(np.int64)
    model = MODELS.index(memory_model)
    return _batched(
        lambda lo, hi: _regions_pass(table, members, regions[lo:hi], mems,
                                     oracle, model), weights)


def _regions_pass(table: OpTable, members: RegionMembers,
                  regions: np.ndarray, mems: Dict[int, MemRows],
                  oracle: ConcurrencyOracle, model: int) -> List[tuple]:
    nranks = table.nranks
    start, rows = members.ops
    unit, at = expand_ranges(start[regions], start[regions + 1] - start[regions])
    if not len(at):
        return []
    ops = rows[at]

    # bucket each region's ops into (window, target) vector entries, in
    # first-recorded order (step 1's walk); each (region, target) is one
    # memory-row group, numbered in first-recorded order too, so step
    # 2b's walk — by region, target, entry — is by (group, entry)
    win = table.window_index(table.win[ops])
    order, entry = _first_seen(
        (unit * len(table.win_ids) + win) * nranks + table.target[ops])
    ops, entry = ops[order], entry[order]
    n_entries = int(entry[-1]) + 1
    head = np.searchsorted(entry, np.arange(n_entries))
    entry_unit, entry_win = unit[order][head], win[order][head]
    entry_target = table.target[ops][head]
    _order, entry_group = _first_seen(entry_unit * nranks + entry_target)
    head = np.unique(entry_group, return_index=True)[1]
    group_unit, group_target = entry_unit[head], entry_target[head]
    group_region = regions[group_unit]

    op_rank, op_seq, op_end = table.rank[ops], table.seq[ops], \
        table.complete[ops]
    stages: List[tuple] = []

    # step 1: one self-join of every entry's target intervals
    tgt_table = _csr_table(table.target_start, table.target_lo,
                           table.target_hi, ops, entry)
    pair_a, pair_b = _self_join("inter", tgt_table) \
        if len(ops) > n_entries else (_NONE, _NONE)
    keep = op_rank[pair_a] != op_rank[pair_b]  # same-rank: intra's job
    pair_a, pair_b = pair_a[keep], pair_b[keep]
    _record_candidates("inter", "op_pair", len(pair_a))
    rule = _verdicts(table, model, ops[pair_a], ops[pair_b])
    keep = rule > 0
    pair_a, pair_b, rule = pair_a[keep], pair_b[keep], rule[keep]
    _record_candidates("inter", "table_filter", len(pair_a))
    keep = ~oracle.ordered_pairs(
        op_rank[pair_a], op_seq[pair_a], op_end[pair_a],
        op_rank[pair_b], op_seq[pair_b], op_end[pair_b])
    stages.append((entry_unit[entry[pair_a[keep]]], OP_PAIR, rule[keep],
                   ops[pair_a[keep]], ops[pair_b[keep]]))

    # step 2: the local population at each target against the entries
    # there.  An access matters only through its bytes inside an entry's
    # exposed window, and meets the exposures of its own (region,
    # target) group
    expo_lo = table.win_base[entry_win, entry_target]
    expo_hi = expo_lo + table.win_size[entry_win, entry_target]
    exposures = IntervalTable(expo_lo, expo_hi, group=entry_group)
    op_kind = table.kind[ops]

    def against_entries(lo, hi, owner, group, store):
        """Interval rows ``[lo, hi)`` of the accesses ``owner`` (group
        and whether it writes are per access) against every entry:
        ``(access, op position, by_op, rule)`` candidate pairs — the
        overlap-born ones (Table-I NONOV cells), then with ``by_op`` the
        cells that fire without byte overlap, per entry its accesses of
        the firing kind × its ops of the fired-at kinds; each with the
        code of the cell that made it."""
        row, hit = _join("inter", IntervalTable(
            lo, hi, owner=np.arange(len(lo)), group=group[owner]),
            exposures)          # (interval row, entry)
        pair_l, pair_o = _join("inter", IntervalTable(
            np.maximum(lo[row], expo_lo[hit]),
            np.minimum(hi[row], expo_hi[hit]),
            owner=owner[row], group=hit), tgt_table)
        access = store[pair_l].astype(np.int64)    # LOAD / STORE codes
        verdict = VERDICT_LOOKUP[model, access, op_kind[pair_o], :, 0]
        keep = (verdict[:, 1] > 0) & (verdict[:, 0] == 0)
        pairs = [(pair_l[keep], pair_o[keep])]
        touched = unique_pairs(owner[row], hit)
        for access in (0, 1):
            fired_at = np.nonzero(
                VERDICT_LOOKUP[model, access, op_kind, 0, 0] > 0)[0]
            mine = store[touched[0]] == bool(access)
            if len(fired_at) and mine.any():
                per_entry = np.bincount(entry[fired_at],
                                        minlength=n_entries)
                rep, k = expand_ranges(
                    (np.cumsum(per_entry) - per_entry)[touched[1][mine]],
                    per_entry[touched[1][mine]])
                pairs.append((touched[0][mine][rep], fired_at[k]))
        pair_l, pair_o = (np.concatenate(col) for col in zip(*pairs))
        _record_candidates("inter", "table_filter", len(pair_l))
        by_op = np.arange(len(pair_l)) >= len(pairs[0][0])
        rule = VERDICT_LOOKUP[model, store[pair_l].astype(np.int64),
                              op_kind[pair_o], (~by_op).astype(np.int64), 0]
        return pair_l, pair_o, by_op, rule

    # the population: the packed memory rows of every (region, target)
    # group, as points, then the region's call-derived locals at a rank
    # that has a group (most have none), with their spans
    mem = gather_rows(mems, group_target,
                      members.bounds[group_region, group_target],
                      members.bounds[group_region + 1, group_target])
    start, rows = members.locals
    l_unit, at = expand_ranges(start[regions],
                               start[regions + 1] - start[regions])
    local = rows[at]
    keys = group_unit * nranks + group_target
    by_key = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[by_key],
                                    l_unit * nranks + table.l_rank[local]),
                    len(keys) - 1)
    known = keys[by_key][at] == l_unit * nranks + table.l_rank[local]
    local, l_group = local[known], by_key[at[known]]
    n_mem = len(mem.idx)
    if not n_mem and not len(local):
        return stages
    # per access: what a survivor names it by, its span, the op it is
    # the origin or result buffer of (-1: none — every memory row)
    item = np.concatenate([mem.idx, local])
    item_seq = np.concatenate([mem.seq, table.l_seq[local]])
    item_end = np.concatenate([mem.seq, table.l_end[local]])
    item_op = np.concatenate([np.full(n_mem, -1), table.l_op[local]])
    owner, at = expand_ranges(
        table.local_start[local],
        table.local_start[local + 1] - table.local_start[local])
    pair_l, pair_o, by_op, rule = against_entries(
        np.concatenate([mem.addr, table.local_lo[at]]),
        np.concatenate([mem.addr + mem.size, table.local_hi[at]]),
        np.concatenate([np.arange(n_mem), owner + n_mem]),
        np.concatenate([mem.group, l_group]),
        np.concatenate([mem.store, table.l_store[local]]))
    is_mem = pair_l < n_mem
    # emission order.  Call-derived locals (step 2a): by access, entry,
    # op.  Memory rows (step 2b): the walk over entries; per entry the
    # overlap-born pairs row-major, then the no-overlap product op-major
    pair_entry = entry[pair_o]
    swap = by_op & is_mem
    order = np.lexsort((np.where(swap, pair_l, pair_o),
                        np.where(swap, pair_o, pair_l), swap,
                        np.where(is_mem, pair_entry, 0),
                        np.where(is_mem, entry_group[pair_entry], 0),
                        is_mem))
    pair_l, pair_o, rule = pair_l[order], pair_o[order], rule[order]
    # an op does not conflict with its own origin access, and a
    # same-origin RMA pair is handled as op-op / intra (an access at a
    # target of the op sits at the op's rank iff the op targets itself)
    own = item_op[pair_l]
    keep = (own != ops[pair_o]) & ~(
        (own >= 0) & (table.target[ops[pair_o]] == op_rank[pair_o]))
    pair_l, pair_o, rule = pair_l[keep], pair_o[keep], rule[keep]
    _record_candidates("inter", "local_vs_op", len(pair_l))
    # happens-before filter, one batched query for every candidate pair
    keep = ~oracle.ordered_pairs(
        table.target[ops[pair_o]], item_seq[pair_l], item_end[pair_l],
        op_rank[pair_o], op_seq[pair_o], op_end[pair_o])
    pair_l, pair_o, rule = pair_l[keep], pair_o[keep], rule[keep]
    stages.append((
        entry_unit[entry[pair_o]],
        np.where(pair_l < n_mem, ROW_VS_OP, LOCAL_VS_OP), rule,
        item[pair_l], ops[pair_o]))
    return stages


def emit_region_findings(table: OpTable, mems: Dict[int, MemRows],
                         pre: PreprocessedTrace, lock_index: LocalLockIndex,
                         survivors: Survivors, n_units: int) -> UnitFindings:
    """Build the views of the inter survivors and write each one's
    finding: the findings, per unit."""
    found: UnitFindings = [[] for _ in range(n_units)]
    if not len(survivors.unit):
        return found
    table.prefetch(
        np.concatenate([survivors.b,
                        survivors.a[survivors.pattern == OP_PAIR]]),
        survivors.a[survivors.pattern == LOCAL_VS_OP])
    for unit, pattern, rule, a, b in zip(
            *(col.tolist() for col in survivors)):
        op = table.op_view(b)
        if pattern == OP_PAIR:
            error = write_finding("inter", "op_pair", VERDICTS[rule],
                                  table.op_view(a), op)
        else:
            error = write_finding(
                "inter", "local_vs_op", VERDICTS[rule],
                table.local_view(a) if pattern == LOCAL_VS_OP
                else mems[op.target].local_access(a), op,
                pre.window(op.win_id).exposure(op.target), lock_index)
        found[unit].append(error)
    return found
