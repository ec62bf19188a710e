"""Batch-boundary independence of the sweep kernels.

``check_epochs_sweep`` / ``detect_regions_sweep`` take a *list* of units
— an index array over the op table: epoch ids, region ids — and return
findings per unit.  Every executor relies on the answer not
depending on how that list was cut: ``parallel`` hands workers
contiguous chunks, ``incremental`` hands over the dirty shards and
stores what comes back per shard, ``streaming`` passes one release at a
time, and the kernels themselves cut sub-batches by ``BATCH_ROWS``.  So, over the
bug corpus and ten generated programs, under both memory models:

    kernel(all units)
      == concatenation of kernel(chunk) over random contiguous chunkings
      == kernel([u]) for each unit
      == kernel(all units) with one unit per sub-batch

compared as ``to_payload()`` lists *before* sort/dedupe — which pins the
emission order cache identity and the deterministic merge rest on — and
each unit's findings equal those of the paper's per-pair walk over that
unit (``tests.reference.pairwise``; as a multiset: its loops nest
differently inside a unit).

The cuts are the only judge: every survivor of a kernel's finding half
is one finding of its emitting half, and the rule a survivor carries is
Table I's verdict on its two views.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core import engine
from repro.core.clocks import ConcurrencyOracle
from repro.core.compat import (
    ORIGIN, VERDICTS, accumulate_exception, compat_verdict,
)
from repro.core.engine import (
    LOCAL_VS_OP, OP_PAIR, ROW_VS_OP, RegionMembers, check_epochs_sweep,
    detect_regions_sweep, emit_epoch_findings, emit_region_findings,
    epoch_units, find_epoch_pairs, find_region_pairs,
)
from repro.core.epochs import EpochIndex, LocalLockIndex
from repro.core.matching import match_synchronization
from repro.core.model import build_access_model_sweep
from repro.core.preprocess import preprocess, preprocess_calls
from repro.core.regions import RegionIndex
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import profile_program
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE
from tests.reference.pairwise import (
    bucket_by_epoch, bucket_by_region, build_access_model, check_epoch,
    detect_region,
)

MEMORY_MODELS = ("separate", "unified")
GEN_SEEDS = range(10)
RANKS_CAP = 8

SOURCES = [case.name for case in BUG_CASES + EXTRA_CASES] + \
    [f"gen-{seed}" for seed in GEN_SEEDS]

_PLANS = {}


class Plan:
    """Everything both kernels need for one trace set, built once."""

    def __init__(self, traces):
        self.pre = preprocess_calls(traces)
        matches = match_synchronization(self.pre)
        self.oracle = ConcurrencyOracle(self.pre, matches)
        epoch_index = EpochIndex(self.pre)
        regions = RegionIndex(self.pre, matches)
        self.lock_index = LocalLockIndex(epoch_index)
        model = build_access_model_sweep(self.pre, epoch_index, traces)
        self.mems, self.table = model.mems, model.table
        self.members = RegionMembers(self.table, regions)
        self.intra_units = epoch_units(self.table)
        self.inter_units = self.members.units()
        reference = build_access_model(preprocess(traces), epoch_index)
        self.ref_intra = bucket_by_epoch(reference, epoch_index)
        ops, call_locals = bucket_by_region(reference, regions)
        self.ref_inter = [(ops[r], call_locals.get(r, []))
                          for r in sorted(ops)]

    def intra(self, units, memory_model):
        return _payloads(check_epochs_sweep(self.table, units, self.mems,
                                            memory_model))

    def inter(self, units, memory_model):
        return _payloads(detect_regions_sweep(
            self.pre, self.table, self.members, units, self.mems,
            self.oracle, self.lock_index, memory_model))

    def kernels(self):
        return ((self.intra, self.intra_units),
                (self.inter, self.inter_units))

    def survivors(self, memory_model):
        """Each kernel's finding half over all its units, with the
        emitting half that words them and the unit count."""
        return (
            (find_epoch_pairs(self.table, self.intra_units, self.mems,
                              memory_model),
             lambda found, n: emit_epoch_findings(self.table, self.mems,
                                                  found, n),
             len(self.intra_units)),
            (find_region_pairs(self.table, self.members, self.inter_units,
                               self.mems, self.oracle, memory_model),
             lambda found, n: emit_region_findings(
                 self.table, self.mems, self.pre, self.lock_index, found,
                 n),
             len(self.inter_units)))

    def table_one(self, pattern, a, b, memory_model):
        """Table I's verdict on a survivor's two views; ``ORIGIN`` for
        the origin-buffer patterns, which no cell decides."""
        if pattern not in (OP_PAIR, LOCAL_VS_OP, ROW_VS_OP):
            return ORIGIN
        op = self.table.op_view(b)
        if pattern == OP_PAIR:
            other = self.table.op_view(a)
            return compat_verdict(
                other.kind, op.kind, bool(other.target_intervals.intersection(
                    op.target_intervals)),
                accumulate_exception(other.acc_op, other.acc_base,
                                     op.acc_op, op.acc_base), memory_model)
        return compat_verdict(
            self.access(pattern, a, op).access, op.kind,
            bool(self.local_overlap(pattern, a, op)), False, memory_model)

    def access(self, pattern, a, op):
        return (self.table.local_view(a) if pattern == LOCAL_VS_OP
                else self.mems[op.target].local_access(a))

    def local_overlap(self, pattern, a, op):
        """A local/op survivor's bytes: the local side inside the
        window, against the op's target bytes."""
        return self.access(pattern, a, op).intervals.intersection(
            self.pre.window(op.win_id).exposure(op.target)).intersection(
                op.target_intervals)


def _payloads(per_unit):
    return [[f.to_payload() for f in found] for found in per_unit]


def _multiset(findings):
    return sorted(json.dumps(f.to_payload(), sort_keys=True)
                  for f in findings)


def plan_for(source, tmp_path_factory) -> Plan:
    if source not in _PLANS:
        if source.startswith("gen-"):
            seed = int(source[4:])
            generated = generate_program(GenConfig(
                seed=seed, bugs=("any",) * 3,
                trace_format="binary" if seed % 2 else "text"))
            traces = profile_program(
                generated,
                trace_dir=str(tmp_path_factory.mktemp(source))).traces
        else:
            case = next(c for c in BUG_CASES + EXTRA_CASES
                        if c.name == source)
            traces = profile_run(case.app, min(case.nranks, RANKS_CAP),
                                 params=case.params(True)).traces
        _PLANS[source] = Plan(traces)
    return _PLANS[source]


@pytest.mark.parametrize("source", SOURCES)
def test_kernels_emit_per_unit_whatever_the_batch(source, tmp_path_factory,
                                                  monkeypatch):
    plan = plan_for(source, tmp_path_factory)
    total = 0
    for memory_model in MEMORY_MODELS:
        for kernel, units in plan.kernels():
            whole = kernel(units, memory_model)
            assert len(whole) == len(units)
            total += sum(len(found) for found in whole)
            singles = [kernel(units[k:k + 1], memory_model)[0]
                       for k in range(len(units))]
            assert singles == whole, f"{source}/{memory_model}: singletons"
            with monkeypatch.context() as patch:
                patch.setattr(engine, "BATCH_ROWS", 1)
                assert kernel(units, memory_model) == whole, (
                    f"{source}/{memory_model}: one unit per sub-batch")
    assert total > 0  # every source carries at least one injected bug


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_contiguous_chunkings_concatenate(source, tmp_path_factory,
                                                 data):
    plan = plan_for(source, tmp_path_factory)
    memory_model = data.draw(st.sampled_from(MEMORY_MODELS))
    for kernel, units in plan.kernels():
        cuts = sorted(data.draw(st.sets(st.integers(0, len(units)),
                                        max_size=6)) | {0, len(units)})
        chunked = [found for lo, hi in zip(cuts, cuts[1:])
                   for found in kernel(units[lo:hi], memory_model)]
        assert chunked == kernel(units, memory_model), (
            f"{source}/{memory_model}: chunking at {cuts}")


@pytest.mark.parametrize("source", SOURCES)
def test_units_agree_with_the_pairwise_engine(source, tmp_path_factory):
    plan = plan_for(source, tmp_path_factory)
    for memory_model in MEMORY_MODELS:
        sweep = check_epochs_sweep(plan.table, plan.intra_units, plan.mems,
                                   memory_model)
        assert len(plan.ref_intra) == len(sweep)
        for unit, found in zip(plan.ref_intra, sweep):
            assert _multiset(check_epoch(*unit, memory_model)) == \
                _multiset(found), f"{source}/{memory_model}: intra"
        sweep = detect_regions_sweep(
            plan.pre, plan.table, plan.members, plan.inter_units, plan.mems,
            plan.oracle, plan.lock_index, memory_model)
        assert len(plan.ref_inter) == len(sweep)
        for (region_ops, region_locals), found in zip(
                plan.ref_inter, sweep):
            assert _multiset(detect_region(
                plan.pre, region_ops, region_locals, plan.oracle,
                plan.lock_index, memory_model)) == _multiset(found), (
                    f"{source}/{memory_model}: inter")


@pytest.mark.parametrize("source", SOURCES)
def test_every_survivor_is_one_finding(source, tmp_path_factory):
    """The emitting half words what the cuts kept and nothing else: one
    finding per survivor, before dedupe — a filter added there would
    make a cut the tests cannot see."""
    plan = plan_for(source, tmp_path_factory)
    total = 0
    for memory_model in MEMORY_MODELS:
        for survivors, emit, n_units in plan.survivors(memory_model):
            found = emit(survivors, n_units)
            assert [len(errors) for errors in found] == np.bincount(
                survivors.unit, minlength=n_units).tolist(), (
                    f"{source}/{memory_model}")
            total += len(survivors.unit)
    assert total > 0


@pytest.mark.parametrize("source", SOURCES)
def test_survivor_rule_is_table_one(source, tmp_path_factory):
    plan = plan_for(source, tmp_path_factory)
    for memory_model in MEMORY_MODELS:
        for survivors, _emit, _n in plan.survivors(memory_model):
            for pattern, rule, a, b in zip(
                    *(col.tolist() for col in survivors[1:])):
                assert VERDICTS[rule] == plan.table_one(
                    pattern, a, b, memory_model), (
                        f"{source}/{memory_model}: pattern {pattern}")


def _store_beside_put(mpi):
    """Rank 1 stores into its window while rank 0's Put to it is in
    flight: beside the Put's bytes in the first epoch, inside them in
    the second."""
    buf = mpi.alloc("buf", 4, datatype=DOUBLE)
    src = mpi.alloc("src", 4, datatype=DOUBLE)
    win = mpi.win_create(buf)
    for element in (3, 1):
        win.fence()
        if mpi.rank == 0:
            win.put(src, target=1, origin_count=2)
        else:
            buf[element] = 1.0
    win.fence()
    win.free()


def test_store_vs_put_carries_error_with_and_without_overlap():
    plan = Plan(profile_run(_store_beside_put, 2).traces)
    got = {}
    for memory_model in MEMORY_MODELS:
        survivors, _emit, _n = plan.survivors(memory_model)[1]
        got[memory_model] = sorted(
            (bool(plan.local_overlap(pattern, a, plan.table.op_view(b))),
             VERDICTS[rule])
            for pattern, rule, a, b in zip(
                *(col.tolist() for col in survivors[1:]))
            if pattern in (LOCAL_VS_OP, ROW_VS_OP))
    # separate: STORE x PUT is an ERROR cell, bytes or not; unified:
    # it softens to NONOV, which needs the overlap
    assert got == {"separate": [(False, "ERROR"), (True, "ERROR")],
                   "unified": [(True, "NONOV")]}
