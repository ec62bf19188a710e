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
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core import engine
from repro.core.clocks import ConcurrencyOracle
from repro.core.engine import (
    RegionMembers, check_epochs_sweep, detect_regions_sweep, epoch_units,
)
from repro.core.epochs import EpochIndex
from repro.core.inter import LocalLockIndex
from repro.core.matching import match_synchronization
from repro.core.model import build_access_model_sweep
from repro.core.preprocess import preprocess, preprocess_calls
from repro.core.regions import RegionIndex
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import profile_program
from repro.profiler.session import profile_run
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
        self.lock_index = LocalLockIndex(epoch_index, self.pre.nranks)
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
