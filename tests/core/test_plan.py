"""The property every plan executor rests on, tested once.

``repro.core.plan.ShardPlan`` cuts an analysis into shards; the pool
(chunks), the cache (dirty shards) and the stream (releases) are ways of
running them.  All three are sound for one reason: a shard is closed —
no epoch interior, op span or local-access span crosses its boundary —
so *any* contiguous chunking of the shard list, run chunk by chunk
through the two kernels and merged, is the serial report.  Pinned here
over the bug corpus (buggy and fixed), LU, heat2d, a truncated program
whose epoch never closes and 20 generated programs, under both memory
models; the executors' own test files only check their policy.

Also pinned: the cache's shard keys and manifest file name for the
committed v2 fixture, as the commit before the plan was lifted out of
``core.incremental`` computed them — a populated cache stays warm.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core import engine
from repro.core.calltable import ensure_call_tables
from repro.core.checker import CheckReport, CheckStats, check_traces
from repro.core.config import CheckConfig
from repro.core.diagnostics import dedupe, sort_findings
from repro.core.incremental import IncrementalChecker
from repro.core.plan import (
    ShardPlan, _RowLoader, build_control_state, ranks_read, run_shards,
)
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import canonical_report, profile_program
from repro.profiler.session import profile_run
from repro.profiler.tracer import TraceSet
from tests.reference.pairwise import check_pairwise

MEMORY_MODELS = ("separate", "unified")
RANKS_CAP = 8
GEN_SEEDS = range(20)


def _open_epoch(mpi):
    buf = mpi.alloc("buf", 2)
    win = mpi.win_create(buf)
    win.fence()
    win.fence()
    mpi.barrier()
    if mpi.rank == 0:
        win.lock(1)  # never unlocked: the program is truncated
        win.put(buf, target=1)
    mpi.barrier()
    mpi.barrier()
    if mpi.rank == 0:
        buf[0] = 1.0  # race: the epoch is still open


def _case(case, buggy):
    return lambda _dir: profile_run(
        case.app, min(case.nranks, RANKS_CAP),
        params=case.params(buggy)).traces


def _gen(seed):
    def build(trace_dir):
        generated = generate_program(GenConfig(
            seed=seed, bugs=("any",) * 3,
            trace_format="binary" if seed % 2 else "text"))
        return profile_program(generated, trace_dir=trace_dir).traces
    return build


SOURCES = {
    **{f"{case.name}-{'buggy' if buggy else 'fixed'}": _case(case, buggy)
       for case in BUG_CASES + EXTRA_CASES for buggy in (True, False)},
    "lu": lambda _dir: profile_run(lu, 4, params=dict(n=16),
                                   delivery="eager").traces,
    "heat2d": lambda _dir: profile_run(
        heat2d, 4, params=dict(rows=16, cols=8, steps=5),
        trace_format="binary").traces,
    "open-epoch": lambda _dir: profile_run(_open_epoch, 2,
                                           delivery="eager").traces,
    **{f"gen-{seed}": _gen(seed) for seed in GEN_SEEDS},
}

_STATES = {}


class State:
    """One source's traces, control state, plan, every shard's units and
    the serial reports, built once."""

    def __init__(self, traces):
        self.traces = traces
        self.control = build_control_state(traces)
        self.plan = ShardPlan.build(self.control)
        self.units = self.plan.units(self.control, range(len(self.plan)))
        loader = _RowLoader(traces, ensure_call_tables(self.control.pre))
        self.mems = {rank: loader.rows(rank)
                     for rank in ranks_read(self.units, self.control)}
        self.serial = {
            model: canonical_report(check_traces(
                traces, CheckConfig(memory_model=model)))
            for model in MEMORY_MODELS}

    def chunked(self, cuts, memory_model) -> str:
        """The report of running the shard list chunk by chunk."""
        control = self.control
        per_shard = [
            (shard, parts) for lo, hi in zip(cuts, cuts[1:])
            for shard, parts in enumerate(run_shards(
                self.units[lo:hi], control, memory_model, self.mems), lo)]
        # merged in any order: cold order is the plan's to restore
        findings = dedupe(sort_findings(self.plan.merge(per_shard[::-1])))
        return canonical_report(CheckReport(
            errors=[f for f in findings if f.severity == "error"],
            warnings=[f for f in findings if f.severity == "warning"],
            stats=CheckStats(**control.sizes())))


def state_for(source, tmp_path_factory) -> State:
    if source not in _STATES:
        _STATES[source] = State(SOURCES[source](
            str(tmp_path_factory.mktemp(source))))
    return _STATES[source]


@pytest.mark.parametrize("source", SOURCES)
def test_shards_are_closed_and_tile_the_regions(source, tmp_path_factory):
    state = state_for(source, tmp_path_factory)
    control, plan = state.control, state.plan
    n = len(control.regions)
    # the shards tile the regions, in order
    assert plan.first[0] == 0 and plan.last[-1] == n - 1
    assert (plan.first <= plan.last).all()
    assert (plan.first[1:] == plan.last[:-1] + 1).all()
    # every epoch is in exactly one shard
    assert sorted(plan.epoch_ids.tolist()) == \
        list(range(len(control.epochs.epochs)))
    assert plan.epoch_start[0] == 0 and \
        plan.epoch_start[-1] == len(plan.epoch_ids)
    # no epoch interior, op span or local span crosses a boundary
    shard_of = np.repeat(np.arange(len(plan)), plan.last - plan.first + 1)
    for shard in range(len(plan)):
        for e in plan.epoch_ids[plan.epoch_start[shard]:
                                plan.epoch_start[shard + 1]].tolist():
            epoch = control.epochs.epochs[e]
            if epoch.close_seq - epoch.open_seq > 1:
                first, last = control.regions.regions_of_spans(
                    epoch.rank, np.array([epoch.open_seq + 1]),
                    np.array([epoch.close_seq - 1]))
                assert set(shard_of[first[0]:last[0] + 1]) == {shard}, epoch
    table = control.table
    spans = [op.span for op in table.ops] + [la.span for la in table.local]
    assert spans or source.endswith("-fixed") or source == "open-epoch"
    for span in spans:
        touched = control.regions.regions_of_span(span)
        assert len(set(shard_of[list(touched)])) == 1, span
    # the plan's row counts are the traces', without having read a row
    assert plan.rows.sum() == state.traces.event_counts()["mem"]
    for shard in range(len(plan)):
        held = sum(
            hi - lo for rank, rows in state.mems.items()
            for lo, hi in [rows.row_range(int(plan.lo[rank, shard]),
                                          int(plan.hi[rank, shard]))])
        assert held <= plan.rows[shard]


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_chunking_merges_to_the_serial_report(source, tmp_path_factory,
                                                  data):
    state = state_for(source, tmp_path_factory)
    n = len(state.plan)
    memory_model = data.draw(st.sampled_from(MEMORY_MODELS))
    cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=6))
                  | {0, n})
    assert state.chunked(cuts, memory_model) == \
        state.serial[memory_model], f"{source}: chunking at {cuts}"


@pytest.mark.parametrize("source", SOURCES)
def test_any_release_budget_merges_to_the_serial_report(
        source, tmp_path_factory, monkeypatch):
    """Releases are the chunking the budget picks (and the kernels
    sub-batch by the same constant): from one row up."""
    state = state_for(source, tmp_path_factory)
    largest = int(state.plan.rows.max())
    for budget in sorted({1, 7, max(largest // 2, 1), largest + 1,
                          engine.BATCH_ROWS}):
        monkeypatch.setattr(engine, "BATCH_ROWS", budget)
        releases = engine.batch_bounds(state.plan.rows.tolist(), budget)
        assert [lo for lo, _hi in releases] + [len(state.plan)] == \
            [0] + [hi for _lo, hi in releases]
        assert all(state.plan.rows[lo:hi].sum() <= max(budget, largest)
                   for lo, hi in releases)
        cuts = [0] + [hi for _lo, hi in releases]
        for memory_model in MEMORY_MODELS:
            assert state.chunked(cuts, memory_model) == \
                state.serial[memory_model], f"{source}: budget {budget}"


@pytest.mark.parametrize(
    "source", [s for s in SOURCES if not s.startswith("gen-")]
    + [f"gen-{seed}" for seed in GEN_SEEDS[::5]])
def test_serial_report_is_the_per_pair_reference(source, tmp_path_factory):
    state = state_for(source, tmp_path_factory)
    for memory_model in MEMORY_MODELS:
        assert state.serial[memory_model] == canonical_report(
            check_pairwise(state.traces, memory_model)), source


def test_open_epoch_merges_its_tail_into_one_shard(tmp_path_factory):
    state = state_for("open-epoch", tmp_path_factory)
    plan = state.plan
    assert len(plan) == 4 and len(state.control.regions) == 7
    assert (plan.first[-1], plan.last[-1]) == (3, 6)
    assert json.loads(state.serial["separate"])["errors"]


# ------------------------------------------------- cache compatibility

#: the v2 fixture's shard keys and manifest names under engine revision
#: "6" (PR 23: slice digests and sync fingerprints from columns)
V2_SHARD_KEYS = [
    "6d4a403c8312a3aa1b1d9f9b6a54cddbfba1fe33c72d895237975ac3f69ebe6c",
    "5999b02158868e5d79a5ffe07ef8cc9437852bfce1b65f1004e5b8fc3fc3e301",
    "1c17123d2dadafabe7ffd445eeb99d24a28b107a1fe85a22956906a09f716ec1",
    "dfcf240b30ebe182a058fcf70e91c392fb71ad6e2573f5d4949f6ce4f46b9345",
    "d749b9cecbbe49973e277af386a33361f5598710616ddcfe5b1864724468fa4e",
    "db3605a00af193a63084a8acbb4e9c984ea5afe7917a949c858ee6f7fc8c232a",
    "8e43afe9464a60c64e31aaa3e3a3b98f4bf66fac34c87fa76b3979a6a5ff8583",
    "503fccd758d528cc20bd0251cde66a55f7fa583ccd88883ee07eb1a8974d444c",
    "f532aa77194a1dadd3c4aa58d6a728f95c0bbce20fb4b7c404aa7ea59c20f020",
    "f831fecc8ac3cd69e29cb90ca9152f39d84239fcd1373627ec656f28f2b4ce19",
    "35f4d99a8f2fc8a8117e2f66600274293fbe2695840afefd825a3727e2827ff1",
    "9d4a0c4fd63c5b717c7009ff601d5d910f674aaf1e81121f826d2715c906eff7",
]
V2_MANIFESTS = {
    "separate":
        "2376690e78bbc6d70097ea73e0f205e63186640bf5a5dfa4546412dca33bd1bc",
    "unified":
        "13cb69e69a7c6f16f9e0edac0070ab089a37fd07d1e5acaa6e99e561a1e9e2ac",
}


def test_cache_names_of_the_v2_fixture_are_unchanged(tmp_path):
    import os
    traces = TraceSet(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "profiler", "fixtures", "v2_pingpong"))
    for memory_model, manifest in V2_MANIFESTS.items():
        cache = tmp_path / memory_model
        checker = IncrementalChecker(traces, CheckConfig(
            incremental=True, cache_dir=str(cache),
            memory_model=memory_model))
        checker.run()
        assert checker._cfg_key() == manifest
        assert [p.stem for p in cache.glob("*.manifest")] == [manifest]
        (pack,) = cache.glob("*.pack")
        written, _blob, _status = checker.store.load("pack", pack.stem)
        assert sorted(written["shards"]) == sorted(checker.plan.keys)
        if memory_model == "separate":
            assert checker.plan.keys == V2_SHARD_KEYS
