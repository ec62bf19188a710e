"""Worker-pool tests.

The contract of ``MCChecker(jobs=N)`` is *byte-identical reports at any
job count*: same deduplicated findings in the same order, same error and
warning counts, same pipeline statistics.  The differential below pins
that over the whole bundled bug corpus under both memory models, plus
unit tests for the chunk helper, the worker observability merge, the
pool's lifecycle and what a failure inside a worker looks like.
"""

import glob
import json

import pytest

from repro import obs
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core.checker import check_traces
from repro.core.config import CheckConfig, resolve_jobs
from repro.core.parallel import (
    _chunk_bounds, acquire_pool, shutdown_pools,
)
from repro.core.model import share_rows
from repro.core.plan import (
    ShardPlan, build_control_state, find_shards, ranks_read,
)
from repro.core.preprocess import preprocess_calls_with_counts
from repro.profiler.session import profile_run
from repro.util.errors import AnalysisError
from tests.reference.pairwise import (
    check_pairwise, detect_cross_process_naive,
)


def _leaked_segments():
    return glob.glob("/dev/shm/mcc-*")

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
RANKS_CAP = 8
JOB_COUNTS = (1, 2, 4)
MEMORY_MODELS = ("separate", "unified")

_TRACES = {}


def traces_for(case):
    """Profile each buggy case once and reuse the traces across tests."""
    if case.name not in _TRACES:
        nranks = min(case.nranks, RANKS_CAP)
        _TRACES[case.name] = profile_run(
            case.app, nranks, params=case.params(True)).traces
    return _TRACES[case.name]


def canonical(report) -> str:
    """Byte-comparable form of a report, modulo wall-clock timings."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


class TestDifferential:
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_reports_identical_at_any_job_count(self, case):
        traces = traces_for(case)
        for memory_model in MEMORY_MODELS:
            reports = {
                jobs: check_traces(traces, CheckConfig(
                    memory_model=memory_model, jobs=jobs))
                for jobs in JOB_COUNTS
            }
            serial = reports[1]
            for jobs in JOB_COUNTS[1:]:
                parallel = reports[jobs]
                assert len(parallel.errors) == len(serial.errors), (
                    f"{case.name}/{memory_model}: jobs={jobs} error count")
                assert len(parallel.warnings) == len(serial.warnings), (
                    f"{case.name}/{memory_model}: jobs={jobs} warning count")
                assert canonical(parallel) == canonical(serial), (
                    f"{case.name}/{memory_model}: jobs={jobs} report "
                    "diverged from serial")

    def test_naive_inter_unaffected_by_jobs(self):
        # the combinatorial strawman (tests.reference) referees the
        # pooled run as well as the serial one
        traces = traces_for(ALL_CASES[0])
        naive = canonical(check_pairwise(
            traces, inter=detect_cross_process_naive))
        assert canonical(check_traces(traces)) == naive
        assert canonical(check_traces(traces, CheckConfig(jobs=2))) == naive


class TestHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(-1) >= 1

    def test_chunk_bounds_partition(self):
        for n in (1, 2, 5, 16, 97):
            for jobs in (1, 2, 4):
                chunks = _chunk_bounds(n, jobs)
                # contiguous, in order, covering exactly [0, n)
                assert chunks[0][0] == 0 and chunks[-1][1] == n
                for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
                    assert hi == lo
                assert all(lo < hi for lo, hi in chunks)
                assert len(chunks) <= max(1, jobs * 4)


class TestWorkerObs:
    def test_worker_spans_and_counters_absorbed(self):
        traces = traces_for(ALL_CASES[0])
        rec = obs.configure(enabled=True)
        try:
            check_traces(traces, CheckConfig(jobs=2))
            # one task, named after what it runs: a chunk of shards
            worker_spans = [r for r in rec.spans.records()
                            if r.name.startswith("analyzer.worker.")]
            assert {r.name for r in worker_spans} == \
                {"analyzer.worker.shards"}
            counter = rec.registry.get("parallel_tasks_total")
            assert counter is not None
            assert [labels for labels, _v in counter.samples()] == \
                [{"phase": "shards"}]
            chunks = rec.registry.get("analyzer_plan_releases").value()
            assert counter.value(phase="shards") == len(worker_spans) \
                == chunks > 1
            # what the kernels record below the task comes home with it
            assert rec.registry.get("engine_join_calls_total") is not None
        finally:
            obs.reset()

    def test_disabled_recorder_stays_empty(self):
        traces = traces_for(ALL_CASES[0])
        obs.reset()
        rec = obs.get_recorder()
        check_traces(traces, CheckConfig(jobs=2))
        assert len(rec.spans) == 0
        assert len(rec.registry) == 0


class TestPoolLifecycle:
    """The persistent pool is created once, reused across phases and
    runs, and never leaves shared-memory segments behind."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()
        obs.reset()

    def test_pool_created_once_and_reused_across_runs(self):
        traces = traces_for(ALL_CASES[0])
        rec = obs.configure(enabled=True)
        # first parallel run: exactly one pool creation, zero reuses
        check_traces(traces, config=CheckConfig(jobs=2))
        created = rec.registry.get("parallel_pool_created_total")
        assert created is not None and created.total == 1
        assert rec.registry.get("parallel_pool_reused_total") is None
        # second run in the same process: no new pool, one reuse
        check_traces(traces, config=CheckConfig(jobs=2))
        assert created.total == 1
        reused = rec.registry.get("parallel_pool_reused_total")
        assert reused is not None and reused.total == 1

    def test_no_segments_leaked_after_normal_run(self):
        traces = traces_for(ALL_CASES[0])
        check_traces(traces, config=CheckConfig(jobs=2))
        assert _leaked_segments() == []

    def test_worker_crash_breaks_pool_and_cleans_segments(self):
        pool = acquire_pool(2)
        pool.begin_run()
        # register an expected segment the "task" never creates plus one
        # that exists, then kill a worker mid-task
        from repro.core.model import MemRows
        import numpy as np
        rows = MemRows(0, None, np.arange(4, dtype=np.int64),
                       np.arange(4, dtype=np.int64),
                       np.ones(4, dtype=np.int64),
                       np.zeros(4, dtype=np.int32),
                       np.zeros(4, dtype=np.int32),
                       np.zeros(4, dtype=np.uint8))
        name = pool.new_segment_name(0)
        pool.expect_segment(name)
        desc, handle = share_rows(rows, name)
        pool.adopt_segment(name, handle)
        assert _leaked_segments() != []
        with pytest.raises(RuntimeError):
            pool.run("test", "crash", [0, 1])
        assert pool.broken
        pool.end_run()
        assert _leaked_segments() == []
        # the next acquire replaces the broken pool transparently
        fresh = acquire_pool(2)
        assert fresh is not pool and not fresh.broken
        fresh.begin_run()
        assert fresh.run("test", "echo", [7, 8]) == [7, 8]
        fresh.end_run()

    def test_run_report_carries_pool_and_byte_counters(self):
        from repro.obs.report import build_run_report
        traces = traces_for(ALL_CASES[0])
        rec = obs.configure(enabled=True)
        report = check_traces(traces, config=CheckConfig(jobs=2))
        entry = build_run_report(report, CheckConfig(jobs=2),
                                 recorder=rec)
        workers = entry.workers
        assert workers["pool"] == {"created": 1, "reused": 0}
        # keyed by the pool phases that exist: the per-run install and
        # the one analysis task
        assert set(workers["pickled_bytes"]) == {"run", "shards"}
        assert set(workers["tasks"]) == {"shards"}
        # the zero-copy claim: tasks carry units (index arrays), while
        # the row columns land in the shm counter
        assert workers["shm_bytes"]["shards"] > 0
        assert set(workers["pickled_bytes"]["shards"]) == \
            {"install", "task", "result"}
        assert entry.plan["releases"] == \
            workers["tasks"]["shards"] > 1
        assert entry.plan["shards"] >= entry.plan["releases"]


class TestWorkerFailure:
    """A typed failure must not depend on the job count: what a kernel
    raises in a worker arrives in the parent as itself."""

    def teardown_method(self):
        shutdown_pools()

    def test_repro_error_crosses_the_pipe_as_itself(self):
        pool = acquire_pool(2)
        pool.begin_run()
        try:
            with pytest.raises(AnalysisError,
                               match="unknown window id") as caught:
                pool.run("test", "fail", ["unknown window id 7", "other"])
            cause = caught.value.__cause__
            assert isinstance(cause, RuntimeError)
            assert "Traceback" in str(cause) and "worker" in str(cause)
            # a typed failure is an answer, not a crash: same pool, next
            # task
            assert not pool.broken
            assert pool.run("test", "echo", [1, 2, 3]) == [1, 2, 3]
        finally:
            pool.end_run()
        assert acquire_pool(2) is pool
        assert _leaked_segments() == []

    def test_shards_task_finds_what_the_parent_finds(self):
        """The analysis task over installed columns and shared rows:
        index arrays in, index arrays out, equal to the in-process
        finding half."""
        traces = traces_for(ALL_CASES[4])  # jacobi: rows meet exposures
        control = build_control_state(
            *preprocess_calls_with_counts(traces))
        plan = ShardPlan.build(control)
        units = plan.units(control, range(len(plan)))
        mems = {rank: control.mems[rank]
                for rank in ranks_read(units, control)}
        columns = (control.table, control.members, control.oracle,
                   "separate")
        pool = acquire_pool(2)
        pool.begin_run()
        try:
            descs = {}
            for rank, rows in mems.items():
                name = pool.new_segment_name(rank)
                pool.expect_segment(name)
                descs[rank], handle = share_rows(rows, name)
                pool.adopt_segment(name, handle)
            pool.install("test", {"columns": columns, "mems_shm": descs})
            chunks = [units[:2], units[2:]]
            replies = pool.run("test", "shards", chunks)
        finally:
            pool.end_run()
        found = 0
        for chunk, (survivors, _export) in zip(chunks, replies):
            want = find_shards(chunk, *columns, mems)
            for got_part, want_part in zip(survivors, want):
                assert [col.tolist() for col in got_part] == \
                    [col.tolist() for col in want_part]
                found += len(got_part.unit)
        assert found > 0
        assert _leaked_segments() == []

    def test_any_other_exception_is_wrapped_and_breaks_the_pool(self):
        pool = acquire_pool(2)
        pool.begin_run()
        try:
            # the task's state was never installed: a KeyError in the
            # worker
            with pytest.raises(RuntimeError, match="KeyError"):
                pool.run("test", "shards", [[], []])
            assert pool.broken
        finally:
            pool.end_run()
        assert _leaked_segments() == []
        assert acquire_pool(2) is not pool


class TestSpawnParity:
    """Forced-spawn pools must produce byte-identical reports: nothing
    may rely on fork-inherited state."""

    @pytest.mark.parametrize("case", ALL_CASES[:3], ids=lambda c: c.name)
    def test_forced_spawn_matches_serial(self, case, monkeypatch):
        traces = traces_for(case)
        serial = check_traces(traces, config=CheckConfig(jobs=1))
        shutdown_pools()
        monkeypatch.setenv("MCCHECKER_START_METHOD", "spawn")
        try:
            parallel = check_traces(traces, config=CheckConfig(jobs=2))
        finally:
            shutdown_pools()
        assert canonical(parallel) == canonical(serial)
        assert _leaked_segments() == []
