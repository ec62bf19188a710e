"""Streaming-checker tests: equivalence with batch, bounded buffering."""

import pytest

from repro.apps.emulate import emulate
from repro.apps.jacobi import jacobi
from repro.apps.lockopts import lockopts
from repro.apps.lu import lu
from repro import obs
from repro.apps.pingpong import pingpong
from repro.core import engine
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.core.streaming import StreamingChecker, check_streaming
from repro.profiler.session import profile_run

CASES = [
    ("emulate-buggy", emulate, 2, dict(buggy=True)),
    ("emulate-fixed", emulate, 2, dict(buggy=False)),
    ("jacobi-buggy", jacobi, 4, dict(buggy=True, interior=6, iterations=3)),
    ("jacobi-fixed", jacobi, 4, dict(buggy=False, interior=6, iterations=3)),
    ("lockopts-buggy", lockopts, 4, dict(buggy=True)),
    ("pingpong-buggy", pingpong, 2, dict(buggy=True)),
    ("lu-clean", lu, 4, dict(n=16)),
    ("lu16-clean", lu, 16, dict(n=48)),
]


@pytest.fixture(scope="module")
def traces_for():
    cache = {}

    def build(name):
        if name not in cache:
            _n, app, nranks, params = next(
                (c for c in CASES if c[0] == name))
            cache[name] = profile_run(app, nranks, params=params,
                                      delivery="random").traces
        return cache[name]
    return build


class TestEquivalence:
    @pytest.mark.parametrize("name", [c[0] for c in CASES])
    def test_same_findings_as_batch(self, name, traces_for):
        traces = traces_for(name)
        batch = check_traces(traces)
        streamed, _checker = check_streaming(traces)
        assert sorted(f.dedup_key for f in streamed) == \
            sorted(f.dedup_key for f in batch.findings), name


class TestBoundedMemory:
    def test_peak_buffer_below_total_mems(self, traces_for, monkeypatch):
        """A release holds at most ``max(budget, largest shard)`` rows —
        never all load/store events at once when the trace has several
        shards."""
        budget = 16
        monkeypatch.setattr(engine, "BATCH_ROWS", budget)
        traces = traces_for("lu-clean")
        total_mems = traces.event_counts()["mem"]
        _findings, checker = check_streaming(traces)
        assert len(checker.control.regions) > 4 and checker.releases > 4
        assert checker.plan.rows.sum() == total_mems
        assert 0 < checker.peak_buffered_mems <= \
            max(budget, checker.plan.rows.max()) < total_mems / 4

    def test_peak_counts_each_held_row_once(self, traces_for, monkeypatch):
        """Fence epochs only, so every row sits in a region *and* in an
        epoch: one shard at a time, the peak is the largest shard's rows
        (the region-at-a-time pass added the two and reported twice
        that)."""
        monkeypatch.setattr(engine, "BATCH_ROWS", 1)
        _f, checker = check_streaming(traces_for("lu16-clean"))
        assert checker.peak_buffered_mems == checker.plan.rows.max() == 47

    def test_default_budget_takes_small_traces_in_one_release(
            self, traces_for):
        traces = traces_for("lu16-clean")
        _f, checker = check_streaming(traces)
        assert checker.releases == 1 and len(checker.plan) > 100
        assert checker.peak_buffered_mems == \
            traces.event_counts()["mem"] <= engine.BATCH_ROWS

    def test_region_reports_ordered(self, traces_for):
        checker = StreamingChecker(traces_for("jacobi-buggy"))
        indices = [report.index for report in checker.run()]
        assert indices == list(range(len(checker.plan)))

    def test_findings_attributed_to_regions(self, traces_for, monkeypatch):
        """The races surface in the shards that hold them, whatever the
        release budget."""
        def flagged():
            checker = StreamingChecker(traces_for("jacobi-buggy"))
            return {r.index: [f.to_payload() for f in r.findings]
                    for r in checker.run() if r.findings}
        whole = flagged()
        assert len(whole) > 1
        monkeypatch.setattr(engine, "BATCH_ROWS", 1)
        assert flagged() == whole


class TestPhaseSeconds:
    def test_streaming_report_times_every_phase(self, traces_for):
        """Control phases by the batch names, then plan / detect /
        merge — and with them the control-plane rate is published."""
        rec = obs.configure(enabled=True)
        try:
            report = check_traces(traces_for("jacobi-buggy"),
                                  CheckConfig(streaming=True))
            assert list(report.stats.phase_seconds) == [
                "preprocess", "matching", "clocks", "epochs", "model",
                "regions", "plan", "detect", "merge"]
            assert all(s >= 0 for s in report.stats.phase_seconds.values())
            assert report.stats.total_seconds > 0
            assert rec.registry.get("control_calls_per_second") is not None
        finally:
            obs.reset()


class TestTruncatedTraces:
    def test_open_epoch_still_checked(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1)
                buf[0] = 1.0  # race; epoch never closes

        traces = profile_run(app, 2, delivery="eager").traces
        findings, checker = check_streaming(traces)
        assert any(f.severity == "error" for f in findings)
        # the open epoch merges its tail into the last shard
        assert checker.plan.last[-1] == len(checker.control.regions) - 1
