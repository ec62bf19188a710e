"""MCChecker end-to-end pipeline tests."""

import pytest

from repro import run_check
from repro.core import check_traces
from repro.core.checker import MCChecker
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, INT
from tests.reference.pairwise import (
    check_pairwise, detect_cross_process_naive,
)


def _buggy_app(mpi):
    buf = mpi.alloc("buf", 2, datatype=DOUBLE)
    win = mpi.win_create(buf)
    win.fence()
    if mpi.rank == 0:
        win.put(buf, target=1)
        buf[0] = 1.0
    win.fence()
    win.free()


def _clean_app(mpi):
    buf = mpi.alloc("buf", 2, datatype=DOUBLE)
    win = mpi.win_create(buf)
    win.fence()
    if mpi.rank == 0:
        win.put(buf, target=1)
    win.fence()
    buf[0] = 1.0
    win.fence()
    win.free()


class TestCheckApp:
    def test_buggy_detected(self):
        report = run_check(_buggy_app, nranks=2)
        assert report.has_errors
        assert len(report.errors) == 1

    def test_clean_passes(self):
        report = run_check(_clean_app, nranks=2)
        assert not report.has_errors
        assert not report.warnings

    def test_stats_populated(self):
        report = run_check(_buggy_app, nranks=2)
        stats = report.stats
        assert stats.nranks == 2
        assert stats.events > 0
        assert stats.rma_ops == 1
        assert stats.regions >= 2
        assert stats.epochs >= 2
        assert stats.sync_matches >= 3
        assert stats.total_seconds > 0
        assert set(stats.phase_seconds) == {
            "preprocess", "matching", "clocks", "epochs", "model",
            "regions", "intra", "inter"}

    def test_summary_and_format(self):
        report = run_check(_buggy_app, nranks=2)
        assert "1 error(s)" in report.summary()
        assert "MPI_Put" in report.format()


class TestCheckTraces:
    def test_offline_analysis(self, tmp_path):
        run = profile_run(_buggy_app, nranks=2, trace_dir=str(tmp_path))
        report = check_traces(run.traces)
        assert report.has_errors

    def test_naive_inter_agrees(self, tmp_path):
        run = profile_run(_buggy_app, nranks=2, trace_dir=str(tmp_path))
        fast = check_traces(run.traces)
        naive = check_pairwise(run.traces,
                               inter=detect_cross_process_naive)
        assert sorted(f.dedup_key for f in fast.findings) == \
            sorted(f.dedup_key for f in naive.findings)


class TestDeduplication:
    def test_loop_reported_once_with_count(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            for _ in range(5):
                if mpi.rank == 0:
                    win.put(buf, target=1)
                    buf[0] = 1.0
                win.fence()
            win.free()

        report = run_check(app, nranks=2)
        assert len(report.errors) == 1
        assert report.errors[0].occurrences == 5
        assert "seen 5 times" in report.errors[0].format()


class TestIntermediateAccess:
    def test_pipeline_objects_exposed(self, tmp_path):
        run = profile_run(_buggy_app, nranks=2, trace_dir=str(tmp_path))
        checker = MCChecker(run.traces)
        checker.run()
        assert checker.pre is not None
        assert checker.oracle is not None
        assert len(checker.regions) >= 2
        assert checker.model.ops


class TestRobustness:
    def test_truncated_trace_still_analyzable(self):
        """A rank that crashed mid-epoch leaves an open epoch; analysis
        must not blow up and should still flag the conflict."""
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1)
                buf[0] = 1.0
            # never closes the epoch, never frees

        report = run_check(app, nranks=2, delivery="eager")
        assert report.has_errors

    def test_multiwindow_app(self):
        def app(mpi):
            a = mpi.alloc("a", 2, datatype=INT)
            b = mpi.alloc("b", 2, datatype=INT)
            win_a = mpi.win_create(a)
            win_b = mpi.win_create(b)
            win_a.fence()
            win_b.fence()
            if mpi.rank == 0:
                win_a.put(a, target=1)
                win_b.put(b, target=1)
                b[0] = 1  # conflicts only with win_b's Put
            win_a.fence()
            win_b.fence()
            win_a.free()
            win_b.free()

        report = run_check(app, nranks=2)
        assert len(report.errors) == 1
        assert report.errors[0].win_id == 1
