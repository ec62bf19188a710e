"""Trace tooling tests: stats, filter, diff."""

import pytest

from repro.apps.jacobi import jacobi
from repro.apps.lu import lu
from repro.core import check_traces
from repro.profiler.session import profile_run
from repro.tools import compute_stats, diff_traces, filter_traces
from repro.util.errors import AnalysisError


@pytest.fixture(scope="module")
def lu_traces(tmp_path_factory):
    return profile_run(lu, 3, params=dict(n=12),
                       trace_dir=str(tmp_path_factory.mktemp("lu")),
                       delivery="eager").traces


@pytest.fixture(scope="module")
def jacobi_traces(tmp_path_factory):
    return profile_run(
        jacobi, 3, params=dict(buggy=True, interior=6, iterations=2),
        trace_dir=str(tmp_path_factory.mktemp("jac")),
        delivery="eager").traces


class TestStats:
    def test_totals_match_event_counts(self, lu_traces):
        stats = compute_stats(lu_traces)
        counts = lu_traces.event_counts()
        assert stats.total_calls == counts["call"]
        assert stats.total_mems == counts["mem"]
        assert stats.nranks == 3

    def test_category_mix_covers_all_calls(self, lu_traces):
        stats = compute_stats(lu_traces)
        assert sum(stats.category_mix().values()) == stats.total_calls
        assert stats.category_mix()["one_sided"] > 0

    def test_bytes_accounting(self, lu_traces):
        stats = compute_stats(lu_traces)
        per_rank = stats.per_rank[0]
        assert per_rank.load_bytes > 0
        assert sum(r.rma_bytes for r in stats.per_rank) > 0

    def test_hot_statements_sorted(self, lu_traces):
        stats = compute_stats(lu_traces)
        counts = [count for _w, count in stats.hot_statements]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == stats.total_events

    def test_format_smoke(self, lu_traces):
        text = compute_stats(lu_traces).format()
        assert "3 ranks" in text and "hottest statements" in text

    def test_trace_bytes_by_frame_kind(self, lu_traces, tmp_path):
        """Bytes on disk are attributed: calls / mems / footer for a
        binary set (summing to the files' sizes), one total for text."""
        import os
        text = compute_stats(lu_traces)
        size = sum(os.path.getsize(lu_traces.path(r)) for r in range(3))
        assert text.frame_bytes() == {"file": size}
        binary = filter_traces(lu_traces, str(tmp_path / "bin"),
                               format="binary")
        stats = compute_stats(binary)
        sizes = stats.frame_bytes()
        assert set(sizes) == {"calls", "mems", "footer"}
        assert sum(sizes.values()) == sum(
            os.path.getsize(binary.path(r)) for r in range(3))
        # 33-byte rows, and one 5-byte frame header per rank: the rows
        # of a rank share a segment however many calls lie between them
        assert sizes["mems"] == 33 * stats.total_mems + 5 * 3
        assert f"calls={sizes['calls']}" in stats.format()
        assert stats.to_dict()["frame_bytes"] == sizes


class TestFilter:
    def test_identity_filter_preserves_analysis(self, jacobi_traces,
                                                tmp_path):
        filtered = filter_traces(jacobi_traces, str(tmp_path / "same"))
        original = check_traces(jacobi_traces)
        again = check_traces(filtered)
        assert sorted(f.dedup_key for f in again.findings) == \
            sorted(f.dedup_key for f in original.findings)

    def test_drop_mem_events(self, jacobi_traces, tmp_path):
        filtered = filter_traces(jacobi_traces, str(tmp_path / "calls"),
                                 keep_kinds=["call"])
        assert filtered.event_counts()["mem"] == 0
        assert filtered.event_counts()["call"] == \
            jacobi_traces.event_counts()["call"]

    def test_keep_vars(self, lu_traces, tmp_path):
        filtered = filter_traces(lu_traces, str(tmp_path / "vars"),
                                 keep_vars=["pivot"])
        from repro.profiler.events import MemEvent
        vars_seen = {e.var for r in range(3)
                     for e in filtered.events(r)
                     if isinstance(e, MemEvent)}
        assert vars_seen <= {"pivot"}

    def test_seq_range(self, lu_traces, tmp_path):
        filtered = filter_traces(lu_traces, str(tmp_path / "range"),
                                 seq_range=(0, 10))
        for rank in range(3):
            assert all(e.seq < 10 for e in filtered.events(rank))

    def test_custom_predicate(self, lu_traces, tmp_path):
        filtered = filter_traces(
            lu_traces, str(tmp_path / "pred"),
            predicate=lambda rank, e: rank != 1 or e.seq < 5)
        assert len(filtered.events(1)) <= 5
        assert len(filtered.events(0)) == len(lu_traces.events(0))


class TestDiff:
    def test_identical_runs(self, tmp_path):
        runs = [profile_run(lu, 2, params=dict(n=10),
                            trace_dir=str(tmp_path / f"r{i}"),
                            delivery="eager").traces
                for i in range(2)]
        diff = diff_traces(runs[0], runs[1])
        assert diff.identical
        assert "identical" in diff.format()

    def test_different_programs_diverge(self, tmp_path):
        left = profile_run(jacobi, 2,
                           params=dict(buggy=True, interior=4,
                                       iterations=1),
                           trace_dir=str(tmp_path / "l"),
                           delivery="eager").traces
        right = profile_run(jacobi, 2,
                            params=dict(buggy=False, interior=4,
                                        iterations=1),
                            trace_dir=str(tmp_path / "r"),
                            delivery="eager").traces
        diff = diff_traces(left, right)
        assert not diff.identical
        assert diff.divergences
        assert "diverges at call #" in diff.format()
        # the fixed variant has the extra fences
        assert diff.fn_only_right.get("Win_fence", 0) > 0

    def test_rank_mismatch_rejected(self, tmp_path):
        a = profile_run(lu, 2, params=dict(n=10),
                        trace_dir=str(tmp_path / "a")).traces
        b = profile_run(lu, 3, params=dict(n=10),
                        trace_dir=str(tmp_path / "b")).traces
        with pytest.raises(AnalysisError):
            diff_traces(a, b)

    def test_count_deltas(self, tmp_path):
        left = profile_run(lu, 2, params=dict(n=10), scope="report",
                           trace_dir=str(tmp_path / "sel")).traces
        right = profile_run(lu, 2, params=dict(n=10), scope="all",
                            trace_dir=str(tmp_path / "all")).traces
        diff = diff_traces(left, right)
        assert not diff.identical
        assert all(d["loads"] > 0 or d["stores"] > 0
                   for d in diff.count_deltas.values())
