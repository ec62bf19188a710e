"""Profiled-run integration tests: scopes, locations, determinism."""

import gc
import os
import sys
import warnings
from unittest import mock

import pytest

from repro import api
from repro.apps.jacobi import jacobi
from repro.apps.lu import lu
from repro.apps.pingpong import pingpong
from repro.gen.fuzz import canonical_report
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.interpose import ProfilerHook
from repro.profiler.session import baseline_run, profile_run
from repro.profiler.tracer import TraceReader
from repro.stanalyzer import InstrumentationReport
from repro.util.errors import TraceFormatError


class TestScopes:
    def test_report_scope_instruments_relevant_only(self):
        run = profile_run(lu, nranks=2, params=dict(n=12), scope="report")
        vars_seen = {e.var for events in run.traces.all_events().values()
                     for e in events if isinstance(e, MemEvent)}
        assert "pivot" in vars_seen or "row_buf" in vars_seen
        assert "a" not in vars_seen

    def test_all_scope_instruments_everything(self):
        run = profile_run(lu, nranks=2, params=dict(n=12), scope="all")
        vars_seen = {e.var for events in run.traces.all_events().values()
                     for e in events if isinstance(e, MemEvent)}
        assert "a" in vars_seen

    def test_none_scope_has_no_mem_events(self):
        run = profile_run(lu, nranks=2, params=dict(n=12), scope="none")
        counts = run.traces.event_counts()
        assert counts["mem"] == 0
        assert counts["call"] > 0

    def test_all_scope_writes_more_events(self):
        selective = profile_run(lu, nranks=2, params=dict(n=12),
                                scope="report")
        everything = profile_run(lu, nranks=2, params=dict(n=12),
                                 scope="all")
        assert everything.events_written > selective.events_written

    def test_explicit_report_overrides(self):
        report = InstrumentationReport(buffer_names={"a"})
        run = profile_run(lu, nranks=2, params=dict(n=12), scope="report",
                          report=report)
        vars_seen = {e.var for events in run.traces.all_events().values()
                     for e in events if isinstance(e, MemEvent)}
        # "a" from the explicit report; "pivot" because window buffers are
        # instrumented by definition (dynamic refinement at Win_create)
        assert vars_seen == {"a", "pivot"}
        assert "row_buf" not in vars_seen  # not in report, not a window

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            profile_run(lu, nranks=2, params=dict(n=12), scope="some")


class TestTraceContents:
    def test_locations_point_at_app_code(self):
        run = profile_run(jacobi, nranks=2,
                          params=dict(buggy=False, interior=4, iterations=1))
        for events in run.traces.all_events().values():
            for event in events:
                assert "simmpi" not in event.loc.filename
                assert "profiler" not in event.loc.filename

    def test_seq_dense_per_rank(self):
        run = profile_run(jacobi, nranks=2,
                          params=dict(buggy=False, interior=4, iterations=1))
        for rank, events in run.traces.all_events().items():
            assert [e.seq for e in events] == list(range(len(events)))

    def test_app_name_in_header(self):
        run = profile_run(lu, nranks=2, params=dict(n=12),
                          app_name="my-lu")
        assert run.traces.reader(0).header.app == "my-lu"

    def test_results_match_baseline_semantics(self):
        profiled = profile_run(lu, nranks=2, params=dict(n=16, verify=True))
        assert max(profiled.results) < 1e-9  # instrumented run still correct


class TestDeterminism:
    def test_same_seed_same_trace(self):
        runs = [profile_run(jacobi, nranks=3,
                            params=dict(buggy=True, interior=4,
                                        iterations=2),
                            seed=7, delivery="random",
                            capture_locations=False)
                for _ in range(2)]
        a = [[e.encode() for e in events]
             for events in runs[0].traces.all_events().values()]
        b = [[e.encode() for e in events]
             for events in runs[1].traces.all_events().values()]
        assert a == b


class TestBaseline:
    def test_baseline_returns_elapsed(self):
        elapsed = baseline_run(lu, nranks=2, params=dict(n=12))
        assert elapsed > 0


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


class TestTraceDirectory:
    """A trace directory holds one run: a refused run leaves it as it
    was, an accepted one replaces every rank file of the one before."""

    @pytest.mark.parametrize("bad", [
        dict(sched_policy="bogus"), dict(delivery="bogus"),
        dict(scope="bogus"), dict(trace_format="bogus"), dict(nranks=0),
    ], ids=lambda bad: next(iter(bad)))
    def test_refused_run_keeps_the_previous_traces(self, tmp_path, bad):
        d = str(tmp_path)
        api.run(pingpong, 2, trace_dir=d, params=dict(buggy=True))
        before, report = _files(d), canonical_report(api.check(d))
        kwargs = dict(nranks=2, trace_dir=d, params=dict(buggy=False))
        kwargs.update(bad)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Exception):
                api.run(pingpong, **kwargs)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        assert _files(d) == before
        assert canonical_report(api.check(d)) == report

    def test_unremovable_rank_name_closes_the_files(self, tmp_path):
        os.makedirs(tmp_path / "trace.5.bin")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                api.run(pingpong, 2, trace_dir=str(tmp_path))
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_hook_that_cannot_open_a_rank_file_closes_the_others(
            self, tmp_path):
        """Rank 1's file cannot be opened: rank 0's, already truncated,
        is closed as partial, not left open for the GC to find."""
        os.makedirs(tmp_path / "trace.1.bin")
        unraisable = []
        with warnings.catch_warnings(), \
                mock.patch.object(sys, "unraisablehook", unraisable.append):
            warnings.simplefilter("error")
            with pytest.raises(IsADirectoryError):
                ProfilerHook(str(tmp_path), 2)
            gc.collect()
        assert not unraisable
        with pytest.raises(TraceFormatError, match="trailer"):
            TraceReader(str(tmp_path / "trace.0.bin"))

    def _check_equals_fresh(self, tmp_path, first, second):
        app, nranks, kwargs = second
        api.run(app, nranks, trace_dir=str(tmp_path / "fresh"), **kwargs)
        reused = str(tmp_path / "reused")
        os.makedirs(reused)
        for name in ("notes.txt", "trace.0.bin.orig"):
            with open(os.path.join(reused, name), "w") as fh:
                fh.write(name)
        for app, nranks, kwargs in (first, second):
            api.run(app, nranks, trace_dir=reused, **kwargs)
        assert canonical_report(api.check(reused)) == \
            canonical_report(api.check(str(tmp_path / "fresh")))
        left = set(os.listdir(reused)) - set(os.listdir(tmp_path / "fresh"))
        assert left == {"notes.txt", "trace.0.bin.orig"}

    def test_fewer_ranks_replace_a_larger_run(self, tmp_path):
        self._check_equals_fresh(
            tmp_path, (jacobi, 4, dict(params=dict(buggy=True))),
            (pingpong, 2, dict(params=dict(buggy=True))))

    def test_binary_replaces_text(self, tmp_path):
        self._check_equals_fresh(
            tmp_path,
            (pingpong, 2, dict(params=dict(buggy=False),
                               trace_format="text")),
            (pingpong, 2, dict(params=dict(buggy=True))))
