"""End-to-end observability: instrumented pipeline layers and CLI exports."""

import json
import resource

import pytest

from repro import api, obs
from repro.apps.emulate import emulate
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES
from repro.cli import main
from repro.core.checker import MCChecker, check_traces
from repro.profiler.session import baseline_run, profile_run


@pytest.fixture
def enabled():
    rec = obs.configure(enabled=True)
    yield rec
    obs.reset()


class TestPipelineSpans:
    def test_analyzer_phases_all_spanned(self, enabled, tmp_path):
        run = profile_run(lu, 2, params=dict(n=10),
                          trace_dir=str(tmp_path))
        check_traces(run.traces)
        names = {r.name for r in enabled.spans.records()}
        for phase in MCChecker.PHASES:
            assert f"analyzer.{phase}" in names
        assert "analyzer.run" in names
        assert "profiler.run" in names

    def test_phase_seconds_match_span_durations(self, enabled, tmp_path):
        run = profile_run(lu, 2, params=dict(n=10),
                          trace_dir=str(tmp_path))
        report = check_traces(run.traces)
        for phase in MCChecker.PHASES:
            span, = enabled.spans.by_name(f"analyzer.{phase}")
            assert report.stats.phase_seconds[phase] == \
                pytest.approx(span.duration)

    def test_phase_seconds_populated_when_disabled(self, tmp_path):
        assert not obs.is_enabled()
        run = profile_run(lu, 2, params=dict(n=10),
                          trace_dir=str(tmp_path))
        report = check_traces(run.traces)
        assert set(report.stats.phase_seconds) == set(MCChecker.PHASES)
        assert report.stats.total_seconds > 0

    def test_profiled_run_elapsed_equals_span(self, enabled, tmp_path):
        run = profile_run(lu, 2, params=dict(n=10),
                          trace_dir=str(tmp_path))
        span, = enabled.spans.by_name("profiler.run")
        assert run.elapsed == span.duration

    def test_baseline_run_spanned(self, enabled):
        elapsed = baseline_run(lu, 2, params=dict(n=10))
        span, = enabled.spans.by_name("profiler.baseline")
        assert elapsed == span.duration

    def test_both_arms_name_a_partial_app_alike(self, enabled, tmp_path):
        """Figure 8's native and profiled arms label one app the same,
        also when it is handed over as a ``functools.partial``."""
        from functools import partial
        app = partial(lu, n=10)
        baseline_run(app, 2)
        profile_run(app, 2, trace_dir=str(tmp_path))
        base, = enabled.spans.by_name("profiler.baseline")
        run, = enabled.spans.by_name("profiler.run")
        assert base.attrs["app"] == run.attrs["app"] == "lu"


class TestPipelineMetrics:
    def test_scheduler_and_profiler_counters(self, enabled, tmp_path):
        profile_run(lu, 2, params=dict(n=10), trace_dir=str(tmp_path))
        reg = enabled.registry
        assert reg.get("simmpi_context_switches").value() > 0
        assert reg.get("simmpi_token_grants").value() > 0
        assert reg.get("simmpi_calls_total").total > 0
        assert reg.get("simmpi_rma_ops_total").total > 0
        assert reg.get("profiler_events_written_total").total > 0
        assert reg.get("profiler_bytes_written_total").total > 0
        assert reg.get("profiler_flush_seconds").count() > 0
        assert reg.get("profiler_events_per_second").value() > 0

    def test_elided_wakeups_published_beside_handoffs(self, enabled):
        """A contended lock makes ranks wait while the policy keeps
        picking them: grants = handoffs + wake-ups elided + the ranks'
        first grants."""
        from repro.simmpi import INT, LOCK_EXCLUSIVE
        from repro.simmpi.runtime import World

        def app(mpi):
            win = mpi.win_create(mpi.alloc("buf", 1, datatype=INT))
            win.lock(0, LOCK_EXCLUSIVE)
            mpi.comm_rank()     # a yield point with the lock held
            win.unlock(0)
            win.free()

        world = World(4)
        world.run(app)
        world.publish_obs()
        sched, reg = world.scheduler, enabled.registry
        assert sched.elided > 0
        assert reg.get("simmpi_wakeups_elided").value() == sched.elided
        assert reg.get("simmpi_context_switches").value() == sched.switches
        assert reg.get("simmpi_token_grants").value() == \
            sched.switches + sched.elided + world.nranks

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                        reason="no per-thread rusage")
    def test_os_context_switches_published_beside_handoffs(self, enabled):
        from repro.simmpi.runtime import World

        world = World(3)
        world.run(lambda mpi: [mpi.barrier() for _ in range(5)])
        world.publish_obs()
        reg = enabled.registry
        assert world.scheduler.os_switches() > 0
        assert reg.get("simmpi_os_context_switches").value() == \
            world.scheduler.os_switches()
        assert reg.get("simmpi_context_switches").value() > 0

    def test_per_rank_run_time_gauges(self, enabled, tmp_path):
        profile_run(lu, 3, params=dict(n=10), trace_dir=str(tmp_path))
        gauge = enabled.registry.get("simmpi_rank_run_seconds")
        for rank in range(3):
            assert gauge.value(rank=str(rank)) > 0

    def test_rma_ops_by_kind(self, enabled, tmp_path):
        profile_run(lu, 2, params=dict(n=10), trace_dir=str(tmp_path))
        counter = enabled.registry.get("simmpi_rma_ops_total")
        kinds = {labels["kind"] for labels, _v in counter.samples()}
        assert kinds & {"Put", "Get", "Accumulate"}

    def test_analyzer_metrics(self, enabled, tmp_path):
        run = profile_run(emulate, 2, trace_dir=str(tmp_path),
                          params=dict(buggy=True))
        report = check_traces(run.traces)
        reg = enabled.registry
        assert reg.get("analyzer_events_total").value() == \
            report.stats.events
        assert reg.get("analyzer_findings_total").value(
            severity="error") == len(report.errors)
        assert reg.get("analyzer_phase_seconds").count() == \
            len(MCChecker.PHASES)

    def test_recorder_does_not_change_the_report(self, tmp_path):
        """Observation never changes the analysis: the same report with
        the recorder off and on."""
        run = profile_run(emulate, 2, trace_dir=str(tmp_path),
                          params=dict(buggy=True))

        def report():
            payload = check_traces(run.traces).to_dict()
            payload["stats"].pop("phase_seconds")
            return payload
        off = report()
        obs.configure(enabled=True)
        assert report() == off and off["errors"]

    def test_table_ii_check_metric_totals(self, tmp_path):
        """Every counter total, and every histogram's observation count,
        of checking the Table II buggy and fixed traces: the set is read
        as one, and what it counts is what rank-by-rank reading
        counted."""
        totals = {}
        for case in BUG_CASES:
            for buggy in (True, False):
                trace_dir = str(tmp_path / f"{case.name}-{buggy}")
                api.run(case.app, case.nranks, params=case.params(buggy),
                        trace_dir=trace_dir, trace_format="binary")
                rec = obs.configure(enabled=True)
                try:
                    api.check(trace_dir)
                finally:
                    obs.reset()
                for metric in rec.registry:
                    if metric.kind == "counter":
                        total = metric.total
                    elif metric.kind == "histogram":
                        total = sum(value[1] for _l, value in
                                    metric.samples())
                    else:
                        continue
                    totals[metric.name] = totals.get(metric.name, 0) + total
        assert totals == {
            "analyzer_events_total": 3279, "analyzer_findings_total": 82,
            "analyzer_local_accesses_total": 1117,
            "analyzer_op_rows_total": 598, "analyzer_phase_seconds": 80,
            "analyzer_rma_ops_total": 596,
            "analyzer_views_built_total": 851,
            "control_calls_ingested_total": 2758,
            "engine_candidate_pairs_total": 369,
            "engine_join_calls_total": 30, "trace_call_rows_total": 2758}

    def test_scheduler_timing_off_when_disabled(self):
        assert not obs.is_enabled()
        from repro.simmpi.runtime import World
        world = World(2)
        world.run(lambda mpi: mpi.barrier())
        assert world.scheduler.token_seconds() is None
        world.publish_obs()  # must be a no-op, not an error


class TestCliExports:
    def test_run_check_writes_both_exports(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        trace = tmp_path / "t.json"
        rc = main(["run-check", "emulate", "--ranks", "4",
                   "--trace-dir", str(tmp_path / "traces"),
                   "--metrics-out", str(metrics),
                   "--chrome-trace", str(trace)])
        assert rc == 1  # emulate is buggy
        capsys.readouterr()

        text = metrics.read_text()
        assert "# TYPE simmpi_calls_total counter" in text
        assert "# TYPE profiler_events_written_total counter" in text
        assert "# TYPE analyzer_events_total counter" in text

        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        for phase in MCChecker.PHASES:
            assert f"analyzer.{phase}" in names
        assert "profiler.run" in names

    def test_check_metrics_only(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path / "traces")])
        capsys.readouterr()
        metrics = tmp_path / "m.prom"
        rc = main(["check", str(tmp_path / "traces"),
                   "--metrics-out", str(metrics)])
        assert rc == 1
        assert "analyzer_events_total" in metrics.read_text()

    def test_quiet_check_writes_both_exports(self, tmp_path, capsys):
        """The verb's one session records and flushes under any log
        level, with the names a check has always exported."""
        traces = str(tmp_path / "traces")
        metrics = tmp_path / "m.prom"
        trace = tmp_path / "t.json"
        main(["run", "emulate", "--ranks", "2", "--trace-dir", traces,
              "--trace-format", "text", "--log-level", "quiet"])
        rc = main(["check", traces, "--log-level", "quiet",
                   "--metrics-out", str(metrics),
                   "--chrome-trace", str(trace)])
        assert rc == 1
        assert capsys.readouterr() == ("", "")

        assert {line.split()[2] for line in metrics.read_text().splitlines()
                if line.startswith("# TYPE")} == {
            "analyzer_epochs", "analyzer_events_per_second",
            "analyzer_events_total", "analyzer_findings_total",
            "analyzer_local_accesses_total", "analyzer_op_rows_total",
            "analyzer_op_table_rows", "analyzer_phase_seconds",
            "analyzer_regions", "analyzer_rma_ops_total",
            "analyzer_sync_matches", "analyzer_views_built_total",
            "control_calls_ingested_total", "control_calls_per_second",
            "engine_candidate_pairs_total", "engine_join_calls_total",
            "trace_text_lines_total"}
        doc = json.loads(trace.read_text())
        assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} \
            == {"analyzer.run"} | {f"analyzer.{phase}"
                                   for phase in MCChecker.PHASES}

    def test_exports_reset_recorder_after_main(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path / "traces"),
              "--metrics-out", str(tmp_path / "m.prom")])
        capsys.readouterr()
        assert not obs.is_enabled()

    def test_no_flags_stays_disabled(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path / "traces")])
        capsys.readouterr()
        assert not obs.is_enabled()


class TestSession:
    def test_session_keeps_the_callers_log_level(self, capsys):
        obs.configure(log_level="quiet")
        with obs.session(obs.ObsConfig(enabled=True)):
            assert obs.is_enabled()
            obs.get_logger().warning("recorded, not printed")
        assert not obs.is_enabled()
        assert capsys.readouterr().out == ""


class TestCliLogLevel:
    def test_quiet_silences_table1(self, capsys):
        assert main(["table1", "--log-level", "quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_silences_apps(self, capsys):
        assert main(["apps", "--log-level", "quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_default_level_prints(self, capsys):
        assert main(["table1"]) == 0
        assert "NONOV" in capsys.readouterr().out

    def test_quiet_check_keeps_exit_code(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path), "--log-level", "quiet"])
        assert capsys.readouterr().out == ""
        rc = main(["check", str(tmp_path), "--log-level", "quiet"])
        assert rc == 1
        assert capsys.readouterr().out == ""

    def test_json_output_bypasses_quiet(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2", "--trace-dir",
              str(tmp_path)])
        capsys.readouterr()
        rc = main(["check", str(tmp_path), "--json",
                   "--log-level", "quiet"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"]


class TestCliStats:
    def test_stats_per_rank_and_phase_tables(self, tmp_path, capsys):
        main(["run", "LU", "--ranks", "2", "--param", "n=10",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "per-rank summary:" in out
        assert "analyzer phases:" in out
        for phase in MCChecker.PHASES:
            assert phase in out
        assert "total" in out

    def test_stats_no_phases_flag(self, tmp_path, capsys):
        main(["run", "LU", "--ranks", "2", "--param", "n=10",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["stats", str(tmp_path), "--no-phases"]) == 0
        out = capsys.readouterr().out
        assert "per-rank summary:" in out
        assert "analyzer phases:" not in out
