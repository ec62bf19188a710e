"""RunReport, run ledger, and dashboard rendering."""

import json
import os

import numpy as np
import pytest

from repro import api, obs
from repro.core.config import CheckConfig
from repro.obs.dashboard import (
    render_compare_text, render_history_text, render_run_html,
    render_run_text,
)
from repro.obs.ledger import RunLedger, compare_runs, default_ledger_dir
from repro.obs.report import RunReport, build_run_report


@pytest.fixture(scope="module")
def profiled():
    """One profiled bug case that is known to produce findings."""
    from repro.apps.registry import BUG_CASES
    for case in BUG_CASES:
        run = api.run(case.app, min(case.nranks, 4),
                      params=case.params(True), trace_format="binary")
        if api.check(run.traces).findings:
            return run
    pytest.fail("no bundled bug case produced findings")


def test_emission_carries_the_scheduler_totals(tmp_path):
    """Profile and check in one session (the ``run-check`` path): the
    run report says how many events of each kind the producer emitted,
    how many handoffs it made and how many wake-ups it elided, in text
    and in the dashboard."""
    from repro.apps.heat2d import heat2d
    rec = obs.configure(enabled=True)
    try:
        run = api.run(heat2d, 4, params=dict(rows=16, cols=8, steps=4),
                      trace_dir=str(tmp_path))
        report = api.check(run.traces)
        rr = build_run_report(report, CheckConfig(), traces=run.traces)
        gauges = {key: int(rec.registry.get(name).value())
                  for key, name in (
                      ("handoffs", "simmpi_context_switches"),
                      ("wakeups_elided", "simmpi_wakeups_elided"),
                      ("token_grants", "simmpi_token_grants"),
                      ("os_context_switches",
                       "simmpi_os_context_switches"))}
    finally:
        obs.reset()
    assert rr.emission["scheduler"] == gauges
    counts = run.traces.event_counts()
    assert rr.emission["emitted"] == {"call": counts["call"],
                                      "mem": counts["mem"]}
    assert (f"emitted: call={counts['call']}, mem={counts['mem']}"
            in render_run_text(rr))
    assert "<code>mem</code>" in render_run_html(rr)
    assert gauges["wakeups_elided"] > 0
    line = (f"{gauges['handoffs']:,} thread handoffs, "
            f"{gauges['wakeups_elided']:,} wake-ups elided")
    assert line in render_run_text(rr)
    assert line in render_run_html(rr)
    clone = RunReport.from_dict(json.loads(json.dumps(rr.to_dict())))
    assert clone.emission == rr.emission


def checked_report(profiled, **overrides):
    obs.configure(enabled=True)
    try:
        report = api.check(profiled.traces, **overrides)
        return build_run_report(report, CheckConfig(**overrides),
                                traces=profiled.traces,
                                command="test-cmd", app="racy")
    finally:
        obs.reset()


class TestRunReport:
    def test_build_populates_sections(self, profiled):
        rr = checked_report(profiled)
        assert len(rr.run_id) == 12
        assert rr.app == "racy"
        assert rr.command == "test-cmd"
        assert set(rr.config) == {"memory_model", "jobs", "streaming",
                                  "cache_dir", "incremental"}
        assert rr.config_digest
        assert len(rr.trace_digests) == rr.ingest["nranks"]
        assert rr.phases and "preprocess" in rr.phases
        for timing in rr.phases.values():
            assert timing["wall"] >= 0 and timing["cpu"] >= 0
        assert rr.ingest["nranks"] >= 2
        assert rr.ingest["events"] > 0
        assert rr.peak_rss_bytes > 0
        assert rr.findings["errors"] + rr.findings["warnings"] >= 1
        detail = rr.findings["details"][0]
        assert detail["provenance"]
        assert detail["context"]["mode"] == "batch"

    def test_funnel_counters_surface(self, profiled):
        rr = checked_report(profiled)
        assert rr.funnel, "no candidate-pair funnel recorded"
        assert all("/" in stage for stage in rr.funnel)

    def test_streaming_run_has_phases_control_rate_and_plan(self,
                                                            profiled):
        """A streaming report used to carry no phase seconds, so its
        phase table was empty and no control-plane rate was published."""
        rr = checked_report(profiled, streaming=True)
        assert list(rr.phases) == [
            "preprocess", "matching", "clocks", "epochs", "model",
            "regions", "plan", "detect", "merge"]
        assert rr.control_plane["calls_per_second"] > 0
        assert rr.findings["details"][0]["context"]["mode"] == "streaming"
        # each held row counted once: a release never holds more rows
        # than the trace has
        total = profiled.traces.event_counts()["mem"]
        assert 0 < rr.ingest["peak_buffered_mems"] <= total
        assert rr.plan["shards"] >= rr.plan["releases"] >= 1
        assert 0 < rr.plan["largest_shard_rows"] <= total
        for render in (render_run_text, render_run_html):
            text = render(rr)
            assert "peak buffered load/store events" in text
            assert f"{rr.plan['shards']:,} shard(s), largest " \
                f"{rr.plan['largest_shard_rows']:,} row(s)" in text
            assert "detect" in text and "merge" in text

    @pytest.mark.parametrize("overrides,pieces", [
        ({}, None), ({"jobs": 2}, "chunks"),
        ({"incremental": True}, "dirty shards")], ids=lambda v: str(v))
    def test_plan_record_by_executor(self, profiled, tmp_path, overrides,
                                     pieces):
        """The serial batch route is the degenerate plan and records
        none; the pool counts its chunks, the cache its dirty shards."""
        if "incremental" in overrides:
            overrides = dict(overrides, cache_dir=str(tmp_path / "cache"))
        rr = checked_report(profiled, **overrides)
        if pieces is None:
            assert rr.plan == {} and "shard plan" not in render_run_text(rr)
        elif pieces == "chunks":
            assert rr.plan["releases"] == rr.workers["tasks"]["shards"]
            assert set(rr.workers["pickled_bytes"]) == {"run", "shards"}
        else:
            assert rr.plan["releases"] == rr.plan["shards"] == \
                rr.cache["shards"]["miss"]
        clone = RunReport.from_dict(json.loads(json.dumps(rr.to_dict())))
        assert clone.plan == rr.plan

    def test_incremental_cache_attribution(self, profiled, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = checked_report(profiled, incremental=True,
                              cache_dir=cache_dir)
        assert cold.cache["shards"].get("miss", 0) > 0
        assert cold.cache["per_shard"]
        warm = checked_report(profiled, incremental=True,
                              cache_dir=cache_dir)
        assert warm.cache["shards"].get("hit", 0) > 0

    def test_incremental_work_counters(self, profiled, tmp_path):
        """The work counters sit next to the shard funnel in the report
        and in both dashboards: a cold run lifts calls and reads rows
        (and finds no pack to open), a fully warm one does neither and
        opens no pack either."""
        from repro.obs.dashboard import (
            render_run_html, render_run_text,
        )
        cache_dir = str(tmp_path / "cache")
        cold = checked_report(profiled, incremental=True,
                              cache_dir=cache_dir)
        assert sum(cold.cache["shards"].values()) > 0
        assert cold.cache["calls_lifted"] > 0
        assert cold.cache["rows_loaded"] > 0
        assert cold.cache["shard_files_read"] == 0
        warm = checked_report(profiled, incremental=True,
                              cache_dir=cache_dir)
        assert (warm.cache["calls_lifted"], warm.cache["rows_loaded"],
                warm.cache["shard_files_read"]) == (0, 0, 0)
        for entry in (cold, warm):
            assert f"calls lifted={int(entry.cache['calls_lifted'])}" \
                in render_run_text(entry)
            assert "work beyond the control pass" in render_run_html(entry)

    def test_text_lines_by_route(self, profiled, tmp_path):
        """A profiler-written text set decodes every line in bulk — 0
        ``M`` lines through the record codec — and the counts reconcile
        with the event totals; one reordered line sends its file to the
        codec, and the flight record shows it.  Binary sets report no
        text lines at all."""
        from repro.apps.lu import lu
        assert "text_lines" not in checked_report(profiled).ingest
        run = api.run(lu, 4, params=dict(n=24), trace_format="text",
                      trace_dir=str(tmp_path / "lu"))
        counts = run.traces.event_counts()
        rr = checked_report(run)
        assert rr.ingest["text_lines"] == {
            "call/bulk": counts["call"], "mem/bulk": counts["mem"]}
        assert f"mem/bulk={counts['mem']:,}" in render_run_text(rr)
        assert "text lines (kind/route)" in render_run_html(rr)

        path = run.traces.path(0)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        k = next(i for i, line in enumerate(lines) if line.startswith("M "))
        fields = lines[k].split(" ")
        lines[k] = " ".join([fields[0], fields[2], fields[1]] + fields[3:])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        moved = checked_report(run).ingest["text_lines"]
        with run.traces.reader(0) as reader:
            rank0 = reader.counts()
        assert moved["mem/codec"] == rank0["mem"]
        assert moved["call/codec"] == rank0["call"]
        assert moved["mem/bulk"] == counts["mem"] - rank0["mem"]

    def test_call_rows_by_route(self, tmp_path):
        """A profiler-written binary set reads every call from the
        columns; one argument past int64 moves exactly that call to the
        record codec, and the flight record shows it.  Text sets report
        no call rows."""
        import dataclasses
        from repro.apps.lu import lu
        from repro.profiler.events import CallEvent
        from repro.profiler.tracer import TraceReader, TraceWriter
        run = api.run(lu, 4, params=dict(n=24), trace_format="binary",
                      trace_dir=str(tmp_path / "lu"))
        calls = run.traces.event_counts()["call"]
        rr = checked_report(run)
        assert rr.ingest["call_rows"] == {"codec": 0, "columnar": calls}
        assert f"columnar={calls:,}" in render_run_text(rr)
        assert "call rows (route)" in render_run_html(rr)

        path = run.traces.path(2)
        with TraceReader(path) as reader:
            header, events = reader.header, reader.events()
        k = next(i for i, e in enumerate(events) if isinstance(e, CallEvent))
        events[k] = dataclasses.replace(
            events[k], args=dict(events[k].args, pad=1 << 63))
        with TraceWriter(path, 2, header.nranks, app=header.app,
                         format="binary") as writer:
            for event in events:
                writer.write(event)
        moved = checked_report(run)
        assert moved.ingest["call_rows"] == {"codec": 1,
                                             "columnar": calls - 1}
        assert moved.findings == rr.findings

        text = api.run(lu, 4, params=dict(n=24), trace_format="text",
                       trace_dir=str(tmp_path / "text"))
        assert "call_rows" not in checked_report(text).ingest

    def test_roundtrip(self, profiled):
        rr = checked_report(profiled)
        clone = RunReport.from_dict(json.loads(json.dumps(rr.to_dict())))
        assert clone.to_dict() == rr.to_dict()

    def test_run_ids_unique(self, profiled):
        a = checked_report(profiled)
        b = checked_report(profiled)
        assert a.run_id != b.run_id

    def test_disabled_recorder_still_wellformed(self, profiled):
        report = api.check(profiled.traces)
        rr = build_run_report(report, CheckConfig(),
                              traces=profiled.traces)
        assert rr.phases  # wall timings come from CheckStats regardless
        assert rr.funnel == {} and rr.cache == {}


#: ``engine_candidate_pairs_total`` per Table II program (buggy variant,
#: binary traces, separate model), as measured on the commit *before*
#: the grouped whole-plan joins replaced the per-epoch / per-region
#: kernels; every fixed variant records an empty funnel.  The
#: ``table_filter`` stage (what the Table-I lookup let through) arrived
#: with the op table; the other stages kept their numbers
CORPUS_FUNNEL = {
    "BT-broadcast": {"intra/origin_vs_plain": 1},
    "emulate": {"intra/origin_vs_plain": 16},
    "jacobi": {"inter/local_vs_op": 48, "inter/table_filter": 48},
    "lockopts": {"inter/local_vs_op": 126, "inter/table_filter": 126},
    "ping-pong": {"intra/origin_vs_plain": 4},
}
#: the same for the 64-rank generated program of the ``gen64`` workload
GEN64_SEED1_FUNNEL = {"inter/local_vs_op": 3, "inter/op_pair": 1,
                      "inter/table_filter": 4, "intra/op_pair": 2,
                      "intra/origin_vs_plain": 3, "intra/table_filter": 2}


def funnel_arms(run, tmp_path):
    """(funnel, join_calls) under serial, jobs=2 and incremental-cold."""
    arms = {"serial": {}, "jobs2": {"jobs": 2},
            "incremental-cold": {"incremental": True,
                                 "cache_dir": str(tmp_path / "cache")}}
    out = {}
    for arm, overrides in arms.items():
        rr = checked_report(run, **overrides)
        out[arm] = ({k: int(v) for k, v in rr.funnel.items()},
                    {k: int(v) for k, v in rr.join_calls.items()})
    return out


class TestFunnelPinned:
    """The funnel is a count that repeats exactly: batching the joins
    must not move it, in any executor."""

    @pytest.mark.parametrize("buggy", (True, False),
                             ids=("buggy", "fixed"))
    def test_bug_corpus(self, tmp_path, buggy):
        from repro.apps.registry import BUG_CASES
        assert {c.name for c in BUG_CASES} == set(CORPUS_FUNNEL)
        for case in BUG_CASES:
            run = api.run(case.app, case.nranks,
                          params=case.params(buggy), trace_format="binary")
            want = CORPUS_FUNNEL[case.name] if buggy else {}
            for arm, (funnel, _joins) in funnel_arms(
                    run, tmp_path / case.name).items():
                assert funnel == want, f"{case.name}/{arm}"

    def test_gen64_seed1(self, tmp_path, monkeypatch):
        from repro.gen import GenConfig, generate_program
        from repro.gen.fuzz import profile_program
        generated = generate_program(GenConfig(
            seed=1, nranks=64, rounds=16, ops_per_round=8, reps=16,
            bugs=("any",) * 8, trace_format="binary"))
        run = profile_program(generated,
                              trace_dir=str(tmp_path / "traces"))
        arms = funnel_arms(run, tmp_path)
        for arm, (funnel, _joins) in arms.items():
            assert funnel == GEN64_SEED1_FUNNEL, arm
        # a handful of joins per phase (three per sub-batch), where the
        # per-unit kernels made some for each of ~1000 epochs and regions
        joins = arms["serial"][1]
        assert joins["intra"] % 3 == 0 and 3 <= joins["intra"] <= 12
        assert joins["inter"] % 3 == 0 and 3 <= joins["inter"] <= 12
        # ... and exactly three when the whole plan is one batch
        from repro.core import engine
        monkeypatch.setattr(engine, "BATCH_ROWS", 1 << 30)
        assert funnel_arms(run, tmp_path / "one-batch")["serial"] == (
            GEN64_SEED1_FUNNEL, {"intra": 3, "inter": 3})

    def test_join_calls_independent_of_step_count(self):
        from repro.apps.heat2d import heat2d
        joins = []
        for steps in (4, 12):
            run = api.run(heat2d, 8, params=dict(rows=64, cols=16,
                                                 steps=steps),
                          trace_format="binary")
            rr = checked_report(run)
            assert rr.ingest["regions"] > steps
            joins.append(rr.join_calls)
        assert joins[0] == joins[1] and joins[0]["inter"] <= 3

    def test_join_calls_rendered(self, profiled):
        rr = checked_report(profiled)
        assert rr.join_calls
        assert "interval joins:" in render_run_text(rr)
        assert "interval joins:" in render_run_html(rr)


def _registry_calls(traces) -> int:
    """The calls whose arguments the control pass reads (windows,
    communicators, datatypes): the events every check builds."""
    from repro.core.calltable import rows_calling
    from repro.core.preprocess import REGISTRY_CALLS, preprocess_calls
    return sum(len(rows_calling(table, REGISTRY_CALLS)) for table
               in preprocess_calls(traces).call_tables.values())


class TestOpPlane:
    """``RunReport.model``: "zero views on a clean trace" as a number —
    calls become table rows, epochs and regions columns, and an analysis
    object is built only for a pair that reaches a per-pair check; the
    only call events built are the registry calls'."""

    ARMS = {"serial": {}, "jobs2": {"jobs": 2}, "streaming":
            {"streaming": True}}

    @pytest.mark.parametrize("fmt", ("binary", "text"))
    def test_clean_traces_build_no_view(self, fmt):
        from repro.apps.heat2d import heat2d
        from repro.apps.lu import lu
        for app, nranks, params, kw in (
                (lu, 4, dict(n=24), dict(delivery="eager")),
                (heat2d, 4, dict(rows=16, cols=8, steps=6), {})):
            run = api.run(app, nranks, params=params, trace_format=fmt,
                          **kw)
            registry = _registry_calls(run.traces)
            assert 0 < registry <= 3 * nranks
            for arm, overrides in self.ARMS.items():
                model = checked_report(run, **overrides).model
                assert model["views"] == dict(dict.fromkeys(
                    ("op", "local", "epoch", "region"), 0),
                    event=registry), arm
                assert model["ops"] == model["locals"] > 0
                assert model["intervals"] >= 2 * model["ops"]
                assert model["survivors"]["passed"] == 0
                assert model["op_rows"]["columnar"] >= model["ops"]
                assert model["op_rows"]["codec"] == 0

    def test_lu_survivors_stop_at_the_lookup(self):
        """LU's Get-Get pairs overlap in bytes (8 960 of them on the
        ``lu16`` rung); their Table-I cell is BOTH, so none passes the
        lookup."""
        from repro.apps.lu import lu
        run = api.run(lu, 4, params=dict(n=24), delivery="eager",
                      trace_format="binary")
        model = checked_report(run).model
        assert model["survivors"]["joined"] >= 24
        assert model["survivors"]["passed"] == 0

    @pytest.mark.parametrize("name", ("jacobi", "emulate", "lockopts"))
    def test_buggy_case_builds_the_views_its_findings_name(self, name):
        from repro.apps.registry import BUG_CASES
        from repro.core.checker import MCChecker
        from repro.core.engine import (
            detect_cross_process_sweep, detect_intra_epoch_sweep,
        )
        case = next(c for c in BUG_CASES if c.name == name)
        run = api.run(case.app, case.nranks, params=case.params(True),
                      trace_format="binary")
        # the raw findings, before sort and dedupe fold them
        checker = MCChecker(run.traces)
        checker.run()
        raw = detect_intra_epoch_sweep(checker.model, checker.epoch_index) \
            + detect_cross_process_sweep(
                checker.pre, checker.model, checker.regions, checker.oracle,
                checker.epoch_index)
        sides = {(side.rank, side.seq, side.fn == "mem")
                 for finding in raw for side in (finding.a, finding.b)}
        table = checker.model.table
        calls = {(int(r), int(q)): c for c, (r, q) in enumerate(
            zip(table.call_rank, table.call_seq))}
        named = {calls[rank, seq] for rank, seq, mem in sides if not mem}
        n_local = np.diff(np.append(table.call_local, table.n_local))
        ops = table.call_op[sorted(named)]
        want = {"event": len(named) + _registry_calls(run.traces),
                "op": sum(table.call_op[c] >= 0 for c in named),
                "local": sum(int(n_local[c]) for c in named)
                + sum(mem for _rank, _seq, mem in sides),
                # an op's view holds its epoch; nothing looks at a region
                "epoch": len(set(table.epoch[ops[ops >= 0]].tolist())
                             - {-1}),
                "region": 0}
        assert want["op"] > 0 and want["epoch"] > 0
        for arm, overrides in self.ARMS.items():
            rr = checked_report(run, **overrides)
            assert rr.model["views"] == want, arm
            assert rr.model["survivors"]["passed"] <= \
                rr.model["survivors"]["joined"]

    def test_rendered_beside_ingest(self, profiled):
        rr = checked_report(profiled)
        assert rr.model["ops"] == rr.ingest["rma_ops"]
        assert "op plane:" in render_run_text(rr)
        assert "views built:" in render_run_html(rr)
        clone = RunReport.from_dict(json.loads(json.dumps(rr.to_dict())))
        assert clone.model == rr.model
        # an entry written before the record existed still renders
        old = rr.to_dict()
        del old["model"]
        assert "op plane" not in render_run_text(RunReport.from_dict(old))

    def test_fully_warm_incremental_run_has_no_op_plane(self, profiled,
                                                        tmp_path):
        cache = dict(incremental=True, cache_dir=str(tmp_path / "cache"))
        assert checked_report(profiled, **cache).model["ops"] > 0
        assert checked_report(profiled, **cache).model == {}


class TestRunLedger:
    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MCCHECKER_LEDGER_DIR", str(tmp_path))
        assert default_ledger_dir() == str(tmp_path)

    def test_append_entries_last_find(self, profiled, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        first = checked_report(profiled)
        second = checked_report(profiled)
        ledger.append(first)
        ledger.append(second)
        entries = ledger.entries()
        assert [e.run_id for e in entries] == [first.run_id,
                                              second.run_id]
        assert ledger.last().run_id == second.run_id
        assert ledger.find(first.run_id[:6]).run_id == first.run_id
        assert ledger.find("nonexistent") is None
        assert ledger.entries(limit=1)[0].run_id == second.run_id
        assert ledger.entries(app="racy") and \
            not ledger.entries(app="other")

    def test_corrupt_lines_skipped(self, profiled, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        rr = checked_report(profiled)
        ledger.append(rr)
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
        ledger.append(rr)
        assert len(ledger.entries()) == 2

    def test_empty_ledger(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "nope"))
        assert ledger.entries() == []
        assert ledger.last() is None


class TestCompareRuns:
    def _pair(self, profiled):
        base = checked_report(profiled)
        cur = RunReport.from_dict(base.to_dict())
        return cur, base

    def test_identical_runs_ok(self, profiled):
        cur, base = self._pair(profiled)
        comparison = compare_runs(cur, base)
        assert comparison["ok"]
        assert comparison["same_config"] and comparison["same_traces"]

    def test_regression_flagged(self, profiled):
        cur, base = self._pair(profiled)
        cur.elapsed_seconds = base.elapsed_seconds * 10 + 1.0
        comparison = compare_runs(cur, base, tolerance=0.25)
        assert not comparison["ok"]
        assert "elapsed_seconds" in comparison["regressions"]

    def test_tiny_phase_noise_ignored(self, profiled):
        cur, base = self._pair(profiled)
        for timing in cur.phases.values():  # sub-10ms phases: all noise
            timing["wall"] = min(timing["wall"], 0.009) * 3
        comparison = compare_runs(
            cur, base, tolerance=10.0)  # elapsed/rss stay in band
        assert not any(m.startswith("phase/")
                       for m in comparison["regressions"])


class TestDashboard:
    def test_text_rendering(self, profiled):
        rr = checked_report(profiled)
        text = render_run_text(rr)
        assert rr.run_id in text
        assert "phases:" in text and "findings:" in text
        assert "provenance:" in text

    def test_entries_written_with_two_planes_still_render(self, profiled):
        """A ledger entry from before the control planes collapsed keys
        its ingest row by plane and carries engine/naive_inter in its
        config, and one from before the producer lanes did keys its
        emitted events by ``kind/lane``: it must load and render beside
        today's flat shapes."""
        rr = checked_report(profiled)
        assert set(rr.control_plane) <= {"calls_ingested",
                                         "calls_per_second"}
        assert "control phases: " in render_run_text(rr)
        payload = rr.to_dict()
        payload["config"].update(engine="sweep", naive_inter=False)
        payload["control_plane"] = {"columnar": dict(rr.control_plane)}
        payload["emission"] = {"seconds": 0.5, "events_per_second": 80.0,
                               "emitted": {"call/scalar": 30,
                                           "mem/bulk": 10}}
        old = RunReport.from_dict(json.loads(json.dumps(payload)))
        assert "emitted: call/scalar=30, mem/bulk=10" in render_run_text(old)
        html_doc = render_run_html(old)
        assert "<code>call/scalar</code>" in html_doc
        assert "<code>mem/bulk</code>" in html_doc
        calls = f"{rr.control_plane['calls_ingested']:,} call(s) ingested"
        assert calls in render_run_text(old)
        assert calls in render_run_text(rr)
        for entry in (old, rr):
            assert f"{rr.control_plane['calls_ingested']:,}</td>" in \
                render_run_html(entry)

    def test_history_rendering(self, profiled):
        rr = checked_report(profiled)
        out = render_history_text([rr])
        assert rr.run_id in out
        assert render_history_text([]) == "ledger is empty"

    def test_compare_rendering(self, profiled):
        base = checked_report(profiled)
        cur = RunReport.from_dict(base.to_dict())
        cur.elapsed_seconds = base.elapsed_seconds * 10 + 1.0
        out = render_compare_text(compare_runs(cur, base))
        assert "REGRESSION" in out and "elapsed_seconds" in out

    def test_html_self_contained(self, profiled, tmp_path):
        rr = checked_report(profiled, incremental=True,
                            cache_dir=str(tmp_path / "cache"))
        html_doc = render_run_html(rr)
        assert html_doc.startswith("<!doctype html>")
        for marker in ("Phase timeline", "Candidate-pair funnel",
                       "Incremental cache", "Findings", "<svg",
                       rr.run_id):
            assert marker in html_doc
        assert "<script" not in html_doc  # no JS: opens anywhere
        assert "href=" not in html_doc    # no external resources

    def test_html_escapes_content(self):
        rr = RunReport(run_id="x" * 12, created="2026-01-01T00:00:00Z",
                       command="check <&> \"quotes\"", app="<img>")
        html_doc = render_run_html(rr)
        assert "<img>" not in html_doc
        assert "&lt;img&gt;" in html_doc
