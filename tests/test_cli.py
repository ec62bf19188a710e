"""CLI tests (mc-checker ...)."""

import re

import pytest

from repro.cli import main


class TestStaticCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NONOV" in out and "ERROR" in out

    def test_apps_listing(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "emulate" in out and "LU" in out

    def test_stanalyze_syntax_error(self, tmp_path, capsys):
        src = tmp_path / "broken.py"
        src.write_text("def main(:\n")
        assert main(["stanalyze", str(src)]) == 2
        assert "does not parse" in capsys.readouterr().out

    def test_stanalyze(self, tmp_path, capsys):
        src = tmp_path / "app.py"
        src.write_text(
            "def main(mpi, win):\n"
            "    x = mpi.alloc('x', 4)\n"
            "    win.put(x, target=1)\n")
        assert main(["stanalyze", str(src)]) == 0
        assert "x" in capsys.readouterr().out


class TestExitStatus:
    """``check`` returns 0 for a clean trace set, 1 for consistency
    errors and 2 for a trace set it cannot analyse — which a script
    gating on the status must not read as a detected bug."""

    @staticmethod
    def _unanalysable(kind, tmp_path):
        path = tmp_path / kind
        if kind == "a-file":
            path.write_text("not a directory")
        elif kind == "empty-dir":
            path.mkdir()
        elif kind == "truncated":
            main(["run", "emulate", "--ranks", "2", "--trace-dir",
                  str(path), "--log-level", "quiet"])
            rank1 = path / "trace.1.log"
            data = rank1.read_bytes()
            # the cut leaves a call record without its function
            rank1.write_bytes(data[:data.index(b" fn=", len(data) // 2)])
        return path  # "missing": nothing was created

    @pytest.mark.parametrize("kind", ["missing", "a-file", "empty-dir",
                                      "truncated"])
    def test_unanalysable_trace_set(self, kind, tmp_path, capsys):
        path = self._unanalysable(kind, tmp_path)
        assert main(["check", str(path), "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mc-checker: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert str(path) in captured.err

    def test_missing_directory_on_the_other_verbs(self, tmp_path, capsys):
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        for argv in (["stats", missing], ["dag", missing],
                     ["diff", missing, missing],
                     ["minimize", missing, out]):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                f"mc-checker: [Errno 2] No such file or directory: " \
                f"{missing!r}\n"

    def test_buggy_is_1_and_clean_is_0(self, tmp_path):
        for flags, status in ([], 1), (["--fixed"], 0):
            main(["run", "emulate", "--ranks", "2", "--log-level", "quiet",
                  "--trace-dir", str(tmp_path / str(status))] + flags)
            assert main(["check", str(tmp_path / str(status)),
                         "--no-ledger", "--log-level", "quiet"]) == status

    @pytest.mark.parametrize("argv,message", [
        (["check", "t", "--incremental"],
         "--incremental requires --cache-dir"),
        (["check", "t", "--streaming", "--jobs", "2"], "streaming"),
        (["generate", "--ranks", "1"], "nranks"),
        (["run", "no-such-app"], "unknown application 'no-such-app'"),
    ], ids=["incremental-without-cache-dir", "check-config", "gen-config",
            "unknown-app"])
    def test_usage_error(self, argv, message, capsys):
        """A command line no verb can act on exits 2, as an argparse
        rejection does — never 1, which `check` uses for a bug."""
        assert main(argv + ["--log-level", "quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mc-checker: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err

    def test_metrics_are_still_written(self, tmp_path):
        metrics = tmp_path / "m.prom"
        assert main(["check", str(tmp_path / "missing"), "--no-ledger",
                     "--metrics-out", str(metrics)]) == 2
        assert metrics.exists()


class TestRunCheck:
    def test_run_writes_traces(self, tmp_path, capsys):
        assert main(["run", "emulate", "--ranks", "2",
                     "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "MPI calls" in out
        assert (tmp_path / "trace.0.log").exists()

    def test_check_finds_bug(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["check", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ERROR" in out

    def test_run_check_fixed_clean(self, tmp_path, capsys):
        rc = main(["run-check", "emulate", "--ranks", "2", "--fixed",
                   "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_param_override(self, tmp_path, capsys):
        rc = main(["run-check", "jacobi", "--ranks", "2",
                   "--param", "iterations=1", "--param", "interior=4",
                   "--trace-dir", str(tmp_path)])
        assert rc == 1  # still buggy by default

    def test_dotted_path_app(self, tmp_path, capsys):
        rc = main(["run-check", "repro.apps.lu:lu", "--ranks", "2",
                   "--param", "n=10", "--trace-dir", str(tmp_path)])
        assert rc == 0

    def test_unknown_app_exits(self):
        assert main(["run", "no-such-app"]) == 2

    def test_naive_inter_flag(self, tmp_path, capsys):
        """The implementation switches are gone from every sub-command:
        argparse rejects them instead of ignoring them."""
        for argv in (["check", str(tmp_path), "--naive-inter"],
                     ["check", str(tmp_path), "--engine", "pairwise"],
                     ["run-check", "emulate", "--engine", "sweep"],
                     ["stats", str(tmp_path), "--engine", "sweep"],
                     ["fuzz", "--engine", "sweep"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_streaming_flag(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["check", str(tmp_path), "--streaming"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "4 error(s)" in out
        # all 24 rows of this trace fit one release
        assert "streaming: peak buffered load/store events: 24" in out

    def test_streaming_json_and_ledger(self, tmp_path, capsys,
                                       _hermetic_ledger):
        """--streaming goes through the same route as every other mode:
        --json prints the report as JSON, the exit code carries the
        verdict, and the run lands in the ledger."""
        import json as json_mod
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        main(["check", str(tmp_path), "--json"])
        capsys.readouterr()
        rc = main(["check", str(tmp_path), "--streaming", "--json"])
        streamed = json_mod.loads(capsys.readouterr().out)
        assert rc == 1
        main(["check", str(tmp_path), "--json", "--no-ledger"])
        batch = json_mod.loads(capsys.readouterr().out)
        for payload in (streamed, batch):
            payload["stats"].pop("phase_seconds")
        assert streamed == batch
        from repro.obs.dashboard import render_run_text
        from repro.obs.ledger import RunLedger
        entry = RunLedger().entries()[-1]
        assert entry.config["streaming"] is True
        assert entry.ingest["peak_buffered_mems"] == 24
        assert entry.plan == {"shards": 12, "largest_shard_rows": 4,
                              "releases": 1}
        text = render_run_text(entry)
        assert "peak buffered load/store events: 24" in text
        assert "shard plan: 12 shard(s), largest 4 row(s), run in 1 " \
            "piece(s)" in text

    def test_streaming_rejects_jobs(self, tmp_path, capsys):
        """The streaming pass is serial; asking for workers is an error,
        not a silently serial run."""
        assert main(["check", str(tmp_path), "--streaming",
                     "--jobs", "2"]) == 2
        assert re.search("streaming.*jobs", capsys.readouterr().err)

    def test_incremental_rejects_jobs(self, tmp_path, capsys):
        """So is the cache."""
        assert main(["check", str(tmp_path), "--incremental",
                     "--cache-dir", str(tmp_path / "c"), "--jobs", "2"]) == 2
        assert re.search("incremental.*serial.*jobs",
                         capsys.readouterr().err)

    def test_stats_command(self, tmp_path, capsys):
        main(["run", "LU", "--ranks", "2", "--param", "n=10",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 ranks" in out and "hottest statements" in out

    def test_diff_command(self, tmp_path, capsys):
        for sub in ("a", "b"):
            main(["run", "LU", "--ranks", "2", "--param", "n=10",
                  "--delivery", "eager",
                  "--trace-dir", str(tmp_path / sub)])
        capsys.readouterr()
        rc = main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_minimize_command(self, tmp_path, capsys):
        main(["run", "jacobi", "--ranks", "3",
              "--trace-dir", str(tmp_path / "t")])
        capsys.readouterr()
        rc = main(["minimize", str(tmp_path / "t"),
                   str(tmp_path / "min")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reduction" in out and "minimized traces:" in out

    def test_minimize_clean_trace(self, tmp_path, capsys):
        main(["run", "LU", "--ranks", "2", "--param", "n=10",
              "--trace-dir", str(tmp_path / "t")])
        capsys.readouterr()
        assert main(["minimize", str(tmp_path / "t"),
                     str(tmp_path / "min")]) == 2

    def test_json_output(self, tmp_path, capsys):
        import json as json_mod
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["check", str(tmp_path), "--json"])
        payload = json_mod.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["errors"]
        first = payload["errors"][0]
        assert {"kind", "severity", "rule", "a", "b", "suggestion",
                "overlap_bytes"} <= set(first)
        assert first["a"]["line"] > 0
        assert payload["stats"]["nranks"] == 2

    def test_dag_ascii_and_dot(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["dag", str(tmp_path)]) == 0
        ascii_out = capsys.readouterr().out
        assert "Win_create" in ascii_out
        assert main(["dag", str(tmp_path), "--format", "dot"]) == 0
        dot_out = capsys.readouterr().out
        assert dot_out.startswith("digraph")
        assert "cluster_rank0" in dot_out
        assert dot_out.rstrip().endswith("}")

    def test_memory_model_flag(self, tmp_path, capsys):
        main(["run", "repro.apps.lu:lu", "--ranks", "2",
              "--param", "n=10", "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["check", str(tmp_path),
                     "--memory-model", "unified"]) == 0


class TestFlightRecorder:
    """run ledger + history/report verbs, end to end through main()."""

    def test_check_appends_to_ledger(self, tmp_path, capsys,
                                     _hermetic_ledger):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        assert main(["check", str(tmp_path)]) == 1
        capsys.readouterr()
        from repro.obs.ledger import RunLedger
        entries = RunLedger().entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.command.startswith("mc-checker check")
        assert entry.findings["errors"] >= 1
        assert entry.findings["details"][0]["provenance"]

    def test_no_ledger_opts_out(self, tmp_path, capsys, _hermetic_ledger):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        main(["check", str(tmp_path), "--no-ledger"])
        capsys.readouterr()
        from repro.obs.ledger import RunLedger
        assert RunLedger().entries() == []

    def test_history_and_report_e2e(self, tmp_path, capsys):
        assert main(["run-check", "emulate", "--ranks", "2",
                     "--trace-dir", str(tmp_path / "t")]) == 1
        capsys.readouterr()
        assert main(["history"]) == 0
        history = capsys.readouterr().out
        assert "emulate" in history

        assert main(["report", "--last"]) == 0
        rendered = capsys.readouterr().out
        assert "run " in rendered and "phases:" in rendered

        html_out = tmp_path / "dash.html"
        assert main(["report", "--last", "--html", str(html_out)]) == 0
        capsys.readouterr()
        html_doc = html_out.read_text()
        assert html_doc.startswith("<!doctype html>")
        assert "Candidate-pair funnel" in html_doc

    def test_report_compare_between_runs(self, tmp_path, capsys):
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        main(["check", str(tmp_path)])
        main(["check", str(tmp_path)])
        capsys.readouterr()
        from repro.obs.ledger import RunLedger
        first, second = [e.run_id for e in RunLedger().entries()]
        rc = main(["report", second, "--compare", first,
                   "--tolerance", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "compare" in out and first in out

    def test_report_empty_ledger(self, capsys):
        assert main(["report", "--last"]) == 2
        assert "no matching run" in capsys.readouterr().out

    def test_json_output_stays_pure(self, tmp_path, capsys):
        import json as json_mod
        main(["run", "emulate", "--ranks", "2",
              "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        main(["check", str(tmp_path), "--json"])
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["errors"]
        assert payload["errors"][0]["provenance"]

    def test_case_insensitive_app_names(self, tmp_path, capsys):
        rc = main(["run-check", "lu", "--ranks", "2", "--param", "n=16",
                   "--trace-dir", str(tmp_path), "--no-ledger"])
        capsys.readouterr()
        assert rc == 0

    def test_stats_json_includes_footer_counts(self, tmp_path, capsys):
        import json as json_mod
        main(["run", "emulate", "--ranks", "2", "--trace-format",
              "binary", "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["stats", str(tmp_path), "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["nranks"] == 2
        for rank in payload["per_rank"]:
            assert rank["format"] == "binary"
            assert rank["footer_counts"]["call"] == rank["calls"]

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_stats_digest_pins_producer_determinism(self, tmp_path, capsys,
                                                    fmt):
        """The CI determinism line: two profiles of one program under
        one seed give the same ``stats --json``, digests included."""
        import json as json_mod
        from repro.profiler.tracer import TraceSet
        payloads = []
        for name in ("a", "b"):
            trace_dir = str(tmp_path / name)
            main(["run", "ping-pong", "--sched", "random", "--seed", "7",
                  "--trace-format", fmt, "--trace-dir", trace_dir])
            capsys.readouterr()
            main(["stats", trace_dir, "--json", "--no-phases"])
            payloads.append(json_mod.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]
        traces = TraceSet(str(tmp_path / "a"))
        for rank in payloads[0]["per_rank"]:
            with traces.reader(rank["rank"]) as reader:
                assert rank["digest"] == reader.content_digest()
