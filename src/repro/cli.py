"""``mc-checker`` command-line interface.

Subcommands mirror the paper's workflow (Figure 5):

* ``mc-checker stanalyze app.py`` — run ST-Analyzer, print the
  instrumentation report;
* ``mc-checker run <app> --ranks N --trace-dir D`` — execute an
  application under the Profiler, writing per-rank traces;
* ``mc-checker check <trace-dir>`` — run DN-Analyzer offline over traces;
* ``mc-checker run-check <app>`` — both steps in one go;
* ``mc-checker stats <trace-dir>`` — per-rank and per-phase summary;
* ``mc-checker generate --seed S --bug any`` — emit a constrained-random
  RMA program + ground-truth conflict manifest;
* ``mc-checker fuzz --seeds N`` — run the differential fuzzing harness
  over a seed corpus, scoring recall/precision and cross-checking the
  batch, streaming, incremental cold/warm and other-trace-format arms;
* ``mc-checker table1`` — print the compatibility matrix;
* ``mc-checker apps`` — list the bundled applications.

``<app>`` is either a bundled bug-case name (``emulate``, ``BT-broadcast``,
``lockopts``, ``ping-pong``, ``jacobi``), a bundled overhead app name, or a
dotted path ``package.module:function``.

Observability (``repro.obs``) is wired in uniformly: every subcommand
accepts ``--log-level`` (all human-readable output goes through the
structured logger, so ``--log-level quiet`` leaves only exit codes), and
the profiling/analysis subcommands accept ``--metrics-out FILE`` (a
Prometheus exposition dump) and ``--chrome-trace FILE`` (a Chrome
``trace_event`` file for ``chrome://tracing``/Perfetto).  ``main`` sets
the log level and runs the verb in one :func:`repro.obs.session`, which
records when an export flag is given or when ``check`` / ``run-check``
feed the run ledger (not with ``--no-ledger``).

Exit status 2 is "could not do it" (an unanalysable trace set, a bad
command line).  A verb imports the layers it drives when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.core.compat import format_table
from repro.obs.logging import LOG_LEVEL_CHOICES
from repro.profiler.tracer import TraceSet
from repro.util.errors import AnalysisError, TraceFormatError


class UsageError(Exception):
    """A command line the verbs cannot act on (exit 2, one stderr line)."""


def _resolve_app(name: str) -> Tuple[Callable, Dict]:
    """Resolve an app spec to (callable, default params).

    Bundled names match case-insensitively (``lu`` finds ``LU``);
    dotted ``module:function`` paths stay exact."""
    from repro.apps.registry import (
        BUG_CASES, EXTRA_CASES, OVERHEAD_APPS, _resolve,
    )
    wanted = name.lower()
    for case in BUG_CASES + EXTRA_CASES:
        if case.name.lower() == wanted:
            return case.app, case.params(buggy=True)
    for app in OVERHEAD_APPS:
        if app.name.lower() == wanted:
            return app.app, app.param_dict()
    if ":" in name:
        return _resolve(name), {}
    raise UsageError(f"unknown application {name!r}; see `mc-checker apps`")


def _analysis_parent() -> argparse.ArgumentParser:
    """Shared parent parser: the analysis flags every checking-capable
    subcommand (``run``, ``check``, ``run-check``) accepts with identical
    help and defaults."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("analysis options")
    group.add_argument("--memory-model", default="separate",
                       choices=("separate", "unified"),
                       help="MPI RMA memory model for Table-I verdicts")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sharded analyzer "
                            "(1 = serial, -1 = one per CPU); one "
                            "persistent pool serves every phase and is "
                            "reused by later runs; findings are "
                            "identical at any job count")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="on-disk result cache for incremental "
                            "checking")
    group.add_argument("--incremental", action="store_true",
                       help="reuse cached per-region findings; only "
                            "re-analyze regions whose inputs changed "
                            "(requires --cache-dir)")
    return parent


def _config_from_args(args) -> CheckConfig:
    """Build the :class:`CheckConfig` a subcommand's flags describe."""
    if getattr(args, "incremental", False) and \
            not getattr(args, "cache_dir", None):
        raise UsageError("--incremental requires --cache-dir")
    try:
        return CheckConfig(
            memory_model=getattr(args, "memory_model", "separate"),
            jobs=getattr(args, "jobs", 1),
            streaming=getattr(args, "streaming", False),
            cache_dir=getattr(args, "cache_dir", None),
            incremental=getattr(args, "incremental", False))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_obs_args(parser: argparse.ArgumentParser,
                  exports: bool = False) -> None:
    parser.add_argument("--log-level", default="info",
                        choices=LOG_LEVEL_CHOICES,
                        help="verbosity of human-readable output "
                             "(quiet silences everything)")
    if exports:
        parser.add_argument("--metrics-out", default=None, metavar="FILE",
                            help="write a Prometheus-exposition metrics "
                                 "dump (enables observability)")
        parser.add_argument("--chrome-trace", default=None, metavar="FILE",
                            help="write a Chrome trace_event span file for "
                                 "chrome://tracing / Perfetto (enables "
                                 "observability)")


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("run ledger")
    group.add_argument("--ledger-dir", default=None, metavar="DIR",
                       help="where to append this run's flight record "
                            "(default: $MCCHECKER_LEDGER_DIR or "
                            "~/.mc-checker/ledger)")
    group.add_argument("--no-ledger", action="store_true",
                       help="skip the run ledger (also disables the "
                            "default flight recorder)")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="bundled app name or module:function")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--scope", default="report",
                        choices=("report", "all", "none"),
                        help="instrumentation scope (default: ST-Analyzer "
                             "report)")
    parser.add_argument("--delivery", default="random",
                        choices=("eager", "lazy", "random"),
                        help="RMA delivery policy of the simulator")
    parser.add_argument("--sched", default="round_robin",
                        choices=("round_robin", "random"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-format", default="binary",
                        choices=("text", "binary"),
                        help="on-disk trace format (default binary: "
                             "columns and strided load/store runs, "
                             "smaller and much faster to analyze; text: "
                             "one record per line; identical findings)")
    parser.add_argument("--fixed", action="store_true",
                        help="run the corrected variant of a bug-case app")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override an app parameter (repeatable)")


def _add_gen_args(parser: argparse.ArgumentParser) -> None:
    """Generation flags shared by ``generate`` and ``fuzz``."""
    group = parser.add_argument_group("generation options")
    group.add_argument("--seed", type=int, default=0,
                       help="master generation seed (the only source of "
                            "randomness; same seed = same program)")
    group.add_argument("--ranks", type=int, default=4,
                       help="simulated ranks of the generated program")
    group.add_argument("--rounds", type=int, default=3,
                       help="synchronization rounds (one epoch per rank "
                            "per round)")
    group.add_argument("--ops", type=int, default=3, metavar="N",
                       help="actions per rank per round")
    group.add_argument("--bug", action="append", default=[],
                       metavar="PATTERN", dest="bugs",
                       help="inject a conflict: get_local, put_origin, "
                            "op_pair, conflicting_puts, target_race, or "
                            "'any' (repeatable)")
    group.add_argument("--slot-elems", type=int, default=2,
                       help="window/origin elements per action slot")
    group.add_argument("--reps", type=int, default=1,
                       help="semantic repetitions of each local access "
                            "(scales event counts via block accesses)")
    group.add_argument("--flush-prob", type=float, default=0.25,
                       help="probability of a mid-epoch flush_all in "
                            "lock_all rounds")
    group.add_argument("--trace-format", default="binary",
                       choices=("text", "binary"),
                       help="trace encoding for profiled runs")


def _gen_config_from_args(args):
    from repro.gen import GenConfig
    try:
        return GenConfig(
            seed=args.seed, nranks=args.ranks, rounds=args.rounds,
            ops_per_round=args.ops, bugs=tuple(args.bugs),
            slot_elems=args.slot_elems, reps=args.reps,
            flush_prob=args.flush_prob, trace_format=args.trace_format)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_params(raw_params, defaults: Dict) -> Dict:
    params = dict(defaults)
    for raw in raw_params:
        key, _, value = raw.partition("=")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _do_run(args) -> Optional[str]:
    from repro.profiler.session import profile_run
    log = obs.get_logger()
    app, defaults = _resolve_app(args.app)
    params = _parse_params(args.param, defaults)
    if args.fixed and "buggy" in params:
        params["buggy"] = False
    run = profile_run(app, args.ranks, trace_dir=args.trace_dir,
                      params=params, scope=args.scope,
                      delivery=args.delivery, sched_policy=args.sched,
                      seed=args.seed, app_name=args.app,
                      trace_format=args.trace_format)
    counts = run.traces.event_counts()
    log.info(f"ran {args.app!r} on {args.ranks} ranks in "
             f"{run.elapsed:.3f}s")
    log.info(f"traces: {run.traces.directory}")
    log.info(f"events: {counts['call']} MPI calls, {counts['load']} loads, "
             f"{counts['store']} stores")
    return run.traces.directory


def _per_rank_table(stats) -> str:
    """Per-rank event/byte table of a :class:`~repro.tools.TraceStats`."""
    lines = ["per-rank summary:",
             f"  {'rank':>4s} {'calls':>8s} {'loads':>8s} {'stores':>8s} "
             f"{'rma_bytes':>10s} {'ls_bytes':>10s}"]
    for r in stats.per_rank:
        lines.append(
            f"  {r.rank:4d} {r.calls:8d} {r.loads:8d} {r.stores:8d} "
            f"{r.rma_bytes:10d} {r.load_bytes + r.store_bytes:10d}")
    return "\n".join(lines)


def _phase_table(report) -> str:
    """Per-phase timing table of a :class:`~repro.core.CheckReport`."""
    timings = report.stats.phase_seconds
    lines = ["analyzer phases:"]
    for phase, seconds in timings.items():
        lines.append(f"  {phase:12s} {seconds:9.4f}s")
    lines.append(f"  {'total':12s} {report.stats.total_seconds:9.4f}s")
    lines.append(f"findings: {len(report.errors)} error(s), "
                 f"{len(report.warnings)} warning(s)")
    return "\n".join(lines)


def _record_run(args, report, config, traces) -> None:
    """Append this run's flight record to the ledger (best-effort: a
    ledger problem must never fail the analysis that produced it)."""
    if getattr(args, "no_ledger", False):
        return
    log = obs.get_logger()
    try:
        from repro.obs.ledger import RunLedger
        from repro.obs.report import build_run_report
        run_report = build_run_report(
            report, config, traces=traces,
            command=getattr(args, "_command_line", ""),
            app=getattr(args, "app", None) or "")
        RunLedger(getattr(args, "ledger_dir", None)).append(run_report)
        log.debug(f"ledger: recorded run {run_report.run_id}")
    except Exception as exc:  # noqa: BLE001
        log.warning(f"ledger: could not record run: {exc}")


def _do_report(args) -> int:
    log = obs.get_logger()
    from repro.obs.dashboard import (
        render_compare_text, render_run_html, render_run_text,
    )
    from repro.obs.ledger import RunLedger, compare_runs
    ledger = RunLedger(args.ledger_dir)
    entry = (ledger.find(args.run_id) if args.run_id else ledger.last())
    if entry is None:
        log.error("report: no matching run in the ledger "
                  f"({ledger.path}); run `mc-checker history`")
        return 2
    if args.compare:
        baseline = ledger.find(args.compare)
        if baseline is None:
            log.error(f"report: no run matches baseline {args.compare!r}")
            return 2
        comparison = compare_runs(entry, baseline,
                                  tolerance=args.tolerance)
        if args.json:
            print(json.dumps(comparison, indent=2))
        else:
            log.info(render_compare_text(comparison))
        return 0 if comparison["ok"] else 1
    if args.html:
        parent = os.path.dirname(args.html)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_run_html(entry))
        log.info(f"dashboard: {args.html}")
    if args.json:
        print(json.dumps(entry.to_dict(), indent=2))
    elif not args.html:
        log.info(render_run_text(entry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mc-checker",
        description="Detect memory consistency errors in (simulated) MPI "
                    "one-sided applications.")
    sub = parser.add_subparsers(dest="command", required=True)
    analysis = _analysis_parent()

    p_run = sub.add_parser("run", help="profile an application run",
                           parents=[analysis])
    _add_run_args(p_run)
    _add_obs_args(p_run, exports=True)

    p_check = sub.add_parser("check", help="analyze an existing trace set",
                             parents=[analysis])
    p_check.add_argument("trace_dir")
    p_check.add_argument("--streaming", action="store_true",
                         help="release-at-a-time analysis with bounded "
                              "data-event memory")
    p_check.add_argument("--json", action="store_true",
                         help="emit the report as JSON (for CI tooling)")
    _add_obs_args(p_check, exports=True)
    _add_ledger_args(p_check)

    p_rc = sub.add_parser("run-check", help="profile and analyze in one go",
                          parents=[analysis])
    _add_run_args(p_rc)
    _add_obs_args(p_rc, exports=True)
    _add_ledger_args(p_rc)

    p_hist = sub.add_parser(
        "history", help="list past analysis runs from the run ledger")
    p_hist.add_argument("--limit", type=int, default=None, metavar="N",
                        help="show only the N most recent runs")
    p_hist.add_argument("--app", default=None,
                        help="filter by application name")
    p_hist.add_argument("--json", action="store_true",
                        help="emit the entries as JSON")
    p_hist.add_argument("--ledger-dir", default=None, metavar="DIR")
    _add_obs_args(p_hist)

    p_rep = sub.add_parser(
        "report", help="render one ledger entry (flight record)")
    p_rep.add_argument("run_id", nargs="?", default=None,
                       help="run id (prefix) to render")
    p_rep.add_argument("--last", action="store_true",
                       help="render the most recent run")
    p_rep.add_argument("--html", default=None, metavar="FILE",
                       help="write a self-contained HTML dashboard")
    p_rep.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff against another run id (prefix); exits "
                            "1 on regression beyond --tolerance")
    p_rep.add_argument("--tolerance", type=float, default=0.25,
                       help="allowed slowdown fraction for --compare "
                            "(default 0.25 = 25%%)")
    p_rep.add_argument("--json", action="store_true",
                       help="emit the entry (or comparison) as JSON")
    p_rep.add_argument("--ledger-dir", default=None, metavar="DIR")
    _add_obs_args(p_rep)

    p_gen = sub.add_parser(
        "generate", help="generate a constrained-random RMA program with "
                         "a ground-truth conflict manifest")
    _add_gen_args(p_gen)
    p_gen.add_argument("--out", default=None, metavar="DIR",
                       help="write program.json + manifest.json here")
    p_gen.add_argument("--json", action="store_true",
                       help="emit the manifest as JSON on stdout")
    _add_obs_args(p_gen)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing over generated programs: "
                     "recall/precision vs the injected-bug manifest plus "
                     "cross-checked batch/streaming/cache/format arms",
        parents=[analysis])
    _add_gen_args(p_fuzz)
    p_fuzz.add_argument("--seeds", type=int, default=5, metavar="N",
                        help="corpus size: seeds seed..seed+N-1 "
                             "(default 5)")
    p_fuzz.add_argument("--no-differential", action="store_true",
                        help="skip the differential matrix (score "
                             "recall/precision only)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the fuzz report as JSON")
    _add_obs_args(p_fuzz, exports=True)

    p_st = sub.add_parser("stanalyze", help="static analysis of a source file")
    p_st.add_argument("source_file")
    _add_obs_args(p_st)

    p_dag = sub.add_parser(
        "dag", help="render a trace set's data-access DAG (Figure 4)")
    p_dag.add_argument("trace_dir")
    p_dag.add_argument("--format", default="ascii",
                       choices=("ascii", "dot"))
    _add_obs_args(p_dag)

    p_stats = sub.add_parser(
        "stats", help="per-rank / per-phase statistics of a trace set "
                      "(Figure-10 lens)")
    p_stats.add_argument("trace_dir")
    p_stats.add_argument("--hot", type=int, default=8,
                         help="number of hottest statements to list")
    p_stats.add_argument("--no-phases", action="store_true",
                         help="skip the DN-Analyzer per-phase timing table")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the statistics (incl. per-rank binary "
                              "footer counts) as JSON")
    _add_obs_args(p_stats, exports=True)

    p_diff = sub.add_parser(
        "diff", help="align two trace sets of the same application")
    p_diff.add_argument("left_dir")
    p_diff.add_argument("right_dir")
    _add_obs_args(p_diff)

    p_min = sub.add_parser(
        "minimize", help="shrink a failing trace set while the first "
                         "finding persists")
    p_min.add_argument("trace_dir")
    p_min.add_argument("out_dir")
    _add_obs_args(p_min)

    p_t1 = sub.add_parser("table1", help="print the RMA compatibility matrix")
    _add_obs_args(p_t1)
    p_apps = sub.add_parser("apps", help="list bundled applications")
    _add_obs_args(p_apps)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._command_line = "mc-checker " + " ".join(
        sys.argv[1:] if argv is None else [str(a) for a in argv])

    # check/run-check record by default — their flight record feeds the
    # run ledger; --no-ledger opts back out of it (an export flag still
    # records)
    config = obs.ObsConfig(
        enabled=args.command in ("check", "run-check")
        and not getattr(args, "no_ledger", False),
        metrics_out=getattr(args, "metrics_out", None),
        chrome_trace=getattr(args, "chrome_trace", None))
    obs.configure(log_level=getattr(args, "log_level", "info"))
    try:
        with obs.session(config):
            return _dispatch(args)
    except (TraceFormatError, AnalysisError, OSError, UsageError) as exc:
        # distinct from 1, which `check` returns for a detected bug
        print(f"mc-checker: {exc}", file=sys.stderr)
        return 2
    finally:
        log = obs.get_logger()
        if config.metrics_out:
            log.info(f"metrics: {config.metrics_out}")
        if config.chrome_trace:
            log.info(f"chrome trace: {config.chrome_trace} "
                     "(open in chrome://tracing or ui.perfetto.dev)")


def _dispatch(args) -> int:
    log = obs.get_logger()

    if args.command == "run":
        _do_run(args)
        return 0

    if args.command in ("check", "run-check"):
        trace_dir = (_do_run(args) if args.command == "run-check"
                     else args.trace_dir)
        config = _config_from_args(args)
        traces = TraceSet(trace_dir)
        report = check_traces(traces, config)
        _record_run(args, report, config, traces)
        if getattr(args, "json", False):
            # machine output: always printed verbatim, bypassing log level
            print(json.dumps(report.to_dict(), indent=2))
        else:
            log.info(report.format())
            if config.streaming:
                peak = obs.get_recorder().registry.get(
                    "analyzer_peak_buffered_mems")
                if peak is not None:
                    log.info("streaming: peak buffered load/store "
                             f"events: {int(peak.value())}")
        return 1 if report.has_errors else 0

    if args.command == "generate":
        from repro.gen import generate_program
        generated = generate_program(_gen_config_from_args(args))
        if args.out:
            generated.save(args.out)
            log.info(f"wrote {os.path.join(args.out, 'program.json')} and "
                     f"manifest.json ({len(generated.manifest.bugs)} "
                     "injected bug(s))")
        if args.json:
            print(generated.manifest.canonical_json())
        elif not args.out:
            log.info(f"generated program: {args.ranks} ranks, "
                     f"{args.rounds} rounds, "
                     f"{len(generated.manifest.bugs)} injected bug(s)")
            for bug in generated.manifest.bugs:
                log.info(f"  bug {bug.bug_id}: {bug.pattern} "
                         f"({bug.kind}, round {bug.round_index} "
                         f"{bug.epoch_kind}, ranks {list(bug.ranks)})")
            log.info("pass --out DIR to save program.json + manifest.json")
        return 0

    if args.command == "fuzz":
        from repro.gen.fuzz import fuzz_corpus
        gen_cfg = _gen_config_from_args(args)
        check_cfg = _config_from_args(args)
        seeds = range(args.seed, args.seed + args.seeds)
        fuzz_report = fuzz_corpus(gen_cfg, seeds, check_cfg,
                                  differential=not args.no_differential)
        if args.json:
            print(json.dumps(fuzz_report.to_dict(), indent=2))
        else:
            log.info(fuzz_report.format())
        return 0 if fuzz_report.ok else 1

    if args.command == "history":
        from repro.obs.dashboard import render_history_text
        from repro.obs.ledger import RunLedger
        ledger = RunLedger(args.ledger_dir)
        entries = ledger.entries(app=args.app, limit=args.limit)
        if args.json:
            print(json.dumps([e.to_dict() for e in entries], indent=2))
        else:
            log.info(render_history_text(entries))
        return 0

    if args.command == "report":
        return _do_report(args)

    if args.command == "dag":
        from repro.core.dag import build_dag, render_ascii, render_dot
        from repro.core.epochs import EpochIndex
        from repro.core.matching import match_synchronization
        from repro.core.preprocess import preprocess

        pre = preprocess(TraceSet(args.trace_dir))
        matches = match_synchronization(pre)
        dag = build_dag(pre, matches, EpochIndex(pre))
        render = render_dot if args.format == "dot" else render_ascii
        log.info(render(dag))
        return 0

    if args.command == "stats":
        from repro.tools import compute_stats
        traces = TraceSet(args.trace_dir)
        stats = compute_stats(traces)
        if getattr(args, "json", False):
            print(json.dumps(stats.to_dict(hot_limit=args.hot), indent=2))
            return 0
        log.info(stats.format(hot_limit=args.hot))
        log.info(_per_rank_table(stats))
        if not args.no_phases:
            try:
                report = check_traces(traces)
            except Exception as exc:  # noqa: BLE001 - stats must not die
                log.warning(f"analyzer phases unavailable: {exc}")
            else:
                log.info(_phase_table(report))
        return 0

    if args.command == "diff":
        from repro.tools import diff_traces
        diff = diff_traces(TraceSet(args.left_dir),
                           TraceSet(args.right_dir))
        log.info(diff.format())
        return 0 if diff.identical else 1

    if args.command == "minimize":
        from repro.tools.minimize import minimize_trace
        try:
            result = minimize_trace(TraceSet(args.trace_dir), args.out_dir)
        except ValueError as exc:
            log.error(f"minimize: {exc}")
            return 2
        log.info(result.format())
        log.info(f"minimized traces: {result.traces.directory}")
        return 0

    if args.command == "stanalyze":
        from repro.stanalyzer import analyze_source
        with open(args.source_file, encoding="utf-8") as fh:
            source = fh.read()
        try:
            report = analyze_source(source, filename=args.source_file)
        except SyntaxError as exc:
            log.error(f"stanalyze: {args.source_file} does not parse: {exc}")
            return 2
        log.info(report.summary())
        return 0

    if args.command == "table1":
        log.info(format_table())
        log.info("\n* acc/acc: BOTH only for the same op and basic datatype")
        return 0

    if args.command == "apps":
        from repro.apps.registry import (
            BUG_CASES, EXTRA_CASES, OVERHEAD_APPS,
        )
        log.info("bug-study applications (Table II + extras):")
        for case in BUG_CASES + EXTRA_CASES:
            log.info(f"  {case.name:20s} {case.nranks:3d} ranks  "
                     f"{case.error_location:17s} {case.failure_symptom}")
        log.info("overhead applications (Figure 8):")
        for app in OVERHEAD_APPS:
            log.info(f"  {app.name:20s} {app.nranks:3d} ranks")
        return 0

    return 0  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
