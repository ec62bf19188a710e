"""MCChecker — the end-to-end pipeline of Figure 5.

``traces -> preprocess -> match synchronization -> happens-before oracle ->
epochs -> access model -> concurrent regions -> intra-epoch + cross-process
detection -> deduplicated report``.

:func:`check_traces` analyzes an existing
:class:`~repro.profiler.tracer.TraceSet` (offline, like the paper's
DN-Analyzer).  Profiling and analyzing in one call is
:func:`repro.api.run_check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.core.calltable import total_calls
from repro.core.clocks import ConcurrencyOracle
from repro.core.config import CheckConfig, resolve_jobs
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, annotate_context,
    dedupe, sort_findings,
)
from repro.core.engine import (
    detect_cross_process_sweep, detect_intra_epoch_sweep,
)
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.model import build_access_model_sweep
from repro.core.plan import (
    ControlState, ShardPlan, build_control_state, phase_timer,
)
from repro.core.preprocess import (
    PreprocessedTrace, preprocess_calls, preprocess_calls_with_counts,
)
from repro.core.regions import RegionIndex
from repro.profiler.tracer import TraceSet


@dataclass
class CheckStats:
    """Pipeline statistics (sizes and per-phase wall-clock seconds)."""

    nranks: int = 0
    events: int = 0
    rma_ops: int = 0
    local_accesses: int = 0
    sync_matches: int = 0
    regions: int = 0
    epochs: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())


@dataclass
class CheckReport:
    """The outcome of one MC-Checker analysis."""

    errors: List[ConsistencyError]
    warnings: List[ConsistencyError]
    stats: CheckStats

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def findings(self) -> List[ConsistencyError]:
        return self.errors + self.warnings

    def summary(self) -> str:
        return (f"MC-Checker: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s) across "
                f"{self.stats.nranks} ranks "
                f"({self.stats.events} events, {self.stats.rma_ops} RMA ops, "
                f"{self.stats.regions} concurrent regions)")

    def format(self) -> str:
        lines = [self.summary()]
        for finding in self.findings:
            lines.append("")
            lines.append(finding.format())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready representation of the whole report."""
        return {
            "errors": [f.to_dict() for f in self.errors],
            "warnings": [f.to_dict() for f in self.warnings],
            "stats": {
                "nranks": self.stats.nranks,
                "events": self.stats.events,
                "rma_ops": self.stats.rma_ops,
                "local_accesses": self.stats.local_accesses,
                "sync_matches": self.stats.sync_matches,
                "regions": self.stats.regions,
                "epochs": self.stats.epochs,
                "phase_seconds": dict(self.stats.phase_seconds),
            },
        }


class MCChecker:
    """Configurable DN-Analyzer pipeline over one trace set."""

    def __init__(self, traces: TraceSet,
                 config: Optional[CheckConfig] = None):
        self.config = _config(config)
        self.traces = traces
        self.memory_model = self.config.memory_model
        self.jobs = resolve_jobs(self.config.jobs)
        # populated by run(); kept public for tests and the CLI
        self.pre: Optional[PreprocessedTrace] = None
        self.matches = None
        self.oracle: Optional[ConcurrencyOracle] = None
        self.epoch_index: Optional[EpochIndex] = None
        self.model = None
        self.regions: Optional[RegionIndex] = None

    #: the serial pipeline's phases in execution order (span names are
    #: ``analyzer.<phase>``; keys of ``CheckStats.phase_seconds``); with
    #: ``jobs > 1`` the control phases keep these names and ``plan`` /
    #: ``detect`` / ``merge`` follow, as in the other plan executors
    PHASES = ("preprocess", "matching", "clocks", "epochs", "model",
              "regions", "intra", "inter")

    def run(self) -> CheckReport:
        with obs.span("analyzer.run",
                      memory_model=self.memory_model) as run_span:
            report = self._run_phases()
        publish_report_obs(report, run_span.duration)
        return report

    def _run_phases(self) -> CheckReport:
        stats = CheckStats()
        timed = phase_timer(stats.phase_seconds)
        findings = (self._run_pooled(stats, timed) if self.jobs > 1
                    else self._run_detect(stats, timed))
        findings = dedupe(sort_findings(findings))
        annotate_context(
            findings, jobs=self.jobs,
            mode="parallel" if self.jobs > 1 else "batch", cache="none")
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        warnings = [f for f in findings if f.severity == SEVERITY_WARNING]
        return CheckReport(errors=errors, warnings=warnings, stats=stats)

    def _run_detect(self, stats: CheckStats,
                    timed) -> List[ConsistencyError]:
        """The serial batch route — the degenerate plan: one shard,
        every unit, one lift."""
        pre = self.pre = timed("preprocess",
                               lambda: preprocess_calls(self.traces))
        stats.nranks = pre.nranks
        # only call events are kept as objects; the per-rank scans carry
        # the full trace-event totals (calls + loads/stores)
        stats.events = pre.total_events

        self.matches = timed("matching",
                             lambda: match_synchronization(pre),
                             nranks=pre.nranks, events=stats.events)
        stats.sync_matches = len(self.matches)

        self.oracle = timed("clocks",
                            lambda: ConcurrencyOracle(pre, self.matches))
        self.epoch_index = timed("epochs", lambda: EpochIndex(pre))
        stats.epochs = len(self.epoch_index.epochs)
        publish_control_plane_obs(pre, stats.phase_seconds)

        self.model = timed(
            "model", lambda: build_access_model_sweep(pre, self.epoch_index,
                                                      self.traces))
        stats.rma_ops = len(self.model.ops)
        stats.local_accesses = self.model.total_local_accesses

        self.regions = timed("regions",
                             lambda: RegionIndex(pre, self.matches))
        stats.regions = len(self.regions)

        findings = timed("intra", lambda: detect_intra_epoch_sweep(
            self.model, self.epoch_index, memory_model=self.memory_model))
        findings += timed("inter", lambda: detect_cross_process_sweep(
            pre, self.model, self.regions, self.oracle,
            self.epoch_index, memory_model=self.memory_model))
        return findings

    def _run_pooled(self, stats: CheckStats,
                    timed) -> List[ConsistencyError]:
        """``jobs > 1``: control pass and plan in this process — the set
        read as the batch check reads it, memory rows included — every
        shard's units in chunks over the worker pool."""
        from repro.core.parallel import detect_shards

        control = run_control_pass(
            lambda: preprocess_calls_with_counts(self.traces), stats, timed)
        plan = timed("plan", lambda: ShardPlan.build(control))
        found, chunks = timed("detect", lambda: detect_shards(
            plan.units(control, range(len(plan))), control,
            self.memory_model, control.mems, self.jobs),
            shards=len(plan), jobs=self.jobs)
        plan.publish_obs(chunks)
        return timed("merge", lambda: plan.merge(enumerate(found)))


def run_control_pass(read: Callable[[], tuple], stats: CheckStats,
                     timed) -> ControlState:
    """A plan executor's control pass: ``read`` — the ingest, returning
    what :func:`~repro.core.preprocess.preprocess_readers` returns — timed
    as ``preprocess``, the state built over it, the sizes it establishes
    recorded in ``stats``, the ingest metrics published."""
    control = build_control_state(*timed("preprocess", read), timed)
    for name, value in control.sizes().items():
        setattr(stats, name, value)
    publish_control_plane_obs(control.pre, stats.phase_seconds)
    return control


#: the control phases: everything derived from call events alone (the
#: data phases are model + intra + inter; regions is noise-level)
CONTROL_PHASES = ("preprocess", "matching", "clocks", "epochs")


def publish_control_plane_obs(pre: PreprocessedTrace,
                              phase_seconds: Dict[str, float]) -> None:
    """Publish control-phase ingest metrics: how many call events were
    consumed and the rate over the control phase group.  Shared by the
    batch, streaming, and incremental routes."""
    rec = obs.get_recorder()
    if not rec.enabled:
        return
    calls = total_calls(pre)
    rec.count("control_calls_ingested_total", calls,
              help="Call events ingested by the control phases")
    seconds = sum(phase_seconds.get(p, 0.0) for p in CONTROL_PHASES)
    if seconds > 0:
        rec.gauge("control_calls_per_second", calls / seconds,
                  help="Call ingest rate over the "
                       "preprocess+matching+clocks+epochs group")


def publish_report_obs(report: CheckReport, elapsed: float) -> None:
    """Publish one finished report's metrics (shared by every analysis
    mode: batch, parallel, streaming, incremental)."""
    rec = obs.get_recorder()
    if not rec.enabled:
        return
    stats = report.stats
    rec.count("analyzer_events_total", stats.events,
              help="Trace events consumed by DN-Analyzer")
    rec.count("analyzer_rma_ops_total", stats.rma_ops,
              help="RMA operations lifted into the access model")
    rec.count("analyzer_local_accesses_total", stats.local_accesses,
              help="Local accesses lifted into the access model")
    rec.count("analyzer_findings_total", len(report.errors),
              severity="error", help="Deduplicated findings")
    rec.count("analyzer_findings_total", len(report.warnings),
              severity="warning", help="Deduplicated findings")
    rec.gauge("analyzer_regions", stats.regions,
              help="Concurrent regions of the last analysis")
    rec.gauge("analyzer_epochs", stats.epochs,
              help="Epochs of the last analysis")
    rec.gauge("analyzer_sync_matches", stats.sync_matches,
              help="Synchronization matches of the last analysis")
    for phase, seconds in stats.phase_seconds.items():
        rec.observe("analyzer_phase_seconds", seconds, phase=phase,
                    help="DN-Analyzer per-phase wall-clock seconds")
    if elapsed > 0:
        rec.gauge("analyzer_events_per_second", stats.events / elapsed,
                  help="Events analyzed per second, last analysis")


def _check_streaming(traces: TraceSet, config: CheckConfig) -> CheckReport:
    """Streaming route: bounded-memory pipeline, full CheckReport (the
    control pass knows every count the batch pipeline reports)."""
    from repro.core.streaming import check_streaming

    with obs.span("analyzer.run", memory_model=config.memory_model,
                  streaming=True) as run_span:
        findings, checker = check_streaming(
            traces, memory_model=config.memory_model)
        annotate_context(findings, jobs=1, mode="streaming", cache="none")
        control = checker.control
        stats = CheckStats(**control.sizes(),
                           phase_seconds=checker.phase_seconds)
        publish_control_plane_obs(control.pre, stats.phase_seconds)
        checker.plan.publish_obs(checker.releases)
        obs.gauge("analyzer_peak_buffered_mems", checker.peak_buffered_mems,
                  help="Most load/store events a release of the "
                       "streaming data pass held at once")
        report = CheckReport(
            errors=[f for f in findings
                    if f.severity == SEVERITY_ERROR],
            warnings=[f for f in findings
                      if f.severity == SEVERITY_WARNING],
            stats=stats)
    publish_report_obs(report, run_span.duration)
    return report


def _config(config: Optional[CheckConfig]) -> CheckConfig:
    if config is None:
        return CheckConfig()
    if not isinstance(config, CheckConfig):
        raise TypeError(
            f"config must be a CheckConfig, got {type(config).__name__}")
    return config


def check_traces(traces: TraceSet,
                 config: Optional[CheckConfig] = None) -> CheckReport:
    """Analyze an existing trace set.

    Routes on the config: ``incremental`` → the cached checker,
    ``streaming`` → the bounded-memory pipeline, else
    :class:`MCChecker` (the serial batch route, or with ``jobs > 1``
    chunks of the shard plan over the worker pool)."""
    cfg = _config(config)
    if cfg.incremental:
        # imported lazily: incremental imports this module for
        # CheckReport/CheckStats
        from repro.core.incremental import IncrementalChecker
        return IncrementalChecker(traces, cfg).run()
    if cfg.streaming:
        return _check_streaming(traces, cfg)
    return MCChecker(traces, cfg).run()
