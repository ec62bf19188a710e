"""One-call profiled runs: app -> per-rank trace files.

:func:`profile_run` wires the pieces of Figure 5 together: ST-Analyzer
produces the instrumentation report, the Profiler hook is attached to a
fresh simulated world, the application runs, and the resulting
:class:`~repro.profiler.tracer.TraceSet` is handed back for DN-Analyzer.

Timing goes through :mod:`repro.obs` spans — ``profiler.run`` wraps the
instrumented execution (its duration is ``ProfiledRun.elapsed``),
``profiler.baseline`` the native arm of the Figure-8 comparison — and,
when observability is enabled, each run publishes profiler throughput
metrics (events/bytes per rank, events per second) plus the simulated
world's scheduler totals.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.profiler.interpose import (
    SCOPE_ALL, SCOPE_NONE, SCOPE_REPORT, ProfilerHook,
)
from repro.profiler.tracer import TraceSet
from repro.simmpi.runtime import World
from repro.stanalyzer import (
    InstrumentationReport, analyze_app, unwrap_app,
)


@dataclass
class ProfiledRun:
    """Everything a profiled execution produced."""

    traces: TraceSet
    results: List[Any]
    report: Optional[InstrumentationReport]
    world_stats: Dict[str, int]
    elapsed: float
    events_written: int


def _publish_profiler_metrics(hook: ProfilerHook, elapsed: float) -> None:
    rec = obs.get_recorder()
    if not rec.enabled:
        return
    for rank, events in enumerate(hook.events_by_rank()):
        rec.count("profiler_events_written_total", events, rank=rank,
                  help="Trace events written, per rank")
    for rank, nbytes in enumerate(hook.bytes_by_rank()):
        rec.count("profiler_bytes_written_total", nbytes, rank=rank,
                  help="Trace bytes written, per rank")
    for kind, lanes in hook.lane_counts().items():
        for lane, n in lanes.items():
            if n:
                rec.count("profiler_emitted_events_total", n, kind=kind,
                          lane=lane,
                          help="Events emitted, by kind and producer lane "
                               "(scalar objects vs bulk columns)")
    rec.gauge("profiler_emission_seconds", elapsed,
              help="Wall time of the last instrumented execution "
                   "(simulate + profile + write)")
    if elapsed > 0:
        rec.gauge("profiler_events_per_second",
                  hook.events_written / elapsed,
                  help="Aggregate trace-event write rate of the last run")


def profile_run(app: Callable, nranks: int,
                trace_dir: Optional[str] = None,
                params: Optional[Dict[str, Any]] = None,
                scope: str = SCOPE_REPORT,
                report: Optional[InstrumentationReport] = None,
                sched_policy: str = "round_robin",
                seed: int = 0,
                delivery: str = "random",
                capture_locations: bool = True,
                app_name: Optional[str] = None,
                trace_format: str = "text") -> ProfiledRun:
    """Run ``app`` on ``nranks`` simulated ranks with the Profiler attached.

    With ``scope="report"`` (the paper's configuration) and no explicit
    ``report``, ST-Analyzer runs automatically on the app's defining module.
    """
    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="mcchecker-trace-")
    os.makedirs(trace_dir, exist_ok=True)
    if scope == SCOPE_REPORT and report is None:
        report = analyze_app(app)
    relevant = report.buffer_names if report is not None else set()
    app_name = app_name or getattr(unwrap_app(app), "__name__", "app")

    hook = ProfilerHook(trace_dir, nranks, app=app_name, scope=scope,
                        relevant_vars=relevant,
                        capture_locations=capture_locations,
                        trace_format=trace_format)
    world = World(nranks, sched_policy=sched_policy, seed=seed,
                  delivery=delivery)
    world.hooks.append(hook)
    span = obs.span("profiler.run", app=app_name, ranks=nranks, scope=scope)
    with span:
        try:
            results = world.run(app, params)
        except BaseException:
            # crashed, deadlocked or interrupted: what was written must
            # not read back as the trace of a whole run
            hook.abort()
            raise
        hook.close()
    world.publish_obs()
    _publish_profiler_metrics(hook, span.duration)
    return ProfiledRun(
        traces=TraceSet(trace_dir),
        results=results,
        report=report,
        world_stats=dict(world.stats),
        elapsed=span.duration,
        events_written=hook.events_written,
    )


def baseline_run(app: Callable, nranks: int,
                 params: Optional[Dict[str, Any]] = None,
                 sched_policy: str = "round_robin", seed: int = 0,
                 delivery: str = "random") -> float:
    """Run ``app`` without any profiling and return the elapsed time.

    This is the "native execution" arm of the Figure 8 overhead
    comparison.
    """
    world = World(nranks, sched_policy=sched_policy, seed=seed,
                  delivery=delivery)
    span = obs.span("profiler.baseline",
                    app=getattr(unwrap_app(app), "__name__", "app"),
                    ranks=nranks)
    with span:
        world.run(app, params)
    world.publish_obs()
    return span.duration
