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
import re
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

#: A rank file of either format (what :class:`TraceSet` reads a run from).
_RANK_FILE = re.compile(r"trace\.\d+\.(bin|log)")


@dataclass
class ProfiledRun:
    """Everything a profiled execution produced."""

    traces: TraceSet
    results: List[Any]
    report: Optional[InstrumentationReport]
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
    for kind, n in hook.emitted().items():
        if n:
            rec.count("profiler_emitted_events_total", n, kind=kind,
                      help="Events emitted, by kind")
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
                trace_format: str = "binary") -> ProfiledRun:
    """Run ``app`` on ``nranks`` simulated ranks with the Profiler attached.

    With ``scope="report"`` (the paper's configuration) and no explicit
    ``report``, ST-Analyzer runs on the app's defining module — once per
    program text in a process (:func:`~repro.stanalyzer.analyze_source`
    is memoized).

    ``trace_dir`` holds one run: every argument is checked before a file
    in it is opened, so a refused run leaves the previous traces as they
    were; an accepted one removes the ``trace.<rank>.bin`` /
    ``trace.<rank>.log`` files it does not overwrite (a larger run's
    ranks, the other format's files) and leaves every other file alone.
    """
    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="mcchecker-trace-")
    os.makedirs(trace_dir, exist_ok=True)
    if scope == SCOPE_REPORT and report is None:
        report = analyze_app(app)
    relevant = report.buffer_names if report is not None else set()
    app_name = app_name or getattr(unwrap_app(app), "__name__", "app")

    world = World(nranks, sched_policy=sched_policy, seed=seed,
                  delivery=delivery)
    hook = ProfilerHook(trace_dir, nranks, app=app_name, scope=scope,
                        relevant_vars=relevant,
                        capture_locations=capture_locations,
                        trace_format=trace_format)
    ours = {TraceSet.rank_path(trace_dir, rank, trace_format)
            for rank in range(nranks)}
    try:
        for name in os.listdir(trace_dir):
            path = os.path.join(trace_dir, name)
            if _RANK_FILE.fullmatch(name) and path not in ours:
                os.remove(path)
    except OSError:   # e.g. a directory named like a rank file
        hook.abort()
        raise
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
