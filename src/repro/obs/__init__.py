"""``repro.obs`` — unified tracing, metrics, and logging.

The measurement substrate behind the paper's own evaluation figures:
structured spans (Figure 9's per-phase analyzer timings), a metrics
registry (Figure 8's overhead counters, Figure 10's event rates), and a
leveled structured logger shared by every CLI subcommand.  Exporters in
:mod:`repro.obs.export` serialize one run's worth of observation as
Prometheus text, Chrome ``trace_event`` JSON (open it in
``chrome://tracing`` or Perfetto), or JSON-lines.

Observability is *disabled by default*: the module-global recorder is a
:class:`~repro.obs.recorder.NullRecorder`, whose spans still time
themselves (pipeline code folds durations into its own statistics) but
which stores nothing and turns every metric call into a no-op.
:func:`configure` sets the log level at startup; :func:`session` swaps
in a storing :class:`~repro.obs.recorder.Recorder` for the length of one
call (the ``repro.api`` verbs and the CLI each open one), flushes its
exporters and puts the previous recorder back.  Instrumented layers read
:func:`get_recorder` / :func:`is_enabled` at construction time, so the
hot paths never branch per event.

    from repro import obs

    obs.configure(log_level="debug")
    with obs.session(obs.ObsConfig(metrics_out="m.prom")):
        with obs.span("analyzer.matching", nranks=4) as sp:
            ...
        obs.count("analyzer_events_total", 1234)
        obs.observe("profiler_flush_seconds", 0.003, rank="0")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.obs.logging import LEVELS, LOG_LEVEL_CHOICES, ObsLogger
from repro.obs.metrics import (
    DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry,
)
from repro.obs.recorder import NullRecorder, Recorder
from repro.obs.spans import Span, SpanRecord, SpanTracker

__all__ = [
    "configure", "reset", "get_recorder", "get_logger", "is_enabled",
    "span", "count", "gauge", "observe",
    "ObsConfig", "session",
    "NullRecorder", "Recorder",
    "Span", "SpanRecord", "SpanTracker",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "ObsLogger", "LEVELS", "LOG_LEVEL_CHOICES",
]


class _State:
    __slots__ = ("recorder",)

    def __init__(self):
        self.recorder = NullRecorder()


_STATE = _State()


def configure(enabled: bool = False, log_level: str = "info") -> NullRecorder:
    """Select the process-wide recorder (called once at startup)."""
    cls = Recorder if enabled else NullRecorder
    _STATE.recorder = cls(log_level=log_level)
    return _STATE.recorder


def reset() -> None:
    """Back to the default disabled recorder (test isolation)."""
    _STATE.recorder = NullRecorder()


def get_recorder() -> NullRecorder:
    return _STATE.recorder


def get_logger() -> ObsLogger:
    return _STATE.recorder.logger


def is_enabled() -> bool:
    return _STATE.recorder.enabled


@dataclass(frozen=True)
class ObsConfig:
    """Declarative per-call observability: what to record, where to flush.

    Any export path implies recording — ``active`` is what
    :func:`session` keys off.  The ``repro.api`` verbs and the CLI
    (``--metrics-out`` / ``--chrome-trace``) both scope their recording
    with it, so library and command line share one flight-recorder
    semantics.  The log level is not part of it: a session logs at its
    caller's level.
    """

    enabled: bool = False
    metrics_out: Optional[str] = None
    chrome_trace: Optional[str] = None

    @property
    def active(self) -> bool:
        return bool(self.enabled or self.metrics_out or self.chrome_trace)


@contextmanager
def session(config: Optional[ObsConfig]) -> Iterator[NullRecorder]:
    """Scoped recorder: enable for the block, flush exporters, restore.

    The recording logger keeps the level of the one it replaces.
    Flushing happens in a ``finally`` so a raising analysis still writes
    whatever was observed up to the failure — that partial flight record
    is exactly what's needed to debug the failure.  An inactive (or
    ``None``) config yields the current recorder untouched, so callers
    can wrap unconditionally.
    """
    if config is None or not config.active:
        yield _STATE.recorder
        return
    previous = _STATE.recorder
    recorder = configure(enabled=True, log_level=previous.logger.level)
    try:
        yield recorder
    finally:
        try:
            from repro.obs.export import write_chrome_trace, write_metrics
            if config.metrics_out:
                write_metrics(recorder, config.metrics_out)
            if config.chrome_trace:
                write_chrome_trace(recorder, config.chrome_trace)
        finally:
            _STATE.recorder = previous


# -- convenience forwarding to the active recorder ----------------------


def span(name: str, **attrs) -> Span:
    return _STATE.recorder.span(name, **attrs)


def count(name: str, n: float = 1, help: str = "", **labels) -> None:
    _STATE.recorder.count(name, n, help=help, **labels)


def gauge(name: str, value: float, help: str = "", **labels) -> None:
    _STATE.recorder.gauge(name, value, help=help, **labels)


def observe(name: str, value: float, help: str = "",
            buckets: Optional[Sequence[float]] = None, **labels) -> None:
    _STATE.recorder.observe(name, value, help=help, buckets=buckets,
                            **labels)
