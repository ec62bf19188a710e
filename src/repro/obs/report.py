"""Structured :class:`RunReport` — one analysis run's flight record.

Every ``repro.api.check``/CLI run can distill its observations into a
single JSON-ready artifact: what was checked (config digest, per-rank
trace digests), how the pipeline spent its time (per-phase wall and CPU
seconds), how hard the engine worked (the candidate-pair funnel), what
the incremental cache contributed (hit/miss/dirty-shard attribution),
how the worker pool was used, ingest sizes, peak RSS, and the findings
with their provenance.  The report is what the run ledger persists and
what ``repro report`` renders — the durable record behind the paper's
overhead/diagnosis story (Figs. 8–10).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.util.hashing import stable_hash

#: RunReport schema version (bump on breaking layout changes)
SCHEMA_VERSION = 1

#: ``RunReport.cache`` keys counting what an incremental run did beyond
#: its control pass (``IncrementalChecker.work``; the metrics are
#: ``incremental_<key>_total``), shown next to the shard funnel
CACHE_WORK = ("calls_lifted", "shard_files_read", "rows_loaded")

#: span names whose pids identify parallel workers
_WORKER_SPAN_PREFIX = "analyzer.worker."


@dataclass
class RunReport:
    """One analysis run, summarized for the ledger and dashboards."""

    run_id: str
    created: str                   # ISO-8601 UTC timestamp
    command: str = ""              # CLI invocation (empty for API runs)
    app: str = ""                  # application name, when known
    config: Dict[str, Any] = field(default_factory=dict)
    config_digest: str = ""
    trace_dir: str = ""
    trace_digests: Dict[str, str] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: per-phase ``{"wall": s, "cpu": s}`` in pipeline order
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: candidate-pair funnel: ``{"intra/op_pair": n, ...}``
    funnel: Dict[str, float] = field(default_factory=dict)
    #: interval joins the sweep engine ran, per phase: ``{"inter": n}``
    join_calls: Dict[str, float] = field(default_factory=dict)
    #: incremental-cache attribution (empty for non-incremental runs)
    cache: Dict[str, Any] = field(default_factory=dict)
    #: worker-pool utilization (empty for serial runs); byte and task
    #: counts are keyed by pool phase: ``run`` (the per-run install) and
    #: ``shards`` (the one analysis task)
    workers: Dict[str, Any] = field(default_factory=dict)
    #: the shard plan a non-batch executor ran over: ``shards``,
    #: ``largest_shard_rows`` and ``releases`` (stream: releases; pool:
    #: chunks; cache: dirty shards) — empty for the serial batch route
    plan: Dict[str, int] = field(default_factory=dict)
    #: trace-ingest sizes (events, ops, locals, matches, ...) plus, for
    #: text traces, ``text_lines``: lines decoded per ``kind/route``
    #: (``mem/bulk``, ``call/codec``, ...); for binary traces,
    #: ``call_rows``: call rows read per route (``columnar``, ``codec``);
    #: for streaming runs, ``peak_buffered_mems``: most load/store events
    #: held at once
    ingest: Dict[str, Any] = field(default_factory=dict)
    #: the op plane (empty when the run built no op table — a fully warm
    #: incremental run): ``op_rows`` = calls read into the table per route
    #: (``columnar``: gathered from call columns, ``codec``: decoded
    #: events), ``ops`` / ``locals`` (call-derived local accesses) /
    #: ``intervals`` (byte-interval rows) = its sizes, ``survivors`` =
    #: ``{"joined": pairs out of the joins Table I applies to, "passed":
    #: those its lookup let through}``, ``views`` = analysis objects
    #: built per kind (``op``, ``local``, ``event``, ``epoch``,
    #: ``region``) — all zero on a clean trace
    model: Dict[str, Any] = field(default_factory=dict)
    #: trace-generation stats (wall seconds, events/s, ``emitted`` events
    #: by kind — ``call``, ``mem`` — and the simulator's ``scheduler``
    #: totals: thread handoffs, wake-ups elided, token grants, the rank
    #: threads' OS context switches) — present when the run shared an obs
    #: session with ``profile_run``
    emission: Dict[str, Any] = field(default_factory=dict)
    #: control-phase ingest: ``calls_ingested`` and ``calls_per_second``
    #: over the preprocess+matching+clocks+epochs group
    control_plane: Dict[str, Any] = field(default_factory=dict)
    peak_rss_bytes: int = 0
    #: findings summary: counts plus per-finding detail w/ provenance
    findings: Dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def summary_line(self) -> str:
        f = self.findings
        return (f"{self.run_id}  {self.created}  "
                f"{(self.app or '-'):12s}  "
                f"{self.elapsed_seconds:8.3f}s  "
                f"{f.get('errors', 0)}E/{f.get('warnings', 0)}W")


def _peak_rss_bytes() -> int:
    try:
        import resource
    except ImportError:              # non-POSIX platform
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return int(rss) * (1 if sys.platform == "darwin" else 1024)


def _phase_cpu(recorder) -> Dict[str, float]:
    """Per-phase CPU seconds from the ``analyzer.<phase>`` spans."""
    cpu: Dict[str, float] = {}
    for record in recorder.spans.records():
        if not record.name.startswith("analyzer."):
            continue
        phase = record.name[len("analyzer."):]
        if "." in phase or phase == "run":
            continue
        cpu[phase] = cpu.get(phase, 0.0) + record.cpu
    return cpu


def _funnel(recorder) -> Dict[str, float]:
    metric = recorder.registry.get("engine_candidate_pairs_total")
    if metric is None:
        return {}
    return {f"{labels.get('phase', '?')}/{labels.get('stage', '?')}": value
            for labels, value in metric.samples()}


def _join_calls(recorder) -> Dict[str, float]:
    metric = recorder.registry.get("engine_join_calls_total")
    if metric is None:
        return {}
    return {labels.get("phase", "?"): value
            for labels, value in metric.samples()}


def _cache_attribution(recorder) -> Dict[str, Any]:
    shards = recorder.registry.get("incremental_cache_shards_total")
    if shards is None:
        return {}
    out: Dict[str, Any] = {
        "shards": {labels.get("outcome", "?"): value
                   for labels, value in shards.samples()},
    }
    regions = recorder.registry.get("incremental_regions_total")
    if regions is not None:
        out["regions"] = {labels.get("state", "?"): value
                          for labels, value in regions.samples()}
    loaded = recorder.registry.get("incremental_ranks_loaded")
    if loaded is not None:
        value = loaded.value()
        if value is not None:
            out["ranks_loaded"] = value
    for name in CACHE_WORK:
        work = recorder.registry.get(f"incremental_{name}_total")
        if work is not None:
            out[name] = work.total
    per_shard = recorder.registry.get("incremental_shard_regions")
    if per_shard is not None:
        out["per_shard"] = [
            {"shard": int(labels.get("shard", -1)),
             "outcome": labels.get("outcome", "?"),
             "regions": value}
            for labels, value in per_shard.samples()]
        out["per_shard"].sort(key=lambda entry: entry["shard"])
    return out


def _worker_utilization(recorder) -> Dict[str, Any]:
    tasks = recorder.registry.get("parallel_tasks_total")
    by_pid: Dict[int, Dict[str, float]] = {}
    for record in recorder.spans.records():
        if not record.name.startswith(_WORKER_SPAN_PREFIX):
            continue
        entry = by_pid.setdefault(record.pid, {"spans": 0,
                                               "busy_seconds": 0.0,
                                               "cpu_seconds": 0.0})
        entry["spans"] += 1
        entry["busy_seconds"] += record.duration
        entry["cpu_seconds"] += record.cpu
    created = recorder.registry.get("parallel_pool_created_total")
    reused = recorder.registry.get("parallel_pool_reused_total")
    pickled = recorder.registry.get("parallel_pickled_bytes_total")
    shm = recorder.registry.get("parallel_shm_bytes_total")
    if tasks is None and not by_pid and created is None and reused is None:
        return {}
    out: Dict[str, Any] = {}
    if tasks is not None:
        out["tasks"] = {labels.get("phase", "?"): value
                        for labels, value in tasks.samples()}
    if by_pid:
        out["pids"] = {str(pid): entry
                       for pid, entry in sorted(by_pid.items())}
    if created is not None or reused is not None:
        out["pool"] = {
            "created": created.total if created is not None else 0,
            "reused": reused.total if reused is not None else 0}
    if pickled is not None:
        # phase -> kind -> bytes; the zero-copy evidence: mem-event
        # columns show up under shm_bytes, never under pickled task
        # payloads
        by_phase: Dict[str, Dict[str, float]] = {}
        for labels, value in pickled.samples():
            phase = labels.get("phase", "?")
            by_phase.setdefault(phase, {})[labels.get("kind", "?")] = value
        out["pickled_bytes"] = {phase: dict(sorted(kinds.items()))
                                for phase, kinds in sorted(by_phase.items())}
    if shm is not None:
        out["shm_bytes"] = {labels.get("phase", "?"): value
                            for labels, value in shm.samples()}
    return out


def _plan(recorder) -> Dict[str, int]:
    out = {}
    for key in ("shards", "largest_shard_rows", "releases"):
        gauge = recorder.registry.get(f"analyzer_plan_{key}")
        if gauge is not None and gauge.value() is not None:
            out[key] = int(gauge.value())
    return out


def _emission(recorder) -> Dict[str, Any]:
    """Trace-generation stats published by the last ``profile_run``.

    Empty unless the profiler ran under the same obs session as the
    check (the ``run-check`` path) — analysis-only runs never saw the
    events being produced.
    """
    seconds = recorder.registry.get("profiler_emission_seconds")
    emitted = recorder.registry.get("profiler_emitted_events_total")
    if seconds is None and emitted is None:
        return {}
    out: Dict[str, Any] = {}
    if seconds is not None:
        value = seconds.value()
        if value is not None:
            out["seconds"] = value
    rate = recorder.registry.get("profiler_events_per_second")
    if rate is not None:
        value = rate.value()
        if value is not None:
            out["events_per_second"] = value
    if emitted is not None:
        out["emitted"] = dict(sorted(
            (labels.get("kind", "?"), int(value))
            for labels, value in emitted.samples()))
    scheduler = {}
    for key, metric in (("handoffs", "simmpi_context_switches"),
                        ("wakeups_elided", "simmpi_wakeups_elided"),
                        ("token_grants", "simmpi_token_grants"),
                        ("os_context_switches",
                         "simmpi_os_context_switches")):
        gauge = recorder.registry.get(metric)
        if gauge is not None and gauge.value() is not None:
            scheduler[key] = int(gauge.value())
    if scheduler:
        out["scheduler"] = scheduler
    return out


def _text_lines(recorder) -> Dict[str, int]:
    """Text trace lines decoded, keyed ``kind/route``: ``bulk`` is the
    block decoder, ``codec`` the per-line record codec a section falls
    back to when a line is not in the writer's canonical layout."""
    lines = recorder.registry.get("trace_text_lines_total")
    if lines is None:
        return {}
    return dict(sorted(
        (f"{labels.get('kind', '?')}/{labels.get('path', '?')}", int(value))
        for labels, value in lines.samples()))


def _call_rows(recorder) -> Dict[str, int]:
    """Binary trace call rows read, keyed by route: ``columnar`` rows
    were mapped from ``K`` frames, ``codec`` rows decoded one by one
    from ``C`` records (every call of a v2 file; in a v3 or v4 file, a call
    that did not fit the columns)."""
    rows = recorder.registry.get("trace_call_rows_total")
    if rows is None:
        return {}
    return {labels.get("route", "?"): int(value)
            for labels, value in sorted(
                rows.samples(), key=lambda s: s[0].get("route", "?"))}


#: ``analyzer_views_built_total`` kinds, in the order they are rendered
VIEW_KINDS = ("op", "local", "event", "epoch", "region")

#: funnel stages whose pairs go through the Table-I lookup
_TABLE_STAGES = ("intra/op_pair", "inter/op_pair", "inter/local_vs_op")


def _model(recorder, funnel: Dict[str, float]) -> Dict[str, Any]:
    """The op-plane record (see :attr:`RunReport.model`), from the
    counters the table publishes when it is built and the engine's
    funnel."""
    rows = recorder.registry.get("analyzer_op_rows_total")
    if rows is None:
        return {}
    sizes = recorder.registry.get("analyzer_op_table_rows")
    views = recorder.registry.get("analyzer_views_built_total")
    built = dict.fromkeys(VIEW_KINDS, 0)
    if views is not None:
        built.update((labels.get("kind", "?"), int(value))
                     for labels, value in views.samples())
    size = {labels.get("kind", "?"): int(value)
            for labels, value in sizes.samples()} if sizes else {}
    return {
        "op_rows": {labels.get("route", "?"): int(value)
                    for labels, value in sorted(
                        rows.samples(), key=lambda s: s[0].get("route", "?"))},
        "ops": size.get("op", 0), "locals": size.get("local", 0),
        "intervals": size.get("interval", 0),
        "survivors": {
            "joined": int(sum(funnel.get(stage, 0)
                              for stage in _TABLE_STAGES)),
            "passed": int(sum(n for stage, n in funnel.items()
                              if stage.endswith("/table_filter")))},
        "views": built,
    }


def _control_plane(recorder) -> Dict[str, Any]:
    """Control-phase ingest stats, ``{"calls_ingested": n,
    "calls_per_second": r}``, from the counters the checker publishes
    after the preprocess+matching+clocks+epochs group."""
    ingested = recorder.registry.get("control_calls_ingested_total")
    if ingested is None:
        return {}
    out: Dict[str, Any] = {
        "calls_ingested": int(sum(v for _l, v in ingested.samples()))}
    rate = recorder.registry.get("control_calls_per_second")
    if rate is not None and rate.value() is not None:
        out["calls_per_second"] = rate.value()
    return out


def _findings_summary(report) -> Dict[str, Any]:
    details: List[dict] = []
    for finding in report.findings:
        entry = finding.to_dict()
        if finding.context:
            entry["context"] = dict(finding.context)
        details.append(entry)
    return {"errors": len(report.errors),
            "warnings": len(report.warnings),
            "details": details}


def build_run_report(report, config, *, traces=None, recorder=None,
                     command: str = "", app: str = "",
                     elapsed: float = 0.0) -> RunReport:
    """Distill one finished :class:`CheckReport` into a RunReport.

    ``recorder`` defaults to the active ``repro.obs`` recorder; on a
    disabled recorder the span- and metric-derived sections come out
    empty but the report stays well-formed (timings come from
    ``CheckStats``, which is populated unconditionally).
    """
    from repro import obs

    rec = recorder if recorder is not None else obs.get_recorder()
    stats = report.stats

    config_dict = {
        "memory_model": config.memory_model,
        "jobs": config.jobs, "streaming": config.streaming,
        "cache_dir": config.cache_dir, "incremental": config.incremental,
    }
    config_digest = stable_hash(config_dict)

    trace_digests: Dict[str, str] = {}
    trace_dir = ""
    if traces is not None:
        trace_dir = str(getattr(traces, "directory", ""))
        for rank in range(traces.nranks):
            with traces.reader(rank) as reader:
                trace_digests[str(rank)] = reader.content_digest()

    cpu = _phase_cpu(rec)
    phases = {
        phase: {"wall": seconds, "cpu": cpu.get(phase, 0.0)}
        for phase, seconds in stats.phase_seconds.items()
    }

    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    run_id = stable_hash({
        "created": created, "pid": os.getpid(),
        "monotonic_ns": time.monotonic_ns(),
        "config": config_digest, "traces": trace_digests,
    })[:12]

    ingest = {
        "nranks": stats.nranks, "events": stats.events,
        "rma_ops": stats.rma_ops,
        "local_accesses": stats.local_accesses,
        "sync_matches": stats.sync_matches,
        "regions": stats.regions, "epochs": stats.epochs,
    }
    text_lines = _text_lines(rec)
    if text_lines:
        ingest["text_lines"] = text_lines
    call_rows = _call_rows(rec)
    if call_rows:
        ingest["call_rows"] = call_rows
    peak = rec.registry.get("analyzer_peak_buffered_mems")
    if peak is not None:
        ingest["peak_buffered_mems"] = int(peak.value())

    funnel = _funnel(rec)
    return RunReport(
        run_id=run_id, created=created, command=command, app=app,
        config=config_dict, config_digest=config_digest,
        trace_dir=trace_dir, trace_digests=trace_digests,
        elapsed_seconds=(elapsed or stats.total_seconds),
        phases=phases, funnel=funnel, join_calls=_join_calls(rec),
        cache=_cache_attribution(rec),
        workers=_worker_utilization(rec), plan=_plan(rec),
        ingest=ingest, model=_model(rec, funnel), emission=_emission(rec),
        control_plane=_control_plane(rec),
        peak_rss_bytes=_peak_rss_bytes(),
        findings=_findings_summary(report))
