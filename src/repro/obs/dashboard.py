"""Render ledger entries: terminal text and self-contained HTML.

The HTML dashboard is a single file with inline CSS and no JavaScript —
``repro report --last --html out.html`` produces something that opens
anywhere (CI artifact viewers included).  Panels: phase timeline,
engine candidate-pair funnel, incremental cache hit-rate with per-shard
heat strip, worker utilization, and the findings with their provenance.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List

from repro.obs.report import CACHE_WORK, VIEW_KINDS, RunReport

# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"


def _text_lines(ingest: dict) -> str:
    """``mem/bulk=32,895, call/bulk=14,208``: text trace lines by
    ``kind/route``; a non-zero ``codec`` count means some of the trace
    fell off the block decoder onto the per-line record codec."""
    return ", ".join(f"{key}={int(n):,}" for key, n in
                     sorted(ingest.get("text_lines", {}).items()))


def _call_rows(ingest: dict) -> str:
    """``codec=0, columnar=14,208``: binary trace call rows by route; a
    non-zero ``codec`` count means calls that were framed as text
    records (values the call columns cannot hold)."""
    return ", ".join(f"{key}={int(n):,}" for key, n in
                     sorted(ingest.get("call_rows", {}).items()))


def _model_line(model: dict) -> str:
    """The op plane in one line: what was lifted as rows, what the
    joins and Table I left, and how few objects it took."""
    survivors, views = model.get("survivors", {}), model.get("views", {})
    routes = ", ".join(f"{key}={int(n):,}" for key, n in
                       sorted(model.get("op_rows", {}).items()))
    return (f"{model.get('ops', 0):,} op(s) + {model.get('locals', 0):,} "
            f"call-derived local(s) as rows ({routes}), "
            f"{model.get('intervals', 0):,} interval row(s); survivors "
            f"{survivors.get('joined', 0):,} joined -> "
            f"{survivors.get('passed', 0):,} past Table I; views built: "
            + ", ".join(f"{kind}={int(views.get(kind, 0)):,}"
                        for kind in VIEW_KINDS))


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _plan_line(plan: dict) -> str:
    return (f"{plan.get('shards', 0):,} shard(s), largest "
            f"{plan.get('largest_shard_rows', 0):,} row(s), run in "
            f"{plan.get('releases', 0):,} piece(s)")


def render_run_text(entry: RunReport) -> str:
    lines = [
        f"run {entry.run_id}  ({entry.created})",
        f"  app:     {entry.app or '-'}",
        f"  command: {entry.command or '-'}",
        f"  config:  {entry.config_digest[:12]}  "
        f"jobs={entry.config.get('jobs')} "
        f"streaming={entry.config.get('streaming')} "
        f"incremental={entry.config.get('incremental')}",
        f"  traces:  {len(entry.trace_digests)} rank(s) in "
        f"{entry.trace_dir or '-'}",
        f"  elapsed: {entry.elapsed_seconds:.3f}s   "
        f"peak rss: {_fmt_bytes(entry.peak_rss_bytes)}",
    ]
    if entry.phases:
        lines.append("  phases:")
        longest = max(t.get("wall", 0.0) for t in entry.phases.values()) or 1.0
        for phase, timing in entry.phases.items():
            wall = timing.get("wall", 0.0)
            lines.append(f"    {phase:<12} {wall:8.4f}s "
                         f"(cpu {timing.get('cpu', 0.0):.4f}s) "
                         f"|{_bar(wall / longest, 24)}|")
    if entry.funnel:
        lines.append("  candidate-pair funnel:")
        for stage, count in sorted(entry.funnel.items()):
            lines.append(f"    {stage:<22} {int(count):>10}")
    if entry.join_calls:
        lines.append("  interval joins: " + ", ".join(
            f"{phase}={int(n)}"
            for phase, n in sorted(entry.join_calls.items())))
    if entry.cache:
        shards = entry.cache.get("shards", {})
        total = sum(shards.values())
        hits = shards.get("hit", 0)
        rate = (hits / total * 100.0) if total else 0.0
        lines.append(f"  cache: {int(hits)}/{int(total)} shard(s) hit "
                     f"({rate:.0f}%)  outcomes: "
                     + ", ".join(f"{k}={int(v)}"
                                 for k, v in sorted(shards.items())))
        if "calls_lifted" in entry.cache:
            lines.append("    work: " + ", ".join(
                f"{name.replace('_', ' ')}={int(entry.cache.get(name, 0))}"
                for name in CACHE_WORK))
    if entry.workers:
        tasks = entry.workers.get("tasks", {})
        pids = entry.workers.get("pids", {})
        lines.append(f"  workers: {len(pids)} pid(s), "
                     f"{int(sum(tasks.values()))} task(s)")
        pool = entry.workers.get("pool")
        if pool:
            lines.append(f"    pool: {int(pool.get('created', 0))} "
                         f"created, {int(pool.get('reused', 0))} reused")
        pickled = entry.workers.get("pickled_bytes", {})
        if pickled:
            total = sum(v for kinds in pickled.values()
                        for v in kinds.values())
            shm = entry.workers.get("shm_bytes", {})
            lines.append(f"    bytes: {_fmt_bytes(int(total))} pickled, "
                         f"{_fmt_bytes(int(sum(shm.values())))} via "
                         "shared memory")
        for pid, usage in pids.items():
            lines.append(f"    pid {pid}: {usage.get('spans', 0)} span(s), "
                         f"busy {usage.get('busy_seconds', 0.0):.4f}s")
    ingest = entry.ingest
    if ingest:
        lines.append(f"  ingest: {ingest.get('events', 0)} events, "
                     f"{ingest.get('rma_ops', 0)} RMA ops, "
                     f"{ingest.get('local_accesses', 0)} local accesses, "
                     f"{ingest.get('regions', 0)} regions")
        if ingest.get("text_lines"):
            lines.append(f"    text lines: {_text_lines(ingest)}")
        if ingest.get("call_rows"):
            lines.append(f"    call rows: {_call_rows(ingest)}")
        if "peak_buffered_mems" in ingest:
            lines.append("    peak buffered load/store events: "
                         f"{ingest['peak_buffered_mems']:,}")
    if getattr(entry, "model", None):
        lines.append(f"  op plane: {_model_line(entry.model)}")
    if entry.plan:
        lines.append(f"  shard plan: {_plan_line(entry.plan)}")
    for row in _control_rows(entry):
        rate = row.get("calls_per_second")
        rate_s = (f", {rate:,.0f} calls/s over the control group"
                  if rate is not None else "")
        lines.append(f"  control phases: "
                     f"{row.get('calls_ingested', 0):,} call(s) "
                     f"ingested{rate_s}")
    emission = getattr(entry, "emission", None) or {}
    if emission:
        lines.append(
            f"  emission: {emission.get('seconds', 0.0):.3f}s generation "
            f"wall, {emission.get('events_per_second', 0.0):,.0f} events/s")
        emitted = emission.get("emitted", {})
        if emitted:
            lines.append("    emitted: " + ", ".join(
                f"{kind}={int(count)}"
                for kind, count in sorted(emitted.items())))
        if emission.get("scheduler"):
            lines.append(f"    scheduler: {_scheduler(emission)}")
    findings = entry.findings
    lines.append(f"  findings: {findings.get('errors', 0)} error(s), "
                 f"{findings.get('warnings', 0)} warning(s)")
    for detail in findings.get("details", []):
        a, b = detail.get("a", {}), detail.get("b", {})
        lines.append(f"    [{detail.get('severity', '?')}] "
                     f"{detail.get('kind', '?')}/{detail.get('rule', '?')} "
                     f"rank{a.get('rank', '?')} vs rank{b.get('rank', '?')} "
                     f"on '{a.get('var', '?')}'")
        prov = detail.get("provenance") or {}
        if prov:
            lines.append(f"      provenance: {_prov_line(prov)}")
    return "\n".join(lines)


def _prov_line(prov: Dict[str, Any]) -> str:
    parts = [f"{prov.get('phase', '?')}/{prov.get('pattern', '?')}"]
    spans = prov.get("spans") or {}
    if spans:
        refs = []
        for key in sorted(spans):
            ref = spans[key]
            refs.append(f"rank{ref[0]}[{ref[1]},{ref[2]}]")
        parts.append(" vs ".join(refs))
    hb = prov.get("hb") or {}
    if hb.get("edge"):
        parts.append(f"hb={hb['edge']}")
    return "; ".join(parts)


def render_history_text(entries: List[RunReport]) -> str:
    if not entries:
        return "ledger is empty"
    header = (f"{'RUN':<12}  {'CREATED':<20}  {'APP':<12}  "
              f"{'ELAPSED':>9}  FINDINGS")
    lines = [header, "-" * len(header)]
    for entry in entries:
        lines.append(entry.summary_line())
    return "\n".join(lines)


def render_compare_text(comparison: Dict[str, Any]) -> str:
    lines = [
        f"compare {comparison['current']} vs baseline "
        f"{comparison['baseline']} "
        f"(tolerance {comparison['tolerance'] * 100:.0f}%)",
    ]
    if not comparison.get("same_config", True):
        lines.append("  note: configs differ — timings measure "
                     "different work")
    if not comparison.get("same_traces", True):
        lines.append("  note: trace digests differ")
    for delta in comparison["deltas"]:
        marker = "!!" if delta["status"] == "regression" else "ok"
        ratio = delta["ratio"]
        ratio_s = f"{ratio:6.2f}x" if ratio != float("inf") else "   inf"
        lines.append(f"  [{marker}] {delta['metric']:<22} "
                     f"{delta['current']:12.4f} vs {delta['baseline']:12.4f} "
                     f"({ratio_s})")
    lines.append("result: " + ("OK" if comparison["ok"] else
                               "REGRESSION in " +
                               ", ".join(comparison["regressions"])))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML dashboard (self-contained: inline CSS, SVG bars, no JS)
# ----------------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a2330; padding: 0 1rem; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.8rem;
     border-bottom: 1px solid #d8dee6; padding-bottom: .2rem; }
table { border-collapse: collapse; width: 100%; }
td, th { text-align: left; padding: .2rem .6rem .2rem 0;
         vertical-align: top; }
th { color: #5a6472; font-weight: 600; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.meta { color: #5a6472; }
.bar { fill: #4878b0; } .bar.hit { fill: #3d8a4f; }
.bar.miss { fill: #c0583a; } .bar.computed { fill: #c0583a; }
.bar.invalidated { fill: #d8a23a; } .bar.corrupt { fill: #8a3d6e; }
.finding { border-left: 3px solid #c0583a; padding: .4rem .8rem;
           margin: .8rem 0; background: #f7f3f1; }
.finding.warning { border-color: #d8a23a; }
.prov { font-family: ui-monospace, monospace; font-size: .85em;
        color: #5a6472; }
code { font-family: ui-monospace, monospace; font-size: .9em; }
""".strip()


def _svg_bar(fraction: float, cls: str = "bar", width: int = 260,
             height: int = 12) -> str:
    w = max(0.0, min(1.0, fraction)) * width
    return (f'<svg width="{width}" height="{height}">'
            f'<rect width="{width}" height="{height}" fill="#eceff3"/>'
            f'<rect class="{cls}" width="{w:.1f}" height="{height}"/>'
            f'</svg>')


def _phase_timeline(entry: RunReport) -> str:
    if not entry.phases:
        return "<p class=meta>no phase timings recorded</p>"
    longest = max(t.get("wall", 0.0) for t in entry.phases.values()) or 1.0
    rows = []
    for phase, timing in entry.phases.items():
        wall = timing.get("wall", 0.0)
        rows.append(
            f"<tr><td>{html.escape(phase)}</td>"
            f"<td class=num>{wall:.4f}s</td>"
            f"<td class=num>{timing.get('cpu', 0.0):.4f}s</td>"
            f"<td>{_svg_bar(wall / longest)}</td></tr>")
    return ("<table><tr><th>phase</th><th class=num>wall</th>"
            "<th class=num>cpu</th><th></th></tr>" + "".join(rows)
            + "</table>")


def _funnel_panel(entry: RunReport) -> str:
    joins = ""
    if entry.join_calls:
        joins = ("<p class=meta>interval joins: " + ", ".join(
            f"<code>{html.escape(phase)}</code> {int(n)}"
            for phase, n in sorted(entry.join_calls.items())) + "</p>")
    if not entry.funnel:
        return joins + \
            "<p class=meta>no candidate-pair counters recorded</p>"
    top = max(entry.funnel.values()) or 1.0
    rows = []
    for stage, count in sorted(entry.funnel.items()):
        rows.append(
            f"<tr><td><code>{html.escape(stage)}</code></td>"
            f"<td class=num>{int(count)}</td>"
            f"<td>{_svg_bar(count / top)}</td></tr>")
    return (joins + "<table><tr><th>stage</th><th class=num>pairs</th>"
            "<th></th></tr>" + "".join(rows) + "</table>")


def _cache_panel(entry: RunReport) -> str:
    cache = entry.cache
    if not cache:
        return "<p class=meta>not an incremental run</p>"
    shards = cache.get("shards", {})
    total = sum(shards.values())
    hits = shards.get("hit", 0)
    rate = (hits / total * 100.0) if total else 0.0
    parts = [f"<p>shard hit-rate: <strong>{rate:.0f}%</strong> "
             f"({int(hits)}/{int(total)})</p>"]
    parts.append("<table><tr><th>outcome</th><th class=num>shards</th>"
                 "<th></th></tr>")
    for outcome, count in sorted(shards.items()):
        cls = "bar hit" if outcome == "hit" else f"bar {outcome}"
        parts.append(f"<tr><td>{html.escape(outcome)}</td>"
                     f"<td class=num>{int(count)}</td>"
                     f"<td>{_svg_bar(count / (total or 1), cls)}</td></tr>")
    parts.append("</table>")
    if "calls_lifted" in cache:
        parts.append("<p>work beyond the control pass: " + ", ".join(
            f"{name.replace('_', ' ')} <strong>{int(cache.get(name, 0))}"
            "</strong>" for name in CACHE_WORK) + "</p>")
    per_shard = cache.get("per_shard") or []
    if per_shard:
        # heat strip: one cell per shard, colored by cache outcome
        cells = []
        for shard in per_shard:
            outcome = shard.get("outcome", "?")
            cls = "bar hit" if outcome == "hit" else f"bar {outcome}"
            title = (f"shard {shard.get('shard')}: {outcome}, "
                     f"{int(shard.get('regions', 0))} region(s)")
            cells.append(
                f'<svg width="18" height="18"><title>{html.escape(title)}'
                f'</title><rect class="{cls}" width="16" height="16" '
                f'x="1" y="1"/></svg>')
        parts.append("<p>per-shard heat (hover for detail):<br>"
                     + "".join(cells) + "</p>")
    return "".join(parts)


def _workers_panel(entry: RunReport) -> str:
    workers = entry.workers
    if not workers:
        return "<p class=meta>serial run — no worker pool</p>"
    parts = []
    tasks = workers.get("tasks", {})
    if tasks:
        parts.append("<p>tasks by phase: " + ", ".join(
            f"<code>{html.escape(k)}</code>={int(v)}"
            for k, v in sorted(tasks.items())) + "</p>")
    pool = workers.get("pool")
    if pool:
        parts.append(f"<p>pool: {int(pool.get('created', 0))} created, "
                     f"{int(pool.get('reused', 0))} reused</p>")
    pickled = workers.get("pickled_bytes", {})
    if pickled:
        shm = workers.get("shm_bytes", {})
        rows = []
        for phase, kinds in sorted(pickled.items()):
            rows.append(
                f"<tr><td>{html.escape(phase)}</td>"
                + "".join(f"<td class=num>"
                          f"{_fmt_bytes(int(kinds.get(kind, 0)))}</td>"
                          for kind in ("install", "task", "result"))
                + f"<td class=num>"
                  f"{_fmt_bytes(int(shm.get(phase, 0)))}</td></tr>")
        parts.append(
            "<p>bytes across the pipe (the zero-copy evidence: row "
            "columns travel via shared memory, not pickles):</p>"
            "<table><tr><th>phase</th><th class=num>install</th>"
            "<th class=num>task</th><th class=num>result</th>"
            "<th class=num>shm</th></tr>" + "".join(rows) + "</table>")
    pids = workers.get("pids", {})
    if pids:
        busiest = max(u.get("busy_seconds", 0.0)
                      for u in pids.values()) or 1.0
        parts.append("<table><tr><th>pid</th><th class=num>spans</th>"
                     "<th class=num>busy</th><th></th></tr>")
        for pid, usage in pids.items():
            busy = usage.get("busy_seconds", 0.0)
            parts.append(f"<tr><td>{html.escape(str(pid))}</td>"
                         f"<td class=num>{usage.get('spans', 0)}</td>"
                         f"<td class=num>{busy:.4f}s</td>"
                         f"<td>{_svg_bar(busy / busiest)}</td></tr>")
        parts.append("</table>")
    return "".join(parts) or "<p class=meta>no worker spans recorded</p>"


def _scheduler(emission: Dict[str, Any]) -> str:
    """The simulator's token traffic: ``N handoffs, M wake-ups elided
    (of G grants)``, and what the handoffs cost the OS when counted."""
    sched = emission["scheduler"]
    line = (f"{sched.get('handoffs', 0):,} thread handoffs, "
            f"{sched.get('wakeups_elided', 0):,} wake-ups elided "
            f"(of {sched.get('token_grants', 0):,} token grants)")
    if "os_context_switches" in sched:
        line += f", {sched['os_context_switches']:,} OS context switches"
    return line


def _emission_panel(entry: RunReport) -> str:
    emission = getattr(entry, "emission", None) or {}
    if not emission:
        return ("<p class=meta>no generation stats — the trace was "
                "produced outside this obs session</p>")
    parts = [f"<p>generation wall: "
             f"<strong>{emission.get('seconds', 0.0):.3f}s</strong>, "
             f"throughput: <strong>"
             f"{emission.get('events_per_second', 0.0):,.0f}</strong> "
             f"events/s</p>"]
    if emission.get("scheduler"):
        parts.append(f"<p>scheduler: {html.escape(_scheduler(emission))}"
                     "</p>")
    emitted = emission.get("emitted", {})
    if emitted:
        top = max(emitted.values()) or 1.0
        parts.append("<table><tr><th>kind</th>"
                     "<th class=num>events</th><th></th></tr>")
        for key, count in sorted(emitted.items()):
            parts.append(f"<tr><td><code>{html.escape(key)}</code></td>"
                         f"<td class=num>{int(count)}</td>"
                         f"<td>{_svg_bar(count / top)}</td></tr>")
        parts.append("</table>")
    return "".join(parts)


def _control_rows(entry: RunReport) -> List[dict]:
    """The control-phase ingest stats as rows: one, except for ledger
    entries written while two control planes existed — those key a row
    per plane."""
    control = getattr(entry, "control_plane", None) or {}
    if "calls_ingested" in control:
        return [control]
    return [row for _plane, row in sorted(control.items())]


def _control_plane_panel(entry: RunReport) -> str:
    rows = _control_rows(entry)
    if not rows:
        return ("<p class=meta>no control-phase counters — the run "
                "predates them or obs was disabled</p>")
    cells = []
    for row in rows:
        rate = row.get("calls_per_second")
        cells.append(
            f"<tr><td class=num>{int(row.get('calls_ingested', 0)):,}</td>"
            f"<td class=num>"
            f"{f'{rate:,.0f}' if rate is not None else '-'}</td></tr>")
    return ("<p>call-stream ingest over the preprocess + matching + "
            "clocks + epochs group:</p>"
            "<table><tr><th class=num>calls</th>"
            "<th class=num>calls/s</th></tr>"
            + "".join(cells) + "</table>")


def _findings_panel(entry: RunReport) -> str:
    findings = entry.findings
    details = findings.get("details", [])
    parts = [f"<p><strong>{findings.get('errors', 0)}</strong> error(s), "
             f"<strong>{findings.get('warnings', 0)}</strong> "
             f"warning(s)</p>"]
    for detail in details:
        severity = detail.get("severity", "error")
        a, b = detail.get("a", {}), detail.get("b", {})
        parts.append(f'<div class="finding {html.escape(severity)}">')
        parts.append(
            f"<strong>[{html.escape(severity)}] "
            f"{html.escape(str(detail.get('kind', '?')))}/"
            f"{html.escape(str(detail.get('rule', '?')))}</strong> — "
            f"rank {html.escape(str(a.get('rank', '?')))} "
            f"{html.escape(str(a.get('kind', '?')))} vs "
            f"rank {html.escape(str(b.get('rank', '?')))} "
            f"{html.escape(str(b.get('kind', '?')))} on "
            f"<code>{html.escape(str(a.get('var', '?')))}</code>")
        note = detail.get("note")
        if note:
            parts.append(f"<br>{html.escape(str(note))}")
        prov = detail.get("provenance") or {}
        if prov:
            parts.append(f'<br><span class=prov>provenance: '
                         f"{html.escape(_prov_line(prov))}</span>")
            hb = prov.get("hb") or {}
            if hb.get("detail"):
                parts.append(f'<br><span class=prov>hb detail: '
                             f"{html.escape(str(hb['detail']))}</span>")
        context = detail.get("context") or {}
        if context:
            ctx = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
            parts.append(f'<br><span class=prov>run context: '
                         f"{html.escape(ctx)}</span>")
        parts.append("</div>")
    return "".join(parts)


def render_run_html(entry: RunReport) -> str:
    """One run as a self-contained HTML dashboard."""
    meta_rows = "".join(
        f"<tr><th>{html.escape(k)}</th><td>{html.escape(str(v))}</td></tr>"
        for k, v in (
            ("created", entry.created),
            ("app", entry.app or "-"),
            ("command", entry.command or "-"),
            ("config digest", entry.config_digest),
            ("jobs", entry.config.get("jobs")),
            ("streaming", entry.config.get("streaming")),
            ("incremental", entry.config.get("incremental")),
            ("trace dir", entry.trace_dir or "-"),
            ("ranks", len(entry.trace_digests)),
            ("elapsed", f"{entry.elapsed_seconds:.3f}s"),
            ("peak RSS", _fmt_bytes(entry.peak_rss_bytes)),
            ("events / RMA ops",
             f"{entry.ingest.get('events', 0)} / "
             f"{entry.ingest.get('rma_ops', 0)}"),
            ("text lines (kind/route)", _text_lines(entry.ingest) or "-"),
            ("call rows (route)", _call_rows(entry.ingest) or "-"),
            ("peak buffered load/store events",
             entry.ingest.get("peak_buffered_mems", "-")),
            ("op plane", _model_line(entry.model)
             if getattr(entry, "model", None) else "-"),
            ("shard plan", _plan_line(entry.plan)
             if entry.plan else "-"),
        ))
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>mc-checker run {html.escape(entry.run_id)}</title>
<style>{_CSS}</style></head><body>
<h1>mc-checker flight record <code>{html.escape(entry.run_id)}</code></h1>
<table>{meta_rows}</table>
<h2>Phase timeline</h2>{_phase_timeline(entry)}
<h2>Candidate-pair funnel</h2>{_funnel_panel(entry)}
<h2>Incremental cache</h2>{_cache_panel(entry)}
<h2>Worker pool</h2>{_workers_panel(entry)}
<h2>Control phases</h2>{_control_plane_panel(entry)}
<h2>Trace generation</h2>{_emission_panel(entry)}
<h2>Findings</h2>{_findings_panel(entry)}
</body></html>
"""
