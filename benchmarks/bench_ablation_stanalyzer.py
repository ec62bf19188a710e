"""E6 — ablation: ST-Analyzer-selected vs full instrumentation.

Section VII-B argues the low overhead "is the benefit from static
analysis.  Without static analysis, MC-Checker may cause hundreds of times
more overhead because it needs to instrument all memory load/store
accesses."  Reproduced here on LU: the local matrix block ``a`` dominates
memory traffic but never appears in an RMA call, so ST-Analyzer excludes
it; ``scope='all'`` instruments it anyway.
"""

import inspect

import pytest

from benchmarks.conftest import best_times
from repro.apps import lu as lu_module
from repro.apps.lu import lu
from repro.profiler.session import baseline_run, profile_run
from repro.stanalyzer import analyze_app, analyze_source


def test_stanalyzer_report_contents(record, benchmark):
    # the analysis itself, not the memo's hit: analyze_app(lu) is
    # served from the memo from its second call on
    source = inspect.getsource(lu_module)
    report = benchmark(lambda: analyze_source.__wrapped__(
        source, filename=lu_module.__file__))
    assert report == analyze_app(lu)
    record("ablation_stanalyzer",
           f"ST-Analyzer selected buffers: {sorted(report.buffer_names)} "
           f"(excluded: the local block 'a')")
    assert "a" not in report.buffer_names


def test_instrumentation_scope(record, scale, benchmark, one_cpu):
    nranks = min(scale["fig8_ranks"], 8)
    params = dict(n=scale["lu_n"])
    # the static analysis is compile-time work in the paper: both scopes
    # are timed without it, so their difference is instrumentation alone
    report = analyze_app(lu)

    def profiled(scope):
        return profile_run(lu, nranks, params=params, scope=scope,
                           report=report if scope == "report" else None,
                           delivery="eager")

    benchmark.pedantic(lambda: profiled("all"), rounds=2, iterations=1)
    native, *by_scope = best_times([
        lambda: baseline_run(lu, nranks, params=params, delivery="eager"),
        lambda: profiled("report"), lambda: profiled("all")])
    overheads = []
    for scope, prof in zip(("report", "all"), by_scope):
        counts = profiled(scope).traces.event_counts()
        overheads.append(100 * (prof / native - 1))
        record("ablation_stanalyzer",
               f"scope={scope:7s} ranks={nranks} native={native:6.3f}s "
               f"profiled={prof:6.3f}s overhead={overheads[-1]:6.1f}% "
               f"mem-events={counts['mem']}",
               scope=scope, ranks=nranks, native_s=native, profiled_s=prof,
               overhead_pct=overheads[-1], mem_events=counts["mem"])
    assert overheads[1] > overheads[0]   # scope=all costs more


def test_scope_all_writes_many_more_events(record, scale, benchmark):
    nranks = 4
    params = dict(n=scale["lu_n"])
    selective = profile_run(lu, nranks, params=params, scope="report",
                            delivery="eager")
    everything = benchmark.pedantic(
        lambda: profile_run(lu, nranks, params=params, scope="all",
                            delivery="eager"),
        rounds=1, iterations=1)
    sel = selective.traces.event_counts()["mem"]
    full = everything.traces.event_counts()["mem"]
    record("ablation_stanalyzer",
           f"mem events: selective={sel} full={full} "
           f"ratio={full / max(sel, 1):.1f}x")
    assert full > 2 * sel
