"""Supplementary — streaming (online) analysis vs batch DN-Analyzer.

The paper's stated future work (section VII-B).  Measures the streaming
checker's throughput against the batch pipeline on the same traces and
records the memory bound it achieves (peak buffered load/store events vs
the trace total).
"""

import pytest

from repro.apps.lu import lu
from repro.core import engine
from repro.core.checker import check_traces
from repro.core.streaming import check_streaming
from repro.profiler.session import profile_run


@pytest.fixture(scope="module")
def lu_traces(scale):
    run = profile_run(lu, min(8, scale["fig8_ranks"]),
                      params=dict(n=scale["lu_n"]), delivery="eager")
    return run.traces


def test_batch_analysis(lu_traces, benchmark):
    report = benchmark(lambda: check_traces(lu_traces))
    assert not report.findings


def test_streaming_analysis(lu_traces, record, benchmark):
    findings, checker = benchmark(lambda: check_streaming(lu_traces))
    assert not findings
    total = lu_traces.event_counts()["mem"]
    largest = int(checker.plan.rows.max())
    record("streaming",
           f"regions={len(checker.regions)} shards={len(checker.plan)} "
           f"releases={checker.releases} total-loadstore={total} "
           f"largest-shard={largest} "
           f"peak-buffered={checker.peak_buffered_mems} "
           f"bound={100 * checker.peak_buffered_mems / total:.1f}% of trace")
    # a release holds at most max(BATCH_ROWS, largest shard) rows: a
    # trace below the budget is one release, a longer one never is
    assert checker.peak_buffered_mems <= max(engine.BATCH_ROWS, largest)
    assert checker.releases > 1 or total <= engine.BATCH_ROWS
