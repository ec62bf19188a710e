"""E4 — Figure 9: Profiler scalability on the LU benchmark.

Strong-scaling sweep of the rank count at a fixed matrix size, measuring
the Profiler's relative overhead at each scale.  The paper observes the
overhead falling from 147.2% at 8 processes to 37.1% at 128: with the
work fixed, each rank executes fewer of the (instrumented) computation
events while its communication event count stays flat, so the profiling
tax shrinks.  The reproduced artifact is that monotone-decreasing shape.
"""

import pytest

from benchmarks.conftest import best_times
from repro.apps.lu import lu
from repro.profiler.session import baseline_run, profile_run
from repro.stanalyzer import analyze_app

_ROWS = []


def _sweep_points(scale):
    return list(scale["rank_sweep"])


def test_fig9_rank_sweep(record, scale, benchmark, one_cpu):
    n = scale["lu_n"]
    params = dict(n=n)
    report = analyze_app(lu)    # compile-time in the paper: not timed

    for nranks in _sweep_points(scale):
        native, prof = best_times([
            lambda: baseline_run(lu, nranks, params=params,
                                 delivery="eager"),
            lambda: profile_run(lu, nranks, params=params, scope="report",
                                report=report, delivery="eager")])
        overhead = 100.0 * (prof - native) / native
        _ROWS.append((nranks, overhead))
        record("fig9_scalability",
               f"ranks={nranks:<4d} native={native:7.3f}s "
               f"profiled={prof:7.3f}s overhead={overhead:6.1f}%",
               ranks=nranks, native_s=native, profiled_s=prof,
               overhead_pct=overhead)

    # the headline timing benchmark: profiled LU at the largest scale
    largest = _sweep_points(scale)[-1]
    benchmark.pedantic(
        lambda: profile_run(lu, largest, params=params, scope="report",
                            delivery="eager"),
        rounds=1, iterations=1)

    # shape assertion: overhead at the largest scale is well below the
    # smallest scale (the paper's 147% -> 37% trend)
    smallest_oh = _ROWS[0][1]
    largest_oh = _ROWS[-1][1]
    record("fig9_scalability",
           f"trend: {smallest_oh:.1f}% @ {_ROWS[0][0]} ranks -> "
           f"{largest_oh:.1f}% @ {_ROWS[-1][0]} ranks "
           "(paper: 147.2% @ 8 -> 37.1% @ 128)")
    assert largest_oh < smallest_oh
