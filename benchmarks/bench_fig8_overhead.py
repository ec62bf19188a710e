"""E3 — Figure 8: Profiler runtime overhead on five applications.

For each workload (GA Lennard-Jones, GA SCF, GA Boltzmann, SKaMPI, NAS
LU), run natively and under the Profiler (ST-Analyzer-selected
instrumentation, the paper's configuration) and record the normalized
execution time.  The paper reports 24.6%-71.1% overhead (average 45.2%)
at 64 ranks on real hardware; the reproduced artifact is the *shape*:
moderate constant-factor overhead, far from the "hundreds of times" of
full instrumentation (see the E6 ablation).
"""

import pytest

from benchmarks.conftest import best_times
from repro.apps.boltzmann import boltzmann
from repro.apps.lennard_jones import lennard_jones
from repro.apps.lu import lu
from repro.apps.scf import scf
from repro.apps.skampi import skampi
from repro.profiler.session import baseline_run, profile_run
from repro.stanalyzer import analyze_app

_OVERHEADS = []


def workloads(scale):
    n = scale["fig8_ranks"]
    return [
        ("Lennard-Jones", lennard_jones,
         dict(particles_per_rank=10, steps=2), n),
        ("SCF", scf, dict(basis_per_rank=8, iterations=3), n),
        ("Boltzmann", boltzmann, dict(cells_per_rank=1024, steps=20), n),
        ("SKaMPI", skampi, dict(sizes=(8, 64), repeats=2), n),
        ("LU", lu, dict(n=scale["lu_n"]), n),
    ]


@pytest.mark.parametrize("index", range(5),
                         ids=["lj", "scf", "boltzmann", "skampi", "lu"])
def test_fig8_overhead(index, record, scale, benchmark, one_cpu):
    name, app, params, nranks = workloads(scale)[index]
    reps = scale["reps"]
    # ST-Analyzer runs at compile time in the paper; Figure 8 is the
    # Profiler's runtime overhead, so the report is made beforehand
    report = analyze_app(app)

    def native():
        return baseline_run(app, nranks, params=params, delivery="eager")

    def profiled():
        return profile_run(app, nranks, params=params, scope="report",
                           report=report, delivery="eager")

    run = benchmark.pedantic(profiled, rounds=max(reps, 2), iterations=1)
    native, prof = best_times([native, profiled])
    counts = run.traces.event_counts()

    normalized = prof / native
    overhead_pct = 100.0 * (normalized - 1.0)
    _OVERHEADS.append(overhead_pct)
    record("fig8_overhead",
           f"{name:15s} ranks={nranks:<3d} native={native:7.3f}s "
           f"profiled={prof:7.3f}s normalized={normalized:5.2f}x "
           f"overhead={overhead_pct:6.1f}% "
           f"events(call={counts['call']}, mem={counts['mem']})",
           app=name, ranks=nranks, native_s=native, profiled_s=prof,
           normalized=normalized, overhead_pct=overhead_pct,
           call_events=counts["call"], mem_events=counts["mem"])
    assert normalized >= 0.8  # profiling must not speed things up


def test_fig8_average(record, benchmark):
    assert _OVERHEADS, "per-app measurements must run first"
    avg = benchmark(lambda: sum(_OVERHEADS) / len(_OVERHEADS))
    record("fig8_overhead",
           f"{'AVERAGE':15s} overhead={avg:6.1f}%  "
           f"(paper: 24.6%-71.1%, average 45.2%)",
           average_overhead_pct=avg)
