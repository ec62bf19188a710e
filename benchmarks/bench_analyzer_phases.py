"""Supplementary — DN-Analyzer phase breakdown (section VI: the offline
analyzer ran on a workstation; this records where its time goes on a
representative trace and benchmarks the full pipeline).

Phases are reported in two groups:

* **control phases** — preprocess + matching + clocks + epochs (+ the
  noise-level regions pass): the call-stream side, run off the columnar
  :class:`~repro.core.calltable.CallTable`;
* **data phases** — model + intra + inter: the load/store side, run by
  the sweep engine."""

import pytest

from repro.apps.lu import lu
from repro.core.checker import CONTROL_PHASES, check_traces
from repro.profiler.session import profile_run

#: the data-plane phase group (regions is grouped with the control side:
#: it consumes sync matches, not memory events)
DATA_PHASES = ("model", "intra", "inter")


def split_phase_seconds(phase_seconds):
    """``(control_seconds, data_seconds)`` of one run's phase timings."""
    control = sum(phase_seconds.get(p, 0.0)
                  for p in CONTROL_PHASES + ("regions",))
    data = sum(phase_seconds.get(p, 0.0) for p in DATA_PHASES)
    return control, data


@pytest.fixture(scope="module")
def lu_traces(scale):
    run = profile_run(lu, min(8, scale["fig8_ranks"]),
                      params=dict(n=scale["lu_n"]), delivery="eager")
    return run.traces


def test_full_pipeline(lu_traces, record, benchmark):
    report = benchmark(lambda: check_traces(lu_traces))
    stats = report.stats
    record("analyzer_phases",
           f"events={stats.events} ops={stats.rma_ops} "
           f"locals={stats.local_accesses} matches={stats.sync_matches} "
           f"regions={stats.regions}")
    control, data = split_phase_seconds(stats.phase_seconds)
    record("analyzer_phases",
           f"control plane (preprocess+matching+clocks+epochs+regions): "
           f"{control * 1000:8.1f} ms "
           f"({100 * control / stats.total_seconds:4.1f}%)")
    record("analyzer_phases",
           f"data plane (model+intra+inter):                            "
           f"{data * 1000:8.1f} ms "
           f"({100 * data / stats.total_seconds:4.1f}%)")
    for phase, seconds in sorted(stats.phase_seconds.items(),
                                 key=lambda kv: -kv[1]):
        lane = ("data" if phase in DATA_PHASES else "control")
        record("analyzer_phases",
               f"  {phase:10s} {seconds * 1000:8.1f} ms "
               f"({100 * seconds / stats.total_seconds:4.1f}%) [{lane}]")
    # the two lanes partition the pipeline: nothing is double-counted
    # and nothing is dropped
    assert control + data == pytest.approx(stats.total_seconds)
    assert not report.findings  # LU is race-free
