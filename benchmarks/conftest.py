"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's evaluation artifacts
(tables/figures; see DESIGN.md section 4).  Besides pytest-benchmark's
timing table, each writes the *paper-shaped* rows (normalized runtimes,
overhead percentages, event rates, detection outcomes) to
``benchmarks/results/<artifact>.txt`` and echoes them to stdout, so a
plain ``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation
section end to end.

Scale knobs: the paper ran 64-rank jobs on a 658-node cluster; the
simulated runs default to smaller rank counts/problem sizes that preserve
the curves' shape.  Set ``MCCHECKER_BENCH_SCALE=paper`` for the full-size
(slow) configuration.
"""

import json
import os
import time

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: scale presets: (figure8 ranks, figure9/10 rank sweep, LU matrix size)
SCALES = {
    "quick": {"fig8_ranks": 8, "rank_sweep": (2, 4, 8, 16), "lu_n": 48,
              "reps": 3},
    "paper": {"fig8_ranks": 64, "rank_sweep": (8, 16, 32, 64, 128),
              "lu_n": 160, "reps": 3},
}


def bench_scale():
    return SCALES[os.environ.get("MCCHECKER_BENCH_SCALE", "quick")]


class _Recorder:
    """Writes each artifact twice: human-readable ``.txt`` rows and a
    machine-readable ``.json`` document (``{"artifact", "scale",
    "rows": [...]}``) so the BENCH trajectory can be diffed across PRs.
    Callers may attach structured fields to a row
    (``record(artifact, text, native=0.12, overhead_pct=31.0)``)."""

    def __init__(self):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        self._started = set()
        self._rows = {}

    def path(self, artifact):
        return os.path.join(RESULTS_DIR, f"{artifact}.txt")

    def json_path(self, artifact):
        return os.path.join(RESULTS_DIR, f"{artifact}.json")

    def row(self, artifact, text, **fields):
        mode = "a" if artifact in self._started else "w"
        self._started.add(artifact)
        with open(self.path(artifact), mode, encoding="utf-8") as fh:
            fh.write(text + "\n")
        rows = self._rows.setdefault(artifact, [])
        entry = {"text": text}
        entry.update(fields)
        rows.append(entry)
        with open(self.json_path(artifact), "w", encoding="utf-8") as fh:
            json.dump({
                "artifact": artifact,
                "scale": os.environ.get("MCCHECKER_BENCH_SCALE", "quick"),
                "rows": rows,
            }, fh, indent=2)
            fh.write("\n")
        print(f"[{artifact}] {text}")


_RECORDER = _Recorder()


@pytest.fixture(scope="session")
def record():
    """record(artifact, row_text, **fields): persist one artifact row
    (text goes to ``results/<artifact>.txt``; text plus the structured
    fields to ``results/<artifact>.json``)."""
    return _RECORDER.row


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


#: rounds of :func:`best_times` in the overhead benchmarks (E3, E4, E6)
OVERHEAD_ROUNDS = 9


def best_times(fns, rounds=OVERHEAD_ROUNDS):
    """Best wall-clock of each of ``fns`` over ``rounds`` rounds, after
    one untimed pass, the functions taking turns within a round.

    What the overhead figures compare are runs of 10-300 ms whose
    difference is a few ms.  On a shared machine a median of three such
    runs moves by more than that difference between invocations, and
    measuring one arm after the other lets a slow minute of the host
    land on one of them: taking turns exposes every arm to the same
    minutes, and the minimum is the statistic that repeats."""
    for fn in fns:
        fn()
    times = [[] for _ in fns]
    for _ in range(rounds):
        for fn, seen in zip(fns, times):
            start = time.perf_counter()
            fn()
            seen.append(time.perf_counter() - start)
    return [min(seen) for seen in times]


@pytest.fixture
def one_cpu():
    """Pin the process to one CPU for the test.  Exactly one rank thread
    runs at a time; letting the kernel spread the threads over CPUs adds
    a migration to some token handoffs and not to others, which is the
    largest source of variance in a simulated run."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)

