"""E7 — ablation: window-vector (linear) vs combinatorial detection.

Section IV-C-4: examining each pair of operations in a concurrent region
"is combinatorial with respect to the total number of operations"; keying
recorded operations by (window, target) makes the scan effectively linear.
The sweep grows the number of ranks in an all-to-all Put pattern (every
rank Puts into every other rank's private slot), where the naive detector
enumerates all O((P^2)^2) op pairs while the window-vector detector only
compares within per-target cells.  Both are the paper's literal
algorithms, kept in ``tests/reference/pairwise.py`` (production runs
neither: it joins intervals, ``repro.core.engine``).
"""

import pytest

from repro.core.clocks import ConcurrencyOracle
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess
from repro.core.regions import RegionIndex
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE
from tests.reference.pairwise import (
    build_access_model, detect_cross_process, detect_cross_process_naive,
)


def all_to_all_puts(mpi, ops_per_pair):
    """Every rank Puts into every other rank's private slot; race-free."""
    buf = mpi.alloc("buf", mpi.size * ops_per_pair, datatype=DOUBLE)
    src = mpi.alloc("src", 1, datatype=DOUBLE, fill=float(mpi.rank))
    win = mpi.win_create(buf)
    win.fence()
    for other in range(mpi.size):
        if other == mpi.rank:
            continue
        for k in range(ops_per_pair):
            win.put(src, target=other,
                    target_disp=mpi.rank * ops_per_pair + k,
                    origin_count=1)
    win.fence()
    win.free()


def _stages(nranks, ops_per_pair):
    run = profile_run(all_to_all_puts, nranks,
                      params=dict(ops_per_pair=ops_per_pair),
                      scope="none", capture_locations=False,
                      delivery="eager")
    pre = preprocess(run.traces)
    matches = match_synchronization(pre)
    oracle = ConcurrencyOracle(pre, matches)
    epochs = EpochIndex(pre)
    model = build_access_model(pre, epochs)
    regions = RegionIndex(pre, matches)
    return pre, model, regions, oracle, epochs


@pytest.mark.parametrize("nranks", [4, 8, 12])
@pytest.mark.parametrize("algorithm", ["window-vector", "naive"])
def test_detection_scaling(nranks, algorithm, record, benchmark):
    stages = _stages(nranks, ops_per_pair=2)
    detect = (detect_cross_process if algorithm == "window-vector"
              else detect_cross_process_naive)
    benchmark.group = f"inter-detect-{nranks}-ranks"
    findings = benchmark(lambda: detect(*stages))
    ops = len(stages[1].ops)
    record("ablation_linear_detection",
           f"{algorithm:14s} ranks={nranks:<3d} ops={ops:<5d} "
           f"findings={len(findings)}")
    assert findings == []  # the pattern is race-free


def test_detectors_equivalent_on_racy_input(record, benchmark):
    """Same findings on a racy workload (lockopts at 6 ranks)."""
    from repro.apps.lockopts import lockopts

    run = profile_run(lockopts, 6, params=dict(buggy=True),
                      delivery="random")
    pre = preprocess(run.traces)
    matches = match_synchronization(pre)
    oracle = ConcurrencyOracle(pre, matches)
    epochs = EpochIndex(pre)
    model = build_access_model(pre, epochs)
    regions = RegionIndex(pre, matches)

    fast = benchmark(lambda: detect_cross_process(
        pre, model, regions, oracle, epochs))
    naive = detect_cross_process_naive(pre, model, regions, oracle, epochs)
    assert sorted(f.dedup_key for f in fast) == \
        sorted(f.dedup_key for f in naive)
    record("ablation_linear_detection",
           f"equivalence on racy input: {len(fast)} findings from both")
