#!/usr/bin/env python
"""Checking a *different* one-sided programming model: Global Arrays.

The paper's advantage #4: "The analysis techniques used by MC-Checker can
also be applied to other one-sided programming models."  Its overhead
study already runs Global Arrays applications over ARMCI-MPI — GA calls
lowered to MPI RMA.  This example uses `repro.ga`, the bundled GA-style
layer, to build a distributed histogram three ways:

1. atomically, with GA's read-and-increment (MPI-3 fetch_and_op under the
   hood) — correct and MC-Checker-clean;
2. with accumulate sections — also correct (same-op accumulates commute);
3. with unsynchronized put-read-modify-write — the classic lost-update
   pattern, which MC-Checker flags at the GA-call granularity.

Run:  python examples/global_arrays.py
"""

import numpy as np

from repro import run_check
from repro.ga import GlobalArray
from repro.simmpi import run_app

BINS = 8
SAMPLES_PER_RANK = 6


def _samples(rank):
    return [(rank * 7 + k * 3) % BINS for k in range(SAMPLES_PER_RANK)]


def histogram_read_inc(mpi):
    hist = GlobalArray.create(mpi, "hist", BINS, datatype="INT")
    for bin_index in _samples(mpi.rank):
        hist.read_inc(bin_index)
    hist.sync()
    result = hist.to_numpy()
    hist.destroy()
    return result.tolist()


def histogram_acc(mpi):
    hist = GlobalArray.create(mpi, "hist", BINS, datatype="INT")
    local = np.zeros(BINS, dtype=np.int64)
    for bin_index in _samples(mpi.rank):
        local[bin_index] += 1
    hist.acc(0, BINS, local)
    hist.sync()
    result = hist.to_numpy()
    hist.destroy()
    return result.tolist()


def histogram_lost_updates(mpi):
    hist = GlobalArray.create(mpi, "hist", BINS, datatype="INT")
    for bin_index in _samples(mpi.rank):
        counts = hist.get(bin_index, bin_index + 1)  # read
        hist.put(bin_index, bin_index + 1, counts + 1)  # modify-write: racy
    hist.sync()
    result = hist.to_numpy()
    hist.destroy()
    return result.tolist()


def main():
    nranks = 4
    expected = np.zeros(BINS, dtype=int)
    for rank in range(nranks):
        for bin_index in _samples(rank):
            expected[bin_index] += 1

    for name, app in [("read_inc", histogram_read_inc),
                      ("accumulate", histogram_acc),
                      ("get/put RMW", histogram_lost_updates)]:
        result = run_app(app, nranks=nranks, delivery="random",
                         sched_policy="random", seed=11)[0]
        ok = result == expected.tolist()
        print(f"{name:12s}: {result} "
              f"{'== expected' if ok else f'!= expected {expected.tolist()} (updates lost)'}")

    print("\nMC-Checker verdicts on the three versions:")
    for name, app in [("read_inc", histogram_read_inc),
                      ("accumulate", histogram_acc),
                      ("get/put RMW", histogram_lost_updates)]:
        report = run_check(app, nranks=nranks, delivery="random")
        print(f"  {name:12s}: {len(report.errors)} error(s), "
              f"{len(report.warnings)} warning(s)")
    report = run_check(histogram_lost_updates, nranks=nranks,
                       delivery="random")
    print()
    print(report.findings[0].format())


if __name__ == "__main__":
    main()
