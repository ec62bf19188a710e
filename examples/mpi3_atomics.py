#!/usr/bin/env python
"""MPI-3 one-sided extensions: atomics, flushes, and the unified model.

The paper (section V) argues its techniques "can be applied to the MPI-3
one-sided communication model"; this repository implements that extension.
The example builds a classic distributed work-stealing counter three ways:

1. the broken MPI-2 way — Get, local increment, Put (lost updates AND a
   consistency error MC-Checker flags);
2. the correct MPI-3 way — ``fetch_and_op(SUM)`` under shared locks, with
   ``Win_flush`` making results usable mid-epoch (race-free, checked);
3. the subtle one — reading the fetch result *before* the flush, which
   MC-Checker flags exactly like the paper's Figure 1 Get bug.

It also shows the memory-model switch: a local store beside a disjoint
remote Put is an ERROR under the separate model (MPI-2.2 / paper Table I)
but permitted under MPI-3's unified model.

Run:  python examples/mpi3_atomics.py
"""

from repro import run_check
from repro.core import MODEL_SEPARATE, MODEL_UNIFIED, CheckConfig
from repro.simmpi import INT, LOCK_SHARED, run_app

TASKS_PER_RANK = 3


def broken_counter(mpi):
    """Get / increment / Put: not atomic, and racy under the MPI model."""
    counter = mpi.alloc("counter", 1, datatype=INT, fill=0)
    mine = mpi.alloc("mine", 1, datatype=INT)
    win = mpi.win_create(counter)
    mpi.barrier()
    claimed = []
    for _ in range(TASKS_PER_RANK):
        win.lock(0, LOCK_SHARED)
        win.get(mine, target=0, origin_count=1)
        mine[0] = mine[0] + 1          # reads the in-flight Get's buffer!
        win.put(mine, target=0, origin_count=1)
        win.unlock(0)
        claimed.append(mine[0])
    mpi.barrier()
    total = counter[0]
    win.free()
    return claimed, total


def atomic_counter(mpi):
    """fetch_and_op: each rank atomically claims distinct task ids."""
    counter = mpi.alloc("counter", 1, datatype=INT, fill=0)
    one = mpi.alloc("one", 1, datatype=INT, fill=1)
    old = mpi.alloc("old", 1, datatype=INT)
    win = mpi.win_create(counter)
    mpi.barrier()
    claimed = []
    win.lock(0, LOCK_SHARED)
    for _ in range(TASKS_PER_RANK):
        win.fetch_and_op(one, old, target=0, op="SUM")
        win.flush(0)                   # the fetch is complete NOW
        claimed.append(old[0])         # safe: after the flush
    win.unlock(0)
    mpi.barrier()
    total = counter[0]
    win.free()
    return claimed, total


def impatient_counter(mpi):
    """Reads the fetch result before the flush — the MPI-3 Figure-1 bug."""
    counter = mpi.alloc("counter", 1, datatype=INT, fill=0)
    one = mpi.alloc("one", 1, datatype=INT, fill=1)
    old = mpi.alloc("old", 1, datatype=INT)
    win = mpi.win_create(counter)
    mpi.barrier()
    if mpi.rank == 0:
        win.lock(0, LOCK_SHARED)
        win.fetch_and_op(one, old, target=0, op="SUM")
        _ = old[0]                     # BEFORE flush/unlock: undefined
        win.unlock(0)
    mpi.barrier()
    win.free()


def main():
    nranks = 4
    expect = nranks * TASKS_PER_RANK

    # the broken pattern loses updates under lazy delivery...
    results = run_app(broken_counter, nranks=nranks, delivery="lazy",
                      sched_policy="random", seed=3)
    print(f"broken Get/Put counter: total={results[0][1]} "
          f"(expected {expect}) — updates lost")
    # ...and is flagged regardless of whether it happened to misbehave
    report = run_check(broken_counter, nranks=nranks)
    print(f"MC-Checker on the broken counter: {len(report.errors)} "
          "error(s)\n")

    results = run_app(atomic_counter, nranks=nranks, delivery="lazy",
                      sched_policy="random", seed=3)
    all_claimed = sorted(t for claimed, _ in results for t in claimed)
    print(f"fetch_and_op counter: total={results[0][1]}, claimed ids "
          f"{all_claimed} — atomic, no duplicates")
    report = run_check(atomic_counter, nranks=nranks)
    print(f"MC-Checker on the atomic counter: {len(report.findings)} "
          "finding(s)\n")

    report = run_check(impatient_counter, nranks=2)
    print("reading the fetch result before the flush:")
    print(report.findings[0].format())

    # memory-model switch
    def store_beside_put(mpi):
        buf = mpi.alloc("buf", 2)
        src = mpi.alloc("src", 1)
        win = mpi.win_create(buf)
        mpi.barrier()
        if mpi.rank == 0:
            win.lock(1, LOCK_SHARED)
            win.put(src, target=1, target_disp=0, origin_count=1)
            win.unlock(1)
        else:
            buf[1] = 3.0  # disjoint from the Put's bytes
        mpi.barrier()
        win.free()

    separate = run_check(store_beside_put, nranks=2, config=CheckConfig(
        memory_model=MODEL_SEPARATE))
    unified = run_check(store_beside_put, nranks=2, config=CheckConfig(
        memory_model=MODEL_UNIFIED))
    print(f"\ndisjoint store beside a remote Put: separate model -> "
          f"{len(separate.errors)} error(s); unified model -> "
          f"{len(unified.findings)} finding(s)")


if __name__ == "__main__":
    main()
