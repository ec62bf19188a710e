#!/usr/bin/env python
"""Driving the pipeline stage by stage: DN-Analyzer as a library.

MC-Checker's facade (`run_check`) hides six analysis stages.  This example
runs them one at a time on the paper's Figure 3 execution — three ranks,
barriers, send/recv, a fence window, and a racing Put/store pair — and
prints what each stage produced: the reconstructed registries, the matched
synchronization, the concurrent regions, the epochs, and finally the
findings.  It also materializes the Figure 4 data-access DAG.

Run:  python examples/custom_checker.py
"""

from repro import api
from repro.core.clocks import ConcurrencyOracle
from repro.core.dag import build_dag
from repro.core.engine import (
    detect_cross_process_sweep, detect_intra_epoch_sweep,
)
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.model import build_access_model_sweep
from repro.core.preprocess import preprocess, preprocess_calls
from repro.core.regions import RegionIndex
from repro.simmpi import DOUBLE, INT


def figure3(mpi):
    """The paper's Figure 3 execution, in spirit: P0 and P2 Put into P1's
    window in the same exposure period; P1 also stores locally."""
    wbuf = mpi.alloc("wbuf", 8, datatype=DOUBLE, fill=0.0)
    src = mpi.alloc("src", 2, datatype=DOUBLE, fill=float(mpi.rank))
    win = mpi.win_create(wbuf)

    win.fence()                       # region A opens
    if mpi.rank == 0:
        win.put(src, target=1, target_disp=0, origin_count=2)   # op a
    if mpi.rank == 2:
        win.put(src, target=1, target_disp=1, origin_count=2)   # op c
    if mpi.rank == 1:
        wbuf[1] = -1.0                # op e: store racing with both Puts
    win.fence()                       # region B opens
    if mpi.rank == 2:
        mpi.send(src, dest=1, tag=3)
    if mpi.rank == 1:
        mpi.recv(src, source=2, tag=3)
    mpi.barrier()
    win.free()


def main():
    run = api.run(figure3, nranks=3, delivery="random")

    pre = preprocess_calls(run.traces)   # call events only
    print("communicators:", pre.comms)
    print("windows:", {w.win_id: dict(w.bases) for w in pre.windows.values()})

    matches = match_synchronization(pre)
    print(f"\n{len(matches)} synchronization matches:")
    for match in matches:
        print(f"  {match.kind:12s} {match.fn:12s} "
              f"{match.members or (match.src, match.dst)}")

    oracle = ConcurrencyOracle(pre, matches)
    epochs = EpochIndex(pre)
    print(f"\n{len(epochs.epochs)} epochs:")
    for epoch in epochs.epochs:
        print("  " + epoch.describe())

    regions = RegionIndex(pre, matches)
    print(f"\n{len(regions)} concurrent regions")

    # every access as rows (the op table, the packed loads/stores); an
    # op becomes an object when it is indexed
    model = build_access_model_sweep(pre, epochs, run.traces)
    print(f"{len(model.ops)} RMA ops, {model.total_local_accesses} local "
          "accesses")

    # Figure 4 wants every event as a vertex, loads/stores included
    dag = build_dag(preprocess(run.traces), matches, epochs)
    print(f"Figure-4 DAG: {dag.number_of_nodes()} vertices, "
          f"{dag.number_of_edges()} edges")

    # ad-hoc concurrency probe, like the paper's discussion of ops a/c/e
    put0 = next(op for op in model.ops if op.rank == 0)
    put2 = next(op for op in model.ops if op.rank == 2)
    print(f"\nPut(P0) concurrent with Put(P2)? "
          f"{oracle.concurrent(put0.span, put2.span)}")

    findings = detect_intra_epoch_sweep(model, epochs) + \
        detect_cross_process_sweep(pre, model, regions, oracle, epochs)
    print(f"\n{len(findings)} raw findings; first:")
    print(findings[0].format())

    # the facade runs the same stages end to end (and deduplicates)
    report = api.check(run.traces)
    print(f"\nfacade cross-check: {report.summary()}")


if __name__ == "__main__":
    main()
