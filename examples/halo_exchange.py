#!/usr/bin/env python
"""Halo exchange done right (and wrong): the Jacobi stencil workload.

Shows a realistic one-sided domain-decomposition pattern, how a single
missing ``Win_fence`` turns it into a cross-process race (the paper's
Figure 2d class), how the simulator's *lazy* delivery policy makes the
corrupted numerics observable, and how MC-Checker pinpoints the defect.

Run:  python examples/halo_exchange.py
"""

import numpy as np

from repro import run_check
from repro.apps.jacobi import jacobi
from repro.simmpi import run_app

RANKS = 4
PARAMS = dict(interior=12, iterations=6)


def main():
    # Correct version, any delivery policy: deterministic physics.
    good = run_app(jacobi, nranks=RANKS, delivery="lazy",
                   params=dict(buggy=False, **PARAMS))

    # Buggy version under *eager* delivery: every transfer lands at issue
    # time, so the race window never bites — the classic latent bug that
    # "worked correctly for several years on multiple generations of
    # machines" (the paper's ADLB anecdote).
    latent = run_app(jacobi, nranks=RANKS, delivery="eager",
                     params=dict(buggy=True, **PARAMS))

    # Same buggy code under *lazy* delivery (the Blue Gene/Q scenario):
    # ghost cells are read before the neighbour's Put lands.
    bitten = run_app(jacobi, nranks=RANKS, delivery="lazy",
                     params=dict(buggy=True, **PARAMS))

    good_v = np.array(good)
    print("max |buggy(eager) - fixed| :",
          float(np.abs(np.array(latent) - good_v).max()))
    print("max |buggy(lazy)  - fixed| :",
          float(np.abs(np.array(bitten) - good_v).max()),
          " <- the race materializes")

    # MC-Checker flags the race regardless of whether it happened to bite:
    # the analysis is over what the memory model permits, not over one
    # lucky schedule.
    for delivery in ("eager", "lazy"):
        report = run_check(jacobi, nranks=RANKS, delivery=delivery,
                           params=dict(buggy=True, **PARAMS))
        print(f"\nchecked buggy variant under {delivery} delivery: "
              f"{len(report.errors)} error(s)")
    report = run_check(jacobi, nranks=RANKS, delivery="lazy",
                       params=dict(buggy=True, **PARAMS))
    print()
    print(report.findings[0].format())


if __name__ == "__main__":
    main()
