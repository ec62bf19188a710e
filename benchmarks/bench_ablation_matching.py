"""E8 — ablation: Algorithm 1 vs scan-from-the-beginning matching.

Section IV-C-2a rejects the straightforward matcher ("scans through all
the traces ... time-consuming") in favour of the progress-counter design
with per-stream cursors.  This benchmark sweeps the trace length and times
production's matcher (Algorithm 1 as per-channel zips over call-table
columns) and the strawman (``tests/reference/matching.py``) on identical
traces; the outputs are asserted identical, and the advantage grows with
trace size (linear vs quadratic scans).
"""

import pytest

from repro.core.matching import (
    KIND_COLLECTIVE, KIND_P2P, match_synchronization,
)
from repro.core.preprocess import preprocess
from repro.profiler.session import profile_run
from tests.reference.matching import match_synchronization_naive

NRANKS = 4


def chatty_app(mpi, iterations):
    """Alternating collectives and ring messages: all-sync trace."""
    for i in range(iterations):
        if i % 3 == 0:
            mpi.barrier()
        elif i % 3 == 1:
            mpi.bcast("x" if mpi.rank == 0 else None, root=0)
        else:
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            mpi.sendrecv(i, dest=right, source=left)


def _trace(iterations):
    run = profile_run(chatty_app, NRANKS, params=dict(iterations=iterations),
                      scope="none", capture_locations=False)
    return preprocess(run.traces)


def _canonical(matches):
    out = set()
    for m in matches:
        if m.kind == KIND_COLLECTIVE:
            out.add(("coll", m.fn, tuple(sorted(m.members.items()))))
        elif m.kind == KIND_P2P:
            out.add(("p2p", m.src, m.dst))
    return out


@pytest.mark.parametrize("iterations", [30, 90, 270])
@pytest.mark.parametrize("algorithm", ["algorithm1", "naive"])
def test_matching_scaling(iterations, algorithm, record, benchmark):
    pre = _trace(iterations)
    matcher = (match_synchronization if algorithm == "algorithm1"
               else match_synchronization_naive)
    benchmark.group = f"matching-{iterations}-iters"
    matches = benchmark(lambda: matcher(pre))
    events = sum(len(ev) for ev in pre.events.values())
    record("ablation_matching",
           f"{algorithm:11s} iterations={iterations:<4d} "
           f"events={events:<6d} matches={len(matches)}")


def test_matchers_equivalent(record, benchmark):
    pre = _trace(60)
    fast = benchmark(lambda: match_synchronization(pre))
    naive = match_synchronization_naive(pre)
    assert _canonical(fast) == _canonical(naive)
    record("ablation_matching",
           f"equivalence check: {len(_canonical(fast))} canonical matches "
           "identical across algorithms")
