"""Randomized torture workloads: every analysis path must agree.

For each generated workload (random mix of fence/lock epochs, RMA op
kinds, local accesses, p2p and collectives over random byte ranges), five
independent implementations of "what conflicts?" are compared:

* the production batch pipeline (grouped-join sweep + VC oracle);
* the paper's linear ``(window, target)`` scan and the combinatorial
  strawman it improves on (``tests.reference.pairwise``);
* the streaming release-at-a-time checker;
* the batch pipeline on a re-serialized copy of the traces (write/read
  round-trip stability).

Any divergence is a bug in one of them — this is the repository's deepest
integration invariant.
"""

import random

import pytest

from repro.core.checker import check_traces
from repro.core.streaming import check_streaming
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, LOCK_EXCLUSIVE, LOCK_SHARED
from tests.reference.pairwise import (
    check_pairwise, detect_cross_process_naive,
)

WINDOW_WORDS = 12


def torture_app(mpi, seed, steps=14):
    """A random-but-deterministic workload; identical control flow on
    every rank (collectives stay matched), rank-dependent data ops."""
    rng = random.Random(seed)  # same stream on all ranks
    wbuf = mpi.alloc("wbuf", WINDOW_WORDS, datatype=DOUBLE)
    src = mpi.alloc("src", 4, datatype=DOUBLE)
    dst = mpi.alloc("dst", 4, datatype=DOUBLE)
    win = mpi.win_create(wbuf)
    win.fence()

    for _step in range(steps):
        action = rng.choice(["fence_ops", "lock_ops", "local", "barrier",
                             "p2p", "acc", "pscw", "ibarrier",
                             "allreduce", "ratomic"])
        actor = rng.randrange(mpi.size)
        target = rng.randrange(mpi.size)
        disp = rng.randrange(WINDOW_WORDS - 3)
        count = rng.randint(1, 3)
        if action == "fence_ops":
            # NB: every rank must consume the same random draws, or the
            # shared control-flow stream diverges
            use_put = rng.random() < 0.5
            if mpi.rank == actor:
                if use_put:
                    win.put(src, target=target, target_disp=disp,
                            origin_count=count)
                else:
                    win.get(dst, target=target, target_disp=disp,
                            origin_count=count)
            win.fence()
        elif action == "lock_ops":
            lock = rng.choice([LOCK_SHARED, LOCK_EXCLUSIVE])
            if mpi.rank == actor:
                win.lock(target, lock)
                win.put(src, target=target, target_disp=disp,
                        origin_count=count)
                win.unlock(target)
        elif action == "acc":
            op = rng.choice(["SUM", "MAX"])
            if mpi.rank == actor:
                win.lock(target, LOCK_SHARED)
                win.accumulate(src, target=target, op=op,
                               target_disp=disp, origin_count=count)
                win.unlock(target)
        elif action == "local":
            if mpi.rank == actor:
                wbuf[disp] = float(_step)
                _ = wbuf[(disp + 1) % WINDOW_WORDS]
        elif action == "barrier":
            mpi.barrier()
        elif action == "pscw":
            exposer = actor
            accessor = (actor + 1) % mpi.size
            world = mpi.world.world_comm.group
            if exposer != accessor:
                if mpi.rank == exposer:
                    win.post(world.incl([accessor]))
                    win.wait()
                elif mpi.rank == accessor:
                    win.start(world.incl([exposer]))
                    win.put(src, target=exposer, target_disp=disp,
                            origin_count=count)
                    win.complete()
        elif action == "ibarrier":
            req = mpi.ibarrier()
            if mpi.rank == actor:
                wbuf[disp] = float(_step)  # between init and wait
            mpi.wait(req)
        elif action == "allreduce":
            mpi.allreduce([float(mpi.rank)], op="SUM")
        elif action == "ratomic":
            if mpi.rank == actor and target != actor:
                win.lock(target, LOCK_SHARED)
                req = win.raccumulate(src, target=target, op="SUM",
                                      target_disp=disp,
                                      origin_count=count)
                req.wait()
                win.unlock(target)
        else:  # p2p
            peer = (actor + 1) % mpi.size
            if actor != peer:
                if mpi.rank == actor:
                    mpi.send("t", dest=peer, tag=_step)
                elif mpi.rank == peer:
                    mpi.recv(source=actor, tag=_step)

    win.fence()
    win.free()


def canonical(findings):
    return sorted(f.dedup_key + (f.occurrences,) for f in findings)


@pytest.mark.parametrize("seed", range(8))
def test_all_paths_agree(seed, tmp_path):
    run = profile_run(torture_app, nranks=4,
                      params=dict(seed=1000 + seed),
                      trace_dir=str(tmp_path / f"t{seed}"),
                      delivery="random", seed=seed)

    batch = check_traces(run.traces)
    linear = check_pairwise(run.traces)
    naive = check_pairwise(run.traces, inter=detect_cross_process_naive)
    streamed, _checker = check_streaming(run.traces)
    reread = check_traces(run.traces)  # second read of the same files

    assert canonical(batch.findings) == canonical(linear.findings)
    assert canonical(batch.findings) == canonical(naive.findings)
    assert canonical(batch.findings) == canonical(streamed)
    assert canonical(batch.findings) == canonical(reread.findings)


@pytest.mark.parametrize("seed", range(4))
def test_detection_schedule_invariant(seed):
    """The same program analyzed under different simulator schedules and
    delivery policies reports the same *structural* findings (source-pair
    level): detection reasons about the memory model, not one run."""
    keys = set()
    for sched_seed, delivery in [(0, "eager"), (1, "lazy"), (2, "random")]:
        run = profile_run(torture_app, nranks=3,
                          params=dict(seed=2000 + seed),
                          delivery=delivery, seed=sched_seed)
        report = check_traces(run.traces)
        keys.add(tuple(sorted(f.dedup_key for f in report.findings)))
    assert len(keys) == 1
