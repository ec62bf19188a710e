"""Scheduler tests: determinism, blocking, deadlock detection, abort,
and the CPU shape of a run."""

import os
import resource
import threading

import pytest

from repro.simmpi import run_app
from repro.simmpi.scheduler import Scheduler
from repro.util.errors import DeadlockError, SimMPIError


def _interleaving_app(mpi, log):
    for i in range(3):
        mpi.barrier()
        log.append((mpi.rank, i))
    return mpi.rank


class TestDeterminism:
    def test_round_robin_reproducible(self):
        logs = []
        for _ in range(2):
            log = []
            run_app(_interleaving_app, nranks=4, params={"log": log})
            logs.append(log)
        assert logs[0] == logs[1]

    def test_random_policy_reproducible_same_seed(self):
        logs = []
        for _ in range(2):
            log = []
            run_app(_interleaving_app, nranks=4, params={"log": log},
                    sched_policy="random", seed=99)
            logs.append(log)
        assert logs[0] == logs[1]

    def test_random_policy_seed_changes_interleaving(self):
        logs = []
        for seed in (1, 2, 3, 4, 5):
            log = []
            run_app(lambda mpi, log: log.append(mpi.rank) or mpi.barrier(),
                    nranks=6, params={"log": log},
                    sched_policy="random", seed=seed)
            logs.append(tuple(log))
        assert len(set(logs)) > 1  # at least two distinct interleavings


class TestValidation:
    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(2, policy="fifo")

    def test_body_count_mismatch(self):
        sched = Scheduler(2)
        with pytest.raises(ValueError):
            sched.start([lambda: None])


class TestNoFalseDeadlocks:
    """Regression: the detector must re-schedule EVERY blocked rank before
    declaring deadlock — under the random policy a rank can be skipped for
    many grants while its predicate is already satisfiable."""

    @pytest.mark.parametrize("seed", range(12))
    def test_barrier_storm_never_false_positives(self, seed):
        def app(mpi):
            for _ in range(5):
                mpi.barrier()
            if mpi.rank == 0:
                for peer in range(1, mpi.size):
                    mpi.recv(source=peer, tag=1)
            else:
                mpi.send("x", dest=0, tag=1)
            mpi.barrier()

        run_app(app, nranks=4, sched_policy="random", seed=seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_lock_contention_never_false_positives(self, seed):
        from repro.simmpi import INT, LOCK_EXCLUSIVE

        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            win.lock(0, LOCK_EXCLUSIVE)
            win.unlock(0)
            mpi.barrier()
            win.free()

        run_app(app, nranks=5, sched_policy="random", seed=seed)


class TestDeadlock:
    def test_recv_cycle_detected(self):
        def cycle(mpi):
            mpi.recv(source=(mpi.rank + 1) % mpi.size, tag=0)

        with pytest.raises(DeadlockError) as excinfo:
            run_app(cycle, nranks=3)
        assert "Recv" in str(excinfo.value)
        assert set(excinfo.value.blocked) == {0, 1, 2}

    def test_partial_barrier_detected(self):
        def half_barrier(mpi):
            if mpi.rank != 0:
                mpi.barrier()

        with pytest.raises(DeadlockError):
            run_app(half_barrier, nranks=3)

    def test_self_recv_detected(self):
        def lonely(mpi):
            mpi.recv(source=mpi.rank, tag=0)

        with pytest.raises(DeadlockError):
            run_app(lonely, nranks=1)


class TestAbort:
    def test_app_exception_propagates(self):
        def boom(mpi):
            if mpi.rank == 1:
                raise RuntimeError("kaboom")
            mpi.barrier()

        with pytest.raises(RuntimeError, match="kaboom"):
            run_app(boom, nranks=3)

    def test_livelock_guard_trips(self):
        def spin(mpi):
            while True:
                mpi.world.scheduler.yield_point(mpi.rank)

        from repro.simmpi.runtime import World
        world = World(2, max_steps=10_000)
        with pytest.raises(SimMPIError, match="livelock"):
            world.run(spin)


class TestProgress:
    def test_all_ranks_complete(self):
        results = run_app(lambda mpi: mpi.rank * 2, nranks=5)
        assert results == [0, 2, 4, 6, 8]

    def test_switch_count_grows_with_calls(self):
        from repro.simmpi.runtime import World

        def chatty(mpi):
            for _ in range(10):
                mpi.barrier()

        w1 = World(2)
        w1.run(chatty)
        w2 = World(2)
        w2.run(lambda mpi: mpi.barrier())
        assert w1.scheduler.switches > w2.scheduler.switches


def _cpu_calls_work() -> bool:
    """Whether this platform lets a thread set its affinity and batch
    policy (probed on a throwaway thread, so the caller keeps its own)."""
    ok = []

    def probe():
        try:
            os.sched_setaffinity(0, os.sched_getaffinity(0))
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            ok.append(os.sched_getscheduler(0) == os.SCHED_BATCH)
        except (AttributeError, OSError):
            ok.append(False)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return ok[0]


cpu_calls = pytest.mark.skipif(
    not _cpu_calls_work(),
    reason="sched_setaffinity / SCHED_BATCH missing or refused")


def _shape():
    """The calling thread's CPU mask and scheduling policy."""
    return os.sched_getaffinity(0), os.sched_getscheduler(0)


#: the shape the test process started with, read at collection, before
#: any run: a run that failed to restore its caller cannot hide that by
#: narrowing the mask the next test starts from
STARTED = _shape() if hasattr(os, "sched_getaffinity") else None


@cpu_calls
class TestCpuShape:
    """A run is pinned to one CPU of the caller's allowed set and its
    rank threads are batch-scheduled; the caller's mask and policy come
    back on every exit path."""

    @pytest.fixture(autouse=True)
    def caller(self):
        os.sched_setaffinity(0, STARTED[0])
        os.sched_setscheduler(0, STARTED[1], os.sched_param(0))

    def test_every_rank_runs_pinned_and_batch_scheduled(self):
        allowed = sorted(STARTED[0])
        cpu = allowed[os.getpid() % len(allowed)]
        shapes = run_app(lambda mpi: (mpi.barrier(), _shape())[1],
                         nranks=4)
        assert shapes == [({cpu}, os.SCHED_BATCH)] * 4

    def test_caller_shape_back_after_a_normal_run(self):
        before = _shape()
        run_app(_interleaving_app, nranks=3, params={"log": []})
        assert _shape() == before == STARTED

    def test_caller_shape_back_after_a_rank_raises(self):
        def boom(mpi):
            if mpi.rank == 1:
                raise RuntimeError("kaboom")
            mpi.barrier()

        before = _shape()
        with pytest.raises(RuntimeError, match="kaboom"):
            run_app(boom, nranks=3)
        assert _shape() == before

    def test_caller_shape_back_after_a_deadlock(self):
        def cycle(mpi):
            mpi.recv(source=(mpi.rank + 1) % mpi.size, tag=0)

        before = _shape()
        with pytest.raises(DeadlockError):
            run_app(cycle, nranks=3)
        assert _shape() == before

    def test_caller_shape_back_after_a_livelock_abort(self):
        from repro.simmpi.runtime import World

        def spin(mpi):
            while True:
                mpi.world.scheduler.yield_point(mpi.rank)

        before = _shape()
        with pytest.raises(SimMPIError, match="livelock"):
            World(2, max_steps=1_000).run(spin)
        assert _shape() == before

    def test_caller_shape_back_after_an_interrupted_join(self, monkeypatch):
        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        before, running = _shape(), set(threading.enumerate())
        monkeypatch.setattr(threading.Thread, "join", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_app(lambda mpi: mpi.barrier(), nranks=2)
        monkeypatch.undo()
        assert _shape() == before
        # the ranks run on to the end of the run without their caller
        for thread in set(threading.enumerate()) - running:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_concurrent_runs_each_restore_their_own_caller(self):
        """Two runs at once, from callers with different masks: the
        rendezvous holds both runs open until each has a rank inside."""
        allowed = sorted(STARTED[0])
        masks = [set(allowed), {allowed[-1]}]
        rendezvous = threading.Barrier(2, timeout=30)
        after = [None, None]

        def app(mpi):
            if mpi.rank == 0:
                rendezvous.wait()
            mpi.barrier()

        def caller(i):
            os.sched_setaffinity(0, masks[i])
            run_app(app, nranks=3)
            after[i] = os.sched_getaffinity(0)

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert after == masks


class TestOsSwitches:
    """The rank threads' OS context switches are counted only when
    observability is on, like the per-rank token-hold times (the gauge
    is tested in tests/obs/test_integration.py)."""

    def test_no_getrusage_call_with_obs_off(self, monkeypatch):
        from repro import obs
        from repro.simmpi.runtime import World

        assert not obs.is_enabled()
        calls = []
        monkeypatch.setattr(resource, "getrusage",
                            lambda who: calls.append(who))
        world = World(3)
        world.run(_interleaving_app, {"log": []})
        assert calls == []
        assert world.scheduler.os_switches() is None
