"""Scheduler differential: eliding a wake-up must not move the schedule.

Production evaluates a blocked rank's predicate, and runs the resumed
step of a ``yield_then_wait``, on the granting thread and wakes the rank
only once the predicate holds; ``tests/reference/scheduler.py`` is the
wake-and-re-check loop it replaced.  Every program here runs under
both — the Table II corpus and the bundled extra cases, LU, heat2d, the
work queue and generated programs, under both policies and all three
delivery modes — and must show

* the same sequence of *real* steps (the rank at every return from
  ``yield_point`` / ``wait_until``, and at every run of a resumed step),
* the same ``token_grants`` and step count, and the reference's
  ``switches`` as production's ``switches + elided``,
* byte-identical trace files and equal per-rank results,
* for a program that deadlocks, the same ``DeadlockError`` text; for a
  predicate or a resumed step that raises, the same exception from the
  same rank; for a livelock, the guard tripping at the same count.
"""

import hashlib
import os
import threading
from unittest import mock

import numpy as np
import pytest

from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.apps.work_queue import work_queue
from repro.gen import GenConfig, generate_program, replay
from repro.profiler.session import profile_run
from repro.simmpi import INT, LOCK_EXCLUSIVE, runtime
from repro.simmpi.runtime import World
from repro.simmpi.scheduler import Scheduler
from repro.util.errors import DeadlockError, RMAUsageError, SimMPIError
from tests.reference.scheduler import Scheduler as ReferenceScheduler

POLICIES = ("round_robin", "random")
DELIVERIES = ("eager", "lazy", "random")
RANKS_CAP = 8


def recording(base):
    """``base`` with the rank logged at every real step.  The log is
    appended to by the thread that holds the token, so it is ordered.
    A resumed step is logged when ``step`` runs, on whichever thread
    runs it; the reference's ``yield_then_wait`` calls ``yield_point``
    and ``wait_until``, which then log nothing of their own."""

    class Recording(base):
        made = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.steps = []
            self.resuming = set()
            #: the thread a resumed step raised on
            self.raised_on = None
            Recording.made.append(self)

        def yield_point(self, rank):
            super().yield_point(rank)
            if rank not in self.resuming:
                self.steps.append(rank)

        def wait_until(self, rank, pred, reason):
            super().wait_until(rank, pred, reason)
            if rank not in self.resuming:
                self.steps.append(rank)

        def yield_then_wait(self, rank, step, reason):
            def logged():
                self.steps.append(rank)
                try:
                    return step()
                except Exception:
                    self.raised_on = threading.current_thread().name
                    raise

            self.resuming.add(rank)
            try:
                super().yield_then_wait(rank, logged, reason)
            finally:
                self.resuming.discard(rank)
            self.steps.append(rank)

    return Recording


class Outcome:
    """What one run under one scheduler left behind."""

    def __init__(self, sched, results=None, files=None, error=None):
        self.steps = sched.steps
        self.token_grants = sched.token_grants
        self.step_count = sched._steps
        self.handoffs = sched.switches
        self.elided = getattr(sched, "elided", 0)
        self.abort_rank = sched._abort_rank
        self.raised_on = sched.raised_on
        self.results, self.files, self.error = results, files, error


def under(base, fn):
    """Run ``fn()`` with ``base`` as the simulator's scheduler class;
    ``fn`` may raise (deadlock, livelock, application error)."""
    cls = recording(base)
    results = files = error = None
    with mock.patch.object(runtime, "Scheduler", cls):
        try:
            results, files = fn()
        except (DeadlockError, SimMPIError, ArithmeticError) as exc:
            error = exc
    sched, = cls.made
    return Outcome(sched, results, files, error)


def both(fn):
    return under(Scheduler, fn), under(ReferenceScheduler, fn)


def assert_same_schedule(prod: Outcome, ref: Outcome):
    assert prod.steps == ref.steps
    assert prod.token_grants == ref.token_grants
    assert prod.step_count == ref.step_count
    assert prod.handoffs + prod.elided == ref.handoffs
    assert ref.elided == 0
    assert prod.abort_rank == ref.abort_rank
    assert type(prod.error) is type(ref.error)
    assert str(prod.error) == str(ref.error)


def profiled(app, nranks, params, tmp_path, tag, **run_kwargs):
    """``fn`` for :func:`under`: profile into a directory of its own
    (one per scheduler) and return results plus trace-file digests."""
    count = iter(range(2))

    def fn():
        trace_dir = str(tmp_path / f"{tag}-{next(count)}")
        run = profile_run(app, nranks, trace_dir=trace_dir, params=params,
                          **run_kwargs)
        files = {}
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        return run.results, files
    return fn


def assert_same_run(prod: Outcome, ref: Outcome):
    assert_same_schedule(prod, ref)
    assert prod.error is None
    assert prod.files == ref.files
    np.testing.assert_equal(prod.results, ref.results)


def combos():
    """policy x delivery, the trace format alternating so that both are
    written under both policies."""
    for i, policy in enumerate(POLICIES):
        for j, delivery in enumerate(DELIVERIES):
            yield policy, delivery, ("text", "binary")[(i + j) % 2]


PROGRAMS = [
    (f"{case.name}-{'buggy' if buggy else 'fixed'}", case.app,
     min(case.nranks, RANKS_CAP), case.params(buggy))
    for case in BUG_CASES + EXTRA_CASES for buggy in (True, False)
] + [
    ("lu", lu, 4, dict(n=24, seed=3)),
    ("heat2d", heat2d, 4, dict(rows=16, cols=8, steps=6)),
    ("work_queue-cas", work_queue, 4, dict(tasks=6, mode="cas")),
    ("work_queue-fetch_add", work_queue, 4, dict(tasks=6,
                                                 mode="fetch_add")),
]

#: programs in which ranks are known to be picked while still blocked
#: (lock contention, barriers, PSCW waits)
ELIDING = {"lockopts-buggy", "heat2d", "work_queue-cas"}


@pytest.mark.parametrize("name,app,nranks,params", PROGRAMS,
                         ids=[p[0] for p in PROGRAMS])
def test_programs_keep_their_schedule(tmp_path, name, app, nranks, params):
    elided = 0
    for seed, (policy, delivery, fmt) in enumerate(combos()):
        prod, ref = both(profiled(
            app, nranks, params, tmp_path, f"{policy}-{delivery}",
            sched_policy=policy, delivery=delivery, seed=seed,
            trace_format=fmt))
        assert_same_run(prod, ref)
        elided += prod.elided
    # the oracle is only worth its name where there was something to
    # elide: switches + elided == reference switches, with elided > 0
    if name in ELIDING:
        assert elided > 0


@pytest.mark.parametrize("seed", range(20))
def test_generated_programs_keep_their_schedule(tmp_path, seed):
    config = GenConfig(seed=seed, nranks=3 + seed % 4, rounds=3,
                       ops_per_round=4, reps=2,
                       bugs=("any",) * (seed % 3))
    generated = generate_program(config)
    for policy, delivery, fmt in combos():
        prod, ref = both(profiled(
            replay, config.nranks, {"spec": generated.program}, tmp_path,
            f"{policy}-{delivery}", scope="all", sched_policy=policy,
            delivery=delivery, seed=seed, trace_format=fmt,
            app_name=f"gen-{seed}"))
        assert_same_run(prod, ref)


# ----------------------------------------------------------------------
# runs that do not complete
# ----------------------------------------------------------------------


def recv_cycle(mpi):
    mpi.barrier()
    mpi.recv(source=(mpi.rank + 1) % mpi.size, tag=0)


def partial_barrier(mpi):
    if mpi.rank != 0:
        mpi.barrier()


def lock_then_lost_barrier(mpi):
    buf = mpi.alloc("buf", 1, datatype=INT)
    win = mpi.win_create(buf)
    win.lock(0, LOCK_EXCLUSIVE)
    if mpi.rank != 1:
        mpi.barrier()       # rank 1 never arrives; the others hold on
    win.unlock(0)


def in_world(app, nranks, **world_kwargs):
    def fn():
        return World(nranks, **world_kwargs).run(app), None
    return fn


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("app,nranks", [
    (recv_cycle, 3), (partial_barrier, 4), (lock_then_lost_barrier, 4)],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_deadlocks_read_the_same(app, nranks, policy):
    for seed in range(3):
        prod, ref = both(in_world(app, nranks, sched_policy=policy,
                                  seed=seed))
        assert isinstance(prod.error, DeadlockError)
        assert_same_schedule(prod, ref)
        assert prod.error.blocked == ref.error.blocked


@pytest.mark.parametrize("policy", POLICIES)
def test_raising_predicate_surfaces_in_its_own_rank(policy):
    """The predicate of rank 0 raises once rank 2 has moved: whichever
    thread evaluates it first, the exception is rank 0's."""
    def app(mpi, state):
        sched = mpi.world.scheduler
        if mpi.rank == 0:
            def pred():
                if state:
                    raise ZeroDivisionError("predicate of rank 0")
                return False
            sched.wait_until(0, pred, "never")
            return
        for _ in range(3):      # rank 0 is picked, still blocked
            sched.yield_point(mpi.rank)
        if mpi.rank == 2:
            state.append(1)
            sched.register_progress()
        for _ in range(3):
            sched.yield_point(mpi.rank)

    def fn():
        return World(3, sched_policy=policy, seed=5).run(
            app, {"state": []}), None

    prod, ref = both(fn)
    assert isinstance(prod.error, ZeroDivisionError)
    assert prod.abort_rank == 0
    assert_same_schedule(prod, ref)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("max_steps", [50, 333, 1000])
def test_livelock_guard_trips_at_the_same_count(policy, max_steps):
    """Two ranks wait on what never comes while one spins: the guard
    counts the steps taken for the blocked ranks like their own."""
    def app(mpi):
        sched = mpi.world.scheduler
        if mpi.rank == 1:
            while True:
                sched.yield_point(1)
        sched.wait_until(mpi.rank, lambda: False, "never")

    prod, ref = both(in_world(app, 3, sched_policy=policy, seed=1,
                              max_steps=max_steps))
    assert isinstance(prod.error, SimMPIError)
    assert "livelock" in str(prod.error)
    assert prod.step_count == max_steps + 1
    assert prod.elided > 0
    assert_same_schedule(prod, ref)


# ----------------------------------------------------------------------
# resumed steps that raise or trip the guard
# ----------------------------------------------------------------------


def mismatched_collective(mpi):
    win = mpi.win_create(mpi.alloc("buf", 1, datatype=INT))
    mpi.comm_rank()     # without it, the loser enters on its own thread
    if mpi.rank == 0:
        mpi.barrier()
    else:
        win.fence()


def free_with_pending_ops(mpi):
    buf = mpi.alloc("buf", 2, datatype=INT)
    win = mpi.win_create(buf)
    win.fence()
    win.put(buf, target=(mpi.rank + 1) % mpi.size)
    win.free()


def deferred_bad_accumulate(mpi):
    buf = mpi.alloc("buf", 2, datatype=INT)
    win = mpi.win_create(buf)
    win.fence()
    if mpi.rank == 1:
        win.accumulate(buf, target=0, op="NO_SUCH_OP")
    win.fence()


@pytest.mark.parametrize("app,nranks,delivery,error", [
    (mismatched_collective, 2, "random", "collective mismatch"),
    (free_with_pending_ops, 3, "lazy", "Win_free with pending"),
    (deferred_bad_accumulate, 3, "lazy", "invalid op"),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_raising_step_surfaces_in_its_own_rank(app, nranks, delivery, error):
    """The exception of a resumed step is its rank's, raised on its own
    thread, whichever thread ran the step."""
    foreign = 0
    for policy in POLICIES:
        for seed in range(4):
            prod, ref = both(in_world(app, nranks, sched_policy=policy,
                                      seed=seed, delivery=delivery))
            assert isinstance(prod.error, SimMPIError)
            assert error in str(prod.error)
            assert_same_schedule(prod, ref)
            if app is free_with_pending_ops:
                assert type(prod.error) is RMAUsageError
            assert ref.raised_on == f"simmpi-rank-{ref.abort_rank}"
            foreign += prod.raised_on != f"simmpi-rank-{prod.abort_rank}"
    # the case worth testing: the step raised on the granting thread
    assert foreign > 0


def barrier_forever(mpi):
    while True:
        mpi.barrier()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("nranks,max_steps", [(1, 50), (1, 333), (3, 1000)])
def test_livelock_guard_trips_on_a_resumed_grant(policy, nranks, max_steps):
    """Every grant of a one-rank barrier loop is a resumed one: the guard
    counts it, and trips on it, as on a woken rank's step."""
    prod, ref = both(in_world(barrier_forever, nranks, sched_policy=policy,
                              seed=2, max_steps=max_steps))
    assert "livelock" in str(prod.error)
    assert prod.step_count == max_steps + 1
    assert_same_schedule(prod, ref)
