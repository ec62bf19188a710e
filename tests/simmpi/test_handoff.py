"""The handoff: one per blocking call, and never on another rank's stack.

* Every event of rank *r* arrives on *r*'s own thread.  A resumed step
  (``Scheduler.yield_then_wait``) may run on the thread that grants its
  rank the token; one that emitted an event would be logged from there,
  and its source location walked from the wrong stack.
* A blocking call costs one handoff: no rank is woken only to block
  again, so every switch is paid for by an MPI call.  The one call that
  may take two is a communicator or window creation: its rank joins the
  collective where it stands, without a yield, and logs the call at
  return (the new handle is an output), so it can block once before
  its event and yield once after it.
"""

import threading
from collections import defaultdict

import pytest

from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES
from repro.gen import GenConfig, generate_program, replay
from repro.simmpi.runtime import EventHook, World

POLICIES = ("round_robin", "random")
DELIVERIES = ("eager", "lazy", "random")
#: calls that join a collective before they log (see the module doc)
CREATIONS = {"Win_create", "Comm_dup", "Comm_split", "Comm_create"}


class ThreadLog(EventHook):
    """Which threads each rank's events arrived on; every buffer is
    instrumented, so loads and stores are events too."""

    def __init__(self):
        self.threads = defaultdict(set)
        self.calls = 0
        self.creations = 0

    def on_call(self, rank, fn, args):
        self.calls += 1
        self.creations += fn in CREATIONS
        self.threads[rank].add(threading.get_ident())

    def on_mem_block(self, rank, kind, buf, addr, size, count, stride):
        self.threads[rank].add(threading.get_ident())

    def on_alloc(self, rank, buf):
        buf.instrumented = True


def logged_run(app, nranks, params, **world_kwargs):
    world = World(nranks, **world_kwargs)
    log = ThreadLog()
    world.hooks.append(log)
    world.run(app, params)
    return world, log


def generated(seed):
    config = GenConfig(seed=seed, nranks=3 + seed % 4, rounds=3,
                       ops_per_round=4, reps=2, bugs=("any",) * (seed % 3))
    return (f"gen-{seed}", replay, config.nranks,
            {"spec": generate_program(config).program})


PROGRAMS = [
    (f"{case.name}-{'buggy' if buggy else 'fixed'}", case.app, case.nranks,
     case.params(buggy))
    for case in BUG_CASES for buggy in (True, False)
] + [
    ("lu", lu, 4, dict(n=24, seed=3)),
    ("heat2d", heat2d, 4, dict(rows=16, cols=8, steps=6)),
] + [generated(seed) for seed in range(5)]


@pytest.mark.parametrize("name,app,nranks,params", PROGRAMS,
                         ids=[p[0] for p in PROGRAMS])
def test_events_arrive_on_their_ranks_thread(name, app, nranks, params):
    for seed, policy in enumerate(POLICIES):
        for delivery in DELIVERIES:
            _world, log = logged_run(app, nranks, params, seed=seed,
                                     sched_policy=policy, delivery=delivery)
            assert sorted(log.threads) == list(range(nranks))
            # one thread per rank, and no two ranks on one thread
            assert all(len(seen) == 1 for seen in log.threads.values())
            assert len(set().union(*log.threads.values())) == nranks


@pytest.mark.parametrize("app,nranks,params,delivery", [
    (lu, 4, dict(n=48), "eager"),
    (heat2d, 4, dict(rows=32, cols=16, steps=20), "random"),
], ids=["lu", "heat2d"])
def test_every_switch_is_paid_for_by_a_call(app, nranks, params, delivery):
    world, log = logged_run(app, nranks, params, delivery=delivery)
    assert 0 < world.scheduler.switches <= log.calls + log.creations
    # one window, created by every rank: the bound is not vacuous
    assert log.creations == nranks

