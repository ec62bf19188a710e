"""Happens-before oracle tests, incl. differential testing against the DAG."""

import pickle
import random

import pytest

from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core.clocks import ConcurrencyOracle, Span
from repro.core.dag import build_dag, event_node, happens_before
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess
from repro.profiler.events import CallEvent, RMA_COMM_CALLS, MemEvent
from repro.profiler.session import profile_run
from repro.simmpi import INT
from tests.core.test_control_plane_differential import (
    STEP_KINDS, sync_program,
)


def build(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    pre = preprocess(profile_run(app, nranks, **kw).traces)
    matches = match_synchronization(pre)
    return pre, matches, ConcurrencyOracle(pre, matches)


class TestPointQueries:
    def test_program_order_same_rank(self):
        pre, _m, oracle = build(lambda mpi: mpi.barrier(), 2)
        assert oracle.happens_before(0, 0, 0, 5)
        assert not oracle.happens_before(0, 5, 0, 0)

    def test_barrier_orders_across_ranks(self):
        def app(mpi):
            mpi.alloc("x", 1, datatype=INT)  # pre-barrier activity
            mpi.barrier()
            mpi.comm_rank()  # post-barrier activity

        pre, _m, oracle = build(app, 2)
        barrier_seq = {
            rank: next(e.seq for e in pre.events[rank]
                       if isinstance(e, CallEvent) and e.fn == "Barrier")
            for rank in (0, 1)
        }
        before0 = barrier_seq[0] - 1
        after1 = barrier_seq[1] + 1
        assert oracle.happens_before(0, before0, 1, after1)
        assert not oracle.happens_before(1, after1, 0, before0)

    def test_unsynchronized_ranks_concurrent(self):
        def app(mpi):
            mpi.comm_rank()
            mpi.comm_rank()

        pre, _m, oracle = build(app, 2)
        assert not oracle.happens_before(0, 0, 1, 1)
        assert not oracle.happens_before(1, 0, 0, 1)

    def test_send_recv_one_directional(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.comm_rank()
                mpi.send("x", dest=1)
            else:
                mpi.recv(source=0)
                mpi.comm_rank()

        pre, _m, oracle = build(app, 2)
        send_seq = next(e.seq for e in pre.events[0]
                        if isinstance(e, CallEvent) and e.fn == "Send")
        recv_seq = next(e.seq for e in pre.events[1]
                        if isinstance(e, CallEvent) and e.fn == "Recv")
        assert oracle.happens_before(0, send_seq, 1, recv_seq)
        assert oracle.happens_before(0, 0, 1, recv_seq + 1)
        # the reverse direction carries no ordering
        assert not oracle.happens_before(1, recv_seq, 0, send_seq)


class TestPSCWEdges:
    def _pscw_app(self, mpi):
        from repro.simmpi import INT
        buf = mpi.alloc("buf", 1, datatype=INT)
        win = mpi.win_create(buf)
        world = mpi.comm_group()
        mpi.comm_rank()  # pre-PSCW marker event on both ranks
        if mpi.rank == 0:
            win.post(world.incl([1]))
            win.wait()
            mpi.comm_rank()  # post-wait marker
        else:
            win.start(world.incl([0]))
            win.complete()
            mpi.comm_rank()  # post-complete marker
        mpi.barrier()
        win.free()

    def test_post_happens_before_post_start_successors(self):
        pre, _m, oracle = build(self._pscw_app, 2)
        post_seq = next(e.seq for e in pre.events[0]
                        if isinstance(e, CallEvent) and e.fn == "Win_post")
        start_seq = next(e.seq for e in pre.events[1]
                         if isinstance(e, CallEvent)
                         and e.fn == "Win_start")
        # everything before the post precedes everything after the start
        assert oracle.happens_before(0, post_seq - 1, 1, start_seq + 1)
        # but not the other way around
        assert not oracle.happens_before(1, start_seq, 0, post_seq)

    def test_complete_happens_before_wait_successors(self):
        pre, _m, oracle = build(self._pscw_app, 2)
        complete_seq = next(e.seq for e in pre.events[1]
                            if isinstance(e, CallEvent)
                            and e.fn == "Win_complete")
        wait_seq = next(e.seq for e in pre.events[0]
                        if isinstance(e, CallEvent) and e.fn == "Win_wait")
        assert oracle.happens_before(1, complete_seq, 0, wait_seq)
        assert oracle.happens_before(1, complete_seq - 1, 0, wait_seq + 1)
        assert not oracle.happens_before(0, wait_seq, 1, complete_seq)

    def test_pre_pscw_events_concurrent(self):
        pre, _m, oracle = build(self._pscw_app, 2)
        # the pre-PSCW markers on the two ranks are unordered (no sync
        # between the initial collective and the markers themselves)
        marker0 = next(e.seq for e in pre.events[0]
                       if isinstance(e, CallEvent)
                       and e.fn == "Comm_rank")
        post_seq = next(e.seq for e in pre.events[0]
                        if isinstance(e, CallEvent) and e.fn == "Win_post")
        start_seq = next(e.seq for e in pre.events[1]
                         if isinstance(e, CallEvent)
                         and e.fn == "Win_start")
        # post itself is not ordered after rank 1's start
        assert not oracle.happens_before(1, start_seq, 0, post_seq)


class TestSpans:
    def test_point_spans_same_rank_ordered(self):
        pre, _m, oracle = build(lambda mpi: mpi.barrier(), 2)
        assert oracle.ordered(Span.point(0, 1), Span.point(0, 2))

    def test_same_epoch_rma_spans_concurrent(self):
        # spans [2, 9] and [5, 9] at one rank overlap -> unordered
        pre, _m, oracle = build(lambda mpi: mpi.barrier(), 2)
        assert oracle.concurrent(Span(0, 2, 9), Span(0, 5, 9))

    def test_store_inside_op_span_concurrent(self):
        pre, _m, oracle = build(lambda mpi: mpi.barrier(), 2)
        assert oracle.concurrent(Span(0, 2, 9), Span.point(0, 5))

    def test_store_before_issue_ordered(self):
        pre, _m, oracle = build(lambda mpi: mpi.barrier(), 2)
        assert oracle.ordered(Span.point(0, 1), Span(0, 2, 9))


def _random_workload(seed):
    def app(mpi):
        rng = random.Random(900 + seed)
        for _ in range(10):
            action = rng.choice(["barrier", "p2p", "local"])
            if action == "barrier":
                mpi.barrier()
            elif action == "p2p":
                src = rng.randrange(mpi.size)
                dst = (src + 1) % mpi.size
                if mpi.rank == src:
                    mpi.send("m", dest=dst, tag=0)
                elif mpi.rank == dst:
                    mpi.recv(source=src, tag=0)
            else:
                mpi.comm_rank()
    return app


def _random_spans(pre, rng, n):
    max_seq = max(len(events) for events in pre.events.values()) + 4
    spans = []
    for _ in range(n):
        rank = rng.randrange(pre.nranks)
        a, b = rng.randrange(max_seq), rng.randrange(max_seq)
        lo, hi = min(a, b), max(a, b)
        if rng.random() < 0.1:
            hi = 1 << 60  # open-ended epoch span
        spans.append(Span(rank, lo, hi))
    return spans


class TestBatchedQueries:
    """``ordered_batch`` must agree with pairwise ``ordered`` everywhere —
    it is the inner loop of the batched cross-process detector."""

    @pytest.mark.parametrize("seed", range(3))
    def test_ordered_batch_matches_pairwise(self, seed):
        pre, _m, oracle = build(_random_workload(seed), 3, seed=seed)
        rng = random.Random(seed)
        spans = _random_spans(pre, rng, 60)
        for b in _random_spans(pre, rng, 20):
            expected = [oracle.ordered(s, b) for s in spans]
            assert oracle.ordered_spans(spans, b).tolist() == expected

    def test_pickle_roundtrip_preserves_answers(self):
        import pickle

        pre, _m, oracle = build(_random_workload(0), 3, seed=0)
        clone = pickle.loads(pickle.dumps(oracle))
        rng = random.Random(7)
        spans = _random_spans(pre, rng, 40)
        for b in _random_spans(pre, rng, 10):
            assert (clone.ordered_spans(spans, b).tolist()
                    == oracle.ordered_spans(spans, b).tolist())
        for a_rank in range(pre.nranks):
            for b_rank in range(pre.nranks):
                for a_seq in range(0, 12, 3):
                    for b_seq in range(0, 12, 3):
                        assert (clone.happens_before(a_rank, a_seq,
                                                     b_rank, b_seq)
                                == oracle.happens_before(a_rank, a_seq,
                                                         b_rank, b_seq))


class TestDifferentialAgainstDAG:
    """The vector-clock oracle must agree with Figure-4 DAG reachability on
    every non-RMA event pair (RMA vertices deliberately diverge: the DAG
    hangs them between epoch boundaries)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_random_workload(self, seed):
        def app(mpi):
            rng = random.Random(500 + seed)
            for _ in range(8):
                action = rng.choice(["barrier", "p2p", "subbarrier",
                                     "local"])
                if action == "barrier":
                    mpi.barrier()
                elif action == "subbarrier":
                    sub_members = sorted(rng.sample(range(mpi.size), 2))
                    color = 0 if mpi.rank in sub_members else -1
                    sub = mpi.comm_split(color=color, key=mpi.rank)
                    if sub is not None:
                        mpi.barrier(comm=sub)
                elif action == "p2p":
                    src = rng.randrange(mpi.size)
                    dst = (src + 1) % mpi.size
                    if mpi.rank == src:
                        mpi.send("m", dest=dst, tag=0)
                    elif mpi.rank == dst:
                        mpi.recv(source=src, tag=0)
                else:
                    mpi.comm_rank()

        _assert_agrees_with_dag(*build(app, 3, seed=seed), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_pscw_lock_programs(self, seed):
        """Fence / lock / lock_all / PSCW / nonblocking-barrier / p2p
        mixes: every directed-match kind and the collective exits."""
        rng = random.Random(900 + seed)
        steps = [rng.choice(STEP_KINDS) for _ in range(6)] + ["pscw", "lock"]
        rng.shuffle(steps)
        _assert_agrees_with_dag(
            *build(sync_program, 3, params=dict(steps=steps, seed=seed),
                   seed=seed), seed)

    @pytest.mark.parametrize("case", BUG_CASES + EXTRA_CASES,
                             ids=lambda c: c.name)
    def test_agreement_table2_corpus(self, case):
        _assert_agrees_with_dag(
            *build(case.app, min(case.nranks, 8),
                   params=case.params(True)), seed=0)


def _assert_agrees_with_dag(pre, matches, oracle, seed):
    """``happens_before`` of the oracle — and of a pickled copy, the form
    pool workers receive — equals DAG reachability on sampled pairs."""
    dag = build_dag(pre, matches, EpochIndex(pre))
    shipped = pickle.loads(pickle.dumps(oracle))
    nodes = [
        (rank, e.seq) for rank in range(pre.nranks)
        for e in pre.events[rank]
        if not (isinstance(e, CallEvent) and e.fn in RMA_COMM_CALLS)
    ]
    # sync calls and their neighbours are where an oracle goes wrong
    syncs = [(rank, seq) for rank in range(pre.nranks)
             for seq in oracle.sync_seqs[rank]]
    rng = random.Random(seed)
    samples = rng.sample(nodes, min(len(nodes), 15)) + \
        rng.sample(syncs, min(len(syncs), 10))
    for a_rank, a_seq in samples:
        for b_rank, b_seq in samples:
            if (a_rank, a_seq) == (b_rank, b_seq):
                continue
            expected = happens_before(dag, event_node(a_rank, a_seq),
                                      event_node(b_rank, b_seq))
            for name, o in (("oracle", oracle), ("pickled", shipped)):
                actual = o.happens_before(a_rank, a_seq, b_rank, b_seq)
                assert actual == expected, (
                    f"{name}={actual} dag={expected} for "
                    f"({a_rank},{a_seq}) -> ({b_rank},{b_seq})")
