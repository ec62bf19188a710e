"""Synchronization matching tests (Algorithm 1) + differential testing."""

import pytest

from repro.core.matching import (
    KIND_COLLECTIVE, KIND_COMPLETE_WAIT, KIND_P2P, KIND_POST_START,
    match_synchronization,
)
from repro.core.preprocess import preprocess
from repro.profiler.session import profile_run
from repro.simmpi import ANY_SOURCE, ANY_TAG, INT
from tests.reference.matching import match_synchronization_naive


def matches_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    pre = preprocess(profile_run(app, nranks, **kw).traces)
    return pre, match_synchronization(pre)


def by_kind(matches, kind):
    return [m for m in matches if m.kind == kind]


class TestCollectives:
    def test_barrier_match_covers_all_ranks(self):
        pre, matches = matches_for(lambda mpi: mpi.barrier(), 4)
        colls = by_kind(matches, KIND_COLLECTIVE)
        barrier = [m for m in colls if m.fn == "Barrier"]
        assert len(barrier) == 1
        assert set(barrier[0].members) == {0, 1, 2, 3}

    def test_repeated_barriers_match_in_order(self):
        def app(mpi):
            for _ in range(3):
                mpi.barrier()

        pre, matches = matches_for(app, 2)
        barriers = [m for m in matches if m.fn == "Barrier"]
        assert len(barriers) == 3
        # k-th barrier at rank 0 pairs with k-th at rank 1
        seqs0 = [m.members[0] for m in barriers]
        seqs1 = [m.members[1] for m in barriers]
        assert seqs0 == sorted(seqs0) and seqs1 == sorted(seqs1)

    def test_fence_matches_on_window_comm(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            win.fence()
            win.free()

        pre, matches = matches_for(app, 3)
        fences = [m for m in matches if m.fn == "Win_fence"]
        assert len(fences) == 2
        assert all(len(m.members) == 3 for m in fences)
        assert all(m.win_id == 0 for m in fences)

    def test_subcomm_collective_matches_members_only(self):
        def app(mpi):
            sub = mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            mpi.barrier(comm=sub)

        pre, matches = matches_for(app, 4)
        barriers = [m for m in matches if m.fn == "Barrier"]
        memberships = sorted(tuple(sorted(m.members)) for m in barriers)
        assert memberships == [(0, 2), (1, 3)]

    def test_is_global_flag(self):
        def app(mpi):
            sub = mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            mpi.barrier(comm=sub)
            mpi.barrier()

        pre, matches = matches_for(app, 4)
        barriers = [m for m in matches if m.fn == "Barrier"]
        assert sorted(m.is_global(4) for m in barriers) == \
            [False, False, True]


class TestP2P:
    def test_send_recv_pair(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.send("x", dest=1, tag=5)
            else:
                mpi.recv(source=0, tag=5)

        pre, matches = matches_for(app, 2)
        p2p = by_kind(matches, KIND_P2P)
        assert len(p2p) == 1
        assert p2p[0].src[0] == 0 and p2p[0].dst[0] == 1

    def test_wildcard_recv_resolved(self):
        def app(mpi):
            if mpi.rank == 0:
                for _ in range(2):
                    mpi.recv(source=ANY_SOURCE, tag=ANY_TAG)
            else:
                mpi.send("m", dest=0, tag=mpi.rank)

        pre, matches = matches_for(app, 3)
        p2p = by_kind(matches, KIND_P2P)
        assert len(p2p) == 2
        assert {m.src[0] for m in p2p} == {1, 2}
        assert all(m.dst[0] == 0 for m in p2p)

    def test_fifo_same_channel(self):
        def app(mpi):
            if mpi.rank == 0:
                for i in range(4):
                    mpi.send(i, dest=1, tag=0)
            else:
                for i in range(4):
                    mpi.recv(source=0, tag=0)

        pre, matches = matches_for(app, 2)
        p2p = sorted(by_kind(matches, KIND_P2P), key=lambda m: m.src[1])
        dst_seqs = [m.dst[1] for m in p2p]
        assert dst_seqs == sorted(dst_seqs)  # k-th send -> k-th recv

    def test_isend_wait_irecv_matched(self):
        def app(mpi):
            if mpi.rank == 0:
                req = mpi.isend("x", dest=1, tag=2)
                mpi.wait(req)
            else:
                req = mpi.irecv(source=0, tag=2)
                mpi.wait(req)

        pre, matches = matches_for(app, 2)
        p2p = by_kind(matches, KIND_P2P)
        assert len(p2p) == 1
        # destination endpoint is the Wait event completing the irecv
        dst_rank, dst_seq = p2p[0].dst
        events = {e.seq: e for e in pre.events[dst_rank]}
        assert events[dst_seq].fn == "Wait"

    def test_unreceived_send_partial_match(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.send("lost", dest=1, tag=9)
            mpi.barrier()

        pre, matches = matches_for(app, 2)
        p2p = by_kind(matches, KIND_P2P)
        assert len(p2p) == 1
        assert p2p[0].dst is None


class TestPSCW:
    def test_post_start_complete_wait_edges(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            world = mpi.comm_group()
            if mpi.rank == 0:
                win.post(world.incl([1, 2]))
                win.wait()
            else:
                win.start(world.incl([0]))
                win.complete()
            mpi.barrier()
            win.free()

        pre, matches = matches_for(app, 3)
        ps = by_kind(matches, KIND_POST_START)
        cw = by_kind(matches, KIND_COMPLETE_WAIT)
        assert len(ps) == 2 and len(cw) == 2
        assert {m.dst[0] for m in ps} == {1, 2}  # post -> each starter
        assert {m.src[0] for m in cw} == {1, 2}  # each completer -> wait
        assert all(m.dst[0] == 0 for m in cw)


class TestDifferential:
    """Algorithm 1 must agree with the scan-from-the-beginning strawman."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_agree_on_random_workload(self, seed):
        import random

        def app(mpi):
            rng = random.Random(1000 + seed)  # same program on all ranks
            for _ in range(12):
                action = rng.choice(["barrier", "p2p", "bcast"])
                if action == "barrier":
                    mpi.barrier()
                elif action == "bcast":
                    mpi.bcast("x" if mpi.rank == 0 else None, root=0)
                else:
                    src = rng.randrange(mpi.size)
                    dst = (src + 1) % mpi.size
                    if mpi.rank == src:
                        mpi.send("m", dest=dst, tag=1)
                    elif mpi.rank == dst:
                        mpi.recv(source=src, tag=1)

        pre, fast = matches_for(app, 3, seed=seed)
        naive = match_synchronization_naive(pre)

        def canonical(matches):
            out = set()
            for m in matches:
                if m.kind == KIND_COLLECTIVE:
                    out.add(("coll", m.fn, tuple(sorted(m.members.items()))))
                elif m.kind == KIND_P2P:
                    out.add(("p2p", m.src, m.dst))
            return out

        assert canonical(fast) == canonical(naive)
