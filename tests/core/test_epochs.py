"""Epoch identification tests."""

import pytest

from repro.core.epochs import (
    EpochIndex, KIND_FENCE, KIND_LOCK, KIND_PSCW_ACCESS,
    KIND_PSCW_EXPOSURE, OPEN_ENDED,
)
from repro.core.preprocess import preprocess
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.simmpi import INT, LOCK_EXCLUSIVE, LOCK_SHARED
from tests.reference.epochs import enclosing, of_rank_win


def epochs_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    pre = preprocess(profile_run(app, nranks, **kw).traces)
    return pre, EpochIndex(pre)


def seqs_of(pre, rank, fn):
    return [e.seq for e in pre.events[rank]
            if isinstance(e, CallEvent) and e.fn == fn]


def overlapping_epochs(mpi):
    """Rank 0: start([1]) seq 3, lock(1) seq 4, Put seq 5, complete seq
    6, unlock(1) seq 8."""
    buf = mpi.alloc("buf", 1, datatype=INT)
    win = mpi.win_create(buf)
    world = mpi.comm_group()
    mpi.comm_rank()
    if mpi.rank == 0:
        win.start(world.incl([1]))
        win.lock(1, LOCK_SHARED)
        win.put(buf, target=1, origin_count=1)
        win.complete()
        mpi.comm_rank()
        win.unlock(1)
    else:
        win.post(world.incl([0]))
        win.wait()
    mpi.barrier()
    win.free()


class TestFenceEpochs:
    def test_between_consecutive_fences(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            win.fence()
            win.fence()
            win.free()

        pre, index = epochs_for(app, 2)
        fences = [e for e in of_rank_win(index, 0, 0)
                  if e.kind == KIND_FENCE]
        fence_seqs = seqs_of(pre, 0, "Win_fence")
        spans = sorted((e.open_seq, e.close_seq) for e in fences)
        # fence0->fence1, fence1->fence2, fence2->Win_free
        assert spans[0] == (fence_seqs[0], fence_seqs[1])
        assert spans[1] == (fence_seqs[1], fence_seqs[2])
        assert spans[2][0] == fence_seqs[2]

    def test_unclosed_fence_epoch_open_ended(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            # program ends without another fence or free

        pre, index = epochs_for(app, 2)
        epoch = of_rank_win(index, 0, 0)[0]
        assert epoch.close_seq == OPEN_ENDED
        assert epoch.contains_seq(10 ** 9)


class TestLockEpochs:
    def test_lock_unlock_pairing(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_EXCLUSIVE)
                win.unlock(1)
                win.lock(1, LOCK_SHARED)
                win.unlock(1)
            mpi.barrier()
            win.free()

        pre, index = epochs_for(app, 2)
        locks = [e for e in of_rank_win(index, 0, 0)
                 if e.kind == KIND_LOCK]
        assert [e.lock_type for e in locks] == ["exclusive", "shared"]
        assert all(e.target == 1 for e in locks)
        assert locks[0].close_seq < locks[1].open_seq

    def test_concurrent_locks_to_different_targets(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.lock(2, LOCK_SHARED)
                win.unlock(2)
                win.unlock(1)
            mpi.barrier()
            win.free()

        pre, index = epochs_for(app, 3)
        locks = {e.target: e for e in of_rank_win(index, 0, 0)
                 if e.kind == KIND_LOCK}
        assert set(locks) == {1, 2}
        # nested: epoch to target 2 is inside the epoch to target 1
        assert locks[1].open_seq < locks[2].open_seq
        assert locks[2].close_seq < locks[1].close_seq


class TestPSCWEpochs:
    def test_access_and_exposure(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            world = mpi.comm_group()
            if mpi.rank == 0:
                win.post(world.incl([1]))
                win.wait()
            else:
                win.start(world.incl([0]))
                win.complete()
            mpi.barrier()
            win.free()

        pre, index = epochs_for(app, 2)
        exposure = [e for e in of_rank_win(index, 0, 0)
                    if e.kind == KIND_PSCW_EXPOSURE]
        access = [e for e in of_rank_win(index, 1, 0)
                  if e.kind == KIND_PSCW_ACCESS]
        assert len(exposure) == 1 and exposure[0].group == (1,)
        assert len(access) == 1 and access[0].group == (0,)
        assert not exposure[0].is_access
        assert access[0].is_access


class TestEnclosing:
    def test_put_assigned_to_lock_epoch(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()  # an active fence epoch exists too
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(buf, target=1, origin_count=1)
                win.unlock(1)
            mpi.barrier()
            win.fence()
            win.free()

        pre, index = epochs_for(app, 2)
        put_seq = seqs_of(pre, 0, "Put")[0]
        epoch = index.enclosing(0, 0, put_seq, target=1)
        # the lock epoch is more specific than the enclosing fence epoch
        assert epoch.kind == KIND_LOCK

    def test_put_assigned_to_fence_epoch(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1, origin_count=1)
            win.fence()
            win.free()

        pre, index = epochs_for(app, 2)
        put_seq = seqs_of(pre, 0, "Put")[0]
        epoch = index.enclosing(0, 0, put_seq, target=1)
        assert epoch.kind == KIND_FENCE
        assert epoch.contains_seq(put_seq)

    def test_overlapping_pscw_and_lock_epochs_follow_one_rule(self):
        """A PSCW access epoch and a lock epoch to the same target that
        overlap without nesting: lock / PSCW before fence, the latest
        opened first — so the lock epoch, whichever lookup is asked."""
        import numpy as np

        from repro.core.model import OpTable
        from tests.reference.pairwise import LiftCache

        pre, index = epochs_for(overlapping_epochs, 2)
        seq = {fn: seqs_of(pre, 0, fn)[0]
               for fn in ("Win_start", "Win_lock", "Put", "Win_complete",
                          "Win_unlock")}
        assert list(seq.values()) == [3, 4, 5, 6, 8]
        epoch = enclosing(index, 0, 0, seq["Put"], target=1)  # the walk
        assert (epoch.kind, epoch.open_seq, epoch.close_seq) == \
            (KIND_LOCK, 4, 8)
        assert index.enclosing(0, 0, seq["Put"], target=1) is epoch
        rows = index.enclosing_rows(*(np.array([value]) for value in
                                      (0, 0, seq["Put"], 1)))
        assert index.epochs[rows[0]] is epoch
        assert LiftCache(index, 0).enclosing(0, seq["Put"], 1) is epoch
        # ... and the op completes where the checker's epoch closes
        table = OpTable(pre, index)
        assert index.epochs[table.epoch[0]] is epoch
        assert table.complete[0] == 8 == table.ops[0].complete_seq
        assert table.ops[0].epoch is epoch

    def test_lock_epoch_does_not_cover_other_targets(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.unlock(1)
            mpi.barrier()
            win.free()

        pre, index = epochs_for(app, 3)
        lock = [e for e in of_rank_win(index, 0, 0)
                if e.kind == KIND_LOCK][0]
        assert lock.covers_target(1)
        assert not lock.covers_target(2)

    def test_describe_smoke(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            win.free()

        pre, index = epochs_for(app, 2)
        assert "fence epoch" in index.epochs[0].describe()
