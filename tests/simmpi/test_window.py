"""RMA window semantics: fence, lock/unlock, PSCW, usage validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi import (
    DOUBLE, INT, LOCK_EXCLUSIVE, LOCK_SHARED, SUM, run_app,
)
from repro.simmpi.window import Window
from repro.util.errors import DeadlockError, RMAUsageError


class TestFenceEpochs:
    @pytest.mark.parametrize("delivery", ["eager", "lazy", "random"])
    def test_put_visible_after_fence(self, delivery):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT, fill=0)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                buf.write([1, 2, 3, 4])
                win.put(buf, target=1)
            win.fence()
            out = buf.read().tolist()
            win.free()
            return out

        assert run_app(app, nranks=2, delivery=delivery)[1] == [1, 2, 3, 4]

    def test_lazy_put_reads_origin_at_fence(self):
        """The defining nonblocking behaviour: under lazy delivery a Put
        transmits whatever the origin buffer holds at epoch close."""
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                buf[0] = 1
                win.put(buf, target=1, origin_count=1)
                buf[0] = 99  # the buggy overwrite
            win.fence()
            out = buf[0]
            win.free()
            return out

        assert run_app(app, nranks=2, delivery="lazy")[1] == 99
        assert run_app(app, nranks=2, delivery="eager")[1] == 1

    def test_get_roundtrip(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE,
                            fill=float(mpi.rank + 1))
            dst = mpi.alloc("dst", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            win.get(dst, target=(mpi.rank + 1) % mpi.size)
            win.fence()
            out = dst.read().tolist()
            win.free()
            return out

        assert run_app(app, nranks=3) == [[2.0, 2.0], [3.0, 3.0],
                                          [1.0, 1.0]]

    def test_put_outside_epoch_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            if mpi.rank == 0:
                win.put(buf, target=1, origin_count=1)  # no fence yet

        with pytest.raises(RMAUsageError, match="outside any access epoch"):
            run_app(app, nranks=2)

    def test_put_beyond_window_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1, target_disp=3, origin_count=4)
            win.fence()

        with pytest.raises(RMAUsageError, match="exceeds window size"):
            run_app(app, nranks=2)

    def test_target_disp_units(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=DOUBLE, fill=0.0)
            src = mpi.alloc("src", 1, datatype=DOUBLE, fill=5.0)
            win = mpi.win_create(buf)  # disp_unit = 8
            win.fence()
            if mpi.rank == 0:
                win.put(src, target=1, target_disp=2, origin_count=1)
            win.fence()
            out = buf.read().tolist()
            win.free()
            return out

        assert run_app(app, nranks=2)[1] == [0.0, 0.0, 5.0, 0.0]


class TestAccumulate:
    @pytest.mark.parametrize("delivery", ["eager", "lazy"])
    def test_concurrent_sum(self, delivery):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=DOUBLE, fill=0.0)
            src = mpi.alloc("src", 1, datatype=DOUBLE,
                            fill=float(mpi.rank + 1))
            win = mpi.win_create(buf)
            win.fence()
            win.accumulate(src, target=0, op=SUM, origin_count=1)
            win.fence()
            out = buf[0]
            win.free()
            return out

        results = run_app(app, nranks=4, delivery=delivery)
        assert results[0] == 1 + 2 + 3 + 4

    def test_replace(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT, fill=0)
            src = mpi.alloc("src", 2, datatype=INT, fill=9)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 1:
                win.accumulate(src, target=0, op="REPLACE")
            win.fence()
            out = buf.read().tolist()
            win.free()
            return out

        assert run_app(app, nranks=2)[0] == [9, 9]

    def test_type_mismatch_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.accumulate(src, target=1, op=SUM, origin_count=1,
                               target_count=2)
            win.fence()

        from repro.util.errors import SimMPIError
        with pytest.raises(SimMPIError):
            run_app(app, nranks=2)


class TestLocks:
    def test_exclusive_serializes(self):
        """Read-modify-write under exclusive locks loses no updates.

        Eager delivery makes the Get's value available inside the epoch,
        so the increment chain is atomic under lock serialization.  (With
        lazy delivery reading ``dst`` inside the epoch would itself be the
        Figure-1 consistency bug.)
        """
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=DOUBLE, fill=0.0)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            dst = mpi.alloc("dst", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank != 0:
                win.lock(0, LOCK_EXCLUSIVE)
                win.get(dst, target=0, origin_count=1)
                src[0] = dst[0] + 1.0
                win.put(src, target=0, origin_count=1)
                win.unlock(0)
            mpi.barrier()
            out = buf[0]
            win.free()
            return out

        results = run_app(app, nranks=5, sched_policy="random", seed=3,
                          delivery="eager")
        assert results[0] == 4.0

    def test_unlock_without_lock_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            if mpi.rank == 0:
                win.unlock(1)

        with pytest.raises(RMAUsageError, match="without a held lock"):
            run_app(app, nranks=2)

    def test_double_lock_same_target_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.lock(1, LOCK_SHARED)

        with pytest.raises(RMAUsageError, match="already holds a lock"):
            run_app(app, nranks=2)

    def test_shared_locks_coexist(self):
        """Two ranks hold shared locks on the same target simultaneously;
        with exclusive locks the same schedule would serialize."""
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT, fill=0)
            dst = mpi.alloc("dst", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank in (1, 2):
                win.lock(0, LOCK_SHARED)
                mpi.barrier()  # both must be inside their epoch to pass
                win.get(dst, target=0, origin_count=1)
                win.unlock(0)
            else:
                mpi.barrier()
            mpi.barrier()
            win.free()

        run_app(app, nranks=3)  # deadlock would be raised if they excluded

    def test_exclusive_blocks_second_locker(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank in (1, 2):
                win.lock(0, LOCK_EXCLUSIVE)
                mpi.barrier()  # both inside simultaneously: impossible
                win.unlock(0)
            else:
                mpi.barrier()

        with pytest.raises(DeadlockError):
            run_app(app, nranks=3)


class TestPSCW:
    def test_basic_transfer(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=42)
            win = mpi.win_create(buf)
            world = mpi.comm_group()
            if mpi.rank == 0:
                win.start(world.incl([1]))
                win.put(src, target=1, origin_count=1)
                win.complete()
                received = None
            else:
                win.post(world.incl([0]))
                win.wait()
                received = buf[0]
            mpi.barrier()
            win.free()
            return received

        assert run_app(app, nranks=2, delivery="lazy")[1] == 42

    def test_start_blocks_until_post(self):
        order = []

        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            world = mpi.comm_group()
            if mpi.rank == 0:
                win.start(world.incl([1]))
                order.append("started")
                win.complete()
            else:
                for _ in range(4):
                    mpi.world.scheduler.yield_point(mpi.rank)
                order.append("posting")
                win.post(world.incl([0]))
                win.wait()
            mpi.barrier()
            win.free()

        run_app(app, nranks=2)
        assert order == ["posting", "started"]

    def test_wait_blocks_until_complete(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            world = mpi.comm_group()
            if mpi.rank == 0:
                win.post(world.incl([1, 2]))
                win.wait()
                return "exposed"
            win.start(world.incl([0]))
            win.complete()
            return "accessed"

        assert run_app(app, nranks=3)[0] == "exposed"

    def test_complete_without_start_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            if mpi.rank == 0:
                win.complete()

        with pytest.raises(RMAUsageError, match="without an open access"):
            run_app(app, nranks=2)

    def test_put_to_nonexposed_target_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            world = mpi.comm_group()
            if mpi.rank == 0:
                win.start(world.incl([1]))
                win.put(buf, target=2, origin_count=1)  # 2 not in group
                win.complete()
            elif mpi.rank == 1:
                win.post(world.incl([0]))
                win.wait()

        with pytest.raises(RMAUsageError, match="outside any access epoch"):
            run_app(app, nranks=3)


class TestWinLifecycle:
    def test_free_with_pending_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1, origin_count=1)
                win.free()  # without closing the epoch
            else:
                win.free()

        with pytest.raises(RMAUsageError, match="pending RMA"):
            run_app(app, nranks=2, delivery="lazy")

    def test_use_after_free_rejected(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.free()
            win.fence()

        with pytest.raises(RMAUsageError, match="already freed"):
            run_app(app, nranks=2)

    def test_window_on_subcomm(self):
        def app(mpi):
            sub = mpi.comm_split(color=0 if mpi.rank < 2 else 1,
                                 key=mpi.rank)
            buf = mpi.alloc("buf", 1, datatype=INT, fill=mpi.rank)
            win = mpi.win_create(buf, comm=sub)
            win.fence()
            if mpi.comm_rank(sub) == 0:
                win.put(buf, target=1, origin_count=1)
            win.fence()
            out = buf[0]
            win.free()
            return out

        # within each pair, rank-0-of-pair's value lands at rank 1 of pair
        assert run_app(app, nranks=4) == [0, 0, 2, 2]


class _ListLockTable:
    """The lock table as a list of ``(origin, lock type)`` per target,
    scanned on every question: the model the window's table answers
    like."""

    def __init__(self):
        self.holders = {}

    def grantable(self, target, lock_type):
        holders = self.holders.get(target, [])
        if lock_type == LOCK_EXCLUSIVE:
            return not holders
        return all(t != LOCK_EXCLUSIVE for _o, t in holders)

    def holds(self, target, origin):
        return any(o == origin for o, _t in self.holders.get(target, []))

    def grant(self, target, origin, lock_type):
        self.holders.setdefault(target, []).append((origin, lock_type))

    def release(self, target, origin):
        holders = self.holders.get(target, [])
        for i, (o, _t) in enumerate(holders):
            if o == origin:
                del holders[i]
                return True
        return False


_LOCK_OPS = st.lists(st.tuples(
    st.sampled_from(["grantable", "grant", "release"]),
    st.integers(0, 2), st.integers(0, 3),
    st.sampled_from([LOCK_SHARED, LOCK_EXCLUSIVE])), max_size=60)


@given(_LOCK_OPS)
@settings(max_examples=300, deadline=None)
def test_prop_lock_table_answers_like_the_list_model(ops):
    """Grant / release / grantable sequences: a grant only where the
    runtime makes one (the lock is grantable and the origin holds none
    on that target), a release also without a lock, which raises."""
    window, model = Window(0, None), _ListLockTable()
    for op, target, origin, lock_type in ops:
        assert window.lock_grantable(target, lock_type) == \
            model.grantable(target, lock_type)
        if op == "grant" and model.grantable(target, lock_type) \
                and not model.holds(target, origin):
            window.grant_lock(target, origin, lock_type)
            model.grant(target, origin, lock_type)
        elif op == "release":
            if model.release(target, origin):
                window.release_lock(target, origin)
            else:
                with pytest.raises(RMAUsageError, match=(
                        f"window 0: rank {origin} unlocked target {target} "
                        "without holding a lock")):
                    window.release_lock(target, origin)
