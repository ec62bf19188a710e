"""MPI-3 request-based RMA (Rput/Rget/Raccumulate) — runtime + checker."""

import pytest

from repro import run_check
from repro.simmpi import DOUBLE, INT, LOCK_SHARED, run_app


class TestRuntime:
    def test_rput_wait_completes(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=1)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rput(src, target=1, origin_count=1)
                req.wait()          # completes NOW, not at unlock
                src[0] = 99         # safe after wait
                mpi.send("done", dest=1)
                mpi.recv(source=1)
                win.unlock(1)
                observed = None
            else:
                mpi.recv(source=0)
                observed = buf[0]   # must be the pre-overwrite value
                mpi.send("seen", dest=0)
            mpi.barrier()
            win.free()
            return observed

        assert run_app(app, nranks=2, delivery="lazy")[1] == 1

    def test_rget_wait_makes_data_readable(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=5 * (mpi.rank + 1))
            dst = mpi.alloc("dst", 1, datatype=INT, fill=0)
            win = mpi.win_create(buf)
            mpi.barrier()
            value = None
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rget(dst, target=1, origin_count=1)
                req.wait()
                value = dst[0]      # defined after the wait
                win.unlock(1)
            mpi.barrier()
            win.free()
            return value

        assert run_app(app, nranks=2, delivery="lazy")[0] == 10

    def test_wait_is_idempotent_and_test_completes(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=3)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rput(src, target=1, origin_count=1)
                assert req.test() is True
                req.wait()
                req.wait()
                win.unlock(1)
            mpi.barrier()
            out = buf[0]
            win.free()
            return out

        assert run_app(app, nranks=2, delivery="lazy")[1] == 3

    def test_raccumulate(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=DOUBLE, fill=0.0)
            src = mpi.alloc("src", 1, datatype=DOUBLE, fill=2.0)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank != 0:
                win.lock(0, LOCK_SHARED)
                req = win.raccumulate(src, target=0, op="SUM",
                                      origin_count=1)
                req.wait()
                win.unlock(0)
            mpi.barrier()
            out = buf[0]
            win.free()
            return out

        assert run_app(app, nranks=4, delivery="lazy")[0] == 6.0

    def test_wait_preserves_issue_order(self):
        """Waiting on the second request applies the first one too."""
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            one = mpi.alloc("one", 1, datatype=INT, fill=1)
            two = mpi.alloc("two", 1, datatype=INT, fill=2)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.rput(one, target=1, origin_count=1)
                req2 = win.rput(two, target=1, origin_count=1)
                req2.wait()  # both land; issue order preserved
                win.unlock(1)
            mpi.barrier()
            out = buf[0]
            win.free()
            return out

        assert run_app(app, nranks=2, delivery="lazy")[1] == 2


class TestChecker:
    def test_access_after_wait_clean(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=1)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rput(src, target=1, origin_count=1)
                req.wait()
                src[0] = 99  # after the request completed: ordered
                win.unlock(1)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert not report.findings, report.format()

    def test_access_before_wait_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=1)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rput(src, target=1, origin_count=1)
                src[0] = 99  # BEFORE the wait: races with the Rput
                req.wait()
                win.unlock(1)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert report.has_errors
        fns = {report.errors[0].a.fn, report.errors[0].b.fn}
        assert "Rput" in fns

    def test_rget_read_before_wait_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=5)
            dst = mpi.alloc("dst", 1, datatype=INT, fill=0)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rget(dst, target=1, origin_count=1)
                _ = dst[0]  # undefined until the wait
                req.wait()
                win.unlock(1)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert report.has_errors

    def test_same_epoch_rputs_ordered_by_wait(self):
        """Two overlapping Rputs where the first is waited before the
        second issues: consistency-ordered, no race."""
        def app(mpi, use_wait):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=1)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                req = win.rput(src, target=1, origin_count=1)
                if use_wait:
                    req.wait()
                win.put(src, target=1, origin_count=1)
                win.unlock(1)
            mpi.barrier()
            win.free()

        flagged = run_check(app, nranks=2, params=dict(use_wait=False))
        clean = run_check(app, nranks=2, params=dict(use_wait=True))
        assert flagged.has_errors
        assert not clean.findings, clean.format()
