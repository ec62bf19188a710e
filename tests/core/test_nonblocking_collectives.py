"""MPI-3 nonblocking collectives: runtime semantics and the analysis the
paper's section V lists as omitted from its implementation."""

import pytest

from repro import run_check
from repro.core.clocks import ConcurrencyOracle
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, INT, LOCK_SHARED, run_app


class TestRuntime:
    def test_ibarrier_completes(self):
        def app(mpi):
            req = mpi.ibarrier()
            mpi.wait(req)
            return mpi.rank

        assert run_app(app, nranks=3) == [0, 1, 2]

    def test_ibarrier_allows_work_before_wait(self):
        order = []

        def app(mpi):
            req = mpi.ibarrier()
            order.append(("pre-wait", mpi.rank))  # not blocked by others
            mpi.wait(req)
            order.append(("post-wait", mpi.rank))

        run_app(app, nranks=2)
        assert ("pre-wait", 0) in order and ("post-wait", 1) in order

    def test_ibcast_lands_at_wait(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT,
                            fill=7 if mpi.rank == 0 else 0)
            req = mpi.ibcast(buf, root=0)
            before = buf.read().tolist() if mpi.rank != 0 else None
            mpi.wait(req)
            after = buf.read().tolist()
            return before, after

        results = run_app(app, nranks=3)
        assert results[1] == ([0, 0], [7, 7])

    def test_mixed_blocking_and_nonblocking_collectives(self):
        def app(mpi):
            req = mpi.ibarrier()
            mpi.barrier()  # a blocking collective between init and wait
            mpi.wait(req)
            return mpi.allreduce([1], op="SUM")[0]

        assert list(run_app(app, nranks=3)) == [3, 3, 3]


class TestHappensBefore:
    def _app(self, mpi):
        mpi.comm_rank()          # pre-init marker
        req = mpi.ibarrier()
        mpi.comm_rank()          # between init and wait: NOT synchronized
        mpi.wait(req)
        mpi.comm_rank()          # post-wait marker

    def _oracle(self):
        pre = preprocess(profile_run(self._app, 2).traces)
        matches = match_synchronization(pre)
        return pre, ConcurrencyOracle(pre, matches)

    @staticmethod
    def _seqs(pre, rank, fn):
        return [e.seq for e in pre.events[rank]
                if isinstance(e, CallEvent) and e.fn == fn]

    def test_pre_init_orders_before_post_wait(self):
        pre, oracle = self._oracle()
        pre0 = self._seqs(pre, 0, "Comm_rank")[0]
        post1 = self._seqs(pre, 1, "Comm_rank")[2]
        assert oracle.happens_before(0, pre0, 1, post1)

    def test_between_init_and_wait_not_synchronized(self):
        """The defining nonblocking property: work between initiation and
        Wait is concurrent with the other ranks' pre-barrier work."""
        pre, oracle = self._oracle()
        mid0 = self._seqs(pre, 0, "Comm_rank")[1]
        mid1 = self._seqs(pre, 1, "Comm_rank")[1]
        pre1 = self._seqs(pre, 1, "Comm_rank")[0]
        assert not oracle.happens_before(0, mid0, 1, mid1)
        assert not oracle.happens_before(1, pre1, 0, mid0)

    def test_pre_init_not_ordered_to_mid_region(self):
        pre, oracle = self._oracle()
        pre0 = self._seqs(pre, 0, "Comm_rank")[0]
        mid1 = self._seqs(pre, 1, "Comm_rank")[1]
        assert not oracle.happens_before(0, pre0, 1, mid1)


class TestDetection:
    def _rma_app(self, mpi, access_before_wait):
        buf = mpi.alloc("buf", 2, datatype=DOUBLE)
        src = mpi.alloc("src", 1, datatype=DOUBLE)
        win = mpi.win_create(buf)
        mpi.barrier()
        if mpi.rank == 0:
            win.lock(1, LOCK_SHARED)
            win.put(src, target=1, origin_count=1)
            win.unlock(1)
        req = mpi.ibarrier()
        if mpi.rank == 1 and access_before_wait:
            buf[0] = 3.0  # before the wait: NOT ordered after the Put
        mpi.wait(req)
        if mpi.rank == 1 and not access_before_wait:
            buf[0] = 3.0  # after the wait: ordered
        mpi.barrier()
        win.free()

    def test_access_after_wait_clean(self):
        report = run_check(self._rma_app, nranks=2,
                           params=dict(access_before_wait=False))
        assert not report.findings, report.format()

    def test_access_before_wait_flagged(self):
        report = run_check(self._rma_app, nranks=2,
                           params=dict(access_before_wait=True))
        assert report.has_errors

    def test_ibarrier_not_a_region_cut(self):
        """A nonblocking barrier must not truncate concurrent regions the
        way a blocking one does."""
        from repro.core.regions import RegionIndex

        def app(mpi):
            mpi.barrier()
            req = mpi.ibarrier()
            mpi.wait(req)
            mpi.barrier()

        pre = preprocess(profile_run(app, 2).traces)
        matches = match_synchronization(pre)
        regions = RegionIndex(pre, matches)
        assert len(regions) == 3  # only the two blocking barriers cut
