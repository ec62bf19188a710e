"""Collective operation semantics."""

import numpy as np
import pytest

from repro.simmpi import INT, run_app
from repro.util.errors import SimMPIError


class TestBarrier:
    def test_orders_phases(self):
        log = []

        def app(mpi, log):
            log.append(("pre", mpi.rank))
            mpi.barrier()
            log.append(("post", mpi.rank))

        run_app(app, nranks=3, params={"log": log}, sched_policy="random",
                seed=5)
        phases = [phase for phase, _ in log]
        assert phases[:3] == ["pre"] * 3 and phases[3:] == ["post"] * 3


class TestBcast:
    def test_object(self):
        def app(mpi):
            value = {"v": 42} if mpi.rank == 1 else None
            return mpi.bcast(value, root=1)

        assert run_app(app, nranks=3) == [{"v": 42}] * 3

    def test_buffer_in_place(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT,
                            fill=7 if mpi.rank == 0 else 0)
            mpi.bcast(buf, root=0)
            return buf.read().tolist()

        assert run_app(app, nranks=3) == [[7, 7, 7, 7]] * 3

    def test_partial_buffer(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT, fill=mpi.rank)
            mpi.bcast(buf, root=0, offset=1, count=2)
            return buf.read().tolist()

        results = run_app(app, nranks=2)
        assert results[1] == [1, 0, 0, 1]


class TestReductions:
    def test_reduce_sum_at_root(self):
        def app(mpi):
            out = mpi.reduce([mpi.rank + 1], op="SUM", root=2)
            return None if out is None else out.tolist()

        results = run_app(app, nranks=4)
        assert results == [None, None, [10], None]

    def test_allreduce_max(self):
        def app(mpi):
            return mpi.allreduce([float(mpi.rank), -float(mpi.rank)],
                                 op="MAX").tolist()

        assert run_app(app, nranks=3) == [[2.0, 0.0]] * 3

    def test_allreduce_prod(self):
        def app(mpi):
            return float(mpi.allreduce([mpi.rank + 1], op="PROD")[0])

        assert run_app(app, nranks=4) == [24.0] * 4

    def test_scan_inclusive(self):
        def app(mpi):
            return int(mpi.scan([1], op="SUM")[0])

        assert run_app(app, nranks=4) == [1, 2, 3, 4]

    def test_invalid_op_rejected(self):
        def app(mpi):
            mpi.allreduce([1], op="REPLACE")  # not a reduction op

        with pytest.raises(SimMPIError):
            run_app(app, nranks=2)


class TestGatherScatter:
    def test_gather(self):
        def app(mpi):
            return mpi.gather(mpi.rank * 10, root=0)

        results = run_app(app, nranks=3)
        assert results[0] == [0, 10, 20]
        assert results[1] is None

    def test_allgather(self):
        def app(mpi):
            return mpi.allgather(chr(ord("a") + mpi.rank))

        assert run_app(app, nranks=3) == [["a", "b", "c"]] * 3

    def test_scatter(self):
        def app(mpi):
            chunks = [[i, i] for i in range(mpi.size)] \
                if mpi.rank == 1 else None
            return mpi.scatter(chunks, root=1)

        assert run_app(app, nranks=3) == [[0, 0], [1, 1], [2, 2]]

    def test_alltoall(self):
        def app(mpi):
            return mpi.alltoall([f"{mpi.rank}->{d}"
                                 for d in range(mpi.size)])

        results = run_app(app, nranks=3)
        assert results[1] == ["0->1", "1->1", "2->1"]


class TestMismatchDetection:
    def test_different_collectives_same_slot(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.barrier()
            else:
                mpi.bcast("x", root=0)

        with pytest.raises(SimMPIError, match="collective mismatch"):
            run_app(app, nranks=2)


class TestSubCommunicators:
    def test_collective_on_split(self):
        def app(mpi):
            sub = mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            total = mpi.allreduce([mpi.rank], op="SUM", comm=sub)
            return int(total[0])

        # evens {0,2} sum to 2, odds {1,3} sum to 4
        assert run_app(app, nranks=4) == [2, 4, 2, 4]

    def test_undefined_color_gets_none(self):
        def app(mpi):
            sub = mpi.comm_split(color=-1 if mpi.rank == 0 else 0)
            return sub is None

        assert run_app(app, nranks=3) == [True, False, False]

    def test_comm_split_rank_order_by_key(self):
        def app(mpi):
            sub = mpi.comm_split(color=0, key=-mpi.rank)
            return mpi.comm_rank(sub)

        # keys reverse the order
        assert run_app(app, nranks=3) == [2, 1, 0]

    def test_comm_dup_independent_matching(self):
        def app(mpi):
            dup = mpi.comm_dup()
            if mpi.rank == 0:
                mpi.send("on-dup", dest=1, comm=dup, tag=1)
                mpi.send("on-world", dest=1, tag=1)
                return None
            world_msg, _ = mpi.recv(source=0, tag=1)  # world comm only
            dup_msg, _ = mpi.recv(source=0, comm=dup, tag=1)
            return world_msg, dup_msg

        assert run_app(app, nranks=2)[1] == ("on-world", "on-dup")

    def test_comm_create_subset(self):
        def app(mpi):
            group = mpi.comm_group().incl([0, 2])
            sub = mpi.comm_create(group)
            if sub is None:
                return None
            return mpi.comm_size(sub)

        assert run_app(app, nranks=4) == [2, None, 2, None]


class TestExtendedCollectives:
    def test_exscan(self):
        def app(mpi):
            out = mpi.exscan([mpi.rank + 1], op="SUM")
            return None if out is None else int(out[0])

        # rank 0 undefined (None); rank i gets sum of 1..i
        assert run_app(app, nranks=4) == [None, 1, 3, 6]

    def test_exscan_prod(self):
        def app(mpi):
            out = mpi.exscan([2], op="PROD")
            return None if out is None else int(out[0])

        assert run_app(app, nranks=4) == [None, 2, 4, 8]

    def test_reduce_scatter(self):
        def app(mpi):
            send = [float(mpi.rank)] * 4  # 4 elements, counts (1,1,2)
            return mpi.reduce_scatter(send, counts=[1, 1, 2]).tolist()

        results = run_app(app, nranks=3)
        total = 0.0 + 1.0 + 2.0
        assert results == [[total], [total], [total, total]]

    def test_reduce_scatter_counts_mismatch(self):
        def app(mpi):
            mpi.reduce_scatter([1.0, 2.0], counts=[1])

        with pytest.raises(SimMPIError, match="counts"):
            run_app(app, nranks=2)

    def test_reduce_scatter_size_mismatch(self):
        def app(mpi):
            mpi.reduce_scatter([1.0, 2.0, 3.0], counts=[1, 1])

        with pytest.raises(SimMPIError, match="summing"):
            run_app(app, nranks=2)

    def test_gatherv_scatterv_objects(self):
        def app(mpi):
            chunk = list(range(mpi.rank + 1))  # ragged sizes
            gathered = mpi.gatherv(chunk, root=0)
            spread = mpi.scatterv(
                gathered if mpi.rank == 0 else None, root=0)
            return spread

        results = run_app(app, nranks=3)
        assert results == [[0], [0, 1], [0, 1, 2]]

    def test_exscan_matches_region_semantics(self):
        from repro import run_check

        def app(mpi):
            mpi.exscan([1], op="SUM")
            mpi.reduce_scatter([1.0] * mpi.size,
                               counts=[1] * mpi.size)

        report = run_check(app, nranks=3)
        assert not report.findings
        # both calls are global collectives: 2 cuts -> 3 regions
        assert report.stats.regions == 3
