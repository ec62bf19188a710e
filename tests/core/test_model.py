"""Access-model lifting tests: RMA op views and local accesses."""

import pytest

from repro.core.compat import ACC, GET, LOAD, PUT, STORE
from repro.core.epochs import EpochIndex
from repro.core.preprocess import preprocess
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, INT, SUM
from tests.reference.pairwise import build_access_model


def model_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    pre = preprocess(profile_run(app, nranks, **kw).traces)
    epochs = EpochIndex(pre)
    return pre, build_access_model(pre, epochs)


class TestRMAOpViews:
    def test_put_target_intervals_in_target_space(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(src, target=1, target_disp=1, origin_count=2)
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        op = model.ops[0]
        assert op.kind == PUT and op.target == 1
        target_base = pre.window(0).bases[1]
        bounds = op.target_intervals.bounds()
        assert bounds.start == target_base + 8
        assert bounds.stop == target_base + 24

    def test_origin_intervals_with_offset(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=DOUBLE)
            src = mpi.alloc("src", 8, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(src, target=1, origin_offset=2, origin_count=3)
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        op = model.ops[0]
        origin_base = next(e for e in pre.events[0]
                           if getattr(e, "fn", None) == "Put") \
            .args["origin_base"]
        assert op.origin_intervals.bounds().start == origin_base + 16
        assert op.origin_intervals.byte_count() == 24

    def test_derived_target_datatype_intervals(self):
        def app(mpi):
            buf = mpi.alloc("buf", 8, datatype=INT)
            src = mpi.alloc("src", 2, datatype=INT)
            win = mpi.win_create(buf, disp_unit=1)
            vec = mpi.type_vector(2, 1, 2, INT)  # 2 ints, 1 int gap
            win.fence()
            if mpi.rank == 0:
                win.put(src, target=1, origin_count=2,
                        target_count=1, target_dtype=vec)
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        op = model.ops[0]
        assert len(op.target_intervals) == 2  # the vector's two segments

    def test_acc_metadata(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            src = mpi.alloc("src", 2, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.accumulate(src, target=1, op=SUM)
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        op = model.ops[0]
        assert op.kind == ACC
        assert op.acc_op == "SUM"
        assert op.acc_base == "INT"

    def test_span_extends_to_epoch_close(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1, origin_count=1)
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        op = model.ops[0]
        assert op.epoch is not None
        assert op.span.start_seq == op.seq
        assert op.span.end_seq == op.epoch.close_seq > op.seq


class TestLocalAccesses:
    def test_mem_events_lifted(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            buf[0] = 1.0
            x = buf[1]
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        mems = [la for la in model.local if la.fn == "mem"]
        assert {la.access for la in mems} == {LOAD, STORE}
        assert all(la.intervals.byte_count() == 8 for la in mems)

    def test_put_origin_is_load_get_origin_is_store(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            src = mpi.alloc("src", 2, datatype=INT)
            dst = mpi.alloc("dst", 2, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(src, target=1)
                win.get(dst, target=1)
            win.fence()
            win.free()

        pre, model = model_for(app, 2)
        origins = {la.fn: la for la in model.local
                   if la.origin_of is not None}
        assert origins["Put"].access == LOAD
        assert origins["Get"].access == STORE
        assert origins["Put"].span.end_seq == \
            origins["Put"].origin_of.epoch.close_seq

    def test_send_is_load_recv_is_store(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            if mpi.rank == 0:
                mpi.send(buf, dest=1)
            else:
                mpi.recv(buf, source=0)

        pre, model = model_for(app, 2)
        by_fn = {la.fn: la for la in model.local}
        assert by_fn["Send"].access == LOAD
        assert by_fn["Recv"].access == STORE
        assert by_fn["Recv"].intervals.byte_count() == 8

    def test_bcast_root_loads_others_store(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            mpi.bcast(buf, root=1)

        pre, model = model_for(app, 3)
        accesses = {la.rank: la.access for la in model.local
                    if la.fn == "Bcast"}
        assert accesses == {0: STORE, 1: LOAD, 2: STORE}

    def test_object_payload_calls_skipped(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.send({"k": 1}, dest=1)
            else:
                mpi.recv(source=0)

        pre, model = model_for(app, 2)
        assert model.local == []
