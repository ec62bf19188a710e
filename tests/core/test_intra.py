"""Within-epoch conflict detection tests (Figure 2a class).

Each program goes through the paper's all-pairs walk
(``tests.reference.pairwise``) and through the production sweep kernel;
the assertions read the walk's findings after the two were found equal.
"""

import pytest

from repro.core.diagnostics import INTRA_EPOCH
from repro.core.engine import detect_intra_epoch_sweep
from repro.core.epochs import EpochIndex
from repro.core.model import build_access_model_sweep
from repro.core.preprocess import preprocess
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, INT, LOCK_SHARED, SUM
from tests.reference.pairwise import build_access_model, detect_intra_epoch


def findings_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    traces = profile_run(app, nranks, **kw).traces
    pre = preprocess(traces)
    epochs = EpochIndex(pre)
    found = detect_intra_epoch(build_access_model(pre, epochs), epochs)
    sweep = detect_intra_epoch_sweep(
        build_access_model_sweep(pre, epochs, traces), epochs)
    assert sorted(map(repr, (f.to_payload() for f in sweep))) == \
        sorted(map(repr, (f.to_payload() for f in found)))
    return found


def _win_app(body):
    """Wrap a two-rank fence-epoch body: body(mpi, win, bufs...)."""
    def app(mpi):
        buf = mpi.alloc("buf", 4, datatype=DOUBLE)
        aux = mpi.alloc("aux", 4, datatype=DOUBLE)
        win = mpi.win_create(buf)
        win.fence()
        if mpi.rank == 0:
            body(mpi, win, buf, aux)
        win.fence()
        win.free()
    return app


class TestOriginVsLocal:
    def test_store_after_put_flagged(self):
        def body(mpi, win, buf, aux):
            win.put(buf, target=1)
            buf[0] = 9.0

        findings = findings_for(_win_app(body), 2)
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == INTRA_EPOCH and f.rule == "ORIGIN"
        assert {f.a.kind, f.b.kind} == {"put", "store"}

    def test_store_before_put_ok(self):
        def body(mpi, win, buf, aux):
            buf[0] = 9.0
            win.put(buf, target=1)

        assert findings_for(_win_app(body), 2) == []

    def test_load_after_put_ok(self):
        def body(mpi, win, buf, aux):
            win.put(buf, target=1)
            _ = buf[0]

        assert findings_for(_win_app(body), 2) == []

    def test_load_after_get_flagged(self):
        def body(mpi, win, buf, aux):
            win.get(aux, target=1)
            _ = aux[0]

        findings = findings_for(_win_app(body), 2)
        assert len(findings) == 1
        assert {findings[0].a.kind, findings[0].b.kind} == {"get", "load"}

    def test_store_after_get_flagged(self):
        def body(mpi, win, buf, aux):
            win.get(aux, target=1)
            aux[1] = 2.0

        assert len(findings_for(_win_app(body), 2)) == 1

    def test_disjoint_bytes_ok(self):
        def body(mpi, win, buf, aux):
            win.put(buf, target=1, origin_offset=0, origin_count=2)
            buf[2] = 5.0  # outside the Put's origin bytes

        assert findings_for(_win_app(body), 2) == []

    def test_access_in_next_epoch_ok(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1)
            win.fence()
            buf[0] = 9.0  # epoch already closed
            win.fence()
            win.free()

        assert findings_for(app, 2) == []


class TestOpPairs:
    def test_two_overlapping_puts_same_epoch_flagged(self):
        def body(mpi, win, buf, aux):
            win.put(buf, target=1, origin_count=2)
            win.put(aux, target=1, origin_count=2)

        findings = findings_for(_win_app(body), 2)
        assert any(f.rule == "NONOV" and
                   {f.a.kind, f.b.kind} == {"put"} for f in findings)

    def test_disjoint_puts_same_epoch_ok(self):
        def body(mpi, win, buf, aux):
            win.put(buf, target=1, target_disp=0, origin_count=2)
            win.put(aux, target=1, target_disp=2, origin_count=2)

        assert findings_for(_win_app(body), 2) == []

    def test_same_op_accumulates_overlap_ok(self):
        def body(mpi, win, buf, aux):
            win.accumulate(buf, target=1, op=SUM, origin_count=2)
            win.accumulate(aux, target=1, op=SUM, origin_count=2)

        assert findings_for(_win_app(body), 2) == []

    def test_different_op_accumulates_overlap_flagged(self):
        def body(mpi, win, buf, aux):
            win.accumulate(buf, target=1, op=SUM, origin_count=2)
            win.accumulate(aux, target=1, op="MAX", origin_count=2)

        findings = findings_for(_win_app(body), 2)
        assert any(f.rule == "NONOV" for f in findings)

    def test_put_get_overlap_same_epoch_flagged(self):
        def body(mpi, win, buf, aux):
            win.put(buf, target=1, origin_count=2)
            win.get(aux, target=1, origin_count=2)

        findings = findings_for(_win_app(body), 2)
        assert any({f.a.kind, f.b.kind} == {"put", "get"} for f in findings)

    def test_gets_into_same_origin_flagged(self):
        def body(mpi, win, buf, aux):
            win.get(aux, target=1, target_disp=0, origin_count=1)
            win.get(aux, target=1, target_disp=1, origin_count=1)

        findings = findings_for(_win_app(body), 2)
        # disjoint target bytes, but the same origin buffer is written twice
        assert any(f.rule == "ORIGIN" for f in findings)

    def test_put_then_get_same_origin_flagged(self):
        def body(mpi, win, buf, aux):
            win.put(aux, target=1, target_disp=0, origin_count=1)
            win.get(aux, target=1, target_disp=1, origin_count=1)

        findings = findings_for(_win_app(body), 2)
        assert any(f.rule == "ORIGIN" for f in findings)


class TestLockEpochVariant:
    def test_figure1_in_lock_epoch(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            out = mpi.alloc("out", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.get(out, target=1, origin_count=1)
                _ = out[0]
                win.unlock(1)
            mpi.barrier()
            win.free()

        findings = findings_for(app, 2)
        assert len(findings) == 1
        assert findings[0].rule == "ORIGIN"

    def test_diagnostics_carry_locations(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1)
                buf[0] = 3
            win.fence()
            win.free()

        findings = findings_for(app, 2)
        f = findings[0]
        assert f.a.loc.filename.endswith("test_intra.py")
        assert f.b.loc.lineno == f.a.loc.lineno + 1
        assert "MPI_Put" in f.format()
