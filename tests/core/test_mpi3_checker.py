"""DN-Analyzer over MPI-3 extensions: flush consistency points, lock_all
epochs, atomics compatibility, and the unified memory model."""

import pytest

from repro import CheckConfig, run_check
from repro.core.compat import (
    MODEL_SEPARATE, MODEL_UNIFIED, compat_verdict, table_entry,
)
from repro.simmpi import DOUBLE, INT, LOCK_SHARED


class TestUnifiedModelTable:
    def test_error_cells_soften_to_nonov(self):
        assert table_entry("store", "put", MODEL_UNIFIED) == "NONOV"
        assert table_entry("store", "acc", MODEL_UNIFIED) == "NONOV"

    def test_other_cells_unchanged(self):
        for pair in (("load", "put"), ("get", "put"), ("load", "load")):
            assert table_entry(*pair, MODEL_UNIFIED) == \
                table_entry(*pair, MODEL_SEPARATE)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            table_entry("load", "put", "psychic")

    def test_verdict_under_unified(self):
        assert compat_verdict("store", "put", overlapping=False,
                              model=MODEL_UNIFIED) is None
        assert compat_verdict("store", "put", overlapping=True,
                              model=MODEL_UNIFIED) == "NONOV"


def _store_vs_put_app(mpi):
    """Local store at the target, remote Put to *disjoint* window bytes."""
    buf = mpi.alloc("buf", 2, datatype=DOUBLE)
    src = mpi.alloc("src", 1, datatype=DOUBLE)
    win = mpi.win_create(buf)
    mpi.barrier()
    if mpi.rank == 0:
        win.lock(1, LOCK_SHARED)
        win.put(src, target=1, target_disp=0, origin_count=1)
        win.unlock(1)
    else:
        buf[1] = 3.0  # disjoint byte
    mpi.barrier()
    win.free()


class TestMemoryModelSwitch:
    def test_separate_model_flags_disjoint_store(self):
        report = run_check(_store_vs_put_app, nranks=2, config=CheckConfig(
            memory_model=MODEL_SEPARATE))
        assert report.has_errors

    def test_unified_model_permits_disjoint_store(self):
        report = run_check(_store_vs_put_app, nranks=2, config=CheckConfig(
            memory_model=MODEL_UNIFIED))
        assert not report.findings

    def test_unified_model_still_flags_overlap(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, target_disp=1, origin_count=1)
                win.unlock(1)
            else:
                buf[1] = 3.0  # same byte as the Put
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2, config=CheckConfig(
            memory_model=MODEL_UNIFIED))
        assert report.has_errors


class TestFlushConsistency:
    def test_flush_ends_the_race_window(self):
        """A store to the origin buffer after Win_flush is safe — the
        paper's Figure 2a bug pattern, cured by an MPI-3 flush."""
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, origin_count=1)
                win.flush(1)
                src[0] = 99.0  # AFTER the flush: ordered, no race
                win.unlock(1)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert not report.findings

    def test_without_flush_still_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, origin_count=1)
                src[0] = 99.0  # no flush: races with the pending Put
                win.unlock(1)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert report.has_errors

    def test_flush_orders_same_epoch_ops(self):
        """Two overlapping Puts in one lock epoch are a race — unless a
        flush sits between them."""
        def base(mpi, with_flush):
            buf = mpi.alloc("buf", 1, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, origin_count=1)
                if with_flush:
                    win.flush(1)
                win.put(src, target=1, origin_count=1)
                win.unlock(1)
            mpi.barrier()
            win.free()

        flagged = run_check(base, nranks=2, params=dict(with_flush=False))
        clean = run_check(base, nranks=2, params=dict(with_flush=True))
        assert flagged.has_errors
        assert not clean.findings


class TestAtomicsCompat:
    def test_concurrent_fetch_and_ops_compatible(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            one = mpi.alloc("one", 1, datatype=INT, fill=1)
            old = mpi.alloc("old", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank != 0:
                win.lock(0, LOCK_SHARED)
                win.fetch_and_op(one, old, target=0, op="SUM")
                win.unlock(0)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=4)
        assert not report.findings  # same op + same type: Table I's BOTH*

    def test_fetch_and_op_vs_put_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            one = mpi.alloc("one", 1, datatype=INT, fill=1)
            old = mpi.alloc("old", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 1:
                win.lock(0, LOCK_SHARED)
                win.fetch_and_op(one, old, target=0, op="SUM")
                win.unlock(0)
            elif mpi.rank == 2:
                win.lock(0, LOCK_SHARED)
                win.put(one, target=0, origin_count=1)
                win.unlock(0)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=3)
        assert report.has_errors
        fns = {f.a.fn for f in report.errors} | \
            {f.b.fn for f in report.errors}
        assert "Get_accumulate" in fns

    def test_mixed_op_atomics_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            one = mpi.alloc("one", 1, datatype=INT, fill=1)
            old = mpi.alloc("old", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank != 0:
                win.lock(0, LOCK_SHARED)
                op = "SUM" if mpi.rank == 1 else "MAX"
                win.fetch_and_op(one, old, target=0, op=op)
                win.unlock(0)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=3)
        assert report.has_errors

    def test_result_buffer_race_detected(self):
        """Reading the fetch result before the op completes races, exactly
        like reading a Get's destination (Figure 1 with MPI-3 calls)."""
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            one = mpi.alloc("one", 1, datatype=INT, fill=1)
            old = mpi.alloc("old", 1, datatype=INT)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 1:
                win.lock(0, LOCK_SHARED)
                win.fetch_and_op(one, old, target=0, op="SUM")
                _ = old[0]  # before unlock/flush: undefined
                win.unlock(0)
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert report.has_errors


class TestLockAllEpochs:
    def test_ops_in_lock_all_epoch_analyzed(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=1)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank in (0, 1):
                win.lock_all()
                win.put(src, target=2, origin_count=1)
                win.unlock_all()
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=3)
        assert report.has_errors  # two concurrent overlapping Puts

    def test_clean_lock_all_quiet(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=INT, fill=0)
            src = mpi.alloc("src", 1, datatype=INT, fill=1)
            win = mpi.win_create(buf)
            mpi.barrier()
            win.lock_all()
            for target in range(mpi.size):
                if target != mpi.rank:
                    win.put(src, target=target, target_disp=mpi.rank,
                            origin_count=1)
            win.unlock_all()
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=4)
        assert not report.findings
