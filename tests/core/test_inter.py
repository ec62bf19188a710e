"""Cross-process detection tests (Figure 2b/2c/2d classes) + the naive
strawman differential."""

import pytest

from repro.core.checker import check_traces
from repro.core.clocks import ConcurrencyOracle
from repro.core.diagnostics import (
    CROSS_PROCESS, SEVERITY_ERROR, SEVERITY_WARNING,
)
from repro.core.engine import detect_cross_process_sweep
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.model import build_access_model_sweep
from repro.core.preprocess import preprocess
from repro.core.regions import RegionIndex
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, INT, LOCK_EXCLUSIVE, LOCK_SHARED, SUM
from tests.reference.pairwise import (
    build_access_model, detect_cross_process, detect_cross_process_naive,
)


def stages_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    traces = profile_run(app, nranks, **kw).traces
    pre = preprocess(traces)
    matches = match_synchronization(pre)
    oracle = ConcurrencyOracle(pre, matches)
    epochs = EpochIndex(pre)
    model = build_access_model(pre, epochs)
    regions = RegionIndex(pre, matches)
    # the production sweep over the same stages must agree with the
    # paper's linear scan on every program this module writes
    sweep = detect_cross_process_sweep(
        pre, build_access_model_sweep(pre, epochs, traces), regions,
        oracle, epochs)
    scan = detect_cross_process(pre, model, regions, oracle, epochs)
    assert sorted(map(repr, (f.to_payload() for f in sweep))) == \
        sorted(map(repr, (f.to_payload() for f in scan)))
    return pre, model, regions, oracle, epochs


def findings_for(app, nranks, naive=False, **kw):
    pre, model, regions, oracle, epochs = stages_for(app, nranks, **kw)
    detect = detect_cross_process_naive if naive else detect_cross_process
    return detect(pre, model, regions, oracle, epochs)


class TestOpVsOp:
    def test_concurrent_overlapping_puts(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank in (0, 2):
                win.put(src, target=1)
            win.fence()
            win.free()

        findings = findings_for(app, 3)
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == CROSS_PROCESS and f.severity == SEVERITY_ERROR
        assert {f.a.rank, f.b.rank} == {0, 2}

    def test_disjoint_puts_ok(self):
        def app(mpi):
            buf = mpi.alloc("buf", 4, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank != 1:
                win.put(src, target=1, target_disp=mpi.rank, origin_count=1)
            win.fence()
            win.free()

        assert findings_for(app, 4) == []

    def test_concurrent_same_op_accumulates_ok(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank != 0:
                win.accumulate(src, target=0, op=SUM)
            win.fence()
            win.free()

        assert findings_for(app, 4) == []

    def test_mixed_op_accumulates_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 1:
                win.accumulate(src, target=0, op=SUM)
            elif mpi.rank == 2:
                win.accumulate(src, target=0, op="MIN")
            win.fence()
            win.free()

        assert len(findings_for(app, 3)) == 1

    def test_put_get_different_targets_ok(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(src, target=2)
            elif mpi.rank == 1:
                win.get(src, target=3)
            win.fence()
            win.free()

        assert findings_for(app, 4) == []

    def test_sendrecv_ordering_prunes(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(2, LOCK_SHARED)
                win.put(src, target=2)
                win.unlock(2)
                mpi.send("go", dest=1)
            elif mpi.rank == 1:
                mpi.recv(source=0)
                win.lock(2, LOCK_SHARED)
                win.put(src, target=2)
                win.unlock(2)
            mpi.barrier()
            win.free()

        assert findings_for(app, 3) == []

    def test_without_sendrecv_flagged(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank in (0, 1):
                win.lock(2, LOCK_SHARED)
                win.put(src, target=2)
                win.unlock(2)
            mpi.barrier()
            win.free()

        assert len(findings_for(app, 3)) == 1


class TestLocalVsOp:
    def test_target_store_vs_remote_put(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, target_disp=0, origin_count=1)
                win.unlock(1)
            else:
                buf[1] = 3.0  # no overlap with the Put's bytes, but ERROR
            mpi.barrier()
            win.free()

        findings = findings_for(app, 2)
        assert len(findings) == 1
        assert findings[0].rule == "ERROR"

    def test_target_load_vs_remote_put_needs_overlap(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, target_disp=0, origin_count=1)
                win.unlock(1)
            else:
                _ = buf[1]  # disjoint byte: allowed (NONOV, no overlap)
            mpi.barrier()
            win.free()

        assert findings_for(app, 2) == []

    def test_target_load_vs_overlapping_put(self):
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
                _ = buf[1]
            mpi.barrier()
            win.free()

        findings = findings_for(app, 2)
        assert len(findings) == 1
        assert findings[0].rule == "NONOV"

    def test_put_origin_read_vs_remote_put_into_same_window(self):
        """Rank 1's Put reads its own window memory as origin while rank 0
        Puts into that same memory — a get-like local access racing with a
        remote update (section IV-C-4's 'treat Put as local load')."""
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1)
                win.unlock(1)
            elif mpi.rank == 1:
                win.lock(2, LOCK_SHARED)
                win.put(buf, target=2)  # origin IS rank 1's window memory
                win.unlock(2)
            mpi.barrier()
            win.free()

        findings = findings_for(app, 3)
        assert any(f.a.fn == "Put" and f.b.fn == "Put" and
                   "load" in (f.a.kind, f.b.kind) for f in findings)

    def test_store_after_barrier_ok(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, origin_count=1)
                win.unlock(1)
            mpi.barrier()
            if mpi.rank == 1:
                buf[0] = 3.0  # separated by the barrier
            mpi.barrier()
            win.free()

        assert findings_for(app, 2) == []


class TestSeverity:
    def _lock_app(self, lock_type):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank in (0, 1):
                win.lock(2, lock_type)
                win.put(src, target=2)
                win.unlock(2)
            mpi.barrier()
            win.free()
        return app

    def test_shared_locks_error(self):
        findings = findings_for(self._lock_app(LOCK_SHARED), 3)
        assert findings[0].severity == SEVERITY_ERROR

    def test_exclusive_locks_warning(self):
        findings = findings_for(self._lock_app(LOCK_EXCLUSIVE), 3)
        assert findings[0].severity == SEVERITY_WARNING

    def test_mixed_locks_error(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            if mpi.rank in (0, 1):
                lock = LOCK_EXCLUSIVE if mpi.rank == 0 else LOCK_SHARED
                win.lock(2, lock)
                win.put(src, target=2)
                win.unlock(2)
            mpi.barrier()
            win.free()

        findings = findings_for(app, 3)
        assert findings[0].severity == SEVERITY_ERROR


class TestNaiveEquivalence:
    """The linear window-vector detector and the combinatorial strawman
    must report the same conflicts (experiment E7's correctness leg)."""

    @pytest.mark.parametrize("case", ["puts", "local", "locks"])
    def test_same_findings(self, case):
        from repro.apps.jacobi import jacobi
        from repro.apps.lockopts import lockopts
        from repro.apps.pingpong import pingpong

        app, nranks, params = {
            "puts": (jacobi, 3, dict(buggy=True, interior=6, iterations=2)),
            "local": (lockopts, 4, dict(buggy=True)),
            "locks": (pingpong, 2, dict(buggy=True)),
        }[case]

        pre, model, regions, oracle, epochs = stages_for(
            app, nranks, params=params)
        fast = detect_cross_process(pre, model, regions, oracle, epochs)
        naive = detect_cross_process_naive(pre, model, regions, oracle,
                                           epochs)

        def canonical(findings):
            return sorted(f.dedup_key for f in findings)

        assert canonical(fast) == canonical(naive)


class TestLocalLockIndex:
    """The bisect-based ``LocalLockIndex`` must answer exactly like a
    linear scan over every qualifying exclusive-lock epoch."""

    def _lock_heavy_app(self, mpi):
        buf = mpi.alloc("buf", 4, datatype=DOUBLE)
        win = mpi.win_create(buf)
        other = mpi.alloc("other", 2, datatype=DOUBLE)
        win2 = mpi.win_create(other)
        buf[0] = 1.0  # store outside any lock
        for i in range(3):
            win.lock(mpi.rank, lock_type=LOCK_EXCLUSIVE)
            buf[1] = float(i)  # store under a self-exclusive lock
            win.unlock(mpi.rank)
            buf[2] = float(i)  # store between lock epochs
        win.lock(mpi.rank, lock_type=LOCK_SHARED)
        buf[3] = 9.0  # shared lock does not qualify
        win.unlock(mpi.rank)
        target = (mpi.rank + 1) % mpi.size
        win.lock(target, lock_type=LOCK_EXCLUSIVE)
        buf[0] = 8.0  # remote-targeted lock does not qualify either
        win.unlock(target)
        win2.lock(mpi.rank, lock_type=LOCK_EXCLUSIVE)
        other[0] = 5.0  # covered, but only on win2
        win2.unlock(mpi.rank)
        mpi.barrier()
        win2.free()
        win.free()

    def test_bisect_index_matches_linear_scan(self):
        from repro.core.epochs import KIND_LOCK, LocalLockIndex

        pre, model, regions, oracle, epochs = stages_for(
            self._lock_heavy_app, 3)
        index = LocalLockIndex(epochs)

        def linear_scan(la, win_id):
            return any(
                e.kind == KIND_LOCK and e.lock_type == LOCK_EXCLUSIVE
                and e.target == e.rank and e.rank == la.rank
                and e.win_id == win_id and e.contains_seq(la.seq)
                for e in epochs.epochs)

        win_ids = sorted({e.win_id for e in epochs.epochs})
        assert len(win_ids) == 2 and model.local
        answers = set()
        for la in model.local:
            for win_id in win_ids:
                got = index.covers(la, win_id)
                assert got == linear_scan(la, win_id), (
                    f"rank={la.rank} seq={la.seq} win={win_id}")
                answers.add(got)
        # the workload must exercise both covered and uncovered accesses
        assert answers == {True, False}
