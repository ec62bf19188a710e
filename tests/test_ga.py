"""Global-Arrays layer tests: semantics, atomicity, and checkability."""

import numpy as np
import pytest

from repro import run_check
from repro.ga import GlobalArray
from repro.simmpi import run_app
from repro.util.errors import SimMPIError


class TestDistribution:
    def test_blocks_partition_range(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 23)
            spans = [ga.distribution(r) for r in range(mpi.size)]
            ga.destroy()
            return spans

        spans = run_app(app, nranks=5)[0]
        covered = [i for lo, hi in spans for i in range(lo, hi)]
        assert covered == list(range(23))

    def test_owner_consistent(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 17)
            owners = [ga.owner_of(i) for i in range(17)]
            ga.destroy()
            return owners

        owners = run_app(app, nranks=4)[0]
        for i, owner in enumerate(owners):
            assert owners == sorted(owners)  # contiguous blocks

    def test_too_small_rejected(self):
        def app(mpi):
            GlobalArray.create(mpi, "g", 2)

        with pytest.raises(SimMPIError):
            run_app(app, nranks=4)


class TestSectionOps:
    def test_put_get_roundtrip_across_owners(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 16)
            if mpi.rank == 0:
                ga.put(3, 13, np.arange(10, dtype=float))
            ga.sync()
            section = ga.get(0, 16)
            ga.destroy()
            return section.tolist()

        results = run_app(app, nranks=4, delivery="lazy")
        expected = [0.0] * 3 + list(map(float, range(10))) + [0.0] * 3
        assert all(r == expected for r in results)

    def test_concurrent_accumulate(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)
            ga.acc(0, 8, np.ones(8))
            ga.sync()
            total = ga.get(0, 8)
            ga.destroy()
            return total.tolist()

        results = run_app(app, nranks=4, delivery="random", seed=1)
        assert results[0] == [4.0] * 8

    def test_fill_and_to_numpy(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 10)
            ga.fill(2.5)
            full = ga.to_numpy()
            ga.destroy()
            return full.tolist()

        assert run_app(app, nranks=3)[1] == [2.5] * 10

    def test_out_of_range_section(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)
            ga.get(4, 9)

        with pytest.raises(IndexError):
            run_app(app, nranks=2)

    def test_use_after_destroy(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)
            ga.destroy()
            ga.get(0, 4)

        with pytest.raises(SimMPIError, match="destroyed"):
            run_app(app, nranks=2)


class TestReadInc:
    def test_atomic_counter(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "counter", mpi.size,
                                    datatype="INT")
            tickets = [ga.read_inc(0) for _ in range(3)]
            ga.sync()
            final = ga.get(0, 1)[0]
            ga.destroy()
            return tickets, int(final)

        results = run_app(app, nranks=4, delivery="random", seed=5)
        all_tickets = sorted(t for tickets, _f in results for t in tickets)
        assert all_tickets == list(range(12))  # atomic, no duplicates
        assert results[0][1] == 12

    def test_requires_integer_array(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)  # DOUBLE
            ga.read_inc(0)

        with pytest.raises(SimMPIError, match="integer"):
            run_app(app, nranks=2)


class TestCheckability:
    def test_clean_ga_program_quiet(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 4 * mpi.size)
            lo, hi = ga.distribution()
            ga.put(lo, hi, np.full(hi - lo, float(mpi.rank)))
            ga.sync()
            other = (mpi.rank + 1) % mpi.size
            olo, ohi = ga.distribution(other)
            _ = ga.get(olo, ohi)
            ga.sync()
            ga.acc(0, 4, np.ones(4))
            ga.destroy()

        report = run_check(app, nranks=3, delivery="random")
        assert not report.findings, report.format()

    def test_unsynchronized_puts_flagged(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)
            ga.put(0, 4, np.ones(4))  # every rank, same section, no sync
            ga.sync()
            ga.destroy()

        report = run_check(app, nranks=3, delivery="random")
        assert report.has_errors

    def test_local_access_race_flagged(self):
        """GA's classic misuse: touching local() while a remote section
        operation may be in flight (the paper's Figure 2d through the GA
        lens)."""
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)
            if mpi.rank == 1:
                ga.put(0, 4, np.ones(4))  # lands in rank 0's block
            elif mpi.rank == 0:
                ga.local()[0] = 7.0       # unsynchronized local store
            ga.sync()
            ga.destroy()

        report = run_check(app, nranks=2, delivery="random")
        assert report.has_errors

    def test_local_access_after_sync_clean(self):
        def app(mpi):
            ga = GlobalArray.create(mpi, "g", 8)
            if mpi.rank == 1:
                ga.put(0, 4, np.ones(4))
            ga.sync()
            if mpi.rank == 0:
                ga.local()[0] = 7.0       # ordered by GA_Sync
            ga.sync()
            ga.destroy()

        report = run_check(app, nranks=2, delivery="random")
        assert not report.findings
