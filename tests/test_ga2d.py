"""2-D GlobalArray tests: strided sections, datatype-precise conflicts."""

import numpy as np
import pytest

from repro import run_check
from repro.ga.array2d import GlobalArray2D
from repro.simmpi import run_app


class TestSections:
    def test_put_get_roundtrip_within_owner(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 8, 6)
            if mpi.rank == 0:
                ga.put(0, 2, 1, 4, np.arange(6).reshape(2, 3))
            ga.sync()
            section = ga.get(0, 2, 0, 6)
            ga.destroy()
            return section.tolist()

        result = run_app(app, nranks=2, delivery="lazy")[1]
        assert result == [[0, 0, 1, 2, 0, 0], [0, 3, 4, 5, 0, 0]]

    def test_section_spanning_owners(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 9, 4)
            if mpi.rank == 0:
                values = np.arange(9 * 2).reshape(9, 2)
                ga.put(0, 9, 1, 3, values)  # crosses all three owners
            ga.sync()
            full = ga.get(0, 9, 0, 4)
            ga.destroy()
            return full

        full = run_app(app, nranks=3, delivery="lazy")[2]
        expected = np.zeros((9, 4))
        expected[:, 1:3] = np.arange(18).reshape(9, 2)
        assert np.array_equal(full, expected)

    def test_full_width_section_contiguous(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 6, 3)
            if mpi.rank == 1:
                ga.put(2, 4, 0, 3, np.ones((2, 3)) * 5)
            ga.sync()
            out = ga.get(2, 4, 0, 3)
            ga.destroy()
            return out.tolist()

        assert run_app(app, nranks=2)[0] == [[5, 5, 5], [5, 5, 5]]

    def test_acc_sections(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 4, 4)
            ga.acc(1, 3, 1, 3, np.ones((2, 2)))
            ga.sync()
            out = ga.get(0, 4, 0, 4)
            ga.destroy()
            return out

        out = run_app(app, nranks=4, delivery="random", seed=2)[0]
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 4.0
        assert np.array_equal(out, expected)

    def test_bad_columns_rejected(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 4, 4)
            ga.get(0, 2, 2, 6)

        with pytest.raises(IndexError):
            run_app(app, nranks=2)

    def test_to_numpy(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 5, 2)
            lo, hi = ga.distribution()
            ga.set_local(np.full((hi - lo, 2), float(mpi.rank)))
            ga.sync()
            full = ga.to_numpy()
            ga.destroy()
            return full

        full = run_app(app, nranks=2)[0]
        assert full.shape == (5, 2)
        assert set(full[:, 0]) == {0.0, 1.0}


class TestDatatypePrecision:
    """The reason 2-D sections matter for the checker: conflicts are
    byte-precise over the strided data-maps."""

    @staticmethod
    def _two_writers(mpi, cols_a, cols_b):
        ga = GlobalArray2D.create(mpi, "m", 4, 8)
        if mpi.rank == 0:
            ga.put(0, 4, cols_a[0], cols_a[1], np.ones((4, cols_a[1] - cols_a[0])))
        elif mpi.rank == 1:
            ga.put(0, 4, cols_b[0], cols_b[1],
                   2 * np.ones((4, cols_b[1] - cols_b[0])))
        ga.sync()
        ga.destroy()

    def test_same_rows_disjoint_columns_clean(self):
        """Interleaved row-sections with disjoint columns: the vector
        data-maps interleave but never overlap — no conflict."""
        report = run_check(self._two_writers, nranks=3,
                           params=dict(cols_a=(0, 3), cols_b=(3, 6)),
                           delivery="random")
        assert not report.findings, report.format()

    def test_overlapping_columns_flagged(self):
        report = run_check(self._two_writers, nranks=3,
                           params=dict(cols_a=(0, 4), cols_b=(3, 6)),
                           delivery="random")
        assert report.has_errors
        # the conflict column is exactly one element wide; the deduped
        # finding keeps the first target's share (rank 0 owns 2 of the 4
        # rows -> 2 strided 8-byte intervals) and counts one occurrence
        # per owning target rank
        put_put = [f for f in report.errors
                   if {f.a.kind, f.b.kind} == {"put"}]
        assert put_put
        finding = put_put[0]
        assert finding.occurrences == 3  # rows split over 3 target ranks
        assert finding.overlap.byte_count() == 2 * 8
        assert len(finding.overlap) == 2  # strided: two disjoint intervals

    def test_local_sweep_vs_remote_section(self):
        def app(mpi):
            ga = GlobalArray2D.create(mpi, "m", 4, 4)
            if mpi.rank == 1:
                ga.put(0, 2, 0, 2, np.ones((2, 2)))  # into rank 0's rows
            elif mpi.rank == 0:
                ga.local()[0] = 9.0  # unsynchronized local store
            ga.sync()
            ga.destroy()

        report = run_check(app, nranks=2, delivery="random")
        assert report.has_errors
