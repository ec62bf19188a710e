"""Overhead-app tests: correctness, race-freedom, and event-mix shape."""

from dataclasses import replace

import numpy as np
import pytest

from repro import run_check
from repro.apps.boltzmann import boltzmann
from repro.apps.lennard_jones import lennard_jones
from repro.apps.lu import lu, _block_bounds, _owner_of
from repro.apps.scf import scf
from repro.apps.skampi import skampi
from repro.profiler.events import MemEvent
from repro.profiler.session import profile_run
from repro.simmpi import run_app

SMALL = {
    "lu": (lu, dict(n=16)),
    "lj": (lennard_jones, dict(particles_per_rank=2, steps=2)),
    "scf": (scf, dict(basis_per_rank=3, iterations=2)),
    "boltzmann": (boltzmann, dict(cells_per_rank=6, steps=2)),
    "skampi": (skampi, dict(sizes=(4, 8), repeats=2)),
}


@pytest.mark.parametrize("name", sorted(SMALL), ids=sorted(SMALL))
class TestRaceFree:
    def test_no_findings(self, name):
        app, params = SMALL[name]
        report = run_check(app, nranks=4, params=params, delivery="random")
        assert not report.findings, report.format()

    @pytest.mark.parametrize("delivery", ["eager", "lazy"])
    def test_deterministic_across_delivery(self, name, delivery):
        """Race-free programs must compute the same result whether data
        moves at issue time or at epoch close."""
        app, params = SMALL[name]
        if name == "skampi":
            pytest.skip("returns timings, not deterministic values")
        a = run_app(app, nranks=4, params=params, delivery="eager")
        b = run_app(app, nranks=4, params=params, delivery=delivery)
        for x, y in zip(a, b):
            assert np.allclose(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))


class TestLU:
    def test_factorization_correct(self):
        for nranks in (1, 2, 4):
            results = run_app(lu, nranks=nranks,
                              params=dict(n=20, verify=True))
            assert max(results) < 1e-9

    def test_block_bounds_partition(self):
        n, size = 23, 5
        covered = []
        for rank in range(size):
            lo, hi = _block_bounds(n, size, rank)
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_owner_consistent_with_bounds(self):
        n, size = 17, 4
        for row in range(n):
            owner = _owner_of(n, size, row)
            lo, hi = _block_bounds(n, size, owner)
            assert lo <= row < hi

    def test_strong_scaling_event_profile(self):
        """The Figure 9/10 mechanism: per-rank load/store events shrink
        with rank count, per-rank MPI events stay roughly constant."""
        mem_per_rank, call_per_rank = {}, {}
        for nranks in (2, 4):
            run = profile_run(lu, nranks, params=dict(n=24))
            counts = run.traces.event_counts()
            mem_per_rank[nranks] = counts["mem"] / nranks
            call_per_rank[nranks] = counts["call"] / nranks
        assert mem_per_rank[4] < mem_per_rank[2]
        assert call_per_rank[4] == pytest.approx(call_per_rank[2],
                                                 rel=0.25)

    @pytest.mark.parametrize("trace_format", ("text", "binary"))
    def test_scalar_and_bulk_loops_emit_the_same_events(self, trace_format):
        """``lu(vectorized=True)`` stands for the per-row loop: one
        ``read_block(..., reps=nrows)`` is ``nrows`` pivot-row loads.
        Every rank's trace is the scalar loop's, event for event (seq,
        call arguments, access, address, size, variable), except for
        the line of that one load, which is another statement of
        ``lu``."""
        def events(vectorized):
            run = profile_run(lu, 4, seed=3, trace_format=trace_format,
                              params=dict(n=24, vectorized=vectorized))
            return [[replace(event, loc=replace(event.loc, lineno=0))
                     if isinstance(event, MemEvent)
                     and event.access == "load" else event
                     for event in run.traces.iter_events(rank)]
                    for rank in range(4)]
        scalar, bulk = events(False), events(True)
        assert sum(isinstance(event, MemEvent)
                   for rank in scalar for event in rank) > 200
        assert scalar == bulk


class TestBoltzmann:
    def test_mass_conserved(self):
        before_total = None
        results = run_app(boltzmann, nranks=4,
                          params=dict(cells_per_rank=8, steps=6))
        total = sum(results)
        # initial mass: sum over cells of rho (1.0 + bump)
        results0 = run_app(boltzmann, nranks=4,
                           params=dict(cells_per_rank=8, steps=0))
        assert total == pytest.approx(sum(results0), rel=1e-6)


class TestSKaMPI:
    def test_rows_cover_sweep(self):
        rows = run_app(skampi, nranks=4,
                       params=dict(sizes=(4, 8), repeats=1))[0]
        keys = {(r["op"], r["mode"], r["size"]) for r in rows}
        assert len(keys) == 3 * 2 * 2
        assert all(r["seconds"] >= 0 for r in rows)

    def test_odd_world_size(self):
        rows = run_app(skampi, nranks=3,
                       params=dict(sizes=(4,), repeats=1))[2]
        assert rows  # the unpaired rank participates in collectives only


class TestSCF:
    def test_converges_monotonically_runs(self):
        energy, iterations = run_app(
            scf, nranks=4, params=dict(basis_per_rank=3, iterations=5))[0]
        assert iterations >= 1
        assert np.isfinite(energy)


class TestLJ:
    def test_checksum_finite_and_shared(self):
        results = run_app(lennard_jones, nranks=3,
                          params=dict(particles_per_rank=2, steps=2))
        assert all(np.isfinite(v) for v in results)
