"""Concurrent-region extraction tests."""

import pytest

from repro.core.clocks import Span
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess
from repro.core.regions import RegionIndex
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.simmpi import INT


def regions_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    pre = preprocess(profile_run(app, nranks, **kw).traces)
    matches = match_synchronization(pre)
    return pre, RegionIndex(pre, matches)


class TestPartitioning:
    def test_n_barriers_make_n_plus_1_regions(self):
        def app(mpi):
            mpi.barrier()
            mpi.barrier()

        pre, regions = regions_for(app, 3)
        assert len(regions) == 3

    def test_no_global_sync_single_region(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.send("x", dest=1)
            elif mpi.rank == 1:
                mpi.recv(source=0)

        pre, regions = regions_for(app, 2)
        assert len(regions) == 1

    def test_subcomm_barrier_not_a_cut(self):
        def app(mpi):
            sub = mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            mpi.barrier(comm=sub)

        pre, regions = regions_for(app, 4)
        # Comm_split is a world collective (1 cut); the sub barriers are not
        assert len(regions) == 2

    def test_fence_is_a_cut_on_world_window(self):
        def app(mpi):
            buf = mpi.alloc("buf", 1, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            win.fence()
            win.free()

        pre, regions = regions_for(app, 2)
        # Win_create + 2 fences + Win_free = 4 cuts -> 5 regions
        assert len(regions) == 5


class TestMembership:
    def test_events_between_cuts(self):
        def app(mpi):
            mpi.comm_rank()   # region 0
            mpi.barrier()
            mpi.comm_rank()   # region 1

        pre, regions = regions_for(app, 2)
        barrier_seq = next(e.seq for e in pre.events[0]
                           if e.fn == "Barrier")
        assert regions.region_of_seq(0, barrier_seq - 1) == 0
        assert regions.region_of_seq(0, barrier_seq + 1) == 1
        assert regions.regions[0].contains_seq(0, barrier_seq - 1)
        assert not regions.regions[0].contains_seq(0, barrier_seq)

    def test_point_span_in_one_region(self):
        def app(mpi):
            mpi.barrier()
            mpi.comm_rank()

        pre, regions = regions_for(app, 2)
        barrier_seq = next(e.seq for e in pre.events[0]
                           if e.fn == "Barrier")
        span = Span.point(0, barrier_seq + 1)
        assert list(regions.regions_of_span(span)) == [1]

    def test_span_crossing_cut_in_both_regions(self):
        def app(mpi):
            mpi.comm_rank()
            mpi.barrier()
            mpi.comm_rank()

        pre, regions = regions_for(app, 2)
        barrier_seq = next(e.seq for e in pre.events[0]
                           if e.fn == "Barrier")
        span = Span(0, barrier_seq - 1, barrier_seq + 1)
        assert list(regions.regions_of_span(span)) == [0, 1]

    def test_span_ending_exactly_at_cut_stays_before(self):
        def app(mpi):
            mpi.comm_rank()
            mpi.barrier()

        pre, regions = regions_for(app, 2)
        barrier_seq = next(e.seq for e in pre.events[0]
                           if e.fn == "Barrier")
        # an epoch closing exactly at the cut does not extend past it
        span = Span(0, barrier_seq - 1, barrier_seq)
        assert list(regions.regions_of_span(span)) == [0]

    def test_open_ended_span_reaches_last_region(self):
        def app(mpi):
            mpi.barrier()
            mpi.barrier()

        pre, regions = regions_for(app, 2)
        span = Span(0, 0, 1 << 60)
        assert list(regions.regions_of_span(span)) == [0, 1, 2]


class TestSpanEdgeCases:
    """Boundary behavior the shard plan's region grouping relies on."""

    def _barrier_app(self):
        def app(mpi):
            mpi.comm_rank()
            mpi.barrier()
            mpi.comm_rank()
        return app

    def test_span_starting_exactly_on_cut(self):
        pre, regions = regions_for(self._barrier_app(), 2)
        barrier_seq = next(e.seq for e in pre.events[0]
                           if e.fn == "Barrier")
        # a span opening exactly at the cut lands in both adjacent
        # regions — a sound superset: every region-0 access ends at or
        # before the cut, so the oracle orders all the extra pairs away
        span = Span(0, barrier_seq, barrier_seq + 1)
        assert list(regions.regions_of_span(span)) == [0, 1]

    def test_cut_to_cut_span(self):
        def app(mpi):
            mpi.barrier()
            mpi.comm_rank()
            mpi.barrier()

        pre, regions = regions_for(app, 2)
        first, second = [e.seq for e in pre.events[0]
                         if e.fn == "Barrier"]
        # opening at one cut and closing at the next covers exactly the
        # region between them (plus the sound extra region before)
        span = Span(0, first, second)
        assert list(regions.regions_of_span(span)) == [0, 1]

    def test_span_entirely_past_last_cut(self):
        pre, regions = regions_for(self._barrier_app(), 2)
        barrier_seq = next(e.seq for e in pre.events[0]
                           if e.fn == "Barrier")
        span = Span(0, barrier_seq + 3, barrier_seq + 9)
        assert list(regions.regions_of_span(span)) == [len(regions) - 1]

    def test_span_far_beyond_trace_clamps_to_last_region(self):
        pre, regions = regions_for(self._barrier_app(), 2)
        span = Span(0, 1 << 59, 1 << 60)
        assert list(regions.regions_of_span(span)) == [len(regions) - 1]

    def test_single_region_trace(self):
        def app(mpi):
            mpi.comm_rank()
            mpi.comm_rank()

        pre, regions = regions_for(app, 2)
        assert len(regions) == 1
        for span in (Span.point(0, 0), Span(0, 0, 5),
                     Span(1, 2, 1 << 60)):
            assert list(regions.regions_of_span(span)) == [0]
