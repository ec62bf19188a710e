"""Streaming-checker tests: equivalence with batch, bounded buffering."""

import pytest

from repro.apps.emulate import emulate
from repro.apps.jacobi import jacobi
from repro.apps.lockopts import lockopts
from repro.apps.lu import lu
from repro.apps.pingpong import pingpong
from repro.core.checker import check_traces
from repro.core.epochs import Epoch
from repro.core.streaming import (
    StreamingChecker, _EpochCursor, check_streaming,
)
from repro.profiler.session import profile_run

CASES = [
    ("emulate-buggy", emulate, 2, dict(buggy=True)),
    ("emulate-fixed", emulate, 2, dict(buggy=False)),
    ("jacobi-buggy", jacobi, 4, dict(buggy=True, interior=6, iterations=3)),
    ("jacobi-fixed", jacobi, 4, dict(buggy=False, interior=6, iterations=3)),
    ("lockopts-buggy", lockopts, 4, dict(buggy=True)),
    ("pingpong-buggy", pingpong, 2, dict(buggy=True)),
    ("lu-clean", lu, 4, dict(n=16)),
    ("lu16-clean", lu, 16, dict(n=48)),
]


@pytest.fixture(scope="module")
def traces_for():
    cache = {}

    def build(name):
        if name not in cache:
            _n, app, nranks, params = next(
                (c for c in CASES if c[0] == name))
            cache[name] = profile_run(app, nranks, params=params,
                                      delivery="random").traces
        return cache[name]
    return build


class TestEquivalence:
    @pytest.mark.parametrize("name", [c[0] for c in CASES])
    def test_same_findings_as_batch(self, name, traces_for):
        traces = traces_for(name)
        batch = check_traces(traces)
        streamed, _checker = check_streaming(traces)
        assert sorted(f.dedup_key for f in streamed) == \
            sorted(f.dedup_key for f in batch.findings), name


class TestBoundedMemory:
    def test_peak_buffer_below_total_mems(self, traces_for):
        """The streaming checker must never hold all load/store events at
        once when the trace has several regions."""
        traces = traces_for("lu-clean")
        total_mems = traces.event_counts()["mem"]
        _findings, checker = check_streaming(traces)
        assert len(checker.regions) > 4
        assert 0 < checker.peak_buffered_mems < total_mems / 4

    def test_region_reports_ordered(self, traces_for):
        checker = StreamingChecker(traces_for("jacobi-buggy"))
        indices = [report.index for report in checker.run()]
        assert indices == sorted(indices)

    def test_findings_attributed_to_regions(self, traces_for):
        checker = StreamingChecker(traces_for("jacobi-buggy"))
        flagged = [r for r in checker.run() if r.findings]
        assert flagged  # the races surface in their own regions


class TestEpochCursor:
    """The data pass visits an epoch from the region its opening call
    lies in until the region passing its close — never all unclosed
    epochs for every region (16-rank LU: 6.58 M probes before)."""

    def test_visits_track_open_epochs_not_all_epochs(self, traces_for,
                                                     monkeypatch):
        visits = []
        opened = _EpochCursor.opened

        def counting(self, rank, upto):
            live = opened(self, rank, upto)
            visits.append(len(live))
            return live
        monkeypatch.setattr(_EpochCursor, "opened", counting)
        traces = traces_for("lu16-clean")
        findings, checker = check_streaming(traces)
        assert not findings
        n_epochs = len(checker.epochs.access_epochs())
        n_regions = len(checker.regions)
        assert n_epochs > 1000 and n_regions > 100
        # one window, fence epochs only: at most the epoch being closed
        # and the one just opened are live at any rank in any region
        assert max(visits) <= 2
        assert sum(visits) <= 2 * (n_epochs + n_regions * 16)

    def test_same_peak_buffer_as_the_pairwise_pass(self, traces_for):
        """The packed data pass buffers no more than a per-event walk
        that holds one object per load/store did: 94 events at the
        peak, as that walk (deleted with the pairwise executor)
        measured on this program."""
        _f, checker = check_streaming(traces_for("lu16-clean"))
        assert checker.peak_buffered_mems == 94

    def test_order_and_lifetime(self):
        def epoch(rank, open_seq, close_seq):
            return Epoch(rank, 0, "fence", open_seq, close_seq)
        nested, outer, late, other = (epoch(0, 5, 7), epoch(0, 1, 20),
                                      epoch(0, 30, 40), epoch(1, 2, 9))
        never = Epoch(1, 0, "lock", 50)
        cursor = _EpochCursor([late, nested, other, outer, never], 2)
        assert cursor.opened(0, 4) == [outer]
        assert cursor.opened(0, 10) == [outer, nested]
        assert list(cursor.close([10, 10])) == [nested, other]
        assert cursor.opened(0, 10) == [outer]
        assert list(cursor.close([41, 41])) == [outer, late]
        assert list(cursor.unclosed()) == [never]


class TestTruncatedTraces:
    def test_open_epoch_still_checked(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1)
                buf[0] = 1.0  # race; epoch never closes

        traces = profile_run(app, 2, delivery="eager").traces
        findings, _checker = check_streaming(traces)
        assert any(f.severity == "error" for f in findings)
