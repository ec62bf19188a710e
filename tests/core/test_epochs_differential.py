"""Epochs and regions as columns against the walks they replaced.

``repro.core.epochs.EpochIndex`` pairs every closing call with the row
before it in its group, ``repro.core.regions.RegionIndex`` scatters the
global matches into a cut matrix — array operations only.
``tests.reference.epochs`` keeps what they replaced: the per-rank state
machine that appends one ``Epoch`` per epoch, the per-call walk of the
epoch rule, the ``Region`` loop.  Over

* the random fence / PSCW / lock / ``lock_all`` / barrier programs of
  ``test_control_plane_differential.py`` (hypothesis),
* the sources of ``test_optable.py`` — the Table II corpus and extras,
  buggy and fixed; LU; heat2d; the MPI-3 mix (flushes, request waits);
  an epoch left open; 20 generated programs — in both trace formats,
* call sequences no simulator run produces, drawn at random (hypothesis)
  and hand-built: a close without an open of every kind, a re-lock
  before the unlock, ``Win_free`` then fences on the same window id,
  every kind left open at the end, two windows interleaved, a rank with
  no epoch call, a rank with no calls, completion points in between,
  lock types that are neither shared nor exclusive,

production's ``columns`` (all nine arrays and ``lock_types``),
``flushes``, ``req_waits``, ``enclosing_rows``, ``completion_rows``, the
``Epoch`` views and the error an unmatched close raises equal the
reference's, and so do ``cuts`` / ``bounds`` / ``region_of_seq`` /
``regions_of_span(s)`` and the ``Region`` views.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clocks import Span
from repro.core.epochs import EpochIndex, KIND_LOCK, LocalLockIndex
from repro.core.matching import (
    KIND_COLLECTIVE, SyncMatch, match_synchronization,
)
from repro.core.preprocess import PreprocessedTrace, preprocess_calls
from repro.core.regions import RegionIndex
from repro.profiler.events import CallEvent
from repro.simmpi import LOCK_EXCLUSIVE
from repro.util.errors import AnalysisError
from tests.core.test_control_plane_differential import (
    nranks_st, seed_st, steps_st, trace_for,
)
from tests.core.test_optable import FORMATS, SOURCES, lifted_for
from tests.reference.epochs import (
    ReferenceEpochIndex, ReferenceRegionIndex, enclosing,
)
from tests.reference.matching import match_table
from tests.reference.pairwise import completion_seq

#: query points per rank at most (evenly spaced over its calls)
QUERY_SEQS = 120


# ---------------------------------------------------------- comparisons


def raised(build, *args):
    """``(result, None)`` or ``(None, message)`` of a build that may
    refuse its input."""
    try:
        return build(*args), None
    except AnalysisError as exc:
        return None, str(exc)


def assert_epochs_equal(pre) -> None:
    ref, refused = raised(ReferenceEpochIndex, pre)
    index, message = raised(EpochIndex, pre)
    assert message == refused
    if refused is not None:
        return
    for name, want, got in zip(ref.columns._fields, ref.columns,
                               index.columns):
        if name == "lock_types":
            assert got == want
        else:
            assert got.dtype == np.int64, name
            np.testing.assert_array_equal(got, want, err_msg=name)
    for want, got in zip(ref.flushes + ref.req_waits,
                         index.flushes + index.req_waits):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    # the views: field by field the walk's objects, each built once
    assert len(index.epochs) == len(ref.epochs)
    assert list(index.epochs) == ref.epochs
    assert all(index.epochs[k] is epoch
               for k, epoch in enumerate(index.epochs))
    assert_lookups_equal(pre, ref, index)
    assert_lock_index_equal(pre, ref, index)


def assert_lookups_equal(pre, ref, index) -> None:
    """``enclosing_rows`` against the per-call walk, ``completion_rows``
    against the scalar oracle — at issue points all over each rank's
    trace, for every window and request seen, for targets inside and
    outside the rank range."""
    row_of = {id(epoch): k for k, epoch in enumerate(ref.epochs)}
    wins = sorted(set(ref.columns.win.tolist())
                  | set(ref.flushes.win.tolist())) or [0]
    reqs = [None, 424242] + sorted(set(ref.req_waits.req.tolist()))
    targets = [-1, *range(pre.nranks), pre.nranks + 2]
    queries = []
    for rank in range(pre.nranks):
        seqs = pre.call_tables[rank].seq
        if not len(seqs):
            continue
        lo, hi = int(seqs.min()) - 1, int(seqs.max()) + 2
        for seq in range(lo, hi, max(1, (hi - lo) // QUERY_SEQS)):
            queries += [(rank, win, seq, target, req)
                        for win in wins for target in targets
                        for req in reqs]
    if not queries:
        return
    rank, win, seq, target = (np.array(col, dtype=np.int64)
                              for col in list(zip(*queries))[:4])
    has_req = np.array([q[4] is not None for q in queries])
    req = np.array([-1 if q[4] is None else q[4] for q in queries],
                   dtype=np.int64)
    rows = index.enclosing_rows(rank, win, seq, target)
    closes = index.completion_rows(rank, win, seq, target, rows, req,
                                   has_req)
    for k, query in enumerate(queries):
        epoch = enclosing(ref, *query[:4])
        assert rows[k] == (-1 if epoch is None else row_of[id(epoch)]), \
            query
        assert closes[k] == completion_seq(ref, *query[:4], epoch,
                                           req=query[4]), query
    # one call: the same row, as the remembered object
    for k in range(0, len(queries), max(1, len(queries) // 25)):
        got = index.enclosing(*queries[k][:4])
        assert got is (index.epochs[rows[k]] if rows[k] >= 0 else None)


def assert_lock_index_equal(pre, ref, index) -> None:
    """The lock index cut from the columns against a scan of the walk's
    epochs."""
    lock_index = LocalLockIndex(index)
    mine = [e for e in ref.epochs
            if e.kind == KIND_LOCK and e.lock_type == LOCK_EXCLUSIVE
            and e.target == e.rank]
    for epoch in mine:
        for seq in (epoch.open_seq, epoch.open_seq + 1, epoch.close_seq):
            for win_id in {e.win_id for e in mine}:
                la = SimpleNamespace(rank=epoch.rank, seq=seq)
                assert lock_index.covers(la, win_id) == any(
                    e.rank == la.rank and e.win_id == win_id
                    and e.contains_seq(seq) for e in mine), (epoch, seq)


def assert_regions_equal(pre, matches) -> None:
    ref, refused = raised(ReferenceRegionIndex, pre, matches)
    regions, message = raised(RegionIndex, pre, matches)
    assert message == refused
    if refused is not None:
        return
    assert regions.cuts.shape == ref.cuts.shape
    np.testing.assert_array_equal(regions.cuts, ref.cuts)
    assert regions.bounds.dtype == ref.bounds.dtype
    np.testing.assert_array_equal(regions.bounds, ref.bounds)
    assert len(regions) == len(regions.regions) == len(ref.regions)
    assert list(regions) == ref.regions
    assert all(regions.regions[k] is region
               for k, region in enumerate(regions.regions))
    spans = []
    for rank in range(pre.nranks):
        cuts = ref.cuts[rank].tolist()
        seqs = sorted({-1, 0, *(c + d for c in cuts for d in (-1, 0, 1))})
        seqs = seqs[::max(1, len(seqs) // 40)]
        for seq in seqs:
            assert regions.region_of_seq(rank, seq) == \
                ref.region_of_seq(rank, seq)
        spans += [Span(rank, a, b) for a in seqs for b in seqs if a <= b]
    for span in spans:
        assert regions.regions_of_span(span) == ref.regions_of_span(span)
    first, last = regions.regions_of_spans(
        *(np.array([getattr(span, name) for span in spans], dtype=np.int64)
          for name in ("rank", "start_seq", "end_seq")))
    assert [range(a, b + 1) for a, b in zip(first.tolist(), last.tolist())] \
        == [ref.regions_of_span(span) for span in spans]


# ------------------------------------------------- simulator-run traces


@given(steps_st, nranks_st, seed_st, st.sampled_from(FORMATS))
@settings(max_examples=25, deadline=None)
def test_prop_random_sync_programs(steps, nranks, seed, trace_format):
    pre = preprocess_calls(trace_for(steps, seed, nranks, trace_format))
    assert_epochs_equal(pre)
    assert_regions_equal(pre, match_synchronization(pre))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("source", SOURCES)
def test_sources(source, fmt, tmp_path_factory):
    pre = lifted_for(source, fmt, tmp_path_factory).pre
    assert_epochs_equal(pre)
    assert_regions_equal(pre, match_synchronization(pre))


# ----------------------------------------- what no simulator run produces


def hand_built(*ranks) -> PreprocessedTrace:
    """A trace set of the given calls — per rank a list of ``(fn,
    args)``, the position being the seq."""
    return PreprocessedTrace({
        rank: [CallEvent(rank, seq, fn, dict(args))
               for seq, (fn, args) in enumerate(calls)]
        for rank, calls in enumerate(ranks)})


def fence(win=0):
    return "Win_fence", dict(win=win, comm=0)


def free(win=0):
    return "Win_free", dict(win=win, comm=0)


def lock(target, win=0, lock_type="exclusive"):
    return "Win_lock", dict(win=win, target=target, lock_type=lock_type)


def unlock(target, win=0):
    return "Win_unlock", dict(win=win, target=target)


def lock_all(win=0):
    return "Win_lock_all", dict(win=win)


def unlock_all(win=0):
    return "Win_unlock_all", dict(win=win)


def start(group, win=0):
    return "Win_start", dict(win=win, group=list(group))


def complete(win=0):
    return "Win_complete", dict(win=win)


def post(group, win=0):
    return "Win_post", dict(win=win, group=list(group))


def wait(win=0):
    return "Win_wait", dict(win=win)


def flush(target, win=0):
    return "Win_flush", dict(win=win, target=target)


def flush_all(win=0):
    return "Win_flush_all", dict(win=win)


def rma_wait(req, win=0):
    return "Rma_wait", dict(win=win, req=req)


OTHER = ("Comm_rank", {})

HAND_BUILT = {
    "unlock-without-lock": ([fence(), unlock(1)], [fence()]),
    "unlock-of-another-target": ([lock(1), unlock(2)],),
    "unlock-of-another-window": ([lock(1), unlock(1, win=1)],),
    "unlock-twice": ([lock(1), unlock(1), unlock(1)],),
    "unlock-all-without-lock-all": ([lock(0), unlock_all()],),
    "unlock-without-lock-but-lock-all": ([lock_all(), unlock(0)],),
    "complete-without-start": ([post([1]), complete()],),
    "wait-without-post": ([start([1]), wait()],),
    "first-offender-in-rank-order": (
        [OTHER, OTHER, OTHER, lock(1), unlock(1), wait()],
        [complete(), unlock(0)]),
    "second-rank-offends": ([fence(), fence()], [OTHER, unlock_all()]),
    "relock-before-unlock": (
        [lock(1, lock_type="shared"), OTHER, lock(1), unlock(1),
         lock(1), lock(1), lock(1, lock_type="shared")],),
    "restart-and-repost": (
        [start([1]), start([1, 2]), complete(), post([2]), post([]),
         wait(), start([0])],),
    "free-then-fences-on-the-same-id": (
        [fence(), fence(), free(), free(), fence(), fence(), free(),
         fence()],),
    "free-first": ([free(), fence(), free()],),
    "every-kind-left-open": (
        [post([1]), start([1, 0]), lock_all(), lock(1), fence(1),
         fence(), lock(0, lock_type="shared"), fence(), post([0], win=1)],
        [lock(0), fence(), lock_all(win=1), start([0])]),
    "open-ended-order-follows-the-first-open": (
        [fence(1), fence(0), free(1), lock(2), lock(1), fence(1),
         unlock(2), lock(2), lock(1), start([1], win=1), start([2]),
         complete(win=1), start([0], win=1), post([1], win=1), post([2]),
         wait(win=1), post([0], win=1), lock_all(1), lock_all(),
         unlock_all(1), lock_all(1)],),
    "two-windows-interleaved": (
        [fence(0), fence(1), lock(1, win=1), lock(1, win=0), fence(0),
         unlock(1, win=0), fence(1), unlock(1, win=1), free(1), fence(0),
         free(0)],
        [fence(0), fence(1), fence(0), fence(1), free(1), fence(0),
         free(0)]),
    "a-rank-with-no-epoch-call-and-one-with-no-calls": (
        [OTHER, OTHER], [], [fence(), OTHER, fence(), free()]),
    "no-calls-at-all": ([], []),
    "completion-points-in-between": (
        [lock_all(), flush(1), rma_wait(3), OTHER, flush_all(),
         rma_wait(3), flush(2), unlock_all(), flush(0), rma_wait(4),
         lock(1), flush(1), flush(1), rma_wait(4, win=1),
         flush_all(win=1), unlock(1), flush_all()],
        [rma_wait(3), flush(0), fence(), flush_all(), fence()]),
    "lock-types-neither-shared-nor-exclusive": (
        [lock(1, lock_type="odd"), unlock(1), lock(0, lock_type="weird"),
         lock(2, lock_type="shared"), unlock(0), unlock(2),
         lock(2, lock_type="odd"), unlock(2), lock(0)],
        [lock(0, lock_type="weird"), unlock(0), lock_all(), unlock_all(),
         lock(1, lock_type="exclusive"), unlock(1)]),
    "self-exclusive-locks": (
        [lock(0), unlock(0), lock(0, win=1), lock(1), unlock(0, win=1),
         unlock(1), lock(0, lock_type="shared"), unlock(0), lock(0)],
        [lock(1), OTHER, unlock(1), lock(1), OTHER, OTHER, unlock(1)]),
    "no-window-argument": (
        [("Win_fence", dict(comm=0)), ("Win_fence", dict(comm=0)),
         fence(-1)],),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built(name):
    assert_epochs_equal(hand_built(*HAND_BUILT[name]))


def test_an_unmatched_close_keeps_its_text():
    for calls, message in (
            ([fence(), unlock(3)], "rank 1 seq 1: Win_unlock of target 3 "
                                   "without matching Win_lock"),
            ([unlock_all()], "rank 1 seq 0: Win_unlock_all without "
                             "matching Win_lock_all"),
            ([OTHER, complete()], "rank 1 seq 1: Win_complete without "
                                  "matching Win_start"),
            ([wait()], "rank 1 seq 0: Win_wait without matching "
                       "Win_post")):
        with pytest.raises(AnalysisError) as caught:
            EpochIndex(hand_built([fence(), fence()], calls))
        assert str(caught.value) == message


#: one epoch-relevant call (or not), over two windows and three targets
call_st = st.one_of(
    st.builds(fence, st.integers(0, 1)),
    st.builds(free, st.integers(0, 1)),
    st.builds(lock, st.integers(0, 2), st.integers(0, 1),
              st.sampled_from(["shared", "exclusive", "odd"])),
    st.builds(unlock, st.integers(0, 2), st.integers(0, 1)),
    st.builds(lock_all, st.integers(0, 1)),
    st.builds(unlock_all, st.integers(0, 1)),
    st.builds(start, st.lists(st.integers(0, 2), max_size=3),
              st.integers(0, 1)),
    st.builds(complete, st.integers(0, 1)),
    st.builds(post, st.lists(st.integers(0, 2), max_size=3),
              st.integers(0, 1)),
    st.builds(wait, st.integers(0, 1)),
    st.builds(flush, st.integers(0, 2), st.integers(0, 1)),
    st.builds(flush_all, st.integers(0, 1)),
    st.builds(rma_wait, st.integers(0, 2), st.integers(0, 1)),
    st.just(OTHER))


def without_stray_closes(calls):
    """``calls`` less the closes that find nothing open — what is left
    builds, whatever was drawn."""
    is_open, kept = set(), []
    pairs = {"Win_lock": "Win_unlock", "Win_lock_all": "Win_unlock_all",
             "Win_start": "Win_complete", "Win_post": "Win_wait"}
    for fn, args in calls:
        key = (pairs.get(fn, fn), args.get("win"), args.get("target"))
        if fn in pairs:
            is_open.add(key)
        elif fn in pairs.values():
            if key not in is_open:
                continue
            is_open.remove(key)
        kept.append((fn, args))
    return kept


@given(st.lists(st.lists(call_st, max_size=14), min_size=1, max_size=3),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_prop_random_call_sequences(ranks, repair):
    if repair:
        ranks = [without_stray_closes(calls) for calls in ranks]
    assert_epochs_equal(hand_built(*ranks))


# ------------------------------------------------------------ regions


def barrier(*seqs, order=None) -> SyncMatch:
    members = dict(enumerate(seqs))
    return SyncMatch(kind=KIND_COLLECTIVE, fn="Barrier", comm_id=0,
                     members={r: members[r] for r in order or members})


def test_hand_built_cuts():
    pre = SimpleNamespace(nranks=3)
    partial = SyncMatch(kind=KIND_COLLECTIVE, fn="Barrier", comm_id=1,
                        members={0: 4, 2: 5})
    nonblocking = SyncMatch(kind=KIND_COLLECTIVE, fn="Ibarrier", comm_id=0,
                            members={0: 6, 1: 6, 2: 6},
                            exits={0: 7, 1: 7, 2: 7})
    for matches in (
            [],
            [partial, nonblocking],
            [barrier(3, 2, 9)],
            # out of order in the list, members in any rank order
            [barrier(30, 20, 90, order=(2, 0, 1)), partial,
             barrier(3, 2, 9, order=(1, 2, 0)), nonblocking,
             barrier(10, 11, 12)]):
        assert_regions_equal(pre, match_table(matches))
    assert len(RegionIndex(pre, match_table([partial, nonblocking]))) == 1


@pytest.mark.parametrize("matches", (
    [barrier(3, 2, 9), barrier(5, 1, 12)],      # rank 1 runs backwards
    [barrier(3, 2, 9), barrier(5, 4, 9)],       # rank 2 stands still
    [barrier(3, 2, 9), barrier(3, 4, 10)],      # so does rank 0
))
def test_cuts_that_are_not_monotone_are_refused(matches):
    pre = SimpleNamespace(nranks=3)
    with pytest.raises(AnalysisError) as caught:
        RegionIndex(pre, match_table(matches))
    assert "not consistently ordered" in str(caught.value)
    assert_regions_equal(pre, match_table(matches))
