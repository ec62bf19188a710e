"""The op table against the views, and the kernels' units against the
walkers.

``repro.core.model.OpTable`` lifts every call of a trace set into rows
with array operations; ``tests.reference.pairwise`` lifts the same calls
one by one into view objects (through the production materialiser, with
its own epoch and completion lookup) and buckets those objects per epoch
and per region with the per-object walks production used before.  Over
the bug corpus (buggy and fixed), LU, heat2d, the MPI-3 extensions
(flush, flush_all, lock_all, request-based ops and their waits, fetching
atomics), derived datatypes placed more than once (maps that coalesce,
maps that do not, a map whose repetitions run backwards), a truncated
program with an epoch left open and 20 generated programs, in both trace
formats:

* every row of the table equals the view the reference lift builds for
  that call — kind, window, target, the *normalised* interval sets,
  epoch, completion, accumulate op and base, local access kind — and the
  view the table itself builds is that view;
* unit membership and order — an epoch's ops, attached buffers and plain
  locals; a region's ops and locals — equal ``bucket_by_epoch`` /
  ``bucket_by_region`` of the reference model.

The batch-boundary and closure properties over these index-array units
live in ``test_engine_batches.py`` and ``test_plan.py``.
"""

import dataclasses
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core.compat import (
    ACC, KINDS, MODELS, VERDICT_LOOKUP, VERDICTS, compat_verdict,
)
from repro.core.engine import (
    RegionMembers, epoch_units, plain_locals_inside,
)
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.model import OpTable, _DataMaps, _place
from repro.core.preprocess import preprocess, preprocess_calls
from repro.core.regions import RegionIndex
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import profile_program
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.profiler.tracer import TraceSet, TraceWriter
from repro.simmpi import DOUBLE, INT, LOCK_SHARED
from repro.util.intervals import Interval, IntervalSet, datamap_intervals
from tests.core.test_plan import _open_epoch as open_epoch
from tests.reference.pairwise import (
    bucket_by_epoch, bucket_by_region, build_access_model,
)

FORMATS = ("text", "binary")
RANKS_CAP = 8
GEN_SEEDS = range(20)


# ------------------------------------------------------------- programs


def mpi3_mix(mpi):
    """Flush, flush_all, lock_all, request-based ops with and without a
    wait, fetching atomics, and calls with a logged local buffer."""
    buf = mpi.alloc("buf", 8, datatype=INT, fill=0)
    src = mpi.alloc("src", 4, datatype=INT, fill=1)
    old = mpi.alloc("old", 4, datatype=INT)
    cmp_ = mpi.alloc("cmp", 1, datatype=INT, fill=0)
    win = mpi.win_create(buf)
    mpi.barrier()
    if mpi.rank == 0:
        win.lock(1, LOCK_SHARED)
        win.put(src, target=1, origin_count=2)
        win.flush(1)
        win.put(src, target=1, target_disp=2, origin_count=2)
        req = win.rput(src, target=1, target_disp=4, origin_count=1)
        win.get(old, target=1, origin_count=1)
        req.wait()
        win.flush_all()
        lost = win.rget(old, target=1, origin_offset=1, origin_count=1)
        win.raccumulate(src, target=1, op="SUM", target_disp=6,
                        origin_count=1).wait()
        win.unlock(1)
        del lost                    # never waited for
    mpi.barrier()
    win.lock_all()
    if mpi.rank != 1:
        win.fetch_and_op(src, old, target=1, op="SUM", target_disp=7)
        win.get_accumulate(src, old, target=1, op="MAX", target_disp=5,
                           origin_count=2, result_offset=1)
        win.compare_and_swap(src, cmp_, old, target=1, target_disp=3)
        win.accumulate(src, target=1, op="SUM", target_disp=0,
                       origin_count=1)
    win.unlock_all()
    mpi.barrier()
    mpi.bcast(src, root=1)
    mpi.allreduce(src)
    if mpi.rank == 0:
        mpi.send(src, dest=1, count=2)
        mpi.wait(mpi.isend(old, dest=1))
    elif mpi.rank == 1:
        mpi.recv(old, source=0, count=2)
        mpi.wait(mpi.irecv(src, source=0))
    mpi.barrier()
    win.free()


def derived_datatypes(mpi):
    """Derived datatypes placed ``count > 1`` times: a vector whose
    repetitions coalesce, one whose repetitions do not, an indexed type
    with a negative displacement (repetitions run backwards: the
    placement is not sorted), a struct without a basic type, and a
    datatype with no bytes at all."""
    buf = mpi.alloc("buf", 64, datatype=INT, fill=0)
    src = mpi.alloc("src", 64, datatype=INT, fill=1)
    win = mpi.win_create(buf)
    tiles = mpi.type_vector(2, 1, 2, INT)        # [0,4) [8,12), extent 12
    gaps = mpi.type_vector(2, 1, 3, INT)         # [0,4) [12,16), extent 16
    backwards = mpi.type_indexed([1, 1], [2, 0], INT)
    backwards = mpi.type_indexed([1, 1], [0, -2], backwards)
    mixed = mpi.type_struct([1, 1], [0, 8], [INT, DOUBLE])
    nothing = mpi.type_contiguous(0, INT)
    win.fence()
    if mpi.rank == 0:
        win.put(src, target=1, origin_count=3, origin_dtype=tiles,
                target_count=3, target_dtype=tiles)
        win.put(src, target=1, target_disp=16, origin_offset=16,
                origin_count=2, origin_dtype=gaps, target_count=2,
                target_dtype=gaps)
        win.get(src, target=1, target_disp=40, origin_offset=40,
                origin_count=2, origin_dtype=backwards, target_count=2,
                target_dtype=backwards)
        win.put(src, target=1, target_disp=48, origin_offset=48,
                origin_count=1, origin_dtype=mixed, target_count=1,
                target_dtype=mixed)
        win.accumulate(src, target=1, op="SUM", target_disp=56,
                       origin_offset=56, origin_count=2, origin_dtype=tiles,
                       target_count=2, target_dtype=tiles)
        win.put(src, target=1, origin_count=0, origin_dtype=nothing,
                target_count=4, target_dtype=nothing)
    elif mpi.rank == 2:
        win.put(src, target=1, target_disp=2, origin_count=2,
                origin_dtype=tiles, target_count=2, target_dtype=tiles)
        win.put(src, target=1, target_disp=60, origin_count=2)
    win.fence()
    mpi.bcast(src, root=0, count=2, datatype=gaps)
    win.free()


def _case(case, buggy):
    return lambda fmt, _dir: profile_run(
        case.app, min(case.nranks, RANKS_CAP), params=case.params(buggy),
        trace_format=fmt).traces


def _app(app, nranks, **kw):
    return lambda fmt, _dir: profile_run(app, nranks, trace_format=fmt,
                                         **kw).traces


def _gen(seed):
    def build(fmt, trace_dir):
        generated = generate_program(GenConfig(
            seed=seed, bugs=("any",) * 3, trace_format=fmt))
        return profile_program(generated, trace_dir=trace_dir).traces
    return build


SOURCES = {
    **{f"{case.name}-{'buggy' if buggy else 'fixed'}": _case(case, buggy)
       for case in BUG_CASES + EXTRA_CASES for buggy in (True, False)},
    "lu": _app(lu, 4, params=dict(n=16), delivery="eager"),
    "heat2d": _app(heat2d, 4, params=dict(rows=16, cols=8, steps=5)),
    "mpi3-mix": _app(mpi3_mix, 3),
    "derived-datatypes": _app(derived_datatypes, 3),
    "open-epoch": _app(open_epoch, 2, delivery="eager"),
    **{f"gen-{seed}": _gen(seed) for seed in GEN_SEEDS},
}

class Lifted:
    """One trace set lifted both ways over one epoch index."""

    def __init__(self, traces):
        self.pre = preprocess_calls(traces)
        self.epochs = EpochIndex(self.pre)
        self.table = OpTable(self.pre, self.epochs)
        self.regions = RegionIndex(self.pre,
                                   match_synchronization(self.pre))
        reference = build_access_model(preprocess(traces), self.epochs)
        self.reference = dataclasses.replace(
            reference, local=[la for la in reference.local
                              if la.fn != "mem"])


_LIFTED = {}


def lifted_for(source, fmt, tmp_path_factory) -> Lifted:
    key = (source, fmt)
    if key not in _LIFTED:
        _LIFTED[key] = Lifted(SOURCES[source](
            fmt, str(tmp_path_factory.mktemp(f"{source}-{fmt}"))))
    return _LIFTED[key]


def normal(start, lo, hi, row) -> IntervalSet:
    """Row ``row``'s intervals of a CSR interval table, normalised."""
    return IntervalSet(Interval(int(a), int(b)) for a, b in zip(
        lo[start[row]:start[row + 1]], hi[start[row]:start[row + 1]]))


def assert_rows_equal_views(lifted: Lifted) -> None:
    table, reference, epochs = \
        lifted.table, lifted.reference, lifted.epochs.epochs
    assert (table.n_ops, table.n_local) == \
        (len(reference.ops), len(reference.local)) == \
        (len(table.ops), len(table.local))
    row_of = {id(op): o for o, op in enumerate(reference.ops)}
    codes = {}
    for o, op in enumerate(reference.ops):
        assert (table.rank[o], table.seq[o], KINDS[table.kind[o]],
                table.win[o], table.target[o], table.complete[o]) == \
            (op.rank, op.seq, op.kind, op.win_id, op.target,
             op.complete_seq), op
        assert normal(table.target_start, table.target_lo,
                      table.target_hi, o) == op.target_intervals, op
        assert (epochs[table.epoch[o]] if table.epoch[o] >= 0
                else None) is op.epoch, op
        # the accumulate code: none unless the exception can apply, and
        # one code per (op, basic type)
        exception = op.kind == ACC and None not in (op.acc_op, op.acc_base)
        assert (table.acc[o] >= 0) == exception, op
        if exception:
            assert codes.setdefault(int(table.acc[o]),
                                    (op.acc_op, op.acc_base)) == \
                (op.acc_op, op.acc_base), op
        assert table.ops[o] == op
    assert len(set(codes.values())) == len(codes)
    for l, la in enumerate(reference.local):
        assert (table.l_rank[l], table.l_seq[l], bool(table.l_store[l]),
                table.l_end[l]) == \
            (la.rank, la.seq, la.access == "store", la.span.end_seq), la
        assert normal(table.local_start, table.local_lo, table.local_hi,
                      l) == la.intervals, la
        assert table.l_op[l] == (-1 if la.origin_of is None
                                 else row_of[id(la.origin_of)]), la
        view = table.local[l]
        assert view == la
        if la.origin_of is not None:
            assert view.origin_of is table.ops[int(table.l_op[l])]


def assert_units_equal_walks(lifted: Lifted) -> None:
    table, reference = lifted.table, lifted.reference
    key = {id(op): o for o, op in enumerate(reference.ops)}
    key.update({id(la): l for l, la in enumerate(reference.local)})

    def rows(views):
        return [key[id(view)] for view in views]

    # intra: the epochs holding an op, their ops, attached buffers and
    # the plain locals inside them
    walked = bucket_by_epoch(reference, lifted.epochs)
    units = epoch_units(table)
    assert [lifted.epochs.epochs[e] for e in units.tolist()] == \
        [unit[0] for unit in walked]
    cols = table.epochs
    group, inside = plain_locals_inside(
        table, cols.rank[units], cols.open_seq[units], cols.close_seq[units])
    for u, (e, (_epoch, ops, attached, plain)) in enumerate(
            zip(units.tolist(), walked)):
        for (start, members), views in ((table.ops_by_epoch, ops),
                                        (table.attached_by_epoch, attached)):
            assert members[start[e]:start[e + 1]].tolist() == rows(views)
        assert inside[group == u].tolist() == rows(plain)

    # inter: every region's ops and locals
    members = RegionMembers(table, lifted.regions)
    ops, call_locals = bucket_by_region(reference, lifted.regions)
    assert members.units().tolist() == sorted(ops)
    for (start, got), walked in ((members.ops, ops),
                                 (members.locals, call_locals)):
        for r in range(len(lifted.regions)):
            assert got[start[r]:start[r + 1]].tolist() == \
                rows(walked.get(r, [])), r


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("source", SOURCES)
def test_every_row_equals_the_reference_view(source, fmt, tmp_path_factory):
    lifted = lifted_for(source, fmt, tmp_path_factory)
    assert_rows_equal_views(lifted)
    # either format is read into call columns; the codec route is for
    # the calls columns cannot hold, and these programs log none
    routes = lifted.table.rows_by_route
    assert routes["codec"] == 0
    assert routes["columnar"] >= lifted.table.n_ops
    if not source.endswith("-fixed"):
        assert lifted.table.n_ops > 0


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("source", SOURCES)
def test_units_equal_the_per_object_walks(source, fmt, tmp_path_factory):
    assert_units_equal_walks(lifted_for(source, fmt, tmp_path_factory))


def test_the_programs_exercise_what_they_claim(tmp_path_factory):
    mix = lifted_for("mpi3-mix", "binary", tmp_path_factory)
    fns = {op.fn for op in mix.reference.ops}
    assert {"Rput", "Rget", "Raccumulate", "Get_accumulate",
            "Compare_and_swap", "Accumulate", "Put", "Get"} <= fns
    table = mix.table
    closes = mix.epochs.columns.close_seq[table.epoch]
    assert (table.complete < closes).any()      # a flush or a wait cut in
    assert (table.complete == closes).any()
    assert len(mix.epochs.flushes.seq) and len(mix.epochs.req_waits.seq)
    assert {la.fn for la in mix.reference.local} >= {
        "Bcast", "Allreduce", "Send", "Recv", "Isend", "Wait"}
    assert (np.diff(table.call_local) == 2).any()       # a result buffer

    derived = lifted_for("derived-datatypes", "binary",
                         tmp_path_factory).table
    per_op = np.diff(derived.target_start)
    assert 0 in per_op and 1 in per_op and per_op.max() > 2
    # a placement that is not in normal form: the join dedupes
    raw = sum(per_op)
    merged = sum(len(normal(derived.target_start, derived.target_lo,
                            derived.target_hi, o))
                 for o in range(derived.n_ops))
    assert merged < raw

    truncated = lifted_for("open-epoch", "text", tmp_path_factory)
    assert truncated.table.complete.max() > 1 << 50     # left open


def test_a_large_but_valid_address_is_placed_exactly(tmp_path):
    """Past 2**50 the float screen cannot vouch for a buffer; the scalar
    lift does, and the int64 columns are exact all the same."""
    case = next(c for c in BUG_CASES if c.name == "emulate")
    run = profile_run(case.app, case.nranks, params=case.params(True))
    far = (1 << 62) + 8
    os.makedirs(tmp_path / "t")
    moved = 0
    for rank in range(case.nranks):
        with TraceWriter(TraceSet.rank_path(str(tmp_path / "t"), rank,
                                            "binary"), rank, case.nranks,
                         app="far", format="binary") as writer:
            for event in run.traces.events(rank):
                if isinstance(event, CallEvent) and event.fn == "Put":
                    event = dataclasses.replace(event, args=dict(
                        event.args, origin_base=far))
                    moved += 1
                writer.write(event)
    lifted = Lifted(TraceSet(str(tmp_path / "t")))
    assert moved and int(lifted.table.local_lo.max()) == far
    assert_rows_equal_views(lifted)


datamaps = st.lists(st.tuples(st.integers(-16, 48), st.integers(0, 12)),
                    max_size=5)


@given(st.integers(0, 200), datamaps, st.integers(0, 4), st.integers(-8, 64))
def test_prop_placement_matches_the_scalar_placement(base, datamap, count,
                                                     extent):
    """``_place`` over any data-map — unsorted, overlapping, with empty
    segments, running backwards — covers the bytes ``datamap_intervals``
    covers."""
    segments = [seg for seg in datamap if seg[1] > 0]
    tiles = len(segments) == 1 and segments[0][1] == extent
    maps = _DataMaps(
        np.array([0]), np.array([len(segments)]),
        np.array([seg[0] for seg in segments], dtype=np.int64),
        np.array([seg[1] for seg in segments], dtype=np.int64),
        np.array([extent]), np.array([tiles]), None, None, None, None)
    start, lo, hi = _place(maps, np.array([0]), np.array([base]),
                           np.array([count]))
    want = IntervalSet(
        Interval(base + rep * extent + disp, base + rep * extent + disp + n)
        for rep in range(count) for disp, n in datamap)
    assert normal(start, lo, hi, 0) == want == \
        datamap_intervals(base, datamap, count, extent)


def test_lookup_is_compat_verdict():
    for (m, model), (a, kind_a), (b, kind_b), overlapping, acc_same in \
            itertools.product(enumerate(MODELS), enumerate(KINDS),
                              enumerate(KINDS), (False, True),
                              (False, True)):
        assert VERDICTS[VERDICT_LOOKUP[m, a, b, int(overlapping),
                                       int(acc_same)]] == \
            compat_verdict(kind_a, kind_b, overlapping, acc_same, model)
    assert VERDICT_LOOKUP.shape == (2, 5, 5, 2, 2)
