"""Production vs ``tests/reference``: the sweep engine's contract.

The contract of the sweep engine is *byte-identical reports to the
paper's per-pair algorithms* (``tests.reference.pairwise``) over the
whole bundled bug corpus, under both memory models, in every execution
mode (serial, parallel, streaming).  The two sides judge independently —
production by its array cuts, the reference by its own per-pair
predicates — and share only the wording of a finding, so a divergence is
a bug in either direction: a join that loses a pair, or a cut that keeps
one Table I permits (``TestCutsAreSeen`` loosens a cut to prove the
differential notices).

Alongside the corpus differential, the engine's fast paths are pinned
to their reference implementations directly: ``LiftCache``'s memoized
placement vs the normalised raw segments, its bisect-backed
epoch lookup vs :meth:`EpochIndex.enclosing`, and the pair-batched
``ConcurrencyOracle.ordered_pairs`` vs the scalar :meth:`ordered`.
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import api
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core import engine
from repro.core.checker import check_traces
from repro.core.clocks import ConcurrencyOracle
from repro.core.compat import NONOV, VERDICT_LOOKUP, VERDICTS
from repro.core.config import CheckConfig
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess_calls
from repro.core.streaming import check_streaming
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, SUM
from repro.util.datatypes import Datatype
from repro.util.intervals import Interval, IntervalSet
from tests.reference.pairwise import (
    LiftCache, build_access_model, check_pairwise,
)

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
RANKS_CAP = 8
MEMORY_MODELS = ("separate", "unified")

_TRACES = {}


def traces_for(case, trace_format="text"):
    """Profile each buggy case once and reuse the traces across tests."""
    key = (case.name, trace_format)
    if key not in _TRACES:
        nranks = min(case.nranks, RANKS_CAP)
        _TRACES[key] = profile_run(
            case.app, nranks, params=case.params(True),
            trace_format=trace_format).traces
    return _TRACES[key]


def canonical(report) -> str:
    """Byte-comparable form of a report, modulo wall-clock timings."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


#: peak buffered load/store events of the streaming data pass released
#: one shard at a time: the rows of each program's largest shard
STREAMING_PEAKS = {"emulate": 4, "BT-broadcast": 5, "lockopts": 9,
                   "ping-pong": 2}


class TestEngineDifferential:
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_sweep_matches_pairwise(self, case, tmp_path):
        """Every executor, both models, both trace formats."""
        for trace_format in ("text", "binary"):
            traces = traces_for(case, trace_format)
            for memory_model in MEMORY_MODELS:
                want = canonical(check_pairwise(traces, memory_model))
                base = CheckConfig(memory_model=memory_model)
                cached = base.replace(
                    incremental=True,
                    cache_dir=str(tmp_path / trace_format / memory_model))
                for arm, config in (
                        ("batch", base), ("jobs=2", base.replace(jobs=2)),
                        ("streaming", base.replace(streaming=True)),
                        ("incremental-cold", cached),
                        ("incremental-warm", cached)):
                    assert canonical(check_traces(traces, config)) == \
                        want, (f"{case.name}/{trace_format}/"
                               f"{memory_model}/{arm}: report diverged")

    @pytest.mark.parametrize("case", ALL_CASES[:4], ids=lambda c: c.name)
    def test_parallel_sweep_matches_serial_pairwise(self, case):
        traces = traces_for(case)
        assert canonical(check_traces(traces, CheckConfig(jobs=2))) == \
            canonical(check_pairwise(traces)), (
                f"{case.name}: jobs=2 sweep report diverged")

    @pytest.mark.parametrize("case", list(BUG_CASES)[:4],
                             ids=lambda c: c.name)
    def test_streaming_sweep_matches_streaming_pairwise(self, case,
                                                        monkeypatch):
        traces = traces_for(case)
        monkeypatch.setattr(engine, "BATCH_ROWS", 1)
        findings, checker = check_streaming(traces)
        assert json.dumps([f.to_dict() for f in findings],
                          sort_keys=True) == \
            json.dumps([f.to_dict()
                        for f in check_pairwise(traces).findings],
                       sort_keys=True), (
                f"{case.name}: streaming findings diverged")
        assert checker.peak_buffered_mems == STREAMING_PEAKS[case.name] \
            == checker.plan.rows.max(), (
                f"{case.name}: streaming peak accounting diverged")


def _permitted_overlaps(mpi):
    """Overlapping pairs Table I permits, and nothing else: two Gets of
    the same window bytes — within one epoch at rank 0, and across
    ranks (rank 1 reads its own window) — then two same-op, same-type
    Accumulates of the same bytes per rank and across ranks."""
    buf = mpi.alloc("buf", 4, datatype=DOUBLE)
    got = mpi.alloc("got", 4, datatype=DOUBLE)
    more = mpi.alloc("more", 4, datatype=DOUBLE)
    win = mpi.win_create(buf)
    win.fence()
    win.get(got, target=1, origin_count=2)
    win.get(more, target=1, origin_count=2)
    win.fence()
    win.accumulate(got, target=0, op=SUM, origin_count=2)
    win.accumulate(more, target=0, op=SUM, origin_count=2)
    win.fence()
    win.free()


class TestCutsAreSeen:
    """Production's Table-I cut loosened — every permitted overlap read
    as NONOV — must change its report and not the reference's."""

    def test_loosened_cut_diverges_from_the_reference(self, monkeypatch):
        traces = profile_run(_permitted_overlaps, 2).traces
        for memory_model in MEMORY_MODELS:
            want = check_pairwise(traces, memory_model)
            assert not want.findings, "the program must be clean"
            config = CheckConfig(memory_model=memory_model)
            assert canonical(check_traces(traces, config)) == canonical(want)
            loose = VERDICT_LOOKUP.copy()
            overlapping = loose[..., 1, :]
            overlapping[overlapping == 0] = VERDICTS.index(NONOV)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "VERDICT_LOOKUP", loose)
                got = check_traces(traces, config)
            assert canonical(got) != canonical(want), (
                f"{memory_model}: a loosened cut went unseen")
            kinds = {frozenset((f.a.kind, f.b.kind)) for f in got.findings}
            assert {frozenset({"get"}), frozenset({"acc"})} <= kinds
            assert {f.kind for f in got.findings} == {
                "intra_epoch", "cross_process"}


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        """There is one engine and no switch: a stale ``engine=``
        override fails loudly instead of being ignored."""
        traces = traces_for(ALL_CASES[0])
        with pytest.raises(TypeError):
            api.check(traces, engine="pairwise")
        with pytest.raises(TypeError):
            CheckConfig(engine="sweep")


# ----------------------------------------------------------------------
# the engine's fast paths vs their reference implementations
# ----------------------------------------------------------------------

datamap_strategy = st.lists(
    st.tuples(st.integers(0, 48), st.integers(0, 12)), max_size=5)


@given(st.integers(0, 200), datamap_strategy, st.integers(0, 4),
       st.integers(1, 64))
def test_prop_liftcache_datamap_matches_reference(base, datamap, count,
                                                 extent):
    dt = Datatype(name="t", datamap=tuple(datamap), extent=extent,
                  base=None, type_id=1)
    cache = LiftCache(None, 0)
    naive = IntervalSet(
        Interval(base + rep * extent + disp, base + rep * extent + disp + n)
        for rep in range(count) for disp, n in datamap)
    assert cache.intervals(dt, base, count) == naive
    assert cache.intervals(dt, base, count) is cache.intervals(dt, base, count)


def _pre_and_calls(case):
    traces = traces_for(case)
    pre = preprocess_calls(traces)
    return pre, {
        rank: [e for e in pre.events[rank] if isinstance(e, CallEvent)]
        for rank in range(pre.nranks)
    }


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_liftcache_enclosing_matches_epoch_index(case):
    pre, calls = _pre_and_calls(case)
    epoch_index = EpochIndex(pre)
    checked = 0
    for rank, events in calls.items():
        cache = LiftCache(epoch_index, rank)
        for event in events:
            args = event.args
            if "win" not in args or "target" not in args:
                continue
            win_id = int(args["win"])
            target = int(args["target"])
            assert cache.enclosing(win_id, event.seq, target) is \
                epoch_index.enclosing(rank, win_id, event.seq, target)
            checked += 1
    assert checked > 0  # every bug case issues at least one RMA op


@pytest.mark.parametrize("case", ALL_CASES[:6], ids=lambda c: c.name)
def test_ordered_pairs_matches_scalar_ordered(case):
    traces = traces_for(case)
    pre = preprocess_calls(traces)
    oracle = ConcurrencyOracle(pre, match_synchronization(pre))
    model = build_access_model(pre, EpochIndex(pre))
    spans = [op.span for op in model.ops][:24]
    if len(spans) < 2:
        pytest.skip("case issues fewer than two RMA ops")
    pairs = [(a, b) for a in spans for b in spans]
    a_spans, b_spans = zip(*pairs)
    got = oracle.ordered_pairs(
        [s.rank for s in a_spans], [s.start_seq for s in a_spans],
        [s.end_seq for s in a_spans],
        [s.rank for s in b_spans], [s.start_seq for s in b_spans],
        [s.end_seq for s in b_spans])
    want = np.array([oracle.ordered(a, b) for a, b in pairs])
    assert (got == want).all()
