"""Control-phase differential properties (hypothesis).

Randomized synchronization programs — fence / PSCW / lock / lock_all /
barrier / nonblocking-barrier / p2p mixes over random rank counts — pin
the call-table control phases to the references in ``tests/reference``:

* the one matcher against the paper's Algorithm-1 progress-counter walk
  (all match kinds: PSCW and a nonblocking collective completed by
  ``Wait`` included — only the walk referees those) and against
  ``match_synchronization_naive`` (the quadratic strawman; collective +
  p2p, the kinds it produces);
* :class:`~repro.core.calltable.CallTable` ingest against
  ``from_events`` over the decoded object stream — for binary (v2)
  traces this crosses frame boundaries, for text traces it pins the
  memoized fast parser to ``decode_event``;
* the pickle round-trip of a table.

(The oracle's ``happens_before`` answers are checked against Figure-4
DAG reachability in ``test_clocks.py::TestDifferentialAgainstDAG``.)
"""

import json
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.calltable import CallTable
from repro.core.config import CheckConfig
from repro.core.matching import (
    KIND_COLLECTIVE, KIND_P2P, match_synchronization,
)
from repro.core.preprocess import preprocess, preprocess_calls
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, LOCK_EXCLUSIVE, LOCK_SHARED
from tests.reference.matching import (
    match_synchronization_naive, match_synchronization_object,
)
from tests.reference.pairwise import check_pairwise

STEP_KINDS = ("fence", "lock", "lockall", "pscw", "barrier", "ibarrier",
              "p2p")
#: the subset whose matches the naive strawman also produces
NAIVE_KINDS = ("fence", "lock", "barrier", "p2p")


def sync_program(mpi, steps=(), seed=0):
    """One random synchronization program; every rank derives the same
    step parameters from the shared seed, so the trace is consistent."""
    import random

    buf = mpi.alloc("wbuf", 8, datatype=DOUBLE, fill=0.0)
    src = mpi.alloc("src", 2, datatype=DOUBLE)
    win = mpi.win_create(buf)
    world = mpi.comm_group()
    rng = random.Random(seed)
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    for kind in steps:
        tgt = rng.randrange(mpi.size)  # identical on every rank
        if kind == "fence":
            win.fence()
            win.put(src, target=right, origin_count=1)
            win.fence()
        elif kind == "lock":
            lock_type = (LOCK_EXCLUSIVE if rng.random() < 0.5
                         else LOCK_SHARED)
            win.lock(tgt, lock_type)
            if tgt != mpi.rank:
                win.put(src, target=tgt, origin_count=1)
            win.unlock(tgt)
        elif kind == "lockall":
            win.lock_all()
            win.put(src, target=right, origin_count=1)
            win.flush(right)
            win.unlock_all()
        elif kind == "pscw":
            win.post(world.incl([left]))
            win.start(world.incl([right]))
            win.put(src, target=right, origin_count=1)
            win.complete()
            win.wait()
        elif kind == "ibarrier":
            req = mpi.ibarrier()
            buf[0] = 1.0  # between initiation and completion
            mpi.wait(req)
        elif kind == "p2p":
            s = rng.randrange(mpi.size)
            d = (s + 1) % mpi.size
            if mpi.rank == s:
                mpi.send("m", dest=d, tag=7)
            elif mpi.rank == d:
                mpi.recv(source=s, tag=7)
        else:
            mpi.barrier()
    mpi.barrier()
    win.free()


def canonical_matches(matches):
    """Order-free canonical form of a full match list (all kinds)."""
    out = []
    for m in matches:
        out.append((m.kind, m.fn, tuple(sorted(m.members.items())),
                    m.src, m.dst, m.comm_id, m.win_id,
                    tuple(sorted(m.exits.items()))))
    return sorted(out)


def coll_p2p_canonical(matches):
    out = set()
    for m in matches:
        if m.kind == KIND_COLLECTIVE:
            out.add(("coll", m.fn, tuple(sorted(m.members.items()))))
        elif m.kind == KIND_P2P:
            out.add(("p2p", m.src, m.dst))
    return out


def trace_for(steps, seed, nranks, trace_format="text"):
    return profile_run(sync_program, nranks,
                       params=dict(steps=list(steps), seed=seed),
                       delivery="random", seed=seed % 97,
                       trace_format=trace_format).traces


steps_st = st.lists(st.sampled_from(STEP_KINDS), min_size=1, max_size=6)
naive_steps_st = st.lists(st.sampled_from(NAIVE_KINDS), min_size=1,
                          max_size=6)
nranks_st = st.integers(2, 4)
seed_st = st.integers(0, 10 ** 6)


@given(steps_st, nranks_st, seed_st)
@settings(max_examples=25, deadline=None)
def test_prop_vectorized_matcher_equals_object_walk(steps, nranks, seed):
    pre = preprocess(trace_for(steps, seed, nranks))
    assert canonical_matches(match_synchronization(pre)) == \
        canonical_matches(match_synchronization_object(pre))


@given(naive_steps_st, nranks_st, seed_st)
@settings(max_examples=20, deadline=None)
def test_prop_vectorized_matcher_equals_naive(steps, nranks, seed):
    pre = preprocess(trace_for(steps, seed, nranks))
    assert coll_p2p_canonical(match_synchronization(pre)) == \
        coll_p2p_canonical(match_synchronization_naive(pre))


def assert_tables_equal(a: CallTable, b: CallTable):
    assert a.rank == b.rank and a.n == b.n
    for col in ("seq", "fn", "cls", "comm", "win", "peer", "tag", "req",
                "req_kind", "target", "lock", "group_off", "group_val"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col),
                                      err_msg=col)
    assert a.lock_types == b.lock_types
    for i in range(a.n):
        assert a.group(i) == b.group(i)


@given(steps_st, nranks_st, seed_st,
       st.sampled_from(["text", "binary"]))
@settings(max_examples=15, deadline=None)
def test_prop_calltable_roundtrip(steps, nranks, seed, trace_format):
    """Ingest-built tables equal event-built tables — across v2 frame
    boundaries for binary traces — and survive a pickle trip."""
    traces = trace_for(steps, seed, nranks, trace_format=trace_format)
    for rank in range(nranks):
        with traces.reader(rank) as reader:
            calls, _counts = reader.read_calls()
            table = reader.call_table
        assert table is not None
        rebuilt = CallTable.from_events(rank, calls)
        assert_tables_equal(table, rebuilt)

        pickled = pickle.loads(pickle.dumps(table))
        assert_tables_equal(table, pickled)


@given(steps_st, nranks_st, seed_st)
@settings(max_examples=15, deadline=None)
def test_prop_fast_parse_equals_decode_event(steps, nranks, seed):
    """The memoized text-line fast parser yields CallEvents identical to
    the canonical ``decode_event`` (the typed-event iterator's codec)."""
    traces = trace_for(steps, seed, nranks)
    for rank in range(nranks):
        with traces.reader(rank) as reader:
            fast, _counts = reader.read_calls()
        with traces.reader(rank) as reader:
            ref = [e for e in reader if isinstance(e, CallEvent)]
        assert len(fast) == len(ref)
        for f, r in zip(fast, ref):
            assert (f.rank, f.seq, f.fn) == (r.rank, r.seq, r.fn)
            assert f.args == r.args
            assert f.loc == r.loc


# ----------------------------------------------------------------------
# corpus differential: production vs the references over every
# registered bug case x both memory models x both trace formats
# ----------------------------------------------------------------------

import pytest

from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core.checker import check_traces

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
RANKS_CAP = 8
MEMORY_MODELS = ("separate", "unified")
TRACE_FORMATS = ("text", "binary")

_TRACES = {}


def case_traces(case, trace_format):
    key = (case.name, trace_format)
    if key not in _TRACES:
        nranks = min(case.nranks, RANKS_CAP)
        _TRACES[key] = profile_run(case.app, nranks,
                                   params=case.params(True),
                                   trace_format=trace_format).traces
    return _TRACES[key]


def canonical_report(report) -> str:
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


class TestControlPlaneCorpus:
    @pytest.mark.parametrize("trace_format", TRACE_FORMATS)
    @pytest.mark.parametrize("memory_model", MEMORY_MODELS)
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_planes_byte_identical(self, case, memory_model,
                                   trace_format):
        """The call-table control phases against the object walk, and
        the report they lead to against the per-pair reference's."""
        traces = case_traces(case, trace_format)
        pre = preprocess_calls(traces)
        assert canonical_matches(match_synchronization(pre)) == \
            canonical_matches(match_synchronization_object(pre))
        assert canonical_report(check_traces(
            traces, CheckConfig(memory_model=memory_model))) == \
            canonical_report(check_pairwise(traces, memory_model))
