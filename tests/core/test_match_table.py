"""The match set as columns, against the references it replaced.

* ``list(match_synchronization(pre))`` equals the per-rank dict walk
  (``tests/reference/matching.py``) element by element — order, kind,
  fn, members, exits, ends, communicator, window and slot — over the
  Table II corpus in both trace formats, LU and heat2d, generated
  programs and the hypothesis programs of the control-plane
  differential; single-defect traces raise the same error from both.
* The wave fixpoint of :class:`~repro.core.clocks.ConcurrencyOracle`
  gives the per-path loop's clock matrix (``tests/reference/clocks.py``),
  and a cyclic synchronization graph is still refused.
* A collective logged on a communicator its rank is not in is refused
  (in process and by the CLI, exit 2); a reused request handle pairs an
  initiation with its own ``Wait``.
* A plain check builds no :class:`~repro.core.matching.SyncMatch`.
"""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.cli import main
from repro.core.checker import check_traces
from repro.core.clocks import ConcurrencyOracle
from repro.core.matching import (
    KIND_COLLECTIVE, KIND_P2P, SyncMatch, match_synchronization,
)
from repro.core.preprocess import preprocess, preprocess_calls
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import profile_program
from repro.profiler.session import profile_run
from repro.profiler.tracer import TraceSet, TraceWriter
from repro.simmpi import INT
from repro.util.errors import AnalysisError
from tests.core.test_control_plane_differential import (
    nranks_st, seed_st, steps_st, trace_for,
)
from tests.reference.clocks import PerPathOracle
from tests.reference.matching import match_synchronization_dict, match_table

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
FORMATS = ("text", "binary")


def assert_same_matches(pre) -> None:
    table = match_synchronization(pre)
    assert list(table) == match_synchronization_dict(pre)
    assert len(table) == len(table.kind)
    oracle = ConcurrencyOracle(pre, table)
    reference = PerPathOracle(pre, list(table))
    np.testing.assert_array_equal(oracle._clocks, reference._clocks)
    assert oracle.sync_seqs == reference.sync_seqs
    for name in ("_unit_at", "_coll_at", "_nb_skip"):
        for ours, theirs in zip(getattr(oracle, name),
                                getattr(reference, name)):
            np.testing.assert_array_equal(ours, theirs, err_msg=name)


# ------------------------------------------------------- the match lists


@pytest.mark.parametrize("trace_format", FORMATS)
@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_corpus(case, trace_format):
    assert_same_matches(preprocess_calls(profile_run(
        case.app, min(case.nranks, 8), params=case.params(True),
        trace_format=trace_format).traces))


@pytest.mark.parametrize("app,nranks,params", [
    (lu, 4, dict(n=24, seed=1)),
    (heat2d, 4, dict(rows=16, cols=8, steps=6)),
], ids=["lu", "heat2d"])
def test_apps(app, nranks, params):
    assert_same_matches(preprocess_calls(profile_run(
        app, nranks, params=params, trace_format="binary").traces))


@pytest.mark.parametrize("seed", range(10))
def test_generated_programs(seed):
    generated = generate_program(GenConfig(
        seed=seed, nranks=3 + seed % 4, rounds=3, trace_format="binary"))
    assert_same_matches(preprocess_calls(profile_program(generated).traces))


@given(steps_st, nranks_st, seed_st)
@settings(max_examples=25, deadline=None)
def test_prop_sync_programs(steps, nranks, seed):
    assert_same_matches(preprocess(trace_for(steps, seed, nranks)))


# ------------------------------------------------------------ the errors


def split_program(mpi):
    """Sub-communicators by parity, a window, a message: every class of
    collective a defect below can be planted in."""
    sub = mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
    mpi.barrier(comm=sub)
    mpi.barrier()
    win = mpi.win_create(mpi.alloc("buf", 1, datatype=INT))
    win.fence()
    win.fence()
    if mpi.rank == 0:
        mpi.send("x", dest=1, tag=3)
    elif mpi.rank == 1:
        mpi.recv(source=0, tag=3)
    win.free()


def edited(events, rank, seq, fn=None, drop=(), **args):
    """``events`` with the call at ``(rank, seq)`` edited."""
    for i, event in enumerate(events[rank]):
        if event.seq == seq:
            new = dict(event.args, **args)
            for key in drop:
                del new[key]
            events[rank][i] = dataclasses.replace(
                event, fn=fn or event.fn, args=new)
            return events
    raise AssertionError(f"no call at rank {rank} seq {seq}")


def planted(**edit):
    """A preprocessed four-rank ``split_program`` with one call edited
    (rank 1's calls: 1 sub-barrier, 2 barrier, 4 fence, 6 recv)."""
    pre = preprocess(profile_run(split_program, 4).traces)
    edited(pre.events, **edit)
    pre.call_table = pre.call_tables = None
    return pre


#: rank 1 names rank 0's sub-communicator (members 0 and 2)
NOT_A_MEMBER = dict(rank=1, seq=1, comm=1)
NOT_A_MEMBER_TEXT = ("collective event Barrier (rank 1, seq 1) is on comm 1,"
                     " which does not include rank 1")


@pytest.mark.parametrize("edit,message", [
    (dict(rank=1, seq=2, drop=("comm",)),
     "collective event Barrier (rank 1, seq 2) carries no communicator"),
    (dict(rank=1, seq=4, win=9), "unknown window id 9"),
    (dict(rank=1, seq=2, comm=77), "unknown communicator id 77"),
    (dict(rank=1, seq=6, source=9), "comm 0 has no rank 9 (size 4)"),
    (dict(rank=1, seq=2, fn="Bcast"),
     "collective mismatch on comm 0: rank 0 calls Barrier but rank 1 "
     "calls Bcast (seq 2)"),
    (NOT_A_MEMBER, NOT_A_MEMBER_TEXT),
], ids=["comm-less", "window", "comm", "comm-rank", "mismatch",
        "not-a-member"])
def test_single_defects(edit, message):
    pre = planted(**edit)
    raised = []
    for matcher in (match_synchronization, match_synchronization_dict):
        with pytest.raises(AnalysisError) as caught:
            matcher(pre)
        raised.append(str(caught.value))
    assert raised == [message, message]


@pytest.mark.parametrize("trace_format", FORMATS)
def test_a_collective_off_its_communicator_is_refused(tmp_path, capsys,
                                                      trace_format):
    """Rank 1's sub-barrier names comm 1: a check refuses the set
    rather than match comm 1 over {0, 2} and comm 2 over {3} alone, and
    the CLI exits 2 with one line."""
    traces = profile_run(split_program, 4).traces
    events = {rank: list(traces.reader(rank)) for rank in range(4)}
    edited(events, **NOT_A_MEMBER)
    for rank, stream in events.items():
        with TraceWriter(TraceSet.rank_path(str(tmp_path), rank,
                                            trace_format),
                         rank, 4, format=trace_format) as writer:
            for event in stream:
                writer.write(event)
    with pytest.raises(AnalysisError, match=re.escape(NOT_A_MEMBER_TEXT)):
        check_traces(TraceSet(str(tmp_path)))
    capsys.readouterr()
    assert main(["check", str(tmp_path), "--no-ledger"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mc-checker: ") and NOT_A_MEMBER_TEXT in err


def test_a_reused_request_handle_pairs_with_its_own_wait():
    def app(mpi):
        for _ in range(2):
            mpi.wait(mpi.ibarrier())

    pre = preprocess(profile_run(app, 2).traces)
    for rank in range(2):       # the second pair reuses the first's handle
        edited(pre.events, rank=rank, seq=2, req=0)
        edited(pre.events, rank=rank, seq=3, req=0)
    pre.call_table = pre.call_tables = None
    table = match_synchronization(pre)
    assert [(m.members, m.exits) for m in table] == [
        ({0: 0, 1: 0}, {0: 1, 1: 1}), ({0: 2, 1: 2}, {0: 3, 1: 3})]
    assert list(table) == match_synchronization_dict(pre)
    # rank 0 entering the first Ibarrier is known at rank 1's first Wait
    assert ConcurrencyOracle(pre, table).happens_before(0, 0, 1, 1)


# ------------------------------------------------------------ the clocks


def p2p(src, dst) -> SyncMatch:
    return SyncMatch(kind=KIND_P2P, fn="Send", comm_id=0, src=src, dst=dst)


@pytest.mark.parametrize("matches", [
    # a pure chain: every unit has one edge in and one out
    [p2p((0, 5), (1, 2)), p2p((1, 4), (0, 1))],
    # a cycle through a fork: the condensed DAG never drains
    [p2p((0, 5), (1, 2)), p2p((1, 4), (0, 1)), p2p((0, 5), (2, 1))],
], ids=["chain", "condensed"])
def test_a_planted_cycle_is_refused(matches):
    pre = SimpleNamespace(nranks=3)
    for oracle in (ConcurrencyOracle, PerPathOracle):
        with pytest.raises(AnalysisError, match="contains a cycle"):
            oracle(pre, match_table(matches))


def test_hand_built_collectives_number_units_alike():
    pre = SimpleNamespace(nranks=3)
    matches = [
        SyncMatch(kind=KIND_COLLECTIVE, fn="Barrier", comm_id=0,
                  members={0: 1, 1: 1, 2: 1}),
        p2p((0, 2), (1, 3)),
        SyncMatch(kind=KIND_COLLECTIVE, fn="Ibarrier", comm_id=0,
                  members={0: 4, 1: 4}, exits={0: 6, 1: 5}),
        p2p((2, 2), None)]
    ours = ConcurrencyOracle(pre, match_table(matches))
    np.testing.assert_array_equal(
        ours._clocks, PerPathOracle(pre, matches)._clocks)


# -------------------------------------------------------------- no views


def test_a_plain_check_builds_no_sync_match(tmp_path):
    traces = profile_run(lu, 16, params=dict(n=32, seed=1),
                         delivery="eager", trace_format="binary",
                         trace_dir=str(tmp_path)).traces
    rec = obs.configure(enabled=True)
    try:
        report = check_traces(traces)
    finally:
        obs.reset()
    assert not report.findings and report.stats.sync_matches > 0
    built = rec.registry.get("analyzer_views_built_total")
    assert built.value(kind="sync_match") == 0
