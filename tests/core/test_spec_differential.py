"""Spec-differential property: MC-Checker's cross-process findings on a
randomly generated two-origin RMA pattern must match the verdict computed
directly from Table I plus interval overlap.

This closes the loop between the executable checker (trace collection,
matching, regions, window vectors, oracle) and the declarative
specification (the compatibility matrix): for every generated case the two
must agree on whether a memory consistency error exists.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import run_check
from repro.core.compat import accumulate_exception, compat_verdict
from repro.simmpi import DOUBLE, LOCK_SHARED
from repro.util.intervals import IntervalSet

WINDOW_WORDS = 8
WORD = 8  # bytes per element

op_strategy = st.sampled_from(["put", "get", "acc_sum", "acc_max"])
span_strategy = st.tuples(st.integers(0, WINDOW_WORDS - 1),
                          st.integers(1, 4)).filter(
    lambda t: t[0] + t[1] <= WINDOW_WORDS)


def _issue(win, op, buf, disp, count):
    if op == "put":
        win.put(buf, target=2, target_disp=disp, origin_count=count)
    elif op == "get":
        win.get(buf, target=2, target_disp=disp, origin_count=count)
    elif op == "acc_sum":
        win.accumulate(buf, target=2, op="SUM", target_disp=disp,
                       origin_count=count)
    else:
        win.accumulate(buf, target=2, op="MAX", target_disp=disp,
                       origin_count=count)


def _kind(op):
    return {"put": "put", "get": "get",
            "acc_sum": "acc", "acc_max": "acc"}[op]


def _acc_op(op):
    return {"acc_sum": "SUM", "acc_max": "MAX"}.get(op)


def two_origin_app(mpi, op_a, disp_a, count_a, op_b, disp_b, count_b):
    """Ranks 0 and 1 issue one op each at rank 2's window, concurrently."""
    wbuf = mpi.alloc("wbuf", WINDOW_WORDS, datatype=DOUBLE)
    src = mpi.alloc("src", 4, datatype=DOUBLE)
    win = mpi.win_create(wbuf)
    mpi.barrier()
    if mpi.rank == 0:
        win.lock(2, LOCK_SHARED)
        _issue(win, op_a, src, disp_a, count_a)
        win.unlock(2)
    elif mpi.rank == 1:
        win.lock(2, LOCK_SHARED)
        _issue(win, op_b, src, disp_b, count_b)
        win.unlock(2)
    mpi.barrier()
    win.free()


@given(op_strategy, span_strategy, op_strategy, span_strategy)
@settings(max_examples=30, deadline=None)
def test_prop_checker_matches_table1(op_a, span_a, op_b, span_b):
    disp_a, count_a = span_a
    disp_b, count_b = span_b

    # the declarative verdict, computed straight from the spec
    iv_a = IntervalSet.single(disp_a * WORD, count_a * WORD)
    iv_b = IntervalSet.single(disp_b * WORD, count_b * WORD)
    expected = compat_verdict(
        _kind(op_a), _kind(op_b), iv_a.overlaps(iv_b),
        acc_same=accumulate_exception(_acc_op(op_a), "DOUBLE",
                                      _acc_op(op_b), "DOUBLE"))

    # the executable verdict, through the entire pipeline
    report = run_check(
        two_origin_app, nranks=3,
        params=dict(op_a=op_a, disp_a=disp_a, count_a=count_a,
                    op_b=op_b, disp_b=disp_b, count_b=count_b))
    cross = [f for f in report.findings if f.kind == "cross_process"]

    if expected is None:
        assert not cross, (
            f"spec allows {op_a}@{span_a} vs {op_b}@{span_b} but checker "
            f"flagged: {[f.format() for f in cross]}")
    else:
        assert cross, (
            f"spec forbids {op_a}@{span_a} vs {op_b}@{span_b} "
            f"({expected}) but checker stayed quiet")
        assert any(f.rule == expected for f in cross)


@given(op_strategy, span_strategy, op_strategy, span_strategy)
@settings(max_examples=15, deadline=None)
def test_prop_barrier_removes_all_findings(op_a, span_a, op_b, span_b):
    """Metamorphic: the same two operations separated by a barrier are
    ordered, so NO configuration may be flagged."""
    def ordered_app(mpi):
        wbuf = mpi.alloc("wbuf", WINDOW_WORDS, datatype=DOUBLE)
        src = mpi.alloc("src", 4, datatype=DOUBLE)
        win = mpi.win_create(wbuf)
        mpi.barrier()
        if mpi.rank == 0:
            win.lock(2, LOCK_SHARED)
            _issue(win, op_a, src, span_a[0], span_a[1])
            win.unlock(2)
        mpi.barrier()  # the separating synchronization
        if mpi.rank == 1:
            win.lock(2, LOCK_SHARED)
            _issue(win, op_b, src, span_b[0], span_b[1])
            win.unlock(2)
        mpi.barrier()
        win.free()

    report = run_check(ordered_app, nranks=3)
    assert not report.findings
