"""One call table per trace set: the stacked ingest against the per-event
oracle.

``preprocess_calls`` reads every rank file's calls into one stacked
:class:`~repro.profiler.callcols.CallColumns` and one
:class:`~repro.core.calltable.CallTable`.  Every column of that table
must equal the concatenation over the ranks of
``CallTable.from_events(rank, events)``, and every rank's views
(``pre.call_tables[rank]``, ``pre.events[rank]``) that rank's table and
decoded calls — on Table II buggy and fixed x text and binary, the
committed pingpong fixture, a set mixing text and binary files, codec
rows (an argument past int64), and ranks whose footers list shapes and
strings in different orders.  A check over the stack reports what a check over the
typed events does.
"""

import os
import shutil

import numpy as np
import pytest

from repro import api
from repro.apps.registry import BUG_CASES, SWEEP_PSCW
from repro.core.calltable import CallTable
from repro.core.preprocess import preprocess_calls
from repro.gen.fuzz import canonical_report
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.tracer import TraceSet, TraceWriter
from repro.util.location import SourceLocation

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "profiler",
                       "fixtures", "pingpong")
COLUMNS = ("seq", "fn", "cls", "comm", "win", "peer", "tag", "req",
           "req_kind", "target", "lock")


def assert_tables_equal(a: CallTable, b: CallTable):
    assert (a.rank, a.n) == (b.rank, b.n)
    for col in COLUMNS + ("group_off", "group_val"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col),
                                      err_msg=col)
        assert getattr(a, col).dtype == getattr(b, col).dtype, col
    assert a.lock_types == b.lock_types


def assert_stack_is_the_oracle(traces: TraceSet):
    pre = preprocess_calls(traces)
    events = [traces.events(rank) for rank in range(traces.nranks)]
    oracle = [CallTable.from_events(rank, evs)
              for rank, evs in enumerate(events)]
    table, starts = pre.call_table, np.cumsum([0] + [t.n for t in oracle])
    for col in COLUMNS:
        expected = np.concatenate([getattr(t, col) for t in oracle])
        np.testing.assert_array_equal(getattr(table, col), expected,
                                      err_msg=col)
        assert getattr(table, col).dtype == expected.dtype, col
    np.testing.assert_array_equal(table.offsets, starts)
    np.testing.assert_array_equal(
        table.ranks, np.repeat(np.arange(traces.nranks), np.diff(starts)))
    assert [table.group(i) for i in range(table.n)] == \
        [t.group(i) for t in oracle for i in range(t.n)]
    assert table.lock_types == {int(start) + k: text for start, t
                                in zip(starts, oracle)
                                for k, text in t.lock_types.items()}
    for rank, t in enumerate(oracle):
        assert_tables_equal(pre.call_tables[rank], t)
        assert list(pre.events[rank]) == \
            [e for e in events[rank] if isinstance(e, CallEvent)]
    return pre


def corpus():
    for case in BUG_CASES:
        for buggy in (True, False):
            for fmt in ("text", "binary"):
                yield (f"{case.name}-{'buggy' if buggy else 'fixed'}-{fmt}",
                       case, buggy, fmt)


@pytest.mark.parametrize("name,case,buggy,fmt", list(corpus()),
                         ids=[name for name, *_ in corpus()])
def test_table_ii(tmp_path, name, case, buggy, fmt):
    traces = api.run(case.app, case.nranks, params=case.params(buggy),
                     trace_dir=str(tmp_path), trace_format=fmt).traces
    assert_stack_is_the_oracle(traces)


def test_pingpong_fixture():
    assert_stack_is_the_oracle(TraceSet(FIXTURE))


def test_a_set_mixing_text_and_binary_files(tmp_path):
    """PSCW groups and locks, rank 1's file binary, the others text."""
    for fmt in ("text", "binary"):
        api.run(SWEEP_PSCW.app, SWEEP_PSCW.nranks,
                params=SWEEP_PSCW.params(True),
                trace_dir=str(tmp_path / fmt), trace_format=fmt)
    mixed = str(tmp_path / "mixed")
    os.makedirs(mixed)
    for rank, fmt in enumerate(("text", "binary", "text")):
        shutil.copy(TraceSet.rank_path(str(tmp_path / fmt), rank, fmt), mixed)
    pre = assert_stack_is_the_oracle(TraceSet(mixed))
    assert pre.call_table.group_val.size
    assert canonical_report(api.check(mixed)) == \
        canonical_report(api.check(str(tmp_path / "text")))


HERE = SourceLocation("app.c", 7, "main")
THERE = SourceLocation("lib.c", 42, "helper")


def _calls(rank):
    """Rank 0 meets its call forms, strings and locations in the
    opposite order of rank 1 — so their footers' shape and string tables
    differ — and each logs a disp past int64 (a codec row) and a lock
    type that is neither shared nor exclusive."""
    forms = [
        (HERE, "Win_create", {"win": 0, "comm": 0, "base": 4096, "size": 64,
                              "disp_unit": 1, "var": "buf"}),
        (THERE, "Win_post", {"win": 0, "group": [1 - rank] if rank < 2
                             else [0, 1]}),
        (HERE, "Win_lock", {"win": 0, "target": rank,
                            "lock_type": f"odd{rank}"}),
        (THERE, "Put", {"win": 0, "target": 1 - rank % 2,
                        "disp": (1 << 70) + rank, "var": "buf"}),
        (HERE, "Win_lock", {"win": 0, "target": 0,
                            "lock_type": "exclusive"}),
        (THERE, "Barrier", {"comm": 0}),
    ]
    middle = forms[1:]
    return [forms[0]] + (middle if rank != 1 else middle[::-1])


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_codec_rows_and_footers_in_different_orders(tmp_path, fmt):
    for rank in range(3):
        with TraceWriter(TraceSet.rank_path(str(tmp_path), rank, fmt),
                         rank, 3, format=fmt) as writer:
            seq = 0
            for loc, fn, args in _calls(rank):
                writer.write(CallEvent(rank, seq, fn, args, loc))
                writer.write(MemEvent(rank, seq + 1, "store", 4096, 8,
                                      f"x{seq % 3}", loc))
                seq += 2
    pre = assert_stack_is_the_oracle(TraceSet(str(tmp_path)))
    assert len(pre.call_columns.codec) == 3
    assert sorted(set(pre.call_table.lock_types.values())) == \
        ["odd0", "odd1", "odd2"]
