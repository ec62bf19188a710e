"""A trace set is read as one: every file opened once, its runs checked,
expanded and scanned with every other file's.  Whatever the set, each
rank must come out of the set ingest exactly as it comes out of a
one-rank read of its file — the same calls, the same memory rows (of
the whole rank, and of each segment alone), the same counts and the
same digests."""

import numpy as np
import pytest

from repro import api
from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES
from repro.core.model import check_mem_rows
from repro.core.preprocess import preprocess_calls
from repro.gen import GenConfig, generate_program, replay
from repro.profiler.tracer import (
    MEM_DTYPE, TraceSet, read_mems, stack_calls,
)


def as_set(traces):
    """Per rank, what the set ingest gives it."""
    with traces.open() as readers:
        cols, table = stack_calls([reader.rank_calls()
                                   for reader in readers])
        rows, offsets = read_mems(readers)
        check_mem_rows(rows, offsets, table)
        out = {reader.header.rank: (
            list(cols.view(rank)),
            rows[offsets[rank]:offsets[rank + 1]].tobytes(),
            reader.counts(), reader.content_digest(verify=True))
            for rank, reader in enumerate(readers)}
    pre = preprocess_calls(traces)
    held, at, _tables = pre.mem_rows
    for rank in out:
        assert list(pre.events[rank]) == out[rank][0]
        assert held[at[rank]:at[rank + 1]].tobytes() == out[rank][1]
    return out


def one_rank(traces, rank):
    """What the one-rank reads of the rank's file give it: its calls,
    its rows read whole (checked, as a set's are) and a
    segment at a time, its counts and its digest."""
    with traces.reader(rank) as reader:
        cols, counts = reader.read_calls()
        rows, offsets = read_mems([reader])
        check_mem_rows(rows, offsets, reader.call_table)
        blocks = [block.array for block in reader.mem_blocks()]
        pieces = np.concatenate(blocks) if blocks else np.empty(
            0, MEM_DTYPE)
        assert pieces.tobytes() == rows.tobytes()
        return (list(cols), rows.tobytes(), counts,
                reader.content_digest(verify=True))


def assert_one_rank_sets(directory):
    traces = TraceSet(directory)
    whole = as_set(traces)
    assert sorted(whole) == list(range(traces.nranks))
    for rank in range(traces.nranks):
        assert whole[rank] == one_rank(traces, rank), rank


def _run(directory, app, nranks, **kwargs):
    api.run(app, nranks, trace_dir=directory, **kwargs)
    return directory


def _bug(case, buggy, fmt="binary"):
    return lambda d: _run(d, case.app, case.nranks,
                          params=case.params(buggy), trace_format=fmt)


def _generated(directory):
    config = GenConfig(seed=5, nranks=16, rounds=4, ops_per_round=4,
                       reps=4, bugs=("any",) * 2, trace_format="binary")
    program = generate_program(config)
    return _run(directory, replay, 16, params={"spec": program.program},
                scope="all", trace_format="binary", app_name="gen-5")


SETS = {
    **{f"{case.name}-{'buggy' if buggy else 'fixed'}": _bug(case, buggy)
       for case in BUG_CASES for buggy in (True, False)},
    "lu-96": lambda d: _run(d, lu, 16, params=dict(n=96),
                            delivery="eager", trace_format="binary"),
    "heat2d": lambda d: _run(d, heat2d, 8,
                             params=dict(rows=32, cols=16, steps=20),
                             trace_format="binary"),
    "generated-16": _generated,
    "text": _bug(next(c for c in BUG_CASES if c.name == "jacobi"), True,
                 "text"),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_set_ingest_is_the_one_rank_ingest_of_every_rank(tmp_path, name):
    assert_one_rank_sets(SETS[name](str(tmp_path / "t")))
