"""The ownership premise of the profiler's batches: an emitted call's
``args`` are never changed after ``EventHook.on_call``.

A trace writer keeps each call's ``args`` dict, and its list values, in
its batch until the batch is encoded (``TraceWriter.append_call``).  That
is only sound if the runtime hands every call a dict of its own and
leaves it alone afterwards.  A hook deep-copies every ``args`` as it
arrives; after whole runs of the Table II programs, LU, heat2d and a
generated program, the live dicts must still equal those copies.
"""

import copy
from unittest import mock

import pytest

from repro import api
from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES
from repro.gen import GenConfig, generate_program, replay
from repro.profiler import session
from repro.profiler.interpose import ProfilerHook


class _CopyingHook(ProfilerHook):
    """The profiler's hook, keeping each live ``args`` with a deep copy
    taken at the call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted_args = []

    def on_call(self, rank, fn, args):
        self.emitted_args.append((fn, args, copy.deepcopy(args)))
        super().on_call(rank, fn, args)


def _run_and_compare(tmp_path, app, nranks, **kwargs):
    hooks = []

    def hook(*args, **kw):
        hooks.append(_CopyingHook(*args, **kw))
        return hooks[-1]

    with mock.patch.object(session, "ProfilerHook", hook):
        api.run(app, nranks, trace_dir=str(tmp_path), **kwargs)
    (hook,) = hooks
    assert hook.emitted_args
    # the deep copy holds its own lists: a list value changed in place
    # after the call shows here as well as a changed dict
    for fn, live, taken in hook.emitted_args:
        assert live == taken, fn


@pytest.mark.parametrize("buggy", [True, False], ids=["buggy", "fixed"])
@pytest.mark.parametrize("case", BUG_CASES, ids=lambda c: c.name)
def test_table2_args_stay_as_emitted(tmp_path, case, buggy):
    _run_and_compare(tmp_path, case.app, case.nranks,
                     params=case.params(buggy))


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_lu_args_stay_as_emitted(tmp_path, fmt):
    _run_and_compare(tmp_path, lu, 4, params=dict(n=24, seed=1),
                     delivery="eager", trace_format=fmt)


def test_heat2d_args_stay_as_emitted(tmp_path):
    _run_and_compare(tmp_path, heat2d, 4,
                     params=dict(rows=16, cols=8, steps=5))


def test_generated_args_stay_as_emitted(tmp_path):
    config = GenConfig(seed=3, nranks=8, rounds=6, ops_per_round=4,
                       bugs=("any",) * 3)
    generated = generate_program(config)
    _run_and_compare(tmp_path, replay, config.nranks,
                     params={"spec": generated.program}, scope="all",
                     delivery=config.delivery,
                     sched_policy=config.sched_policy, seed=config.seed)
