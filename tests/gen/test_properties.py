"""Hypothesis properties of the generator.

Three invariants the whole harness rests on:

* every generated program is schedulable — ``replay`` runs it to
  completion on the simulated runtime, any epoch mix, no deadlock;
* generation is a pure function of the config — the same seed yields a
  byte-identical program and manifest;
* the clean-traffic rules are sound — a configuration with no injected
  bugs produces zero findings, from production and from the per-pair
  reference (``tests.reference.pairwise``).
"""

from hypothesis import given, settings, strategies as st

from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.gen import GenConfig, generate_program, replay
from repro.gen.fuzz import profile_program
from repro.simmpi import run_app
from tests.reference.pairwise import check_pairwise

EPOCH_SUBSETS = st.lists(
    st.sampled_from(("fence", "lock", "lockall", "pscw")),
    min_size=1, max_size=4, unique=True)


def _config(seed, nranks, rounds, ops, kinds, nbugs):
    return GenConfig(
        seed=seed, nranks=nranks, rounds=rounds, ops_per_round=ops,
        epoch_weights=tuple((k, 1.0) for k in kinds),
        bugs=("any",) * nbugs)


@given(seed=st.integers(0, 10_000), nranks=st.integers(2, 9),
       rounds=st.integers(1, 4), ops=st.integers(1, 4),
       kinds=EPOCH_SUBSETS, nbugs=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_generated_programs_are_schedulable(seed, nranks, rounds, ops,
                                            kinds, nbugs):
    generated = generate_program(
        _config(seed, nranks, rounds, ops, kinds, nbugs))
    # runs to completion on the simulated runtime (deadlock would hang
    # the scheduler and raise), under a delivery/schedule the generator
    # did not pick
    run_app(replay, nranks, params={"spec": generated.program},
            sched_policy="random", seed=seed + 1, delivery="eager")


@given(seed=st.integers(0, 10_000), nranks=st.integers(2, 9),
       kinds=EPOCH_SUBSETS, nbugs=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_same_seed_same_bytes(seed, nranks, kinds, nbugs):
    cfg = _config(seed, nranks, 3, 3, kinds, nbugs)
    first, second = generate_program(cfg), generate_program(cfg)
    assert first.program.canonical_json() == second.program.canonical_json()
    assert first.manifest.canonical_json() == \
        second.manifest.canonical_json()


@given(seed=st.integers(0, 10_000), nranks=st.integers(2, 8),
       kinds=EPOCH_SUBSETS)
@settings(max_examples=10, deadline=None)
def test_bug_free_programs_are_silent(tmp_path_factory, seed, nranks,
                                      kinds):
    generated = generate_program(_config(seed, nranks, 3, 3, kinds, 0))
    trace_dir = tmp_path_factory.mktemp("clean-traces")
    profiled = profile_program(generated, trace_dir=str(trace_dir))
    for engine, report in (
            ("production", check_traces(profiled.traces, CheckConfig())),
            ("reference", check_pairwise(profiled.traces))):
        assert report.findings == [], (
            f"clean program (seed={seed}) produced findings on {engine}: "
            f"{[e.to_dict() for e in report.findings]}")
