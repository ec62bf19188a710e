"""Production vs the paper's per-pair algorithms over the fuzz corpus.

``repro.gen.fuzz`` cross-checks the executors that ship (batch,
streaming, incremental, the other trace format) against each other;
this is the arm that cannot live under ``src/``: a 50-seed corpus of
6-rank programs with three injected bugs each, every program checked by
production and by ``tests.reference.pairwise.check_pairwise`` — the
linear ``(window, target)`` scan — with canonical report bytes required
equal and every injected bug found (recall 1.0 against the manifest).
Five seeds also take the combinatorial strawman.
"""

import pytest

from repro.core.checker import check_traces
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import canonical_report, profile_program
from repro.gen.manifest import score_report
from tests.reference.pairwise import (
    check_pairwise, detect_cross_process_naive,
)

CORPUS = GenConfig(nranks=6, rounds=4, ops_per_round=3, bugs=("any",) * 3)
SEEDS = range(50)


@pytest.mark.parametrize("first", SEEDS[::10])
def test_production_equals_reference_on_the_fuzz_corpus(first, tmp_path):
    for seed in range(first, first + 10):
        generated = generate_program(CORPUS.replace(
            seed=seed, trace_format="binary" if seed % 2 else "text"))
        traces = profile_program(
            generated, trace_dir=str(tmp_path / str(seed))).traces
        want = canonical_report(check_pairwise(traces))
        report = check_traces(traces)
        assert canonical_report(report) == want, seed
        assert score_report(report, generated.manifest).recall == 1.0, seed
        if seed == first:
            assert canonical_report(check_pairwise(
                traces, inter=detect_cross_process_naive)) == want, seed
