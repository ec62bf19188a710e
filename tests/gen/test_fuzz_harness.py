"""End-to-end fuzz harness: recall/precision scoring + differential
arms over generated programs."""

import pytest

from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.gen import BUG_PATTERNS, GenConfig, generate_program, score_report
from repro.gen.fuzz import (
    canonical_report, differential_reports, fuzz_corpus, profile_program,
    run_case,
)


@pytest.mark.parametrize("pattern", BUG_PATTERNS)
def test_each_pattern_detected_exactly(tmp_path, pattern):
    generated = generate_program(
        GenConfig(seed=1, nranks=5, bugs=(pattern,)))
    profiled = profile_program(generated, trace_dir=str(tmp_path))
    report = check_traces(profiled.traces, CheckConfig())
    score = score_report(report, generated.manifest)
    assert score.recall == 1.0, f"{pattern}: missed {score.missed}"
    assert score.precision == 1.0, (
        f"{pattern}: unmatched findings "
        f"{[report.findings[i].to_dict() for i in score.unmatched_findings]}")
    (bug,) = generated.manifest.bugs
    matched = [report.findings[i] for i in score.matched[bug.bug_id]]
    assert any(f.kind == bug.kind and f.rule == bug.rule and
               f.severity == bug.severity for f in matched), (
        f"{pattern}: no finding with the manifest's expected shape "
        f"({bug.kind}/{bug.rule}/{bug.severity})")


def test_score_accepts_finding_dicts():
    generated = generate_program(GenConfig(seed=1, bugs=("op_pair",)))
    (bug,) = generated.manifest.bugs
    fake = {"kind": bug.kind, "a": {"var": bug.var}, "b": {"var": "win"}}
    score = score_report([fake], generated.manifest)
    assert score.recall == 1.0 and score.precision == 1.0
    noise = {"kind": bug.kind, "a": {"var": "win"}, "b": {"var": "win"}}
    score = score_report([noise], generated.manifest)
    assert score.recall == 0.0 and score.precision == 0.0
    assert score.missed == (0,)


def test_run_case_full_matrix_no_mismatches():
    case = run_case(GenConfig(seed=3, nranks=5, rounds=3,
                              bugs=("any",) * 2))
    assert case.ok, case.to_dict()
    assert case.recall == 1.0 and case.precision == 1.0
    # every executor was actually compared
    assert set(case.arms) == {
        "batch", "streaming", "incremental-cold", "incremental-warm",
        "format-binary",
    }
    assert case.mismatched_arms == ()


def test_differential_reports_identical_across_matrix(tmp_path):
    generated = generate_program(
        GenConfig(seed=5, nranks=4, bugs=("target_race",)))
    profiled = profile_program(generated, trace_dir=str(tmp_path))
    reports = differential_reports(profiled.traces)
    assert len(set(reports.values())) == 1, sorted(reports)


def test_fuzz_corpus_aggregates():
    report = fuzz_corpus(GenConfig(nranks=4, bugs=("any",)),
                         seeds=range(3), differential=False)
    assert len(report.cases) == 3
    assert [c.seed for c in report.cases] == [0, 1, 2]
    assert report.ok and report.recall == 1.0
    assert "recall=1.000" in report.format()


def test_canonical_report_strips_timings(tmp_path):
    generated = generate_program(GenConfig(seed=2, nranks=4))
    profiled = profile_program(generated, trace_dir=str(tmp_path))
    report = check_traces(profiled.traces, CheckConfig())
    text = canonical_report(report)
    assert "phase_seconds" not in text
