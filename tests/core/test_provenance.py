"""Finding-provenance differential tests.

Every finding must carry a non-empty provenance record — the detection
phase/pattern, the two influence spans as trace references, the
enclosing epoch (intra-epoch findings) and the failed happens-before
edge — and that record must be *path-invariant*: byte-identical between
production and the per-pair reference (``tests.reference.pairwise``),
across job counts, and across incremental warm/cold runs, because it is
derived purely from the conflicting pair.  The run-dependent facts
(which executor/cache found it) live in the non-serialized ``context``
annotation instead, which this suite checks separately per path.
"""

import json

import pytest

from repro.apps.registry import BUG_CASES
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.profiler.session import profile_run
from tests.reference.pairwise import check_pairwise

RANKS_CAP = 8

_TRACES = {}


def traces_for(case):
    if case.name not in _TRACES:
        nranks = min(case.nranks, RANKS_CAP)
        _TRACES[case.name] = profile_run(
            case.app, nranks, params=case.params(True)).traces
    return _TRACES[case.name]


def cases_with_findings():
    out = []
    for case in BUG_CASES:
        report = check_traces(traces_for(case))
        if report.findings:
            out.append(case)
    return out


CASES = cases_with_findings()


def canonical(report) -> str:
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


def _require_provenance(finding, label):
    prov = finding.provenance
    assert prov, f"{label}: finding has empty provenance"
    assert prov["phase"] in ("intra", "inter"), label
    assert prov["pattern"], label
    spans = prov["spans"]
    for side in ("a", "b"):
        rank, start, end = spans[side]
        assert rank >= 0 and start <= end, label
    assert prov["hb"]["edge"], label
    if prov["phase"] == "intra" and prov.get("epoch") is not None:
        epoch = prov["epoch"]
        assert {"rank", "win", "kind", "open_seq",
                "close_seq"} <= set(epoch), label


class TestProvenancePresence:
    def test_corpus_produces_findings(self):
        assert CASES, "no bug case produced findings"

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_every_finding_has_provenance(self, case):
        report = check_traces(traces_for(case))
        for finding in report.findings:
            _require_provenance(finding, case.name)

    @pytest.mark.parametrize("case", CASES[:3], ids=lambda c: c.name)
    def test_provenance_rendered_in_text_report(self, case):
        report = check_traces(traces_for(case))
        text = report.format()
        assert "provenance:" in text
        first = report.findings[0]
        assert first.provenance_line() in text

    @pytest.mark.parametrize("case", CASES[:3], ids=lambda c: c.name)
    def test_provenance_serialized_in_to_dict(self, case):
        report = check_traces(traces_for(case))
        for entry in report.to_dict()["errors"] + \
                report.to_dict()["warnings"]:
            assert entry["provenance"], case.name


class TestProvenanceInvariance:
    """to_dict now includes provenance, so canonical-report equality
    across execution paths proves provenance invariance too."""

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_identical_across_engines_and_jobs(self, case):
        traces = traces_for(case)
        ref = canonical(check_pairwise(traces))
        assert canonical(check_traces(traces)) == ref
        assert canonical(check_traces(traces, CheckConfig(jobs=2))) == ref

    @pytest.mark.parametrize("case", CASES[:3], ids=lambda c: c.name)
    def test_identical_across_incremental_warm_cold(self, case, tmp_path):
        traces = traces_for(case)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        plain = canonical(check_traces(traces))
        cold = check_traces(traces, config)
        warm = check_traces(traces, config)
        assert canonical(cold) == plain
        assert canonical(warm) == plain


class TestRunContext:
    """The non-serialized context annotation tracks *how* each finding
    was produced — and never leaks into the serialized report."""

    @pytest.mark.parametrize("case", CASES[:3], ids=lambda c: c.name)
    def test_batch_context(self, case):
        report = check_traces(traces_for(case))
        for finding in report.findings:
            ctx = finding.context
            assert ctx["jobs"] == 1
            assert ctx["mode"] == "batch"
            assert ctx["cache"] == "none"

    @pytest.mark.parametrize("case", CASES[:2], ids=lambda c: c.name)
    def test_incremental_context_cold_then_warm(self, case, tmp_path):
        traces = traces_for(case)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        cold = check_traces(traces, config)
        for finding in cold.findings:
            assert finding.context["mode"] == "incremental"
            assert finding.context["cache"] == "computed"
            assert finding.context["shard"] >= 0
        warm = check_traces(traces, config)
        # the unchanged-manifest fast path serves the whole report
        for finding in warm.findings:
            assert finding.context["cache"] in ("hit", "manifest")

    @pytest.mark.parametrize("case", CASES[:1], ids=lambda c: c.name)
    def test_context_not_serialized(self, case):
        report = check_traces(traces_for(case))
        payload = json.dumps(report.to_dict())
        assert '"context"' not in payload
        first = report.findings[0]
        assert "context" not in first.to_dict()
        assert "context" not in first.to_payload()
