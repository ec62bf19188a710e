"""Regression pin: provenance spans are invariant to how the trace was
encoded and which implementation analyzed it.

A finding's provenance (``spans`` = ``[rank, start_seq, end_seq]`` trace
references, detection pattern, enclosing epoch, hb edge) must describe
the *program*, not the run that analyzed it.  Profiling the same
generated program in text and binary trace formats and analyzing each
with production and with the paper's per-pair algorithms
(``tests.reference.pairwise``) must produce byte-identical canonical
reports — provenance included.  A drift here would break manifest
scoring and the run-ledger's cross-run comparisons.
"""

import json

from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import canonical_report, profile_program
from tests.reference.pairwise import check_pairwise

#: one program exercising several finding shapes at once
_CFG = GenConfig(seed=13, nranks=5, rounds=4,
                 bugs=("op_pair", "conflicting_puts", "target_race"))


def _reports(tmp_path):
    generated = generate_program(_CFG)
    out = {}
    for trace_format in ("text", "binary"):
        trace_dir = tmp_path / trace_format
        profiled = profile_program(generated, trace_dir=str(trace_dir),
                                   trace_format=trace_format)
        out[f"{trace_format}/production"] = check_traces(
            profiled.traces, CheckConfig())
        out[f"{trace_format}/reference"] = check_pairwise(profiled.traces)
    return out


def test_reports_byte_identical_across_formats_and_planes(tmp_path):
    reports = _reports(tmp_path)
    canon = {arm: canonical_report(r) for arm, r in reports.items()}
    baseline = canon["text/production"]
    for arm, text in canon.items():
        assert text == baseline, f"report drift on arm {arm}"


def test_provenance_spans_pinned(tmp_path):
    reports = _reports(tmp_path)
    baseline = None
    for arm, report in sorted(reports.items()):
        findings = [f.to_dict() for f in report.findings]
        assert findings, "expected findings from the injected bugs"
        prov = [(f["provenance"].get("pattern"),
                 tuple(sorted((side, tuple(span)) for side, span in
                              f["provenance"].get("spans", {}).items())),
                 f["provenance"].get("epoch"),
                 f["a"]["seq"], f["b"]["seq"])
                for f in findings]
        for entry in prov:
            assert entry[1], "finding carries no influence spans"
            # spans must be real [rank, start_seq, end_seq] references
            for _side, span in entry[1]:
                assert len(span) == 3
                rank, start_seq, end_seq = span
                assert 0 <= rank < _CFG.nranks
                assert 0 <= start_seq <= end_seq
        if baseline is None:
            baseline = (arm, prov)
        else:
            assert prov == baseline[1], (
                f"provenance drift between {baseline[0]} and {arm}")


def test_provenance_survives_json_roundtrip(tmp_path):
    generated = generate_program(_CFG)
    profiled = profile_program(generated, trace_dir=str(tmp_path))
    report = check_traces(profiled.traces, CheckConfig())
    payload = json.loads(json.dumps(report.to_dict()))
    for finding in payload["errors"] + payload["warnings"]:
        assert "provenance" in finding
