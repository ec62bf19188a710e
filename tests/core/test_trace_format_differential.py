"""Trace-format differential: binary (v2) traces must be analytically
indistinguishable from text traces.

Each bundled bug case is profiled twice — once per on-disk format, same
seed/schedule, so the event streams are identical — and the checker must
produce byte-identical reports (modulo wall-clock timings) across both
formats and across job counts, for the batch and the streaming pipeline.
"""

import json

import pytest

from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.core.streaming import check_streaming
from repro.profiler.session import profile_run
from repro.profiler.tracer import FORMAT_BINARY, FORMAT_TEXT
from repro.tools import diff_traces

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
RANKS_CAP = 8
JOB_COUNTS = (1, 4)

_TRACES = {}


def traces_for(case, fmt):
    """Profile each (case, format) once and reuse across tests."""
    key = (case.name, fmt)
    if key not in _TRACES:
        nranks = min(case.nranks, RANKS_CAP)
        _TRACES[key] = profile_run(case.app, nranks,
                                   params=case.params(True),
                                   trace_format=fmt).traces
    return _TRACES[key]


def canonical(report) -> str:
    """Byte-comparable form of a report, modulo wall-clock timings."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


class TestFormatDifferential:
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_reports_identical_across_formats_and_jobs(self, case):
        text_traces = traces_for(case, FORMAT_TEXT)
        binary_traces = traces_for(case, FORMAT_BINARY)
        baseline = canonical(check_traces(text_traces))
        for traces in (text_traces, binary_traces):
            for jobs in JOB_COUNTS:
                report = check_traces(traces, CheckConfig(jobs=jobs))
                assert canonical(report) == baseline, (
                    f"{case.name}: report diverged for "
                    f"format={traces.rank_path('', 0)} jobs={jobs}")

    @pytest.mark.parametrize("case", ALL_CASES[:3], ids=lambda c: c.name)
    def test_unified_model_identical_across_formats(self, case):
        text_traces = traces_for(case, FORMAT_TEXT)
        binary_traces = traces_for(case, FORMAT_BINARY)
        unified = CheckConfig(memory_model="unified")
        left = check_traces(text_traces, unified)
        right = check_traces(binary_traces, unified)
        assert canonical(left) == canonical(right)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_streaming_identical_across_formats(self, case):
        text_traces = traces_for(case, FORMAT_TEXT)
        binary_traces = traces_for(case, FORMAT_BINARY)
        text_findings, _ = check_streaming(text_traces)
        binary_findings, _ = check_streaming(binary_traces)
        assert [f.to_dict() for f in text_findings] == \
            [f.to_dict() for f in binary_findings]

    def test_recordings_are_event_identical(self):
        case = ALL_CASES[0]
        diff = diff_traces(traces_for(case, FORMAT_TEXT),
                           traces_for(case, FORMAT_BINARY))
        assert diff.identical, diff.format()

    def test_event_counts_identical_across_formats(self):
        case = ALL_CASES[0]
        assert traces_for(case, FORMAT_TEXT).event_counts() == \
            traces_for(case, FORMAT_BINARY).event_counts()
