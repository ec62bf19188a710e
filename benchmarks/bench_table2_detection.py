"""E2 — Table II: detection effectiveness on the five evaluated bugs.

For every row of the paper's Table II (three real-world defects, two
injected), run MC-Checker on the buggy variant, confirm detection and
root-cause pinpointing, run the fixed variant to confirm no false
positives, and record the row.  Rank counts follow the paper (lockopts at
64 processes) scaled by the benchmark preset.

The timing benchmark measures the full profile+analyze pipeline per case.
"""

import pytest

from repro import run_check
from repro.apps.registry import BUG_CASES, LOCKOPTS_EXCLUSIVE

ALL_CASES = list(BUG_CASES) + [LOCKOPTS_EXCLUSIVE]


def ranks_for(case, scale):
    cap = 64 if scale["fig8_ranks"] >= 64 else 8
    return min(case.nranks, cap)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_detection_row(case, record, scale, benchmark):
    nranks = ranks_for(case, scale)

    buggy = benchmark.pedantic(
        lambda: run_check(case.app, nranks=nranks,
                          params=case.params(True), delivery="random"),
        rounds=1, iterations=1)
    fixed = run_check(case.app, nranks=nranks, params=case.params(False),
                      delivery="random")

    principal = [f for f in buggy.findings
                 if f.severity == case.expected_severity]
    detected = bool(principal)
    root_cause_hit = any({f.a.kind, f.b.kind} <= case.root_cause
                         for f in buggy.findings)
    pinpointed = detected and all(
        side.loc.lineno > 0 for f in principal for side in (f.a, f.b))

    record("table2_detection",
           f"{case.name:20s} procs={nranks:<3d} "
           f"location={case.error_location:17s} "
           f"detected={'yes' if detected else 'NO':3s} "
           f"root-cause={'yes' if root_cause_hit else 'NO':3s} "
           f"severity={case.expected_severity:7s} "
           f"false-positives={len(fixed.findings)} "
           f"symptom={case.failure_symptom}")

    assert detected, f"{case.name}: not detected"
    assert root_cause_hit, f"{case.name}: root cause not pinpointed"
    assert pinpointed
    assert not fixed.findings, f"{case.name}: false positives on fix"
