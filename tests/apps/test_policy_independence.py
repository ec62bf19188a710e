"""Registry-wide invariants over every bundled bug case.

* Fixed variants are consistency-clean under every delivery policy and
  several schedules (no false positives anywhere in the corpus).
* Buggy variants are flagged under every delivery policy (detection does
  not depend on the race manifesting).
* Fixed variants compute delivery-independent results (behavioural
  correctness of the repairs, not just checker silence).
"""

import numpy as np
import pytest

from repro import run_check
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.simmpi import run_app

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
RANKS_CAP = 4


def _ranks(case):
    return min(case.nranks, RANKS_CAP)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("delivery", ["eager", "lazy"])
class TestCorpusInvariants:
    def test_fixed_clean(self, case, delivery):
        report = run_check(case.app, nranks=_ranks(case),
                           params=case.params(False), delivery=delivery)
        assert not report.findings, (
            f"{case.name} fixed flagged under {delivery}:\n"
            + report.format())

    def test_buggy_flagged(self, case, delivery):
        report = run_check(case.app, nranks=_ranks(case),
                           params=case.params(True), delivery=delivery)
        assert report.findings, \
            f"{case.name} buggy not flagged under {delivery}"


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_fixed_results_delivery_independent(case):
    """A correct program's observable results cannot depend on when the
    MPI library moves the bytes."""
    outputs = []
    for delivery in ("eager", "lazy"):
        results = run_app(case.app, nranks=_ranks(case),
                          params=case.params(False), delivery=delivery)
        outputs.append(results)

    def comparable(value):
        if value is None or isinstance(value, (bool, str)):
            return value
        try:
            return np.asarray(value, dtype=float).tolist()
        except (TypeError, ValueError):
            return str(value)

    left = [comparable(v) for v in outputs[0]]
    right = [comparable(v) for v in outputs[1]]
    assert left == right, f"{case.name}: fixed variant is schedule-dependent"
