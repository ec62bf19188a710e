"""Table II effectiveness study as a test suite (experiment E2).

For every evaluated bug case: the buggy variant must be detected with the
documented root-cause operation pair and the error must carry actionable
diagnostics; the fixed variant must be clean (no false positives) across
delivery policies and scheduler seeds.
"""

import pytest

from repro import run_check
from repro.apps.registry import BUG_CASES, LOCKOPTS_EXCLUSIVE, bug_case

#: rank counts scaled down from the paper's (64 ranks for lockopts) to
#: keep the suite fast; detection is scale-independent (section VII).
TEST_RANKS = {"emulate": 2, "BT-broadcast": 4, "lockopts": 6,
              "lockopts-exclusive": 6, "ping-pong": 2, "jacobi": 4}

ALL_CASES = list(BUG_CASES) + [LOCKOPTS_EXCLUSIVE]


def _check(case, buggy, **kw):
    kw.setdefault("delivery", "random")
    return run_check(case.app, nranks=TEST_RANKS[case.name],
                     params=case.params(buggy), **kw)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
class TestDetection:
    def test_buggy_variant_flagged(self, case):
        report = _check(case, buggy=True)
        findings = report.findings
        assert findings, f"{case.name}: bug not detected"
        principal = [f for f in findings
                     if f.severity == case.expected_severity]
        assert principal, (f"{case.name}: expected a "
                           f"{case.expected_severity}")

    def test_root_cause_pair_reported(self, case):
        report = _check(case, buggy=True)
        pairs = [{f.a.kind, f.b.kind} for f in report.findings]
        assert any(pair <= case.root_cause for pair in pairs), \
            f"{case.name}: no finding among {case.root_cause}; got {pairs}"

    def test_error_location_class(self, case):
        report = _check(case, buggy=True)
        kinds = {f.kind for f in report.findings}
        expected = ("intra_epoch" if case.error_location == "within an epoch"
                    else "cross_process")
        assert expected in kinds

    def test_diagnostics_have_locations(self, case):
        report = _check(case, buggy=True)
        f = report.findings[0]
        for side in (f.a, f.b):
            assert side.loc.lineno > 0
            assert side.loc.filename.endswith(".py")

    def test_fixed_variant_clean(self, case):
        report = _check(case, buggy=False)
        assert not report.findings, (
            f"{case.name} fixed variant flagged: "
            + "; ".join(x.format().splitlines()[0]
                        for x in report.findings))


class TestAcrossPolicies:
    """Detection is schedule-independent: MC-Checker reasons about what the
    memory model permits, not about one observed interleaving."""

    @pytest.mark.parametrize("delivery", ["eager", "lazy", "random"])
    def test_emulate_detected_under_all_deliveries(self, delivery):
        case = bug_case("emulate")
        report = _check(case, buggy=True, delivery=delivery)
        assert report.has_errors

    @pytest.mark.parametrize("seed", range(3))
    def test_jacobi_detected_under_random_schedules(self, seed):
        case = bug_case("jacobi")
        report = _check(case, buggy=True, sched_policy="random", seed=seed)
        assert report.has_errors

    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_jacobi_clean_under_random_schedules(self, seed):
        case = bug_case("jacobi")
        report = _check(case, buggy=False, sched_policy="random", seed=seed)
        assert not report.findings


class TestScaleIndependence:
    """Table II's observation: detection works at 2 ranks and at larger
    scales alike (rule-based, not statistical)."""

    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_pingpong_any_scale(self, nranks):
        case = bug_case("ping-pong")
        report = run_check(case.app, nranks=nranks,
                           params=case.params(True), delivery="random")
        assert report.has_errors

    @pytest.mark.parametrize("nranks", [4, 8, 16])
    def test_lockopts_any_scale(self, nranks):
        case = bug_case("lockopts")
        report = run_check(case.app, nranks=nranks,
                           params=case.params(True), delivery="random")
        assert report.has_errors


class TestSymptoms:
    """The simulator manifests the documented failure symptoms."""

    def test_emulate_stale_read_under_lazy(self):
        """Each rank reads back the value it just wrote through the DSM;
        under lazy delivery the buggy read observes the pre-Get buffer
        content instead."""
        case = bug_case("emulate")
        from repro.simmpi import run_app

        def expected(rank, rounds=4):
            return [float(100 * rank + i) for i in range(rounds)]

        eager = run_app(case.app, nranks=2, params=case.params(True),
                        delivery="eager")
        assert [eager[r] for r in range(2)] == [expected(0), expected(1)]

        lazy = run_app(case.app, nranks=2, params=case.params(True),
                       delivery="lazy")
        assert lazy[0] != expected(0)  # stale values observed

    def test_bt_broadcast_hangs_under_lazy(self):
        case = bug_case("BT-broadcast")
        from repro.simmpi import run_app
        results = run_app(case.app, nranks=4, params=case.params(True),
                          delivery="lazy")
        assert any(hung for _ok, hung in results), \
            "the while loop should spin to its bound under lazy delivery"

    def test_bt_broadcast_fixed_never_hangs(self):
        case = bug_case("BT-broadcast")
        from repro.simmpi import run_app
        for delivery in ("eager", "lazy", "random"):
            results = run_app(case.app, nranks=4,
                              params=case.params(False), delivery=delivery)
            assert all(ok and not hung for ok, hung in results)

    def test_pingpong_corruption_under_lazy(self):
        case = bug_case("ping-pong")
        from repro.simmpi import run_app
        results = run_app(case.app, nranks=2,
                          params=dict(case.params(True), verify=True),
                          delivery="lazy")
        assert any(corrupt > 0 for corrupt, _last in results[:2])

    def test_pingpong_fixed_never_corrupts(self):
        case = bug_case("ping-pong")
        from repro.simmpi import run_app
        for delivery in ("eager", "lazy"):
            results = run_app(case.app, nranks=2,
                              params=dict(case.params(False), verify=True),
                              delivery=delivery)
            assert all(corrupt == 0 for corrupt, _last in results[:2])

    def test_jacobi_wrong_answers_under_lazy(self):
        import numpy as np
        case = bug_case("jacobi")
        from repro.simmpi import run_app
        # enough iterations for the boundary to diffuse across ranks, so
        # the stale-ghost lag becomes numerically visible
        params = dict(interior=4, iterations=8)
        good = run_app(case.app, nranks=4,
                       params=dict(case.params(False), **params),
                       delivery="lazy")
        bad = run_app(case.app, nranks=4,
                      params=dict(case.params(True), **params),
                      delivery="lazy")
        assert np.abs(np.array(good) - np.array(bad)).max() > 0
