"""GA matmul app tests: numerics + the missing-GA_Sync defect."""

import pytest

from repro import run_check
from repro.apps.ga_matmul import ga_matmul
from repro.simmpi import run_app


class TestNumerics:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_numpy(self, nranks):
        results = run_app(ga_matmul, nranks=nranks, params=dict(n=8),
                          delivery="random", seed=1)
        assert max(results) < 1e-12

    def test_uneven_distribution(self):
        results = run_app(ga_matmul, nranks=3, params=dict(n=7),
                          delivery="lazy")
        assert max(results) < 1e-12


class TestChecker:
    def test_clean(self):
        report = run_check(ga_matmul, nranks=3,
                           params=dict(n=6, verify=False),
                           delivery="random")
        assert not report.findings, report.format()

    def test_missing_sync_flagged(self):
        report = run_check(ga_matmul, nranks=3,
                           params=dict(n=6, buggy=True, verify=False),
                           delivery="random")
        assert report.has_errors
        pairs = [{f.a.kind, f.b.kind} for f in report.errors]
        assert any(pair == {"store", "get"} for pair in pairs)

    def test_missing_sync_corrupts_under_lazy_reads(self):
        """Without the sync, remote Gets can fetch pre-initialization
        zeros: the product is wrong on some schedule."""
        outcomes = set()
        for seed in range(6):
            results = run_app(ga_matmul, nranks=3,
                              params=dict(n=6, buggy=True),
                              sched_policy="random", seed=seed)
            outcomes.add(max(results) < 1e-12)
        # at least one schedule must expose the corruption
        assert False in outcomes
