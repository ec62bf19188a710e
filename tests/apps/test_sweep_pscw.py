"""PSCW wavefront sweep: semantics + detection of the exposure-epoch race."""

import pytest

from repro import run_check
from repro.apps.sweep_pscw import expected_checksum, sweep_pscw
from repro.simmpi import run_app


class TestSemantics:
    @pytest.mark.parametrize("delivery", ["eager", "lazy", "random"])
    def test_fixed_matches_reference(self, delivery):
        results = run_app(sweep_pscw, nranks=4, params=dict(buggy=False),
                          delivery=delivery)
        expected = expected_checksum(4)
        assert results == pytest.approx(expected)

    def test_buggy_wrong_under_lazy(self):
        results = run_app(sweep_pscw, nranks=4, params=dict(buggy=True),
                          delivery="lazy")
        assert results != pytest.approx(expected_checksum(4))

    def test_two_ranks_minimal(self):
        results = run_app(sweep_pscw, nranks=2, params=dict(buggy=False),
                          delivery="lazy")
        assert results == pytest.approx(expected_checksum(2))


class TestDetection:
    def test_exposure_epoch_read_flagged(self):
        report = run_check(sweep_pscw, nranks=3, params=dict(buggy=True),
                           delivery="random")
        assert report.has_errors
        pairs = [{f.a.kind, f.b.kind} for f in report.errors]
        assert any(pair == {"load", "put"} for pair in pairs)

    def test_fixed_variant_clean(self):
        report = run_check(sweep_pscw, nranks=3, params=dict(buggy=False),
                           delivery="random")
        assert not report.findings, report.format()

    def test_fixed_clean_across_seeds(self):
        """post->start and complete->wait edges must order every pair the
        sweep generates, under any schedule."""
        for seed in range(3):
            report = run_check(sweep_pscw, nranks=4,
                               params=dict(buggy=False),
                               sched_policy="random", seed=seed)
            assert not report.findings, report.format()

    def test_repeated_waves_each_flagged_once(self):
        report = run_check(sweep_pscw, nranks=3,
                           params=dict(buggy=True, waves=4),
                           delivery="random")
        load_put = [f for f in report.errors
                    if {f.a.kind, f.b.kind} == {"load", "put"}]
        assert load_put
        assert load_put[0].occurrences >= 2  # deduped across waves
