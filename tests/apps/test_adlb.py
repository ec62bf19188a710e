"""The ADLB stack-buffer anecdote (section II-B) end to end."""

import pytest

from repro import run_check
from repro.apps.adlb import adlb, expected_queue
from repro.simmpi import run_app


class TestLatentBugBehaviour:
    def test_works_for_years_under_eager_delivery(self):
        """On 'most platforms' small payloads are copied eagerly: the bug
        stays latent and the queue is correct."""
        results = run_app(adlb, nranks=3, params=dict(buggy=True),
                          delivery="eager")
        assert results[0] == expected_queue(3)

    def test_bites_on_deferred_transmission(self):
        """The Blue Gene/Q scenario: transfers deferred to the fence read
        the overwritten stack frame."""
        results = run_app(adlb, nranks=3, params=dict(buggy=True),
                          delivery="lazy")
        assert results[0] != expected_queue(3)

    def test_fixed_correct_under_any_delivery(self):
        for delivery in ("eager", "lazy", "random"):
            results = run_app(adlb, nranks=3, params=dict(buggy=False),
                              delivery=delivery)
            assert results[0] == expected_queue(3), delivery


class TestDetection:
    @pytest.mark.parametrize("delivery", ["eager", "lazy"])
    def test_flagged_even_when_latent(self, delivery):
        """MC-Checker flags the defect regardless of whether this run's
        delivery timing made it bite — the point of the tool."""
        report = run_check(adlb, nranks=3, params=dict(buggy=True),
                           delivery=delivery)
        assert report.has_errors
        # root cause: the Put's origin (stack) overwritten within the epoch
        pairs = [{f.a.kind, f.b.kind} for f in report.errors]
        assert any(pair <= {"put", "store"} for pair in pairs)

    def test_diagnostics_name_the_stack_buffer(self):
        report = run_check(adlb, nranks=3, params=dict(buggy=True))
        vars_named = {f.a.var for f in report.errors} | \
            {f.b.var for f in report.errors}
        assert "stack" in vars_named

    def test_fixed_variant_clean(self):
        report = run_check(adlb, nranks=3, params=dict(buggy=False),
                           delivery="random")
        assert not report.findings
