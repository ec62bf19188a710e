"""Work-queue claiming: atomicity of each mode + checker verdicts."""

import pytest

from repro import run_check
from repro.apps.work_queue import FREE, TAKEN, work_queue
from repro.simmpi import run_app


def all_claims(results):
    return sorted(task for claimed, _table in results for task in claimed)


class TestAtomicModes:
    @pytest.mark.parametrize("mode", ["cas", "fetch_add"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_task_claimed_exactly_once(self, mode, seed):
        results = run_app(work_queue, nranks=4,
                          params=dict(tasks=6, mode=mode),
                          sched_policy="random", seed=seed,
                          delivery="random")
        assert all_claims(results) == list(range(6))

    def test_cas_marks_ownership_table(self):
        results = run_app(work_queue, nranks=3,
                          params=dict(tasks=5, mode="cas"))
        assert results[0][1] == [TAKEN] * 5

    @pytest.mark.parametrize("mode", ["cas", "fetch_add"])
    def test_checker_clean(self, mode):
        report = run_check(work_queue, nranks=3,
                           params=dict(tasks=4, mode=mode),
                           delivery="random")
        assert not report.findings, report.format()


class TestRacyMode:
    def test_double_claims_occur(self):
        duplicated = False
        for seed in range(6):
            results = run_app(work_queue, nranks=4,
                              params=dict(tasks=4, mode="racy"),
                              sched_policy="random", seed=seed,
                              delivery="random")
            claims = all_claims(results)
            if len(claims) != len(set(claims)):
                duplicated = True
                break
        assert duplicated, "some schedule must double-claim"

    def test_checker_flags_the_race(self):
        report = run_check(work_queue, nranks=3,
                           params=dict(tasks=3, mode="racy"),
                           delivery="random")
        assert report.has_errors
        pairs = [{f.a.kind, f.b.kind} for f in report.errors]
        assert any("put" in p for p in pairs)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_app(work_queue, nranks=2, params=dict(mode="hope"))
