"""The six-workload ladder: what runs, with which inputs, and the known
answer every verdict is checked against.

A workload is a tuple of *cases*; a case is one program the pipeline
profiles and checks (``bugs10`` has ten, every other workload one).  All
inputs derive from the seed: it feeds ``api.run(seed=...)`` (scheduler
and delivery randomness), the LU matrix and ``GenConfig.seed``.  The
program under measurement only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, BugCase
from repro.core.checker import CheckReport
from repro.gen import (
    GenConfig, GeneratedProgram, generate_program, replay, score_report,
)


@dataclass(frozen=True)
class Case:
    """One program: how to profile it and what the checker must say."""

    name: str
    app: Callable
    nranks: int
    params: Dict[str, Any]
    #: ``api.run`` keywords besides ``trace_dir``/``params``/``seed``
    run_kwargs: Dict[str, Any]
    #: the verdict oracle: report -> is it the known answer
    expect: Callable[[CheckReport], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cases: Tuple[Case, ...]
    #: time the incremental re-check of a perturbed copy instead of
    #: profile + plain check (profiling becomes set-up)
    recheck: bool = False
    #: extra executor spans the traced run takes on this workload
    executors: FrozenSet[str] = frozenset()
    #: the generator config, where the workload's program is generated
    gen_config: Optional[GenConfig] = None


def expect_clean(report: CheckReport) -> bool:
    return not report.findings


def expect_bug(case: BugCase) -> Callable[[CheckReport], bool]:
    """A finding at the registry's severity whose two access kinds are
    the registry's root cause (the Table II detection criterion)."""
    def check(report: CheckReport) -> bool:
        return any(f.severity == case.expected_severity
                   and {f.a.kind, f.b.kind} <= case.root_cause
                   for f in report.findings)
    return check


def expect_manifest(generated: GeneratedProgram
                    ) -> Callable[[CheckReport], bool]:
    def check(report: CheckReport) -> bool:
        score = score_report(report, generated.manifest)
        return score.recall == 1.0 and score.precision == 1.0
    return check


def _bugs10(seed: int, smoke: bool) -> Workload:
    cases = []
    for bug in BUG_CASES:
        for buggy in (True, False):
            cases.append(Case(
                name=f"{bug.name}-{'buggy' if buggy else 'fixed'}",
                app=bug.app, nranks=bug.nranks, params=bug.params(buggy),
                run_kwargs=dict(trace_format="binary"),
                expect=expect_bug(bug) if buggy else expect_clean))
    return Workload("bugs10", seed, tuple(cases),
                    executors=frozenset({"streaming", "jobs2"}))


def _lu_case(seed: int, smoke: bool, trace_format: str) -> Case:
    return Case(name="lu", app=lu, nranks=16,
                params=dict(n=96 if smoke else 256, seed=seed),
                run_kwargs=dict(delivery="eager", trace_format=trace_format),
                expect=expect_clean)


def _lu16(seed: int, smoke: bool) -> Workload:
    return Workload("lu16", seed, (_lu_case(seed, smoke, "binary"),))


def _lu16_text(seed: int, smoke: bool) -> Workload:
    return Workload("lu16_text", seed, (_lu_case(seed, smoke, "text"),))


def _lu16_recheck(seed: int, smoke: bool) -> Workload:
    # the oracle of a re-check is a plain check of the same perturbed
    # traces (measure.py compares the two reports); ``expect`` is unused
    return Workload("lu16_recheck", seed,
                    (_lu_case(seed, smoke, "binary"),), recheck=True)


def _heat8(seed: int, smoke: bool) -> Workload:
    case = Case(name="heat2d", app=heat2d, nranks=8,
                params=dict(rows=64, cols=16, steps=20 if smoke else 150),
                run_kwargs=dict(trace_format="binary"),
                expect=expect_clean)
    return Workload("heat8", seed, (case,),
                    executors=frozenset({"streaming", "jobs2"}))


def _gen64(seed: int, smoke: bool) -> Workload:
    config = GenConfig(seed=seed, nranks=16 if smoke else 64, rounds=16,
                       ops_per_round=8, reps=16, bugs=("any",) * 8,
                       trace_format="binary")
    generated = generate_program(config)
    # scope="all": the spec itself says which accesses matter, so
    # ST-Analyzer is bypassed (as repro.gen.fuzz.profile_program does)
    case = Case(name=f"gen-{seed}", app=replay, nranks=config.nranks,
                params={"spec": generated.program},
                run_kwargs=dict(scope="all", delivery=config.delivery,
                                sched_policy=config.sched_policy,
                                trace_format=config.trace_format,
                                app_name=f"gen-{seed}"),
                expect=expect_manifest(generated))
    return Workload("gen64", seed, (case,),
                    executors=frozenset({"streaming", "jobs2"}),
                    gen_config=config)


#: name -> builder(seed, smoke); the order is the ladder's order
BUILDERS: Dict[str, Callable[[int, bool], Workload]] = {
    "bugs10": _bugs10,
    "lu16": _lu16,
    "lu16_text": _lu16_text,
    "lu16_recheck": _lu16_recheck,
    "heat8": _heat8,
    "gen64": _gen64,
}
