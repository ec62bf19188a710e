"""Differential fuzzing harness over generated RMA programs.

One fuzz *case* = generate a program from a seed, profile it on the
simulated runtime, analyze the traces, then use the result two ways:

* **recall/precision** — findings are matched against the ground-truth
  manifest (:func:`repro.gen.manifest.score_report`); every injected
  bug must be found (recall), every finding should trace back to an
  injected bug (precision);
* **differential** — the same traces are re-analyzed by every executor
  (batch, streaming, incremental cold and warm), and the program is
  re-profiled in the other trace format; every arm must produce a
  byte-identical canonical report.  (The comparison against the paper's
  literal per-pair algorithms lives with the tests: ``tests/gen/`` runs
  the same corpus through ``tests.reference``.)

:func:`fuzz_corpus` runs a whole seed corpus and aggregates.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.checker import CheckReport, check_traces
from repro.core.config import CheckConfig
from repro.gen.config import GenConfig
from repro.gen.generator import GeneratedProgram, generate_program
from repro.gen.manifest import Score, score_report
from repro.gen.program import replay
from repro.profiler.session import ProfiledRun, profile_run


def canonical_report(report: CheckReport) -> str:
    """Byte-comparable form of a report (timings stripped)."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds", None)
    return json.dumps(payload, sort_keys=True)


def profile_program(generated: GeneratedProgram,
                    trace_dir: Optional[str] = None,
                    trace_format: Optional[str] = None) -> ProfiledRun:
    """Profile a generated program (all buffers instrumented — the spec
    itself says which accesses matter, so ST-Analyzer is bypassed)."""
    cfg = generated.config
    return profile_run(
        replay, cfg.nranks, trace_dir=trace_dir,
        params={"spec": generated.program}, scope="all",
        sched_policy=cfg.sched_policy, seed=cfg.seed,
        delivery=cfg.delivery, app_name=f"gen-{cfg.seed}",
        trace_format=trace_format or cfg.trace_format)


@dataclass(frozen=True)
class FuzzCase:
    """Outcome of one generated program through the whole harness."""

    seed: int
    nranks: int
    nbugs: int
    nfindings: int
    recall: float
    precision: float
    missed: Tuple[int, ...]
    unmatched_findings: Tuple[int, ...]
    #: differential arms whose report differed from the baseline
    mismatched_arms: Tuple[str, ...]
    #: arms compared (empty when the differential matrix was skipped)
    arms: Tuple[str, ...]
    events: int

    @property
    def ok(self) -> bool:
        return self.recall == 1.0 and not self.mismatched_arms

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "nranks": self.nranks,
            "bugs": self.nbugs, "findings": self.nfindings,
            "recall": self.recall, "precision": self.precision,
            "missed": list(self.missed),
            "unmatched_findings": list(self.unmatched_findings),
            "mismatched_arms": list(self.mismatched_arms),
            "arms": list(self.arms), "events": self.events,
        }


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate over a fuzz corpus."""

    cases: Tuple[FuzzCase, ...]

    @property
    def recall(self) -> float:
        total = sum(c.nbugs for c in self.cases)
        if not total:
            return 1.0
        found = sum(c.nbugs - len(c.missed) for c in self.cases)
        return found / total

    @property
    def precision(self) -> float:
        total = sum(c.nfindings for c in self.cases)
        if not total:
            return 1.0
        true = sum(c.nfindings - len(c.unmatched_findings)
                   for c in self.cases)
        return true / total

    @property
    def mismatches(self) -> int:
        return sum(len(c.mismatched_arms) for c in self.cases)

    @property
    def ok(self) -> bool:
        return self.recall == 1.0 and self.mismatches == 0

    def to_dict(self) -> dict:
        return {
            "cases": [c.to_dict() for c in self.cases],
            "recall": self.recall,
            "precision": self.precision,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }

    def format(self) -> str:
        lines = [
            f"fuzz: {len(self.cases)} program(s), "
            f"recall={self.recall:.3f} precision={self.precision:.3f} "
            f"differential mismatches={self.mismatches}",
        ]
        for c in self.cases:
            status = "ok" if c.ok else "FAIL"
            lines.append(
                f"  seed {c.seed}: {status} ranks={c.nranks} "
                f"bugs={c.nbugs} findings={c.nfindings} "
                f"recall={c.recall:.2f} precision={c.precision:.2f}"
                + (f" missed={list(c.missed)}" if c.missed else "")
                + (f" mismatched={list(c.mismatched_arms)}"
                   if c.mismatched_arms else ""))
        return "\n".join(lines)


def _base_config(check_config: Optional[CheckConfig]) -> CheckConfig:
    """The baseline analysis arm: the batch executor, carrying over only
    the fields that must hold across every arm (memory model, job
    count)."""
    cc = check_config if check_config is not None else CheckConfig()
    return CheckConfig(memory_model=cc.memory_model, jobs=cc.jobs)


def differential_reports(traces, check_config: Optional[CheckConfig]
                         = None) -> Dict[str, str]:
    """Analyze one trace set with every executor.

    Returns ``arm name -> canonical report``; the arms are ``batch``
    (at the config's job count), ``streaming`` and
    ``incremental-cold`` / ``incremental-warm`` over one fresh cache
    (always serial).
    """
    base = _base_config(check_config)
    out = {
        "batch": canonical_report(check_traces(traces, base)),
        "streaming": canonical_report(check_traces(
            traces, base.replace(jobs=1, streaming=True))),
    }
    with tempfile.TemporaryDirectory(prefix="mcgen-cache-") as cache:
        inc = base.replace(jobs=1, cache_dir=cache, incremental=True)
        for arm in ("incremental-cold", "incremental-warm"):
            out[arm] = canonical_report(check_traces(traces, inc))
    return out


def run_case(gen_config: GenConfig,
             check_config: Optional[CheckConfig] = None, *,
             differential: bool = True) -> FuzzCase:
    """Run one generated program through scoring (and, by default, the
    differential matrix plus a text-vs-binary trace format arm)."""
    generated = generate_program(gen_config)
    base = _base_config(check_config)
    with tempfile.TemporaryDirectory(prefix="mcgen-trace-") as trace_dir:
        profiled = profile_program(generated, trace_dir=trace_dir)
        baseline = check_traces(profiled.traces, base)
        score = score_report(baseline, generated.manifest)
        mismatched: List[str] = []
        arms: List[str] = []
        if differential:
            reports = differential_reports(profiled.traces, base)
            want = reports["batch"]
            other = ("binary" if gen_config.trace_format == "text"
                     else "text")
            with tempfile.TemporaryDirectory(
                    prefix="mcgen-fmt-") as fmt_dir:
                reprofiled = profile_program(generated,
                                             trace_dir=fmt_dir,
                                             trace_format=other)
                reports[f"format-{other}"] = canonical_report(
                    check_traces(reprofiled.traces, base))
            arms = sorted(reports)
            mismatched = [arm for arm in arms if reports[arm] != want]
        return FuzzCase(
            seed=gen_config.seed, nranks=gen_config.nranks,
            nbugs=score.nbugs, nfindings=score.nfindings,
            recall=score.recall, precision=score.precision,
            missed=score.missed,
            unmatched_findings=score.unmatched_findings,
            mismatched_arms=tuple(mismatched), arms=tuple(arms),
            events=profiled.events_written)


def fuzz_corpus(gen_config: GenConfig, seeds: Sequence[int],
                check_config: Optional[CheckConfig] = None, *,
                differential: bool = True) -> FuzzReport:
    """Run the harness over one config across a corpus of seeds."""
    cases = tuple(
        run_case(gen_config.replace(seed=int(seed)), check_config,
                 differential=differential)
        for seed in seeds)
    return FuzzReport(cases=cases)
