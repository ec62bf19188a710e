"""Measurement: the untraced repetitions behind the end-to-end metrics,
and the traced repetition behind the per-layer metrics.

Untraced, the pipeline is driven only through ``repro.api``: a
repetition is ``api.run(trace_dir=...) -> api.check(trace_dir)`` per
case, each region timed in reference seconds (reference.py).  Traced, the harness itself calls each layer's public functions in
``MCChecker._run_detect`` order and records a span around every call;
nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro import api, obs
from repro.core.calltable import total_calls
from repro.core.checker import CheckReport, CheckStats
from repro.core.clocks import ConcurrencyOracle
from repro.core.config import CheckConfig
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, annotate_context, dedupe,
    sort_findings,
)
from repro.core.engine import (
    detect_cross_process_sweep, detect_intra_epoch_sweep,
)
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.model import build_access_model_sweep
from repro.core.preprocess import preprocess_calls
from repro.core.regions import RegionIndex
from repro.gen import generate_program
from repro.gen.fuzz import canonical_report
from repro.profiler.events import MemEvent
from repro.profiler.session import profile_run
from repro.profiler.tracer import (
    FORMAT_BINARY, TraceReader, TraceSet, TraceWriter,
)
from repro.simmpi.runtime import World
from repro.stanalyzer import analyze_app

from reference import Speed
from workloads import Case, Workload

#: where child interpreters find ``repro``
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: the traced run fails when more than this share of the layered check
#: is outside every layer span (the call sequence drifted from
#: ``MCChecker._run_detect``)
MAX_GAP_SHARE = 0.15

#: the serial sweep pipeline's layers, in ``_run_detect`` order
CHECK_LAYERS = ("tracer.open", "preprocess", "matching", "clocks",
                "epochs", "model", "regions", "intra", "inter", "report")


class Tally:
    """Operations and verdicts attempted, and how many went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.verdicts_ok = 0
        self.speed = Speed()

    def timed(self, what: str, fn: Callable[[], Any]
              ) -> Tuple[Optional[Any], float]:
        """Run one operation as a timed region; ``(None, seconds)`` when
        it raised."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # noqa: BLE001 -- the benchmark reports, then exits non-zero
            self.failed += 1
            print(f"FAILED {what}\n{traceback.format_exc()}",
                  file=sys.stderr)
            result = None
        return result, time.perf_counter() - start

    def reference_timed(self, what: str, fn: Callable[[], Any]
                        ) -> Tuple[Optional[Any], float, float]:
        """``timed``, with the machine's speed probed before and after:
        ``(result, wall seconds, reference seconds)`` (reference.py)."""
        before = self.speed.now()
        result, wall = self.timed(what, fn)
        return result, wall, wall / ((before + self.speed.now()) / 2)

    def verdict(self, what: str, ok: bool) -> None:
        self.attempted += 1
        self.verdicts += 1
        if ok:
            self.verdicts_ok += 1
        else:
            self.failed += 1
            print(f"MISMATCH {what}", file=sys.stderr)


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(directory)
               for name in names)


def digest(canonicals: List[str]) -> str:
    return hashlib.sha256("\n".join(canonicals).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_repro() -> None:
    """``import repro.api`` in a fresh interpreter (the first one in a
    new checkout also compiles bytecode)."""
    subprocess.run([sys.executable, "-c", "import repro.api"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)


def run_case(case: Case, seed: int, trace_dir: str):
    return api.run(case.app, case.nranks, trace_dir=trace_dir,
                   params=case.params, seed=seed, **case.run_kwargs)


def perturb(trace_dir: str, rank: int) -> None:
    """Alter the address of one late load/store event in ``rank``'s
    binary trace, through the public reader and writer (the mutation a
    recompiled kernel or a changed allocation would produce)."""
    path = TraceSet.rank_path(trace_dir, rank, FORMAT_BINARY)
    with TraceReader(path) as reader:
        header, events = reader.header, reader.events()
    mems = [i for i, ev in enumerate(events) if isinstance(ev, MemEvent)]
    target = mems[(3 * len(mems)) // 4]
    events[target] = dataclasses.replace(
        events[target], addr=events[target].addr + events[target].size)
    with TraceWriter(path, rank, header.nranks, app=header.app,
                     format=FORMAT_BINARY) as writer:
        for event in events:
            writer.write(event)


# ----------------------------------------------------------------------
# untraced: end-to-end samples
# ----------------------------------------------------------------------


def prepare_recheck(workload: Workload, directory: str,
                    tally: Tally) -> Optional[str]:
    """What ``lu16_recheck`` sets up: profile the program once and
    populate an incremental cache from its traces.  Returns the cache
    directory, or ``None`` when either step failed."""
    case = workload.cases[0]
    trace_dir = os.path.join(directory, "traces")
    cache_dir = os.path.join(directory, "cache")
    run, _ = tally.timed(
        f"api.run {case.name} (base)",
        lambda: run_case(case, workload.seed, trace_dir))
    if run is None:
        return None
    report, _ = tally.timed(
        "api.check (cold cache populate)",
        lambda: api.check(trace_dir, CheckConfig(incremental=True,
                                                 cache_dir=cache_dir)))
    return cache_dir if report is not None else None


@dataclasses.dataclass
class Sample:
    """One repetition, summed over the workload's cases: reference
    seconds (reference.py), the wall seconds behind them, and work."""

    profile_s: float = 0.0
    check_s: float = 0.0
    profile_wall_s: float = 0.0
    check_wall_s: float = 0.0
    events_written: int = 0
    trace_bytes: int = 0
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    canonicals: List[str] = dataclasses.field(default_factory=list)

    def add_report(self, report: CheckReport, trace_dir: str,
                   classes: bool) -> None:
        """``classes``: also count calls and load/store events, which
        takes a scan of text traces — wanted once, they repeat exactly."""
        self.trace_bytes += dir_bytes(trace_dir)
        self.canonicals.append(canonical_report(report))
        stats = report.stats
        counts = {"events": stats.events, "rma_ops": stats.rma_ops,
                  "epochs": stats.epochs, "regions": stats.regions,
                  "findings": len(report.findings)}
        if classes:
            by_class = TraceSet(trace_dir).event_counts()
            counts.update(calls=by_class["call"],
                          mem_events=by_class["mem"])
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def timed_profile(sample: Sample, case: Case, seed: int, trace_dir: str,
                  tally: Tally):
    run, wall, ref = tally.reference_timed(
        f"api.run {case.name}", lambda: run_case(case, seed, trace_dir))
    sample.profile_wall_s += wall
    sample.profile_s += ref
    if run is not None:
        sample.events_written += run.events_written
    return run


def timed_check(sample: Sample, what: str, trace_dir: str,
                config: Optional[CheckConfig], tally: Tally
                ) -> Optional[CheckReport]:
    report, wall, ref = tally.reference_timed(
        what, lambda: api.check(trace_dir, config))
    sample.check_wall_s += wall
    sample.check_s += ref
    return report


def pipeline_rep(workload: Workload, workdir: str, rep: int,
                 tally: Tally) -> Sample:
    sample = Sample()
    for case in workload.cases:
        trace_dir = os.path.join(workdir, f"traces-{case.name}")
        if timed_profile(sample, case, workload.seed, trace_dir,
                         tally) is not None:
            report = timed_check(sample, f"api.check {case.name}",
                                 trace_dir, None, tally)
            if report is not None:
                tally.verdict(f"{case.name}: known answer",
                              case.expect(report))
                sample.add_report(report, trace_dir, classes=rep == 0)
    return sample


def recheck_rep(workload: Workload, base_cache: str, workdir: str,
                rep: int, tally: Tally) -> Sample:
    """Edit -> re-run -> re-check: profile the program again (same seed,
    so the same traces as the set-up's), alter one event in one rank,
    and time the incremental check of that set against a copy of the
    set-up's cache.  The oracle is a plain check of the same traces,
    made in the first repetition; the later ones must repeat its bytes."""
    case = workload.cases[0]
    trace_dir = os.path.join(workdir, "traces")
    cache_dir = os.path.join(workdir, "cache")
    sample = Sample()
    if timed_profile(sample, case, workload.seed, trace_dir,
                     tally) is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.copytree(base_cache, cache_dir)
        perturb(trace_dir, rank=workload.seed % case.nranks)
        report = timed_check(
            sample, "api.check (incremental re-check)", trace_dir,
            CheckConfig(incremental=True, cache_dir=cache_dir), tally)
        if report is not None:
            if rep == 0:
                plain, _ = tally.timed(
                    "api.check (plain, the re-check's oracle)",
                    lambda: api.check(trace_dir))
                tally.verdict(
                    "re-check report equals the plain check's",
                    plain is not None and
                    canonical_report(report) == canonical_report(plain))
            sample.add_report(report, trace_dir, classes=rep == 0)
    return sample


def untraced_samples(workload: Workload, base_cache: Optional[str],
                     workdir: str, seconds: float,
                     tally: Tally) -> List[Sample]:
    """Sequential repetitions for about ``seconds`` of wall time: at
    least one, and no further one once half of it would overrun.

    Every repetition profiles into the same trace directory per case,
    so from the second on ``api.run`` rewrites its rank files instead of
    creating them.  On the sandbox's file system the cost of creating a
    file drifts between 0.02 and 0.35 ms with what ran before, which
    alone moved ``bugs10`` ``profile_s`` (180 files a pass) from 0.12 to
    0.19 s; rewriting stays at 0.02-0.07 ms (README.md, noise floor)."""
    samples: List[Sample] = []
    start = time.perf_counter()
    while True:
        rep = len(samples)
        if workload.recheck:
            sample = recheck_rep(workload, base_cache, workdir, rep,
                                 tally)
        else:
            sample = pipeline_rep(workload, workdir, rep, tally)
        # same seed, same inputs: every repetition's reports must be
        # the same bytes
        if samples:
            tally.verdict(f"rep {rep}: report bytes equal rep 0's",
                          sample.canonicals == samples[0].canonicals)
        samples.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(samples) >= seconds:
            return samples


# ----------------------------------------------------------------------
# traced: spans around each layer's public functions
# ----------------------------------------------------------------------


class SpanLog:
    """Spans kept in memory: name, start, end, parent, workload id and
    the work count of the call they wrap."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "start": 0.0, "end": 0.0,
               "work": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn: Callable[[], Any]
              ) -> Tuple[Any, Dict[str, Any]]:
        """A top-level timed region: collect garbage, then span ``fn``."""
        gc.collect()
        with self.span(name) as rec:
            result = fn()
        return result, rec

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def work(self, name: str, key: str) -> float:
        return sum(s["work"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": self.spans},
                      fh, indent=1)
            fh.write("\n")


def traced_profile(log: SpanLog, case: Case, seed: int,
                   trace_dir: str) -> None:
    """``profile_run``'s three parts, each from outside: ST-Analyzer, the
    native (unprofiled) execution and the instrumented execution."""
    kwargs = dict(case.run_kwargs)
    with log.span("profile"):
        instr = None
        if kwargs.get("scope", "report") == "report":
            instr, sp = log.timed("stanalyzer.analyze",
                                  lambda: analyze_app(case.app))
            sp["work"]["relevant_vars"] = len(instr.buffer_names)
        # what ``baseline_run`` does, with the world kept for its counter
        world = World(case.nranks, seed=seed,
                      sched_policy=kwargs.get("sched_policy", "round_robin"),
                      delivery=kwargs.get("delivery", "random"))
        _, sp = log.timed("simmpi.native",
                          lambda: world.run(case.app, case.params))
        sp["work"]["switches"] = world.scheduler.switches
        run, sp = log.timed("profiler.run", lambda: profile_run(
            case.app, case.nranks, trace_dir=trace_dir, params=case.params,
            report=instr, seed=seed, **kwargs))
        sp["work"]["events"] = run.events_written
        sp["work"]["bytes"] = dir_bytes(trace_dir)


def traced_reads(log: SpanLog, trace_dir: str) -> None:
    """Decode every rank's trace without analysing it."""
    traces = TraceSet(trace_dir)
    ranks = range(traces.nranks)

    def read_calls() -> int:
        total = 0
        for rank in ranks:
            with traces.reader(rank) as reader:
                total += len(reader.read_calls()[0])
        return total

    def read_mem() -> int:
        return sum(len(block.array) for rank in ranks
                   for block in traces.mem_blocks(rank))

    with log.span("read"):
        calls, sp = log.timed("tracer.read_calls", read_calls)
        sp["work"]["calls"] = calls
        mems, sp = log.timed("tracer.read_mem", read_mem)
        sp["work"]["mem_events"] = mems
        sp["work"]["bytes"] = dir_bytes(trace_dir)


def layered_check(log: SpanLog, trace_dir: str) -> CheckReport:
    """The serial sweep pipeline, layer by layer, in
    ``MCChecker._run_detect`` order."""
    gc.collect()
    with log.span("check"):
        with log.span("tracer.open"):
            traces = TraceSet(trace_dir)
        with log.span("preprocess") as s_pre:
            pre = preprocess_calls(traces)
        with log.span("matching") as s_match:
            matches = match_synchronization(pre)
        with log.span("clocks"):
            oracle = ConcurrencyOracle(pre, matches)
        with log.span("epochs") as s_epochs:
            epoch_index = EpochIndex(pre)
        with log.span("model") as s_model:
            model = build_access_model_sweep(pre, epoch_index, traces)
        with log.span("regions") as s_regions:
            regions = RegionIndex(pre, matches)
        with log.span("intra") as s_intra:
            intra = detect_intra_epoch_sweep(model, epoch_index,
                                             memory_model="separate")
        with log.span("inter") as s_inter:
            inter = detect_cross_process_sweep(
                pre, model, regions, oracle, epoch_index,
                memory_model="separate")
        with log.span("report") as s_report:
            findings = dedupe(sort_findings(intra + inter))
            annotate_context(findings, engine="sweep", jobs=1,
                             mode="batch", cache="none")
            report = CheckReport(
                errors=[f for f in findings
                        if f.severity == SEVERITY_ERROR],
                warnings=[f for f in findings
                          if f.severity == SEVERITY_WARNING],
                stats=CheckStats(
                    nranks=pre.nranks, events=pre.total_events,
                    rma_ops=len(model.ops),
                    local_accesses=model.total_local_accesses,
                    sync_matches=len(matches), regions=len(regions),
                    epochs=len(epoch_index.epochs)))
            report.format()
    # work counts, taken after the clock stopped
    s_pre["work"]["calls"] = total_calls(pre)
    s_match["work"]["matches"] = len(matches)
    s_epochs["work"]["count"] = len(epoch_index.epochs)
    s_model["work"]["rma_ops"] = len(model.ops)
    s_model["work"]["local_accesses"] = model.total_local_accesses
    s_regions["work"]["count"] = len(regions)
    s_intra["work"]["findings"] = len(intra)
    s_inter["work"]["findings"] = len(inter)
    s_report["work"]["findings"] = len(findings)
    return report


def counted_incremental(trace_dir: str,
                        cache_dir: str) -> Tuple[CheckReport, int, int]:
    """One incremental check with the recorder on; returns the report,
    the shards looked up and the shards that had to re-run."""
    rec = obs.configure(enabled=True)
    try:
        report = api.check(trace_dir, CheckConfig(incremental=True,
                                                  cache_dir=cache_dir))
    finally:
        obs.reset()
    shards = rec.registry.get("incremental_cache_shards_total")
    by_outcome = {outcome: int(shards.value(outcome=outcome))
                  for outcome in ("hit", "miss", "invalidated", "corrupt")}
    total = sum(by_outcome.values())
    return report, total, total - by_outcome["hit"]


def cli_check(log: SpanLog, trace_dir: str,
              ledger_dir: str) -> Tuple[str, int]:
    """``python -m repro.cli check`` as a child; returns the canonical
    form of its ``--json`` report and its exit code.  The run ledger the
    CLI keeps by default goes inside the work directory."""
    cmd = [sys.executable, "-m", "repro.cli", "check", trace_dir, "--json",
           "--ledger-dir", ledger_dir]
    gc.collect()
    with log.span("cli.check") as sp:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL,
                                 env=dict(os.environ, PYTHONPATH=SRC))
        out = child.stdout.read()
        child.stdout.close()
        _, status, rusage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    sp["work"]["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    payload = json.loads(out)
    payload["stats"].pop("phase_seconds", None)
    return json.dumps(payload, sort_keys=True), child.returncode


def traced_executors(log: SpanLog, workload: Workload, trace_dir: str,
                     base_dir: Optional[str], workdir: str,
                     machine: Dict[str, Any], reference: CheckReport,
                     tally: Tally) -> None:
    """The other ways to reach the same verdict — cached, pooled,
    streamed, recorded, from the command line — each timed whole and
    each required to produce the reference report's bytes.

    ``base_dir`` is the unperturbed trace set of a re-check workload
    (its cache is populated from there); otherwise ``None``."""
    expected = canonical_report(reference)

    def same(what: str, report: CheckReport) -> None:
        tally.verdict(f"{what}: report bytes equal the plain check's",
                      canonical_report(report) == expected)

    with log.span("executors"):
        cache_dir = os.path.join(workdir, "cache")
        populate_from = base_dir or trace_dir
        config = CheckConfig(incremental=True, cache_dir=cache_dir)
        cold, _ = log.timed("incremental.cold",
                            lambda: api.check(populate_from, config))
        warm, s_warm = log.timed("incremental.warm",
                                 lambda: api.check(populate_from, config))
        s_warm["work"]["cache_bytes"] = dir_bytes(cache_dir)
        tally.verdict("incremental warm equals cold",
                      canonical_report(warm) == canonical_report(cold))
        if base_dir is not None:
            # the re-check proper, then once more on a second copy of
            # the cache with the recorder on, for the shard outcomes
            counted_cache = os.path.join(workdir, "cache-counted")
            shutil.copytree(cache_dir, counted_cache)
            report, _ = log.timed("incremental.recheck",
                                  lambda: api.check(trace_dir, config))
            same("incremental re-check", report)
        else:
            counted_cache = cache_dir
            same("incremental cold", cold)
        report, shards, rerun = counted_incremental(trace_dir,
                                                    counted_cache)
        same("incremental (recorder on)", report)
        s_warm["work"]["shards"] = shards
        s_warm["work"]["shards_rerun"] = rerun

        if "streaming" in workload.executors:
            report, _ = log.timed(
                "streaming", lambda: api.check(trace_dir, streaming=True))
            same("streaming", report)

        if "jobs2" in workload.executors:
            if machine["nproc"] < 2:
                print("skipped parallel.jobs2_*: nproc < 2")
            else:
                # the two workers need the second CPU; they inherit the
                # affinity set at the time the pool starts
                os.sched_setaffinity(0, machine["allowed"])
                try:
                    for name in ("parallel.jobs2_first", "parallel.jobs2"):
                        report, _ = log.timed(
                            name, lambda: api.check(trace_dir, jobs=2))
                        same(name, report)
                finally:
                    os.sched_setaffinity(0, {machine["cpu"]})

        report, _ = log.timed(
            "obs.enabled_check",
            lambda: api.check(trace_dir,
                              obs_config=obs.ObsConfig(enabled=True)))
        same("recorder on", report)

        canonical, code = cli_check(log, trace_dir,
                                    os.path.join(workdir, "ledger"))
        tally.verdict("cli check: report bytes equal the plain check's",
                      canonical == expected)
        tally.verdict("cli check: exit code says whether there are errors",
                      code == int(reference.has_errors))


def traced_case(log: SpanLog, workload: Workload, case: Case,
                workdir: str, machine: Dict[str, Any],
                tally: Tally) -> CheckReport:
    trace_dir = os.path.join(workdir, "traces")
    traced_profile(log, case, workload.seed, trace_dir)
    base_dir = None
    if workload.recheck:
        base_dir = trace_dir
        trace_dir = os.path.join(workdir, "perturbed")
        shutil.copytree(base_dir, trace_dir)
        perturb(trace_dir, rank=workload.seed % case.nranks)
    traced_reads(log, trace_dir)
    layered = layered_check(log, trace_dir)
    plain, _ = log.timed("api.check", lambda: api.check(trace_dir))
    tally.verdict(
        f"{case.name}: layered check equals api.check",
        canonical_report(layered) == canonical_report(plain))
    if not workload.recheck:
        tally.verdict(f"{case.name}: known answer", case.expect(plain))
    traced_executors(log, workload, trace_dir, base_dir, workdir, machine,
                     plain, tally)
    return plain


def stop_pools() -> None:
    """Stop the ``jobs=2`` worker pool and the resource tracker process
    that multiprocessing starts with it, and wait for both to end."""
    api.shutdown_pools()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()


def traced_run(workload: Workload, workdir: str, machine: Dict[str, Any],
               tally: Tally) -> Tuple[SpanLog, List[str]]:
    """One traced repetition over every case; returns the spans and the
    canonical reports (to compare with an untraced run's)."""
    log = SpanLog(workload.name)
    canonicals: List[str] = []
    with log.span("rep"):
        if workload.gen_config is not None:
            generated, sp = log.timed(
                "gen.generate",
                lambda: generate_program(workload.gen_config))
            sp["work"]["actions"] = sum(
                len(actions) for round_ in generated.program.rounds
                for actions in round_.actions)
        try:
            for index, case in enumerate(workload.cases):
                case_dir = os.path.join(workdir, f"traced{index}")
                os.makedirs(case_dir)
                report, _ = tally.timed(
                    f"traced repetition of {case.name}",
                    lambda: traced_case(log, workload, case, case_dir,
                                        machine, tally))
                if report is not None:
                    canonicals.append(canonical_report(report))
                shutil.rmtree(case_dir, ignore_errors=True)
        finally:
            stop_pools()
    return log, canonicals


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(log: SpanLog, tally: Tally) -> Dict[str, float]:
    """Every per-layer metric, summed over the workload's cases.  A
    layer the workload does not exercise reads 0."""
    secs, work = log.seconds, log.work
    check_total = secs("check")
    layer_sum = sum(secs(name) for name in CHECK_LAYERS)
    read_s = secs("tracer.read_calls") + secs("tracer.read_mem")
    gap_share = 1.0 - ratio(layer_sum, check_total)
    tally.verdict(
        f"trace.gap_share {gap_share:.3f} <= {MAX_GAP_SHARE}",
        gap_share <= MAX_GAP_SHARE)
    return {
        "gen.generate_s": secs("gen.generate"),
        "gen.actions": work("gen.generate", "actions"),
        "stanalyzer.analyze_s": secs("stanalyzer.analyze"),
        "stanalyzer.relevant_vars": work("stanalyzer.analyze",
                                         "relevant_vars"),
        "simmpi.native_s": secs("simmpi.native"),
        "simmpi.switches": work("simmpi.native", "switches"),
        "profiler.run_s": secs("profiler.run"),
        "profiler.overhead_x": ratio(secs("profiler.run"),
                                     secs("simmpi.native")),
        "profiler.events": work("profiler.run", "events"),
        "profiler.bytes": work("profiler.run", "bytes"),
        "tracer.open_s": secs("tracer.open"),
        "tracer.read_calls_s": secs("tracer.read_calls"),
        "tracer.read_mem_s": secs("tracer.read_mem"),
        "tracer.read_mb_per_s": ratio(work("tracer.read_mem", "bytes"),
                                      read_s) / 1e6,
        "preprocess.s": secs("preprocess"),
        "preprocess.calls": work("preprocess", "calls"),
        "matching.s": secs("matching"),
        "matching.matches": work("matching", "matches"),
        "clocks.s": secs("clocks"),
        "epochs.s": secs("epochs"),
        "epochs.count": work("epochs", "count"),
        "model.s": secs("model"),
        "model.rma_ops": work("model", "rma_ops"),
        "model.local_accesses": work("model", "local_accesses"),
        "regions.s": secs("regions"),
        "regions.count": work("regions", "count"),
        "intra.s": secs("intra"),
        "intra.findings": work("intra", "findings"),
        "inter.s": secs("inter"),
        "inter.findings": work("inter", "findings"),
        "report.s": secs("report"),
        "report.findings": work("report", "findings"),
        "incremental.cold_s": secs("incremental.cold"),
        "incremental.warm_s": secs("incremental.warm"),
        "incremental.recheck_s": secs("incremental.recheck"),
        "incremental.shards": work("incremental.warm", "shards"),
        "incremental.shards_rerun": work("incremental.warm",
                                         "shards_rerun"),
        "incremental.cache_bytes": work("incremental.warm", "cache_bytes"),
        "parallel.jobs2_first_s": secs("parallel.jobs2_first"),
        "parallel.jobs2_s": secs("parallel.jobs2"),
        "streaming.s": secs("streaming"),
        "obs.enabled_check_s": secs("obs.enabled_check"),
        "obs.overhead_x": ratio(secs("obs.enabled_check"),
                                secs("api.check")),
        "cli.check_s": secs("cli.check"),
        "cli.check_peak_rss_mb": max(
            (s["work"]["peak_rss_mb"] for s in log.spans
             if s["name"] == "cli.check"), default=0.0),
        "trace.layer_sum_s": layer_sum,
        "trace.gap_share": gap_share,
        "trace.overhead_x": ratio(check_total, secs("api.check")),
    }


def median_row(values: List[float],
               walls: Optional[List[float]] = None) -> Dict[str, float]:
    """The median repetition in reference seconds, with the median, min
    and max of the wall seconds behind it, and n.  With fewer than
    eleven samples no percentile above the median is reported."""
    row = {"value": statistics.median(values), "n": len(values)}
    if walls is not None:
        row.update(wall_median=statistics.median(walls),
                   wall_min=min(walls), wall_max=max(walls))
    return row
