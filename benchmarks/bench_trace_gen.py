"""Perf harness for trace *generation* — the producer side of the pipeline.

Measures end-to-end generation throughput (simulate + profile + write,
in events per second) of the 16-rank LU workload through two in-tree
arms:

* **scalar** — ``lu(vectorized=False)``: every access is a Python-level
  statement that becomes one ``MemEvent`` object;
* **bulk** — ``lu(vectorized=True)``: block accesses coalesce into
  columnar ``append_mem_columns`` records.

The headline gate compares the bulk lane against the **pre-PR
pipeline** (the tree before the bulk-lane/vectorization work), which
paid per-element RMA byte copies, thundering-herd scheduler wakeups,
and per-event object construction: generation must be >= 5x faster.
When the pre-PR commit is reachable the baseline is measured live in a
temporary git worktree; on shallow checkouts (CI) the recorded
measurement is used and its provenance recorded.  The in-tree lane
ratio is reported alongside as a secondary metric — it understates the
win because both arms share the simulation cost the PR also removed.

The harness also runs the suite's first **million-event workload**
(LU n=1500 — the paper's own matrix order) through the whole pipeline:
generation in both lanes (findings must be byte-identical), binary-v2
ingest, the sweep engine, and the incremental cache cold + warm; the
run's flight-record HTML lands under ``benchmarks/results/``.

Two entry points:

* ``python benchmarks/bench_trace_gen.py`` — full configuration;
  artifact at the repo root (``BENCH_trace_gen.json``).
* ``python benchmarks/bench_trace_gen.py --smoke`` — small CI
  configuration: in-tree arms only (no git history needed), the lane
  ratio must stay above a 0.7x floor (bulk must never lose to scalar),
  artifact under ``benchmarks/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from repro import obs
from repro.apps.lu import lu
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.obs.dashboard import render_run_html
from repro.obs.report import build_run_report
from repro.profiler.session import profile_run
from repro.profiler.tracer import FORMAT_BINARY

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_trace_gen.json")
SMOKE_OUT = os.path.join(RESULTS_DIR, "BENCH_trace_gen_smoke.json")
RUN_REPORT_HTML = os.path.join(RESULTS_DIR, "trace_gen_run_report.html")

GENERATION_SPEEDUP_GATE = 5.0
SMOKE_LANE_FLOOR = 0.7

#: last mainline commit before the bulk producer lane landed
PRE_PR_COMMIT = "fcac55c"
#: pre-PR generation seconds on the full workload (16-rank LU n=768,
#: eager delivery, text traces), measured 2026-08-08 at PRE_PR_COMMIT;
#: the fallback baseline when the commit is unreachable (CI checkouts
#: are depth-1)
PRE_PR_RECORDED_SECONDS = 19.89

CONFIGS = {
    # n=768 is the ~295k-mem-event regime of the format bench; n=1500
    # is the paper's LU order and puts ~1.1M load/store events through
    # the million-event pipeline leg
    "full": dict(nranks=16, n=768, reps=3,
                 million_nranks=16, million_n=1500, million_floor=1_000_000),
    "smoke": dict(nranks=4, n=48, reps=1,
                  million_nranks=4, million_n=96, million_floor=0),
}

#: measured in the pre-PR tree: its profile_run knows neither ``bulk``
#: nor ``vectorized``, so the snippet sticks to the era's public surface
_PRE_PR_SNIPPET = """\
import json, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from repro.apps.lu import lu
from repro.profiler.session import profile_run
nranks, n = int(sys.argv[2]), int(sys.argv[3])
t0 = time.perf_counter()
run = profile_run(lu, nranks, params=dict(n=n), scope="report",
                  delivery="eager", trace_dir=tempfile.mkdtemp())
print(json.dumps({"seconds": time.perf_counter() - t0,
                  "events": run.events_written}))
"""


def canonical(report):
    """Byte-comparable report form, modulo wall-clock timings."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


def generate(nranks, n, *, vectorized, trace_dir, trace_format="text"):
    """One end-to-end generation run; returns (ProfiledRun, seconds)."""
    start = time.perf_counter()
    run = profile_run(lu, nranks,
                      params=dict(n=n, vectorized=vectorized),
                      scope="report", delivery="eager",
                      trace_dir=trace_dir, trace_format=trace_format)
    return run, time.perf_counter() - start


def measure_arm(cfg, workdir, label, *, vectorized):
    """Median end-to-end generation seconds over ``reps`` fresh runs."""
    times = []
    events = 0
    for rep in range(cfg["reps"]):
        trace_dir = os.path.join(workdir, f"{label}-{rep}")
        run, seconds = generate(cfg["nranks"], cfg["n"],
                                vectorized=vectorized,
                                trace_dir=trace_dir)
        events = run.events_written
        times.append(seconds)
    seconds = statistics.median(times)
    return {"seconds": round(seconds, 3),
            "events": events,
            "events_per_second": round(events / seconds)}, seconds


def pre_pr_baseline(cfg, events):
    """Generation seconds of the pre-PR tree on the full workload.

    Measured live in a temporary worktree when ``PRE_PR_COMMIT``
    resolves; otherwise the recorded measurement with its provenance.
    """
    recorded = {
        "commit": PRE_PR_COMMIT, "source": "recorded",
        "seconds": PRE_PR_RECORDED_SECONDS,
        "events_per_second": round(events / PRE_PR_RECORDED_SECONDS),
        "measured_on": "2026-08-08",
    }
    probe = subprocess.run(
        ["git", "-C", REPO_ROOT, "rev-parse", "--verify", "--quiet",
         PRE_PR_COMMIT + "^{commit}"],
        capture_output=True, text=True)
    if probe.returncode != 0:
        print(f"[bench_trace_gen] pre-PR commit {PRE_PR_COMMIT} not in "
              "this checkout; using recorded baseline")
        return recorded
    worktree = tempfile.mkdtemp(prefix="bench-trace-gen-prepr-")
    try:
        added = subprocess.run(
            ["git", "-C", REPO_ROOT, "worktree", "add", "--force",
             "--detach", worktree, PRE_PR_COMMIT],
            capture_output=True, text=True)
        if added.returncode != 0:
            print("[bench_trace_gen] worktree add failed; using recorded "
                  f"baseline: {added.stderr.strip()}", file=sys.stderr)
            return recorded
        out = subprocess.run(
            [sys.executable, "-c", _PRE_PR_SNIPPET,
             os.path.join(worktree, "src"),
             str(cfg["nranks"]), str(cfg["n"])],
            capture_output=True, text=True, timeout=1800)
        if out.returncode != 0:
            print("[bench_trace_gen] pre-PR run failed; using recorded "
                  f"baseline: {out.stderr.strip()[-400:]}",
                  file=sys.stderr)
            return recorded
        measured = json.loads(out.stdout)
        return {
            "commit": PRE_PR_COMMIT, "source": "live-worktree",
            "seconds": round(measured["seconds"], 3),
            "events": measured["events"],
            "events_per_second": round(
                measured["events"] / measured["seconds"]),
        }
    finally:
        subprocess.run(["git", "-C", REPO_ROOT, "worktree", "remove",
                        "--force", worktree],
                       capture_output=True, text=True)
        shutil.rmtree(worktree, ignore_errors=True)


def million_pipeline(cfg, workdir):
    """The large-workload leg: generation in both lanes, v2 ingest,
    sweep engine, incremental cache cold + warm, flight-record HTML."""
    nranks, n = cfg["million_nranks"], cfg["million_n"]
    print(f"[bench_trace_gen] large leg: {nranks}-rank LU n={n}")

    bulk_dir = os.path.join(workdir, "large-bulk")
    scalar_dir = os.path.join(workdir, "large-scalar")
    cache_dir = os.path.join(workdir, "large-cache")
    config = CheckConfig(incremental=True, cache_dir=cache_dir)

    scalar_run, scalar_seconds = generate(
        nranks, n, vectorized=False, trace_dir=scalar_dir,
        trace_format=FORMAT_BINARY)

    rec = obs.configure(enabled=True)
    try:
        bulk_run, bulk_seconds = generate(
            nranks, n, vectorized=True, trace_dir=bulk_dir,
            trace_format=FORMAT_BINARY)

        start = time.perf_counter()
        cold_report = check_traces(bulk_run.traces, config)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm_report = check_traces(bulk_run.traces, config)
        warm_seconds = time.perf_counter() - start

        run_report = build_run_report(
            warm_report, config, traces=bulk_run.traces, app="lu",
            command="benchmarks/bench_trace_gen.py")
    finally:
        obs.reset()

    scalar_report = check_traces(scalar_run.traces, config.replace(
        incremental=False, cache_dir=None))
    identical = (canonical(scalar_report) == canonical(cold_report)
                 and canonical(warm_report) == canonical(cold_report))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RUN_REPORT_HTML, "w", encoding="utf-8") as fh:
        fh.write(render_run_html(run_report))
    print(f"[bench_trace_gen] flight record: {RUN_REPORT_HTML}")

    counts = bulk_run.traces.event_counts()
    events = counts["call"] + counts["mem"]
    shards = run_report.cache.get("shards", {})
    print(f"[bench_trace_gen] large leg: {counts['mem']} mem events, "
          f"bulk gen {bulk_seconds:.2f}s vs scalar {scalar_seconds:.2f}s, "
          f"cold check {cold_seconds:.2f}s, warm {warm_seconds:.2f}s, "
          f"identical={identical}")
    return {
        "nranks": nranks, "n": n,
        "call_events": counts["call"], "mem_events": counts["mem"],
        "bulk_generation_seconds": round(bulk_seconds, 3),
        "scalar_generation_seconds": round(scalar_seconds, 3),
        "bulk_events_per_second": round(events / bulk_seconds),
        "cold_check_seconds": round(cold_seconds, 3),
        "warm_check_seconds": round(warm_seconds, 3),
        "warm_cache_shards": {k: int(v) for k, v in sorted(shards.items())},
        "identical_findings": identical,
        "findings": {"errors": len(cold_report.errors),
                     "warnings": len(cold_report.warnings)},
        "emission": run_report.emission,
        "run_report_html": os.path.relpath(RUN_REPORT_HTML, REPO_ROOT),
    }


def run_bench(mode, out_path):
    cfg = CONFIGS[mode]
    cpus = os.cpu_count() or 1
    print(f"[bench_trace_gen] mode={mode} nranks={cfg['nranks']} "
          f"n={cfg['n']} reps={cfg['reps']} cpus={cpus}")

    workdir = tempfile.mkdtemp(prefix="bench-trace-gen-")
    try:
        scalar, scalar_seconds = measure_arm(
            cfg, workdir, "scalar", vectorized=False)
        bulk, bulk_seconds = measure_arm(
            cfg, workdir, "bulk", vectorized=True)
        assert scalar["events"] == bulk["events"], (
            "lanes emitted different event counts")
        lane_ratio = scalar_seconds / bulk_seconds
        print(f"[bench_trace_gen] scalar {scalar_seconds:.2f}s, bulk "
              f"{bulk_seconds:.2f}s (lane ratio {lane_ratio:.2f}x, "
              f"{bulk['events_per_second']} events/s)")

        if mode == "full":
            baseline = pre_pr_baseline(cfg, bulk["events"])
            speedup = baseline["seconds"] / bulk_seconds
            print(f"[bench_trace_gen] pre-PR baseline "
                  f"({baseline['source']}): {baseline['seconds']:.2f}s "
                  f"-> speedup {speedup:.2f}x")
            speed_gate = {
                "required_speedup": GENERATION_SPEEDUP_GATE,
                "measured_speedup": round(speedup, 2),
                "baseline": baseline,
                "applies": True,
                "passed": speedup >= GENERATION_SPEEDUP_GATE,
            }
            floor_gate = {
                "required_ratio": SMOKE_LANE_FLOOR,
                "measured_ratio": round(lane_ratio, 2),
                "applies": False,
                "passed": None,
                "skipped_because": "full mode gates on the pre-PR "
                                   "baseline instead",
            }
        else:
            baseline = None
            speed_gate = {
                "required_speedup": GENERATION_SPEEDUP_GATE,
                "measured_speedup": None,
                "applies": False,
                "passed": None,
                "skipped_because": "smoke mode cannot reach the pre-PR "
                                   "commit on shallow checkouts",
            }
            floor_gate = {
                "required_ratio": SMOKE_LANE_FLOOR,
                "measured_ratio": round(lane_ratio, 2),
                "applies": True,
                "passed": lane_ratio >= SMOKE_LANE_FLOOR,
            }

        large = million_pipeline(cfg, workdir)
        million_ok = large["mem_events"] >= cfg["million_floor"]
        if not million_ok:
            print(f"[bench_trace_gen] FAIL: large leg produced only "
                  f"{large['mem_events']} mem events "
                  f"(need {cfg['million_floor']})", file=sys.stderr)
        if not large["identical_findings"]:
            print("[bench_trace_gen] FAIL: scalar and bulk lanes "
                  "disagree on findings", file=sys.stderr)
        for name, gate in (("generation-speedup", speed_gate),
                           ("lane-floor", floor_gate)):
            if gate["passed"] is False:
                print(f"[bench_trace_gen] FAIL: {name} gate at "
                      f"{gate.get('measured_speedup') or gate.get('measured_ratio')}",
                      file=sys.stderr)
            elif gate["passed"]:
                print(f"[bench_trace_gen] {name} gate passed")

        payload = {
            "benchmark": "trace_gen",
            "mode": mode,
            "workload": {"app": "lu", "nranks": cfg["nranks"],
                         "n": cfg["n"], "reps": cfg["reps"],
                         "events": bulk["events"]},
            "machine": {"cpu_count": cpus},
            "arms": {"scalar": scalar, "bulk": bulk},
            "lane_ratio_scalar_vs_bulk": round(lane_ratio, 2),
            "generation_speedup_gate": speed_gate,
            "lane_floor_gate": floor_gate,
            "large_workload": large,
        }
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[bench_trace_gen] wrote {out_path}")

        ok = (large["identical_findings"] and million_ok
              and speed_gate["passed"] is not False
              and floor_gate["passed"] is not False)
        return payload, ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small CI configuration (in-tree arms only; "
                         "artifact goes to benchmarks/results/)")
    ap.add_argument("--out", default=None,
                    help="artifact path (default: BENCH_trace_gen.json "
                         "at the repo root, or benchmarks/results/ with "
                         "--smoke)")
    args = ap.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    out_path = args.out or (SMOKE_OUT if args.smoke else DEFAULT_OUT)
    _payload, ok = run_bench(mode, out_path)
    return 0 if ok else 1


def test_trace_gen_bench_smoke(record, benchmark):
    """pytest entry point: the smoke configuration as a benchmark-suite
    row (``pytest benchmarks/bench_trace_gen.py``)."""
    payload, ok = benchmark.pedantic(
        lambda: run_bench("smoke", SMOKE_OUT), rounds=1, iterations=1)
    assert ok, "producer differential or lane-floor gate failed"
    for arm, row in payload["arms"].items():
        record("trace_gen",
               f"{arm:6s} gen={row['seconds']:7.2f}s "
               f"rate={row['events_per_second']:>9} ev/s",
               arm=arm, **{k: row[k] for k in
                           ("seconds", "events_per_second")})


if __name__ == "__main__":
    sys.exit(main())
