"""Fuzzing benchmark: recall/precision + differential over a seed corpus,
plus one generated workload at cluster scale.

Two measurements:

* **corpus** — a fixed seed corpus of constrained-random programs with
  injected conflicts runs through the whole harness
  (:func:`repro.gen.fuzz.run_case`): recall against the ground-truth
  manifest must be 1.0, precision is reported, and every differential
  arm (batch, streaming, cold/warm incremental cache, the other trace
  format) must produce a byte-identical report — 0 mismatches gate in
  both modes (``tests/gen/test_reference_corpus.py`` runs the same
  corpus against the paper's per-pair algorithms);
* **scale** — one generated workload at the paper's cluster scale
  (64 ranks, ≥1M memory events via the ``reps`` multiplier of block
  accesses, binary traces) profiled and analyzed end to end, with
  recall still 1.0 on its injected bugs.

Two entry points:

* ``python benchmarks/bench_fuzz.py`` — the full configuration
  (50-program corpus, 64-rank/1M-event scale run); writes
  ``BENCH_fuzz.json`` at the repo root.
* ``python benchmarks/bench_fuzz.py --smoke`` — a small CI
  configuration (6-program corpus, 16-rank scale run); same
  recall/differential gates, artifact under ``benchmarks/results/``.
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.gen import GenConfig, generate_program, score_report
from repro.gen.fuzz import fuzz_corpus, profile_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_fuzz.json")
SMOKE_OUT = os.path.join(RESULTS_DIR, "BENCH_fuzz_smoke.json")

CONFIGS = {
    "full": dict(
        corpus=dict(seeds=50, gen=dict(nranks=6, rounds=4,
                                       ops_per_round=3,
                                       bugs=("any",) * 3)),
        scale=dict(nranks=64, rounds=3, ops_per_round=4, reps=4000,
                   bugs=("any",) * 6, trace_format="binary"),
        #: full mode must demonstrate the paper's cluster scale
        scale_gates=dict(min_ranks=64, min_events=1_000_000)),
    "smoke": dict(
        corpus=dict(seeds=6, gen=dict(nranks=4, rounds=3,
                                      ops_per_round=3,
                                      bugs=("any",) * 2)),
        scale=dict(nranks=16, rounds=3, ops_per_round=4, reps=200,
                   bugs=("any",) * 3, trace_format="binary"),
        scale_gates=None),
}


def run_corpus(cfg):
    gen_cfg = GenConfig(**cfg["gen"])
    seeds = list(range(cfg["seeds"]))
    start = time.perf_counter()
    report = fuzz_corpus(gen_cfg, seeds)
    seconds = time.perf_counter() - start
    print(f"[bench_fuzz] corpus: {len(seeds)} program(s) in "
          f"{seconds:.1f}s — recall={report.recall:.3f} "
          f"precision={report.precision:.3f} "
          f"mismatches={report.mismatches}")
    for case in report.cases:
        if not case.ok:
            print(f"[bench_fuzz] FAIL seed {case.seed}: "
                  f"{case.to_dict()}", file=sys.stderr)
    return {
        "seeds": seeds,
        "config": gen_cfg.to_dict(),
        "programs": len(seeds),
        "recall": report.recall,
        "precision": round(report.precision, 4),
        "mismatches": report.mismatches,
        "arms_per_case": (len(report.cases[0].arms)
                          if report.cases else 0),
        "seconds": round(seconds, 2),
        "events": sum(c.events for c in report.cases),
        "findings": sum(c.nfindings for c in report.cases),
        "imperfect_seeds": [c.seed for c in report.cases if not c.ok],
    }, report.ok


def run_scale(cfg, gates):
    gen_cfg = GenConfig(seed=1, **cfg)
    start = time.perf_counter()
    generated = generate_program(gen_cfg)
    gen_seconds = time.perf_counter() - start
    with tempfile.TemporaryDirectory(prefix="mcgen-scale-") as trace_dir:
        start = time.perf_counter()
        profiled = profile_program(generated, trace_dir=trace_dir)
        profile_seconds = time.perf_counter() - start
        start = time.perf_counter()
        report = check_traces(profiled.traces, CheckConfig())
        analyze_seconds = time.perf_counter() - start
    score = score_report(report, generated.manifest)
    events = report.stats.events
    row = {
        "config": gen_cfg.to_dict(),
        "nranks": gen_cfg.nranks,
        "events": events,
        "rma_ops": report.stats.rma_ops,
        "generate_seconds": round(gen_seconds, 3),
        "profile_seconds": round(profile_seconds, 3),
        "analyze_seconds": round(analyze_seconds, 3),
        "analyze_events_per_second": round(
            events / max(analyze_seconds, 1e-9)),
        "recall": score.recall,
        "precision": round(score.precision, 4),
        "findings": score.nfindings,
    }
    print(f"[bench_fuzz] scale: {gen_cfg.nranks} ranks, {events} events "
          f"— profile {profile_seconds:.2f}s, analyze "
          f"{analyze_seconds:.2f}s, recall={score.recall:.2f}")
    ok = score.recall == 1.0
    gate_rows = {"recall": {"required": 1.0, "passed": ok}}
    if gates:
        ranks_ok = gen_cfg.nranks >= gates["min_ranks"]
        events_ok = events >= gates["min_events"]
        gate_rows["min_ranks"] = {"required": gates["min_ranks"],
                                  "passed": ranks_ok}
        gate_rows["min_events"] = {"required": gates["min_events"],
                                   "passed": events_ok}
        ok = ok and ranks_ok and events_ok
        if not events_ok:
            print(f"[bench_fuzz] FAIL: scale run produced {events} "
                  f"events (< {gates['min_events']})", file=sys.stderr)
    row["gates"] = gate_rows
    return row, ok


def run_bench(mode, out_path):
    cfg = CONFIGS[mode]
    print(f"[bench_fuzz] mode={mode}")
    corpus, corpus_ok = run_corpus(cfg["corpus"])
    scale, scale_ok = run_scale(cfg["scale"], cfg["scale_gates"])

    payload = {
        "benchmark": "fuzz",
        "mode": mode,
        "machine": {"cpu_count": os.cpu_count() or 1},
        "corpus": corpus,
        "scale": scale,
        "gates": {
            "corpus_recall": {"required": 1.0,
                              "passed": corpus["recall"] == 1.0},
            "corpus_mismatches": {"required": 0,
                                  "passed": corpus["mismatches"] == 0},
            "scale": scale["gates"],
        },
    }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"[bench_fuzz] wrote {out_path}")
    return payload, corpus_ok and scale_ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small CI configuration (artifact goes to "
                         "benchmarks/results/, repo-root JSON untouched)")
    ap.add_argument("--out", default=None,
                    help="artifact path (default: BENCH_fuzz.json at the "
                         "repo root, or benchmarks/results/ with --smoke)")
    args = ap.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    out_path = args.out or (SMOKE_OUT if args.smoke else DEFAULT_OUT)
    _payload, ok = run_bench(mode, out_path)
    return 0 if ok else 1


def test_fuzz_smoke(record, benchmark):
    """pytest entry point: the smoke configuration as a benchmark-suite
    row (``pytest benchmarks/bench_fuzz.py``)."""
    payload, ok = benchmark.pedantic(
        lambda: run_bench("smoke", SMOKE_OUT), rounds=1, iterations=1)
    assert ok, "fuzz recall/differential gate failed"
    corpus = payload["corpus"]
    record("fuzz",
           f"corpus programs={corpus['programs']:3d} "
           f"recall={corpus['recall']:5.3f} "
           f"precision={corpus['precision']:5.3f} "
           f"mismatches={corpus['mismatches']}",
           programs=corpus["programs"], recall=corpus["recall"],
           precision=corpus["precision"],
           mismatches=corpus["mismatches"])
    scale = payload["scale"]
    record("fuzz",
           f"scale ranks={scale['nranks']:3d} events={scale['events']:8d} "
           f"analyze={scale['analyze_seconds']:6.2f}s "
           f"recall={scale['recall']:5.3f}",
           ranks=scale["nranks"], events=scale["events"],
           analyze_seconds=scale["analyze_seconds"],
           recall=scale["recall"])


if __name__ == "__main__":
    sys.exit(main())
