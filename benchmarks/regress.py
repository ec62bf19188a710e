"""Perf-regression compare: current ``BENCH_*.json`` vs committed baselines.

Pairs every payload in ``--current-dir`` (default:
``benchmarks/results/``, where CI smoke runs write) with the committed
baseline of the same ``"benchmark"`` field in ``--baseline-dir``
(default: the repo root) and diffs a small set of per-benchmark
indicator metrics with a tolerance band.

Baselines are measured in *full* mode while CI runs *smoke* mode, so
absolute seconds are only compared when the two payloads ran the same
mode; across modes only scale-invariant ratios (speedups, overhead
percentages, size ratios) are compared.

Default is a non-blocking warn (exit 0) so noisy CI machines don't
block merges; ``--strict`` turns regressions into exit 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CURRENT = os.path.join(REPO_ROOT, "benchmarks", "results")

#: per-benchmark indicator metrics:
#: (label, path, direction, cross-mode sanity bound or None).
#: direction "higher" = bigger is better, "lower" = smaller is better.
#: Same-mode payloads compare against the baseline value within the
#: tolerance band; different-mode payloads (CI smoke vs committed full)
#: only check the absolute sanity bound — the one invariant the
#: optimization must preserve at any scale.
_METRICS: Dict[str, List[Tuple[str, Tuple[object, ...], str,
                               Optional[float]]]] = {
    "flight_recorder": [
        ("overhead_pct", ("overhead_pct",), "lower", 10.0),
    ],
    "fuzz": [
        # cross-mode invariants: every injected conflict must be found
        # and every differential arm must agree, at any corpus size
        ("corpus_recall", ("corpus", "recall"), "higher", 1.0),
        ("corpus_mismatches", ("corpus", "mismatches"), "lower", 0.0),
        ("corpus_precision", ("corpus", "precision"), "higher", None),
        ("scale_analyze_events_per_second",
         ("scale", "analyze_events_per_second"), "higher", None),
    ],
    "trace_gen": [
        # the cross-mode invariant: the bulk lane may never lose to the
        # scalar lane (the full-mode 5x gate needs git history, so it
        # lives in the harness, not here)
        ("lane_ratio_scalar_vs_bulk",
         ("lane_ratio_scalar_vs_bulk",), "higher", 0.7),
        ("bulk_generation_seconds",
         ("arms", "bulk", "seconds"), "lower", None),
        ("bulk_events_per_second",
         ("arms", "bulk", "events_per_second"), "higher", None),
    ],
}


def _dig(payload, path) -> Optional[float]:
    node = payload
    for key in path:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return None
    return float(node) if isinstance(node, (int, float)) else None


def load_payloads(directory: str) -> Dict[str, dict]:
    """``benchmark-field -> payload`` for every BENCH_*.json in a dir."""
    out: Dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        name = payload.get("benchmark")
        if name:
            out[str(name)] = payload
    return out


def compare_payload(name: str, current: dict, baseline: dict,
                    tolerance: float) -> List[dict]:
    same_mode = current.get("mode") == baseline.get("mode")
    deltas: List[dict] = []
    for label, path, direction, sanity in _METRICS.get(name, []):
        cur = _dig(current, path)
        if cur is None:
            continue
        if same_mode:
            base = _dig(baseline, path)
            if base is None:
                continue
            if direction == "higher":
                regressed = cur < base * (1.0 - tolerance)
            else:
                regressed = cur > base * (1.0 + tolerance)
            deltas.append({
                "benchmark": name, "metric": label, "current": cur,
                "baseline": base, "direction": direction,
                "kind": "tolerance",
                "status": "regression" if regressed else "ok",
            })
        elif sanity is not None:
            regressed = (cur < sanity if direction == "higher"
                         else cur > sanity)
            deltas.append({
                "benchmark": name, "metric": label, "current": cur,
                "baseline": sanity, "direction": direction,
                "kind": "sanity-bound",
                "status": "regression" if regressed else "ok",
            })
    return deltas


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default=REPO_ROOT,
                    help="directory with committed BENCH_*.json baselines "
                         "(default: repo root)")
    ap.add_argument("--current-dir", default=DEFAULT_CURRENT,
                    help="directory with fresh BENCH_*.json payloads "
                         "(default: benchmarks/results/)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed degradation fraction (default 0.25)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regression (default: warn only)")
    ap.add_argument("--json", action="store_true",
                    help="emit the comparison as JSON")
    args = ap.parse_args(argv)

    baselines = load_payloads(args.baseline_dir)
    currents = load_payloads(args.current_dir)
    if not currents:
        print(f"[regress] no BENCH_*.json under {args.current_dir}; "
              "nothing to compare")
        return 0

    deltas: List[dict] = []
    for name, current in sorted(currents.items()):
        baseline = baselines.get(name)
        if baseline is None:
            print(f"[regress] {name}: no committed baseline, skipping")
            continue
        deltas.extend(compare_payload(name, current, baseline,
                                      args.tolerance))

    regressions = [d for d in deltas if d["status"] == "regression"]
    if args.json:
        print(json.dumps({"tolerance": args.tolerance, "deltas": deltas,
                          "regressions": len(regressions)}, indent=2))
    else:
        for d in deltas:
            marker = "!!" if d["status"] == "regression" else "ok"
            print(f"[regress] [{marker}] {d['benchmark']}/{d['metric']}: "
                  f"{d['current']} vs {d['kind']} {d['baseline']} "
                  f"({d['direction']} is better)")
        verdict = ("REGRESSION" if regressions else "OK")
        print(f"[regress] {verdict}: {len(regressions)} regression(s) in "
              f"{len(deltas)} compared metric(s), tolerance "
              f"{args.tolerance * 100:.0f}%")
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
