"""The pipeline benchmark: profile -> write -> read -> preprocess -> match
-> clocks -> epochs -> model -> regions -> intra -> inter -> report, on a
six-workload ladder, end to end and per layer.

    python benchmarks/pipeline/run.py                    # whole ladder
    python benchmarks/pipeline/run.py --traced           # + per-layer runs
    python benchmarks/pipeline/run.py --workload lu16 --seed 3
    python benchmarks/pipeline/run.py --smoke            # shrunk, < 20 s
    python benchmarks/pipeline/run.py --sets 2           # noise floor

A closed loop with one client: one workload per process, sequential
repetitions.  Without ``--trace`` this process only starts one worker
per workload and waits for it; ``--workload NAME --trace 0|1`` is the
worker (and what ``BENCHMARK.json``'s command runs).  The worker's last
line of output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  README.md has the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: set-ups timed per untraced run (``setup_s`` is their median): three,
#: or two when those already took this many seconds (``lu16_recheck``)
SETUPS = 3
SETUP_SECONDS = 3.0

#: what a worker reports when no repetition completed
NO_RESULT: Dict[str, Any] = {"rows": {}, "counts": {}, "digest": ""}

#: metrics two runs of the same code and seed must repeat exactly
EXACT = ("trace_bytes_per_event", "verdict_ok_share")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def settle_machine() -> Dict[str, Any]:
    """Fix the machine shape before ``repro`` (and numpy) are imported:
    hash seed 0, one CPU.  Returns the shape, for the output."""
    if os.environ.get("PYTHONHASHSEED") is None:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    import numpy
    return {"nproc": len(allowed), "allowed": allowed, "cpu": cpu,
            "loadavg": round(os.getloadavg()[0], 2),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit or "unknown"}


# ----------------------------------------------------------------------
# the worker: one workload, in this process
# ----------------------------------------------------------------------


def untraced(args, workdir: str, tally) -> Dict[str, Any]:
    import measure
    from workloads import BUILDERS

    def set_up(directory: str):
        workload = BUILDERS[args.workload](args.seed, args.smoke)
        os.makedirs(directory)
        cache = measure.prepare_recheck(workload, directory, tally) \
            if workload.recheck else None
        return workload, cache

    # setup_s is a fresh interpreter importing repro.api plus one
    # set-up; the imports are timed before the set-ups, after each and
    # after the repetitions, so that one burst of interference cannot
    # cover them all
    imports, prepares = [], []

    def time_import() -> None:
        imports.append(tally.reference_timed("import repro.api",
                                             measure.import_repro)[1:])

    time_import()
    while True:
        setup_dir = os.path.join(workdir, f"setup{len(prepares)}")
        built, wall, ref = tally.reference_timed(
            "set-up", lambda: set_up(setup_dir))
        if built is None or (built[0].recheck and built[1] is None):
            return dict(NO_RESULT, reps=0)
        workload, base_cache = built
        prepares.append((wall, ref))
        if args.smoke:
            break
        time_import()
        if len(prepares) == SETUPS or \
                (len(prepares) == 2
                 and sum(w for w, _ in prepares) >= SETUP_SECONDS):
            break

    samples = measure.untraced_samples(workload, base_cache, workdir,
                                       args.seconds, tally)
    if not args.smoke:
        time_import()
    done = [s for s in samples if len(s.canonicals) == len(workload.cases)]
    if not done:
        return dict(NO_RESULT, reps=len(samples))
    events = done[0].counts["events"]
    median = statistics.median
    rows: Dict[str, Dict[str, float]] = {"setup_s": {
        "value": median(r for _, r in imports)
        + median(r for _, r in prepares),
        "wall_median": median(w for w, _ in imports)
        + median(w for w, _ in prepares),
        "wall_min": min(w for w, _ in imports)
        + min(w for w, _ in prepares),
        "wall_max": max(w for w, _ in imports)
        + max(w for w, _ in prepares),
        "n": len(prepares)}}
    for name, values, walls in (
            ("profile_s", [s.profile_s for s in done],
             [s.profile_wall_s for s in done]),
            ("check_s", [s.check_s for s in done],
             [s.check_wall_s for s in done]),
            ("pipeline_s", [s.profile_s + s.check_s for s in done],
             [s.profile_wall_s + s.check_wall_s for s in done]),
            ("profile_events_per_s",
             [s.events_written / s.profile_s for s in done], None),
            ("check_events_per_s",
             [events / s.check_s for s in done], None)):
        rows[name] = measure.median_row(values, walls)
    rows["trace_bytes_per_event"] = {
        "value": median(s.trace_bytes for s in done) / events}
    rows["peak_rss_mb"] = {"value": measure.peak_rss_mb()}
    rows["verdict_ok_share"] = {"value": tally.verdicts_ok / tally.verdicts}
    slow = tally.speed.readings
    print(f"  machine speed: {len(slow)} probes, slow-down median "
          f"{median(slow):.3f} min {min(slow):.3f} max {max(slow):.3f} "
          "(reference.py; 1 = undisturbed)")
    return {"rows": rows, "reps": len(samples), "counts": done[0].counts,
            "digest": measure.digest(done[0].canonicals)}


def traced(args, workdir: str, machine: Dict[str, Any],
           tally) -> Dict[str, Any]:
    import measure
    from workloads import BUILDERS

    workload = BUILDERS[args.workload](args.seed, args.smoke)
    log, canonicals = measure.traced_run(workload, workdir, machine, tally)
    log.write(os.path.join(RESULTS, f"trace.{args.workload}.json"))
    rows = {name: {"value": value}
            for name, value in measure.layer_metrics(log, tally).items()}
    return {"rows": rows, "reps": 1, "counts": {},
            "digest": measure.digest(canonicals)}


def print_rows(result: Dict[str, Any], units: Dict[str, str]) -> None:
    for name, row in result["rows"].items():
        spread = f"  n={row['n']}" if "n" in row else ""
        if "wall_median" in row:
            spread += (f" wall: median={row['wall_median']:.6g} "
                       f"min={row['wall_min']:.6g} "
                       f"max={row['wall_max']:.6g}")
        print(f"  {name:26s} {row['value']:.6g} {units[name]}{spread}")
    if result["counts"]:
        print("  counts: " + " ".join(
            f"{key}={value}" for key, value in result["counts"].items()))


def worker(args, spec: Dict[str, Any]) -> int:
    if not os.path.isdir(SRC):
        print(f"run.py: no {SRC}: the benchmark measures the repro "
              "package of the checkout it sits in", file=sys.stderr)
        return 2
    machine = settle_machine()
    sys.path.insert(0, SRC)
    import measure

    tally = measure.Tally()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}{' smoke' if args.smoke else ''}")
    print("  machine: " + " ".join(
        f"{key}={machine[key]}" for key in
        ("nproc", "cpu", "loadavg", "python", "numpy", "commit")))
    try:
        if args.trace:
            result = traced(args, workdir, machine, tally)
        else:
            result = untraced(args, workdir, tally)
    finally:
        # everything the run wrote goes at once, and the frees are
        # flushed here so that they do not land in the next run
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    rows = result["rows"]
    if tally.failed == 0 and set(rows) != set(units):
        raise SystemExit(
            f"run.py: metrics differ from BENCHMARK.json: "
            f"{sorted(set(rows) ^ set(units))}")
    print(f"  reps={result['reps']}")
    print_rows(result, units)
    # always 0 on a passing run, so it cannot carry a relative bound:
    # BENCHMARK.json leaves it to the result line's failed/attempted
    print(f"  {'failed_share':26s} {tally.failed / tally.attempted:.6g} "
          f"share  ({tally.failed} of {tally.attempted} operations)")
    print(f"  report digest {result['digest'][:16]}")

    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, attempted=tally.attempted,
                  failed=tally.failed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": row["value"], "unit": units[name]}
                    for name, row in rows.items()}}))
    return 0 if tally.failed == 0 else 1


# ----------------------------------------------------------------------
# the ladder: one worker process per workload, one after the other
# ----------------------------------------------------------------------


def run_worker(args, workload: str, trace: int,
               out: str) -> Optional[Dict[str, Any]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    if code != 0 or not os.path.exists(out):
        print(f"run.py: {workload} (trace={trace}) exited with {code}",
              file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_ladder(args, names: List[str]) -> Optional[Dict[str, Any]]:
    """Every chosen workload once (and once more traced, with
    ``--traced``); ``None`` when any of them failed."""
    outdir = os.path.join(HERE, ".work", f"ladder-{os.getpid()}")
    os.makedirs(outdir)
    results: Dict[str, Any] = {}
    ok = True
    try:
        for name in names:
            result = run_worker(args, name, 0,
                                os.path.join(outdir, f"{name}.json"))
            ok = ok and result is not None
            results[name] = result
            if args.traced:
                layers = run_worker(
                    args, name, 1, os.path.join(outdir, f"{name}.1.json"))
                ok = ok and layers is not None
                if result and layers and \
                        result["digest"] != layers["digest"]:
                    print(f"run.py: {name}: traced and untraced runs "
                          "reported different bytes", file=sys.stderr)
                    ok = False
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return results if ok else None


def compare_sets(first: Dict[str, Any], second: Dict[str, Any],
                 spec: Dict[str, Any]) -> bool:
    """Per workload x end-to-end metric: both values, their relative
    difference and the bound; False on any breach.  (``failed_share`` is
    0 in both sets: a set with a failure never gets here.)"""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"\n{'workload':14s} {'metric':24s} {'set 1':>12s} "
          f"{'set 2':>12s} {'diff':>8s} {'bound':>6s}")
    for name in first:
        rows1, rows2 = first[name]["rows"], second[name]["rows"]
        for metric, bound in bounds.items():
            v1, v2 = rows1[metric]["value"], rows2[metric]["value"]
            diff = abs(v2 - v1) / v1 if v1 else abs(v2 - v1)
            breach = v1 != v2 if metric in EXACT else diff > bound
            ok = ok and not breach
            print(f"{name:14s} {metric:24s} {v1:12.6g} {v2:12.6g} "
                  f"{diff:8.2%} {'exact' if metric in EXACT else bound!s:>6s}"
                  f"{'  BREACH' if breach else ''}")
        if first[name]["counts"] != second[name]["counts"] \
                or first[name]["digest"] != second[name]["digest"]:
            print(f"{name:14s} work counts or report bytes differ  BREACH")
            ok = False
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload(s) to run (default: the ladder)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds of repetitions per run "
                             f"(default {spec['run_seconds']}; 0 = one "
                             "repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also make the per-layer run of each workload")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workloads, one repetition, same oracle")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the ladder this many times and compare "
                             "the first two sets against the bounds")
    parser.add_argument("--out", default=None,
                        help="also write the worker's full result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        args.workload = args.workload[0]
        return worker(args, spec)

    sets = [run_ladder(args, args.workload or names)
            for _ in range(args.sets)]
    if None in sets:
        return 1
    if args.sets >= 2 and not compare_sets(sets[0], sets[1], spec):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
