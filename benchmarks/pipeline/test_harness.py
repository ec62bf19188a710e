"""Self-test of the pipeline benchmark harness.

Run explicitly (it is not under the tier-1 ``testpaths``; about a
minute, every workload in ``--smoke`` size):

    python -m pytest benchmarks/pipeline/test_harness.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_worker(*argv, **kwargs):
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=180, **kwargs)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_and_bounds():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_worker(RUN, "--workload", workload, "--trace", str(trace),
                      "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        # and the human-readable row: name, value, unit
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                         proc.stdout, re.MULTILINE), name
    if not trace:
        assert result["metrics"]["verdict_ok_share"]["value"] == 1.0
        assert re.search(r"^\s+failed_share\s+0 share", proc.stdout,
                         re.MULTILINE)


WRONG_ORACLE = """
import dataclasses, sys
sys.path[:0] = [{here!r}, {src!r}]
import run, workloads
real = workloads.BUILDERS["lu16"]
def wrong(seed, smoke):
    workload = real(seed, smoke)
    # LU is race-free; expect findings instead
    cases = tuple(dataclasses.replace(
        case, expect=lambda report: bool(report.findings))
        for case in workload.cases)
    return dataclasses.replace(workload, cases=cases)
workloads.BUILDERS["lu16"] = wrong
sys.exit(run.main(["--workload", "lu16", "--trace", "0", "--smoke"]))
"""


def test_a_wrong_expected_verdict_fails_the_run():
    script = WRONG_ORACLE.format(here=HERE, src=os.path.join(ROOT, "src"))
    # hash seed preset, so the worker does not re-execute itself
    proc = run_worker("-c", script,
                      env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["verdict_ok_share"]["value"] < 1.0
    share = re.search(r"^\s+failed_share\s+(\S+) share", proc.stdout,
                      re.MULTILINE)
    assert share and float(share.group(1)) > 0


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_worker(*SPEC["command"][1:], "--workload", "bugs10",
                      "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
