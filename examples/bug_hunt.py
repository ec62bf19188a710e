#!/usr/bin/env python
"""Bug hunt: run MC-Checker over every Table II bug case, buggy and fixed.

Reproduces the paper's effectiveness study interactively: each of the five
evaluated applications (three real-world defects, two injected) is checked
in its buggy and corrected variants, and the findings are printed with the
paper's diagnostic payload (conflicting pair + file:line locations).

Run:  python examples/bug_hunt.py [--ranks-cap N]
"""

import argparse

from repro import run_check
from repro.apps.registry import BUG_CASES, LOCKOPTS_EXCLUSIVE


def hunt(case, ranks_cap: int) -> None:
    nranks = min(case.nranks, ranks_cap)
    print(f"=== {case.name} ({case.provenance}, {nranks} ranks, "
          f"{case.error_location}) ===")

    buggy = run_check(case.app, nranks=nranks, params=case.params(True),
                      delivery="random")
    print(f"buggy variant: {len(buggy.errors)} error(s), "
          f"{len(buggy.warnings)} warning(s)")
    for finding in buggy.findings[:2]:
        print()
        print("\n".join("  " + line for line in
                        finding.format().splitlines()))

    fixed = run_check(case.app, nranks=nranks, params=case.params(False),
                      delivery="random")
    status = "clean" if not fixed.findings else "STILL FLAGGED?!"
    print(f"\nfixed variant: {status}")
    print()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--ranks-cap", type=int, default=16,
                        help="cap per-case rank counts (lockopts uses 64 "
                             "in the paper; smaller is faster)")
    args = parser.parse_args()

    for case in BUG_CASES + (LOCKOPTS_EXCLUSIVE,):
        hunt(case, args.ranks_cap)


if __name__ == "__main__":
    main()
