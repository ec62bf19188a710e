"""E1 — Table I: the RMA operation compatibility matrix.

Regenerates the matrix the paper prints and benchmarks the verdict lookup
that sits on the detectors' hot path (every candidate pair consults it).
"""

from repro.core.compat import KINDS, compat_verdict, format_table


def render_table1() -> str:
    return format_table() + "\n*same reduction op and basic datatype only"


def test_table1_matrix(record, benchmark):
    text = benchmark(render_table1)
    for line in text.splitlines():
        record("table1_compat", line)


def test_verdict_lookup_throughput(benchmark):
    pairs = [(a, b, overlap)
             for a in KINDS for b in KINDS for overlap in (False, True)]

    def sweep():
        count = 0
        for a, b, overlap in pairs:
            if compat_verdict(a, b, overlap, acc_same=False) is not None:
                count += 1
        return count

    violations = benchmark(sweep)
    # 2 ERROR pairs x2 symmetry x2 overlap + NONOV overlapping cells:
    # load/put, load/acc, store/get, get/put, get/acc, put/put, put/acc,
    # acc/acc = 8 unordered -> 14 directed overlapping NONOV conflicts
    assert violations == 2 * 2 * 2 + 14
