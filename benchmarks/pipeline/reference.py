"""The machine-speed probe behind the end-to-end timings.

The sandbox shares its host: millisecond by millisecond the pinned CPU
runs either at full speed or about 1.5x slower, and the share of slow
milliseconds drifts between 10 % and 90 % over minutes.  A region of a
second therefore never runs undisturbed, and its wall time follows the
host's load, not the code (README.md, noise floor).

So every end-to-end timed region is bracketed by two fixed kernels owned
by the benchmark — one interpreter-bound, one numpy-bound, as the
pipeline is both — and its wall time is divided by how much slower than
nominal they ran just before and just after it.  The result is in
*reference seconds*: wall seconds on this class of machine when nothing
interferes.  Nothing under ``src/`` is involved in the probe, so it
moves with the machine and not with the code under measurement.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

import numpy

#: times each kernel runs per probe
ROUNDS = 3

#: a probe older than this many seconds is taken again
STALE_SECONDS = 0.25


class _Record:
    __slots__ = ("key", "group", "label")

    def __init__(self, key: int, group: int, label: str) -> None:
        self.key, self.group, self.label = key, group, label


def interpreter_kernel() -> int:
    """Allocation, attribute access, dict and sort work."""
    records = [_Record(i, (i * 7919) % 1009, str(i)) for i in range(8000)]
    groups: Dict[int, List[_Record]] = {}
    for record in records:
        groups.setdefault(record.group, []).append(record)
    records.sort(key=lambda record: (record.group, record.key))
    return sum(len(members) for members in groups.values()) \
        + len("".join(record.label for record in records))


_KEYS = numpy.random.default_rng(0).integers(0, 1 << 40, size=150_000)


def numpy_kernel() -> int:
    """Sort, gather, binary search and scan over 1.2 MB of keys."""
    order = numpy.argsort(_KEYS, kind="stable")
    ordered = _KEYS[order]
    found = numpy.searchsorted(ordered, _KEYS[::3])
    return int(numpy.cumsum(ordered)[-1]) + int(found.sum())


#: kernel -> its undisturbed duration on the sandbox's host, in seconds
#: (the fastest of thousands of calls, Python 3.11, numpy 2.4).  These
#: two constants define the reference second.
NOMINAL: Dict[Callable[[], int], float] = {
    interpreter_kernel: 7.1e-3,
    numpy_kernel: 24.0e-3,
}


def probe() -> float:
    """How many times slower than nominal the machine runs right now:
    the mean over the kernels of their mean slow-down."""
    slowdowns = []
    for kernel, nominal in NOMINAL.items():
        start = time.perf_counter()
        for _ in range(ROUNDS):
            kernel()
        slowdowns.append((time.perf_counter() - start) / (ROUNDS * nominal))
    return statistics.fmean(slowdowns)


class Speed:
    """The current slow-down, probed again whenever the last probe is
    stale; keeps every reading for the run's summary."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._taken_at = float("-inf")

    def now(self) -> float:
        if time.perf_counter() - self._taken_at > STALE_SECONDS:
            self.readings.append(probe())
            self._taken_at = time.perf_counter()
        return self.readings[-1]
