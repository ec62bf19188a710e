"""DN-Analyzer — offline trace analysis and consistency-error detection.

This package is the paper's primary contribution (sections III and IV-C):

1. :mod:`~repro.core.preprocess` rebuilds communicators, windows, and
   datatype data-maps from the per-rank traces;
2. :mod:`~repro.core.matching` matches synchronization calls across ranks
   (Algorithm 1, over the :mod:`~repro.core.calltable` columns);
3. :mod:`~repro.core.clocks` derives a happens-before oracle (vector
   clocks over the synchronization graph);
4. :mod:`~repro.core.dag` materializes the data-access DAG (Figure 4);
5. :mod:`~repro.core.regions` extracts concurrent regions between global
   synchronization cuts;
6. :mod:`~repro.core.epochs` / :mod:`~repro.core.model` identify epochs
   and lift trace events into analyzable access views;
7. :mod:`~repro.core.engine` finds the candidate pairs within an epoch
   and across processes with grouped interval joins and judges them as
   arrays, by the compatibility rules of :mod:`~repro.core.compat`
   (Table I, as a lookup); :mod:`~repro.core.diagnostics` words each
   survivor as a finding;
8. :mod:`~repro.core.checker` wires it all together as :class:`MCChecker`;
9. :mod:`~repro.core.plan` cuts the analysis into shards — the one fact
   the worker pool (:mod:`~repro.core.parallel`), the result cache
   (:mod:`~repro.core.incremental`) and the streaming checker
   (:mod:`~repro.core.streaming`) are policies over.

One implementation per phase; the paper's literal algorithms (the
progress-counter walk, the per-region linear scan, the naive strawmen)
are test oracles in ``tests/reference/``.
"""

from repro.core.checker import CheckReport, MCChecker, check_traces
from repro.core.compat import (
    BOTH, ERROR, NONOV, MODEL_SEPARATE, MODEL_UNIFIED, compat_verdict,
)
from repro.core.config import CheckConfig
from repro.core.diagnostics import ConsistencyError

__all__ = [
    "CheckConfig", "CheckReport", "MCChecker", "check_traces",
    "BOTH", "ERROR", "NONOV", "MODEL_SEPARATE", "MODEL_UNIFIED",
    "compat_verdict",
    "ConsistencyError",
]
