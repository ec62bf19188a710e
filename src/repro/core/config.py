"""CheckConfig — one immutable value describing how to run an analysis.

Every entry point (:class:`~repro.core.checker.MCChecker`,
``check_traces``, the :mod:`repro.api` verbs and the CLI) takes
``config=CheckConfig(...)``; there is no other way to tune a run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

MEMORY_MODELS = ("separate", "unified")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/``1`` mean serial,
    negative means one worker per CPU."""
    if not jobs or jobs == 1:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return jobs


@dataclass(frozen=True)
class CheckConfig:
    """How one MC-Checker analysis should run.

    Immutable so it can double as (part of) a cache key; derive variants
    with :func:`dataclasses.replace`.
    """

    #: MPI-3 RMA memory model assumed for Table-I verdicts
    memory_model: str = "separate"
    #: analysis worker processes (0 or 1 = serial, -1 = one per CPU);
    #: above 1, chunks of the shard plan run over a persistent pool
    jobs: int = 1
    #: bounded-memory streaming: the shard plan released a few shards at
    #: a time, instead of the batch pipeline
    streaming: bool = False
    #: on-disk result cache directory (required for ``incremental``)
    cache_dir: Optional[str] = None
    #: reuse cached per-shard findings; only re-analyze shards whose
    #: inputs changed
    incremental: bool = False

    def __post_init__(self) -> None:
        if self.memory_model not in MEMORY_MODELS:
            raise ValueError(
                f"unknown memory model {self.memory_model!r} "
                f"(expected one of {MEMORY_MODELS})")
        if self.incremental:
            if not self.cache_dir:
                raise ValueError(
                    "incremental checking requires cache_dir")
            if os.path.exists(self.cache_dir) \
                    and not os.path.isdir(self.cache_dir):
                raise ValueError(
                    f"cache_dir {self.cache_dir!r} exists and is not a "
                    "directory")
            if self.streaming:
                raise ValueError(
                    "incremental checking is incompatible with streaming")
        if resolve_jobs(self.jobs) > 1 and (self.streaming
                                            or self.incremental):
            mode = ("streaming analysis" if self.streaming
                    else "incremental checking")
            raise ValueError(
                f"{mode} is serial; it is incompatible with jobs > 1")

    def replace(self, **changes) -> "CheckConfig":
        return replace(self, **changes)
