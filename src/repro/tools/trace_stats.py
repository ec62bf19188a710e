"""Per-trace statistics: event mixes, rates, and hot statements.

The quantitative lens of the paper's Figure 10 ("the rate of profiling
runtime events, especially load/store events") as a reusable API:
per-rank and aggregate event counts by class and call category, bytes
moved by one-sided operations, and the hottest source statements by event
count — the first thing one inspects when profiling overhead surprises.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.calltable import CLS_NAMES, classify_call
from repro.profiler.events import CallEvent, call_category
from repro.profiler.tracer import MemBlock, TraceSet
from repro.util.datatypes import PRIMITIVES_BY_ID


@dataclass
class RankStats:
    """Event statistics of one rank."""

    rank: int
    calls: int = 0
    loads: int = 0
    stores: int = 0
    load_bytes: int = 0
    store_bytes: int = 0
    by_category: Counter = field(default_factory=Counter)
    by_fn: Counter = field(default_factory=Counter)
    #: calls per control-plane sync class (the CallTable ``cls`` codes)
    by_sync_class: Counter = field(default_factory=Counter)
    rma_bytes: int = 0  # bytes named by Put/Get/Accumulate signatures
    trace_format: str = ""
    #: the reader's authoritative per-class counts — footer-served for
    #: binary traces, so they cross-check the streamed totals
    footer_counts: Dict[str, int] = field(default_factory=dict)
    #: file bytes by what they hold (``TraceReader.frame_bytes``):
    #: ``calls``/``mems``/``footer`` for binary, ``file`` for text
    frame_bytes: Dict[str, int] = field(default_factory=dict)
    #: ``TraceReader.content_digest()``: two profiles of one program
    #: under one seed must agree on it (for text, on every file byte)
    digest: str = ""

    @property
    def mems(self) -> int:
        return self.loads + self.stores

    @property
    def events(self) -> int:
        return self.calls + self.mems

    def to_dict(self) -> dict:
        return {
            "rank": self.rank, "format": self.trace_format,
            "calls": self.calls, "loads": self.loads,
            "stores": self.stores, "events": self.events,
            "load_bytes": self.load_bytes, "store_bytes": self.store_bytes,
            "rma_bytes": self.rma_bytes,
            "by_category": dict(self.by_category),
            "by_fn": dict(self.by_fn),
            "by_sync_class": dict(self.by_sync_class),
            "footer_counts": dict(self.footer_counts),
            "frame_bytes": dict(self.frame_bytes),
            "digest": self.digest,
        }


@dataclass
class TraceStats:
    """Aggregate statistics of a trace set."""

    nranks: int
    per_rank: List[RankStats]
    hot_statements: List[Tuple[str, int]]  # (file:line, event count)

    @property
    def total_events(self) -> int:
        return sum(r.events for r in self.per_rank)

    @property
    def total_calls(self) -> int:
        return sum(r.calls for r in self.per_rank)

    @property
    def total_mems(self) -> int:
        return sum(r.mems for r in self.per_rank)

    def mems_per_rank(self) -> float:
        return self.total_mems / self.nranks

    def calls_per_rank(self) -> float:
        return self.total_calls / self.nranks

    def category_mix(self) -> Dict[str, int]:
        mix: Counter = Counter()
        for rank_stats in self.per_rank:
            mix.update(rank_stats.by_category)
        return dict(mix)

    def sync_class_mix(self) -> Dict[str, int]:
        """Aggregate per-sync-class call histogram (control-plane view:
        how much of the call stream Algorithm 1 actually matches on)."""
        mix: Counter = Counter()
        for rank_stats in self.per_rank:
            mix.update(rank_stats.by_sync_class)
        return dict(mix)

    def frame_bytes(self) -> Dict[str, int]:
        """Trace bytes on disk by frame kind, over all ranks — what a
        change in bytes per event is attributable to."""
        total: Counter = Counter()
        for rank_stats in self.per_rank:
            total.update(rank_stats.frame_bytes)
        return dict(total)

    @property
    def calls_to_mems_ratio(self) -> float:
        """Control-plane : data-plane event ratio (calls per load/store;
        ``inf``-free — a trace with no memory events reports 0.0)."""
        if not self.total_mems:
            return 0.0
        return self.total_calls / self.total_mems

    def to_dict(self, hot_limit: int = 8) -> dict:
        """JSON-ready statistics (``mc-checker stats --json``)."""
        return {
            "nranks": self.nranks,
            "totals": {
                "events": self.total_events,
                "calls": self.total_calls,
                "mems": self.total_mems,
                "rma_bytes": sum(r.rma_bytes for r in self.per_rank),
                "mem_bytes": sum(r.load_bytes + r.store_bytes
                                 for r in self.per_rank),
                "calls_to_mems_ratio": self.calls_to_mems_ratio,
            },
            "category_mix": self.category_mix(),
            "sync_class_mix": self.sync_class_mix(),
            "frame_bytes": self.frame_bytes(),
            "per_rank": [r.to_dict() for r in self.per_rank],
            "hot_statements": [
                {"where": where, "events": count}
                for where, count in self.hot_statements[:hot_limit]
            ],
        }

    def format(self, hot_limit: int = 8) -> str:
        lines = [
            f"trace set: {self.nranks} ranks, {self.total_events} events "
            f"({self.total_calls} MPI calls, {self.total_mems} load/store)",
            f"per rank: {self.calls_per_rank():.1f} calls, "
            f"{self.mems_per_rank():.1f} load/store",
        ]
        mix = self.category_mix()
        if mix:
            parts = ", ".join(f"{cat}={count}"
                              for cat, count in sorted(mix.items()))
            lines.append(f"call categories: {parts}")
        sync_mix = self.sync_class_mix()
        if sync_mix:
            parts = ", ".join(f"{cls}={count}"
                              for cls, count in sorted(sync_mix.items()))
            lines.append(f"sync classes: {parts}")
        lines.append(
            f"control:data ratio: {self.calls_to_mems_ratio:.4f} "
            f"calls per load/store")
        rma = sum(r.rma_bytes for r in self.per_rank)
        moved = sum(r.load_bytes + r.store_bytes for r in self.per_rank)
        lines.append(f"bytes: {rma} via one-sided signatures, "
                     f"{moved} via instrumented load/store")
        on_disk = self.frame_bytes()
        if on_disk:
            parts = ", ".join(f"{kind}={size}"
                              for kind, size in sorted(on_disk.items()))
            lines.append(f"trace bytes: {parts} "
                         f"({sum(on_disk.values()) / max(self.total_events, 1):.1f}"
                         " per event)")
        if self.hot_statements:
            lines.append("hottest statements:")
            for where, count in self.hot_statements[:hot_limit]:
                lines.append(f"  {count:8d}  {where}")
        return "\n".join(lines)


def _mem_block_stats(block: MemBlock, stats: RankStats,
                     hot: Counter) -> None:
    """Fold one packed memory block into the statistics with columnar
    reductions — per-row Python objects never materialize."""
    arr = block.array
    sizes = arr["size"]
    load_mask = arr["access"] == 0
    loads = int(load_mask.sum())
    load_bytes = int(sizes[load_mask].sum())
    stats.loads += loads
    stats.stores += len(arr) - loads
    stats.load_bytes += load_bytes
    stats.store_bytes += int(sizes.sum()) - load_bytes
    table = block.table
    loc_ids, counts = np.unique(arr["loc"], return_counts=True)
    for loc_id, count in zip(loc_ids.tolist(), counts.tolist()):
        loc = table.loc(loc_id)
        hot[f"{loc.short} ({loc.function})"] += count


def compute_stats(traces: TraceSet) -> TraceStats:
    """Single pass over every rank's trace (memory events arrive as
    packed columns and are reduced vectorized)."""
    per_rank: List[RankStats] = []
    hot: Counter = Counter()
    for rank in range(traces.nranks):
        stats = RankStats(rank=rank)
        with traces.reader(rank) as reader:
            for item in reader.stream():
                if isinstance(item, MemBlock):
                    _mem_block_stats(item, stats, hot)
                    continue
                event = item
                hot[f"{event.loc.short} ({event.loc.function})"] += 1
                stats.calls += 1
                stats.by_fn[event.fn] += 1
                row, _lock = classify_call(event.fn, event.args)
                stats.by_sync_class[CLS_NAMES[row[1]]] += 1
                try:
                    stats.by_category[call_category(event.fn)] += 1
                except KeyError:
                    stats.by_category["other"] += 1
                if event.fn in ("Put", "Get", "Accumulate", "Rput",
                                "Rget", "Raccumulate", "Get_accumulate"):
                    count = int(event.args.get("origin_count", 0))
                    # primitive ids encode their size in the datamap; for
                    # signature-level accounting use count * 8 as an upper
                    # bound only when the dtype is unknown
                    stats.rma_bytes += count * _dtype_size(
                        int(event.args.get("origin_dtype", -7)))
            stats.trace_format = reader.format
            # cheap after streaming: the footer for binary, the cached
            # scan for text — an independent check on the streamed totals
            stats.footer_counts = reader.counts()
            stats.frame_bytes = reader.frame_bytes()
            stats.digest = reader.content_digest()
        per_rank.append(stats)
    return TraceStats(nranks=traces.nranks, per_rank=per_rank,
                      hot_statements=hot.most_common())


def _dtype_size(type_id: int) -> int:
    dtype = PRIMITIVES_BY_ID.get(type_id)
    return dtype.size if dtype is not None else 0


def main(argv=None) -> int:
    """``python -m repro.tools.trace_stats <trace-dir> [--json]``."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="trace-stats",
        description="Per-rank / aggregate statistics of a trace set.")
    parser.add_argument("trace_dir")
    parser.add_argument("--json", action="store_true",
                        help="emit the statistics as JSON")
    parser.add_argument("--hot", type=int, default=8,
                        help="number of hottest statements to include")
    args = parser.parse_args(argv)

    stats = compute_stats(TraceSet(args.trace_dir))
    if args.json:
        print(json.dumps(stats.to_dict(hot_limit=args.hot), indent=2))
    else:
        print(stats.format(hot_limit=args.hot))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
