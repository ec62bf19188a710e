"""Incremental checking with a content-addressed result cache.

MC-Checker's workflow is profile-then-analyze, and the same trace set is
typically analyzed many times — after a re-run that perturbed only a few
ranks, while bisecting with ``minimize``, or under CI.  This module makes
the warm path cheap: findings are cached per *shard* (a group of
concurrent regions) under a key derived purely from the shard's inputs,
so a warm ``check`` re-runs the sweep detectors only for shards whose
inputs changed and merges cached and fresh findings into a report that is
byte-identical to a cold run.

Two cache levels stack:

* **the whole-report fast path** — the run manifest records every
  rank's full-trace content digest alongside the finished (deduplicated)
  report.  When all digests and the engine version match, the stored
  report is served outright: identical inputs produce identical output,
  so even the control pass is skipped and a fully warm run costs little
  more than reading the trace trailers;
* **the per-shard cache** — when any rank changed, the control pass
  re-runs (invalidation soundness is decided fresh, never cached) and
  only the shards whose content keys moved are re-analyzed.

How the cache key covers every detector input
---------------------------------------------

A shard's findings are produced by the sweep kernels
:func:`check_epochs_sweep` (its access epochs) and
:func:`detect_regions_sweep` (its regions), which return findings *per
unit* — so all dirty shards of a run (or of a pool chunk) go through one
kernel call and are split back into per-shard payloads.  The inputs are:

* **the shard's calls** — ops, attached/plain call-derived locals, and
  epoch structure all lift from call events.  Covered by a per-rank
  digest of the call events with ``lo < seq <= hi`` (inclusive upper
  bound: the global cut that *closes* a region maps to that region via
  :meth:`RegionIndex.region_of_seq`, and its buffer arguments feed that
  region's locals);
* **the shard's memory rows** — covered by per-rank digests over the
  ``row_range`` slice of the packed columns (prefixed with the rank's
  string-table digest, since ``var``/``loc`` ids are table-relative);
* **epoch structure** — epochs are grouped into the shard (see below)
  and canonicalized into the key outright, which also covers the lock
  index (it is a pure function of the epoch list);
* **the registries** — window bases/sizes, communicators, and datatypes
  may be created by calls *anywhere* in the trace but affect lifted
  intervals everywhere, so one global registry digest enters every key;
* **happens-before verdicts** — covered by the synchronization prefix
  fingerprint, below;
* **memory model / engine semantics** — literal config fields plus
  :data:`ENGINE_VERSION`, which must be bumped whenever detector
  semantics change.

Soundness of the synchronization fingerprint
--------------------------------------------

Every oracle query a shard issues is about two spans that end at or
before the shard's last region ``R`` (op spans and region-sliced locals
never extend past a region's closing cut).  Global cuts totally order
regions, so a synchronization match whose *every* participant lies in a
region ``> R`` cannot influence the verdict: any happens-before path
between the two queried spans that visited such a match would have to
cross the cut after ``R`` forward and return backward, and program order
plus send→recv edges never point backward across a global cut (that
would make a cycle through the cut's collective).  Hence the verdicts
depend only on matches whose *minimum* participant region is ``<= R`` —
exactly the prefix the fingerprint chains up.  Any change to any rank's
synchronization calls therefore dirties every shard whose fingerprint
prefix can see it (its own region and everything downstream), not just
the changed rank's shard.

Shard grouping
--------------

Regions are grouped into maximal contiguous shards such that no epoch
*interior*, op span, or local-access span crosses a shard boundary.  The
interior — ``contains_seq`` is exclusive on both ends — is what matters
for epochs: every detector input of an epoch unit (its ops, attached and
plain locals, and memory rows) lies strictly between the opening and
closing synchronization, while the boundary seqs themselves enter the
key through the epoch canon.  Grouping by the full span instead would
chain-merge every fence-delimited region (consecutive fence epochs share
their boundary cut) into one shard and destroy all reuse.  An epoch left
open to the end of the trace merges everything from its opening region
onward — coarse, but sound.  Within a shard, findings are stored
keyed by epoch position / region index, so the global merge can
reproduce the cold pipeline's concatenation order exactly; ``dedupe``
then runs once, in the parent, on the merged list — and because
``dedupe`` mutates its survivors' occurrence counters in place, shard
payloads are always serialized *before* the merge.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.checker import (
    CheckReport, CheckStats, publish_control_plane_obs, publish_report_obs,
)
from repro.core.clocks import Span
from repro.core.config import CheckConfig
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, annotate_context,
    dedupe, sort_findings,
)
from repro.core.engine import check_epochs_sweep, detect_regions_sweep
from repro.core.model import MemRows, share_rows
from repro.core.parallel import (
    _WORKER, _chunk_bounds, _export, _pool_task, _task_recorder,
    absorb_export, acquire_pool, resolve_jobs, worker_rows,
)
from repro.core.streaming import ControlState, build_control_state
from repro.profiler.tracer import TraceSet
from repro.util.cachestore import CORRUPT, HIT, CacheStore
from repro.util.hashing import chain_hash, hash_lines, hash_strings, stable_hash

#: bump whenever detector semantics change — it is part of every shard
#: key, so stale findings can never be served across engine revisions
#: ("2": finding payloads gained the provenance record; "3": the
#: columnar control plane — sync matching, clocks, and epochs rebuilt
#: over CallTable columns)
ENGINE_VERSION = "3"

_SHARDS = "shards"
_MANIFESTS = "manifests"


# ----------------------------------------------------------------- plan


@dataclass
class ShardPlan:
    """One contiguous group of regions with its content-addressed key."""

    index: int
    first: int  # first region index (inclusive)
    last: int   # last region index (inclusive)
    key: str = ""

    @property
    def n_regions(self) -> int:
        return self.last - self.first + 1


@dataclass
class CachePlan:
    """Everything the resolve/detect/persist phases need."""

    cfg_key: str
    registry_digest: str
    shards: List[ShardPlan]
    #: per-shard access-epoch work: shard index -> [(position, epoch)]
    shard_epochs: Dict[int, List[Tuple[int, Any]]]
    #: slice digests used this run (written into the new manifest)
    slices: Dict[str, str]
    #: per-rank whole-trace content digests
    ranks: Dict[int, str]
    #: previous manifest's shard keys by (first, last)
    prev_shard_keys: Dict[Tuple[int, int], str]


def _epoch_regions(regions, epoch) -> range:
    """Regions an epoch's detector inputs can occupy: its *interior*
    (``contains_seq`` is exclusive, so ops/locals/rows all have
    ``open_seq < seq < close_seq``; the boundary seqs are covered by the
    epoch canon in the shard key, not by slice digests)."""
    rng = regions.regions_of_span(
        Span(epoch.rank, epoch.open_seq + 1, epoch.close_seq - 1))
    if rng.start >= rng.stop:  # empty interior
        r = min(rng.start, len(regions) - 1)
        return range(r, r + 1)
    return rng


class _RowLoader:
    """Loads each rank's packed memory rows (and the string-table digest)
    at most once per run; a fully warm run never calls it."""

    def __init__(self, traces: TraceSet):
        self._traces = traces
        self._cache: Dict[int, Tuple[MemRows, str]] = {}

    def load(self, rank: int) -> Tuple[MemRows, str]:
        entry = self._cache.get(rank)
        if entry is None:
            with self._traces.reader(rank) as reader:
                blocks = list(reader.mem_blocks())
            rows = MemRows.from_blocks(rank, blocks)
            strings = hash_strings(
                rows.table.strings if rows.table is not None else [])
            entry = self._cache[rank] = (rows, strings)
        return entry

    def rows(self, rank: int) -> MemRows:
        return self.load(rank)[0]

    @property
    def ranks_loaded(self) -> int:
        return len(self._cache)


# ----------------------------------------------------- canonical digests


def _canon_match(match) -> str:
    """Canonical serialization of one synchronization match."""
    return json.dumps({
        "kind": match.kind, "fn": match.fn,
        "members": sorted(match.members.items()),
        "src": match.src, "dst": match.dst,
        "comm": match.comm_id, "win": match.win_id,
        "index": match.index,
        "exits": sorted(match.exits.items()),
    }, sort_keys=True, separators=(",", ":"))


def _canon_epoch(epoch) -> list:
    return [epoch.rank, epoch.win_id, epoch.kind, epoch.open_seq,
            epoch.close_seq, epoch.target, epoch.lock_type,
            list(epoch.group)]


def _registry_digest(pre) -> str:
    """Digest of the merged registries (windows, comms, datatypes).

    Registry-building calls can appear anywhere in a trace but affect
    lifted intervals everywhere, so this digest goes into *every* shard
    key: a changed ``Win_create`` argument soundly dirties everything.
    """
    windows = sorted(
        [win_id, info.comm_id,
         sorted(info.bases.items()), sorted(info.sizes.items()),
         sorted(info.disp_units.items()), sorted(info.var_names.items())]
        for win_id, info in pre.windows.items())
    comms = sorted([cid, list(members)]
                   for cid, members in pre.comms.items())
    datatypes = [
        [rank, sorted(
            [tid, dt.name, [list(seg) for seg in dt.datamap],
             dt.extent, dt.base or ""]
            for tid, dt in pre.datatypes[rank].items())]
        for rank in range(pre.nranks)]
    return stable_hash({"nranks": pre.nranks, "windows": windows,
                        "comms": comms, "datatypes": datatypes})


def _sync_fingerprints(control: ControlState) -> List[str]:
    """``fp[r]`` = rolling hash over matches whose minimum participant
    region is ``<= r`` (the prefix the soundness argument needs)."""
    regions = control.regions
    n = len(regions)
    buckets: List[List[str]] = [[] for _ in range(n)]
    for match in control.matches:
        parts = match.participants()
        if parts:
            r_min = min(regions.region_of_seq(rank, seq)
                        for rank, seq in parts)
        else:
            r_min = 0
        buckets[min(r_min, n - 1)].append(_canon_match(match))
    fps: List[str] = []
    running = "sync-fp-v1"
    for bucket in buckets:
        running = chain_hash(running, stable_hash(sorted(bucket)))
        fps.append(running)
    return fps


def _mem_slice_digest(rows: MemRows, strings_digest: str,
                      lo_seq: int, hi_seq: int) -> str:
    """Digest of the packed rows with ``lo_seq < seq < hi_seq``."""
    lo, hi = rows.row_range(lo_seq, hi_seq)
    digest = hashlib.sha256()
    digest.update(strings_digest.encode("ascii"))
    for col in (rows.seq, rows.addr, rows.size, rows.var, rows.loc,
                rows.access):
        digest.update(np.ascontiguousarray(col[lo:hi]).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------- the checker


class IncrementalChecker:
    """Cache-aware DN-Analyzer: control pass, plan, resolve, re-run only
    the dirty shards, merge byte-identically."""

    #: keys of ``CheckStats.phase_seconds`` (control-pass phases reuse
    #: the batch pipeline's names); a fast-path run records only
    #: ``digests`` and ``resolve``
    PHASES = ("digests", "resolve", "preprocess", "matching", "clocks",
              "epochs", "model", "regions", "plan", "detect", "merge")

    def __init__(self, traces: TraceSet, config: CheckConfig):
        if not config.incremental or not config.cache_dir:
            raise ValueError(
                "IncrementalChecker requires CheckConfig(incremental=True,"
                " cache_dir=...)")
        self.traces = traces
        self.config = config
        self.jobs = resolve_jobs(config.jobs)
        self.store = CacheStore(config.cache_dir)
        # populated by run(); public for tests
        self.control: Optional[ControlState] = None
        self.plan: Optional[CachePlan] = None
        self.dirty_shards: List[ShardPlan] = []
        #: the run's persistent worker pool, acquired lazily on first
        #: parallelizable phase and shared with every later one (the
        #: control pass *and* the dirty-shard recompute reuse it)
        self._pool = None

    def _get_pool(self):
        if self._pool is None:
            self._pool = acquire_pool(self.jobs)
            self._pool.begin_run()
        return self._pool

    def run(self) -> CheckReport:
        try:
            with obs.span("analyzer.run",
                          memory_model=self.config.memory_model,
                          incremental=True) as run_span:
                report = self._run_phases()
        finally:
            if self._pool is not None:
                self._pool.end_run()
        publish_report_obs(report, run_span.duration)
        return report

    # ------------------------------------------------------------------

    def _run_phases(self) -> CheckReport:
        stats = CheckStats()
        timings = stats.phase_seconds
        rec = obs.get_recorder()

        def timed(name, fn, **attrs):
            with rec.span(f"analyzer.{name}", **attrs) as sp:
                result = fn()
            timings[name] = timings.get(name, 0.0) + sp.duration
            return result

        whole = timed("digests", self._rank_digests)
        report = timed("resolve",
                       lambda: self._load_whole_report(whole, rec, stats))
        if report is not None:
            return report

        pool = (self._get_pool()
                if self.jobs > 1 and self.traces.nranks > 1 else None)
        control = self.control = build_control_state(self.traces, timed,
                                                     pool=pool)
        stats.nranks = control.pre.nranks
        stats.events = control.pre.total_events
        stats.sync_matches = len(control.matches)
        stats.epochs = len(control.epochs.epochs)
        stats.regions = len(control.regions)
        stats.rma_ops = len(control.call_model.ops)
        # the sweep model's MemRows hold exactly the instrumented rows,
        # so the batch pipeline's total is call-derived locals + mems
        stats.local_accesses = (len(control.call_model.local)
                                + control.total_mem_events)
        publish_control_plane_obs(control.pre, stats.phase_seconds)

        loader = _RowLoader(self.traces)
        plan = self.plan = timed(
            "plan", lambda: self._build_plan(control, whole, loader))

        cached, dirty = timed("resolve",
                              lambda: self._resolve(plan, rec))
        self.dirty_shards = dirty
        computed = timed(
            "detect", lambda: self._detect(control, plan, dirty, loader),
            shards=len(dirty), jobs=self.jobs)
        findings = timed("merge", lambda: self._merge(
            plan, cached, computed, stats))
        if rec.enabled:
            rec.gauge("incremental_ranks_loaded", loader.ranks_loaded,
                      help="Ranks whose memory rows were read this run")

        annotate_context(findings, engine=self.config.engine,
                         jobs=self.jobs, mode="incremental")
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        warnings = [f for f in findings if f.severity == SEVERITY_WARNING]
        return CheckReport(errors=errors, warnings=warnings, stats=stats)

    # -------------------------------------------------------- fast path

    def _cfg_key(self) -> str:
        return stable_hash({
            "kind": "incremental-manifest",
            "memory_model": self.config.memory_model,
            "engine": self.config.engine,
            "nranks": self.traces.nranks,
        })

    def _load_whole_report(self, whole: Dict[int, str], rec,
                           stats: CheckStats) -> Optional[CheckReport]:
        """Whole-report fast path: if every rank's full-trace content
        digest matches the manifest's (and the engine version is
        current), the stored deduplicated report *is* this run's report
        — identical inputs, identical output.  Any mismatch, decode
        error, or pre-fast-path manifest falls through to the shard
        path, which re-derives everything."""
        manifest, _status = self.store.load(_MANIFESTS, self._cfg_key())
        if manifest is None:
            return None
        try:
            if manifest.get("engine_version") != ENGINE_VERSION:
                return None
            ranks = {int(r): str(d)
                     for r, d in manifest["ranks"].items()}
            if ranks != whole:
                return None
            payload = manifest["report"]
            findings = [ConsistencyError.from_payload(p)
                        for p in payload["findings"]]
            for name in ("nranks", "events", "rma_ops", "local_accesses",
                         "sync_matches", "regions", "epochs"):
                setattr(stats, name, int(payload["stats"][name]))
            n_shards = len(manifest["shards"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        if rec.enabled:
            rec.count("incremental_cache_shards_total", n_shards,
                      outcome="hit",
                      help="Shard cache lookups by outcome")
            rec.count("incremental_regions_total", stats.regions,
                      state="clean",
                      help="Regions reused vs re-analyzed")
            rec.gauge("incremental_ranks_loaded", 0,
                      help="Ranks whose memory rows were read this run")
        annotate_context(findings, engine=self.config.engine,
                         jobs=self.jobs, mode="incremental",
                         cache="manifest")
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        warnings = [f for f in findings
                    if f.severity == SEVERITY_WARNING]
        return CheckReport(errors=errors, warnings=warnings, stats=stats)

    # ------------------------------------------------------------- plan

    def _rank_digests(self) -> Dict[int, str]:
        whole: Dict[int, str] = {}
        for rank in range(self.traces.nranks):
            with self.traces.reader(rank) as reader:
                whole[rank] = reader.content_digest()
        return whole

    def _group_regions(self, control: ControlState) -> List[Tuple[int, int]]:
        """Maximal contiguous region groups closed under every epoch, op,
        and local-access span."""
        regions = control.regions
        n = len(regions)
        merge = [False] * max(n - 1, 0)

        def mark(hit: range) -> None:
            for i in range(hit.start, hit.stop - 1):
                merge[i] = True

        for epoch in control.epochs.epochs:
            mark(_epoch_regions(regions, epoch))
        for op in control.call_model.ops:
            mark(regions.regions_of_span(op.span))
        for la in control.call_model.local:
            mark(regions.regions_of_span(la.span))

        groups: List[Tuple[int, int]] = []
        start = 0
        for i in range(n - 1):
            if not merge[i]:
                groups.append((start, i))
                start = i + 1
        groups.append((start, n - 1))
        return groups

    def _build_plan(self, control: ControlState, whole: Dict[int, str],
                    loader: _RowLoader) -> CachePlan:
        pre = control.pre
        regions = control.regions
        cfg_key = self._cfg_key()
        manifest, _status = self.store.load(_MANIFESTS, cfg_key)
        prev_ranks: Dict[int, str] = {}
        prev_slices: Dict[str, str] = {}
        prev_shard_keys: Dict[Tuple[int, int], str] = {}
        if manifest is not None:
            try:
                prev_ranks = {int(r): str(d) for r, d in
                              manifest.get("ranks", {}).items()}
                prev_slices = {str(k): str(v) for k, v in
                               manifest.get("slices", {}).items()}
                prev_shard_keys = {
                    (int(s["regions"][0]), int(s["regions"][1])):
                        str(s["key"])
                    for s in manifest.get("shards", [])}
            except (KeyError, TypeError, ValueError, AttributeError):
                prev_ranks, prev_slices, prev_shard_keys = {}, {}, {}

        groups = self._group_regions(control)
        shards = [ShardPlan(index=i, first=first, last=last)
                  for i, (first, last) in enumerate(groups)]
        shard_of_region: Dict[int, int] = {}
        for shard in shards:
            for r in range(shard.first, shard.last + 1):
                shard_of_region[r] = shard.index

        # epoch structure per shard: every epoch (access and exposure)
        # enters the key canon; access epochs with ops become intra units
        epoch_canon: Dict[int, list] = {s.index: [] for s in shards}
        for epoch in control.epochs.epochs:
            s = shard_of_region[_epoch_regions(regions, epoch).start]
            epoch_canon[s].append(_canon_epoch(epoch))
        shard_epochs: Dict[int, List[Tuple[int, Any]]] = {
            s.index: [] for s in shards}
        for pos, epoch in enumerate(control.epochs.access_epochs()):
            if not control.ops_by_epoch.get(id(epoch)):
                continue
            s = shard_of_region[_epoch_regions(regions, epoch).start]
            shard_epochs[s].append((pos, epoch))

        registry = _registry_digest(pre)
        fps = _sync_fingerprints(control)

        # per-rank call-event seq arrays for slice digests (the table's
        # seq column is the same sequence, already packed)
        tables = getattr(pre, "call_tables", None)
        call_seqs: Dict[int, List[int]] = {
            rank: (tables[rank].seq.tolist() if tables is not None
                   else [e.seq for e in pre.events[rank]])
            for rank in range(pre.nranks)}

        slices: Dict[str, str] = {}

        def mem_digest(rank: int, lo: int, hi: int) -> str:
            key = f"{rank}:{lo}:{hi}"
            cached = slices.get(key)
            if cached is not None:
                return cached
            if whole.get(rank) == prev_ranks.get(rank) and \
                    key in prev_slices:
                # the rank's file is byte-identical to the manifest's,
                # so its recorded slice digest is still valid — no
                # memory I/O on the warm path
                digest = prev_slices[key]
            else:
                rows, strings_digest = loader.load(rank)
                digest = _mem_slice_digest(rows, strings_digest, lo, hi)
            slices[key] = digest
            return digest

        for shard in shards:
            bounds = {}
            calls = {}
            mems = {}
            for rank in range(pre.nranks):
                lo = regions.regions[shard.first].bounds[rank][0]
                hi = regions.regions[shard.last].bounds[rank][1]
                bounds[rank] = [
                    list(regions.regions[r].bounds[rank])
                    for r in range(shard.first, shard.last + 1)]
                seqs = call_seqs[rank]
                i = bisect_right(seqs, lo)
                j = bisect_right(seqs, hi)
                calls[rank] = hash_lines(
                    e.encode() for e in pre.events[rank][i:j])
                mems[rank] = mem_digest(rank, lo, hi)
            shard.key = stable_hash({
                "kind": "incremental-shard",
                "engine_version": ENGINE_VERSION,
                "memory_model": self.config.memory_model,
                "engine": self.config.engine,
                "nranks": pre.nranks,
                "registry": registry,
                "sync": fps[shard.last],
                "regions": [shard.first, shard.last],
                "bounds": [[rank, bounds[rank]]
                           for rank in range(pre.nranks)],
                "epochs": epoch_canon[shard.index],
                "calls": [[rank, calls[rank]]
                          for rank in range(pre.nranks)],
                "mems": [[rank, mems[rank]]
                         for rank in range(pre.nranks)],
            })

        return CachePlan(cfg_key=cfg_key, registry_digest=registry,
                         shards=shards, shard_epochs=shard_epochs,
                         slices=slices, ranks=whole,
                         prev_shard_keys=prev_shard_keys)

    # ---------------------------------------------------------- resolve

    def _resolve(self, plan: CachePlan, rec):
        """Split shards into cache hits (decoded findings) and dirty."""
        cached: Dict[int, Tuple[list, list]] = {}
        dirty: List[ShardPlan] = []
        for shard in plan.shards:
            payload, status = self.store.load(_SHARDS, shard.key)
            decoded = None
            if status == HIT:
                try:
                    decoded = _decode_shard_payload(payload)
                except (KeyError, TypeError, ValueError, AttributeError):
                    decoded = None
                    status = CORRUPT
            if decoded is not None:
                _annotate_decoded(decoded, shard.index, "hit")
                cached[shard.index] = decoded
                outcome = "hit"
            else:
                dirty.append(shard)
                if status == CORRUPT:
                    outcome = "corrupt"
                else:
                    prev = plan.prev_shard_keys.get(
                        (shard.first, shard.last))
                    outcome = ("invalidated"
                               if prev is not None and prev != shard.key
                               else "miss")
            if rec.enabled:
                rec.count("incremental_cache_shards_total", 1,
                          outcome=outcome,
                          help="Shard cache lookups by outcome")
                rec.count("incremental_regions_total", shard.n_regions,
                          state="clean" if outcome == "hit" else "dirty",
                          help="Regions reused vs re-analyzed")
                rec.count("incremental_shard_regions", shard.n_regions,
                          shard=str(shard.index), outcome=outcome,
                          help="Per-shard region counts by cache outcome")
        return cached, dirty

    # ----------------------------------------------------------- detect

    def _shard_unit(self, control: ControlState, plan: CachePlan,
                    shard: ShardPlan,
                    plain_by_rank: Dict[int, List]) -> Dict[str, list]:
        """Describe one dirty shard's detector inputs: the kernels'
        epoch and region units, tagged with the epoch position / region
        index the merge orders by.

        Memory rows are named by seq bounds only — the serial path
        resolves them through the loader, the parallel path through the
        shared segments — so a unit pickles without row data."""
        epochs = [
            (pos, (epoch, control.ops_by_epoch[id(epoch)],
                   control.attached_by_epoch.get(id(epoch), []),
                   [la for la in plain_by_rank.get(epoch.rank, ())
                    if epoch.contains_seq(la.seq)]))
            for pos, epoch in plan.shard_epochs[shard.index]]
        regions = [
            (r, (control.ops_by_region[r],
                 control.call_locals_by_region.get(r, []),
                 control.regions.regions[r].bounds))
            for r in range(shard.first, shard.last + 1)
            if control.ops_by_region.get(r)]
        return {"epochs": epochs, "regions": regions}

    def _detect(self, control: ControlState, plan: CachePlan,
                dirty: List[ShardPlan], loader: _RowLoader
                ) -> Dict[int, Tuple[list, list]]:
        if not dirty:
            return {}
        plain_by_rank: Dict[int, List] = {}
        for la in control.call_model.local:
            if la.origin_of is None:
                plain_by_rank.setdefault(la.rank, []).append(la)
        units = [self._shard_unit(control, plan, shard, plain_by_rank)
                 for shard in dirty]
        # the only rows the kernels read: epoch ranks and op targets
        needed = sorted(
            {unit[0].rank for shard in units for _pos, unit in shard["epochs"]}
            | {op.target for shard in units
               for _r, unit in shard["regions"] for op in unit[0]})
        context = (control.oracle, control.lock_index,
                   self.config.memory_model)
        if self.jobs > 1 and len(units) > 1:
            # publish the needed ranks' rows as shared segments (reusing
            # the run's pool — the same workers that ran the control
            # scan) and ship each chunk of shards once, to one worker,
            # as a task argument; the rows themselves never cross the pipe
            pool = self._get_pool()
            descs = {}
            for rank in needed:
                name = pool.new_segment_name(rank)
                pool.expect_segment(name)
                desc, handle = share_rows(loader.rows(rank), name)
                if handle is not None:
                    pool.adopt_segment(name, handle)
                    obs.count("parallel_shm_bytes_total", handle.size,
                              phase="incremental",
                              help="Bytes published to shared MemRows "
                                   "segments, by phase")
                descs[rank] = desc
            # shard compute only resolves windows through ``pre``; the
            # registries-only view keeps the install pickle small
            pool.install("incremental", {
                "pre": control.pre.registry_view(), "context": context,
                "mems_shm": descs, "obs": obs.is_enabled()})
            payloads = []
            for chunk_payloads, export in pool.run(
                    "incremental", "incremental_shards",
                    [units[lo:hi] for lo, hi in
                     _chunk_bounds(len(units), self.jobs)]):
                absorb_export(export)
                payloads.extend(chunk_payloads)
        else:
            payloads = _compute_shards(
                units, control.pre, context,
                {rank: loader.rows(rank) for rank in needed})

        computed: Dict[int, Tuple[list, list]] = {}
        for shard, (intra, inter) in zip(dirty, payloads):
            # persist *before* the merge: dedupe mutates occurrence
            # counters on the very objects the payload describes
            self.store.store(_SHARDS, shard.key, {
                "regions": [shard.first, shard.last],
                "intra": intra, "inter": inter})
            decoded = _decode_shard_payload(
                {"intra": intra, "inter": inter})
            _annotate_decoded(decoded, shard.index, "computed")
            computed[shard.index] = decoded
        return computed

    # ------------------------------------------------------------ merge

    def _merge(self, plan: CachePlan,
               cached: Dict[int, Tuple[list, list]],
               computed: Dict[int, Tuple[list, list]],
               stats: CheckStats) -> List[ConsistencyError]:
        intra_by_pos: Dict[int, List[ConsistencyError]] = {}
        inter_by_region: Dict[int, List[ConsistencyError]] = {}
        for source in (cached, computed):
            for intra, inter in source.values():
                for pos, findings in intra:
                    intra_by_pos[pos] = findings
                for r, findings in inter:
                    inter_by_region[r] = findings
        # cold concatenation order: intra findings in epoch-index order,
        # then inter findings in region order — the pre-sort list order
        # decides each duplicate group's surviving representative
        findings: List[ConsistencyError] = []
        for pos in sorted(intra_by_pos):
            findings.extend(intra_by_pos[pos])
        for r in sorted(inter_by_region):
            findings.extend(inter_by_region[r])
        findings = dedupe(sort_findings(findings))

        self.store.store(_MANIFESTS, plan.cfg_key, {
            "version": 1,
            "engine_version": ENGINE_VERSION,
            "memory_model": self.config.memory_model,
            "engine": self.config.engine,
            "nranks": self.traces.nranks,
            "registry": plan.registry_digest,
            "ranks": {str(r): d for r, d in plan.ranks.items()},
            "slices": plan.slices,
            "shards": [{"regions": [s.first, s.last], "key": s.key}
                       for s in plan.shards],
            # the finished report, serialized *after* dedupe so the
            # fast path serves final occurrence counts
            "report": {
                "findings": [f.to_payload() for f in findings],
                "stats": {
                    "nranks": stats.nranks, "events": stats.events,
                    "rma_ops": stats.rma_ops,
                    "local_accesses": stats.local_accesses,
                    "sync_matches": stats.sync_matches,
                    "regions": stats.regions, "epochs": stats.epochs,
                },
            },
        })
        return findings


# ------------------------------------------------------- shard compute


def _compute_shards(shards: List[Dict[str, list]], pre, context: tuple,
                    mems: Dict[int, MemRows]) -> List[Tuple[list, list]]:
    """Run each sweep kernel once over every unit of ``shards`` and
    split the per-unit findings back into one ``(intra, inter)`` payload
    per shard; findings are serialized immediately (raw detector output
    always has ``occurrences == 1``).

    ``context`` is ``(oracle, lock_index, memory_model)``; ``mems`` maps
    the ranks the units read to their full :class:`MemRows` — from the
    row-loader in the serial path, the attached shared segments in a
    pool worker."""
    intra = iter(check_epochs_sweep(
        [unit for shard in shards for _pos, unit in shard["epochs"]],
        mems, context[2]))
    inter = iter(detect_regions_sweep(
        pre, [unit for shard in shards for _r, unit in shard["regions"]],
        mems, *context))
    return [([[pos, [f.to_payload() for f in next(intra)]]
              for pos, _unit in shard["epochs"]],
             [[r, [f.to_payload() for f in next(inter)]]
              for r, _unit in shard["regions"]])
            for shard in shards]


@_pool_task("incremental_shards")
def _shards_task(shards: List[Dict[str, list]]):
    """Worker-pool task: compute one chunk of dirty shards (shipped as
    the task argument) against installed control state and shared row
    segments."""
    rec = _task_recorder()
    with rec.span("analyzer.incremental.shard", shards=len(shards),
                  pid=os.getpid()):
        payloads = _compute_shards(
            shards, _WORKER["pre"], _WORKER["context"],
            {rank: worker_rows(desc)
             for rank, desc in _WORKER["mems_shm"].items()})
    rec.count("parallel_tasks_total", phase="incremental")
    return payloads, _export(rec)


def _annotate_decoded(decoded: Tuple[list, list], shard_index: int,
                      cache_status: str) -> None:
    """Stamp one shard's findings with how the cache resolved them."""
    intra, inter = decoded
    for _pos, findings in intra:
        annotate_context(findings, cache=cache_status, shard=shard_index)
    for _r, findings in inter:
        annotate_context(findings, cache=cache_status, shard=shard_index)


def _decode_shard_payload(payload: dict) -> Tuple[list, list]:
    """Payload -> ``(intra, inter)`` finding lists; raises on any shape
    mismatch (the caller treats that as a corrupt entry)."""
    intra = [(int(pos), [ConsistencyError.from_payload(p) for p in items])
             for pos, items in payload["intra"]]
    inter = [(int(r), [ConsistencyError.from_payload(p) for p in items])
             for r, items in payload["inter"]]
    return intra, inter


def check_incremental(traces: TraceSet, config: CheckConfig) -> CheckReport:
    """Entry point used by :func:`repro.core.checker.check_traces`."""
    return IncrementalChecker(traces, config).run()
