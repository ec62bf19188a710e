"""Incremental checking with a content-addressed result cache.

MC-Checker's workflow is profile-then-analyze, and the same trace set is
typically analyzed many times — after a re-run that perturbed only a few
ranks, while bisecting with ``minimize``, or under CI.  This module makes
the warm path cheap: findings are cached per *shard* (a group of
concurrent regions) under a key derived purely from the shard's inputs,
so a warm ``check`` re-runs the sweep detectors only for shards whose
inputs changed and merges cached and fresh findings into a report that is
byte-identical to a cold run.

It is a memoising policy over the batch pipeline, not a second one: the
control pass is :func:`~repro.core.streaming.build_control_state` (the
batch phases over call events, the columnar
:class:`~repro.core.model.CallLift` as its model), the detectors are the
batch sweep kernels, and the shard plan is built from arrays
(:class:`CallTable` seqs, ``RegionIndex.cuts``, ``EpochIndex.columns()``,
the lift's spans) in one pass per rank.  Only *dirty* shards pay for a
re-analysis: their calls alone are lifted to views, and memory rows
become kernel columns only for the ranks they read.

Two cache levels stack:

* **the whole-report fast path** — the run manifest records every
  rank's full-trace content digest alongside the finished (deduplicated)
  report.  When all digests and the engine version match, the stored
  report is served outright: identical inputs produce identical output,
  so even the control pass is skipped and a fully warm run costs little
  more than reading the trace trailers;
* **the per-shard cache** — when any rank changed, the control pass
  re-runs (invalidation soundness is decided fresh, never cached) and
  only the shards whose content keys moved are re-analyzed.  The manifest
  (read once per run) holds every shard key of the run that wrote it and
  which of them had findings, so a clean shard without findings — in a
  race-free program, every one — is served from memory; the shard store,
  one file per key, is read only for the shards that had findings and
  for keys the manifest does not hold (an older run's shards).

How the cache key covers every detector input
---------------------------------------------

A shard's findings are produced by the sweep kernels
:func:`check_epochs_sweep` (its access epochs) and
:func:`detect_regions_sweep` (its regions), which return findings *per
unit* — so all dirty shards of a run (or of a pool chunk) go through one
kernel call and are split back into per-shard payloads.  A key is one
SHA-256 (:func:`~repro.util.hashing.hash_ranges`, every piece
length-prefixed) over a run-wide prefix and the shard's own bytes:

* **the shard's calls** — ops, attached/plain call-derived locals, and
  epoch structure all lift from call events.  Covered, per rank, by the
  *slice digest*: the canonical encoding of the call events with ``lo <
  seq <= hi`` (inclusive upper bound: the global cut that *closes* a
  region maps to that region via :meth:`RegionIndex.region_of_seq`, and
  its buffer arguments feed that region's locals);
* **the shard's memory rows** — the slice digest continues over the
  packed rows with ``lo < seq < hi`` and starts from the rank's
  string-table digest (``var``/``loc`` ids are table-relative).  The key
  holds one slice digest per rank; the manifest records them with their
  bounds, and a rank whose file is byte-identical to the one it describes
  reuses them — its calls are not encoded, its rows not read;
* **region and epoch structure** — the first and last region index and
  every bound of every region in between (rows of the cut matrix); every
  epoch (access or exposure), grouped into the shard holding its
  interior (see below), as a row of numbers plus its PSCW group — which
  also covers the lock index (a pure function of the epoch list);
* **the registries** — window bases/sizes, communicators, and datatypes
  may be created by calls *anywhere* in the trace but affect lifted
  intervals everywhere, so one global registry digest is in the prefix
  of every key;
* **happens-before verdicts** — covered by the synchronization prefix
  fingerprint of the shard's last region, below;
* **memory model / engine semantics** — literal config fields plus
  :data:`ENGINE_VERSION` in the prefix; bump it whenever detector
  semantics or this key layout change.

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
key through the epoch rows.  Grouping by the full span instead would
chain-merge every fence-delimited region (consecutive fence epochs share
their boundary cut) into one shard and destroy all reuse.  An epoch left
open to the end of the trace merges everything from its opening region
onward — coarse, but sound.  Within a shard, findings are stored keyed
by the epoch's position among the shard's epochs / the region's offset
in the shard — both fixed by the key, unlike a trace-wide position — so
the global merge can reproduce the cold pipeline's concatenation order
exactly; ``dedupe`` then runs once, in the parent, on the merged list —
and because ``dedupe`` mutates its survivors' occurrence counters in
place, shard payloads are always serialized *before* the merge.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.calltable import ensure_call_tables
from repro.core.checker import (
    CheckReport, CheckStats, publish_control_plane_obs, publish_report_obs,
)
from repro.core.config import CheckConfig
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, annotate_context,
    dedupe, sort_findings,
)
from repro.core.engine import check_epochs_sweep, detect_regions_sweep
from repro.core.inter import bucket_by_region
from repro.core.intra import bucket_by_epoch
from repro.core.model import MemRows, check_address_columns, share_rows
from repro.core.parallel import (
    _WORKER, _chunk_bounds, _export, _pool_task, _task_recorder,
    absorb_export, acquire_pool, resolve_jobs, worker_rows,
)
from repro.core.streaming import ControlState, build_control_state
from repro.profiler.tracer import MEM_DTYPE, TraceSet
from repro.util.cachestore import CORRUPT, HIT, CacheStore
from repro.util.hashing import hash_ranges, hash_strings, stable_hash
from repro.util.intervals import expand_ranges

#: bump whenever detector semantics or the key layout change — it is part
#: of every shard key, so stale findings can never be served across
#: engine revisions ("2": finding payloads gained the provenance record;
#: "3": call-table control phases; "4": array-built keys, findings keyed
#: by shard-local position, checksummed store entries; "5": binary
#: traces v3 — the ``calls`` digest is per column)
ENGINE_VERSION = "5"
MANIFEST_VERSION = 2

_SHARDS = "shards"
_MANIFESTS = "manifests"
_STATS = ("nranks", "events", "rma_ops", "local_accesses", "sync_matches",
          "regions", "epochs")
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError)
#: what a shard without findings stores
_NOTHING = {"intra": [], "inter": []}
#: one rank's slice of one shard: its calls have ``lo < seq <= hi``, its
#: memory rows ``lo < seq < hi``, and ``digest`` covers both
_SLICE = np.dtype([("lo", "<i8"), ("hi", "<i8"), ("digest", "u1", (32,))])


# ----------------------------------------------------------------- plan


@dataclass
class CachePlan:
    """The shards of one run as parallel arrays (one entry per shard
    unless noted), plus everything the next run's manifest records."""

    #: first / last region index (inclusive)
    first: np.ndarray
    last: np.ndarray
    #: epoch indices grouped by shard, in index order within one, and the
    #: ``n_shards + 1`` offsets of the groups
    epoch_ids: np.ndarray
    epoch_start: np.ndarray
    #: ``(nranks, n_shards)`` :data:`_SLICE` records
    slices: np.ndarray
    keys: List[str]
    #: per-rank whole-trace content digests
    ranks: Dict[int, str]

    def sizes(self, shard: int) -> Tuple[int, int]:
        """How many epochs and regions the shard holds."""
        return (int(self.epoch_start[shard + 1] - self.epoch_start[shard]),
                int(self.last[shard] - self.first[shard]) + 1)


@dataclass
class _Manifest:
    """The previous run's record, decoded once.  ``current`` is false
    for another engine revision's: only ``spans`` is filled then."""

    #: (first, last) region span -> shard key
    spans: Dict[Tuple[int, int], str]
    current: bool
    ranks: Dict[int, str] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    #: keys of the shards that had findings (stored under the key)
    found: frozenset = frozenset()
    #: rank -> its :data:`_SLICE` records, one per shard
    slices: Dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def load(cls, store: CacheStore, cfg_key: str) -> Optional["_Manifest"]:
        """``None`` for a missing, corrupt, or mis-shaped manifest — the
        run then re-derives everything and writes a fresh one."""
        payload, _status = store.load(_MANIFESTS, cfg_key)
        if payload is None:
            return None
        try:
            shards = payload["shards"]
            spans = {(int(first), int(last)): str(key) for first, last, key
                     in zip(shards["first"], shards["last"], shards["keys"])}
            manifest = cls(spans, current=(
                payload["engine_version"] == ENGINE_VERSION
                and payload["version"] == MANIFEST_VERSION
                and len(spans) == len(shards["keys"])))
            if manifest.current:
                manifest.ranks = {int(r): str(d)
                                  for r, d in payload["ranks"].items()}
                manifest.report = dict(payload["report"])
                manifest.found = frozenset(shards["found"])
                manifest.slices = {
                    int(rank): np.frombuffer(base64.b64decode(table),
                                             dtype=_SLICE)
                    for rank, table in payload["slices"].items()}
        except _DECODE_ERRORS:
            return None
        return manifest


class _RowLoader:
    """Reads each rank's packed memory rows at most once per run — as one
    struct array for the slice digests, as :class:`MemRows` columns for
    the kernels — and counts them; a fully warm run never calls it."""

    def __init__(self, traces: TraceSet):
        self._traces = traces
        #: rank -> [struct array (until the columns replace it), string
        #: table, string-table digest]
        self._packed: Dict[int, list] = {}
        self._rows: Dict[int, MemRows] = {}
        self.rows_loaded = 0

    def packed(self, rank: int) -> list:
        entry = self._packed.get(rank)
        if entry is None:
            with self._traces.reader(rank) as reader:
                blocks = list(reader.mem_blocks())
                # concatenate copies, which detaches the rows from the map
                rows = (np.concatenate([block.array for block in blocks])
                        if blocks else np.empty(0, dtype=MEM_DTYPE))
            check_address_columns(rank, rows["seq"], rows["addr"],
                                  rows["size"])
            table = blocks[0].table if blocks else None
            entry = self._packed[rank] = [rows, table, hash_strings(
                table.strings if table is not None else [])]
            self.rows_loaded += len(rows)
        return entry

    def rows(self, rank: int) -> MemRows:
        rows = self._rows.get(rank)
        if rows is None:
            entry = self.packed(rank)
            rows = self._rows[rank] = MemRows.from_struct(rank, entry[1],
                                                          entry[0])
            entry[0] = None
        return rows

    @property
    def ranks(self) -> List[int]:
        return sorted(self._packed)


# ----------------------------------------------------- canonical digests


def _encode_calls(events) -> Tuple[bytes, np.ndarray]:
    """One rank's call events in canonical form, back to back, and the
    ``n + 1`` byte offsets of the events in it.  A ``repr`` of ints,
    strings and tuples of them parses back to the values it was made
    from, so two different slices of events never share bytes."""
    chunks = [repr((e.seq, e.fn, e.args, e.loc.filename, e.loc.lineno,
                    e.loc.function)).encode("utf-8") for e in events]
    at = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum([len(chunk) for chunk in chunks], out=at[1:])
    return b"".join(chunks), at


def _registry_digest(pre) -> str:
    """Digest of the merged registries (windows, comms, datatypes).
    Registry-building calls can appear anywhere in a trace but affect
    lifted intervals everywhere, so this digest goes into *every* shard
    key: a changed ``Win_create`` argument soundly dirties everything."""
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


def _sync_fingerprints(control: ControlState) -> np.ndarray:
    """``fp[r]`` (32 bytes each) = rolling hash over matches whose
    minimum participant region is ``<= r`` (the prefix the soundness
    argument needs)."""
    regions = control.regions
    n, nranks = len(regions), control.pre.nranks
    buckets: List[List[bytes]] = [[] for _ in range(n)]
    for match in control.matches:
        if match.is_global(nranks):  # a cut: one region at every rank
            r_min = regions.region_of_seq(0, match.members[0])
        else:
            r_min = min((regions.region_of_seq(rank, seq)
                         for rank, seq in match.participants()), default=0)
        buckets[min(r_min, n - 1)].append(repr((
            match.kind, match.fn, sorted(match.members.items()), match.src,
            match.dst, match.comm_id, match.win_id, match.index,
            sorted(match.exits.items()))).encode("utf-8"))
    fps = []
    running = b"sync-fp-v2"
    for bucket in buckets:
        link = hashlib.sha256(running)
        for canon in sorted(bucket):
            link.update(b"%d:" % len(canon))
            link.update(canon)
        running = link.digest()
        fps.append(running)
    return np.frombuffer(b"".join(fps), dtype=np.uint8).reshape(n, 32)


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
        self.loader = _RowLoader(traces)
        #: indices (into the plan's arrays) of the shards re-analyzed
        self.dirty_shards: List[int] = []
        self._shard_files_read = 0
        #: the run's persistent worker pool, acquired lazily and shared
        #: by the control pass *and* the dirty-shard recompute
        self._pool = None

    def work(self) -> Dict[str, int]:
        """What the run did beyond the control pass, in exact counts:
        calls lifted to views, shard-store entries it tried to read, and
        memory rows read from the traces."""
        return {"calls_lifted": self.control.lift.lifted if self.control
                else 0, "shard_files_read": self._shard_files_read,
                "rows_loaded": self.loader.rows_loaded}

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
        manifest = timed("resolve", lambda: _Manifest.load(
            self.store, self._cfg_key()))
        findings = timed("resolve", lambda: self._whole_report(
            manifest, whole, rec, stats))
        if findings is None:
            findings = self._shard_path(manifest, whole, timed, rec, stats)
        if rec.enabled:
            for name, value in self.work().items():
                rec.count(f"incremental_{name}_total", value,
                          help="Work of an incremental run beyond its "
                               "control pass (IncrementalChecker.work)")
            rec.gauge("incremental_ranks_loaded", len(self.loader.ranks),
                      help="Ranks whose memory rows were read this run")
        annotate_context(findings, jobs=self.jobs, mode="incremental")
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        warnings = [f for f in findings if f.severity == SEVERITY_WARNING]
        return CheckReport(errors=errors, warnings=warnings, stats=stats)

    def _shard_path(self, manifest, whole, timed, rec,
                    stats: CheckStats) -> List[ConsistencyError]:
        pool = (self._get_pool()
                if self.jobs > 1 and self.traces.nranks > 1 else None)
        control = self.control = build_control_state(self.traces, timed,
                                                     pool=pool)
        for name, value in control.sizes().items():
            setattr(stats, name, value)
        publish_control_plane_obs(control.pre, stats.phase_seconds)
        plan = self.plan = timed(
            "plan", lambda: self._build_plan(control, whole, manifest))
        resolved, dirty = timed(
            "resolve", lambda: self._resolve(plan, manifest, rec))
        self.dirty_shards = dirty
        resolved.update(timed(
            "detect", lambda: self._detect(control, plan, dirty),
            shards=len(dirty), jobs=self.jobs))
        return timed("merge", lambda: self._merge(plan, resolved, stats))

    def _cfg_key(self) -> str:
        # "engine" is part of the key format (manifest file names)
        return stable_hash({"kind": "incremental-manifest",
                            "memory_model": self.config.memory_model,
                            "engine": "sweep",
                            "nranks": self.traces.nranks})

    def _rank_digests(self) -> Dict[int, str]:
        whole: Dict[int, str] = {}
        for rank in range(self.traces.nranks):
            with self.traces.reader(rank) as reader:
                whole[rank] = reader.content_digest()
        return whole

    def _whole_report(self, manifest: Optional[_Manifest],
                      whole: Dict[int, str], rec, stats: CheckStats
                      ) -> Optional[List[ConsistencyError]]:
        """Whole-report fast path: if every rank's full-trace content
        digest matches the manifest's (and the engine version is
        current), the stored deduplicated report *is* this run's report.
        Any mismatch or decode error falls through to the shard path."""
        if manifest is None or not manifest.current \
                or manifest.ranks != whole:
            return None
        try:
            findings = [ConsistencyError.from_payload(p)
                        for p in manifest.report["findings"]]
            sizes = {name: manifest.report["stats"][name]
                     for name in _STATS}
            if any(type(value) is not int for value in sizes.values()):
                return None
        except _DECODE_ERRORS:
            return None
        for name, value in sizes.items():
            setattr(stats, name, value)
        if rec.enabled:
            rec.count("incremental_cache_shards_total", len(manifest.spans),
                      outcome="hit", help="Shard cache lookups by outcome")
            rec.count("incremental_regions_total", stats.regions,
                      state="clean", help="Regions reused vs re-analyzed")
        return annotate_context(findings, cache="manifest")

    # ------------------------------------------------------------- plan

    def _build_plan(self, control: ControlState, whole: Dict[int, str],
                    manifest: Optional[_Manifest]) -> CachePlan:
        pre, regions, lift = control.pre, control.regions, control.lift
        nranks, n = pre.nranks, len(regions)
        epochs = control.epochs.columns()

        # group: regions i and i+1 share a shard when an epoch interior
        # or a call span reaches over both; an epoch's home is the first
        # region of its interior
        home = np.empty(len(epochs.rank), dtype=np.int64)
        cover = np.zeros(n + 1, dtype=np.int64)
        for rank in range(nranks):
            mine = np.nonzero(epochs.rank == rank)[0]
            first, last = regions.regions_of_spans(
                rank,
                np.concatenate([epochs.open_seq[mine] + 1, lift.seq[rank]]),
                np.concatenate([epochs.close_seq[mine] - 1, lift.end[rank]]))
            home[mine] = first[:len(mine)]
            over = first < last
            cover += (np.bincount(first[over], minlength=n + 1)
                      - np.bincount(last[over], minlength=n + 1))
        breaks = np.nonzero(np.cumsum(cover)[:n - 1] <= 0)[0]
        first = np.concatenate([[0], breaks + 1])
        last = np.concatenate([breaks, [n - 1]])
        n_shards = len(first)
        shard_of_region = np.repeat(np.arange(n_shards), last - first + 1)
        epoch_shard = shard_of_region[np.minimum(home, n - 1)]
        epoch_ids = np.argsort(epoch_shard, kind="stable")
        epoch_start = np.concatenate([[0], np.cumsum(
            np.bincount(epoch_shard, minlength=n_shards))])

        # row r of ``bounds`` is region r's lo at every rank, row r + 1
        # its hi
        bounds = np.vstack([np.full((1, nranks), -1), regions.cuts.T,
                            np.full((1, nranks), 1 << 62)])
        slices = np.stack([
            self._slice_digests(
                control, rank, bounds[first, rank], bounds[last + 1, rank],
                manifest.slices.get(rank) if manifest is not None
                and manifest.ranks.get(rank) == whole[rank] else None)
            for rank in range(nranks)])

        # "engine" is part of the key format: dropping it would rename
        # every shard file and send existing caches cold
        prefix = json.dumps({
            "kind": "incremental-shard", "engine_version": ENGINE_VERSION,
            "memory_model": self.config.memory_model,
            "engine": "sweep", "nranks": nranks,
            "registry": _registry_digest(pre),
            "lock_types": epochs.lock_types}, sort_keys=True)
        head = np.concatenate([
            np.stack([first, last], axis=1).view(np.uint8),
            _sync_fingerprints(control)[last],
            slices["digest"].transpose(1, 0, 2).reshape(n_shards, -1)],
            axis=1)
        canon = np.stack(epochs[:8], axis=1)[epoch_ids]
        group_len = epochs.group_len[epoch_ids]
        groups = epochs.group_val[expand_ranges(
            (np.cumsum(epochs.group_len) - epochs.group_len)[epoch_ids],
            group_len)[1]]
        group_at = np.concatenate([[0], np.cumsum(group_len)])[epoch_start]
        each = np.arange(n_shards + 1)
        keys = hash_ranges(prefix.encode("utf-8"), [
            (head.reshape(-1), each[:-1] * head.shape[1],
             each[1:] * head.shape[1]),
            (bounds.reshape(-1), first * nranks * 8,
             (last + 2) * nranks * 8),
            (canon.reshape(-1), epoch_start[:-1] * 64, epoch_start[1:] * 64),
            (groups, group_at[:-1] * 8, group_at[1:] * 8)])
        return CachePlan(
            first=first, last=last, epoch_ids=epoch_ids,
            epoch_start=epoch_start, slices=slices,
            keys=[key.hex() for key in keys], ranks=whole)

    def _slice_digests(self, control: ControlState, rank: int,
                       lo: np.ndarray, hi: np.ndarray,
                       known: Optional[np.ndarray]) -> np.ndarray:
        """One rank's :data:`_SLICE` records for the shards' ``lo``/``hi``
        bounds.  ``known`` is the manifest's table when the rank's file
        is byte-identical to the one it describes: slices with recorded
        bounds keep their digest, and only the others are hashed — which
        takes the rank's call events and memory rows."""
        table = np.zeros(len(lo), dtype=_SLICE)
        table["lo"], table["hi"] = lo, hi
        todo = np.ones(len(lo), dtype=bool)
        if known is not None and len(known):
            at = np.minimum(np.searchsorted(known["lo"], lo), len(known) - 1)
            todo = (known["lo"][at] != lo) | (known["hi"][at] != hi)
            table["digest"][~todo] = known["digest"][at[~todo]]
        if todo.any():
            lo, hi = lo[todo], hi[todo]
            seq = ensure_call_tables(control.pre)[rank].seq
            calls, call_at = _encode_calls(control.pre.events[rank])
            rows, _table, strings = self.loader.packed(rank)
            row_seq = np.ascontiguousarray(rows["seq"])
            width = MEM_DTYPE.itemsize
            table["digest"][todo] = np.frombuffer(b"".join(hash_ranges(
                bytes.fromhex(strings), [
                    (calls, call_at[np.searchsorted(seq, lo, side="right")],
                     call_at[np.searchsorted(seq, hi, side="right")]),
                    (rows.view(np.uint8),
                     np.searchsorted(row_seq, lo, side="right") * width,
                     np.searchsorted(row_seq, hi) * width)])),
                dtype=np.uint8).reshape(-1, 32)
        return table

    # ---------------------------------------------------------- resolve

    def _resolve(self, plan: CachePlan, manifest: Optional[_Manifest],
                 rec) -> Tuple[Dict[int, tuple], List[int]]:
        """Split shards into cache hits — ``shard -> decoded findings``:
        none, where the manifest holds the key and says so, else what
        the shard store holds under the key — and dirty."""
        spans = manifest.spans if manifest is not None else {}
        held = (set(spans.values())
                if manifest is not None and manifest.current else ())
        resolved: Dict[int, tuple] = {}
        dirty: List[int] = []
        for shard, key in enumerate(plan.keys):
            if key in held and key not in manifest.found:
                payload, status = _NOTHING, HIT
            else:
                self._shard_files_read += 1
                payload, status = self.store.load(_SHARDS, key)
            if status == HIT:
                try:
                    resolved[shard] = _decode_shard(
                        payload, plan.sizes(shard), cache="hit", shard=shard)
                except _DECODE_ERRORS:
                    status = CORRUPT
            if status != HIT:
                dirty.append(shard)
                if status != CORRUPT:
                    prev = spans.get((int(plan.first[shard]),
                                      int(plan.last[shard])))
                    status = ("invalidated"
                              if prev is not None and prev != key else "miss")
            if rec.enabled:
                n_regions = plan.sizes(shard)[1]
                rec.count("incremental_cache_shards_total", 1,
                          outcome=status,
                          help="Shard cache lookups by outcome")
                rec.count("incremental_regions_total", n_regions,
                          state="clean" if status == HIT else "dirty",
                          help="Regions reused vs re-analyzed")
                rec.count("incremental_shard_regions", n_regions,
                          shard=str(shard), outcome=status,
                          help="Per-shard region counts by cache outcome")
        return resolved, dirty

    # ----------------------------------------------------------- detect

    def _shard_units(self, control: ControlState, plan: CachePlan,
                     dirty: List[int]) -> List[Dict[str, list]]:
        """Lift the dirty shards' calls — and only those — to views and
        describe each shard's detector inputs: the kernels' epoch and
        region units, tagged with the epoch's position among the shard's
        epochs / the region's offset in the shard (what the merge orders
        by).  Memory rows are named by seq bounds only — the serial path
        resolves them through the loader, the parallel path through the
        shared segments — so a unit pickles without row data."""
        model = control.lift.views([(table["lo"][dirty], table["hi"][dirty])
                                    for table in plan.slices])
        units = {shard: {"epochs": [], "regions": []} for shard in dirty}
        all_epochs = control.epochs.epochs
        where = {id(all_epochs[e]): (shard, k) for shard in dirty
                 for k, e in enumerate(plan.epoch_ids[
                     plan.epoch_start[shard]:plan.epoch_start[shard + 1]
                 ].tolist())}
        for unit in bucket_by_epoch(model, control.epochs):
            shard, k = where[id(unit[0])]
            units[shard]["epochs"].append((k, unit))
        ops, call_locals = bucket_by_region(model, control.regions)
        for r in sorted(ops):
            shard = int(np.searchsorted(plan.last, r))
            units[shard]["regions"].append((
                r - int(plan.first[shard]),
                (ops[r], call_locals.get(r, []),
                 control.regions.regions[r].bounds)))
        return [units[shard] for shard in dirty]

    def _detect(self, control: ControlState, plan: CachePlan,
                dirty: List[int]) -> Dict[int, tuple]:
        if not dirty:
            return {}
        units = self._shard_units(control, plan, dirty)
        # the only rows the kernels read: epoch ranks and op targets
        needed = sorted(
            {unit[0].rank for shard in units for _k, unit in shard["epochs"]}
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
                desc, handle = share_rows(self.loader.rows(rank), name)
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
                {rank: self.loader.rows(rank) for rank in needed})

        computed: Dict[int, tuple] = {}
        for shard, payload in zip(dirty, payloads):
            # persist *before* the merge: dedupe mutates occurrence
            # counters on the very objects the payload describes
            self.store.store(_SHARDS, plan.keys[shard], payload)
            computed[shard] = _decode_shard(
                payload, plan.sizes(shard), cache="computed", shard=shard)
        return computed

    # ------------------------------------------------------------ merge

    def _merge(self, plan: CachePlan, resolved: Dict[int, tuple],
               stats: CheckStats) -> List[ConsistencyError]:
        intra, inter = [], []
        for shard, (by_epoch, by_region) in resolved.items():
            ids = plan.epoch_ids[plan.epoch_start[shard]:]
            intra.extend((int(ids[k]), errors) for k, errors in by_epoch)
            inter.extend((int(plan.first[shard]) + offset, errors)
                         for offset, errors in by_region)
        # cold concatenation order: intra findings in epoch-index order,
        # then inter findings in region order — the pre-sort list order
        # decides each duplicate group's surviving representative
        findings = [error for part in (intra, inter)
                    for _at, errors in sorted(part, key=lambda p: p[0])
                    for error in errors]
        findings = dedupe(sort_findings(findings))

        self.store.store(_MANIFESTS, self._cfg_key(), {
            "version": MANIFEST_VERSION,
            "engine_version": ENGINE_VERSION,
            "memory_model": self.config.memory_model,
            "nranks": self.traces.nranks,
            "ranks": {str(r): d for r, d in plan.ranks.items()},
            "slices": {str(rank): base64.b64encode(
                table.tobytes()).decode("ascii")
                for rank, table in enumerate(plan.slices)},
            "shards": {"first": plan.first.tolist(),
                       "last": plan.last.tolist(), "keys": plan.keys,
                       "found": sorted(
                           plan.keys[shard] for shard, parts
                           in resolved.items() if any(parts))},
            # the finished report, serialized *after* dedupe so the
            # fast path serves final occurrence counts
            "report": {
                "findings": [f.to_payload() for f in findings],
                "stats": {name: getattr(stats, name) for name in _STATS},
            },
        })
        return findings


# ------------------------------------------------------- shard compute


def _compute_shards(shards: List[Dict[str, list]], pre, context: tuple,
                    mems: Dict[int, MemRows]) -> List[Dict[str, list]]:
    """Run each sweep kernel once over every unit of ``shards`` and
    split the per-unit findings back into one ``{"intra", "inter"}``
    payload per shard, keeping the units that found something; findings
    are serialized immediately (raw detector output always has
    ``occurrences == 1``).  ``context`` is ``(oracle, lock_index,
    memory_model)``; ``mems`` maps the ranks the units read to their full
    :class:`MemRows` — from the row-loader in the serial path, the
    attached shared segments in a pool worker."""
    intra = iter(check_epochs_sweep(
        [unit for shard in shards for _k, unit in shard["epochs"]],
        mems, context[2]))
    inter = iter(detect_regions_sweep(
        pre, [unit for shard in shards for _r, unit in shard["regions"]],
        mems, *context))

    def part(units: list, found) -> list:
        return [[at, [f.to_payload() for f in errors]]
                for (at, _unit), errors in zip(units, found) if errors]

    return [{"intra": part(shard["epochs"], intra),
             "inter": part(shard["regions"], inter)} for shard in shards]


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


def _decode_shard(payload: dict, sizes: Tuple[int, int],
                  **context) -> Tuple[list, list]:
    """Payload -> ``(intra, inter)`` lists of ``(position, findings)``,
    the findings stamped with ``context`` (how the cache resolved them);
    raises on any shape mismatch, or a position outside the shard's
    ``sizes`` (the caller treats that as a corrupt entry)."""
    decoded = []
    for name, size in zip(("intra", "inter"), sizes):
        part = []
        for at, items in payload[name]:
            if type(at) is not int or not 0 <= at < size or not items:
                raise ValueError(f"{name} position {at!r} of {size}")
            part.append((at, annotate_context(
                [ConsistencyError.from_payload(p) for p in items],
                **context)))
        decoded.append(part)
    return decoded[0], decoded[1]


def check_incremental(traces: TraceSet, config: CheckConfig) -> CheckReport:
    """Entry point used by :func:`repro.core.checker.check_traces`."""
    return IncrementalChecker(traces, config).run()
