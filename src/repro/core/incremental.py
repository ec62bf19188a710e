"""Incremental checking with a content-addressed result cache.

MC-Checker's workflow is profile-then-analyze, and the same trace set is
typically analyzed many times — after a re-run that perturbed only a few
ranks, while bisecting with ``minimize``, or under CI.  This module makes
the warm path cheap: findings are cached per *shard* (a group of
concurrent regions) under a key derived purely from the shard's inputs,
so a warm ``check`` re-runs the sweep detectors only for shards whose
inputs changed and merges cached and fresh findings into a report that is
byte-identical to a cold run.

It is a memoising policy over the shard plan (:mod:`repro.core.plan`):
control pass, cut, kernel units, kernels and cold-order merge are the
plan's, shared with the pooled and the streaming executor; what lives
here is digests, shard keys, the manifest, resolving keys against the
store, and the whole-report fast path.  Only *dirty* shards pay for a
re-analysis: their units alone enter the kernels, and memory rows
become kernel columns only for the ranks they read (with ``jobs > 1``,
as chunks over the worker pool).

Two cache levels stack:

* **the whole-report fast path** — the run manifest records every
  rank's full-trace content digest alongside the finished (deduplicated)
  report.  When all digests and the engine version match, the stored
  report is served outright: identical inputs produce identical output,
  so even the control pass is skipped and a fully warm run costs one
  hashing pass over the files (a digest is verified, never just read);
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
``check_epochs_sweep`` (its access epochs) and ``detect_regions_sweep``
(its regions), which return findings *per unit* — so all dirty shards of
a run (or of a pool chunk) go through one kernel call and are split back
per shard (:func:`~repro.core.plan.run_shards`).  A key is one
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

Shard grouping and merge order are the plan's
(:class:`~repro.core.plan.ShardPlan`); because ``dedupe`` mutates its
survivors' occurrence counters in place, shard payloads are always
serialized *before* the merge.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.calltable import ensure_call_tables
from repro.core.checker import (
    CheckReport, CheckStats, publish_report_obs, run_control_pass,
)
from repro.core.config import CheckConfig, resolve_jobs
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, annotate_context,
    dedupe, sort_findings,
)
from repro.core.parallel import detect_shards
from repro.core.plan import ControlState, ShardPlan, _RowLoader, phase_timer
from repro.profiler.tracer import MEM_DTYPE, TraceSet
from repro.util.cachestore import CORRUPT, HIT, CacheStore
from repro.util.hashing import hash_ranges, stable_hash
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
    """What the cache adds to the cut: a content key per shard, plus
    everything the next run's manifest records."""

    shards: ShardPlan
    #: ``(nranks, n_shards)`` :data:`_SLICE` records
    slices: np.ndarray
    keys: List[str]
    #: per-rank whole-trace content digests
    ranks: Dict[int, str]


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
        self._calls_lifted = 0

    def work(self) -> Dict[str, int]:
        """What the run did beyond the control pass, in exact counts:
        lifted calls inside the shards it re-analyzed, shard-store
        entries it tried to read, and memory rows read from the
        traces."""
        return {"calls_lifted": self._calls_lifted,
                "shard_files_read": self._shard_files_read,
                "rows_loaded": self.loader.rows_loaded}

    def run(self) -> CheckReport:
        with obs.span("analyzer.run", memory_model=self.config.memory_model,
                      incremental=True) as run_span:
            report = self._run_phases()
        publish_report_obs(report, run_span.duration)
        return report

    def _run_phases(self) -> CheckReport:
        stats = CheckStats()
        timed = phase_timer(stats.phase_seconds)
        rec = obs.get_recorder()

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
        control = self.control = run_control_pass(self.traces, stats, timed)
        plan = self.plan = timed(
            "plan", lambda: self._build_plan(control, whole, manifest))
        resolved, dirty = timed(
            "resolve", lambda: self._resolve(plan, manifest, rec))
        self.dirty_shards = dirty
        resolved.update(timed(
            "detect", lambda: self._detect(control, plan, dirty),
            shards=len(dirty), jobs=self.jobs))
        plan.shards.publish_obs(len(dirty))
        return timed("merge", lambda: self._merge(plan, resolved, stats))

    def _cfg_key(self) -> str:
        # "engine" is part of the key format (manifest file names)
        return stable_hash({"kind": "incremental-manifest",
                            "memory_model": self.config.memory_model,
                            "engine": "sweep",
                            "nranks": self.traces.nranks})

    def _rank_digests(self) -> Dict[int, str]:
        """Every rank's content digest, established from its bytes: the
        cache may only answer for a file it has verified."""
        whole: Dict[int, str] = {}
        for rank in range(self.traces.nranks):
            with self.traces.reader(rank) as reader:
                whole[rank] = reader.content_digest(verify=True)
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
        """Cut the shard plan and key every shard by its content."""
        shards = ShardPlan.build(control)
        first, last, bounds = shards.first, shards.last, shards.bounds
        epoch_ids, epoch_start = shards.epoch_ids, shards.epoch_start
        nranks, n_shards = control.pre.nranks, len(shards)
        epochs = control.epochs.columns
        slices = np.stack([
            self._slice_digests(
                control, rank, shards.lo[rank], shards.hi[rank],
                manifest.slices.get(rank) if manifest is not None
                and manifest.ranks.get(rank) == whole[rank] else None)
            for rank in range(nranks)])

        # "engine" is part of the key format: dropping it would rename
        # every shard file and send existing caches cold
        prefix = json.dumps({
            "kind": "incremental-shard", "engine_version": ENGINE_VERSION,
            "memory_model": self.config.memory_model,
            "engine": "sweep", "nranks": nranks,
            "registry": _registry_digest(control.pre),
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
        return CachePlan(shards=shards, slices=slices,
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
                        payload, plan.shards.sizes(shard), cache="hit",
                        shard=shard)
                except _DECODE_ERRORS:
                    status = CORRUPT
            if status != HIT:
                dirty.append(shard)
                if status != CORRUPT:
                    prev = spans.get((int(plan.shards.first[shard]),
                                      int(plan.shards.last[shard])))
                    status = ("invalidated"
                              if prev is not None and prev != key else "miss")
            if rec.enabled:
                n_regions = plan.shards.sizes(shard)[1]
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

    def _detect(self, control: ControlState, plan: CachePlan,
                dirty: List[int]) -> Dict[int, tuple]:
        units = plan.shards.units(control, dirty)
        self._calls_lifted += sum(unit.calls for unit in units)
        found, _chunks = detect_shards(
            units, control, self.config.memory_model, self.loader,
            self.jobs)
        computed: Dict[int, tuple] = {}
        for shard, parts in zip(dirty, found):
            # persist *before* the merge: dedupe mutates occurrence
            # counters on the very objects the payload describes (raw
            # detector output always has ``occurrences == 1``)
            payload = {name: [[at, [f.to_payload() for f in errors]]
                              for at, errors in part]
                       for name, part in zip(("intra", "inter"), parts)}
            self.store.store(_SHARDS, plan.keys[shard], payload)
            computed[shard] = _decode_shard(
                payload, plan.shards.sizes(shard), cache="computed",
                shard=shard)
        return computed

    # ------------------------------------------------------------ merge

    def _merge(self, plan: CachePlan, resolved: Dict[int, tuple],
               stats: CheckStats) -> List[ConsistencyError]:
        findings = dedupe(sort_findings(plan.shards.merge(resolved.items())))

        self.store.store(_MANIFESTS, self._cfg_key(), {
            "version": MANIFEST_VERSION,
            "engine_version": ENGINE_VERSION,
            "memory_model": self.config.memory_model,
            "nranks": self.traces.nranks,
            "ranks": {str(r): d for r, d in plan.ranks.items()},
            "slices": {str(rank): base64.b64encode(
                table.tobytes()).decode("ascii")
                for rank, table in enumerate(plan.slices)},
            "shards": {"first": plan.shards.first.tolist(),
                       "last": plan.shards.last.tolist(), "keys": plan.keys,
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
