"""Incremental checking with a content-keyed result cache.

The same trace set is typically analyzed many times — after a re-run
that perturbed a few ranks, while bisecting with ``minimize``, under CI.
Findings are cached per *shard* (a group of concurrent regions) under a
key derived purely from the shard's inputs, so a warm ``check`` re-runs
the sweep detectors only for shards whose inputs changed, and its report
is byte-identical to a cold run's (``docs/api.md``, "Incremental
checking", walks through a run).

It is a memoising policy over the shard plan (:mod:`repro.core.plan`):
control pass, cut, kernel units, kernels and cold-order merge are the
plan's; what lives here is digests, shard keys, the manifest, resolving
keys against the store, and the two cache levels:

* **the whole-report fast path** — the manifest records every rank's
  content digest beside the finished (deduplicated) report; when all
  digests and the engine version match, that report is served and even
  the control pass is skipped: a fully warm run costs one hashing pass
  over the files (a digest is verified, never just read);
* **the per-shard cache** — when any rank changed, the control pass
  re-runs (invalidation soundness is decided fresh, never cached) and
  only the shards whose keys moved are re-analyzed.  The manifest holds
  every shard key of the run that wrote it and which had findings, so a
  shard without findings — in a race-free program, every one — is
  served from memory.  The config's one *pack*
  (:mod:`repro.util.cachestore`) maps keys to findings (``null``: none):
  it is opened for a key the manifest does not answer, and a run that
  analyzes shards writes it anew — what it computed, and what the pack
  held under this run's keys and the previous run's, so going back to
  the set before an edit is served too, and the pack stays two runs
  large.  A corrupt pack, or entry, is recomputed and so replaced.

How the cache key covers every detector input
---------------------------------------------

A shard's findings are what the two sweep kernels find in its epochs
and regions (:func:`~repro.core.plan.run_shards`).  A key is a SHA-256
(:func:`~repro.util.hashing.hash_ranges`, every piece length-prefixed)
over a run-wide prefix and:

* **the shard's calls** — ops, attached/plain call-derived locals, and
  epoch structure all lift from calls.  Covered, per rank, by the *slice
  digest* (:func:`slice_digests`) over the call columns of the rows with
  ``lo < seq <= hi`` (inclusive upper bound: the global cut that
  *closes* a region maps to that region via
  :meth:`RegionIndex.region_of_seq`, and its buffer arguments feed that
  region's locals): ``seq``, the value and list pools, and for every
  shape, location and string id the digest of the table entry it names
  — so no event is built, and a slice does not depend on what else the
  rank's tables hold;
* **the shard's memory rows** — the slice digest continues over the
  packed rows with ``lo < seq < hi`` and starts from the rank's
  string-table digest (``var``/``loc`` ids are table-relative).  The key
  holds one slice digest per rank; the manifest records them with their
  lower bounds, and a rank whose file is byte-identical to the one it
  describes reuses them — its columns are not hashed, its rows not read;
* **region and epoch structure** — the first and last region index;
  every epoch (access or exposure), grouped into the shard holding its
  interior, as a row of numbers plus its PSCW group — which also covers
  the lock index (a pure function of the epoch list); the regions'
  bounds are the members of the global cuts, which the fingerprint
  below covers;
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

Because ``dedupe`` mutates its survivors' occurrence counters in place,
shard payloads are always serialized *before* the merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.calltable import ensure_call_tables
from repro.core.checker import (
    CheckReport, CheckStats, publish_report_obs, run_control_pass,
)
from repro.core.config import CheckConfig
from repro.core.diagnostics import (
    SEVERITY_ERROR, SEVERITY_WARNING, ConsistencyError, annotate_context,
    dedupe, sort_findings,
)
from repro.core.matching import match_columns
from repro.core.plan import (
    ControlState, ShardPlan, SharedReaders, _RowLoader, phase_timer,
    ranks_read, run_shards,
)
from repro.profiler.callcols import CallColumns
from repro.profiler.tracer import MEM_DTYPE, TraceSet
from repro.util.cachestore import CORRUPT, HIT, MISS, CacheStore
from repro.util.hashing import hash_ranges, stable_hash
from repro.util.intervals import expand_ranges

#: bump whenever detector semantics, the key layout or the manifest
#: layout change — it is part of every shard key and of the manifest, so
#: stale findings can never be served across engine revisions
ENGINE_VERSION = "6"

_STATS = ("nranks", "events", "rma_ops", "local_accesses", "sync_matches",
          "regions", "epochs")
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError)
#: one rank's slice of one shard: its calls have ``lo < seq <= hi``, its
#: memory rows ``lo < seq < hi`` — ``hi`` being the next shard's ``lo``,
#: for shards tile the trace — and ``digest`` covers both
_SLICE = np.dtype([("lo", "<i8"), ("digest", "u1", (32,))])


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
    """The previous run's record, decoded once.  Another engine
    revision's keeps ``spans`` only — what tells a changed key from a
    new one — and so matches no rank and serves nothing."""

    #: (first, last) region span -> shard key
    spans: Dict[Tuple[int, int], str]
    ranks: Dict[int, str] = field(default_factory=dict)
    #: the finished report as stored: finding payloads (decoded only if
    #: the report is served) and the ``CheckStats`` sizes
    report: dict = field(default_factory=dict)
    #: keys of the shards that had no findings: served from memory
    clean: frozenset = frozenset()
    #: the run's :attr:`CachePlan.slices`
    slices: Optional[np.ndarray] = None

    @classmethod
    def load(cls, store: CacheStore, cfg_key: str) -> Optional["_Manifest"]:
        """``None`` for a missing, corrupt, or mis-shaped manifest — the
        run then re-derives everything and writes a fresh one."""
        payload, blob, _status = store.load("manifest", cfg_key)
        try:
            shards = payload["shards"]
            keys = [str(key) for key in shards["keys"]]
            manifest = cls(dict(zip(zip(map(int, shards["first"]),
                                        map(int, shards["last"])), keys)))
            if payload["engine_version"] == ENGINE_VERSION \
                    and len(manifest.spans) == len(keys):
                manifest.ranks = {int(r): str(d)
                                  for r, d in payload["ranks"].items()}
                manifest.report = dict(payload["report"])
                manifest.clean = frozenset(keys) - frozenset(shards["found"])
                manifest.slices = np.frombuffer(
                    blob, dtype=_SLICE).reshape(len(manifest.ranks), len(keys))
        except _DECODE_ERRORS:
            return None
        return manifest


# ----------------------------------------------------- canonical digests


def slice_digests(cols: CallColumns, rows: np.ndarray, strings: str,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One rank's slice digest (a row) per ``(lo, hi)`` seq bounds: what
    its call columns hold for ``lo < seq <= hi`` (no table id in it:
    :meth:`CallColumns.content_ranges`) and its packed memory ``rows``
    with ``lo < seq < hi``, ``strings`` being the digest of the table
    their ids index."""
    row_seq = np.ascontiguousarray(rows["seq"])
    width = MEM_DTYPE.itemsize
    return hash_ranges(bytes.fromhex(strings), [
        *cols.content_ranges(np.searchsorted(cols.seq, lo, side="right"),
                             np.searchsorted(cols.seq, hi, side="right")),
        (rows.view(np.uint8),
         np.searchsorted(row_seq, lo, side="right") * width,
         np.searchsorted(row_seq, hi) * width)])


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
    """``fp[r]`` (32 bytes each) = hash over the matches whose minimum
    participant region is ``<= r`` (the prefix the soundness argument
    needs), region by region.  A region's matches are hashed as the rows
    of the two :func:`~repro.core.matching.match_columns` tables in
    sorted order, so the fingerprint is a function of the match set, not
    of the order it was found in — and, for the members of the global
    cuts, the row of the regions' bounds that closes the region."""
    regions, n = control.regions, len(control.regions)
    nranks = control.pre.nranks
    head, part = match_columns(control.matches, nranks)
    # every participant as (match, rank, seq): members and exits, rank
    # 0's member (what places a cut), src, dst
    ends = np.column_stack([
        np.tile(np.arange(len(head)), 3),
        np.concatenate([np.column_stack([np.zeros(len(head), dtype=int),
                                         head[:, 11]]),
                        head[:, 5:7], head[:, 7:9]])])
    who = np.concatenate([part[:, [0, 2, 3]], ends[ends[:, 2] >= 0]])
    region = np.empty(len(who), dtype=np.int64)
    for rank in np.unique(who[:, 1]).tolist():     # region_of_seq, batched
        at = who[:, 1] == rank
        region[at] = np.searchsorted(regions.cuts[rank], who[at, 2] - 1,
                                     side="right")
    bucket = np.full(len(head), n - 1)
    np.minimum.at(bucket, who[:, 0], region)

    row = np.arange(1, n + 2) * nranks * 8
    streams = [(regions.bounds.reshape(-1), row[:-1], row[1:])]
    # a member row names its match by (comm, slot): one collective each
    for table, of in ((head, bucket), (np.column_stack([
            head[part[:, 0]][:, [2, 4]], part[:, 1:]]), bucket[part[:, 0]])):
        order = np.lexsort((*table.T[::-1], of))
        at = np.searchsorted(of[order], np.arange(n + 1)) \
            * 8 * table.shape[1]
        streams.append((table[order].reshape(-1), at[:-1], at[1:]))
    return hash_ranges(b"sync-fp-v3", streams, chain=True)


# ----------------------------------------------------------- the checker


class IncrementalChecker:
    """Cache-aware DN-Analyzer: control pass, plan, resolve, re-run only
    the dirty shards, merge byte-identically."""

    def __init__(self, traces: TraceSet, config: CheckConfig):
        if not config.incremental:
            raise ValueError(
                "IncrementalChecker requires CheckConfig(incremental=True,"
                " cache_dir=...)")
        #: every pass of a run shares one reader per rank file
        self.traces = SharedReaders(traces)
        self.config = config
        self.store = CacheStore(config.cache_dir)
        # populated by run(); public for tests
        self.control: Optional[ControlState] = None
        self.plan: Optional[CachePlan] = None
        #: reads no rows until a plan hands it the call tables
        self.loader = _RowLoader(self.traces, {})
        #: indices (into the plan's arrays) of the shards re-analyzed
        self.dirty_shards: List[int] = []
        self._packs_read = 0
        self._calls_lifted = 0
        #: what the next pack keeps of the stored one: key -> findings
        self._pack: Dict[str, Optional[dict]] = {}
        self._write_failed = False

    def work(self) -> Dict[str, int]:
        """What the run did beyond the control pass, in exact counts:
        lifted calls inside the shards it re-analyzed, packs it opened
        (``shard_files_read``), and memory rows read from the traces."""
        return {"calls_lifted": self._calls_lifted,
                "shard_files_read": self._packs_read,
                "rows_loaded": self.loader.rows_loaded}

    def run(self) -> CheckReport:
        with obs.span("analyzer.run", memory_model=self.config.memory_model,
                      incremental=True) as run_span, self.traces:
            report = self._run_phases()
        publish_report_obs(report, run_span.duration)
        return report

    def _run_phases(self) -> CheckReport:
        stats = CheckStats()
        timed = phase_timer(stats.phase_seconds)
        rec = obs.get_recorder()

        manifest = timed("resolve", lambda: _Manifest.load(
            self.store, self._cfg_key()))
        whole = timed("digests", lambda: self._rank_digests(manifest))
        findings = timed("resolve", lambda: self._whole_report(
            manifest, whole, rec, stats))
        if findings is None:
            control = self.control = run_control_pass(self.traces, stats,
                                                      timed)
            plan = self.plan = timed(
                "plan", lambda: self._build_plan(control, whole, manifest))
            resolved, dirty = timed(
                "resolve", lambda: self._resolve(plan, manifest, rec))
            self.dirty_shards = dirty
            resolved.update(timed(
                "detect", lambda: self._detect(control, plan, dirty),
                shards=len(dirty)))
            plan.shards.publish_obs(len(dirty))
            findings = timed(
                "merge", lambda: self._merge(plan, resolved, stats))
        if rec.enabled:
            for name, value in self.work().items():
                rec.count(f"incremental_{name}_total", value,
                          help="Work of an incremental run beyond its "
                               "control pass (IncrementalChecker.work)")
            rec.gauge("incremental_ranks_loaded", len(self.loader.ranks),
                      help="Ranks whose memory rows were read this run")
        annotate_context(findings, mode="incremental")
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        warnings = [f for f in findings if f.severity == SEVERITY_WARNING]
        return CheckReport(errors=errors, warnings=warnings, stats=stats)

    def _cfg_key(self) -> str:
        return stable_hash({"kind": "incremental-manifest",
                            "memory_model": self.config.memory_model,
                            "nranks": self.traces.nranks})

    def _rank_digests(self, manifest: Optional[_Manifest]) -> Dict[int, str]:
        """Every rank's content digest, established from its bytes: the
        cache may only answer for a file it has verified.  Where every
        file claims the content the manifest describes — the report is
        then served whole — each is closed once it is hashed."""
        def digest(rank: int, verify: bool) -> str:
            with self.traces.reader(rank) as reader:
                return reader.content_digest(verify=verify)
        ranks = range(self.traces.nranks)
        served = manifest is not None and manifest.ranks == {
            rank: digest(rank, False) for rank in ranks}
        whole: Dict[int, str] = {}
        for rank in ranks:
            whole[rank] = digest(rank, True)
            if served:
                self.traces.release(rank)
        return whole

    def _publish(self, kind: str, key: str, payload: dict,
                 blob: bytes = b"") -> None:
        """Store an entry.  A cache that cannot be written costs the next
        run its reuse, never this run its report: counted, logged once."""
        try:
            self.store.store(kind, key, payload, blob)
        except OSError as exc:
            obs.count("incremental_cache_write_errors_total", kind=kind,
                      help="Cache entries that could not be published")
            if not self._write_failed:
                obs.get_logger().warning(
                    f"incremental cache: cannot write {kind} under "
                    f"{self.store.root}: {exc}")
            self._write_failed = True

    def _whole_report(self, manifest: Optional[_Manifest],
                      whole: Dict[int, str], rec, stats: CheckStats
                      ) -> Optional[List[ConsistencyError]]:
        """Whole-report fast path: if every rank's full-trace content
        digest matches the manifest's (and the engine version is
        current), the stored deduplicated report *is* this run's report.
        Any mismatch or decode error falls through to the shard path."""
        if manifest is None or manifest.ranks != whole:
            return None
        try:
            findings = [ConsistencyError.from_payload(p)
                        for p in manifest.report["findings"]]
            sizes = {name: manifest.report["stats"][name]
                     for name in _STATS}
            if {type(value) for value in sizes.values()} != {int}:
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
        """Cut the shard plan and key every shard by its content; the
        rows it reads are checked against ``control``'s calls."""
        self.loader = _RowLoader(self.traces,
                                 ensure_call_tables(control.pre))
        shards = ShardPlan.build(control)
        first, last = shards.first, shards.last
        epoch_ids, epoch_start = shards.epoch_ids, shards.epoch_start
        nranks, epochs = control.pre.nranks, control.epochs.columns
        slices = np.stack([
            self._slice_digests(
                control, rank, shards.lo[rank], shards.hi[rank],
                manifest.slices[rank] if manifest is not None
                and manifest.ranks.get(rank) == whole[rank] else None)
            for rank in range(nranks)])

        prefix = json.dumps({
            "kind": "incremental-shard", "engine_version": ENGINE_VERSION,
            "memory_model": self.config.memory_model, "nranks": nranks,
            "registry": _registry_digest(control.pre),
            "lock_types": epochs.lock_types}, sort_keys=True)
        head = np.concatenate([
            np.stack([first, last], axis=1).view(np.uint8),
            _sync_fingerprints(control)[last],
            slices["digest"].transpose(1, 0, 2).reshape(len(shards), -1)],
            axis=1)
        canon = np.stack(epochs[:8], axis=1)[epoch_ids]
        group_len = epochs.group_len[epoch_ids]
        groups = epochs.group_val[expand_ranges(
            (np.cumsum(epochs.group_len) - epochs.group_len)[epoch_ids],
            group_len)[1]]
        group_at = np.concatenate([[0], np.cumsum(group_len)])[epoch_start]
        each = np.arange(len(shards) + 1) * head.shape[1]
        keys = hash_ranges(prefix.encode("utf-8"), [
            (head.reshape(-1), each[:-1], each[1:]),
            (canon.reshape(-1), epoch_start[:-1] * 64, epoch_start[1:] * 64),
            (groups, group_at[:-1] * 8, group_at[1:] * 8)])
        return CachePlan(shards=shards, slices=slices, ranks=whole,
                         keys=[bytes(key).hex() for key in keys])

    def _slice_digests(self, control: ControlState, rank: int,
                       lo: np.ndarray, hi: np.ndarray,
                       known: Optional[np.ndarray]) -> np.ndarray:
        """One rank's :data:`_SLICE` records for the shards' ``lo``/``hi``
        bounds.  ``known`` is the manifest's table when the rank's file
        is byte-identical to the one it describes: slices with recorded
        bounds keep their digest, and only the others are hashed — which
        takes the rank's memory rows."""
        if known is not None and np.array_equal(known["lo"], lo):
            return known                           # the same cut: all of it
        table = np.zeros(len(lo), dtype=_SLICE)
        table["lo"] = lo
        todo = np.ones(len(lo), dtype=bool)
        if known is not None and len(known):
            at = np.minimum(np.searchsorted(known["lo"], lo), len(known) - 1)
            # a recorded slice ends where the next begins, the last one
            # where every trace does
            todo = (known["lo"][at] != lo) | \
                (np.append(known["lo"][1:], hi[-1:])[at] != hi)
            table["digest"][~todo] = known["digest"][at[~todo]]
        if todo.any():
            rows, _table, strings = self.loader.packed(rank)
            table["digest"][todo] = slice_digests(
                control.pre.events[rank], rows, strings, lo[todo], hi[todo])
        return table

    # ---------------------------------------------------------- resolve

    def _resolve(self, plan: CachePlan, manifest: Optional[_Manifest],
                 rec) -> Tuple[Dict[int, tuple], List[int]]:
        """Split shards into cache hits — clean where the manifest holds
        the key and says so, else what the pack holds under the key:
        ``shard -> decoded findings`` of those that have any — and
        dirty.  The pack is opened only for a key the manifest does not
        answer; if it is corrupt, such a key may have been in it."""
        spans = manifest.spans if manifest is not None else {}
        clean = manifest.clean if manifest is not None else frozenset()
        stored, lost = {}, MISS
        if not clean.issuperset(plan.keys):
            payload, _blob, status = self.store.load("pack", self._cfg_key())
            self._packs_read += status != MISS
            if status == HIT and isinstance(payload.get("shards"), dict):
                stored = payload["shards"]
            elif status != MISS:
                lost = CORRUPT
        # the next pack holds this run's keys and the previous run's
        self._pack = {key: stored[key] for key in stored.keys() & {
            *plan.keys, *spans.values()}}
        resolved: Dict[int, tuple] = {}
        dirty: List[int] = []
        for shard, key in enumerate(plan.keys):
            status = HIT if key in clean or key in stored else lost
            if stored.get(key) is not None:
                try:
                    resolved[shard] = _decode_shard(
                        stored[key], plan.shards.sizes(shard), cache="hit",
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
        mems = {rank: self.loader.rows(rank)
                for rank in ranks_read(units, control)}
        found = run_shards(units, control, self.config.memory_model, mems)
        computed, pack = {}, self._pack
        for shard, parts in zip(dirty, found):
            # a shard without findings stores nothing but its key
            pack[plan.keys[shard]] = None
            if any(parts):
                # serialize *before* the merge: dedupe mutates occurrence
                # counters on the very objects the payload describes (raw
                # detector output always has ``occurrences == 1``)
                payload = pack[plan.keys[shard]] = {
                    name: [[at, [f.to_payload() for f in errors]]
                           for at, errors in part]
                    for name, part in zip(("intra", "inter"), parts)}
                computed[shard] = _decode_shard(
                    payload, plan.shards.sizes(shard), cache="computed",
                    shard=shard)
        if dirty:
            self._publish("pack", self._cfg_key(), {"shards": pack})
        return computed

    # ------------------------------------------------------------ merge

    def _merge(self, plan: CachePlan, resolved: Dict[int, tuple],
               stats: CheckStats) -> List[ConsistencyError]:
        findings = dedupe(sort_findings(plan.shards.merge(resolved.items())))
        self._publish("manifest", self._cfg_key(), {
            "engine_version": ENGINE_VERSION,
            "ranks": {str(r): d for r, d in plan.ranks.items()},
            "shards": {"first": plan.shards.first.tolist(),
                       "last": plan.shards.last.tolist(), "keys": plan.keys,
                       "found": sorted(map(plan.keys.__getitem__, resolved))},
            # the finished report, serialized *after* dedupe so the
            # fast path serves final occurrence counts
            "report": {
                "findings": [f.to_payload() for f in findings],
                "stats": {name: getattr(stats, name) for name in _STATS},
            },
        }, plan.slices.tobytes())
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
