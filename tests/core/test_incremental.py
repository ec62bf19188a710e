"""Incremental checking: cache soundness and byte-identical reports.

The contract of ``CheckConfig(incremental=True)`` is *byte-identical
reports at any cache temperature*: cold (empty cache), fully warm
(unchanged traces), and partially warm (some inputs changed) runs must
all produce exactly the report the batch pipeline produces, and warm
runs must reuse every shard whose inputs did not change.
"""

import dataclasses
import json
import os
import pathlib
import shutil

import pytest

from repro import obs
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core import incremental
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.core.incremental import IncrementalChecker
from repro.core.plan import build_control_state
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import profile_program
from repro.profiler.events import MemEvent
from repro.profiler.session import profile_run
from repro.profiler.tracer import TraceReader, TraceSet, TraceWriter
from repro.simmpi import DOUBLE

ALL_CASES = list(BUG_CASES) + list(EXTRA_CASES)
MEMORY_MODELS = ("separate", "unified")
RANKS_CAP = 4

_RUNS = {}
_BATCH = {}


def traces_for(case):
    run = _RUNS.get(case.name)
    if run is None:
        run = _RUNS[case.name] = profile_run(
            case.app, min(case.nranks, RANKS_CAP),
            params=case.params(True), trace_format="binary")
    return run.traces


def canonical(report) -> str:
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds")
    return json.dumps(payload, sort_keys=True)


def perturbed(traces: TraceSet, directory, rank=None) -> TraceSet:
    """A copy of ``traces`` under ``directory`` with the address of one
    late load/store of one rank moved by the access's size — the edit a
    recompiled kernel or a changed allocation makes (same mutation as the
    pipeline benchmark's ``lu16_recheck``).  ``rank`` defaults to the
    first rank that has a load/store."""
    shutil.copytree(traces.directory, directory)
    for r in range(traces.nranks) if rank is None else (rank,):
        path = os.path.join(directory, os.path.basename(traces.path(r)))
        with TraceReader(path) as reader:
            header, fmt, events = reader.header, reader.format, reader.events()
        mems = [i for i, ev in enumerate(events) if isinstance(ev, MemEvent)]
        if not mems:
            continue
        at = mems[(3 * len(mems)) // 4]
        events[at] = dataclasses.replace(
            events[at], addr=events[at].addr + events[at].size)
        with TraceWriter(path, r, header.nranks, app=header.app,
                         format=fmt) as writer:
            for event in events:
                writer.write(event)
        return TraceSet(str(directory))
    raise AssertionError("no rank has a load/store to perturb")


def batch_for(case, memory_model) -> str:
    key = (case.name, memory_model)
    if key not in _BATCH:
        _BATCH[key] = canonical(check_traces(
            traces_for(case), CheckConfig(memory_model=memory_model)))
    return _BATCH[key]


class TestReportIdentity:
    """Canonical bytes (``stats.rma_ops`` / ``local_accesses`` included)
    of incremental cold / warm / re-check == the plain check's, over the
    Table II corpus x both models x both formats x jobs {1, 2}, and over
    generated programs."""

    @staticmethod
    def _three_temperatures(traces, tmp_path, **config):
        plain = CheckConfig(**config)
        cached = plain.replace(incremental=True, jobs=config.get("jobs", 1),
                               cache_dir=str(tmp_path / "cache"))
        expected = canonical(check_traces(traces, plain))
        assert canonical(check_traces(traces, cached)) == expected, "cold"
        assert canonical(check_traces(traces, cached)) == expected, "warm"
        edited = perturbed(traces, tmp_path / "edited")
        assert canonical(check_traces(edited, cached)) == \
            canonical(check_traces(edited, plain)), "re-check"
        # ... and back: the first trace set's shards are still stored
        assert canonical(check_traces(traces, cached)) == expected, "back"

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("trace_format", ("text", "binary"))
    @pytest.mark.parametrize("memory_model", MEMORY_MODELS)
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_corpus(self, case, memory_model, trace_format, jobs, tmp_path):
        run = profile_run(case.app, min(case.nranks, RANKS_CAP),
                          params=case.params(True),
                          trace_dir=str(tmp_path / "traces"),
                          trace_format=trace_format)
        self._three_temperatures(run.traces, tmp_path,
                                 memory_model=memory_model, jobs=jobs)

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_programs(self, seed, tmp_path):
        generated = generate_program(GenConfig(
            seed=seed, nranks=5, rounds=3, bugs=("any",) * 2,
            trace_format="binary"))
        run = profile_program(generated, trace_dir=str(tmp_path / "traces"))
        self._three_temperatures(run.traces, tmp_path)


class TestWarmColdDifferential:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("memory_model", MEMORY_MODELS)
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
    def test_cold_and_warm_match_batch(self, case, memory_model, jobs,
                                       tmp_path):
        traces = traces_for(case)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"),
                             memory_model=memory_model, jobs=jobs)
        cold = canonical(check_traces(traces, config))
        warm = canonical(check_traces(traces, config))
        assert cold == batch_for(case, memory_model)
        assert warm == cold

    def test_fully_warm_run_reuses_every_shard(self, tmp_path):
        case = ALL_CASES[0]
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        check_traces(traces_for(case), config)
        checker = IncrementalChecker(traces_for(case), config)
        checker.run()
        assert checker.dirty_shards == []

    def test_text_traces_cache_by_file_digest(self, tmp_path):
        case = ALL_CASES[0]
        run = profile_run(case.app, 2, params=case.params(True),
                          trace_dir=str(tmp_path / "traces"),
                          trace_format="text")
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        cold = canonical(check_traces(run.traces, config))
        checker = IncrementalChecker(run.traces, config)
        report = checker.run()
        assert canonical(report) == cold
        assert checker.dirty_shards == []


def _phased(mpi, extra=False):
    """Three fence/barrier-separated phases; ``extra`` adds a send/recv
    in the middle phase.  ``msg`` is allocated in both variants so later
    buffer addresses never shift between them."""
    wbuf = mpi.alloc("wbuf", 8, datatype=DOUBLE, fill=0.0)
    src = mpi.alloc("src", 2, datatype=DOUBLE, fill=1.0)
    msg = mpi.alloc("msg", 1, datatype=DOUBLE, fill=0.0)
    win = mpi.win_create(wbuf)
    win.fence()
    if mpi.rank == 0:
        win.put(src, target=1, target_disp=0, origin_count=2)
    win.fence()
    mpi.barrier()
    if extra:
        if mpi.rank == 0:
            mpi.send(msg, dest=1, tag=9)
        elif mpi.rank == 1:
            mpi.recv(msg, source=0, tag=9)
    mpi.barrier()
    if mpi.rank == 1:
        win.put(src, target=0, target_disp=4, origin_count=2)
    win.fence()
    mpi.barrier()
    win.free()


class TestInvalidation:
    def _traces(self, path, extra):
        return profile_run(_phased, 2, params=dict(extra=extra),
                           trace_dir=str(path),
                           trace_format="binary").traces

    def test_sync_change_dirties_downstream_not_upstream(self, tmp_path):
        """Adding a send/recv in the middle phase must re-run the
        regions its happens-before frontier can see — and only those:
        the phases before the change stay cache hits."""
        a = self._traces(tmp_path / "a", extra=False)
        b = self._traces(tmp_path / "b", extra=True)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        check_traces(a, config)

        rec = obs.configure(enabled=True)
        try:
            warm_b = check_traces(b, config)
        finally:
            obs.reset()
        shards = rec.registry.get("incremental_cache_shards_total")
        hits = shards.value(outcome="hit")
        dirty = (shards.value(outcome="miss")
                 + shards.value(outcome="invalidated"))
        assert hits >= 1, "phases before the sync change must be reused"
        assert dirty >= 1, "the changed phase must be re-analyzed"
        regions = rec.registry.get("incremental_regions_total")
        assert regions.value(state="clean") >= 1
        assert regions.value(state="dirty") >= 1

        cold_b = check_traces(b, CheckConfig(
            incremental=True, cache_dir=str(tmp_path / "cache-fresh")))
        assert canonical(warm_b) == canonical(cold_b)

    def test_sync_change_dirties_exactly_the_downstream_shards(self,
                                                               tmp_path):
        """Every shard from the one holding the new send/recv onward is
        re-analyzed, none before it — shard by shard, not just in sum."""
        a = self._traces(tmp_path / "a", extra=False)
        b = self._traces(tmp_path / "b", extra=True)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        check_traces(a, config)
        checker = IncrementalChecker(b, config)
        report = checker.run()
        assert canonical(report) == canonical(check_traces(b))
        dirty = checker.dirty_shards
        assert dirty and dirty[0] > 0
        assert dirty == list(range(dirty[0], len(checker.plan.keys)))
        # the first dirty shard is the one whose regions hold the recv
        recv = next(e.seq for e in checker.control.pre.events[1]
                    if e.fn == "Recv")
        region = checker.control.regions.region_of_seq(1, recv)
        shards = checker.plan.shards
        assert shards.first[dirty[0]] <= region <= shards.last[dirty[0]]

    def test_engine_version_bump_invalidates_everything(self, tmp_path,
                                                        monkeypatch):
        traces = self._traces(tmp_path / "t", extra=False)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        cold = canonical(check_traces(traces, config))

        monkeypatch.setattr(incremental, "ENGINE_VERSION", "test-bump")
        rec = obs.configure(enabled=True)
        try:
            bumped = check_traces(traces, config)
        finally:
            obs.reset()
        shards = rec.registry.get("incremental_cache_shards_total")
        assert shards.value(outcome="hit") == 0
        assert shards.value(outcome="invalidated") >= 1
        assert canonical(bumped) == cold

    def test_v2_era_cache_demotes_and_self_heals(self, tmp_path,
                                                 monkeypatch):
        """A cache populated over v2 traces by the engine revision that
        wrote them ("4", before calls became columns) is another
        revision's: nothing is served from it, the verdict is the cold
        one, and the run leaves a current cache behind."""
        fixture = pathlib.Path(__file__).parent.parent / "profiler" / \
            "fixtures" / "v2_pingpong"
        traces = TraceSet(str(fixture))
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        assert incremental.ENGINE_VERSION == "5"
        monkeypatch.setattr(incremental, "ENGINE_VERSION", "4")
        old = canonical(check_traces(traces, config))
        monkeypatch.undo()

        report, outcomes = _outcomes(lambda: check_traces(traces, config))
        assert outcomes["hit"] == 0 and outcomes["invalidated"] >= 1
        assert canonical(report) == old == canonical(check_traces(traces))
        checker = IncrementalChecker(traces, config)
        assert canonical(checker.run()) == old
        assert checker.work() == {"calls_lifted": 0, "rows_loaded": 0,
                                  "shard_files_read": 0}

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        traces = self._traces(tmp_path / "t", extra=False)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        cold = canonical(check_traces(traces, config))

        # corrupt the manifest (disabling the whole-report fast path)
        # and two shard entries: a torn write and a key mismatch
        manifests = sorted(
            (tmp_path / "cache" / "manifests").rglob("*.json"))
        assert manifests
        for path in manifests:
            path.write_text("{not json", encoding="utf-8")
        shard_files = sorted((tmp_path / "cache" / "shards").rglob("*.json"))
        assert shard_files
        shard_files[0].write_text("{not json", encoding="utf-8")
        shard_files[-1].write_text(
            json.dumps({"key": "wrong", "intra": [], "inter": []}),
            encoding="utf-8")

        rec = obs.configure(enabled=True)
        try:
            warm = check_traces(traces, config)
        finally:
            obs.reset()
        shards = rec.registry.get("incremental_cache_shards_total")
        assert shards.value(outcome="corrupt") >= 1
        assert canonical(warm) == cold

        # the recompute healed the cache: next run is fully warm again
        checker = IncrementalChecker(traces, config)
        report = checker.run()
        assert checker.dirty_shards == []
        assert canonical(report) == cold

    def test_jobs_do_not_affect_cache_identity(self, tmp_path):
        """The manifest key deliberately excludes ``jobs``: a serial cold
        run must fully warm a parallel run and vice versa."""
        traces = self._traces(tmp_path / "t", extra=False)
        cache = str(tmp_path / "cache")
        serial = CheckConfig(incremental=True, cache_dir=cache, jobs=1)
        parallel = CheckConfig(incremental=True, cache_dir=cache, jobs=2)
        cold = canonical(check_traces(traces, serial))
        checker = IncrementalChecker(traces, parallel)
        report = checker.run()
        assert checker.dirty_shards == []
        assert canonical(report) == cold


def _outcomes(fn):
    """Run ``fn`` with the recorder on; its result and the per-outcome
    shard counts."""
    rec = obs.configure(enabled=True)
    try:
        result = fn()
    finally:
        obs.reset()
    shards = rec.registry.get("incremental_cache_shards_total")
    return result, {outcome: int(shards.value(outcome=outcome)) for outcome
                    in ("hit", "miss", "invalidated", "corrupt")}


class TestWorkProportionality:
    """A re-check costs what changed — asserted on exact counts, not on
    time: 16-rank LU, one load/store address changed in one rank."""

    RANK = 5

    @pytest.fixture(scope="class")
    def lu16(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("lu16")
        base = profile_run(lu, 16, params=dict(n=96, seed=1),
                           delivery="eager", trace_format="binary",
                           trace_dir=str(root / "base")).traces
        config = CheckConfig(incremental=True, cache_dir=str(root / "cache"))
        check_traces(base, config)
        return base, perturbed(base, root / "edited", rank=self.RANK), config

    @staticmethod
    def _fresh(config, tmp_path) -> CheckConfig:
        """``config`` over a private copy of its populated cache."""
        shutil.copytree(config.cache_dir, tmp_path / "cache")
        return config.replace(cache_dir=str(tmp_path / "cache"))

    def test_one_changed_address_reruns_one_shard(self, lu16, tmp_path):
        _base, edited, config = lu16
        checker = IncrementalChecker(edited, self._fresh(config, tmp_path))
        report, outcomes = _outcomes(checker.run)
        assert canonical(report) == canonical(check_traces(edited))
        (dirty,) = checker.dirty_shards
        n_shards = len(checker.plan.keys)
        assert n_shards > 100
        assert outcomes == {"hit": n_shards - 1, "invalidated": 1,
                            "miss": 0, "corrupt": 0}

        plan, control, work = checker.plan, checker.control, checker.work()
        # shard files: the manifest serves every key it holds
        assert work["shard_files_read"] == 1
        # lifted calls that entered the kernels: at most the calls inside
        # the shard's bounds
        inside = sum(
            1 for rank, table in enumerate(plan.slices)
            for event in control.pre.events[rank]
            if table["lo"][dirty] < event.seq <= table["hi"][dirty])
        assert work["calls_lifted"] <= inside < 100
        # memory rows: the changed rank's (to find what it dirtied) and
        # those of the ranks the dirty shard's kernels read
        start, rows = control.members.ops
        table = control.table
        reads = {int(rank)
                 for r in range(int(plan.shards.first[dirty]),
                                int(plan.shards.last[dirty]) + 1)
                 for op in rows[start[r]:start[r + 1]]
                 for rank in (table.rank[op], table.target[op])}
        assert self.RANK in checker.loader.ranks
        assert set(checker.loader.ranks) <= {self.RANK} | reads
        loaded = 0
        for rank in checker.loader.ranks:
            with edited.reader(rank) as reader:
                loaded += reader.counts()["mem"]
        assert work["rows_loaded"] == loaded

        # the re-check healed the cache for the edited set
        again = IncrementalChecker(edited, checker.config)
        again.run()
        assert again.work() == {"calls_lifted": 0, "shard_files_read": 0,
                                "rows_loaded": 0}

    def test_unchanged_rerun_lifts_and_opens_nothing(self, lu16, tmp_path):
        base, _edited, config = lu16
        checker = IncrementalChecker(base, self._fresh(config, tmp_path))
        _report, outcomes = _outcomes(checker.run)
        assert outcomes["hit"] > 100 and sum(outcomes.values()) == \
            outcomes["hit"]
        assert checker.work() == {"calls_lifted": 0, "shard_files_read": 0,
                                  "rows_loaded": 0}
        assert checker.loader.ranks == []

    def test_without_a_manifest_every_shard_is_one_file_read(self, lu16,
                                                             tmp_path):
        """The shard store alone (manifest lost) still serves every
        clean shard: one file read each, rows read to rebuild the slice
        digests, but no call lifted."""
        base, _edited, config = lu16
        config = self._fresh(config, tmp_path)
        shutil.rmtree(os.path.join(config.cache_dir, "manifests"))
        checker = IncrementalChecker(base, config)
        report = checker.run()
        assert canonical(report) == canonical(check_traces(base))
        assert checker.dirty_shards == []
        work = checker.work()
        assert work["shard_files_read"] == len(checker.plan.keys)
        assert work["calls_lifted"] == 0
        assert checker.loader.ranks == list(range(16))


def _flip(path, fraction: float) -> None:
    """Flip one bit of the byte ``fraction`` of the way into the file."""
    data = bytearray(path.read_bytes())
    data[min(int(len(data) * fraction), len(data) - 1)] ^= 0x04
    path.write_bytes(bytes(data))


def _rewrite(config: CheckConfig, kind: str, path, edit) -> None:
    """Re-store one cache entry after ``edit(payload)`` — a tampered
    entry whose checksum and key are nevertheless valid."""
    store = incremental.CacheStore(config.cache_dir)
    payload, status = store.load(kind, path.stem)
    assert status == "hit"
    edit(payload)
    store.store(kind, path.stem, payload)


class TestCacheMutations:
    """Any bytes in the cache: a mutated entry is recomputed and
    overwritten — never a crash, a served stale finding, or a changed
    ``stats`` block — and the run after is fully warm again."""

    @pytest.fixture(params=["jacobi", "emulate"])
    def populated(self, request, tmp_path):
        """jacobi (8 shards, 4 of them with cross-process findings) or
        emulate (12 shards, 4 with within-epoch findings): its traces,
        an edited copy (one rank differs, so the whole-report fast path
        is off and clean shards are served from the manifest), a config
        over a populated cache, and both plain-check reports."""
        case = next(c for c in ALL_CASES if c.name == request.param)
        nranks = min(case.nranks, RANKS_CAP)
        traces = profile_run(case.app, nranks, params=case.params(True),
                             trace_dir=str(tmp_path / "traces"),
                             trace_format="binary").traces
        edited = perturbed(traces, tmp_path / "edited", rank=nranks - 1)
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        assert check_traces(traces, config).findings
        return (traces, edited, config, canonical(check_traces(traces)),
                canonical(check_traces(edited)))

    @staticmethod
    def _entries(config, kind):
        root = pathlib.Path(config.cache_dir, kind)
        return sorted(p for p in root.rglob("*") if p.is_file())

    @staticmethod
    def _heals(traces, config, expected, *, corrupt=None):
        """The run over the mutated cache reports ``expected`` (the
        plain check's bytes, ``stats`` included); the run after it is
        served whole from the healed manifest."""
        report, outcomes = _outcomes(lambda: check_traces(traces, config))
        assert canonical(report) == expected
        if corrupt is not None:
            assert outcomes["corrupt"] == corrupt, outcomes
        checker = IncrementalChecker(traces, config)
        assert canonical(checker.run()) == expected
        assert checker.dirty_shards == [] and checker.control is None

    @pytest.mark.parametrize("mutation", [
        "empty", "truncated", "flip-checksum", "flip-early", "flip-middle",
        "flip-late", "no-newline", "old-layout", "not-json", "binary-junk"])
    def test_manifest_bytes(self, populated, mutation):
        traces, edited, config, expected, expected_edited = populated
        (manifest,) = self._entries(config, "manifests")
        data = manifest.read_bytes()
        if mutation == "empty":
            manifest.write_bytes(b"")
        elif mutation == "truncated":
            manifest.write_bytes(data[:len(data) // 2])
        elif mutation.startswith("flip"):
            _flip(manifest, {"checksum": 0.0001, "early": 0.1,
                             "middle": 0.5, "late": 0.999}[mutation[5:]])
        elif mutation == "no-newline":
            manifest.write_bytes(data.replace(b"\n", b" ", 1))
        elif mutation == "old-layout":  # a v3 cache: bare JSON, no header
            manifest.write_bytes(data.partition(b"\n")[2])
        elif mutation == "not-json":
            manifest.write_bytes(b"{not json")
        else:
            manifest.write_bytes(bytes(range(256)) * 8)
        # the edited set first: without a manifest every clean shard must
        # come from the shard store, and exactly one is recomputed
        checker = IncrementalChecker(edited, config)
        assert canonical(checker.run()) == expected_edited
        assert len(checker.dirty_shards) == 1
        self._heals(traces, config, expected)

    @pytest.mark.parametrize("field,value", [
        ("events", "12"), ("events", 1.5), ("rma_ops", True),
        ("regions", None), ("epochs", [3])])
    def test_manifest_wrong_typed_counts(self, populated, field, value):
        traces, _edited, config, expected, _ = populated
        (manifest,) = self._entries(config, "manifests")

        def edit(payload):
            payload["report"]["stats"][field] = value
        _rewrite(config, "manifests", manifest, edit)
        self._heals(traces, config, expected)

    @pytest.mark.parametrize("edit", [
        lambda part, items, found: part.append([10 ** 6, items]),
        lambda part, items, found: part.__setitem__(0, [-1, items]),
        lambda part, items, found: part.__setitem__(0, ["0", items]),
        lambda part, items, found: part.__setitem__(0, [0.0, items]),
        lambda part, items, found: part.__setitem__(0, [part[0][0], []]),
        lambda part, items, found: items[0].__setitem__("occurrences", "x"),
        lambda part, items, found: items[0]["a"].pop("seq"),
        lambda part, items, found: found.pop("intra"),
    ], ids=["out-of-range", "negative", "string", "float",
            "no-findings-listed", "occurrences-string", "side-without-seq",
            "part-missing"])
    def test_shard_entry_out_of_shape(self, populated, edit, tmp_path):
        """A stored shard that cannot be its shard's — an epoch position
        / region offset outside the shard, wrong types — under a valid
        checksum and key is a corrupt shard: it alone is recomputed.
        (With the manifest in place, which serves the shards without
        findings: a shard with findings is still one file read.)"""
        _traces, edited, config, _, expected_edited = populated
        # a shard with findings that the edit leaves clean
        shutil.copytree(config.cache_dir, tmp_path / "probe-cache")
        probe = IncrementalChecker(edited, config.replace(
            cache_dir=str(tmp_path / "probe-cache")))
        probe.run()
        (dirty,) = probe.dirty_shards
        clean = set(probe.plan.keys) - {probe.plan.keys[dirty]}

        def tamper(found):
            part = found["intra"] or found["inter"]
            edit(part, part[0][1], found)
        with_findings = [path for path in self._entries(config, "shards")
                         if path.stem in clean and b'"rule"' in
                         path.read_bytes()]
        _rewrite(config, "shards", with_findings[0], tamper)
        checker = IncrementalChecker(edited, config)
        report, outcomes = _outcomes(checker.run)
        assert canonical(report) == expected_edited
        assert outcomes["corrupt"] == 1 and len(checker.dirty_shards) == 2
        # files read: the shards with findings, and the edit's own shard
        assert checker.work()["shard_files_read"] == len(with_findings) + (
            probe.plan.keys[dirty] not in
            {path.stem for path in with_findings})
        self._heals(edited, config, expected_edited)

    def test_manifest_claims_no_findings_only_for_its_own_keys(self,
                                                               populated):
        """The manifest serves "no findings" from memory only for keys it
        lists as clean; dropping its list of shards with findings must
        not hide them — the fast path's report is what is at stake."""
        traces, edited, config, expected, expected_edited = populated
        (manifest,) = self._entries(config, "manifests")
        _rewrite(config, "manifests", manifest,
                 lambda payload: payload["shards"].pop("found"))
        assert canonical(check_traces(edited, config)) == expected_edited
        self._heals(traces, config, expected)

    def _without_manifest(self, config):
        shutil.rmtree(os.path.join(config.cache_dir, "manifests"))
        return self._entries(config, "shards")

    @pytest.mark.parametrize("mutation", [
        "empty", "truncated", "flip-checksum", "flip-body", "old-layout"])
    def test_shard_file_bytes(self, populated, mutation):
        traces, _edited, config, expected, _ = populated
        shards = self._without_manifest(config)
        for path in shards[::3]:
            data = path.read_bytes()
            if mutation == "empty":
                path.write_bytes(b"")
            elif mutation == "truncated":
                path.write_bytes(data[:-7])
            elif mutation == "flip-checksum":
                _flip(path, 0.05)
            elif mutation == "flip-body":
                _flip(path, 0.9)
            else:
                path.write_bytes(data.partition(b"\n")[2])
        self._heals(traces, config, expected, corrupt=len(shards[::3]))

    def test_swapped_shard_files(self, populated):
        traces, _edited, config, expected, _ = populated
        shards = self._without_manifest(config)
        first, last = shards[0], shards[-1]
        assert first.read_bytes() != last.read_bytes()
        swap = first.read_bytes()
        first.write_bytes(last.read_bytes())
        last.write_bytes(swap)
        self._heals(traces, config, expected, corrupt=2)

    def test_shard_file_positions_out_of_range(self, populated):
        traces, _edited, config, expected, _ = populated
        tampered = 0
        for path in self._without_manifest(config):
            def edit(payload):
                if payload["intra"]:
                    payload["intra"][0][0] += 10 ** 4
                else:
                    payload["inter"].append([10 ** 4, []])
            _rewrite(config, "shards", path, edit)
            tampered += 1
        self._heals(traces, config, expected, corrupt=tampered)

    def test_stray_tmp_files_are_ignored(self, populated):
        traces, edited, config, expected, expected_edited = populated
        for path in self._entries(config, "shards") + \
                self._entries(config, "manifests"):
            (path.parent / "tmpabc123.tmp").write_bytes(
                path.read_bytes()[:20])
        assert canonical(check_traces(edited, config)) == expected_edited
        self._heals(traces, config, expected)

    def test_old_engine_version_cache_directory(self, populated, tmp_path):
        """A cache written by the previous engine revision — bare JSON
        entries, the v3 manifest layout — under the very file names this
        revision uses, claiming the (buggy) program clean: nothing of it
        is served, all of it is replaced."""
        traces, _edited, config, expected, _ = populated
        keys = IncrementalChecker(traces, config)
        keys.run()
        keys = keys._build_plan(
            build_control_state(traces), keys._rank_digests(),
            None).keys
        old = config.replace(cache_dir=str(tmp_path / "old-cache"))
        cfg_key = IncrementalChecker(traces, old)._cfg_key()

        def plant(kind, key, payload):
            path = tmp_path / "old-cache" / kind / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(dict(payload, key=key)))
        for index, key in enumerate(keys):
            plant("shards", key, {"regions": [index, index],
                                  "intra": [], "inter": []})
        ranks = {}
        for rank in range(traces.nranks):
            with traces.reader(rank) as reader:
                ranks[str(rank)] = reader.content_digest()
        plant("manifests", cfg_key, {
            "version": 1, "engine_version": "3", "nranks": traces.nranks,
            "memory_model": "separate", "engine": "sweep", "registry": "",
            "ranks": ranks,
            "slices": {},
            "shards": [{"regions": [i, i], "key": key}
                       for i, key in enumerate(keys)],
            "report": {"findings": [], "stats": {
                name: 0 for name in ("nranks", "events", "rma_ops",
                                     "local_accesses", "sync_matches",
                                     "regions", "epochs")}}})
        self._heals(traces, old, expected, corrupt=len(keys))
