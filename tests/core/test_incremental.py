"""Incremental checking: cache soundness and byte-identical reports.

The contract of ``CheckConfig(incremental=True)`` is *byte-identical
reports at any cache temperature*: cold (empty cache), fully warm
(unchanged traces), and partially warm (some inputs changed) runs must
all produce exactly the report the batch pipeline produces, and warm
runs must reuse every shard whose inputs did not change.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES
from repro.core import incremental
from repro.core.checker import check_traces
from repro.core.config import CheckConfig
from repro.core.incremental import IncrementalChecker
from repro.core.model import check_mem_rows
from repro.core.plan import build_control_state
from repro.core.preprocess import preprocess_calls_with_counts
from repro.gen import GenConfig, generate_program
from repro.gen.fuzz import profile_program
from repro.profiler.events import CallEvent, MemEvent
from repro.profiler.session import profile_run
from repro.profiler.tracer import (
    TraceReader, TraceSet, TraceWriter, read_mems,
)
from repro.simmpi import DOUBLE
from repro.util.location import SourceLocation
from tests.reference.incremental import (
    slice_digests as reference_slice_digests,
)
from tests.reference.matching import match_table

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


def batch_for(case, memory_model, jobs=1) -> str:
    key = (case.name, memory_model, jobs)
    if key not in _BATCH:
        _BATCH[key] = canonical(check_traces(
            traces_for(case),
            CheckConfig(memory_model=memory_model, jobs=jobs)))
    return _BATCH[key]


class TestReportIdentity:
    """Canonical bytes (``stats.rma_ops`` / ``local_accesses`` included)
    of incremental cold / warm / re-check == the plain check's, over the
    Table II corpus x both models x both formats, and over generated
    programs.  The cache is serial; ``jobs`` is the plain check's, so
    what the cache serves is the pooled check's report too."""

    @staticmethod
    def _three_temperatures(traces, tmp_path, **config):
        plain = CheckConfig(**config)
        cached = plain.replace(incremental=True, jobs=1,
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
                             memory_model=memory_model)
        cold = canonical(check_traces(traces, config))
        warm = canonical(check_traces(traces, config))
        assert cold == batch_for(case, memory_model, jobs)
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


def _phased(mpi, extra=False, window="wbuf"):
    """Three fence/barrier-separated phases; ``extra`` adds a send/recv
    in the middle phase.  ``msg`` is allocated in both variants so later
    buffer addresses never shift between them."""
    wbuf = mpi.alloc(window, 8, datatype=DOUBLE, fill=0.0)
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
    def _traces(self, path, extra, **params):
        return profile_run(_phased, 2, params=dict(extra=extra, **params),
                           trace_dir=str(path),
                           trace_format="binary").traces

    def test_renamed_window_buffer_dirties_everything(self, tmp_path):
        """The same call columns over another string table — the window
        buffer renamed, every id as it was — are other calls: the
        registry differs, so no shard may hit."""
        a = self._traces(tmp_path / "a", extra=False)
        b = self._traces(tmp_path / "b", extra=False, window="xbuf")
        digests = []
        for traces in (a, b):
            with traces.reader(0) as reader:
                digests.append(reader.digests())
        assert digests[0]["calls"] == digests[1]["calls"]
        assert digests[0]["strings"] != digests[1]["strings"]
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        check_traces(a, config)
        report, outcomes = _outcomes(lambda: check_traces(b, config))
        assert outcomes["hit"] == 0 and outcomes["invalidated"] > 1
        assert canonical(report) == canonical(check_traces(b))

    def test_sync_fingerprints_are_a_function_of_the_match_set(self,
                                                               tmp_path):
        generated = generate_program(GenConfig(
            seed=1, nranks=5, rounds=3, bugs=(), trace_format="binary"))
        control = build_control_state(*preprocess_calls_with_counts(
            profile_program(generated,
                            trace_dir=str(tmp_path / "traces")).traces))
        # cuts, directed pairs, and a collective that is no cut
        matches = list(control.matches)
        del next(m for m in matches if m.is_global(5)).members[4]
        control.matches = match_table(matches)
        assert {(m.kind, m.is_global(5)) for m in control.matches} == {
            ("collective", True), ("collective", False),
            ("post_start", False), ("complete_wait", False)}
        fps = incremental._sync_fingerprints(control)
        assert fps.shape == (len(control.regions), 32)
        # neither the order matches were found in nor that of their members
        matches.reverse()
        for match in matches:
            match.members = dict(reversed(list(match.members.items())))
        control.matches = match_table(matches)
        assert np.array_equal(incremental._sync_fingerprints(control), fps)
        # a match that is no cut, changed: seen from its first region on
        for match in matches:
            if match.is_global(5):
                continue
            first = min(control.regions.region_of_seq(rank, seq)
                        for rank, seq in match.participants())
            match.index += 100
            control.matches = match_table(matches)
            moved = (incremental._sync_fingerprints(control) != fps).any(
                axis=1)
            assert not moved[:first].any() and moved[first:].all()
            match.index -= 100

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
        """A cache populated by the engine revision of the v2 trace era
        ("4", before calls became columns) is another revision's:
        nothing is served from it, the verdict is the cold one, and the
        run leaves a current cache behind."""
        fixture = pathlib.Path(__file__).parent.parent / "profiler" / \
            "fixtures" / "pingpong"
        traces = TraceSet(str(fixture))
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "cache"))
        assert incremental.ENGINE_VERSION == "6"
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

        def corrupted(damage):
            """Corrupt the manifest (disabling the whole-report fast
            path) and ``damage`` the run's pack; the next check
            recomputes, and the one after is fully warm again."""
            for path in _entries(config, "manifest"):
                path.write_text("{not json", encoding="utf-8")
            (pack,) = _entries(config, "pack")
            damage(pack)
            warm, outcomes = _outcomes(lambda: check_traces(traces, config))
            assert outcomes["corrupt"] >= 1 and outcomes["hit"] == 0
            assert canonical(warm) == cold
            checker = IncrementalChecker(traces, config)
            report = checker.run()
            assert checker.dirty_shards == []
            assert canonical(report) == cold

        # a torn write, then a key mismatch
        corrupted(lambda pack: pack.write_text("{not json",
                                               encoding="utf-8"))
        corrupted(lambda pack: pack.write_text(
            json.dumps({"key": "wrong", "shards": {}}), encoding="utf-8"))

    def test_jobs_above_one_are_rejected(self, tmp_path):
        """The cache is serial; asking for workers is an error, not a
        silently serial run."""
        cache = str(tmp_path / "cache")
        with pytest.raises(ValueError, match="incremental.*serial.*jobs"):
            CheckConfig(incremental=True, cache_dir=cache, jobs=2)
        CheckConfig(incremental=True, cache_dir=cache, jobs=0)  # serial


def _entries(config: CheckConfig, kind: str):
    """The cache's files of one kind (``manifest`` / ``pack``)."""
    return sorted(pathlib.Path(config.cache_dir).glob(f"*.{kind}"))


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

    def test_one_changed_address_reruns_one_shard(self, lu16, tmp_path,
                                                  monkeypatch):
        base, edited, config = lu16
        checker = IncrementalChecker(edited, self._fresh(config, tmp_path))
        # the re-check opens every rank file once and walks its memory
        # rows once, as a plain check does
        opened, walked = Counter(), Counter()
        monkeypatch.setattr(TraceReader, "_open", lambda self, path, real=
                            TraceReader._open: (opened.update([path]),
                                                real(self, path))[1])
        monkeypatch.setattr(TraceReader, "_segments", lambda self, real=
                            TraceReader._segments: (walked.update(
                                [self.path]), real(self))[1])
        report, outcomes = _outcomes(checker.run)
        assert opened == walked == Counter(edited.path(rank)
                                           for rank in range(16))
        assert canonical(report) == canonical(check_traces(edited))
        (dirty,) = checker.dirty_shards
        n_shards = len(checker.plan.keys)
        assert n_shards > 100
        assert outcomes == {"hit": n_shards - 1, "invalidated": 1,
                            "miss": 0, "corrupt": 0}

        plan, control, work = checker.plan, checker.control, checker.work()
        # the manifest serves every key it holds; the one it does not is
        # looked for in the pack
        assert work["shard_files_read"] == 1
        # lifted calls that entered the kernels: at most the calls inside
        # the shard's bounds
        lo, hi = plan.shards.lo[:, dirty], plan.shards.hi[:, dirty]
        inside = sum(
            1 for rank in range(16)
            for event in control.pre.events[rank]
            if lo[rank] < event.seq <= hi[rank])
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
        assert self.RANK in checker.ranks_loaded
        assert checker.ranks_loaded <= {self.RANK} | reads
        loaded = 0
        for rank in checker.ranks_loaded:
            with edited.reader(rank) as reader:
                loaded += reader.counts()["mem"]
        assert work["rows_loaded"] == loaded

        # the re-check healed the cache for the edited set
        again = IncrementalChecker(edited, checker.config)
        again.run()
        assert again.work() == {"calls_lifted": 0, "shard_files_read": 0,
                                "rows_loaded": 0}
        # ... and the pack still answers for the set before the edit
        back = IncrementalChecker(base, checker.config)
        assert canonical(back.run()) == canonical(check_traces(base))
        assert back.dirty_shards == []
        assert back.work()["shard_files_read"] == 1

    def test_bookkeeping_does_not_grow_with_the_runs(self, lu16, tmp_path):
        """Re-check after re-check over one cache directory — each set
        differing from the last in two ranks: every run opens at most
        the one pack, the directory stays two files, and the pack holds
        no more than two runs' keys."""
        base, _edited, config = lu16
        config = self._fresh(config, tmp_path)
        for rank in range(6):
            traces = perturbed(base, tmp_path / f"edit-{rank}", rank=rank)
            checker = IncrementalChecker(traces, config)
            assert canonical(checker.run()) == canonical(check_traces(traces))
            assert 1 <= len(checker.dirty_shards) <= 2
            assert checker.work()["shard_files_read"] == 1
            files = sorted(p.suffix for p in
                           pathlib.Path(config.cache_dir).iterdir())
            assert files == [".manifest", ".pack"]
            (pack,) = _entries(config, "pack")
            assert len(_pack_shards(config, pack)) <= \
                len(checker.plan.keys) + 2

    def test_unchanged_rerun_lifts_and_opens_nothing(self, lu16, tmp_path,
                                                     monkeypatch):
        base, _edited, config = lu16
        # the set is held open once, as a batch check holds it: each
        # file opened once, and every one closed when run() returns
        log = []
        monkeypatch.setattr(TraceReader, "_open", lambda self, path, real=
                            TraceReader._open: (log.append(("open", path)),
                                                real(self, path))[1])
        monkeypatch.setattr(TraceReader, "close", lambda self, real=
                            TraceReader.close: (log.append(
                                ("close", self.path)), real(self))[1])
        checker = IncrementalChecker(base, self._fresh(config, tmp_path))
        _report, outcomes = _outcomes(checker.run)
        paths = [base.path(rank) for rank in range(16)]
        assert log == [("open", path) for path in paths] + [
            ("close", path) for path in paths]
        assert outcomes["hit"] > 100 and sum(outcomes.values()) == \
            outcomes["hit"]
        assert checker.work() == {"calls_lifted": 0, "shard_files_read": 0,
                                  "rows_loaded": 0}
        assert checker.ranks_loaded == set()

    def test_without_a_manifest_every_shard_is_one_file_read(self, lu16,
                                                             tmp_path):
        """The previous run's pack alone (manifest lost) still answers
        for every shard, with one file opened: rows are read to rebuild
        the slice digests, but no call is lifted."""
        base, _edited, config = lu16
        config = self._fresh(config, tmp_path)
        for path in _entries(config, "manifest"):
            path.unlink()
        checker = IncrementalChecker(base, config)
        report = checker.run()
        assert canonical(report) == canonical(check_traces(base))
        assert checker.dirty_shards == []
        work = checker.work()
        assert len(checker.plan.keys) > 100
        assert work["shard_files_read"] == 1
        assert work["calls_lifted"] == 0
        assert checker.ranks_loaded == set(range(16))

    def test_cold_run_bookkeeping_does_not_grow_with_the_shards(
            self, lu16, tmp_path, monkeypatch):
        """A cold populate of several hundred shards, none with a
        finding: at most three files under the cache directory, every
        rank file opened once, and no ``CallEvent`` built that the plain
        check does not build."""
        base, _edited, _config = lu16
        # every open of a rank file, whoever asks for it
        opened = []
        open_file = TraceReader._open
        monkeypatch.setattr(TraceReader, "_open", lambda self, path: (
            opened.append(int(os.path.basename(path).split(".")[1])),
            open_file(self, path))[1])

        def events_built(config):
            rec = obs.configure(enabled=True)
            try:
                report = check_traces(TraceSet(base.directory), config)
            finally:
                obs.reset()
            return report, int(rec.registry.get(
                "analyzer_views_built_total").value(kind="event"))

        plain, built = events_built(CheckConfig())
        assert sorted(opened) == list(range(16))
        del opened[:]
        cache = tmp_path / "cache"
        config = CheckConfig(incremental=True, cache_dir=str(cache))
        cold, built_cold = events_built(config)
        assert canonical(cold) == canonical(plain) and not cold.findings
        assert sorted(opened) == list(range(16))
        assert built_cold == built
        files = [p for p in cache.rglob("*") if p.is_file()]
        assert len(files) <= 3, files
        checker = IncrementalChecker(base, config.replace(
            cache_dir=str(tmp_path / "other")))
        checker.run()
        assert len(checker.plan.keys) > 100
        assert checker.work()["shard_files_read"] == 0


def _flip(path, fraction: float) -> None:
    """Flip one bit of the byte ``fraction`` of the way into the file."""
    data = bytearray(path.read_bytes())
    data[min(int(len(data) * fraction), len(data) - 1)] ^= 0x04
    path.write_bytes(bytes(data))


def _rewrite(config: CheckConfig, path, edit) -> None:
    """Re-store one cache entry after ``edit(payload)`` — a tampered
    entry whose checksum and key are nevertheless valid."""
    store = incremental.CacheStore(config.cache_dir)
    kind = path.suffix[1:]
    payload, blob, status = store.load(kind, path.stem)
    assert status == "hit"
    edit(payload)
    store.store(kind, path.stem, payload, blob)


def _pack_shards(config: CheckConfig, path) -> dict:
    """What one pack holds: shard key -> payload (``None``: the shard
    had no findings)."""
    payload, _blob, status = incremental.CacheStore(
        config.cache_dir).load("pack", path.stem)
    assert status == "hit"
    return payload["shards"]


class TestCacheMutations:
    """Any bytes in the cache: a mutated entry is recomputed and
    published again — never a crash, a served stale finding, or a
    changed ``stats`` block — and the run after is fully warm again."""

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
        "flip-late", "no-newline", "old-layout", "not-json", "binary-junk",
        "truncated-in-header", "truncated-after-header",
        "truncated-after-json", "truncated-in-table"])
    def test_manifest_bytes(self, populated, mutation):
        traces, edited, config, expected, expected_edited = populated
        (manifest,) = _entries(config, "manifest")
        data = manifest.read_bytes()
        # the sections: header line, JSON line, the digest table
        header = data.index(b"\n") + 1
        table = data.index(b"\n", header) + 1
        assert header == 65 and len(data) - table >= 40
        if mutation == "empty":
            manifest.write_bytes(b"")
        elif mutation.startswith("truncated"):
            manifest.write_bytes(data[:{
                "": len(data) // 2, "-in-header": 32,
                "-after-header": header, "-after-json": table,
                "-in-table": len(data) - 7}[mutation[9:]]])
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
        # come from the pack, and exactly one is recomputed
        checker = IncrementalChecker(edited, config)
        assert canonical(checker.run()) == expected_edited
        assert len(checker.dirty_shards) == 1
        self._heals(traces, config, expected)

    @pytest.mark.parametrize("field,value", [
        ("events", "12"), ("events", 1.5), ("rma_ops", True),
        ("regions", None), ("epochs", [3])])
    def test_manifest_wrong_typed_counts(self, populated, field, value):
        traces, _edited, config, expected, _ = populated
        (manifest,) = _entries(config, "manifest")

        def edit(payload):
            payload["report"]["stats"][field] = value
        _rewrite(config, manifest, edit)
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
        findings: the shards with findings are one pack opened.)"""
        traces, edited, config, expected, expected_edited = populated
        # a shard with findings that the edit leaves clean
        shutil.copytree(config.cache_dir, tmp_path / "probe-cache")
        probe = IncrementalChecker(edited, config.replace(
            cache_dir=str(tmp_path / "probe-cache")))
        probe.run()
        (dirty,) = probe.dirty_shards
        clean = set(probe.plan.keys) - {probe.plan.keys[dirty]}
        (pack,) = _entries(config, "pack")
        victim = next(key for key, found in sorted(
            _pack_shards(config, pack).items()) if found and key in clean)

        def tamper(payload):
            found = payload["shards"][victim]
            part = found["intra"] or found["inter"]
            edit(part, part[0][1], found)
        _rewrite(config, pack, tamper)
        checker = IncrementalChecker(edited, config)
        report, outcomes = _outcomes(checker.run)
        assert canonical(report) == expected_edited
        assert outcomes["corrupt"] == 1 and len(checker.dirty_shards) == 2
        assert checker.work()["shard_files_read"] == 1
        self._heals(edited, config, expected_edited)
        # the recomputed shard replaced the tampered one where it lay: a
        # second change of the set (back to the unedited one) finds it
        checker = IncrementalChecker(traces, config)
        report, outcomes = _outcomes(checker.run)
        assert canonical(report) == expected
        assert outcomes["corrupt"] == 0 and checker.dirty_shards == []

    def test_manifest_claims_no_findings_only_for_its_own_keys(self,
                                                               populated):
        """The manifest serves "no findings" from memory only for keys it
        lists as clean; dropping its list of shards with findings must
        not hide them — the fast path's report is what is at stake."""
        traces, edited, config, expected, expected_edited = populated
        (manifest,) = _entries(config, "manifest")
        _rewrite(config, manifest,
                 lambda payload: payload["shards"].pop("found"))
        assert canonical(check_traces(edited, config)) == expected_edited
        self._heals(traces, config, expected)

    def _without_manifest(self, config):
        """Drop the manifest; the run's one pack and how many shards it
        answers for."""
        for path in _entries(config, "manifest"):
            path.unlink()
        (pack,) = _entries(config, "pack")
        return pack, len(_pack_shards(config, pack))

    @pytest.mark.parametrize("mutation", [
        "empty", "truncated", "flip-checksum", "flip-body", "old-layout",
        "truncated-in-header", "truncated-after-header", "flip-index"])
    def test_shard_file_bytes(self, populated, mutation):
        """The pack's sections — header line, then the JSON object whose
        keys are the index and whose values are the bodies — truncated
        at each boundary and flipped inside each: every shard it
        answered for is a corrupt lookup, recomputed."""
        traces, _edited, config, expected, _ = populated
        pack, n_shards = self._without_manifest(config)
        data = pack.read_bytes()
        if mutation == "empty":
            pack.write_bytes(b"")
        elif mutation.startswith("truncated"):
            pack.write_bytes(data[:{"": len(data) - 7, "-in-header": 32,
                                    "-after-header": 65}[mutation[9:]]])
        elif mutation.startswith("flip"):
            index = data.index(b'"shards":{"') + 15    # inside a key
            _flip(pack, {"checksum": 0.0005, "index": index / len(data),
                         "body": 0.9}[mutation[5:]])
        else:
            pack.write_bytes(data.partition(b"\n")[2])
        self._heals(traces, config, expected, corrupt=n_shards)
        assert _pack_shards(config, pack)     # published again, in place

    def test_swapped_shard_files(self, populated):
        """Two packs — one per memory model — under each other's names:
        neither is served, under either config."""
        traces, _edited, config, expected, _ = populated
        unified = config.replace(memory_model="unified")
        expected_unified = canonical(check_traces(
            traces, CheckConfig(memory_model="unified")))
        assert canonical(check_traces(traces, unified)) == expected_unified
        first, last = _entries(config, "pack")
        n_shards = len(_pack_shards(config, first))
        assert n_shards == len(_pack_shards(config, last))
        for path in _entries(config, "manifest"):
            path.unlink()
        swap = first.read_bytes()
        assert swap != last.read_bytes()
        first.write_bytes(last.read_bytes())
        last.write_bytes(swap)
        self._heals(traces, config, expected, corrupt=n_shards)
        self._heals(traces, unified, expected_unified, corrupt=n_shards)

    def test_shard_file_positions_out_of_range(self, populated):
        traces, _edited, config, expected, _ = populated
        pack, n_shards = self._without_manifest(config)

        def edit(payload):
            shards = payload["shards"]
            for key, found in shards.items():
                if found and found["intra"]:
                    found["intra"][0][0] += 10 ** 4
                else:
                    shards[key] = {"intra": [], "inter": [[10 ** 4, []]]}
        _rewrite(config, pack, edit)
        self._heals(traces, config, expected, corrupt=n_shards)

    def test_stray_tmp_files_are_ignored(self, populated):
        traces, edited, config, expected, expected_edited = populated
        for path in _entries(config, "pack") + _entries(config, "manifest"):
            (path.parent / "tmpabc123.tmp").write_bytes(
                path.read_bytes()[:20])
            # ... nor is a file the store would not have named
            (path.parent / f"copy.{path.name}").write_bytes(b"{not json")
        assert canonical(check_traces(edited, config)) == expected_edited
        report, outcomes = _outcomes(lambda: check_traces(traces, config))
        assert canonical(report) == expected and outcomes["corrupt"] == 0
        self._heals(traces, config, expected)

    def _keys(self, traces, config) -> list:
        """The shard keys of ``traces`` under ``config``, from a cold run
        over a cache of its own."""
        with tempfile.TemporaryDirectory() as cache_dir:
            checker = IncrementalChecker(
                traces, config.replace(cache_dir=cache_dir))
            checker.run()
            return checker.plan.keys

    def test_old_engine_version_cache_directory(self, populated, tmp_path):
        """A cache written by an old engine revision — bare JSON
        entries, the v3 manifest layout — under the very file names this
        revision uses, claiming the (buggy) program clean: nothing of it
        is served, all of it is replaced."""
        traces, _edited, config, expected, _ = populated
        keys = self._keys(traces, config)
        old = config.replace(cache_dir=str(tmp_path / "old-cache"))
        (tmp_path / "old-cache").mkdir()
        (manifest,) = _entries(config, "manifest")
        (pack,) = _entries(config, "pack")

        def plant(name, payload):
            (tmp_path / "old-cache" / name).write_text(json.dumps(
                dict(payload, key=name.partition(".")[0])))
        plant(pack.name, {"shards": dict.fromkeys(keys)})
        ranks = {}
        for rank in range(traces.nranks):
            with traces.reader(rank) as reader:
                ranks[str(rank)] = reader.content_digest()
        plant(manifest.name, {
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

    def test_v5_era_cache_directory(self, populated, tmp_path, monkeypatch):
        """A directory laid out as engine revision "5" left it — one
        checksummed file per shard under ``shards/<kk>/``, the manifest
        under ``manifests/<kk>/`` — claiming the (buggy) program clean:
        the run demotes it (every shard a miss), opens none of its
        files, leaves them as they are and publishes a current cache
        beside them."""
        traces, _edited, config, expected, _ = populated
        keys = self._keys(traces, config)
        old = config.replace(cache_dir=str(tmp_path / "v5-cache"))
        cfg_key = IncrementalChecker(traces, old)._cfg_key()

        def plant(kind, key, payload):
            body = json.dumps(dict(payload, key=key), sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            path = tmp_path / "v5-cache" / kind / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(hashlib.sha256(body).hexdigest().encode(
                "ascii") + b"\n" + body)
        for key in keys:
            plant("shards", key, {"intra": [], "inter": []})
        plant("manifests", cfg_key, {
            "version": 2, "engine_version": "5", "nranks": traces.nranks,
            "memory_model": "separate",
            "ranks": {str(rank): "" for rank in range(traces.nranks)},
            "slices": {}, "shards": {
                "first": list(range(len(keys))),
                "last": list(range(len(keys))), "keys": keys, "found": []},
            "report": {"findings": [], "stats": {}}})
        planted = {path: path.read_bytes() for path in
                   (tmp_path / "v5-cache").rglob("*.json")}
        assert len(planted) == len(keys) + 1
        opened = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open", lambda file, *args, **kwargs: (
                opened.append(str(file)), real_open(file, *args, **kwargs))[1])
        report, outcomes = _outcomes(lambda: check_traces(traces, old))
        monkeypatch.undo()
        assert canonical(report) == expected
        assert outcomes == {"hit": 0, "miss": len(keys), "invalidated": 0,
                            "corrupt": 0}
        assert not [name for name in opened if name.endswith(".json")]
        assert planted == {path: path.read_bytes() for path in planted}
        assert len(_entries(old, "manifest")) == len(_entries(old, "pack")) \
            == 1
        self._heals(traces, old, expected, corrupt=0)


class TestUnwritableCache:
    """A cache that cannot be written never costs the verdict."""

    def test_cache_dir_that_is_a_file_is_refused_up_front(self, tmp_path):
        (tmp_path / "cache").write_text("not a directory")
        with pytest.raises(ValueError, match="not a directory"):
            CheckConfig(incremental=True, cache_dir=str(tmp_path / "cache"))

    def test_write_errors_are_counted_and_the_report_returned(
            self, tmp_path, capsys):
        """The cache directory cannot be created (its parent is a
        regular file — what a directory removed mid-run or a full disk
        also raise is an ``OSError``): the pack and the manifest are
        each a counted write error, one line is logged, and the report
        is the plain check's."""
        case = ALL_CASES[0]
        (tmp_path / "blocker").write_text("")
        config = CheckConfig(incremental=True,
                             cache_dir=str(tmp_path / "blocker" / "cache"))
        rec = obs.configure(enabled=True)
        try:
            report = check_traces(traces_for(case), config)
        finally:
            obs.reset()
        assert canonical(report) == batch_for(case, "separate")
        errors = rec.registry.get("incremental_cache_write_errors_total")
        assert errors.value(kind="pack") == errors.value(kind="manifest") == 1
        assert capsys.readouterr().out.count("incremental cache: cannot") == 1


# ---------------------------------------------------------------------------
# slice digests from columns tell the same slices apart as the event
# encoding they replaced (tests/reference/incremental.py)
# ---------------------------------------------------------------------------

_LOCS = [SourceLocation("app.c", line, "main") for line in (7, 8, 30)]
_CALL_FORMS = [
    ("Barrier", lambda v: {"comm": v % 3}),
    ("Put", lambda v: {"win": 1, "target": v % 4, "count": v,
                       "var": f"buf{v % 3}"}),
    ("Type_indexed", lambda v: {"blocklengths": (1, v % 5),
                                "displacements": (0, v), "oldtype": 7}),
    # a value no call column holds (beyond int64): read as a codec row
    ("Get", lambda v: {"win": 1, "disp": (1 << 70) + v}),
]


def _rank_events(draw_ints):
    """A rank's events from a list of small ints: calls of four forms
    and load/store rows, seq = position."""
    events = []
    for seq, v in enumerate(draw_ints):
        if v % 3 == 0:
            events.append(MemEvent(0, seq, ("load", "store")[v % 2],
                                   4096 + 8 * v, 8, f"x{v % 2}",
                                   _LOCS[v % 3]))
        else:
            fn, args = _CALL_FORMS[v % 4]
            events.append(CallEvent(0, seq, fn, args(v), _LOCS[v % 3]))
    return events


def _both_digests(events, directory, trace_format, lo, hi):
    """(columnar, reference) slice digests of the events written to and
    read back from one rank file."""
    os.makedirs(directory, exist_ok=True)
    path = TraceSet.rank_path(str(directory), 0, trace_format)
    with TraceWriter(path, 0, 1, format=trace_format) as writer:
        for event in events:
            writer.write(event)
    with TraceReader(path) as reader:
        cols, _counts = reader.read_calls()
        rows, offsets = read_mems([reader])
        check_mem_rows(rows, offsets, reader.call_table)
        strings = incremental._strings_digest(reader)
    bounds = np.array([lo]), np.array([hi])
    return (incremental.slice_digests(cols, rows, strings, *bounds).tobytes(),
            reference_slice_digests(list(cols), rows, strings, [lo], [hi])[0])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.integers(0, 40), min_size=4, max_size=24),
       at=st.integers(0, 23), what=st.sampled_from(
           ["value", "event", "seq", "loc", "nothing"]),
       bounds=st.tuples(st.integers(-1, 28), st.integers(1, 12)),
       trace_format=st.sampled_from(["binary", "text"]))
def test_prop_column_digest_changes_iff_the_event_digest_does(
        tmp_path_factory, values, at, what, bounds, trace_format):
    """Alter one call argument, memory row, ``seq`` or location, inside
    or outside the slice: the columnar digest moves exactly when the
    ``repr``-based one does."""
    lo, hi = bounds[0], sum(bounds)       # as a shard's: lo < hi
    root = tmp_path_factory.mktemp("slices")
    events = _rank_events(values)
    at %= len(events)
    edited = list(events)
    if what in ("value", "event"):
        values = list(values)
        # the same form with another argument / address, or another
        # event altogether (form, strings, location)
        values[at] += 12 if what == "value" else 5
        edited = _rank_events(values)
    elif what == "seq":           # the last event moves later
        edited[-1] = dataclasses.replace(edited[-1], seq=len(events) + 3)
    elif what == "loc":
        edited[at] = dataclasses.replace(
            edited[at], loc=SourceLocation("app.c", 99, "helper"))
    was, was_ref = _both_digests(events, root / "a", trace_format, lo, hi)
    now, now_ref = _both_digests(edited, root / "b", trace_format, lo, hi)
    assert (was == now) == (was_ref == now_ref)
    if what == "nothing":
        assert was == now
