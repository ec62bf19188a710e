"""Persistent shared-memory worker pool behind ``MCChecker(jobs=N)``.

The serial DN-Analyzer decomposes along two natural shard axes:

* **rank shards** — trace parsing, registry scanning, and access-model
  lifting touch one rank's events at a time (plus the merged, read-only
  registries), so each rank is an independent unit of work;
* **region/epoch shards** — cross-process detection never crosses a
  concurrent-region boundary (regions are separated by global
  synchronization, so cross-region pairs are ordered by construction)
  and intra-epoch detection never crosses an epoch, so contiguous chunks
  of regions/epochs are independent units of work.

One :class:`WorkerPool` of long-lived processes serves *all* phases of a
run — preprocess → lift → intra → inter, and the incremental checker's
dirty-shard recompute — instead of forking a fresh pool per phase.
Phase state is *installed* incrementally over each worker's pipe
(the registries once, then the lifted ops/locals once, ...), and task
messages carry only small descriptors:

* scan tasks take a rank number and return the rank's registry scan
  plus its call events (memory events are only counted, never decoded);
* lift tasks take ``(rank, segment_name)``; the worker reads its
  events from disk (the install ships only
  :meth:`PreprocessedTrace.registry_view`, never the call stream),
  copies the rank's packed memory columns into a named
  ``multiprocessing.shared_memory`` segment and returns ops/locals
  plus the segment *descriptor* — the columns themselves never cross
  the pipe;
* detection tasks take ``(phase, lo, hi)`` chunk bounds only and hand
  the whole chunk to the phase's batch kernel.  The single
  detect install carries ops/locals together with the parent's
  epoch/region indexes (identity survives within one pickle payload,
  so no re-interning is needed worker-side).  Each worker rebuilds
  the epoch/region unit lists locally (:func:`build_detect_units` is
  deterministic), attaches the shared ``MemRows`` segments once, and
  indexes into its own unit list — ``intra_units``/``inter_units`` are
  never pickled.

Results are merged *in shard order*, which keeps the parallel report
byte-identical to the serial one: every list the serial code builds is
reassembled in exactly the iteration order the serial code would have
used (ranks ascending, epochs in index order, regions ascending) and
deduplication happens once, in the parent, just as in ``MCChecker``.

Start-method portability: the pool works identically under ``fork`` and
``spawn`` (forced via ``MCCHECKER_START_METHOD``) because nothing relies
on inherited address space — all state arrives through installs and all
bulk data through shared segments, which workers attach by name on first
use.  Shared segments are named after the owning pool and unlinked by
the parent at end of run, including after a worker crash, so no
``/dev/shm`` entries outlive an analysis.

Observability: when the parent recorder is enabled, each worker task
runs under its own :class:`~repro.obs.recorder.Recorder` and returns its
``export_state()`` beside the result; the parent ``absorb``s these, so
worker spans and counters land in the parent's exporters.  The pool
itself publishes ``parallel_pool_created_total`` /
``parallel_pool_reused_total`` and per-phase
``parallel_pickled_bytes_total{phase,kind}`` /
``parallel_shm_bytes_total{phase}``, which is how the flight recorder
proves the zero-copy claim (mem-event bytes appear under ``shm``, not
under ``pickled``).
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing as mp
import os
import pickle
import threading
import traceback
import uuid
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.calltable import attach_table, share_table
from repro.core.config import resolve_jobs
from repro.core.diagnostics import ConsistencyError
from repro.core.engine import (
    build_detect_units, check_epochs_sweep, detect_regions_sweep,
)
from repro.core.epochs import EpochIndex
from repro.core.inter import _LocalLockIndex
from repro.core.model import (
    AccessModel, MemRows, attach_rows, lift_rank_sweep, share_rows,
)
from repro.core.preprocess import PreprocessedTrace, scan_rank
from repro.core.regions import RegionIndex
from repro.obs.recorder import NullRecorder
from repro.profiler.tracer import TraceSet

#: env var forcing the multiprocessing start method ("fork"/"spawn") —
#: the spawn-parity tests and CI set it; unset picks fork when available
START_METHOD_ENV = "MCCHECKER_START_METHOD"


def start_method() -> str:
    """The start method every pool uses — the single copy of the
    fork-else-default selection (``MCCHECKER_START_METHOD`` overrides)."""
    forced = os.environ.get(START_METHOD_ENV)
    if forced:
        return forced
    return ("fork" if "fork" in mp.get_all_start_methods()
            else mp.get_start_method())


def _chunk_bounds(n: int, jobs: int, per_job: int = 4) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` chunks over ``n`` units: about ``per_job``
    chunks per worker for load balance, while contiguity keeps the
    in-order merge trivial."""
    nchunks = min(n, jobs * per_job)
    step = -(-n // nchunks)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


# ------------------------------------------------------------ worker side


#: per-worker phase state, merged by every ``install`` message and
#: cleared by ``reset`` (end of run)
_WORKER: Dict[str, Any] = {}

#: bumped on every install/reset so derived state knows it is stale
_WORKER_GEN = [0]

#: derived (per-generation) state, e.g. the rebuilt detect units
_DERIVED: Dict[str, Any] = {}

#: shared segments this process attached: name -> (handle, MemRows)
_ATTACHED: Dict[str, Tuple[Optional[SharedMemory], MemRows]] = {}

#: task registry: tasks are dispatched by (module, name) so spawn
#: workers — and fork workers older than the registering import — can
#: resolve them by importing the module
_TASKS: Dict[str, Callable] = {}


def _pool_task(name: str):
    def register(fn):
        fn._pool_task_name = name
        _TASKS[name] = fn
        return fn
    return register


def _task_recorder() -> NullRecorder:
    """Task-local recorder (storing when the parent wants worker obs),
    installed as this worker process's recorder so what library code
    records below the task — the engine's funnel — is exported with it."""
    return obs.configure(enabled=bool(_WORKER.get("obs")))


def _export(rec: NullRecorder) -> Optional[dict]:
    return rec.export_state() if rec.enabled else None


def absorb_export(export: Optional[dict]) -> None:
    """Fold a worker recorder's exported state into the parent recorder."""
    if export is not None:
        obs.get_recorder().absorb(export)


def worker_rows(desc: dict) -> MemRows:
    """The :class:`MemRows` a share descriptor names, attached at most
    once per process and cached until the next ``reset``."""
    name = desc.get("name")
    if name is None:
        rows, _handle = attach_rows(desc)
        return rows
    entry = _ATTACHED.get(name)
    if entry is None:
        rows, handle = attach_rows(desc)
        entry = _ATTACHED[name] = (handle, rows)
    return entry[1]


def _reset_worker() -> None:
    _WORKER.clear()
    _DERIVED.clear()
    _WORKER_GEN[0] += 1
    for handle, _rows in _ATTACHED.values():
        if handle is None:
            continue
        try:
            handle.close()
        except BufferError:
            # a stray view still references the mapping; the mapping is
            # released when the view goes, the name is the parent's to
            # unlink either way
            pass
    _ATTACHED.clear()


def _pickle(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(conn) -> None:
    """One pool worker: drain (kind, payload) messages until ``stop``."""
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            kind, payload = pickle.loads(raw)
            if kind == "stop":
                break
            if kind == "reset":
                _reset_worker()
                conn.send_bytes(_pickle(("ok", None)))
            elif kind == "install":
                _WORKER.update(payload)
                _WORKER_GEN[0] += 1
            elif kind == "task":
                module, name, items = payload
                fn = _TASKS.get(name)
                if fn is None:
                    importlib.import_module(module)
                    fn = _TASKS[name]
                results = [(idx, fn(arg)) for idx, arg in items]
                conn.send_bytes(_pickle(("ok", results)))
        except BaseException:
            try:
                conn.send_bytes(_pickle(("err", traceback.format_exc())))
            except Exception:
                break
    _reset_worker()
    conn.close()


# ------------------------------------------------------------ parent side


def _count_bytes(metric: str, phase: str, kind: str, nbytes: int) -> None:
    if nbytes:
        obs.count(metric, nbytes, phase=phase, kind=kind,
                  help="Bytes crossing worker-pool pipes, by phase")


class WorkerPool:
    """``jobs`` persistent worker processes with per-worker duplex pipes.

    Lifecycle: :func:`acquire_pool` creates (or reuses) a pool;
    :meth:`begin_run` resets worker state for a fresh analysis;
    :meth:`install` broadcasts phase state; :meth:`run` scatters task
    args round-robin and gathers results back in argument order;
    :meth:`end_run` resets workers and unlinks every shared segment the
    run registered — including segments a crashed worker left behind.
    The processes themselves survive across runs (that is the point);
    :meth:`shutdown` ends them.
    """

    def __init__(self, jobs: int, method: Optional[str] = None):
        self.jobs = max(1, jobs)
        self.method = method or start_method()
        self.broken = False
        self._lock = threading.RLock()
        self._conns = []
        self._procs = []
        #: shared segments of the current run: name -> parent handle
        #: (None until/unless the parent attached or created it)
        self._segments: Dict[str, Optional[SharedMemory]] = {}
        self._token = uuid.uuid4().hex[:8]
        self._seg_counter = 0
        # start the resource tracker before the workers exist so every
        # process shares one tracker and attach/create registrations
        # stay balanced by the single parent-side unlink
        if hasattr(resource_tracker, "ensure_running"):
            resource_tracker.ensure_running()
        ctx = mp.get_context(self.method)
        for i in range(self.jobs):
            parent_end, child_end = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main, args=(child_end,),
                               name=f"mc-pool-{i}", daemon=True)
            proc.start()
            child_end.close()
            self._conns.append(parent_end)
            self._procs.append(proc)

    # -- liveness ------------------------------------------------------

    def alive(self) -> bool:
        return (not self.broken
                and all(proc.is_alive() for proc in self._procs))

    # -- run lifecycle -------------------------------------------------

    def begin_run(self) -> None:
        """Reset worker state and install the run's obs flag."""
        with self._lock:
            self._broadcast_reset()
            self.install("run", {"obs": obs.is_enabled()})

    def end_run(self) -> None:
        """Reset workers (drop installed state, detach segments) and
        unlink every segment this run registered.  Safe on a broken
        pool: the reset is skipped, the unlink still runs."""
        with self._lock:
            if not self.broken:
                try:
                    self._broadcast_reset()
                except Exception:
                    self.broken = True
            self._unlink_segments()

    def _broadcast_reset(self) -> None:
        blob = _pickle(("reset", None))
        for conn in self._conns:
            conn.send_bytes(blob)
        for conn in self._conns:
            status, _payload = pickle.loads(conn.recv_bytes())
            if status != "ok":
                raise RuntimeError("worker failed to reset")

    # -- shared segments -----------------------------------------------

    def new_segment_name(self, rank: int) -> str:
        """A pool-unique shm name (short enough for every platform)."""
        self._seg_counter += 1
        return f"mcc-{self._token}-{self._seg_counter}-r{rank}"

    def expect_segment(self, name: str) -> None:
        """Register a name *before* dispatching the task that creates
        it, so :meth:`end_run` can clean up even if the worker dies."""
        self._segments.setdefault(name, None)

    def adopt_segment(self, name: str, handle: SharedMemory) -> None:
        """Hand the parent-side handle of a segment to the pool."""
        self._segments[name] = handle

    def release_segment(self, name: str) -> None:
        """Unlink a segment eagerly (its contents were copied out) and
        drop it from the run's registry."""
        handle = self._segments.pop(name, None)
        if handle is None:
            try:
                handle = SharedMemory(name=name)
            except FileNotFoundError:
                return
            except Exception:
                return
        try:
            handle.close()
        except BufferError:
            pass
        try:
            handle.unlink()
        except FileNotFoundError:
            pass

    def _unlink_segments(self) -> None:
        for name, handle in list(self._segments.items()):
            if handle is None:
                try:
                    handle = SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                except Exception:
                    continue
            try:
                handle.close()
            except BufferError:
                # live views (e.g. a kept CheckReport's model) still map
                # the segment; unlinking below removes the name while
                # existing mappings stay valid until they are dropped
                pass
            try:
                handle.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    # -- messaging -----------------------------------------------------

    def install(self, phase: str, state: Dict[str, Any]) -> None:
        """Broadcast phase state into every worker's ``_WORKER`` dict.

        One install message is one pickle payload, so objects shared
        between entries (e.g. ``local`` entries referencing ``ops``)
        keep their shared identity worker-side."""
        with self._lock:
            self._check_alive(phase)
            blob = _pickle(("install", state))
            for conn in self._conns:
                conn.send_bytes(blob)
            _count_bytes("parallel_pickled_bytes_total", phase, "install",
                         len(blob) * len(self._conns))

    def run(self, phase: str, task: str, args: Sequence[Any]) -> list:
        """Scatter ``task`` over ``args`` (round-robin), gather results
        in argument order.  A worker exception surfaces as a
        ``RuntimeError`` carrying the worker traceback; a worker death
        marks the pool broken (the next :func:`acquire_pool` replaces
        it)."""
        if not args:
            return []
        with self._lock:
            self._check_alive(phase)
            module = _TASKS[task].__module__ if task in _TASKS else task
            per_worker: List[list] = [[] for _ in range(self.jobs)]
            for idx, arg in enumerate(args):
                per_worker[idx % self.jobs].append((idx, arg))
            active, sent = [], 0
            for w, items in enumerate(per_worker):
                if not items:
                    continue
                blob = _pickle(("task", (module, task, items)))
                self._conns[w].send_bytes(blob)
                sent += len(blob)
                active.append(w)
            _count_bytes("parallel_pickled_bytes_total", phase, "task",
                         sent)
            results: List[Any] = [None] * len(args)
            received = 0
            failure: Optional[RuntimeError] = None
            for w in active:
                try:
                    raw = self._conns[w].recv_bytes()
                except (EOFError, OSError):
                    self.broken = True
                    raise RuntimeError(
                        f"mc-checker pool worker {w} died during phase "
                        f"{phase!r} (task {task!r})") from None
                received += len(raw)
                status, payload = pickle.loads(raw)
                if status != "ok":
                    # keep draining, so every segment the other workers
                    # were expected to create exists when end_run unlinks
                    self.broken = True
                    failure = failure or RuntimeError(
                        f"worker {w} failed in phase {phase!r} "
                        f"(task {task!r}):\n{payload}")
                    continue
                for idx, value in payload:
                    results[idx] = value
            _count_bytes("parallel_pickled_bytes_total", phase, "result",
                         received)
            if failure is not None:
                raise failure
            return results

    def _check_alive(self, phase: str) -> None:
        if self.broken:
            raise RuntimeError(
                f"worker pool is broken (phase {phase!r}); acquire a "
                "fresh pool")
        for w, proc in enumerate(self._procs):
            if not proc.is_alive():
                self.broken = True
                raise RuntimeError(
                    f"mc-checker pool worker {w} is dead (exit code "
                    f"{proc.exitcode}) entering phase {phase!r}")

    # -- teardown ------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and unlink any leftover segments."""
        with self._lock:
            blob = _pickle(("stop", None))
            for conn in self._conns:
                try:
                    conn.send_bytes(blob)
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for proc in self._procs:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass
            self._unlink_segments()
            self.broken = True


#: process-global pool cache: (jobs, start method) -> pool.  Pools
#: survive across runs — reuse, not re-fork, is the whole point — and
#: are torn down by :func:`shutdown_pools` (registered atexit).
_POOLS: Dict[Tuple[int, str], WorkerPool] = {}


def acquire_pool(jobs: int, method: Optional[str] = None) -> WorkerPool:
    """The process-wide pool for ``jobs`` workers, created on first use
    and reused by every later run that asks for the same shape."""
    method = method or start_method()
    key = (jobs, method)
    pool = _POOLS.get(key)
    if pool is not None and pool.alive():
        obs.count("parallel_pool_reused_total",
                  help="Persistent worker-pool reuses across runs")
        return pool
    if pool is not None:
        pool.shutdown()
    pool = _POOLS[key] = WorkerPool(jobs, method)
    obs.count("parallel_pool_created_total",
              help="Persistent worker-pool creations")
    return pool


def shutdown_pools() -> None:
    """Stop every cached pool (used by tests and registered atexit)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


def pool_map(task, n_items: int, state: Dict[str, Any], jobs: int,
             phase: str = "map") -> list:
    """Run ``task(i)`` for ``i in range(n_items)`` over the persistent
    pool with ``state`` installed (plus the parent's obs flag),
    returning results in item order.

    ``task`` must be registered with ``@_pool_task``; the call reuses
    (or creates) the process-global pool, so back-to-back ``pool_map``
    calls no longer pay a fork per call.  The caller owns the run
    lifecycle — wrap the calls in ``begin_run``/``end_run`` via
    :func:`acquire_pool` when segments or stale state matter.
    """
    name = getattr(task, "_pool_task_name", None)
    if name is None:
        raise ValueError("pool_map task must be registered with "
                         "@_pool_task")
    pool = acquire_pool(resolve_jobs(jobs))
    state = dict(state)
    state["obs"] = obs.is_enabled()
    pool.install(phase, state)
    return pool.run(phase, name, list(range(n_items)))


# ---------------------------------------------------------------- tasks


@_pool_task("echo")
def _echo_task(arg):
    """Liveness probe (tests): returns its argument."""
    return arg


@_pool_task("crash")
def _crash_task(_arg):
    """Crash probe (tests): kills the worker process outright, so the
    parent's broken-pool and segment-cleanup paths can be exercised."""
    os._exit(13)


@_pool_task("scan")
def _scan_task(arg):
    """Preprocess shard: parse one rank's call events, return its
    registry scan and per-class counts (memory events are only *counted*
    — from the footer when the trace is binary — and never decoded
    here).

    ``arg`` is ``(rank, segment_name)``.  When ``segment_name`` is set
    (batch parallel run) the rank's
    :class:`~repro.core.calltable.CallTable` is published to the named
    shared segment and *no call events cross the pipe* — the parent
    rebuilds the table from the segment and the object stream stays
    worker-side.  When it is ``None`` the call events return pickled,
    as the incremental pool path requires."""
    rank, segment_name = arg
    rec = _task_recorder()
    traces: TraceSet = _WORKER["traces"]
    desc = None
    with rec.span("analyzer.worker.scan", rank=rank, pid=os.getpid()):
        with traces.reader(rank) as reader:
            calls, counts = reader.read_calls()
        scan = scan_rank(rank, calls,
                         n_events=counts["call"] + counts["mem"],
                         table=reader.call_table)
        if segment_name is not None:
            desc, handle = share_table(reader.call_table, segment_name)
            rec.count("parallel_shm_bytes_total", handle.size,
                      phase="preprocess",
                      help="Bytes published to shared MemRows "
                           "segments, by phase")
            handle.close()
            calls = []
    rec.count("parallel_tasks_total", phase="scan")
    return rank, scan, calls, counts, desc, _export(rec)


class _RankView:
    """Single-rank ``PreprocessedTrace`` facade: the call events and call
    table of one rank, registries delegated to the merged trace."""

    def __init__(self, pre: PreprocessedTrace, rank: int, events, table):
        self._pre = pre
        self.nranks = pre.nranks
        self.events = {rank: events}
        self.call_tables = {rank: table}

    def window(self, win_id: int):
        return self._pre.window(win_id)

    def datatype(self, rank: int, type_id: int):
        return self._pre.datatype(rank, type_id)

    def world_of_comm_rank(self, comm_id: int, comm_rank: int) -> int:
        return self._pre.world_of_comm_rank(comm_id, comm_rank)


@_pool_task("lift")
def _lift_task(arg):
    """Model shard: re-read one rank's trace (calls and call table in
    one pass, packed memory columns beside them) and lift its accesses
    against the merged registries and a per-rank epoch index.  The
    packed memory columns are copied into the named shared segment and
    only the descriptor returns — the rows never cross the pipe."""
    rank, segment_name = arg
    rec = _task_recorder()
    traces: TraceSet = _WORKER["traces"]
    pre: PreprocessedTrace = _WORKER["pre"]
    with rec.span("analyzer.worker.lift", rank=rank, pid=os.getpid()):
        with traces.reader(rank) as reader:
            calls, _counts = reader.read_calls(mems=True)
        view = _RankView(pre, rank, calls, reader.call_table)
        epochs = EpochIndex(view, ranks=[rank])
        ops, local, rows = lift_rank_sweep(view, epochs, rank,
                                           reader.call_mems)
        desc, handle = share_rows(rows, segment_name)
        if handle is not None:
            rec.count("parallel_shm_bytes_total", handle.size,
                      phase="model",
                      help="Bytes published to shared MemRows "
                           "segments, by phase")
            # the copy is complete; the segment stays linked under
            # its name, and this worker re-attaches like any other
            # if a detect task needs the rows later
            handle.close()
    rec.count("parallel_tasks_total", phase="lift")
    return rank, ops, local, desc, _export(rec)


def _detect_state(rec) -> Dict[str, Any]:
    """This worker's detect-phase state, derived once per install
    generation.  The install payload already carries the parent's
    ``epoch_index``/``regions`` alongside the ops — pickled together, so
    ``op.epoch`` identity survives the pipe and nothing needs
    re-interning or re-deriving here.  What remains worker-side is
    attaching the shared row segments and running the same deterministic
    :func:`build_detect_units` the parent ran (so chunk bounds index the
    identical unit lists without those lists ever being pickled)."""
    gen = _WORKER_GEN[0]
    cached = _DERIVED.get("detect")
    if cached is not None and cached["gen"] == gen:
        return cached
    with rec.span("analyzer.worker.prepare", pid=os.getpid()):
        pre: PreprocessedTrace = _WORKER["pre"]
        epoch_index: EpochIndex = _WORKER["epoch_index"]
        regions: RegionIndex = _WORKER["regions"]
        mems = {int(rank): worker_rows(desc)
                for rank, desc in (_WORKER.get("mems_shm") or {}).items()}
        model = AccessModel(ops=_WORKER["ops"], local=_WORKER["local"],
                            mems=mems)
        lock_index = _LocalLockIndex(epoch_index, pre.nranks)
        intra_units, inter_units = build_detect_units(
            model, epoch_index, regions)
    cached = _DERIVED["detect"] = {
        "gen": gen, "model": model, "pre": pre,
        "intra_units": intra_units, "inter_units": inter_units,
        "lock_index": lock_index,
    }
    return cached


@_pool_task("detect")
def _detect_task(arg: Tuple[str, int, int]):
    """One detection shard: ``(phase, lo, hi)`` names a contiguous chunk
    of the locally rebuilt ``intra``/``inter`` units, handed whole to
    the phase's sweep kernel."""
    phase, lo, hi = arg
    rec = _task_recorder()
    state = _detect_state(rec)
    units = state[f"{phase}_units"][lo:hi]
    mems: Dict[int, MemRows] = state["model"].mems
    memory_model = _WORKER["memory_model"]
    with rec.span(f"analyzer.worker.{phase}", units=hi - lo,
                  pid=os.getpid()):
        if phase == "intra":
            per_unit = check_epochs_sweep(units, mems, memory_model)
        else:
            per_unit = detect_regions_sweep(
                state["pre"], units, mems, _WORKER["oracle"],
                state["lock_index"], memory_model)
    rec.count("parallel_tasks_total", phase=phase)
    return [f for found in per_unit for f in found], _export(rec)


# --------------------------------------------------------------- engine


def scan_traceset(pool: WorkerPool, traces: TraceSet,
                  need_calls: bool = True):
    """Parallel preprocess over an acquired pool: scan every rank,
    merge deterministically — the pooled counterpart of
    :func:`~repro.core.preprocess.preprocess_calls_with_counts`
    (identical ``(pre, counts_by_rank)`` result).

    With ``need_calls=False``, call events never cross the pipe: each
    worker publishes its rank's :class:`~repro.core.calltable.CallTable`
    to a shared segment, the parent copies the columns out (and unlinks
    the segment eagerly) and attaches them as ``pre.call_tables`` — the
    parent's event lists stay empty and every control phase runs off
    the tables.  The incremental pool path passes ``need_calls=True``
    (it lifts the access model and hashes event lines from the parent's
    events)."""
    args = []
    for rank in range(traces.nranks):
        name = None
        if not need_calls:
            name = pool.new_segment_name(rank)
            pool.expect_segment(name)
        args.append((rank, name))
    pool.install("preprocess", {"traces": traces})
    results = pool.run("preprocess", "scan", args)
    scans, call_events, counts, tables = [], {}, {}, {}
    for rank, scan, calls, rank_counts, desc, export in results:
        scans.append(scan)
        call_events[rank] = calls
        counts[rank] = rank_counts
        if desc is not None:
            tables[rank] = attach_table(desc)
            # the columns were copied out; drop the name right away so
            # the segment never outlives the phase
            pool.release_segment(desc["name"])
        absorb_export(export)
    pre = PreprocessedTrace(call_events, scans=scans)
    if not need_calls:
        pre.call_tables = tables
    return pre, counts


class ParallelEngine:
    """Drives the sharded phases of one analysis run over one persistent
    :class:`WorkerPool` (acquired at construction, reset at
    :meth:`finish`).  The pool survives the run — the next analysis
    reuses the same worker processes."""

    def __init__(self, traces: TraceSet, jobs: int,
                 memory_model: str = "separate",
                 pool: Optional[WorkerPool] = None):
        self.traces = traces
        self.jobs = resolve_jobs(jobs)
        self.memory_model = memory_model
        #: total trace events (calls + loads/stores) seen by the scan
        #: phase; the parent's event dict holds call events only
        self.total_events = 0
        self.pool = pool if pool is not None else acquire_pool(self.jobs)
        self.pool.begin_run()
        #: rank -> share descriptor of the lifted MemRows segments
        self._mem_descs: Dict[int, dict] = {}
        #: parent-side copies of the detect unit lists (for counts and
        #: chunking; workers rebuild the same lists locally)
        self._units = None

    def finish(self) -> None:
        """End the run: reset workers, unlink the run's segments.  Any
        attached ``model.mems`` views the caller kept stay readable —
        unlink removes the name, not live mappings."""
        self.pool.end_run()

    def preprocess(self) -> PreprocessedTrace:
        """Scan every rank in parallel; merge scans deterministically.

        The batch pipeline never needs the parent-side event objects —
        matching, clocks, epochs and regions run off ``pre.call_tables``
        and the lift workers re-read their events from disk — so the
        scan ships tables over shared segments instead of pickling call
        streams."""
        pre, _counts = scan_traceset(self.pool, self.traces,
                                     need_calls=False)
        self.total_events = pre.total_events
        return pre

    def build_model(self, pre: PreprocessedTrace,
                    epoch_index: EpochIndex) -> AccessModel:
        """Lift every rank in parallel; concatenate in rank order.

        The lifts publish each rank's memory columns to a shared
        segment; the parent attaches them zero-copy, so the model's
        ``mems`` are views into the same physical pages the detect
        workers will read."""
        pool = self.pool
        args = []
        for rank in range(pre.nranks):
            name = pool.new_segment_name(rank)
            pool.expect_segment(name)
            args.append((rank, name))
        # lift workers read their events from disk and only resolve
        # registries through ``pre`` — ship the registries-only view so
        # the install pickle stays small at any trace size
        pool.install("model", {"pre": pre.registry_view()})
        results = pool.run("model", "lift", args)
        # worker ops carry pickled *copies* of their per-rank epochs;
        # re-intern them onto the parent's canonical index so the
        # identity-keyed bucketing downstream sees one object per epoch
        canonical = {(e.rank, e.win_id, e.kind, e.open_seq): e
                     for e in epoch_index.epochs}
        ops, local, mems = [], [], {}
        for rank, rank_ops, rank_local, desc, export in results:
            for op in rank_ops:
                if op.epoch is not None:
                    key = (op.epoch.rank, op.epoch.win_id, op.epoch.kind,
                           op.epoch.open_seq)
                    op.epoch = canonical[key]
            ops.extend(rank_ops)
            local.extend(rank_local)
            rows, handle = attach_rows(desc)
            if handle is not None:
                pool.adopt_segment(desc["name"], handle)
            mems[rank] = rows
            self._mem_descs[rank] = desc
            absorb_export(export)
        return AccessModel(ops=ops, local=local, mems=mems)

    def _ensure_detect(self, model: AccessModel, epoch_index: EpochIndex,
                       regions: RegionIndex, oracle) -> None:
        """One detect install for both detector phases: ops/locals plus
        the parent's epoch/region indexes in a single payload — pickle
        preserves object identity *within* one payload, so every
        ``op.epoch`` lands in the worker still ``is``-identical to its
        entry in ``epoch_index.epochs`` and the identity-keyed bucketing
        needs no re-intern pass.  Memory rows travel as segment
        descriptors only.  Unit lists are *not* shipped — each side runs
        the same deterministic :func:`build_detect_units`."""
        if self._units is not None:
            return
        self._units = build_detect_units(model, epoch_index, regions)
        self.pool.install("detect", {
            "ops": model.ops, "local": model.local,
            "epoch_index": epoch_index, "regions": regions,
            "oracle": oracle, "memory_model": self.memory_model,
            "mems_shm": self._mem_descs,
        })

    def _fan_out(self, phase: str, units: list) -> List[ConsistencyError]:
        """Run the detect task over contiguous chunks of ``units`` and
        merge the chunks' findings in order."""
        findings: List[ConsistencyError] = []
        if units:
            for chunk_findings, export in self.pool.run(
                    phase, "detect",
                    [(phase, lo, hi) for lo, hi in
                     _chunk_bounds(len(units), self.jobs)]):
                findings.extend(chunk_findings)
                absorb_export(export)
        return findings

    def detect_intra(self, model: AccessModel, epoch_index: EpochIndex,
                     regions: RegionIndex,
                     oracle) -> List[ConsistencyError]:
        """Fan the within-epoch check out over chunks of epoch units."""
        self._ensure_detect(model, epoch_index, regions, oracle)
        return self._fan_out("intra", self._units[0])

    def detect_inter(self) -> List[ConsistencyError]:
        """Fan cross-process detection out over chunks of region units
        (state was installed by :meth:`detect_intra`)."""
        if self._units is None:
            raise RuntimeError("detect_intra must run before detect_inter")
        return self._fan_out("inter", self._units[1])
