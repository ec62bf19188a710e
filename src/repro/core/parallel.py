"""Persistent shared-memory worker pool behind ``jobs > 1``.

The pool is a policy over the shard plan (:mod:`repro.core.plan`): the
parent runs the control pass (the op table included) and cuts the plan;
:func:`detect_shards` ships contiguous *chunks of shard units* to the
workers — one task, ``shards``, for ``MCChecker(jobs > 1)`` (every
shard) and the incremental checker's dirty-shard recompute alike — and
gathers the pairs that are findings, with their rules, back in order;
the parent, which holds the call events, builds their views and findings
(:func:`~repro.core.plan.emit_shards`), so merge and report are the
serial ones.  Reading, lifting and planning stay in the parent: fanned
out, each lost to its serial counterpart on the benchmark ladder
(docs/performance.md).

One :class:`WorkerPool` of long-lived processes serves every run of the
process.  State is *installed* over each worker's pipe once per run (the
op table's columns, the region membership, the oracle), memory rows are
published as named shared-memory segments that workers attach on first
use, and a task message carries only its chunk of units — index arrays,
never a view or row data — and its reply index arrays again.  Nothing relies on
inherited address space, so ``fork`` and ``spawn`` (forced via
``MCCHECKER_START_METHOD``) behave identically; segments are named after
the pool and unlinked by the parent at end of run, including after a
worker crash, so no ``/dev/shm`` entry outlives an analysis.

Failures: a worker's :class:`~repro.util.errors.ReproError` (what a
kernel raises on a malformed trace) travels back as the exception object
and is re-raised in the parent as itself, the worker traceback attached
as its cause — a typed failure does not depend on the job count.
Anything else surfaces as a ``RuntimeError`` carrying the traceback and
marks the pool broken.

Observability: with the parent recorder enabled, each task runs under
its own recorder and returns its ``export_state()`` beside the result
for the parent to ``absorb`` (span ``analyzer.worker.shards``, counter
``parallel_tasks_total``).  The pool publishes
``parallel_pool_{created,reused}_total`` and
``parallel_pickled_bytes_total{phase,kind}`` /
``parallel_shm_bytes_total{phase}`` (phases ``run``, ``shards``): row
bytes appear under ``shm``, never under ``pickled``.
"""

from __future__ import annotations

import atexit
import gc
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
from repro.core.model import MemRows, attach_rows, share_rows
from repro.core.plan import (
    ControlState, ShardFindings, ShardUnits, emit_shards, find_shards,
    ranks_read, run_shards,
)
from repro.obs.recorder import NullRecorder
from repro.util.errors import AnalysisError, ReproError

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

#: shared segments this process attached: name -> (handle, MemRows)
_ATTACHED: Dict[str, Tuple[SharedMemory, MemRows]] = {}

#: task registry: a task message names its task; every task lives in
#: this module, which is also what a spawned worker imports first
_TASKS: Dict[str, Callable] = {}


def _pool_task(name: str):
    def register(fn):
        _TASKS[name] = fn
        return fn
    return register


def _task_recorder() -> NullRecorder:
    """Task-local recorder (storing when the parent wants worker obs),
    installed as this worker process's recorder so what library code
    records below the task — the engine's funnel — is exported with it."""
    return obs.configure(enabled=bool(_WORKER.get("obs")))


def worker_rows(desc: dict) -> MemRows:
    """The :class:`MemRows` a share descriptor names, attached at most
    once per process and cached until the next ``reset``."""
    entry = _ATTACHED.get(desc["name"])
    if entry is None:
        rows, handle = attach_rows(desc)
        entry = _ATTACHED[desc["name"]] = (handle, rows)
    return entry[1]


def _reset_worker() -> None:
    _WORKER.clear()
    for handle, _rows in _ATTACHED.values():
        try:
            handle.close()
        except BufferError:
            # a stray view still references the mapping; the mapping is
            # released when the view goes, the name is the parent's to
            # unlink either way
            pass
    _ATTACHED.clear()
    gc.collect()


def _pickle(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _error_blob(exc: BaseException, trace: str) -> bytes:
    """The ``err`` reply: the worker traceback, and the exception itself
    when it is one of the package's typed errors (and pickles)."""
    if isinstance(exc, ReproError):
        try:
            return _pickle(("err", (exc, trace)))
        except Exception:
            pass
    return _pickle(("err", (None, trace)))


def _worker_main(conn) -> None:
    """One pool worker: drain (kind, payload) messages until ``stop``."""
    # a worker's heap is one run's state and one task's units, dropped at
    # every reset (which collects, past the frozen start-up heap); left on,
    # the cycle collector re-scans each unpickled unit graph: 2-3x its cost
    gc.disable()
    gc.freeze()
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
            elif kind == "task":
                name, items = payload
                results = [(idx, _TASKS[name](arg)) for idx, arg in items]
                conn.send_bytes(_pickle(("ok", results)))
        except BaseException as exc:
            try:
                conn.send_bytes(_error_blob(exc, traceback.format_exc()))
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
        """Register a name *before* the segment is created, so
        :meth:`end_run` cleans up even if publishing it fails midway."""
        self._segments.setdefault(name, None)

    def adopt_segment(self, name: str, handle: SharedMemory) -> None:
        """Hand the parent-side handle of a segment to the pool."""
        self._segments[name] = handle

    def _unlink_segments(self) -> None:
        for name, handle in list(self._segments.items()):
            if handle is None:
                try:
                    handle = SharedMemory(name=name)
                except Exception:  # never created, or already gone
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
        """Broadcast phase state into every worker's ``_WORKER`` dict."""
        with self._lock:
            self._check_alive(phase)
            blob = _pickle(("install", state))
            for conn in self._conns:
                conn.send_bytes(blob)
            _count_bytes("parallel_pickled_bytes_total", phase, "install",
                         len(blob) * len(self._conns))

    def run(self, phase: str, task: str, args: Sequence[Any]) -> list:
        """Scatter ``task`` over ``args`` (round-robin), gather results
        in argument order.  A worker's :class:`ReproError` is re-raised
        as itself, the worker traceback as its cause; any other worker
        exception surfaces as a ``RuntimeError`` carrying the traceback
        and, like a worker death, marks the pool broken (the next
        :func:`acquire_pool` replaces it)."""
        if not args:
            return []
        with self._lock:
            self._check_alive(phase)
            per_worker: List[list] = [[] for _ in range(self.jobs)]
            for idx, arg in enumerate(args):
                per_worker[idx % self.jobs].append((idx, arg))
            active, sent = [], 0
            for w, items in enumerate(per_worker):
                if not items:
                    continue
                blob = _pickle(("task", (task, items)))
                self._conns[w].send_bytes(blob)
                sent += len(blob)
                active.append(w)
            _count_bytes("parallel_pickled_bytes_total", phase, "task",
                         sent)
            results: List[Any] = [None] * len(args)
            received = 0
            failure: Optional[Exception] = None
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
                    # keep draining, so every worker is idle again (and
                    # detached from the run's segments at the reset)
                    # before end_run unlinks them
                    error, trace = payload
                    where = RuntimeError(
                        f"worker {w} failed in phase {phase!r} "
                        f"(task {task!r}):\n{trace}")
                    if error is None:
                        self.broken = True
                        error = where
                    else:
                        error.__cause__ = where
                    failure = failure or error
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


@_pool_task("fail")
def _fail_task(message: str):
    """Typed-failure probe (tests): raises one of the package's errors
    in the worker.  The kernels' finding half reads validated columns —
    a malformed trace is refused in the parent, where the table is built
    — so nothing else exercises the error's way back."""
    raise AnalysisError(message)


@_pool_task("shards")
def _shards_task(units: List[ShardUnits]):
    """The analysis task: the finding half over one chunk of shard units
    (the task argument) against the installed columns and shared row
    segments."""
    rec = _task_recorder()
    with rec.span("analyzer.worker.shards", shards=len(units),
                  pid=os.getpid()):
        found = find_shards(
            units, *_WORKER["columns"],
            {rank: worker_rows(desc)
             for rank, desc in _WORKER["mems_shm"].items()})
    rec.count("parallel_tasks_total", phase="shards")
    return found, rec.export_state() if rec.enabled else None


# ------------------------------------------------------------- the policy


def detect_shards(units: List[ShardUnits], control: ControlState,
                  memory_model: str, mems: Dict[int, MemRows],
                  jobs: int) -> Tuple[List[ShardFindings], int]:
    """:func:`~repro.core.plan.run_shards` over ``units`` — in this
    process, or with ``jobs > 1`` (and more than one unit) the finding
    half as contiguous chunks over the persistent pool, gathered back in
    unit order and emitted here.  ``mems`` holds every rank's memory
    rows; only those of the ranks the units read are published.
    Returns the per-shard findings and the number of chunks."""
    if jobs <= 1 or len(units) <= 1:
        return run_shards(units, control, memory_model, mems), 1
    pool = acquire_pool(jobs)
    pool.begin_run()
    try:
        # publish the needed ranks' rows as shared segments and ship
        # each chunk of units once, to one worker, as a task argument;
        # the rows themselves never cross the pipe
        descs = {}
        for rank in ranks_read(units, control):
            name = pool.new_segment_name(rank)
            pool.expect_segment(name)
            desc, handle = share_rows(mems[rank], name)
            if handle is not None:  # a rank without rows gets no segment
                descs[rank] = desc
                pool.adopt_segment(name, handle)
                obs.count("parallel_shm_bytes_total", handle.size,
                          phase="shards",
                          help="Bytes published to shared MemRows "
                               "segments, by phase")
        pool.install("shards", {
            "columns": (control.table, control.members, control.oracle,
                        memory_model),
            "mems_shm": descs})
        chunks = _chunk_bounds(len(units), jobs)
        found: List[ShardFindings] = []
        for (lo, hi), (survivors, export) in zip(chunks, pool.run(
                "shards", "shards", [units[lo:hi] for lo, hi in chunks])):
            if export is not None:  # the worker recorder's state
                obs.get_recorder().absorb(export)
            found.extend(emit_shards(units[lo:hi], survivors, control,
                                     mems))
        return found, len(chunks)
    finally:
        pool.end_run()
