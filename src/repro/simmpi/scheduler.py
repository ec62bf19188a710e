"""Cooperative token-passing scheduler for simulated MPI ranks.

Every rank runs in its own OS thread, but exactly one thread holds the
*token* at any instant, so execution is a deterministic interleaving of
per-rank steps.  Ranks hand the token back at *yield points* (every MPI
call, plus explicit yields inside blocking waits), and the scheduler picks
the next rank according to its policy:

* ``round_robin`` — cyclic order; fully deterministic.
* ``random`` — seeded PRNG choice; deterministic for a given seed, but lets
  tests explore many interleavings (the analogue of rerunning a real MPI
  job and observing different timings).

A handoff between two threads is the unit of cost here.  A run is pinned
to one CPU and its rank threads are batch-scheduled (:meth:`start`), so
a released lock token does not preempt the waker that still holds the
GIL: the woken rank runs once the waker parks, one context switch per
handoff (docs/performance.md).  The token only ever travels to a rank
that can run.  A rank blocked in :meth:`Scheduler.wait_until`
leaves its predicate with the scheduler; when the policy picks that rank,
the thread that is giving the token away evaluates the predicate itself —
predicates are pure reads of state that only the token holder mutates —
and, while it is false, takes the blocked rank's step for it: the grant,
the step count and the policy's next pick advance exactly as if the rank
had woken, found its predicate false and yielded.  A call's code between
its yield and its wait (the *resumed step* of
:meth:`Scheduler.yield_then_wait`) is taken there too, so a rank that
yields into a fence is not woken only to block in it.  The schedule
(which rank performs which real step, in which order) is therefore the
one a wake-and-re-check loop produces; only the wake-ups that could not
have done anything are gone (``Scheduler.elided`` counts them).

Deadlock detection: the runtime bumps a *progress counter* on every state
mutation (message deposit, lock grant, RMA delivery, collective arrival,
rank completion).  If every live rank is blocked and a full rotation of
token grants passes with no progress, the run is declared deadlocked and a
:class:`~repro.util.errors.DeadlockError` lists what each rank was waiting
for.
"""

from __future__ import annotations

import os
import random
import threading
import time
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.util.errors import DeadlockError, SimMPIError

try:
    import resource
except ImportError:     # not a Unix: no per-thread context switch count
    resource = None


class _Abort(BaseException):
    """Internal signal: unwind a rank thread after the run was aborted."""


def _holds(pred: Callable[[], bool]) -> bool:
    """A blocked rank's predicate, evaluated on another rank's thread.
    One that raises there counts as holding: its rank is woken, evaluates
    it again and the exception surfaces in the thread that owns it."""
    try:
        return pred()
    except Exception:  # noqa: BLE001 - re-raised by the predicate's owner
        return True


class Scheduler:
    """Token-passing scheduler over ``nranks`` cooperating threads."""

    def __init__(self, nranks: int, policy: str = "round_robin", seed: int = 0,
                 max_steps: int = 50_000_000):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if policy not in ("round_robin", "random"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.nranks = nranks
        self.policy = policy
        self._rng = random.Random(seed)
        # One lock guards all scheduler state; each rank parks on its own
        # binary lock (acquired = parked) so a token handoff wakes exactly
        # the granted thread with a single futex release.  A shared
        # condition would need notify_all() — a thundering herd of nranks
        # wakeups per switch — and even per-rank Conditions pay an
        # allocation and two extra lock round-trips per wait.
        self._lock = threading.Lock()
        self._tokens = [threading.Lock() for _ in range(nranks)]
        for token in self._tokens:
            token.acquire()
        self._current: Optional[int] = None
        self._live: Set[int] = set(range(nranks))
        #: sorted cache of _live and, per rank (live or not), the live
        #: rank round robin grants after it; both rebuilt only when a
        #: rank leaves (_retire_locked), so the grant path never sorts,
        #: scans or allocates per switch
        self._order = tuple(range(nranks))
        self._after = [(rank + 1) % nranks for rank in range(nranks)]
        self._blocked: Dict[int, str] = {}
        #: beside each block reason, the predicate the rank waits on (or,
        #: until the rank wakes, what its resumed step raised)
        self._preds: Dict[int, Callable[[], bool]] = {}
        #: a rank in yield_then_wait: its resumed step and block reason
        self._resume: Dict[int, Tuple[Callable, str]] = {}
        self._progress = 0
        #: ranks granted the token since the all-blocked stall began; a
        #: deadlock is declared only once EVERY live rank re-evaluated its
        #: predicate without progress (grant-counting alone would
        #: false-positive under the random policy, which may skip a rank
        #: for many grants)
        self._stall_granted: Set[int] = set()
        self._steps = 0
        self._max_steps = max_steps
        self._abort_exc: Optional[BaseException] = None
        self._abort_rank: Optional[int] = None
        #: thread handoffs performed (yield points taken by a rank)
        self.switches = 0
        #: grants issued, real and virtual
        self.token_grants = 0
        #: virtual steps: grants to a blocked rank whose predicate was
        #: still false (resumed steps included), taken on the granting thread
        self.elided = 0
        # per-rank token-hold accounting exists only when observability is
        # on (decided once, here): the disabled hot path stays two integer
        # increments per switch
        self._token_times: Optional[List[float]] = (
            [0.0] * nranks if obs.is_enabled() else None)
        self._hold_start = 0.0
        #: the rank threads' OS context switches (voluntary + involuntary,
        #: added by each thread as it exits), under the same gate
        self._os_switches: Optional[int] = (
            0 if obs.is_enabled() and hasattr(resource, "RUSAGE_THREAD")
            else None)

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------

    @property
    def live_ranks(self) -> Set[int]:
        return set(self._live)

    @property
    def progress_counter(self) -> int:
        return self._progress

    def token_seconds(self) -> Optional[List[float]]:
        """Per-rank token-hold seconds; ``None`` when observability is off."""
        return list(self._token_times) if self._token_times is not None \
            else None

    def os_switches(self) -> Optional[int]:
        """The rank threads' OS context switches; ``None`` when
        observability is off or the platform cannot count them."""
        return self._os_switches

    def register_progress(self) -> None:
        """Record that global state changed; resets deadlock suspicion.

        Must be called (by the runtime) under the scheduler's own
        serialization — i.e. from the token-holding thread — for any
        mutation that could unblock another rank.
        """
        self._progress += 1
        self._stall_granted.clear()

    # ------------------------------------------------------------------
    # token machinery
    # ------------------------------------------------------------------

    def _retire_locked(self, rank: int) -> None:
        """``rank`` completed or died: it is never granted again.  The
        successor of each rank becomes the first live rank above it,
        wrapping to the lowest."""
        self._live.discard(rank)
        self._order = order = tuple(sorted(self._live))
        self._after = [order[bisect_right(order, r) % len(order)]
                       for r in range(self.nranks)] if order else []

    def _pick_next(self) -> Optional[int]:
        candidates = self._order
        if not candidates:
            return None
        if self.policy == "random":
            return self._rng.choice(candidates)
        current = self._current
        return candidates[0] if current is None else self._after[current]

    def _grant_locked(self) -> None:
        """Hand the token to the next rank that can run.  Caller holds
        ``_lock`` and, being the thread that gives the token away, is
        the only one running: no state a predicate or a resumed step
        reads can change while it runs here."""
        preds = self._preds
        while True:
            nxt = self._pick_locked()
            if nxt is None:
                return
            self._steps += 1    # the step of ``nxt``, wherever taken
            if self._steps > self._max_steps:
                self._abort_livelock_locked(nxt)
                return
            resume = self._resume.pop(nxt, None)
            if resume is None:
                pred = preds.get(nxt)
                held = pred is None or _holds(pred)
            else:
                timed = self._token_times is not None
                if timed:
                    self._hold_start = time.perf_counter()
                try:
                    pred = resume[0]()
                    held = pred()
                except Exception as exc:  # noqa: BLE001 - nxt raises it
                    preds[nxt] = exc
                    held = True
                if timed:
                    self._note_release_locked(nxt)
                if not held:
                    preds[nxt] = pred
                    self._blocked[nxt] = resume[1]
            if held:
                self._tokens[nxt].release()
                return
            # the rank would wake, find its predicate false and yield:
            # that step is taken here, counted as it would have been
            self.elided += 1

    def _pick_locked(self) -> Optional[int]:
        """Advance the policy by one grant: the rank it names becomes
        ``_current`` (``None``: nothing left to run, or a deadlock was
        declared)."""
        # _blocked only ever holds live ranks, so "every live rank is
        # blocked" reduces to a length comparison
        if self._live and len(self._blocked) >= len(self._live):
            # every live rank is blocked: pick among those that have not
            # yet re-evaluated their predicate this stall; once all have,
            # with no progress, nothing can ever unblock -> deadlock
            unchecked = sorted(self._live - self._stall_granted)
            if not unchecked:
                self._current = None
                self._abort_locked(DeadlockError(self._blocked), rank=None)
                return None
            nxt = (self._rng.choice(unchecked) if self.policy == "random"
                   else unchecked[0])
            self._stall_granted.add(nxt)
            self._current = nxt
            self.token_grants += 1
        else:
            self._stall_granted.clear()
            self._current = self._pick_next()
            if self._current is not None:
                self.token_grants += 1
        return self._current

    def _abort_livelock_locked(self, rank: int) -> None:
        self._abort_locked(
            SimMPIError(f"scheduler exceeded {self._max_steps} steps; "
                        "likely livelock"), rank)

    def _abort_locked(self, exc: BaseException, rank: Optional[int]) -> None:
        if self._abort_exc is None:
            self._abort_exc = exc
            self._abort_rank = rank
        for token in self._tokens:
            if token.locked():
                token.release()

    def _wait_for_token_locked(self, rank: int) -> None:
        # every grant releases the target's token exactly once, and every
        # waiter consumes exactly one release — including a grant issued
        # before this thread first parks, so park unconditionally
        token = self._tokens[rank]
        lock = self._lock
        while True:
            if self._abort_exc is not None:
                raise _Abort()
            lock.release()
            token.acquire()
            lock.acquire()
            if self._abort_exc is not None:
                raise _Abort()
            if self._current == rank:
                break
        if self._token_times is not None:
            self._hold_start = time.perf_counter()

    def _note_release_locked(self, rank: int) -> None:
        """Charge the ending token-hold interval to ``rank`` (obs only)."""
        if self._token_times is not None:
            self._token_times[rank] += time.perf_counter() - self._hold_start

    def yield_point(self, rank: int) -> None:
        """Hand the token back and wait until it is granted again."""
        with self._lock:
            if self._abort_exc is not None:
                raise _Abort()
            self.switches += 1
            self._note_release_locked(rank)
            self._grant_locked()
            self._wait_for_token_locked(rank)

    def wait_until(self, rank: int, pred: Callable[[], bool], reason: str) -> None:
        """Block ``rank`` until ``pred()`` is true (a blocking MPI call).

        While the predicate is false the rank is marked blocked with
        ``reason``, so deadlock reports can explain the cycle, and the
        predicate stays with the scheduler: whichever thread next picks
        this rank evaluates it (:meth:`_grant_locked`) and wakes the
        rank only once it holds.  ``pred`` must therefore be a pure read
        of state mutated under the token.  It is evaluated again here
        after every wake, so a predicate that raised on another thread
        raises on its own.
        """
        with self._lock:
            while not pred():
                if self._abort_exc is not None:
                    raise _Abort()
                self._blocked[rank] = reason
                self._preds[rank] = pred
                self.switches += 1
                self._note_release_locked(rank)
                self._grant_locked()
                self._wait_for_token_locked(rank)
            self._blocked.pop(rank, None)
            self._preds.pop(rank, None)

    def yield_then_wait(self, rank: int,
                        step: Callable[[], Callable[[], bool]],
                        reason: str) -> None:
        """``yield_point(rank); wait_until(rank, step(), reason)``, with
        ``step`` run by the thread granting ``rank`` the token, which
        wakes ``rank`` only once the predicate holds or ``step`` raised
        (raised again here).  ``step`` runs under the token but maybe on
        another thread: it must emit no event."""
        with self._lock:
            if self._abort_exc is not None:
                raise _Abort()
            self.switches += 1
            self._note_release_locked(rank)
            self._resume[rank] = (step, reason)
            self._grant_locked()
            self._wait_for_token_locked(rank)
            pred = self._preds.pop(rank, None)  # left if false or raised
        if isinstance(pred, Exception):
            raise pred
        if pred is not None:
            self.wait_until(rank, pred, reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, bodies: List[Callable[[], None]]) -> None:
        """Run one thread per rank body and block until all complete.

        The run is pinned to one CPU of the caller's allowed set (the
        rank threads inherit the mask; the caller's comes back on every
        exit path) and each rank thread is batch-scheduled, so a token
        handoff costs one context switch.  Re-raises the first
        application exception (or the deadlock / livelock error) after
        all threads have unwound.
        """
        if len(bodies) != self.nranks:
            raise ValueError("need exactly one body per rank")

        def runner(rank: int, body: Callable[[], None]) -> None:
            try:
                # no wake-up preemption: a rank released from its token
                # runs once its waker parks, not while the waker still
                # holds the GIL
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            except (AttributeError, OSError):
                pass
            try:
                with self._lock:
                    self._wait_for_token_locked(rank)
                body()
                with self._lock:
                    self._retire_locked(rank)
                    self.register_progress()
                    self._note_release_locked(rank)
                    self._grant_locked()
            except _Abort:
                pass
            except BaseException as exc:  # noqa: BLE001 - must cross threads
                with self._lock:
                    self._retire_locked(rank)
                    self._abort_locked(exc, rank)
            finally:
                if self._os_switches is not None:
                    usage = resource.getrusage(resource.RUSAGE_THREAD)
                    with self._lock:
                        self._os_switches += usage.ru_nvcsw + usage.ru_nivcsw

        threads = [
            threading.Thread(target=runner, args=(r, b), name=f"simmpi-rank-{r}",
                             daemon=True)
            for r, b in enumerate(bodies)
        ]
        # one rank runs at a time, so the run needs one CPU; spread
        # concurrent simulators over the allowed set by pid
        try:
            mask = os.sched_getaffinity(0)
            allowed = sorted(mask)
            os.sched_setaffinity(0, {allowed[os.getpid() % len(allowed)]})
        except (AttributeError, OSError):
            mask = None
        try:
            for t in threads:
                t.start()
            with self._lock:
                self._grant_locked()
            for t in threads:
                t.join()
        finally:
            if mask is not None:
                try:
                    os.sched_setaffinity(0, mask)
                except OSError:
                    pass
        if self._abort_exc is not None:
            raise self._abort_exc
