"""Reference scheduler — a test oracle, not production.

The wake-and-re-check token scheduler: a rank blocked in
:meth:`Scheduler.wait_until` is handed the token whenever the policy
picks it, wakes, re-evaluates its predicate in its own thread and, while
it is still false, yields again; :meth:`Scheduler.yield_then_wait` is
the literal ``yield_point`` -> ``step()`` -> ``wait_until`` composition,
with the step run by its own rank after it woke.  Production
(:class:`repro.simmpi.scheduler.Scheduler`) evaluates the predicate, and
runs the resumed step, on the granting thread instead and wakes the
rank only once the predicate holds; the differential tests
(``tests/simmpi/test_scheduler_differential.py``) require both to
produce the same schedule — the same rank at every real step, the same
``token_grants``, the same trace bytes, the same ``DeadlockError`` text,
the same exception from a raising step and the same livelock-guard trip
— with this class's ``switches`` equal to production's
``switches + elided``.

The code is the former ``repro.simmpi.scheduler``, moved unchanged but
for ``yield_then_wait``.
Install it with ``mock.patch.object(repro.simmpi.runtime, "Scheduler",
Scheduler)``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, List, Optional, Set

from repro import obs
from repro.util.errors import DeadlockError, SimMPIError


class _Abort(BaseException):
    """Internal signal: unwind a rank thread after the run was aborted."""


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
        #: sorted cache of _live, rebuilt only when a rank completes, so
        #: the grant path never sorts or allocates per switch
        self._order = tuple(range(nranks))
        self._blocked: Dict[int, str] = {}
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
        self.switches = 0
        self.token_grants = 0
        # per-rank token-hold accounting exists only when observability is
        # on (decided once, here): the disabled hot path stays two integer
        # increments per switch
        self._token_times: Optional[List[float]] = (
            [0.0] * nranks if obs.is_enabled() else None)
        self._hold_start = 0.0

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

    def _pick_next(self) -> Optional[int]:
        candidates = self._order
        if not candidates:
            return None
        if self.policy == "random":
            return self._rng.choice(candidates)
        current = self._current
        if current is not None:
            for rank in candidates:
                if rank > current:
                    return rank
        return candidates[0]

    def _grant_locked(self) -> None:
        """Pick the next rank and hand it the token.  Caller holds _lock."""
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
                return
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
        if self._current is not None:
            self._tokens[self._current].release()

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
        self._steps += 1
        if self._steps > self._max_steps:
            self._abort_locked(
                SimMPIError(f"scheduler exceeded {self._max_steps} steps; "
                            "likely livelock"), rank)
            raise _Abort()
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

        The predicate is re-evaluated each time the rank regains the token;
        while false the rank is marked blocked with ``reason`` so deadlock
        reports can explain the cycle.
        """
        with self._lock:
            while not pred():
                if self._abort_exc is not None:
                    raise _Abort()
                self._blocked[rank] = reason
                self.switches += 1
                self._note_release_locked(rank)
                self._grant_locked()
                self._wait_for_token_locked(rank)
            self._blocked.pop(rank, None)

    def yield_then_wait(self, rank: int, step: Callable[[], Callable[[], bool]],
                        reason: str) -> None:
        """Yield, run ``step`` once the token is back, wait on the
        predicate it returns."""
        self.yield_point(rank)
        pred = step()
        self.wait_until(rank, pred, reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, bodies: List[Callable[[], None]]) -> None:
        """Run one thread per rank body and block until all complete.

        Re-raises the first application exception (or the deadlock /
        livelock error) after all threads have unwound.
        """
        if len(bodies) != self.nranks:
            raise ValueError("need exactly one body per rank")

        def runner(rank: int, body: Callable[[], None]) -> None:
            try:
                with self._lock:
                    self._wait_for_token_locked(rank)
                body()
                with self._lock:
                    self._live.discard(rank)
                    self._order = tuple(sorted(self._live))
                    self.register_progress()
                    self._note_release_locked(rank)
                    self._grant_locked()
            except _Abort:
                pass
            except BaseException as exc:  # noqa: BLE001 - must cross threads
                with self._lock:
                    self._live.discard(rank)
                    self._order = tuple(sorted(self._live))
                    self._abort_locked(exc, rank)

        threads = [
            threading.Thread(target=runner, args=(r, b), name=f"simmpi-rank-{r}",
                             daemon=True)
            for r, b in enumerate(bodies)
        ]
        for t in threads:
            t.start()
        with self._lock:
            self._grant_locked()
        for t in threads:
            t.join()
        if self._abort_exc is not None:
            raise self._abort_exc
