"""Synthetic RMA program specs and their replay interpreter.

A generated program is pure data — a :class:`Program` value listing, for
every synchronization round, the epoch structure and each rank's action
sequence.  :func:`replay` is the single app that executes any spec on
the simulated runtime; because the spec (not code) carries all the
randomness, the same ``Program`` replays identically under the profiler
regardless of trace format, and serializes to a
canonical JSON form that is byte-stable for a given generator seed.

Buffer layout per rank (allocation order is part of the contract — the
manifest recomputes absolute byte addresses by replaying the same
allocations through :class:`~repro.simmpi.memory.AddressSpace`):

1. ``win``      — the window buffer: one slot per (origin, action-slot)
   pair for clean traffic, then one dedicated slot per injected bug;
2. ``org``      — clean RMA origin arena, one disjoint slice per action
   slot (so same-epoch clean origins can never conflict);
3. ``scratch``  — non-window local-store arena (plain stores must stay
   off window memory: STORE vs PUT is erroneous even without overlap
   under the separate model);
4. ``bug{j}_org`` — one dedicated origin buffer per injected bug, so
   every bug's findings carry a distinguishing variable name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.simmpi import DOUBLE, LOCK_EXCLUSIVE, LOCK_SHARED
from repro.simmpi.memory import AddressSpace

#: bytes per element (the whole generator speaks MPI_DOUBLE)
ITEMSIZE = DOUBLE.numpy_dtype().itemsize

_LOCK_TYPES = {"shared": LOCK_SHARED, "exclusive": LOCK_EXCLUSIVE}


@dataclass(frozen=True)
class Action:
    """One step of one rank inside one round.

    ``op`` is an RMA kind (``put``/``get``/``acc``), a plain local
    access (``load``/``store``), or ``flush`` (MPI-3 flush_all when
    ``target`` is negative).  RMA actions read/write ``buf`` at element
    ``off`` and hit the target window at element ``disp``; local actions
    touch ``buf`` at ``off`` for ``count`` elements, ``reps`` semantic
    times (one bulk columnar record).  ``bug`` tags actions belonging to
    an injected conflict (-1 = clean traffic).
    """

    op: str
    target: int = -1
    disp: int = 0
    count: int = 1
    buf: str = "org"
    off: int = 0
    reps: int = 1
    bug: int = -1

    def to_dict(self) -> dict:
        return {"op": self.op, "target": self.target, "disp": self.disp,
                "count": self.count, "buf": self.buf, "off": self.off,
                "reps": self.reps, "bug": self.bug}

    @classmethod
    def from_dict(cls, data: dict) -> "Action":
        return cls(op=str(data["op"]), target=int(data["target"]),
                   disp=int(data["disp"]), count=int(data["count"]),
                   buf=str(data["buf"]), off=int(data["off"]),
                   reps=int(data["reps"]), bug=int(data["bug"]))


@dataclass(frozen=True)
class Round:
    """One synchronization round: an epoch per rank plus its actions."""

    kind: str  # fence | lock | lockall | pscw
    #: per-rank actions, ``actions[rank]`` executed inside the epoch
    actions: Tuple[Tuple[Action, ...], ...]
    #: lock rounds: per-rank lock target and lock type
    lock_targets: Tuple[int, ...] = ()
    lock_types: Tuple[str, ...] = ()
    #: pscw rounds: ring offset d (post to rank-d, start to rank+d)
    pscw_offset: int = 1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "actions": [[a.to_dict() for a in rank_actions]
                        for rank_actions in self.actions],
            "lock_targets": list(self.lock_targets),
            "lock_types": list(self.lock_types),
            "pscw_offset": self.pscw_offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Round":
        return cls(
            kind=str(data["kind"]),
            actions=tuple(tuple(Action.from_dict(a) for a in rank_actions)
                          for rank_actions in data["actions"]),
            lock_targets=tuple(int(t) for t in data["lock_targets"]),
            lock_types=tuple(str(t) for t in data["lock_types"]),
            pscw_offset=int(data["pscw_offset"]))


@dataclass(frozen=True)
class Program:
    """A complete synthetic RMA program (window + rounds of epochs)."""

    nranks: int
    slot_elems: int
    win_elems: int
    org_elems: int
    scratch_elems: int
    nbugs: int
    rounds: Tuple[Round, ...]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "nranks": self.nranks,
            "slot_elems": self.slot_elems,
            "win_elems": self.win_elems,
            "org_elems": self.org_elems,
            "scratch_elems": self.scratch_elems,
            "nbugs": self.nbugs,
            "rounds": [r.to_dict() for r in self.rounds],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Program":
        return cls(
            nranks=int(data["nranks"]),
            slot_elems=int(data["slot_elems"]),
            win_elems=int(data["win_elems"]),
            org_elems=int(data["org_elems"]),
            scratch_elems=int(data["scratch_elems"]),
            nbugs=int(data["nbugs"]),
            rounds=tuple(Round.from_dict(r) for r in data["rounds"]))

    def canonical_json(self) -> str:
        """Byte-stable serialization (same program ⇒ same bytes)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.canonical_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Program":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def buffer_names(self) -> Tuple[str, ...]:
        return ("win", "org", "scratch") + tuple(
            f"bug{j}_org" for j in range(self.nbugs))

    def buffer_bases(self) -> Dict[str, int]:
        """Absolute base address of each buffer — identical at every
        rank because the allocation order and sizes are identical (the
        manifest relies on this to express window spans in the same
        address space the checker reports)."""
        space = AddressSpace(0)
        sizes = {"win": self.win_elems, "org": self.org_elems,
                 "scratch": self.scratch_elems}
        for j in range(self.nbugs):
            sizes[f"bug{j}_org"] = self.slot_elems
        return {name: space.allocate(sizes[name] * ITEMSIZE)
                for name in self.buffer_names()}

    def bug_slot(self, bug_id: int) -> Tuple[int, int]:
        """Element range ``(start, stop)`` of a bug's window slot."""
        clean = self.win_elems - self.nbugs * self.slot_elems
        start = clean + bug_id * self.slot_elems
        return start, start + self.slot_elems

    def bug_slot_bytes(self, bug_id: int) -> Tuple[int, int]:
        """Absolute byte interval of a bug's window slot."""
        base = self.buffer_bases()["win"]
        start, stop = self.bug_slot(bug_id)
        return base + start * ITEMSIZE, base + stop * ITEMSIZE

    # ------------------------------------------------------------------
    # static validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks replay relies on; raises ``ValueError``."""
        n = self.nranks
        for i, rnd in enumerate(self.rounds):
            if len(rnd.actions) != n:
                raise ValueError(
                    f"round {i}: actions for {len(rnd.actions)} ranks, "
                    f"expected {n}")
            if rnd.kind == "lock":
                if len(rnd.lock_targets) != n or len(rnd.lock_types) != n:
                    raise ValueError(
                        f"round {i}: lock round needs per-rank targets "
                        "and types")
                for r, (t, lt) in enumerate(zip(rnd.lock_targets,
                                                rnd.lock_types)):
                    if not 0 <= t < n:
                        raise ValueError(
                            f"round {i}: rank {r} lock target {t} out "
                            "of range")
                    if lt not in _LOCK_TYPES:
                        raise ValueError(
                            f"round {i}: rank {r} lock type {lt!r}")
            if rnd.kind == "pscw" and not 1 <= rnd.pscw_offset < n:
                raise ValueError(
                    f"round {i}: pscw offset {rnd.pscw_offset} out of "
                    f"range for {n} ranks")
            for r, rank_actions in enumerate(rnd.actions):
                for act in rank_actions:
                    self._validate_action(i, r, rnd, act)

    def _validate_action(self, i: int, r: int, rnd: Round,
                         act: Action) -> None:
        n = self.nranks
        sizes = {"win": self.win_elems, "org": self.org_elems,
                 "scratch": self.scratch_elems}
        for j in range(self.nbugs):
            sizes[f"bug{j}_org"] = self.slot_elems
        where = f"round {i} rank {r}"
        if act.op in ("put", "get", "acc"):
            if act.target == r:
                raise ValueError(f"{where}: self-targeted {act.op}")
            if not 0 <= act.target < n:
                raise ValueError(
                    f"{where}: {act.op} target {act.target} out of range")
            if act.disp + act.count > self.win_elems:
                raise ValueError(
                    f"{where}: {act.op} past window end")
            if act.buf not in sizes:
                raise ValueError(f"{where}: unknown buffer {act.buf!r}")
            if act.off + act.count > sizes[act.buf]:
                raise ValueError(
                    f"{where}: {act.op} origin past {act.buf!r} end")
            if rnd.kind == "lock" and rnd.lock_targets[r] != act.target:
                raise ValueError(
                    f"{where}: {act.op} targets {act.target} outside "
                    f"the locked target {rnd.lock_targets[r]}")
            if rnd.kind == "pscw" and \
                    act.target != (r + rnd.pscw_offset) % n:
                raise ValueError(
                    f"{where}: {act.op} targets {act.target} outside "
                    "the started access group")
        elif act.op in ("load", "store"):
            if act.buf not in sizes:
                raise ValueError(f"{where}: unknown buffer {act.buf!r}")
            if act.off + act.count > sizes[act.buf]:
                raise ValueError(
                    f"{where}: {act.op} past {act.buf!r} end")
        elif act.op == "flush":
            if rnd.kind != "lockall":
                raise ValueError(
                    f"{where}: flush outside a lock_all round")
        else:
            raise ValueError(f"{where}: unknown op {act.op!r}")


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def replay(mpi, spec):
    """Execute a :class:`Program` (or its dict form) on one rank.

    Every rank runs the same function; the spec tells each rank what to
    do.  Rounds are separated by barriers so concurrency never leaks
    across round boundaries — each round is one concurrent region.
    """
    prog = spec if isinstance(spec, Program) else Program.from_dict(spec)
    rank, n = mpi.rank, prog.nranks
    bufs = {
        "win": mpi.alloc("win", prog.win_elems, DOUBLE, fill=float(rank)),
        "org": mpi.alloc("org", prog.org_elems, DOUBLE, fill=1.0),
        "scratch": mpi.alloc("scratch", prog.scratch_elems, DOUBLE,
                             fill=0.0),
    }
    for j in range(prog.nbugs):
        name = f"bug{j}_org"
        bufs[name] = mpi.alloc(name, prog.slot_elems, DOUBLE, fill=0.5)
    win = mpi.win_create(bufs["win"])
    world = mpi.comm_group()
    mpi.barrier()
    for rnd in prog.rounds:
        if rnd.kind == "fence":
            win.fence()
        elif rnd.kind == "lock":
            win.lock(rnd.lock_targets[rank],
                     _LOCK_TYPES[rnd.lock_types[rank]])
        elif rnd.kind == "lockall":
            win.lock_all()
        else:  # pscw ring: everyone posts, then everyone starts
            d = rnd.pscw_offset
            win.post(world.incl([(rank - d) % n]))
            win.start(world.incl([(rank + d) % n]))
        for act in rnd.actions[rank]:
            _run_action(act, win, bufs)
        if rnd.kind == "fence":
            win.fence()
        elif rnd.kind == "lock":
            win.unlock(rnd.lock_targets[rank])
        elif rnd.kind == "lockall":
            win.unlock_all()
        else:
            win.complete()
            win.wait()
        mpi.barrier()
    win.free()


def _run_action(act: Action, win, bufs) -> None:
    if act.op == "put":
        win.put(bufs[act.buf], act.target, target_disp=act.disp,
                origin_offset=act.off, origin_count=act.count)
    elif act.op == "get":
        win.get(bufs[act.buf], act.target, target_disp=act.disp,
                origin_offset=act.off, origin_count=act.count)
    elif act.op == "acc":
        win.accumulate(bufs[act.buf], act.target, "SUM",
                       target_disp=act.disp, origin_offset=act.off,
                       origin_count=act.count)
    elif act.op == "load":
        bufs[act.buf].read_block(act.off, act.count, reps=act.reps)
    elif act.op == "store":
        bufs[act.buf].write_block([2.0] * act.count, act.off,
                                  reps=act.reps)
    elif act.op == "flush":
        if act.target < 0:
            win.flush_all()
        else:
            win.flush(act.target)
    else:  # pragma: no cover - validated before replay
        raise ValueError(f"unknown action op {act.op!r}")
