"""Constrained-random generation of synthetic RMA programs.

The generator draws a program from a seeded RNG under constraints that
make clean traffic *provably* conflict-free, so every finding the
checker reports on a generated program is attributable to an injected
bug:

* no rank ever targets itself with RMA, so rank *r*'s own window region
  carries no remote traffic and is safe for local loads;
* each clean RMA op owns the window slot indexed by its (origin rank,
  action slot) pair and a matching disjoint slice of the ``org`` arena,
  so same-epoch clean operations can never overlap on target or origin
  bytes;
* plain local stores go only to the non-window ``scratch`` arena
  (STORE vs PUT is erroneous even without byte overlap under the
  separate memory model), plain local loads only to the rank's own
  window region or scratch;
* a ``target_race`` bug whose local side is a *store* touches window
  memory, so its round quarantines the victim rank: no other put or
  accumulate (clean or injected) may target that rank in that round,
  or the quarantined store would race them all under the
  no-overlap-needed STORE/PUT rule and blur the ground truth;
* rounds are separated by barriers, so concurrency never spans rounds;
* rounds hosting a bug issue no flushes (an MPI-3 flush would complete
  the in-flight operation early and dissolve the injected conflict).

Injected bugs get the window slots *after* the clean region and a
dedicated ``bug{j}_org`` origin buffer each, which keeps their findings
byte-disjoint from clean traffic and distinguishable from each other —
including through report deduplication, which collapses findings whose
(rank, kind, location) sides coincide: the generator never places two
bugs of the same pattern on the same rank set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compat import compat_verdict
from repro.gen.config import (
    BUG_ANY, BUG_PATTERNS, GenConfig,
)
from repro.gen.manifest import InjectedBug, Manifest
from repro.gen.program import ITEMSIZE, Action, Program, Round

#: placement attempts per bug before giving up with guidance
_MAX_ATTEMPTS = 500


class GenerationError(ValueError):
    """A bug spec could not be placed under the config's constraints."""


@dataclass(frozen=True)
class GeneratedProgram:
    """A generated program with its ground-truth manifest."""

    config: GenConfig
    program: Program
    manifest: Manifest

    def save(self, directory: str) -> None:
        """Write ``program.json`` + ``manifest.json`` into a directory."""
        import os
        os.makedirs(directory, exist_ok=True)
        self.program.save(os.path.join(directory, "program.json"))
        self.manifest.save(os.path.join(directory, "manifest.json"))


def _weighted(rng: random.Random,
              weights: Sequence[Tuple[str, float]]) -> str:
    kinds = [k for k, w in weights if w > 0]
    ws = [w for _, w in weights if w > 0]
    return rng.choices(kinds, weights=ws)[0]


@dataclass
class _Placement:
    bug_id: int
    pattern: str
    round_index: int
    ranks: Tuple[int, ...]  # participating ranks, origin(s) first
    target: int  # rank owning the conflicting window memory
    severity: str
    rule: str
    kind: str
    local_kind: str = "load"  # target_race: the local access kind
    op_kinds: Tuple[str, str] = ("put", "put")  # op_pair: the two ops


def generate_program(config: GenConfig) -> GeneratedProgram:
    """Deterministically derive a program + manifest from the config."""
    cfg = config
    rng = random.Random(cfg.seed)
    n, nrounds, A, S = cfg.nranks, cfg.rounds, cfg.ops_per_round, \
        cfg.slot_elems
    nbugs = len(cfg.bugs)
    win_elems = (n * A + nbugs) * S
    prog_shell = Program(nranks=n, slot_elems=S, win_elems=win_elems,
                         org_elems=A * S, scratch_elems=A * S,
                         nbugs=nbugs, rounds=())

    kinds = [_weighted(rng, cfg.epoch_weights) for _ in range(nrounds)]
    pscw_offset = {i: rng.randrange(1, n) for i, k in enumerate(kinds)
                   if k == "pscw"}

    # --- bug placement -------------------------------------------------
    # per-round lock constraints: rank -> (target, lock_type)
    lock_constraints: List[Dict[int, Tuple[int, str]]] = \
        [dict() for _ in range(nrounds)]
    # per-round ranks already targeted by an injected put/acc, and ranks
    # quarantined by a window-store bug (no further put/acc may target
    # them in that round)
    putacc_targets: List[set] = [set() for _ in range(nrounds)]
    forbidden: List[set] = [set() for _ in range(nrounds)]
    used_keys = set()
    bug_rounds = set()
    placements: List[_Placement] = []
    for j, spec in enumerate(cfg.bugs):
        placements.append(
            _place_bug(rng, j, spec, kinds, pscw_offset, n,
                       lock_constraints, putacc_targets, forbidden,
                       used_keys, bug_rounds))

    # --- clean traffic -------------------------------------------------
    actions: List[List[List[Action]]] = []
    lock_targets: List[Tuple[int, ...]] = []
    lock_types: List[Tuple[str, ...]] = []
    for i, kind in enumerate(kinds):
        per_rank: List[List[Action]] = []
        targets: List[int] = []
        types: List[str] = []
        for r in range(n):
            if kind == "lock":
                constrained = lock_constraints[i].get(r)
                if constrained is not None:
                    t_r, lt_r = constrained
                else:
                    t_r = rng.choice([x for x in range(n) if x != r])
                    lt_r = "exclusive" if rng.random() < 0.15 \
                        else "shared"
                targets.append(t_r)
                types.append(lt_r)
            rank_actions: List[Action] = []
            for pos in range(A):
                op = _weighted(rng, cfg.op_weights)
                rank_actions.append(
                    _clean_action(rng, cfg, op, kind, i, r, pos,
                                  targets[-1] if kind == "lock" else -1,
                                  pscw_offset.get(i, 1), forbidden[i]))
            if kind == "lockall" and i not in bug_rounds and \
                    rng.random() < cfg.flush_prob:
                rank_actions.insert(rng.randrange(len(rank_actions) + 1),
                                    Action(op="flush", target=-1))
            per_rank.append(rank_actions)
        actions.append(per_rank)
        lock_targets.append(tuple(targets))
        lock_types.append(tuple(types))

    # --- bug injection -------------------------------------------------
    for placement in placements:
        _inject_bug(placement, actions, prog_shell)

    rounds = tuple(
        Round(kind=kinds[i],
              actions=tuple(tuple(acts) for acts in actions[i]),
              lock_targets=lock_targets[i],
              lock_types=lock_types[i],
              pscw_offset=pscw_offset.get(i, 1))
        for i in range(nrounds))
    program = Program(nranks=n, slot_elems=S, win_elems=win_elems,
                      org_elems=A * S, scratch_elems=A * S,
                      nbugs=nbugs, rounds=rounds)
    program.validate()

    bases = program.buffer_bases()
    bugs = []
    for p in placements:
        if p.pattern in ("get_local", "put_origin"):
            base = bases[f"bug{p.bug_id}_org"]
            span = (base, base + S * ITEMSIZE)
            home = p.ranks[0]
        else:
            span = program.bug_slot_bytes(p.bug_id)
            home = p.target
        bugs.append(InjectedBug(
            bug_id=p.bug_id, pattern=p.pattern, kind=p.kind,
            rule=p.rule, severity=p.severity,
            round_index=p.round_index,
            epoch_kind=kinds[p.round_index],
            ranks=p.ranks, home_rank=home,
            var=f"bug{p.bug_id}_org", span=span))
    manifest = Manifest(seed=cfg.seed, nranks=n, bugs=tuple(bugs))
    return GeneratedProgram(config=cfg, program=program,
                            manifest=manifest)


def _clean_action(rng: random.Random, cfg: GenConfig, op: str, kind: str,
                  round_index: int, r: int, pos: int, lock_target: int,
                  pscw_d: int, forbidden: set) -> Action:
    n, A, S = cfg.nranks, cfg.ops_per_round, cfg.slot_elems
    if op in ("put", "get", "acc"):
        if kind == "lock":
            target = lock_target
        elif kind == "pscw":
            target = (r + pscw_d) % n
        else:
            # writes must respect window-store quarantines; reads only
            # have to avoid self-targeting
            banned = forbidden if op != "get" else ()
            candidates = [x for x in range(n)
                          if x != r and x not in banned]
            if not candidates:
                return Action(op="load", buf="scratch", off=pos * S,
                              count=rng.randint(1, S), reps=cfg.reps)
            target = rng.choice(candidates)
        return Action(op=op, target=target, disp=(r * A + pos) * S,
                      count=rng.randint(1, S), buf="org", off=pos * S)
    if op == "load":
        if rng.random() < 0.5:
            # the rank's own window region: remote-traffic-free because
            # no rank self-targets
            return Action(op="load", buf="win",
                          off=(r * A + rng.randrange(A)) * S,
                          count=rng.randint(1, S), reps=cfg.reps)
        return Action(op="load", buf="scratch",
                      off=rng.randrange(A) * S,
                      count=rng.randint(1, S), reps=cfg.reps)
    # plain stores stay off window memory entirely
    return Action(op="store", buf="scratch", off=rng.randrange(A) * S,
                  count=rng.randint(1, S), reps=cfg.reps)


def _place_bug(rng: random.Random, bug_id: int, spec: str,
               kinds: List[str], pscw_offset: Dict[int, int], n: int,
               lock_constraints: List[Dict[int, Tuple[int, str]]],
               putacc_targets: List[set], forbidden: List[set],
               used_keys: set, bug_rounds: set) -> _Placement:
    for _ in range(_MAX_ATTEMPTS):
        pattern = rng.choice(BUG_PATTERNS) if spec == BUG_ANY else spec
        if pattern == "conflicting_puts":
            candidates = [i for i, k in enumerate(kinds) if k != "pscw"]
            if n < 3 or not candidates:
                if spec == BUG_ANY:
                    continue
                raise GenerationError(
                    f"bug {bug_id} ({spec!r}) needs >= 3 ranks and a "
                    "non-pscw round; raise nranks or adjust "
                    "epoch_weights")
        else:
            candidates = list(range(len(kinds)))
        ri = rng.choice(candidates)
        kind = kinds[ri]
        constraints = lock_constraints[ri]
        placement = _try_pattern(rng, bug_id, pattern, ri, kind,
                                 pscw_offset.get(ri, 1), n, constraints,
                                 putacc_targets[ri], forbidden[ri])
        if placement is None:
            continue
        placement, new_constraints, key = placement
        if key in used_keys:
            continue
        used_keys.add(key)
        constraints.update(new_constraints)
        if not (placement.pattern == "op_pair"
                and placement.op_kinds == ("get", "get")) \
                and placement.pattern != "get_local":
            putacc_targets[ri].add(placement.target)
        if placement.pattern == "target_race" and \
                placement.local_kind == "store":
            forbidden[ri].add(placement.target)
        bug_rounds.add(ri)
        return placement
    raise GenerationError(
        f"could not place bug {bug_id} ({spec!r}) after "
        f"{_MAX_ATTEMPTS} attempts; raise nranks/rounds or reduce the "
        "bug count")


def _try_pattern(rng: random.Random, bug_id: int, pattern: str, ri: int,
                 kind: str, pscw_d: int, n: int,
                 constraints: Dict[int, Tuple[int, str]],
                 putacc_targets: set, forbidden: set):
    """One placement attempt; returns (placement, new-lock-constraints,
    uniqueness key) or None if this draw is inconsistent."""
    new: Dict[int, Tuple[int, str]] = {}

    def origin_target(a: int) -> Optional[int]:
        if kind == "pscw":
            return (a + pscw_d) % n
        if kind == "lock":
            if a in constraints:
                return constraints[a][0]
            t = rng.choice([x for x in range(n) if x != a])
            new[a] = (t, "shared")
            return t
        return rng.choice([x for x in range(n) if x != a])

    if pattern in ("get_local", "put_origin", "op_pair"):
        a = rng.randrange(n)
        t = origin_target(a)
        if t == a:
            return None  # lock constraint from a bug targeting a itself
        if pattern != "get_local" and t in forbidden:
            return None  # would put/acc into a quarantined rank
        op_kinds = ("put", "put")
        if pattern == "op_pair":
            op_kinds = rng.choice(
                [("put", "put"), ("put", "get"), ("put", "acc"),
                 ("get", "acc")])
        # the injected ops overlap on the target: Table I's verdict
        rule = ("ORIGIN" if pattern != "op_pair"
                else compat_verdict(*op_kinds, True))
        return (_Placement(
            bug_id=bug_id, pattern=pattern, round_index=ri,
            ranks=(a, t), target=t, severity="error", rule=rule,
            kind="intra_epoch", op_kinds=op_kinds),
            new, (pattern, (a,)))

    if pattern == "conflicting_puts":
        t = rng.randrange(n)
        if t in forbidden:
            return None
        a, b = rng.sample([x for x in range(n) if x != t], 2)
        lt = "exclusive" if rng.random() < 0.25 else "shared"
        if kind == "lock":
            for o in (a, b):
                if o in constraints:
                    if constraints[o] != (t, lt):
                        return None
                else:
                    new[o] = (t, lt)
        severity = "warning" if kind == "lock" and lt == "exclusive" \
            else "error"
        return (_Placement(
            bug_id=bug_id, pattern=pattern, round_index=ri,
            ranks=(a, b, t), target=t, severity=severity,
            rule=compat_verdict("put", "put", True),
            kind="cross_process"),
            new, (pattern, frozenset((a, b))))

    # target_race
    if kind == "pscw":
        a = rng.randrange(n)
        t = (a + pscw_d) % n
    else:
        t = rng.randrange(n)
        a = rng.choice([x for x in range(n) if x != t])
        if kind == "lock":
            if a in constraints:
                if constraints[a][0] != t:
                    return None
            else:
                new[a] = (t, "shared")
    if t in forbidden:
        return None
    local_kind = rng.choice(("load", "store"))
    if local_kind == "store" and \
            (kind not in ("fence", "lockall") or t in putacc_targets):
        # a window store races *every* concurrent put/acc to its rank
        # (no overlap needed), so it can only live in a round where the
        # victim rank can be quarantined from other write traffic
        local_kind = "load"
    rule = compat_verdict(local_kind, "put", True)
    return (_Placement(
        bug_id=bug_id, pattern="target_race", round_index=ri,
        ranks=(a, t), target=t, severity="error", rule=rule,
        kind="cross_process", local_kind=local_kind),
        new, ("target_race", frozenset((a, t))))


def _inject_bug(p: _Placement, actions: List[List[List[Action]]],
                prog: Program) -> None:
    S = prog.slot_elems
    slot, _ = prog.bug_slot(p.bug_id)
    var = f"bug{p.bug_id}_org"
    a = p.ranks[0]
    mine = actions[p.round_index]
    if p.pattern == "get_local":
        mine[a] += [
            Action(op="get", target=p.target, disp=slot, count=S,
                   buf=var, off=0, bug=p.bug_id),
            Action(op="load", buf=var, off=0, count=S, bug=p.bug_id),
            Action(op="store", buf=var, off=0, count=S, bug=p.bug_id),
        ]
    elif p.pattern == "put_origin":
        mine[a] += [
            Action(op="put", target=p.target, disp=slot, count=S,
                   buf=var, off=0, bug=p.bug_id),
            Action(op="store", buf=var, off=0, count=S, bug=p.bug_id),
        ]
    elif p.pattern == "op_pair":
        # overlapping target bytes, disjoint origin slices (so only the
        # target-side Table-I conflict is injected)
        c = max(1, S // 2)
        op1, op2 = p.op_kinds
        mine[a] += [
            Action(op=op1, target=p.target, disp=slot, count=c,
                   buf=var, off=0, bug=p.bug_id),
            Action(op=op2, target=p.target, disp=slot, count=c,
                   buf=var, off=c, bug=p.bug_id),
        ]
    elif p.pattern == "conflicting_puts":
        b = p.ranks[1]
        for o in (a, b):
            mine[o].append(
                Action(op="put", target=p.target, disp=slot, count=S,
                       buf=var, off=0, bug=p.bug_id))
    else:  # target_race
        t = p.target
        mine[a].append(
            Action(op="put", target=t, disp=slot, count=S, buf=var,
                   off=0, bug=p.bug_id))
        mine[t].append(
            Action(op=p.local_kind, buf="win", off=slot, count=S,
                   bug=p.bug_id))
