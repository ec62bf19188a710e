"""GenConfig — one immutable value describing how to generate a program.

The constrained-random generator mirrors the analysis side's
:class:`~repro.core.config.CheckConfig` contract: every entry point
(``api.generate``, ``api.fuzz``, the CLI verbs) accepts a single frozen
``GenConfig`` value, and overrides derive new configs with
:meth:`GenConfig.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

#: epoch structures the generator can emit for a round
EPOCH_KINDS = ("fence", "lock", "lockall", "pscw")

#: access kinds appearing in the op mix (RMA ops + plain local accesses)
OP_KINDS = ("put", "get", "acc", "load", "store")

#: injectable conflict patterns, each mapped to one of the paper's bug
#: classes (see docs/fuzzing.md for the mapping)
BUG_PATTERNS = ("get_local", "put_origin", "op_pair",
                "conflicting_puts", "target_race")

#: wildcard bug spec: the generator picks the pattern from the seed
BUG_ANY = "any"

_WEIGHT_KEYS = {"epoch_weights": EPOCH_KINDS, "op_weights": OP_KINDS}


def _default_epoch_weights() -> Tuple[Tuple[str, float], ...]:
    return tuple((kind, 1.0) for kind in EPOCH_KINDS)


def _default_op_weights() -> Tuple[Tuple[str, float], ...]:
    return (("put", 2.0), ("get", 2.0), ("acc", 1.0),
            ("load", 2.0), ("store", 1.0))


@dataclass(frozen=True)
class GenConfig:
    """How one synthetic RMA program should be generated.

    Immutable so a config can double as a corpus key; the same config
    (seed included) always regenerates the identical program and
    manifest byte for byte.
    """

    #: master seed — the only source of randomness
    seed: int = 0
    #: simulated ranks (scales into the hundreds)
    nranks: int = 4
    #: synchronization rounds (each round = one epoch per rank)
    rounds: int = 3
    #: actions (RMA ops / local accesses) per rank per round
    ops_per_round: int = 3
    #: relative weights of the epoch structure drawn for each round
    epoch_weights: Tuple[Tuple[str, float], ...] = None  # type: ignore
    #: relative weights of the access kinds drawn for each action slot
    op_weights: Tuple[Tuple[str, float], ...] = None  # type: ignore
    #: injected bugs: each entry a pattern name or ``"any"``
    bugs: Tuple[str, ...] = ()
    #: window/origin elements per action slot (slot granularity)
    slot_elems: int = 2
    #: semantic repetitions of each local access (the profiler logs them
    #: as one block record, scaling event counts into the millions
    #: without per-event cost)
    reps: int = 1
    #: probability that a lock_all round issues a mid-epoch flush_all
    flush_prob: float = 0.25
    #: trace encoding for profiled runs of the program
    trace_format: str = "binary"
    #: simulated message-delivery policy (determinism comes from the seed)
    delivery: str = "random"
    #: simulated scheduler policy
    sched_policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.epoch_weights is None:
            object.__setattr__(self, "epoch_weights",
                               _default_epoch_weights())
        if self.op_weights is None:
            object.__setattr__(self, "op_weights", _default_op_weights())
        object.__setattr__(self, "epoch_weights",
                           tuple((str(k), float(w))
                                 for k, w in self.epoch_weights))
        object.__setattr__(self, "op_weights",
                           tuple((str(k), float(w))
                                 for k, w in self.op_weights))
        object.__setattr__(self, "bugs",
                           tuple(str(b) for b in self.bugs))
        if self.nranks < 2:
            raise ValueError(
                f"nranks must be >= 2 (RMA needs a remote target), "
                f"got {self.nranks}")
        for name, lo in (("rounds", 1), ("ops_per_round", 1),
                         ("slot_elems", 2), ("reps", 1)):
            if getattr(self, name) < lo:
                raise ValueError(
                    f"{name} must be >= {lo}, got {getattr(self, name)}")
        for field_name, valid in _WEIGHT_KEYS.items():
            weights = getattr(self, field_name)
            for kind, weight in weights:
                if kind not in valid:
                    raise ValueError(
                        f"unknown {field_name} kind {kind!r} "
                        f"(expected one of {valid})")
                if weight < 0:
                    raise ValueError(
                        f"{field_name}[{kind!r}] must be >= 0, "
                        f"got {weight}")
        if not any(w > 0 for _, w in self.epoch_weights):
            raise ValueError("epoch_weights must give positive weight "
                             "to at least one epoch kind")
        if not any(w > 0 for k, w in self.op_weights):
            raise ValueError("op_weights must give positive weight to "
                             "at least one op kind")
        for bug in self.bugs:
            if bug != BUG_ANY and bug not in BUG_PATTERNS:
                raise ValueError(
                    f"unknown bug pattern {bug!r} (expected one of "
                    f"{BUG_PATTERNS} or {BUG_ANY!r})")
        if not 0.0 <= self.flush_prob <= 1.0:
            raise ValueError(
                f"flush_prob must be in [0, 1], got {self.flush_prob}")
        if self.trace_format not in ("text", "binary"):
            raise ValueError(
                f"unknown trace_format {self.trace_format!r} "
                "(expected 'text' or 'binary')")

    def replace(self, **changes) -> "GenConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "nranks": self.nranks,
            "rounds": self.rounds, "ops_per_round": self.ops_per_round,
            "epoch_weights": [list(w) for w in self.epoch_weights],
            "op_weights": [list(w) for w in self.op_weights],
            "bugs": list(self.bugs), "slot_elems": self.slot_elems,
            "reps": self.reps, "flush_prob": self.flush_prob,
            "trace_format": self.trace_format,
            "delivery": self.delivery,
            "sched_policy": self.sched_policy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        return cls(
            seed=int(data["seed"]), nranks=int(data["nranks"]),
            rounds=int(data["rounds"]),
            ops_per_round=int(data["ops_per_round"]),
            epoch_weights=tuple((k, w) for k, w in data["epoch_weights"]),
            op_weights=tuple((k, w) for k, w in data["op_weights"]),
            bugs=tuple(data["bugs"]), slot_elems=int(data["slot_elems"]),
            reps=int(data["reps"]), flush_prob=float(data["flush_prob"]),
            trace_format=str(data["trace_format"]),
            delivery=str(data["delivery"]),
            sched_policy=str(data["sched_policy"]))
