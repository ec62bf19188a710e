"""Consistency-error reports with the paper's diagnostic payload.

When DN-Analyzer finds a pair of conflicting operations it reports the
error "along with useful diagnostic information ... such as pairs of
conflicting operations and operation locations including file names,
routine names, and line numbers" (section III / IV-C).  That payload lives
in :class:`ConsistencyError`, written by :func:`write_finding` from one
table of the five finding patterns; reports deduplicate structurally
identical findings (same statement pair racing every loop iteration
counts once, with an occurrence counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.util.intervals import Interval, IntervalSet
from repro.util.location import SourceLocation

# error kinds
INTRA_EPOCH = "intra_epoch"
CROSS_PROCESS = "cross_process"

# severities
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: the call an RMA access kind names when no concrete call is logged
_RMA_FN = {"put": "Put", "get": "Get", "acc": "Accumulate"}


@dataclass
class AccessDesc:
    """One side of a conflicting pair."""

    rank: int
    kind: str  # load | store | get | put | acc
    fn: str  # MPI call name or "mem"
    var: str
    loc: SourceLocation
    intervals: IntervalSet
    #: trace sequence number of the access (issue point for RMA ops)
    seq: int = -1

    def describe(self) -> str:
        if self.kind in ("put", "get", "acc"):
            # prefer the concrete call name (MPI-3 atomics map to "acc")
            op = "MPI_" + (self.fn if self.fn and self.fn != "mem"
                           else _RMA_FN[self.kind])
        elif self.fn == "mem":
            op = f"local {self.kind}"
        else:
            op = f"{self.kind} via MPI_{self.fn}"
        return f"{op} of '{self.var}' by rank {self.rank} at {self.loc.short}"


@dataclass
class ConsistencyError:
    """One detected memory consistency error (or warning)."""

    kind: str  # intra_epoch | cross_process
    severity: str  # error | warning
    rule: str  # violated Table-I cell: NONOV | ERROR | ORIGIN
    win_id: Optional[int]
    a: AccessDesc
    b: AccessDesc
    overlap: IntervalSet
    note: str = ""
    occurrences: int = 1
    #: why the pair was flagged: detection phase/pattern, the two
    #: influence spans (``[rank, start_seq, end_seq]`` trace references),
    #: the enclosing epoch (intra) and the happens-before edge that
    #: failed.  Set by :func:`write_finding` from pair-derived facts
    #: only, so structurally identical findings carry identical
    #: provenance on every executor / job count / cache path.
    provenance: dict = field(default_factory=dict)
    #: run-context annotation (mode, jobs, cache status, shard) — set
    #: after detection by the run that produced the report.  Never
    #: serialized and excluded from comparison: it describes *how this
    #: run found the error*, not the error itself, and varies across
    #: execution paths that must stay byte-identical.
    context: Optional[dict] = field(default=None, compare=False,
                                    repr=False)

    def suggestion(self) -> str:
        """A repair hint matched to the conflict class — the paper's goal
        of diagnostics that "help programmers locate and fix the bugs"."""
        rma_kinds = {"put", "get", "acc"}
        local_side = None
        if self.a.kind not in rma_kinds or self.a.fn == "mem":
            local_side = self.a
        elif self.b.kind not in rma_kinds or self.b.fn == "mem":
            local_side = self.b
        if self.kind == INTRA_EPOCH:
            if self.rule == "ORIGIN" and local_side is not None:
                return ("move the local access past the epoch-closing "
                        "synchronization (unlock/fence/complete), or "
                        "complete the operation early with an MPI-3 "
                        "Win_flush before touching its buffer")
            if self.rule == "ORIGIN":
                return ("give each operation its own local buffer, or "
                        "separate them with an MPI-3 Win_flush")
            return ("split the conflicting operations into separate "
                    "epochs (close and reopen the synchronization between "
                    "them), or make them same-op accumulates")
        # cross-process
        if self.severity == SEVERITY_WARNING:
            return ("the exclusive locks serialize these accesses but not "
                    "their order; if the order matters, add explicit "
                    "synchronization (e.g. send/recv or a barrier) "
                    "between the epochs")
        if local_side is not None:
            return (f"synchronize rank {local_side.rank}'s local access "
                    "with the remote epoch: separate them with a barrier/"
                    "send-recv, or protect both sides with exclusive locks")
        if self.a.kind == "acc" and self.b.kind == "acc":
            return ("use the same reduction op and basic datatype for "
                    "concurrent accumulates (they are then permitted to "
                    "overlap), or serialize the epochs")
        return ("order the conflicting epochs (barrier, send/recv, or "
                "post/start-complete/wait), target disjoint window "
                "regions, or replace the updates with same-op "
                "accumulates")

    @property
    def dedup_key(self) -> Tuple:
        sides = sorted([
            (self.a.rank, self.a.kind, self.a.fn, self.a.loc),
            (self.b.rank, self.b.kind, self.b.fn, self.b.loc),
        ])
        return (self.kind, self.severity, self.rule, self.win_id,
                tuple(sides))

    def to_dict(self) -> dict:
        """JSON-ready representation (for ``mc-checker check --json``)."""
        def side(desc: AccessDesc) -> dict:
            return {
                "rank": desc.rank, "kind": desc.kind, "fn": desc.fn,
                "var": desc.var, "seq": desc.seq,
                "file": desc.loc.filename, "line": desc.loc.lineno,
                "function": desc.loc.function,
                "intervals": [[iv.start, iv.stop]
                              for iv in desc.intervals],
            }

        return {
            "kind": self.kind,
            "severity": self.severity,
            "rule": self.rule,
            "window": self.win_id,
            "a": side(self.a),
            "b": side(self.b),
            "overlap_bytes": self.overlap.byte_count(),
            "overlap": [[iv.start, iv.stop] for iv in self.overlap],
            "note": self.note,
            "suggestion": self.suggestion(),
            "occurrences": self.occurrences,
            "provenance": dict(self.provenance),
        }

    def to_payload(self) -> dict:
        """Lossless JSON-ready form (the incremental result cache).

        Unlike :meth:`to_dict` — a presentation format that flattens
        locations and derives the suggestion — this round-trips through
        :meth:`from_payload` into a finding that is indistinguishable
        from the original: same dedup key, same sort key, same
        ``to_dict()`` output."""
        def side(desc: AccessDesc) -> dict:
            return {
                "rank": desc.rank, "kind": desc.kind, "fn": desc.fn,
                "var": desc.var, "seq": desc.seq,
                "loc": desc.loc.encode(),
                "iv": [[iv.start, iv.stop] for iv in desc.intervals],
            }

        return {
            "kind": self.kind, "severity": self.severity,
            "rule": self.rule, "win": self.win_id,
            "a": side(self.a), "b": side(self.b),
            "overlap": [[iv.start, iv.stop] for iv in self.overlap],
            "note": self.note, "occurrences": self.occurrences,
            "prov": dict(self.provenance),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ConsistencyError":
        def side(data: dict) -> AccessDesc:
            return AccessDesc(
                rank=int(data["rank"]), kind=str(data["kind"]),
                fn=str(data["fn"]), var=str(data["var"]),
                loc=SourceLocation.decode(str(data["loc"])),
                intervals=IntervalSet(
                    Interval(int(s), int(t)) for s, t in data["iv"]),
                seq=int(data["seq"]))

        win = payload["win"]
        return cls(
            kind=str(payload["kind"]), severity=str(payload["severity"]),
            rule=str(payload["rule"]),
            win_id=None if win is None else int(win),
            a=side(payload["a"]), b=side(payload["b"]),
            overlap=IntervalSet(
                Interval(int(s), int(t)) for s, t in payload["overlap"]),
            note=str(payload["note"]),
            occurrences=int(payload["occurrences"]),
            provenance=dict(payload.get("prov", {})))

    def provenance_line(self) -> str:
        """One-line rendering of the provenance record (text reports)."""
        prov = self.provenance
        parts = [f"{prov.get('phase', '?')}/{prov.get('pattern', '?')}"]
        spans = prov.get("spans")
        if spans:
            def one(span) -> str:
                rank, start, end = span
                return f"rank{rank}[{start},{end}]"
            parts.append(f"spans {one(spans['a'])} vs {one(spans['b'])}")
        epoch = prov.get("epoch")
        if epoch:
            parts.append(
                f"epoch {epoch['kind']}@rank{epoch['rank']}"
                f"[{epoch['open_seq']},{epoch['close_seq']}]")
        hb = prov.get("hb")
        if hb:
            parts.append(f"hb={hb.get('edge', '?')}")
        return "; ".join(parts)

    def format(self) -> str:
        head = ("WARNING" if self.severity == SEVERITY_WARNING else "ERROR")
        where = ("within an epoch" if self.kind == INTRA_EPOCH
                 else "across processes")
        lines = [
            f"{head}: memory consistency conflict {where}"
            + (f" on window {self.win_id}" if self.win_id is not None
               else ""),
            f"  (1) {self.a.describe()}",
            f"  (2) {self.b.describe()}",
        ]
        if self.overlap:
            b = self.overlap.bounds()
            lines.append(
                f"  overlapping bytes: [{b.start:#x}, {b.stop:#x}) "
                f"({self.overlap.byte_count()} bytes)")
        else:
            lines.append("  no byte overlap, but the combination is "
                         "erroneous under the MPI memory model")
        if self.note:
            lines.append(f"  note: {self.note}")
        if self.provenance:
            lines.append(f"  provenance: {self.provenance_line()}")
        lines.append(f"  suggested fix: {self.suggestion()}")
        if self.occurrences > 1:
            lines.append(f"  seen {self.occurrences} times")
        return "\n".join(lines)


#: how each side of a pair is described: an RMA operation by its target
#: bytes, a local buffer of one by the operation's kind, any other local
#: access by its own
_OP, _ORIGIN, _LOCAL = range(3)

#: the five finding patterns, keyed by (phase, provenance pattern): the
#: finding kind, how sides a and b are described, the note (``complete``:
#: the completion seq of the operation the finding is about, ``target``:
#: its target rank) and the happens-before edge the pair lacks
PATTERNS = {
    ("intra", "op_pair"): (
        INTRA_EPOCH, _OP, _OP,
        "unordered same-epoch operations on the same target",
        "same-epoch-unordered",
        "no flush or epoch close separates the operations' completion "
        "points"),
    ("intra", "origin_vs_plain"): (
        INTRA_EPOCH, _ORIGIN, _LOCAL,
        "the one-sided operation is not complete until seq {complete}; "
        "the local access may observe or corrupt in-flight data",
        "origin-in-flight",
        "the local access falls inside the operation's issue-to-completion "
        "window"),
    ("intra", "origin_pair"): (
        INTRA_EPOCH, _ORIGIN, _ORIGIN,
        "overlapping local buffers of unordered same-epoch operations, at "
        "least one of which writes locally",
        "same-epoch-unordered",
        "both owning operations are in flight over overlapping local "
        "buffers"),
    ("inter", "op_pair"): (
        CROSS_PROCESS, _OP, _OP,
        "concurrent one-sided operations on the window at rank {target}",
        "concurrent",
        "no happens-before path orders the two operations' influence "
        "spans"),
    ("inter", "local_vs_op"): (
        CROSS_PROCESS, _LOCAL, _OP,
        "local access at target rank {target} concurrent with a remote "
        "one-sided operation on the same window",
        "concurrent",
        "no happens-before path orders the local access against the "
        "remote operation"),
}

def _describe(how: int, view) -> AccessDesc:
    if how == _OP:
        return AccessDesc(rank=view.rank, kind=view.kind,
                          fn=view.fn or _RMA_FN[view.kind],
                          var=view.origin_var, loc=view.loc,
                          intervals=view.target_intervals, seq=view.seq)
    kind = view.origin_of.kind if how == _ORIGIN else view.access
    return AccessDesc(rank=view.rank, kind=kind, fn=view.fn, var=view.var,
                      loc=view.loc, intervals=view.intervals, seq=view.seq)


def _span_ref(span) -> list:
    """Trace reference of an influence span: ``[rank, start, end]`` in
    trace sequence numbers (the record indices of the rank's trace)."""
    return [span.rank, span.start_seq, span.end_seq]


def _exclusive(how: int, view, win_id: int, lock_index) -> bool:
    if how == _OP:
        return view.epoch is not None and view.epoch.exclusive
    return lock_index.covers(view, win_id)


def write_finding(phase: str, pattern: str, rule: str, a, b,
                  exposure: Optional[IntervalSet] = None,
                  lock_index=None) -> ConsistencyError:
    """Word a pair already judged to violate ``rule``: the only place a
    finding is written.  ``a`` / ``b`` are the two views (an
    ``RMAOpView`` or a ``LocalAccess``, as :data:`PATTERNS` says); a
    ``local_vs_op`` pair also takes the window's ``exposure`` at the
    target, which bounds the local side's bytes, and the
    ``LocalLockIndex`` that says whether that side holds an exclusive
    lock.  Overlap, severity and provenance are computed here from the
    pair alone, so one pair reads the same on every path that finds it."""
    kind, how_a, how_b, note, edge, detail = PATTERNS[(phase, pattern)]
    desc_a, desc_b = _describe(how_a, a), _describe(how_b, b)
    # the operation the finding is about: b's, or for an origin buffer
    # against a plain access, a's
    op = b if how_b == _OP else b.origin_of or a.origin_of
    bytes_a = desc_a.intervals if exposure is None \
        else desc_a.intervals.intersection(exposure)
    severity = SEVERITY_ERROR
    if phase == "inter" and _exclusive(how_a, a, op.win_id, lock_index) \
            and _exclusive(how_b, b, op.win_id, lock_index):
        severity = SEVERITY_WARNING
    provenance = {"phase": phase, "pattern": pattern,
                  "spans": {"a": _span_ref(a.span), "b": _span_ref(b.span)}}
    if phase == "intra":
        epoch = op.epoch
        provenance["epoch"] = None if epoch is None else {
            "rank": epoch.rank, "win": epoch.win_id, "kind": epoch.kind,
            "open_seq": epoch.open_seq, "close_seq": epoch.close_seq}
    if how_b == _OP:
        provenance["target"] = op.target
    provenance["hb"] = {"edge": edge, "detail": detail}
    return ConsistencyError(
        kind=kind, severity=severity, rule=rule, win_id=op.win_id,
        a=desc_a, b=desc_b, overlap=bytes_a.intersection(desc_b.intervals),
        note=note.format(complete=op.complete_seq, target=op.target),
        provenance=provenance)


def annotate_context(findings: List[ConsistencyError],
                     **context) -> List[ConsistencyError]:
    """Overlay run-context keys (mode, jobs, cache status, ...) onto
    each finding's non-serialized ``context`` annotation."""
    for finding in findings:
        merged = dict(finding.context or {})
        merged.update(context)
        finding.context = merged
    return findings


def _side_sort_key(desc: AccessDesc) -> Tuple:
    return (desc.rank, desc.seq, desc.loc.filename, desc.loc.lineno,
            desc.loc.function, desc.kind, desc.fn, desc.var)


def sort_findings(errors: List[ConsistencyError]) -> List[ConsistencyError]:
    """Deterministic report order: by (rank, seq, location) of the two
    sides, then the structural fields.

    Executors discover the same multiset of findings in different
    orders (serial vs sharded merges, release-at-a-time streaming, cached
    shards, and the per-pair reference walks of ``tests/reference``).
    Sorting *before* :func:`dedupe` makes both the surviving
    representative of each duplicate group and the final report order
    functions of the findings themselves, never of discovery order —
    which is what lets every executor produce byte-identical reports.
    """
    def key(error: ConsistencyError) -> Tuple:
        return (error.kind, error.severity, error.rule,
                -1 if error.win_id is None else error.win_id,
                _side_sort_key(error.a), _side_sort_key(error.b),
                error.note)

    return sorted(errors, key=key)


def dedupe(errors: List[ConsistencyError]) -> List[ConsistencyError]:
    """Collapse structurally identical findings, keeping counts."""
    seen = {}
    out: List[ConsistencyError] = []
    for error in errors:
        key = error.dedup_key
        if key in seen:
            seen[key].occurrences += 1
        else:
            seen[key] = error
            out.append(error)
    return out
