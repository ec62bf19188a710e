"""Within-epoch conflict rules (section IV-C-3, Figure 2a).

Operations inside one epoch at one rank are mutually unordered (they are
nonblocking and complete only at the epoch-closing synchronization — or at
an MPI-3 flush), so the paper checks all of them pairwise against the
memory model ruleset.  This module holds the per-pair checks — the only
place an intra-epoch finding's payload is written.
:func:`repro.core.engine.find_epoch_pairs` finds the candidate pairs as
arrays over the :class:`~repro.core.model.OpTable` and cuts them by the
same conditions (completion order, Table I, the two-reads rule);
:func:`~repro.core.engine.emit_epoch_findings` builds views for what is
left and calls the checks on them, which re-check and word the finding.
The paper's all-pairs walk over one epoch, and the per-epoch bucketing of
view objects it walks, are ``tests/reference/pairwise.py``
(``check_epoch``, ``bucket_by_epoch``).  Two access populations matter
here:

* the *local buffers attached to the epoch's RMA calls* — a Put or
  Accumulate reads its origin at an undefined instant before completion, a
  Get (and the result side of MPI-3 fetching atomics) writes its local
  buffer at an undefined instant — so until completion those buffers are
  off limits for conflicting local accesses;
* the *target intervals* of same-epoch RMA calls to the same target, which
  fall under Table I (e.g. two overlapping Puts in one epoch are
  undefined).

Conflicts involving the *window* memory at the target (including a rank
targeting itself) are the cross-process detector's job.
"""

from __future__ import annotations

from typing import List

from repro.core.clocks import Span
from repro.core.compat import accumulate_exception, compat_verdict
from repro.core.diagnostics import (
    INTRA_EPOCH, SEVERITY_ERROR, AccessDesc, ConsistencyError,
)
from repro.core.epochs import Epoch
from repro.core.model import LocalAccess, RMAOpView


def _desc_op(op: RMAOpView, origin_side: bool) -> AccessDesc:
    fn = op.fn or {"put": "Put", "get": "Get", "acc": "Accumulate"}[op.kind]
    return AccessDesc(
        rank=op.rank, kind=op.kind, fn=fn, var=op.origin_var, loc=op.loc,
        intervals=op.origin_intervals if origin_side else op.target_intervals,
        seq=op.seq)


def _desc_local(la: LocalAccess) -> AccessDesc:
    return AccessDesc(rank=la.rank, kind=la.access, fn=la.fn, var=la.var,
                      loc=la.loc, intervals=la.intervals, seq=la.seq)


def _spans_unordered(a: Span, b: Span) -> bool:
    """Same-rank span concurrency (consistency order only)."""
    return not (a.end_seq <= b.start_seq or b.end_seq <= a.start_seq)


def _span_ref(span: Span) -> list:
    """Trace reference of an influence span: ``[rank, start, end]`` in
    trace sequence numbers (the record indices of the rank's trace)."""
    return [span.rank, span.start_seq, span.end_seq]


def _epoch_prov(epoch: Epoch) -> dict:
    return {"rank": epoch.rank, "win": epoch.win_id, "kind": epoch.kind,
            "open_seq": epoch.open_seq, "close_seq": epoch.close_seq}


def _check_target_pair(op_a: RMAOpView, op_b: RMAOpView,
                       memory_model: str) -> ConsistencyError:
    # ops completing at different points (MPI-3 flush between them) are
    # consistency-ordered even within one epoch
    if op_a.complete_seq <= op_b.seq or op_b.complete_seq <= op_a.seq:
        return None
    if op_a.target != op_b.target:
        return None
    overlap = op_a.target_intervals.intersection(op_b.target_intervals)
    verdict = compat_verdict(
        op_a.kind, op_b.kind, bool(overlap),
        acc_same=accumulate_exception(op_a.acc_op, op_a.acc_base,
                                      op_b.acc_op, op_b.acc_base),
        model=memory_model)
    if verdict is None:
        return None
    return ConsistencyError(
        kind=INTRA_EPOCH, severity=SEVERITY_ERROR, rule=verdict,
        win_id=op_a.win_id,
        a=_desc_op(op_a, origin_side=False),
        b=_desc_op(op_b, origin_side=False),
        overlap=overlap,
        note="unordered same-epoch operations on the same target",
        provenance={
            "phase": "intra", "pattern": "op_pair",
            "spans": {"a": _span_ref(op_a.span),
                      "b": _span_ref(op_b.span)},
            "epoch": (_epoch_prov(op_a.epoch)
                      if op_a.epoch is not None else None),
            "target": op_a.target,
            "hb": {"edge": "same-epoch-unordered",
                   "detail": "no flush or epoch close separates the "
                             "operations' completion points"},
        })


def _check_attached_vs_plain(attached: LocalAccess,
                             la: LocalAccess) -> List[ConsistencyError]:
    op = attached.origin_of
    # program order protects accesses before the issue; the flush/close
    # completes the op before anything after it
    if la.seq < op.seq or la.seq > op.complete_seq:
        return []
    if attached.access != "store" and la.access != "store":
        return []  # two reads never conflict
    overlap = attached.intervals.intersection(la.intervals)
    if not overlap:
        return []
    return [ConsistencyError(
        kind=INTRA_EPOCH, severity=SEVERITY_ERROR, rule="ORIGIN",
        win_id=op.win_id,
        a=_desc_attached(attached), b=_desc_local(la), overlap=overlap,
        note=("the one-sided operation is not complete until "
              f"seq {op.complete_seq}; the local access may observe or "
              "corrupt in-flight data"),
        provenance={
            "phase": "intra", "pattern": "origin_vs_plain",
            "spans": {"a": _span_ref(op.span),
                      "b": _span_ref(la.span)},
            "epoch": (_epoch_prov(op.epoch)
                      if op.epoch is not None else None),
            "hb": {"edge": "origin-in-flight",
                   "detail": "the local access falls inside the "
                             "operation's issue-to-completion window"},
        })]


def _check_attached_pair(acc_a: LocalAccess,
                         acc_b: LocalAccess) -> List[ConsistencyError]:
    if not _spans_unordered(acc_a.span, acc_b.span):
        return []
    if acc_a.access != "store" and acc_b.access != "store":
        return []
    overlap = acc_a.intervals.intersection(acc_b.intervals)
    if not overlap:
        return []
    return [ConsistencyError(
        kind=INTRA_EPOCH, severity=SEVERITY_ERROR, rule="ORIGIN",
        win_id=acc_a.origin_of.win_id,
        a=_desc_attached(acc_a), b=_desc_attached(acc_b), overlap=overlap,
        note="overlapping local buffers of unordered same-epoch "
             "operations, at least one of which writes locally",
        provenance={
            "phase": "intra", "pattern": "origin_pair",
            "spans": {"a": _span_ref(acc_a.span),
                      "b": _span_ref(acc_b.span)},
            "epoch": (_epoch_prov(acc_a.origin_of.epoch)
                      if acc_a.origin_of.epoch is not None else None),
            "hb": {"edge": "same-epoch-unordered",
                   "detail": "both owning operations are in flight "
                             "over overlapping local buffers"},
        })]


def _desc_attached(la: LocalAccess) -> AccessDesc:
    op = la.origin_of
    return AccessDesc(rank=la.rank, kind=op.kind, fn=la.fn, var=la.var,
                      loc=la.loc, intervals=la.intervals, seq=la.seq)
