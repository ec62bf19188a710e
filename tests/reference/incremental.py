"""Reference slice digest — the per-event encoding.

Test oracle, not production: nothing under ``src/`` imports this
module.  Production hashes a slice of a rank's trace from its call
*columns* (:func:`repro.core.incremental.slice_digests`); here is the
encoding it replaced, moved unchanged — every call of the rank built as
an event and ``repr``'d — and a slice digest over it, so a test can ask
whether the two tell the same slices apart.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np


def encode_calls(events) -> Tuple[bytes, np.ndarray]:
    """One rank's call events in canonical form, back to back, and the
    ``n + 1`` byte offsets of the events in it.  A ``repr`` of ints,
    strings and tuples of them parses back to the values it was made
    from, so two different slices of events never share bytes."""
    chunks = [repr((e.seq, e.fn, e.args, e.loc.filename, e.loc.lineno,
                    e.loc.function)).encode("utf-8") for e in events]
    at = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum([len(chunk) for chunk in chunks], out=at[1:])
    return b"".join(chunks), at


def slice_digests(events: Sequence, rows: np.ndarray, strings: str,
                  lo: Sequence[int], hi: Sequence[int]) -> List[bytes]:
    """One digest per ``(lo, hi)``: the rank's string-table digest, its
    encoded calls with ``lo < seq <= hi`` and its packed memory rows
    with ``lo < seq < hi``, each piece length-prefixed."""
    calls, call_at = encode_calls(events)
    seq = np.array([e.seq for e in events], dtype=np.int64)
    digests = []
    for a, b in zip(lo, hi):
        inside = rows[(rows["seq"] > a) & (rows["seq"] < b)].tobytes()
        piece = calls[call_at[np.searchsorted(seq, a, side="right")]:
                      call_at[np.searchsorted(seq, b, side="right")]]
        digest = hashlib.sha256(bytes.fromhex(strings))
        for part in (piece, inside):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
        digests.append(digest.digest())
    return digests
