"""Content hashing for the incremental-checking cache.

Every cache decision reduces to "are these bytes the same bytes we saw
last time": per-rank trace digests, per-(shard, rank) call/memory slice
digests, and the rolled-up shard keys are all SHA-256 over a *canonical*
byte serialization.  Canonical means collision-resistant by construction
— variable-length parts are length-prefixed, structured values go
through sorted-key JSON — so two different inputs can never serialize to
the same byte stream.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Sequence, Tuple

import numpy as np

_LEN_SEP = b"\x00"
_U64 = struct.Struct("<Q")


def hash_file(path: str, chunk_size: int = 1 << 20) -> str:
    """Digest of a file's raw bytes (the v1/text whole-trace digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def hash_strings(strings: Sequence[str]) -> str:
    """Digest of an ordered string sequence (a binary trace's string table).

    Each string is length-prefixed, so ``["ab", "c"]`` and ``["a", "bc"]``
    digest differently.  An all-ASCII table — the usual one — is hashed
    as one joined string, encoded once: its UTF-8 length is its length.
    """
    joined = "".join([f"{len(string)}\x00{string}" for string in strings])
    if joined.isascii():
        return hashlib.sha256(joined.encode("ascii")).hexdigest()
    return hashlib.sha256(b"".join(
        b"%d%b%b" % (len(raw), _LEN_SEP, raw)
        for raw in (text.encode("utf-8") for text in strings))).hexdigest()


def hash_ranges(prefix: bytes, parts: Sequence[Tuple],
                chain: bool = False) -> np.ndarray:
    """``(ranges, 32)`` bytes: one SHA-256 per range ``k``, over
    ``prefix`` and every part's bytes ``buffer[starts[k]:ends[k]]`` — the
    bulk form behind the slice digests and the shard keys: thousands of
    small digests over a few large buffers, without a per-range copy.

    ``parts`` are ``(buffer, starts, ends)`` with the byte offsets as
    integer arrays.  The number of parts follows the prefix and the
    lengths of a range's pieces precede them, so moving a byte from one
    part to its neighbour changes the digest.  With ``chain``, digest
    ``k`` covers the ranges ``0 .. k``: one hash fed range after range."""
    base = hashlib.sha256(prefix + _U64.pack(len(parts)))
    sizes = np.stack([ends - starts for _buffer, starts, ends in parts],
                     axis=1).astype("<u8").tobytes()
    width = 8 * len(parts)
    columns = [(memoryview(buffer).cast("B"), starts.tolist(), ends.tolist())
               for buffer, starts, ends in parts]
    digests = []
    for k in range(len(sizes) // width):
        digest = base if chain else base.copy()
        digest.update(sizes[k * width:(k + 1) * width])
        for view, starts, ends in columns:
            if ends[k] > starts[k]:
                digest.update(view[starts[k]:ends[k]])
        digests.append(digest.digest())
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, 32)


def stable_hash(obj) -> str:
    """Digest of a JSON-serializable object in canonical form.

    ``sort_keys`` plus compact separators make the serialization a pure
    function of the value, independent of dict insertion order.
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
