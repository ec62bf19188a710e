"""Keyed, checksummed on-disk store for incremental-check results.

Layout, flat under the cache root, two files per config::

    <root>/<key>.manifest   the latest run's manifest
    <root>/<key>.pack       every shard payload of the latest run that
                            analyzed shards, and of the run before it

An entry is a header line — the SHA-256 of everything after it — then a
JSON object on one line, then raw bytes the object describes (the
manifest's digest table; empty for a pack).  A run thus writes two
files whatever its shard count, each over its predecessor.  Two
properties matter more than speed:

* **Atomic writes** — an entry is staged to a temp file in the root and
  published with :func:`os.replace`, so readers never see a half-written
  entry even if the process dies mid-write (a stray ``.tmp`` left by a
  killed writer is never read).
* **Corruption-safe reads** — any unreadable, truncated, bit-flipped,
  unparsable, or key-mismatched entry (two entries swapped or renamed,
  or a file written by an older layout) is reported as ``"corrupt"`` and
  treated by the caller as a miss (recompute and publish), never as an
  error and never as a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional, Tuple

#: load() statuses
HIT = "hit"
MISS = "miss"
CORRUPT = "corrupt"


class CacheStore:
    """A directory of keyed, checksummed entries."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{key}.{kind}")

    def load(self, kind: str, key: str) -> Tuple[Optional[dict], bytes, str]:
        """Return ``(payload, raw bytes, status)`` with status
        hit/miss/corrupt.

        An entry is only a hit if what follows the header line hashes to
        it and starts with a JSON object whose ``"key"`` field
        round-trips, so a torn or tampered entry can never be served,
        nor masquerade as a result for a different key.
        """
        try:
            with open(self.path(kind, key), "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None, b"", MISS
        except OSError:
            return None, b"", CORRUPT
        # 64 hex digits and a newline, then the body: sliced, not copied
        body = memoryview(raw)[65:]
        if raw[64:65] != b"\n" or raw[:64] != hashlib.sha256(
                body).hexdigest().encode("ascii"):
            return None, b"", CORRUPT
        end = raw.find(b"\n", 65)
        if end < 0:                               # nothing after the object
            end = len(raw)
        try:
            payload = json.loads(raw[65:end])
        except ValueError:
            return None, b"", CORRUPT
        blob = memoryview(raw)[end + 1:]
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None, b"", CORRUPT
        return payload, blob, HIT

    def store(self, kind: str, key: str, payload: dict,
              blob: bytes = b"") -> str:
        """Atomically publish ``payload`` and ``blob`` under ``key``;
        returns the path.  Raises :class:`OSError` when the root cannot
        be written."""
        body = json.dumps(dict(payload, key=key), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        checksum = hashlib.sha256(body + b"\n")
        checksum.update(blob)
        path = self.path(kind, key)
        os.makedirs(self.root, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(checksum.hexdigest().encode("ascii"))
                fh.writelines((b"\n", body, b"\n", blob))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path
