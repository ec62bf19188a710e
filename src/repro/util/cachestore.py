"""Content-addressed on-disk store for incremental-check results.

Layout under the cache root::

    <root>/shards/<key[:2]>/<key>.json     per-shard finding payloads
    <root>/manifests/<key[:2]>/<key>.json  per-config run manifests

An entry is one header line — the SHA-256 of the body — followed by the
body, a JSON object.  Two properties matter more than speed here:

* **Atomic writes** — a payload is staged to a temp file in the final
  directory and published with :func:`os.replace`, so readers never see
  a half-written entry even if the process dies mid-write (a stray
  ``.tmp`` left by a killed writer is never read).
* **Corruption-safe reads** — any unreadable, truncated, bit-flipped,
  unparsable, or key-mismatched entry (two entries swapped, or a file
  written by an older layout) is reported as ``"corrupt"`` and treated
  by the caller as a miss (recompute and overwrite), never as an error
  and never as a result.
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
    """A directory of content-addressed JSON payloads."""

    def __init__(self, root: str) -> None:
        self.root = root

    # -- paths ---------------------------------------------------------
    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, key[:2], f"{key}.json")

    # -- reads ---------------------------------------------------------
    def load(self, kind: str, key: str) -> Tuple[Optional[dict], str]:
        """Return ``(payload, status)`` with status hit/miss/corrupt.

        A payload is only a hit if its body hashes to the header line
        and parses as a JSON object whose ``"key"`` field round-trips,
        so a torn or tampered entry can never be served, nor masquerade
        as a result for a different key.
        """
        try:
            with open(self._path(kind, key), "rb") as fh:
                checksum, _, body = fh.read().partition(b"\n")
        except FileNotFoundError:
            return None, MISS
        except OSError:
            return None, CORRUPT
        if hashlib.sha256(body).hexdigest().encode("ascii") != checksum:
            return None, CORRUPT
        try:
            payload = json.loads(body)
        except ValueError:
            return None, CORRUPT
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None, CORRUPT
        return payload, HIT

    # -- writes --------------------------------------------------------
    def store(self, kind: str, key: str, payload: dict) -> str:
        """Atomically publish ``payload`` under ``key``; returns the path."""
        payload = dict(payload)
        payload["key"] = key
        path = self._path(kind, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode("ascii"))
                fh.write(b"\n")
                fh.write(body)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path
