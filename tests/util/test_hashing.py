"""``hash_ranges``: many small digests over a few large buffers; and
``hash_strings``, a string table's digest."""

import hashlib
import struct

import numpy as np
from hypothesis import given, strategies as st

from repro.util.hashing import hash_ranges, hash_strings


def _parts():
    rng = np.random.default_rng(7)
    wide = rng.integers(0, 1 << 40, 64, dtype=np.int64)
    text = rng.integers(0, 256, 97, dtype=np.uint8)
    # ranges of int64 rows; ranges of single bytes, some of them empty
    a = np.array([0, 3, 3, 10]) * 8, np.array([3, 3, 10, 64]) * 8
    b = np.array([0, 0, 40, 41]), np.array([0, 40, 41, 97])
    return [(wide, *a), (text, *b)]


def _reference(prefix, parts, k):
    """Range ``k`` by hand: the part count, the piece sizes, the pieces."""
    pieces = [memoryview(buffer).cast("B")[starts[k]:ends[k]]
              for buffer, starts, ends in parts]
    return (struct.pack("<Q", len(parts)) if prefix is not None else b"") \
        + b"".join(struct.pack("<Q", len(piece)) for piece in pieces) \
        + b"".join(pieces)


def test_one_digest_per_range_over_prefix_sizes_and_pieces():
    parts = _parts()
    digests = hash_ranges(b"prefix", parts)
    assert digests.shape == (4, 32) and digests.dtype == np.uint8
    for k in range(4):
        assert bytes(digests[k]) == hashlib.sha256(
            b"prefix" + _reference(b"", parts, k)).digest()


def test_a_byte_moved_to_the_neighbouring_part_changes_the_digest():
    data = np.arange(16, dtype=np.uint8)
    at = np.array([0])

    def split(cut):
        return bytes(hash_ranges(b"", [(data, at, at + cut),
                                       (data, at + cut, at + 16)])[0])
    assert split(8) != split(9)
    assert len({split(cut) for cut in range(17)}) == 17


def test_chained_digest_covers_the_ranges_so_far():
    parts = _parts()
    digests = hash_ranges(b"prefix", parts, chain=True)
    running = hashlib.sha256(b"prefix" + struct.pack("<Q", len(parts)))
    for k in range(4):
        running.update(_reference(None, parts, k))
        assert bytes(digests[k]) == running.digest()
    # ... and the first is what the unchained one is
    assert bytes(digests[0]) == bytes(hash_ranges(b"prefix", parts)[0])


@given(st.lists(st.one_of(
    st.text(st.characters(max_codepoint=0x7F)),     # ASCII, \x00 included
    st.text(), st.just(""), st.just("\x00"), st.just("é\x00ψ"))))
def test_hash_strings_is_the_length_prefixed_formula(strings):
    """Whichever way a table is hashed, its digest is the SHA-256 of
    each string's UTF-8 byte length, a NUL and its UTF-8 bytes."""
    raw = [string.encode("utf-8") for string in strings]
    assert hash_strings(strings) == hashlib.sha256(b"".join(
        str(len(part)).encode("ascii") + b"\x00" + part
        for part in raw)).hexdigest()
