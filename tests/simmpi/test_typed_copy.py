"""Property tests for typed gather/scatter (datatype-driven byte movement)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.datatypes import BYTE, INT, DatatypeFactory
from repro.simmpi.memory import AddressSpace, TrackedBuffer
from repro.simmpi.rma import gather_typed, scatter_typed


def make_buffer(nbytes, fill_pattern=True):
    buf = TrackedBuffer(AddressSpace(0), "b", nbytes, np.uint8)
    if fill_pattern:
        buf.raw_write_bytes(0, bytes(i % 251 for i in range(nbytes)))
    return buf


datatype_strategy = st.one_of(
    st.builds(lambda c: ("contig", c), st.integers(1, 4)),
    st.builds(lambda c, b, s: ("vector", c, b, max(s, b)),
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 5)),
    st.builds(lambda ls, ds: ("indexed", ls, sorted(set(ds))),
              st.lists(st.integers(1, 2), min_size=1, max_size=3),
              st.lists(st.integers(0, 10), min_size=3, max_size=3)),
)


def build_datatype(spec):
    factory = DatatypeFactory()
    if spec[0] == "contig":
        return factory.contiguous(spec[1], INT)
    if spec[0] == "vector":
        return factory.vector(spec[1], spec[2], spec[3], INT)
    _tag, lens, disps = spec
    disps = disps[:len(lens)]
    lens = lens[:len(disps)]
    # keep blocks disjoint: space displacements apart
    disps = [d + i * 20 for i, d in enumerate(disps)]
    return factory.indexed(lens, disps, INT)


@given(datatype_strategy, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_prop_gather_scatter_roundtrip(spec, count):
    """scatter(gather(x)) restores exactly the bytes the datatype selects."""
    dtype = build_datatype(spec)
    span = dtype.extent * count + 64
    src = make_buffer(span)
    dst = make_buffer(span, fill_pattern=False)

    packed = gather_typed(src, 0, dtype, count)
    assert len(packed) == dtype.size * count

    scatter_typed(dst, 0, dtype, count, packed)
    for iv in dtype.intervals(0, count):
        assert dst.raw_read_bytes(iv.start, len(iv)) == \
            src.raw_read_bytes(iv.start, len(iv))


@given(datatype_strategy, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_prop_scatter_touches_only_selected_bytes(spec, count):
    dtype = build_datatype(spec)
    span = dtype.extent * count + 64
    dst = make_buffer(span)
    before = dst.raw_read_bytes(0, span)

    scatter_typed(dst, 0, dtype, count, b"\xff" * (dtype.size * count))
    selected = dtype.intervals(0, count)
    after = dst.raw_read_bytes(0, span)
    for offset in range(span):
        if selected.contains_point(offset):
            assert after[offset] == 0xFF
        else:
            assert after[offset] == before[offset]


@given(st.integers(0, 16), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_prop_byte_gather_is_slice(offset, length):
    buf = make_buffer(64)
    packed = gather_typed(buf, offset, BYTE, length) \
        if offset + length <= 64 else None
    if packed is not None:
        assert packed == buf.raw_read_bytes(offset, length)
