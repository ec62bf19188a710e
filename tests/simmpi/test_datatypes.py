"""Datatype constructors and data-map lowering tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.datatypes import (
    BYTE, DOUBLE, INT, PRIMITIVES, DatatypeFactory, primitive_for_numpy,
)
from repro.util.errors import SimMPIError


@pytest.fixture
def factory():
    return DatatypeFactory()


class TestPrimitives:
    def test_sizes(self):
        assert INT.size == 4
        assert DOUBLE.size == 8
        assert BYTE.size == 1

    def test_datamaps(self):
        assert INT.datamap == ((0, 4),)
        assert INT.extent == 4

    def test_primitive_ids_negative_and_unique(self):
        ids = [t.type_id for t in PRIMITIVES.values()]
        assert all(i < 0 for i in ids)
        assert len(set(ids)) == len(ids)

    def test_numpy_mapping(self):
        assert primitive_for_numpy(np.dtype("f8")) is DOUBLE
        assert primitive_for_numpy(np.dtype("i4")) is INT

    def test_numpy_mapping_unknown(self):
        with pytest.raises(SimMPIError):
            primitive_for_numpy(np.dtype("c16"))

    def test_is_contiguous(self):
        assert INT.is_contiguous


class TestContiguous:
    def test_coalesces(self, factory):
        t = factory.contiguous(3, INT)
        assert t.datamap == ((0, 12),)
        assert t.extent == 12
        assert t.size == 12

    def test_of_derived(self, factory):
        v = factory.vector(2, 1, 2, INT)  # {(0,4),(8,4)}, extent 12
        t = factory.contiguous(2, v)
        # second replica starts at 12; its (0,4) segment abuts the first
        # replica's (8,4) segment, so they coalesce
        assert t.datamap == ((0, 4), (8, 8), (20, 4))

    def test_zero_count(self, factory):
        t = factory.contiguous(0, INT)
        assert t.datamap == ()
        assert t.size == 0

    def test_negative_count_rejected(self, factory):
        with pytest.raises(SimMPIError):
            factory.contiguous(-2, INT)

    def test_ids_increment(self, factory):
        a = factory.contiguous(1, INT)
        b = factory.contiguous(1, INT)
        assert (a.type_id, b.type_id) == (0, 1)


class TestVector:
    def test_basic(self, factory):
        t = factory.vector(count=3, blocklength=2, stride=4, old=INT)
        assert t.datamap == ((0, 8), (16, 8), (32, 8))
        assert t.extent == ((3 - 1) * 4 + 2) * 4
        assert t.size == 24

    def test_unit_stride_is_contiguous(self, factory):
        t = factory.vector(4, 1, 1, DOUBLE)
        assert t.datamap == ((0, 32),)

    def test_negative_rejected(self, factory):
        with pytest.raises(SimMPIError):
            factory.vector(-1, 1, 1, INT)


class TestIndexed:
    def test_basic(self, factory):
        t = factory.indexed([2, 1], [0, 4], INT)
        assert t.datamap == ((0, 8), (16, 4))

    def test_length_mismatch(self, factory):
        with pytest.raises(SimMPIError):
            factory.indexed([1, 2], [0], INT)


class TestStruct:
    def test_paper_example(self, factory):
        # two MPI_INTs separated by an 8-byte gap -> {(0,4),(12,4)}
        t = factory.struct([1, 1], [0, 12], [INT, INT])
        assert t.datamap == ((0, 4), (12, 4))
        assert t.base == "INT"

    def test_heterogeneous_loses_base(self, factory):
        t = factory.struct([1, 1], [0, 8], [INT, DOUBLE])
        assert t.base is None
        with pytest.raises(SimMPIError):
            t.numpy_dtype()

    def test_length_mismatch(self, factory):
        with pytest.raises(SimMPIError):
            factory.struct([1], [0, 4], [INT, INT])


class TestIntervals:
    def test_intervals_at_base(self, factory):
        t = factory.vector(2, 1, 2, INT)
        ivs = t.intervals(100, count=1)
        assert [(iv.start, iv.stop) for iv in ivs] == [(100, 104),
                                                       (108, 112)]

    def test_count_replication_respects_extent(self, factory):
        t = factory.struct([1], [0], [INT])  # extent 4
        ivs = t.intervals(0, count=3)
        assert ivs.byte_count() == 12


@given(st.integers(0, 5), st.integers(0, 4), st.integers(1, 6))
def test_prop_vector_size(count, blocklength, stride):
    factory = DatatypeFactory()
    t = factory.vector(count, blocklength, max(stride, blocklength), INT)
    assert t.size == count * blocklength * 4


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_prop_indexed_size_without_overlap(blocklengths):
    factory = DatatypeFactory()
    # lay blocks out far apart so they cannot overlap
    displacements = [i * 10 for i in range(len(blocklengths))]
    t = factory.indexed(blocklengths, displacements, INT)
    assert t.size == sum(blocklengths) * 4


@given(st.integers(1, 4), st.integers(1, 4))
def test_prop_nested_contiguous_extent(inner, outer):
    factory = DatatypeFactory()
    t = factory.contiguous(outer, factory.contiguous(inner, DOUBLE))
    assert t.extent == inner * outer * 8
    assert t.is_contiguous
