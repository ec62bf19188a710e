"""AddressSpace and TrackedBuffer tests."""

import numpy as np
import pytest

from repro.simmpi.memory import AddressSpace, TrackedBuffer
from repro.util.errors import SimMPIError


@pytest.fixture
def space():
    return AddressSpace(rank=0)


def record(buf, instrumented=True):
    """Log ``buf``'s hook calls as ``(kind, addr, size, count, stride)``."""
    events = []
    buf.set_block_hook(lambda kind, b, addr, size, count, stride:
                       events.append((kind, addr, size, count, stride)))
    buf.instrumented = instrumented
    return events


class TestAddressSpace:
    def test_allocations_disjoint(self, space):
        a = space.allocate(100)
        b = space.allocate(50)
        assert b >= a + 100

    def test_alignment(self, space):
        space.allocate(3)
        b = space.allocate(8, align=64)
        assert b % 64 == 0

    def test_negative_rejected(self, space):
        with pytest.raises(ValueError):
            space.allocate(-1)


class TestTrackedBuffer:
    def test_fill(self, space):
        buf = TrackedBuffer(space, "b", 4, np.float64, fill=2.5)
        assert buf.read().tolist() == [2.5] * 4

    def test_scalar_load_store(self, space):
        buf = TrackedBuffer(space, "b", 4, np.int32)
        buf[2] = 7
        assert buf[2] == 7
        assert isinstance(buf[2], int)

    def test_negative_index(self, space):
        buf = TrackedBuffer(space, "b", 4, np.int32)
        buf[-1] = 9
        assert buf[3] == 9

    def test_out_of_range(self, space):
        buf = TrackedBuffer(space, "b", 4, np.int32)
        with pytest.raises(IndexError):
            buf[4]

    def test_slice_load_returns_copy(self, space):
        buf = TrackedBuffer(space, "b", 4, np.float64, fill=1.0)
        view = buf[0:2]
        view[0] = 99.0
        assert buf[0] == 1.0

    def test_strided_slice_rejected(self, space):
        buf = TrackedBuffer(space, "b", 8, np.float64)
        with pytest.raises(SimMPIError):
            buf[0:8:2]

    def test_addr_of(self, space):
        buf = TrackedBuffer(space, "b", 4, np.float64)
        assert buf.addr_of(2) == buf.base + 16

    def test_write_read_roundtrip(self, space):
        buf = TrackedBuffer(space, "b", 6, np.float64)
        buf.write([1, 2, 3], offset=2)
        assert buf.read(2, 3).tolist() == [1.0, 2.0, 3.0]

    def test_events_only_when_instrumented(self, space):
        buf = TrackedBuffer(space, "b", 4, np.float64)
        events = record(buf, instrumented=False)
        buf[0] = 1.0
        _ = buf[0:2]
        buf.read_block(0, 2, reps=3)
        buf.write_rows(np.zeros((2, 1)), 0, 2)
        assert events == []  # not instrumented yet
        buf.instrumented = True
        buf[1] = 2.0
        _ = buf[1]
        assert events == [("store", buf.base + 8, 8, 1, 0),
                          ("load", buf.base + 8, 8, 1, 0)]

    def test_slice_event_size(self, space):
        buf = TrackedBuffer(space, "b", 8, np.float64)
        events = record(buf)
        buf[2:5] = [1, 2, 3]
        buf.read(1, 2)
        assert events == [("store", buf.base + 16, 24, 1, 0),
                          ("load", buf.base + 8, 16, 1, 0)]

    def test_read_block_repeats_one_slice(self, space):
        buf = TrackedBuffer(space, "b", 8, np.float64)
        events = record(buf)
        buf.read_block(2, 3, reps=4)
        buf.write_block([1, 2], offset=6, reps=2)
        assert events == [("load", buf.base + 16, 24, 4, 0),
                          ("store", buf.base + 48, 16, 2, 0)]

    def test_rows_are_one_strided_block(self, space):
        buf = TrackedBuffer(space, "b", 16, np.int32)
        events = record(buf)
        rows = buf.read_rows(1, 2, 3, row_stride=4)
        buf.write_rows(rows, 2, row_stride=5)
        assert events == [("load", buf.base + 4, 8, 3, 16),
                          ("store", buf.base + 8, 8, 3, 20)]

    def test_raw_bytes_roundtrip(self, space):
        buf = TrackedBuffer(space, "b", 2, np.int32)
        buf.raw_write_bytes(4, (123).to_bytes(4, "little"))
        assert buf.raw_read_bytes(4, 4) == (123).to_bytes(4, "little")
        assert buf[1] == 123

    def test_raw_accesses_emit_no_events(self, space):
        buf = TrackedBuffer(space, "b", 2, np.int32)
        events = record(buf)
        buf.raw_write_bytes(0, b"\x01\x02\x03\x04")
        buf.raw_read_bytes(0, 4)
        assert events == []

    def test_raw_out_of_bounds(self, space):
        buf = TrackedBuffer(space, "b", 2, np.int32)
        with pytest.raises(SimMPIError):
            buf.raw_read_bytes(4, 8)
        with pytest.raises(SimMPIError):
            buf.raw_write_bytes(-1, b"xx")

    def test_load_store_aliases(self, space):
        buf = TrackedBuffer(space, "b", 2, np.float64)
        buf.store(0, 3.5)
        assert buf.load(0) == 3.5

    def test_len_and_nbytes(self, space):
        buf = TrackedBuffer(space, "b", 5, np.int32)
        assert len(buf) == 5
        assert buf.nbytes == 20
        assert buf.end == buf.base + 20


class TestSliceEdgeCases:
    """Pin down ``_resolve``'s slice semantics (the block producers
    lean on it, so every corner is load-bearing)."""

    @pytest.fixture
    def traced(self, space):
        buf = TrackedBuffer(space, "b", 8, np.float64,
                            fill=0.0)
        buf.array[:] = np.arange(8, dtype=np.float64)
        return buf, record(buf)

    def test_negative_endpoints(self, traced):
        buf, events = traced
        assert buf[-3:-1].tolist() == [5.0, 6.0]
        assert events == [("load", buf.base + 5 * 8, 2 * 8, 1, 0)]

    def test_open_ended_slices(self, traced):
        buf, events = traced
        assert buf[:].tolist() == list(range(8))
        assert buf[6:].tolist() == [6.0, 7.0]
        assert buf[:2].tolist() == [0.0, 1.0]
        assert [e[2] for e in events] == [8 * 8, 2 * 8, 2 * 8]

    def test_empty_slice_emits_nothing(self, traced):
        buf, events = traced
        assert buf[3:3].size == 0
        assert buf[5:3].size == 0  # reversed: empty, not negative
        buf[4:4] = []
        assert events == []

    def test_step_error_names_step_and_alternative(self, traced):
        buf, _ = traced
        with pytest.raises(SimMPIError) as excinfo:
            buf[0:8:2]
        message = str(excinfo.value)
        assert "step 2" in message
        assert "read_rows" in message and "write_rows" in message
        with pytest.raises(SimMPIError):
            buf[::-1]

    def test_out_of_range_endpoints_raise_not_clamp(self, traced):
        buf, events = traced
        with pytest.raises(IndexError):
            buf[0:9]
        with pytest.raises(IndexError):
            buf[-9:2]
        with pytest.raises(IndexError):
            buf[9:]
        assert events == []  # rejected accesses never emit

    def test_stop_at_count_allowed(self, traced):
        buf, _ = traced
        assert buf[6:8].tolist() == [6.0, 7.0]
        assert buf[8:8].size == 0

    def test_scalar_negative_out_of_range(self, traced):
        buf, _ = traced
        with pytest.raises(IndexError):
            buf[-9]
        assert buf[-8] == 0.0
