"""Unit + property tests for the byte-interval algebra."""

import bisect

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.intervals import (Interval, IntervalSet, IntervalTable,
                                  _group_keys, _grouped_keys,
                                  datamap_intervals, grouped_searchsorted,
                                  naive_overlap_join, overlap_join,
                                  pair_order, unique_pairs)


# ----------------------------------------------------------------------
# Interval basics
# ----------------------------------------------------------------------

class TestInterval:
    def test_length(self):
        assert len(Interval(3, 10)) == 7

    def test_empty(self):
        assert Interval(5, 5).is_empty()
        assert not Interval(5, 6).is_empty()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 3)

    def test_overlap_positive(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))

    def test_overlap_negative_adjacent(self):
        # half-open: [0,10) and [10,20) share no byte
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_overlap_contained(self):
        assert Interval(0, 100).overlaps(Interval(40, 41))

    def test_intersection(self):
        assert Interval(0, 10).intersection(Interval(5, 20)) == Interval(5, 10)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 5).intersection(Interval(7, 9)).is_empty()

    def test_contains(self):
        assert Interval(0, 10).contains(Interval(2, 8))
        assert not Interval(0, 10).contains(Interval(2, 12))

    def test_shift(self):
        assert Interval(1, 4).shift(10) == Interval(11, 14)


# ----------------------------------------------------------------------
# IntervalSet
# ----------------------------------------------------------------------

class TestIntervalSet:
    def test_normalization_merges_adjacent(self):
        s = IntervalSet([Interval(0, 5), Interval(5, 10)])
        assert s.intervals == (Interval(0, 10),)

    def test_normalization_merges_overlap(self):
        s = IntervalSet([Interval(0, 7), Interval(3, 10)])
        assert s.intervals == (Interval(0, 10),)

    def test_normalization_keeps_gaps(self):
        s = IntervalSet([Interval(0, 3), Interval(5, 8)])
        assert len(s) == 2

    def test_empty_intervals_dropped(self):
        assert not IntervalSet([Interval(4, 4)])

    def test_single_constructor(self):
        assert IntervalSet.single(10, 4).intervals == (Interval(10, 14),)

    def test_single_zero_length_is_empty(self):
        assert not IntervalSet.single(10, 0)

    def test_byte_count(self):
        s = IntervalSet([Interval(0, 3), Interval(10, 14)])
        assert s.byte_count() == 7

    def test_bounds(self):
        s = IntervalSet([Interval(2, 3), Interval(10, 14)])
        assert s.bounds() == Interval(2, 14)

    def test_overlaps_true(self):
        a = IntervalSet([Interval(0, 4), Interval(10, 14)])
        b = IntervalSet([Interval(12, 20)])
        assert a.overlaps(b)

    def test_overlaps_false_interleaved(self):
        a = IntervalSet([Interval(0, 4), Interval(10, 14)])
        b = IntervalSet([Interval(4, 10), Interval(14, 20)])
        assert not a.overlaps(b)

    def test_intersection(self):
        a = IntervalSet([Interval(0, 10)])
        b = IntervalSet([Interval(2, 4), Interval(8, 12)])
        assert a.intersection(b).intervals == (Interval(2, 4), Interval(8, 10))

    def test_union(self):
        a = IntervalSet([Interval(0, 4)])
        b = IntervalSet([Interval(2, 8)])
        assert a.union(b).intervals == (Interval(0, 8),)

    def test_contains_point(self):
        s = IntervalSet([Interval(0, 4), Interval(10, 14)])
        assert s.contains_point(0)
        assert s.contains_point(11)
        assert not s.contains_point(4)
        assert not s.contains_point(9)

    def test_shift(self):
        s = IntervalSet([Interval(0, 4)]).shift(100)
        assert s.intervals == (Interval(100, 104),)

    def test_equality_and_hash(self):
        a = IntervalSet([Interval(0, 5), Interval(5, 10)])
        b = IntervalSet([Interval(0, 10)])
        assert a == b
        assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# data-map application
# ----------------------------------------------------------------------

class TestDatamapIntervals:
    def test_mpi_int_datamap(self):
        # the paper's example: MPI_INT is {(0, 4)}
        s = datamap_intervals(100, [(0, 4)], count=1, extent=4)
        assert s.intervals == (Interval(100, 104),)

    def test_two_ints_with_gap(self):
        # the paper's example: two MPI_INTs separated by an 8-byte gap
        s = datamap_intervals(0, [(0, 4), (12, 4)], count=1, extent=16)
        assert s.intervals == (Interval(0, 4), Interval(12, 16))

    def test_count_replication(self):
        s = datamap_intervals(0, [(0, 4)], count=3, extent=8)
        assert s.intervals == (Interval(0, 4), Interval(8, 12),
                               Interval(16, 20))

    def test_contiguous_count_coalesces(self):
        s = datamap_intervals(0, [(0, 4)], count=3, extent=4)
        assert s.intervals == (Interval(0, 12),)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            datamap_intervals(0, [(0, 4)], count=-1, extent=4)


# ----------------------------------------------------------------------
# property-based
# ----------------------------------------------------------------------

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 50)).map(
        lambda p: Interval(p[0], p[0] + p[1])),
    max_size=12)


@given(intervals_strategy)
def test_prop_normalized_sorted_disjoint(ivs):
    s = IntervalSet(ivs)
    for a, b in zip(s.intervals, s.intervals[1:]):
        assert a.stop < b.start  # strictly disjoint with a gap


@given(intervals_strategy)
def test_prop_byte_count_equals_point_membership(ivs):
    s = IntervalSet(ivs)
    member_count = sum(1 for p in range(600) if s.contains_point(p))
    assert member_count == s.byte_count()


@given(intervals_strategy, intervals_strategy)
def test_prop_overlap_symmetric_and_consistent(ivs_a, ivs_b):
    a, b = IntervalSet(ivs_a), IntervalSet(ivs_b)
    assert a.overlaps(b) == b.overlaps(a)
    assert a.overlaps(b) == bool(a.intersection(b))


@given(intervals_strategy, intervals_strategy)
def test_prop_intersection_subset_of_both(ivs_a, ivs_b):
    a, b = IntervalSet(ivs_a), IntervalSet(ivs_b)
    inter = a.intersection(b)
    for p in range(600):
        if inter.contains_point(p):
            assert a.contains_point(p) and b.contains_point(p)
        elif a.contains_point(p) and b.contains_point(p):
            raise AssertionError(f"point {p} missing from intersection")


@given(intervals_strategy, intervals_strategy)
def test_prop_union_is_pointwise_or(ivs_a, ivs_b):
    a, b = IntervalSet(ivs_a), IntervalSet(ivs_b)
    u = a.union(b)
    for p in range(600):
        assert u.contains_point(p) == (a.contains_point(p)
                                       or b.contains_point(p))


@given(st.integers(0, 100), st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 10)), max_size=4),
    st.integers(0, 5), st.integers(1, 64))
def test_prop_datamap_byte_count(base, datamap, count, extent):
    s = datamap_intervals(base, datamap, count, extent)
    # bytes covered never exceeds count * sum(lengths); equality holds when
    # segments don't self-overlap across replications
    assert s.byte_count() <= count * sum(n for _d, n in datamap)


# ----------------------------------------------------------------------
# IntervalTable + the sweep join
# ----------------------------------------------------------------------

class TestIntervalTable:
    def test_zero_length_rows_dropped(self):
        t = IntervalTable([0, 5, 9], [4, 5, 12])
        assert len(t) == 2  # [5,5) vanishes
        assert list(t.owner) == [0, 2]  # owners keep their original ids

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntervalTable([0, 1], [2])
        with pytest.raises(ValueError):
            IntervalTable([0, 1], [2, 3], owner=[0])

    def test_from_columns(self):
        t = IntervalTable.from_columns([10, 20], [4, 0])
        assert len(t) == 1
        assert (t.lo[0], t.hi[0]) == (10, 14)

    def test_from_sets_explicit_owners(self):
        sets = [IntervalSet([Interval(0, 4), Interval(8, 12)]),
                IntervalSet([Interval(20, 24)])]
        t = IntervalTable.from_sets(sets, owners=[7, 9])
        assert list(t.owner) == [7, 7, 9]

    def test_concat(self):
        a = IntervalTable([0], [4], owner=[1])
        b = IntervalTable([10], [14], owner=[2])
        c = IntervalTable.concat([a, IntervalTable((), ()), b])
        assert list(c.owner) == [1, 2]

    def test_concat_empty(self):
        assert len(IntervalTable.concat([])) == 0

    def test_join_empty_sides(self):
        t = IntervalTable([0], [4])
        empty = IntervalTable((), ())
        for a, b in ((t, empty), (empty, t), (empty, empty)):
            ai, bi = overlap_join(a, b)
            assert len(ai) == 0 and len(bi) == 0

    def test_join_adjacent_not_overlapping(self):
        # half-open ranges: [0,10) vs [10,20) share no byte
        ai, bi = overlap_join(IntervalTable([0], [10]),
                              IntervalTable([10], [20]))
        assert len(ai) == 0

    def test_join_duplicate_rows_unique_pairs(self):
        # two rows of the same owner overlapping one b row -> one pair
        a = IntervalTable([0, 2], [4, 6], owner=[5, 5])
        b = IntervalTable([3], [10], owner=[8])
        ai, bi = overlap_join(a, b)
        assert list(ai) == [5] and list(bi) == [8]

    def test_self_join_reports_self_pairs(self):
        t = IntervalTable([0, 2], [4, 6])
        ai, bi = overlap_join(t, t)
        pairs = set(zip(ai.tolist(), bi.tolist()))
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}


    def test_group_length_mismatch_and_negative_rejected(self):
        with pytest.raises(ValueError):
            IntervalTable([0, 1], [2, 3], group=[0])
        with pytest.raises(ValueError):
            IntervalTable([0, 1], [2, 3], group=[0, -1])

    def test_group_follows_dropped_rows_and_concat(self):
        t = IntervalTable([0, 5, 9], [4, 5, 12], group=[1, 2, 3])
        assert list(t.group) == [1, 3]
        c = IntervalTable.concat([t, IntervalTable([0], [1])])
        assert list(c.group) == [1, 3, 0]  # ungrouped tables are group 0
        sets = [IntervalSet([Interval(0, 4), Interval(8, 12)]),
                IntervalSet([Interval(20, 24)])]
        assert list(IntervalTable.from_sets(sets, groups=[4, 6]).group) \
            == [4, 4, 6]


def _join_per_group(a, b):
    """Reference for the grouped join: the naive ungrouped join, run
    once per group id over that group's rows only."""
    pairs = set()
    for g in set(a.groups().tolist()) | set(b.groups().tolist()):
        in_a, in_b = a.groups() == g, b.groups() == g
        pairs |= _pair_set(*naive_overlap_join(
            IntervalTable(a.lo[in_a], a.hi[in_a], a.owner[in_a]),
            IntervalTable(b.lo[in_b], b.hi[in_b], b.owner[in_b])))
    return pairs


class TestGroupedJoin:
    def test_equal_bytes_in_different_groups_do_not_pair(self):
        a = IntervalTable([0, 0], [8, 8], owner=[0, 1], group=[0, 1])
        b = IntervalTable([4, 4], [12, 12], owner=[7, 8], group=[1, 2])
        assert _pair_set(*overlap_join(a, b)) == {(1, 7)}

    def test_adjacent_groups_touching_at_the_stride_boundary(self):
        # group 0's largest hi maps onto group 1's smallest key: the
        # half-open test must still keep them apart
        a = IntervalTable([0, 90], [100, 100], owner=[0, 1], group=[0, 0])
        b = IntervalTable([0], [100], owner=[5], group=[1])
        assert _pair_set(*overlap_join(a, b)) == set()
        assert _pair_set(*overlap_join(b, a)) == set()

    def test_empty_groups_and_one_sided_groups(self):
        # ids 1, 2, 4 are unused; group 3 exists only in a, 5 only in b
        a = IntervalTable([0, 0, 10], [8, 8, 20], owner=[0, 1, 2],
                          group=[0, 3, 6])
        b = IntervalTable([4, 4, 15], [6, 6, 16], owner=[0, 1, 2],
                          group=[0, 5, 6])
        assert _pair_set(*overlap_join(a, b)) == {(0, 0), (2, 2)}
        assert _pair_set(*overlap_join(a, b)) == _join_per_group(a, b)

    def test_multi_segment_owner_spanning_the_sort_boundary(self):
        # owner 0's segments sort to both ends of group 1's key range,
        # with owner 1 (group 0) and owner 2 (group 2) on either side
        a = IntervalTable([0, 1000, 500, 500], [10, 1010, 510, 510],
                          owner=[0, 0, 1, 2], group=[1, 1, 0, 2])
        b = IntervalTable([5, 1005, 505], [6, 1006, 506],
                          owner=[9, 9, 9], group=[1, 1, 1])
        ai, bi = overlap_join(a, b)
        assert (ai.tolist(), bi.tolist()) == ([0], [9])  # deduplicated
        assert _pair_set(*overlap_join(b, a)) == {(9, 0)}

    def test_dense_remap_when_group_keys_would_overflow(self):
        # span >= 2**40 and group ids >= 2**23: group * stride leaves
        # int63, so addresses and groups are remapped to dense ranks
        big = 1 << 40
        groups = [0, (1 << 23) + 5, (1 << 23) + 5, 1 << 30, 1 << 30]
        a = IntervalTable([0, 7, big, 3, big - 1],
                          [big + 8, 9, big + 4, 5, big + 1],
                          owner=[0, 1, 2, 3, 4], group=groups)
        b = IntervalTable([big, 8, big + 3, 4, big],
                          [big + 1, 10, big + 9, 6, big + 2],
                          owner=[0, 1, 2, 3, 4], group=groups)
        stride = int(max(a.hi.max(), b.hi.max())
                     - min(a.lo.min(), b.lo.min()))
        assert (max(groups) + 1) * stride >= 1 << 63
        keys = _group_keys(a, b)
        assert max(int(k.max()) for k in keys) < 2 * (len(a) + len(b)) ** 2
        assert _pair_set(*overlap_join(a, b)) == _join_per_group(a, b) \
            == {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)}

    def test_unique_pairs_wide_owner_range_falls_back(self):
        oa = np.array([1 << 40, 0, 1 << 40, 0], dtype=np.int64)
        ob = np.array([5, 1 << 41, 5, 0], dtype=np.int64)
        ua, ub = unique_pairs(oa, ob)
        assert list(zip(ua.tolist(), ub.tolist())) == \
            [(0, 0), (0, 1 << 41), (1 << 40, 5)]


table_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 40),
              st.integers(0, 6), st.integers(0, 3)),
    max_size=16).flatmap(
        lambda rows: st.booleans().map(
            lambda grouped: IntervalTable(
                [r[0] for r in rows], [r[0] + r[1] for r in rows],
                owner=[r[2] for r in rows],
                group=[r[3] for r in rows] if grouped else None)))


def _pair_set(ai, bi):
    return set(zip(ai.tolist(), bi.tolist()))


@given(table_strategy, table_strategy)
def test_prop_overlap_join_matches_naive(a, b):
    ai, bi = overlap_join(a, b)
    pairs = list(zip(ai.tolist(), bi.tolist()))
    assert pairs == sorted(set(pairs))  # unique, lexicographic
    assert set(pairs) == _pair_set(*naive_overlap_join(a, b)) \
        == _join_per_group(a, b)


@given(table_strategy, table_strategy, st.integers(1, 1 << 24),
       st.integers(1, 1 << 38), st.integers(0, 1 << 41))
def test_prop_grouped_join_invariant_under_key_scaling(a, b, gscale,
                                                       ascale, shift):
    """Spreading the group ids and stretching/shifting the addresses
    (which pushes the larger draws onto the dense-remap path) never
    changes the pairs."""
    def scaled(t):
        return IntervalTable(t.lo * ascale + shift, t.hi * ascale + shift,
                             t.owner, t.groups() * gscale)
    assert _pair_set(*overlap_join(scaled(a), scaled(b))) == \
        _pair_set(*overlap_join(a, b))


@given(table_strategy, table_strategy)
def test_prop_overlap_join_symmetric(a, b):
    ab = _pair_set(*overlap_join(a, b))
    ba = _pair_set(*overlap_join(b, a))
    assert ab == {(x, y) for (y, x) in ba}


# ----------------------------------------------------------------------
# grouped_searchsorted / pair_order: a composite key, a dense fallback
# ----------------------------------------------------------------------

_I64 = np.int64


def _grouped_reference(group, value, q_group, q_value, side):
    rows = sorted(zip(group.tolist(), value.tolist()))
    find = bisect.bisect_left if side == "left" else bisect.bisect_right
    return [find(rows, q) for q in zip(q_group.tolist(), q_value.tolist())]


def _assert_grouped(group, value, q_group, q_value):
    order = np.lexsort((value, group))
    group, value = np.asarray(group, _I64)[order], \
        np.asarray(value, _I64)[order]
    q_group, q_value = np.asarray(q_group, _I64), np.asarray(q_value, _I64)
    for side in ("left", "right"):
        got = grouped_searchsorted(group, value, q_group, q_value, side)
        assert got.tolist() == _grouped_reference(group, value, q_group,
                                                  q_value, side)
    if len(value):
        at = pair_order(np.asarray(group), np.asarray(value))
        assert sorted(zip(group.tolist(), value.tolist())) == \
            list(zip(group[at].tolist(), value[at].tolist()))


class TestGroupedSearchsorted:
    LOW = -(1 << 62)

    @pytest.mark.parametrize("top,high,composite", [
        (0, (1 << 62) - 2, True),     # span 2**63 - 1: the key fits
        (0, (1 << 62) - 1, False),    # span 2**63: dense ranks
        (1, -2, True),                # two groups of span 2**62 - 1
        (1, -1, False),               # two groups of span 2**62
    ])
    def test_each_side_of_the_fallback(self, top, high, composite):
        group = np.array([0, 0, top, top], dtype=_I64)
        value = np.array([self.LOW, high, self.LOW, high], dtype=_I64)
        q_group = np.array([0, top, top, 0, top], dtype=_I64)
        q_value = np.array([self.LOW, high, (self.LOW + high) // 2, high,
                            self.LOW + 1], dtype=_I64)
        assert (_grouped_keys(group, value, q_group, q_value)
                is not None) == composite
        assert (_grouped_keys(group, value) is not None) == composite
        _assert_grouped(group, value, q_group, q_value)

    def test_negative_values(self):
        _assert_grouped([0, 0, 1, 2, 2], [-7, -3, -5, -9, 4],
                        [0, 1, 1, 2, 2, 3], [-4, -5, -6, -9, 5, -100])

    def test_empty_inputs(self):
        empty = np.zeros(0, dtype=_I64)
        one = np.array([1], dtype=_I64)
        assert grouped_searchsorted(empty, empty, one, one).tolist() == [0]
        assert grouped_searchsorted(one, one, empty, empty).tolist() == []
        assert grouped_searchsorted(empty, empty, empty, empty).size == 0
        assert pair_order(empty, empty).size == 0

    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.integers(-(1 << 63), (1 << 63) - 1)),
                    max_size=12),
           st.lists(st.tuples(st.integers(0, 6),
                              st.integers(-(1 << 63), (1 << 63) - 1)),
                    max_size=8))
    def test_prop_matches_bisect(self, rows, queries):
        """Any int64 values, wide or narrow: either path answers as a
        bisect over the sorted pairs does."""
        rows = rows or [(0, 0)]
        group, value = zip(*rows)
        q_group, q_value = zip(*queries) if queries else ((), ())
        _assert_grouped(np.array(group), np.array(value, dtype=_I64),
                        np.array(q_group, dtype=_I64),
                        np.array(q_value, dtype=_I64))
