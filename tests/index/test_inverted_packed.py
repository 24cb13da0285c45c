"""Tests for the columnar (packed) posting lists."""

from array import array
from bisect import bisect_left

from hypothesis import given
from hypothesis import strategies as st

from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.merge_kernel import gallop_left
from repro.index.merged_list import PackedMergedList
from repro.xmltree.dewey_packed import DeweyPacker

deweys = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=4
).map(tuple)


def packed_pair(codes):
    """A tuple list and its packed twin over the same postings."""
    ordered = sorted(set(codes))
    source = InvertedList(
        "tok", [(code, i % 3, i + 1) for i, code in enumerate(ordered)]
    )
    packer = DeweyPacker.for_codes(ordered)
    return source, PackedInvertedList.from_inverted(source, packer), packer


class TestPacking:
    def test_columns_parallel(self):
        source, packed, packer = packed_pair([(1,), (1, 2), (3,)])
        assert len(packed) == len(source)
        for i, (code, pid, tf) in enumerate(source):
            assert packed.keys[i] == packer.pack(code)
            assert packed.path_ids[i] == pid
            assert packed.tfs[i] == tf

    def test_int64_column_uses_array(self):
        _source, packed, packer = packed_pair([(1,), (2, 3)])
        assert packer.fits_int64
        assert isinstance(packed.keys, array)
        assert packed.keys.typecode == "q"

    def test_wide_keys_fall_back_to_list(self):
        codes = [tuple([1] * 12), tuple([2] * 12), (2**40, 5)]
        ordered = sorted(codes)
        source = InvertedList(
            "tok", [(c, 0, 1) for c in ordered]
        )
        packer = DeweyPacker.for_codes(ordered)
        assert not packer.fits_int64
        packed = PackedInvertedList.from_inverted(source, packer)
        assert isinstance(packed.keys, list)
        assert list(packed.keys) == sorted(packed.keys)


class TestFirstAtOrAfter:
    @given(
        st.lists(deweys, min_size=1, max_size=25),
        deweys,
        st.integers(min_value=0, max_value=10),
    )
    def test_matches_tuple_engine(self, codes, target, start):
        # Galloping over packed keys lands where a search over the
        # tuple codes does: packing preserves document order.
        source, packed, packer = packed_pair(codes)
        start = min(start, len(source))
        expected = bisect_left(
            [c for c, _p, _t in source.postings], target, start
        )
        # The packed target may not exist in the list; size the packer
        # over it too so it is encodable.
        packer = DeweyPacker.for_codes(
            [c for c, _p, _t in source.postings] + [target]
        )
        packed = PackedInvertedList.from_inverted(source, packer)
        got = gallop_left(
            packed.keys, packer.pack(target), start, len(packed)
        )
        assert got == expected

    def test_cursor_skip_counts(self):
        source, packed, packer = packed_pair(
            [(1,), (2,), (3,), (4,), (5,)]
        )
        cursor = PackedMergedList([packed])
        head = cursor.skip_to(packer.pack((4,)))
        assert head[0] == packer.pack((4,))
        assert cursor.skips == 3
        assert cursor
        assert cursor.skip_to(packer.pack((7,))) is None
        assert not cursor
