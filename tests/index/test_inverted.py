"""Tests for inverted lists and where a galloping skip over them lands."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.inverted import (
    InvertedIndex,
    InvertedList,
    PackedInvertedList,
)
from repro.index.merge_kernel import gallop_left
from repro.xmltree.dewey_packed import DeweyPacker

deweys = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=5
).map(tuple)

#: Encodes every code the strategy above can draw.
PACKER = DeweyPacker(max_depth=5, component_bits=3)


def make_list(codes) -> InvertedList:
    return InvertedList("tok", [(c, 0, 1) for c in codes])


def first_at_or_after(lst: InvertedList, target, start: int = 0) -> int:
    """Index of the first posting with code >= ``target`` from ``start``:
    a galloping skip over the list's packed key column."""
    packed = PackedInvertedList.from_inverted(lst, PACKER)
    return gallop_left(packed.keys, PACKER.pack(target), start, len(packed))


class TestInvertedList:
    def test_preserves_order(self):
        lst = make_list([(1, 1), (1, 2), (2,)])
        assert [p[0] for p in lst] == [(1, 1), (1, 2), (2,)]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_list([(1, 2), (1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_list([(1, 1), (1, 1)])

    def test_len_and_getitem(self):
        lst = make_list([(1,), (2,)])
        assert len(lst) == 2
        assert lst[1][0] == (2,)

    def test_first_at_or_after_exact(self):
        lst = make_list([(1, 1), (1, 3), (1, 5)])
        assert first_at_or_after(lst, (1, 3)) == 1

    def test_first_at_or_after_between(self):
        lst = make_list([(1, 1), (1, 3), (1, 5)])
        assert first_at_or_after(lst, (1, 2)) == 1

    def test_first_at_or_after_past_end(self):
        lst = make_list([(1, 1)])
        assert first_at_or_after(lst, (2,)) == 1

    def test_first_at_or_after_from_start_position(self):
        lst = make_list([(1, 1), (1, 3), (1, 5), (1, 7)])
        assert first_at_or_after(lst, (1, 2), start=2) == 2

    def test_prefix_target_before_descendants(self):
        # skip_to(1.2) must land on the first node inside subtree 1.2.
        lst = make_list([(1, 1, 1), (1, 2, 1), (1, 3, 1)])
        assert first_at_or_after(lst, (1, 2)) == 1

    @given(st.lists(deweys, min_size=0, max_size=30), deweys)
    def test_matches_linear_scan(self, codes, target):
        codes = sorted(set(codes))
        lst = make_list(codes)
        expected = next(
            (i for i, c in enumerate(codes) if c >= target), len(codes)
        )
        assert first_at_or_after(lst, target) == expected

    @given(st.lists(deweys, min_size=1, max_size=30), deweys, st.integers(0, 29))
    def test_start_position_respected(self, codes, target, start):
        codes = sorted(set(codes))
        start = min(start, len(codes))
        lst = make_list(codes)
        result = first_at_or_after(lst, target, start)
        assert result >= start
        expected = next(
            (i for i in range(start, len(codes)) if codes[i] >= target),
            len(codes),
        )
        assert result == expected


class TestInvertedIndex:
    def test_add_and_get(self):
        index = InvertedIndex()
        index.add_list(make_list([(1,)]))
        assert "tok" in index
        assert index.get("tok") is not None

    def test_get_missing(self):
        assert InvertedIndex().get("nope") is None

    def test_list_for_missing_is_empty(self):
        lst = InvertedIndex().list_for("nope")
        assert len(lst) == 0

    def test_total_postings(self):
        index = InvertedIndex()
        index.add_list(InvertedList("a", [((1,), 0, 1)]))
        index.add_list(InvertedList("b", [((1,), 0, 1), ((2,), 0, 1)]))
        assert index.total_postings() == 3
        assert len(index) == 2
