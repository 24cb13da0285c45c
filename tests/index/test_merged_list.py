"""Tests for the MergedList of Section V-C (``PackedMergedList``).

The variant lists of one keyword are merged physically into packed
columns; the cursor must behave like the paper's heap-merged list:
document order, originating tokens, ``cur_pos``/``next``/``skip_to``
with read and skip counters, and ``pop_subtree`` for group collection.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.merged_list import PackedMergedList
from repro.xmltree.dewey_packed import DeweyPacker

#: Encodes every code the strategies below can draw.
PACKER = DeweyPacker(max_depth=5, component_bits=4)

deweys = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4
).map(tuple)


def merged_from(spec: dict[str, list]) -> PackedMergedList:
    return PackedMergedList(
        PackedInvertedList.from_inverted(
            InvertedList(token, [(c, 0, 1) for c in sorted(set(codes))]),
            PACKER,
        )
        for token, codes in spec.items()
    )


def code(entry) -> tuple:
    return PACKER.unpack(entry[0])


def pop_subtree(merged: PackedMergedList, group: tuple) -> list:
    return merged.pop_subtree(
        PACKER.pack(group), PACKER.shift_for(len(group))
    )


class TestMerge:
    def test_interleaves_in_document_order(self):
        merged = merged_from({"a": [(1,), (3,)], "b": [(2,), (4,)]})
        order = [code(e) for e in merged.drain()]
        assert order == [(1,), (2,), (3,), (4,)]

    def test_entries_carry_tokens(self):
        merged = merged_from({"a": [(1,)], "b": [(2,)]})
        tokens = [e[3] for e in merged.drain()]
        assert tokens == ["a", "b"]

    def test_cur_pos_does_not_consume(self):
        merged = merged_from({"a": [(1,)]})
        assert code(merged.cur_pos()) == (1,)
        assert code(merged.cur_pos()) == (1,)
        assert code(merged.next()) == (1,)
        assert merged.cur_pos() is None

    def test_empty_merge(self):
        merged = merged_from({})
        assert not merged
        assert merged.cur_pos() is None
        assert merged.next() is None

    def test_duplicate_positions_across_lists(self):
        # Two variants occurring at the same leaf are both reported.
        merged = merged_from({"a": [(1, 1)], "b": [(1, 1)]})
        entries = merged.drain()
        assert len(entries) == 2
        assert {e[3] for e in entries} == {"a", "b"}

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.lists(deweys, max_size=10),
            max_size=3,
        )
    )
    def test_equals_sorted_concatenation(self, spec):
        merged = merged_from(spec)
        drained = [(code(e), e[3]) for e in merged.drain()]
        expected = sorted(
            (c, token)
            for token, codes in spec.items()
            for c in set(codes)
        )
        assert sorted(drained) == expected
        assert [d[0] for d in drained] == sorted(d[0] for d in drained)


class TestSkipTo:
    def test_skip_discards_smaller(self):
        merged = merged_from(
            {"a": [(1, 1), (1, 3)], "b": [(1, 2), (1, 4)]}
        )
        head = merged.skip_to(PACKER.pack((1, 3)))
        assert code(head) == (1, 3)
        remaining = [code(e) for e in merged.drain()]
        assert remaining == [(1, 3), (1, 4)]

    def test_skip_to_subtree_root(self):
        # Example 5: skip_to(1.2) lands on the first occurrence in the
        # subtree of 1.2.
        merged = merged_from(
            {"tree": [(1, 1, 2), (1, 2, 2)], "trie": [(1, 2, 1)]}
        )
        head = merged.skip_to(PACKER.pack((1, 2)))
        assert code(head) == (1, 2, 1)
        assert head[3] == "trie"

    def test_skip_exhausts_list(self):
        merged = merged_from({"trees": [(1, 1, 1)]})
        assert merged.skip_to(PACKER.pack((1, 2))) is None
        assert not merged

    def test_skip_counters(self):
        merged = merged_from(
            {"a": [(1, 1), (1, 2), (2, 1)], "b": [(1, 3)]}
        )
        merged.skip_to(PACKER.pack((2,)))
        assert merged.total_skips == 3
        assert merged.total_reads == 0

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b"]),
            st.lists(deweys, max_size=10),
            max_size=2,
        ),
        deweys,
    )
    def test_skip_equals_filtered_merge(self, spec, target):
        merged = merged_from(spec)
        merged.skip_to(PACKER.pack(target))
        drained = sorted((code(e), e[3]) for e in merged.drain())
        expected = sorted(
            (c, token)
            for token, codes in spec.items()
            for c in set(codes)
            if c >= target
        )
        assert drained == expected


class TestHeadDewey:
    def test_matches_cur_pos(self):
        merged = merged_from({"a": [(1, 2)], "b": [(1, 1)]})
        assert merged.head_key() == merged.cur_pos()[0]
        assert PACKER.unpack(merged.head_key()) == (1, 1)

    def test_none_when_exhausted(self):
        merged = merged_from({})
        assert merged.head_key() is None

    def test_does_not_consume(self):
        merged = merged_from({"a": [(1, 1)]})
        merged.head_key()
        merged.head_key()
        assert merged.next() is not None


class TestPopSubtree:
    def test_pops_only_group_members(self):
        merged = merged_from(
            {"a": [(1, 1, 1), (1, 2, 1)], "b": [(1, 1, 2), (1, 3, 1)]}
        )
        entries = pop_subtree(merged, (1, 1))
        assert [(code(e), e[3]) for e in entries] == [
            ((1, 1, 1), "a"),
            ((1, 1, 2), "b"),
        ]
        # The rest stays queued, in order.
        assert PACKER.unpack(merged.head_key()) == (1, 2, 1)

    def test_group_equal_to_entry(self):
        merged = merged_from({"a": [(1, 1)]})
        entries = pop_subtree(merged, (1, 1))
        assert [code(e) for e in entries] == [(1, 1)]

    def test_empty_when_head_outside(self):
        merged = merged_from({"a": [(1, 2, 1)]})
        assert pop_subtree(merged, (1, 1)) == []
        assert PACKER.unpack(merged.head_key()) == (1, 2, 1)

    def test_counts_as_reads(self):
        merged = merged_from({"a": [(1, 1, 1), (1, 1, 2)]})
        pop_subtree(merged, (1, 1))
        assert merged.total_reads == 2

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b"]),
            st.lists(deweys, max_size=10),
            max_size=2,
        ),
        deweys,
    )
    def test_equivalent_to_manual_loop(self, spec, group):
        fast = merged_from(spec)
        slow = merged_from(spec)
        popped = pop_subtree(fast, group)

        manual = []
        head = slow.cur_pos()
        while head is not None and code(head)[: len(group)] == group:
            manual.append(slow.next())
            head = slow.cur_pos()
        assert popped == manual
        assert fast.head_key() == slow.head_key()
