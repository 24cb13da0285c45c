"""Edge-case coverage for PackedMergedList skip_to and pop_subtree:
empty member lists, duplicate heads across variants, skip targets
beyond all postings, and groups deeper than every head."""

from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.merged_list import PackedMergedList
from repro.xmltree.dewey_packed import DeweyPacker

#: Codes every packer in this file can encode.
UNIVERSE_PACKER = DeweyPacker(max_depth=5, component_bits=5)


def packed_merged(spec: dict[str, list]) -> PackedMergedList:
    return PackedMergedList(
        PackedInvertedList.from_inverted(
            InvertedList(token, [(c, 0, 1) for c in sorted(set(codes))]),
            UNIVERSE_PACKER,
        )
        for token, codes in spec.items()
    )


pack = UNIVERSE_PACKER.pack


def unpack(entry) -> tuple:
    return UNIVERSE_PACKER.unpack(entry[0])


def pop_subtree(merged, group_code):
    return merged.pop_subtree(
        UNIVERSE_PACKER.pack(group_code),
        UNIVERSE_PACKER.shift_for(len(group_code)),
    )


class TestEmptyMemberLists:
    def test_all_members_empty(self):
        merged = packed_merged({"a": [], "b": []})
        assert not merged
        assert merged.cur_pos() is None
        assert merged.next() is None
        assert merged.skip_to(pack((1,))) is None
        assert pop_subtree(merged, (1,)) == []

    def test_some_members_empty(self):
        spec = {"a": [], "b": [(1, 1), (2, 1)], "c": []}
        merged = packed_merged(spec)
        assert [unpack(e) for e in merged.drain()] == [
            (1, 1),
            (2, 1),
        ]

    def test_no_members_at_all(self):
        merged = PackedMergedList([])
        assert not merged
        assert merged.next() is None


class TestDuplicateHeads:
    def test_same_head_across_variants_pops_both(self):
        spec = {"a": [(1, 2)], "b": [(1, 2)], "c": [(1, 3)]}
        merged = packed_merged(spec)
        popped = pop_subtree(merged, (1, 2))
        assert sorted(e[3] for e in popped) == ["a", "b"]
        # The non-group head survives.
        assert len(pop_subtree(merged, (1, 3))) == 1

    def test_duplicate_heads_skip_together(self):
        spec = {"a": [(1, 1), (2, 2)], "b": [(1, 1), (3, 1)]}
        merged = packed_merged(spec)
        head = merged.skip_to(pack((2,)))
        assert unpack(head) == (2, 2)
        assert merged.total_skips == 2


class TestSkipBeyondAll:
    def test_skip_to_past_everything_exhausts(self):
        spec = {"a": [(1, 1)], "b": [(1, 2), (2, 4)]}
        merged = packed_merged(spec)
        assert merged.skip_to(pack((9,))) is None
        assert not merged
        assert merged.total_skips == 3
        # Exhausted lists stay exhausted.
        assert merged.next() is None
        assert pop_subtree(merged, (9,)) == []


class TestGroupDeeperThanHeads:
    def test_pop_subtree_with_deeper_group_pops_nothing(self):
        # Every head is an ancestor of the group, never inside it.
        spec = {"a": [(1,)], "b": [(1, 2)]}
        merged = packed_merged(spec)
        assert pop_subtree(merged, (1, 2, 3)) == []
        # Heads are untouched.
        assert unpack(merged.cur_pos()) == (1,)

    def test_skip_to_deeper_group_consumes_ancestors(self):
        # Document order puts ancestors strictly before the group, so
        # skip_to(group) jumps over them.
        spec = {"a": [(1,), (1, 2, 3, 1)], "b": [(1, 2)]}
        merged = packed_merged(spec)
        head = merged.skip_to(pack((1, 2, 3)))
        assert unpack(head) == (1, 2, 3, 1)
        popped = pop_subtree(merged, (1, 2, 3))
        assert [unpack(e) for e in popped] == [(1, 2, 3, 1)]
        assert merged.cur_pos() is None
