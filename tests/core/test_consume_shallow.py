"""Shallow anchors in Algorithm 1's merge loop.

An anchor shallower than the minimal depth d sits under no valid
entity, so the merge loop consumes it and recomputes the anchor.  If
nothing were consumed, the loop would recompute the same anchor from
unchanged heads forever.  These tests pin that every shallow anchor
consumes exactly one head — the first list's head that equals it — so
the loop always makes progress.
"""

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.pruning import AccumulatorPool
from repro.core.suggestion import CleaningStats
from repro.index.corpus import build_corpus_index
from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.merged_list import PackedMergedList
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def suggester():
    corpus = build_corpus_index(XMLDocument(paper_example_tree()))
    # min_depth above every code below: every anchor is shallow.
    return XCleanSuggester(
        corpus, config=XCleanConfig(max_errors=1, min_depth=3)
    )


def merged_lists(suggester, spec):
    packer = suggester.corpus.packed_view().packer
    return [
        PackedMergedList(
            [
                PackedInvertedList.from_inverted(
                    InvertedList(token, [(code, 0, 1) for code in codes]),
                    packer,
                )
            ]
        )
        for token, codes in spec
    ]


def run_merge(suggester, merged):
    stats = CleaningStats()
    suggester._merge_loop_kernel(
        merged, None, AccumulatorPool(None), stats
    )
    return stats


class TestPackedEngine:
    def test_stale_anchor_still_makes_progress(self, suggester):
        # Every iteration consumes the maximal head, so the loop ends
        # once list b is exhausted; list a's smaller head is never the
        # anchor and stays put.
        merged = merged_lists(
            suggester, [("a", [(1, 1)]), ("b", [(1, 3), (1, 4)])]
        )
        stats = run_merge(suggester, merged)
        assert [ml.position for ml in merged] == [0, 2]
        assert stats.postings_read == 2
        assert stats.postings_skipped == 0
        assert stats.groups_processed == 0

    def test_matching_head_preferred_over_maximal(self, suggester):
        # Both heads equal the anchor: only the first list's head is
        # consumed, which exhausts it and ends the loop.
        merged = merged_lists(
            suggester, [("a", [(1, 3)]), ("b", [(1, 3), (1, 4)])]
        )
        stats = run_merge(suggester, merged)
        assert [ml.position for ml in merged] == [1, 0]
        assert stats.postings_read == 1


class TestEndToEnd:
    def test_deep_min_depth_terminates(self):
        # With min_depth above every leaf, every anchor takes the
        # shallow path; the query must still terminate and return
        # nothing rather than loop — with and without skipping.
        corpus = build_corpus_index(XMLDocument(paper_example_tree()))
        for use_skipping in (True, False):
            suggester = XCleanSuggester(
                corpus,
                config=XCleanConfig(
                    max_errors=1, min_depth=30, use_skipping=use_skipping
                ),
            )
            assert suggester.suggest("tree icdt", 5) == []
