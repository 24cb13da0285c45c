"""Tests for the SLCA-semantics cleaner (Section VI-B)."""

import pytest

from repro.core.config import XCleanConfig
from repro.core.slca_cleaner import ELCACleanSuggester, SLCACleanSuggester
from repro.eval.experiments import dblp_setting
from repro.exceptions import ConfigurationError, QueryError
from repro.index.corpus import build_corpus_index
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


@pytest.fixture(scope="module")
def suggester(corpus):
    return SLCACleanSuggester(
        corpus, config=XCleanConfig(max_errors=1, gamma=None, min_depth=2)
    )


class TestSuggest:
    def test_returns_suggestions(self, suggester):
        suggestions = suggester.suggest("tree icdt")
        assert suggestions
        assert all(s.result_type == "SLCA" for s in suggestions)

    def test_clean_query_ranks_itself_first(self, suggester):
        top = suggester.suggest("trie icde", k=1)[0]
        assert top.tokens == ("trie", "icde")

    def test_scores_descending(self, suggester):
        scores = [s.score for s in suggester.suggest("tree icdt")]
        assert scores == sorted(scores, reverse=True)

    def test_empty_query_raises(self, suggester):
        with pytest.raises(QueryError):
            suggester.suggest("the of")

    def test_unmatchable_keyword(self, suggester):
        assert suggester.suggest("tree qqqqqqqq") == []


class TestEntitySemantics:
    def test_candidates_require_cooccurrence(self, suggester):
        """(trees, icde) only co-occur through the root; the min-depth
        threshold removes such candidates, as in the node-type mode."""
        scores = suggester.score_all("tree icdt")
        assert ("trees", "icde") not in scores
        assert ("trees", "icdt") not in scores

    def test_same_candidates_as_node_type_on_paper_tree(self, suggester):
        scores = suggester.score_all("tree icdt")
        assert set(scores) == {
            ("tree", "icde"),
            ("trie", "icde"),
            ("trie", "icdt"),
        }

    def test_entity_count_normalization(self, corpus):
        """(trie, icde) has SLCA entities 1.2, 1.3, 1.4: its mass must be
        averaged over 3 entities."""
        suggester = SLCACleanSuggester(
            corpus,
            config=XCleanConfig(max_errors=1, gamma=None, min_depth=2),
        )
        suggester.score_all("trie icde")
        assert suggester.last_stats.entities_scored >= 3

    def test_single_keyword_entities_are_leaves(self, suggester):
        # For a single keyword the SLCAs are the occurrence nodes.
        suggestions = suggester.suggest("trie")
        assert suggestions
        assert suggestions[0].tokens in {("trie",), ("tree",)}


class TestStats:
    def test_group_machinery_used(self, suggester):
        suggester.suggest("tree icdt")
        stats = suggester.last_stats
        assert stats.groups_processed == 3
        assert stats.postings_read == 8
        assert stats.postings_skipped == 1


class TestNodeTypeOnlyMethods:
    """partial_rows/suggest_explained read the node-type pool, which the
    SLCA/ELCA scorer never fills: they must refuse, not return empty."""

    @pytest.mark.parametrize(
        "cls, label",
        [(SLCACleanSuggester, "SLCA"), (ELCACleanSuggester, "ELCA")],
    )
    def test_refused_while_suggest_answers(self, corpus, cls, label):
        suggester = cls(
            corpus,
            config=XCleanConfig(max_errors=1, gamma=None, min_depth=2),
        )
        assert suggester.suggest("tree icdt")
        with pytest.raises(ConfigurationError, match=label):
            suggester.partial_rows("tree icdt")
        with pytest.raises(ConfigurationError, match=label):
            suggester.suggest_explained("tree icdt")


class TestSnapshotBacked:
    """SLCA/ELCA over a v3 snapshot answer exactly as in memory."""

    @pytest.fixture(scope="class")
    def setting(self):
        return dblp_setting("small")

    @pytest.fixture(scope="class")
    def snapshot(self, setting, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("slca") / "dblp.xcs3")
        build_snapshot(setting.corpus, path)
        loaded = load_snapshot(path)
        yield loaded
        loaded.close()

    @pytest.mark.parametrize(
        "cls", [SLCACleanSuggester, ELCACleanSuggester]
    )
    def test_answers_identical_to_in_memory(self, setting, snapshot, cls):
        mapped = cls(snapshot)
        # The snapshot's embedded FastSS buckets are reused, not rebuilt
        # from the vocabulary.
        assert mapped.generator._index is snapshot._fastss_index()
        in_memory = cls(setting.corpus)
        checked = 0
        for kind in ("RAND", "RULE"):
            for record in setting.workloads[kind]:
                want = in_memory.suggest(record.dirty_text, 10)
                assert mapped.suggest(record.dirty_text, 10) == want
                checked += bool(want)
        assert checked > 0
