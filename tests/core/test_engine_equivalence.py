"""Algorithm 1 ≡ its §V-C ablation ≡ the naive oracle.

The merge loop has one implementation with two cursor strategies:
galloping skips (the default) and the ``use_skipping=False`` ablation,
which advances one posting at a time.  For any query both must return
the same top-k with bit-identical scores and process the same groups;
the ablation reads every posting the skipping run either read or
skipped.  Both must also agree with ``core/naive.py``, which scores the
whole candidate space without grouping, skipping, or pruning (scores to
1e-9: the naive scorer sums in a different order).
"""

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.naive import NaiveCleaner
from repro.eval.experiments import dblp_setting
from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


def rows(suggester, query, k=10):
    return [
        (s.tokens, s.score, s.result_type)
        for s in suggester.suggest(query, k)
    ]


def assert_matches_oracle(suggester, oracle, query, k=10):
    got = rows(suggester, query, k)
    want = rows(oracle, query, k)
    assert [(g[0], g[2]) for g in got] == [(w[0], w[2]) for w in want]
    for g, w in zip(got, want):
        assert g[1] == pytest.approx(w[1], rel=1e-9)


def assert_skipping_equivalent(corpus, query, generator=None, **overrides):
    skipping = XCleanSuggester(
        corpus, generator=generator, config=XCleanConfig(**overrides)
    )
    linear = XCleanSuggester(
        corpus,
        generator=generator,
        config=XCleanConfig(use_skipping=False, **overrides),
    )
    assert rows(skipping, query) == rows(linear, query)
    fast, slow = skipping.last_stats, linear.last_stats
    assert fast.groups_processed == slow.groups_processed
    assert slow.postings_skipped == 0
    assert slow.postings_read == fast.postings_read + fast.postings_skipped
    oracle = NaiveCleaner(
        corpus,
        generator=generator,
        config=XCleanConfig(**{**overrides, "gamma": None}),
    )
    assert_matches_oracle(skipping, oracle, query)


class TestPaperExample:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus_index(XMLDocument(paper_example_tree()))

    @pytest.mark.parametrize(
        "query", ["tree icdt", "tre icd", "databas", "xml tree"]
    )
    def test_same_topk(self, corpus, query):
        assert_skipping_equivalent(corpus, query, max_errors=1)

    def test_score_all_identical(self, corpus):
        config = XCleanConfig(max_errors=1, gamma=None)
        skipping = XCleanSuggester(corpus, config=config)
        linear = XCleanSuggester(
            corpus, config=XCleanConfig(
                max_errors=1, gamma=None, use_skipping=False
            ),
        )
        fast = skipping.score_all("tree icdt")
        assert fast == linear.score_all("tree icdt")
        reference = NaiveCleaner(corpus, config=config).score_all(
            "tree icdt"
        )
        reference = {c: s for c, s in reference.items() if s > 0}
        assert set(fast) == set(reference)
        for candidate, score in fast.items():
            assert score == pytest.approx(reference[candidate], rel=1e-9)

    def test_length_prior_equivalent(self, corpus):
        assert_skipping_equivalent(
            corpus, "tree icdt", max_errors=1, prior="length"
        )

    def test_no_skipping_equivalent(self, corpus):
        assert_skipping_equivalent(
            corpus, "tree icdt", max_errors=1, gamma=None
        )


class TestSyntheticDBLP:
    @pytest.fixture(scope="class")
    def setting(self):
        return dblp_setting("small")

    @pytest.mark.parametrize("use_skipping", [True, False])
    @pytest.mark.parametrize("kind", ["CLEAN", "RAND", "RULE"])
    def test_workload_equivalence(self, setting, kind, use_skipping):
        suggester = XCleanSuggester(
            setting.corpus,
            generator=setting.generator.fresh_cache(),
            config=XCleanConfig(use_skipping=use_skipping),
        )
        oracle = NaiveCleaner(
            setting.corpus,
            generator=setting.generator.fresh_cache(),
            config=XCleanConfig(gamma=None),
        )
        for record in setting.workloads[kind]:
            assert_matches_oracle(suggester, oracle, record.dirty_text)
