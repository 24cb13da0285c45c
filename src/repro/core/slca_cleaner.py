"""XClean under the SLCA query semantics (Section VI-B).

Instead of a single inferred result type per candidate, each candidate
query's entities are its SLCA nodes — the smallest subtrees containing
every keyword.  Scoring stays Eq. 8/9 with those entities:

    P(C|T) = (1/N_C) Σ_{r ∈ SLCA(C)} ∏_{w ∈ C} p(w|D(r))

where N_C = |SLCA(C)| (every SLCA entity contains all keywords by
definition, so none is dropped).

The suggester is :class:`~repro.core.cleaner.XCleanSuggester` with a
different per-group scorer: the same Algorithm 1 pass (anchors, minimal
depth d, skipping, plan cache) feeds each complete group to
:meth:`SLCACleanSuggester._score_group_packed`, which computes the
candidate's SLCAs *within* the group and accumulates their mass and
count.  Connections that exist only above depth d are deliberately
excluded — the same "connected only through the root is not
meaningful" argument of Section V-B.  The paper notes this semantics
works as well as node types on data-centric DBLP but worse on
document-centric INEX, which the ablation benchmark reproduces.
"""

from __future__ import annotations

from repro.core.candidates import CandidateQuery, CandidateSpace
from repro.core.cleaner import XCleanSuggester
from repro.core.pruning import AccumulatorPool
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import ConfigurationError
from repro.index.merged_list import PackedEntry
from repro.slca.elca import elca
from repro.slca.multiway import slca
from repro.xmltree.dewey import DeweyCode


class SLCACleanSuggester(XCleanSuggester):
    """Top-k query cleaning with SLCA entity semantics."""

    #: Display label used in Suggestion.result_type.
    semantics_label = "SLCA"

    def suggest(self, query: str, k: int = 10) -> list[Suggestion]:
        """Top-k alternative queries under SLCA semantics."""
        scores = self.score_all(query)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            Suggestion(
                tokens=candidate,
                score=score,
                result_type=self.semantics_label,
            )
            for candidate, score in ranked[:k]
        ]

    def score_all(self, query: str) -> dict[CandidateQuery, float]:
        """Scores of all candidates with at least one SLCA entity."""
        self._run(query)
        return {
            candidate: error_weight * total / count
            for candidate, (total, count, error_weight)
            in self._tables.items()
        }

    def partial_rows(self, query: str):
        """Not supported: the shard rows are node-type accumulators.

        The inherited method ships the γ-bounded node-type pool, which
        this scorer never fills (its masses live in ``_tables``), so it
        would report no candidates while :meth:`suggest` has answers.
        """
        raise ConfigurationError(
            f"partial_rows (sharded gather) is not supported under "
            f"{self.semantics_label} semantics; use suggest or score_all"
        )

    def suggest_explained(self, query: str, k: int = 10):
        """Not supported: explanations record node-type scoring.

        The inherited method explains the node-type pool, which this
        scorer never fills, so it would explain no candidates.
        """
        raise ConfigurationError(
            f"suggest_explained is not supported under "
            f"{self.semantics_label} semantics; use suggest or score_all"
        )

    def _run_inner(self, query: str) -> AccumulatorPool:
        #: candidate -> [mass, entity count, error weight]; filled by
        #: the per-group scorer during one Algorithm 1 pass.
        self._tables: dict[CandidateQuery, list] = {}
        return super()._run_inner(query)

    def _entities(
        self, lists: list[list[DeweyCode]]
    ) -> list[DeweyCode]:
        """Entity roots of one candidate within the current group."""
        return slca(lists)

    def _score_group_packed(
        self,
        occurrences: list[dict[str, list[PackedEntry]]],
        space: CandidateSpace,
        pool: AccumulatorPool,
        stats: CleaningStats,
        view,
        group: int,
    ) -> None:
        """Score the group's candidates over their SLCA entities.

        The accumulator ``pool`` is unused: SLCA masses are never
        γ-bounded, they accumulate in the per-query ``_tables``.
        """
        unpack = view.packer.unpack
        subtree_length = self.corpus.subtree_length
        probability = self.language_model.probability
        tables = self._tables
        unpacked: dict[tuple[int, str], tuple[list, list]] = {}
        present = [list(by_token) for by_token in occurrences]
        for candidate in space.enumerate_present(present):
            stats.candidates_evaluated += 1
            columns = []
            for position, token in enumerate(candidate):
                key = (position, token)
                found = unpacked.get(key)
                if found is None:
                    entries = occurrences[position][token]
                    found = (
                        [unpack(entry[0]) for entry in entries],
                        [entry[2] for entry in entries],
                    )
                    unpacked[key] = found
                columns.append(found)
            entities = self._entities([deweys for deweys, _ in columns])
            if not entities:
                continue
            total = 0.0
            for root in entities:
                stats.entities_scored += 1
                length = subtree_length(root)
                depth = len(root)
                product = 1.0
                for position, token in enumerate(candidate):
                    deweys, tfs = columns[position]
                    count = sum(
                        tf
                        for dewey, tf in zip(deweys, tfs)
                        if dewey[:depth] == root
                    )
                    product *= probability(token, count, length)
                total += product
            entry = tables.get(candidate)
            if entry is None:
                tables[candidate] = [
                    total, len(entities), space.error_weight(candidate)
                ]
            else:
                entry[0] += total
                entry[1] += len(entities)


class ELCACleanSuggester(SLCACleanSuggester):
    """Top-k query cleaning with ELCA entity semantics.

    A further demonstration of the framework's generality: entities are
    the Exclusive LCAs [XRANK] of the candidate's keyword occurrences.
    ELCAs are a superset of the SLCAs — ancestors with their own
    exclusive keyword witnesses also become entities, so broader
    contexts contribute score mass.
    """

    semantics_label = "ELCA"

    def _entities(
        self, lists: list[list[DeweyCode]]
    ) -> list[DeweyCode]:
        return elca(lists)
