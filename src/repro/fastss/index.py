"""FastSS variant indexes: generating var_ε(q) (Section V-A).

Two interchangeable index structures produce the variant set of a query
keyword — every vocabulary token within edit distance ε:

* :class:`FastSSIndex` — the plain scheme: index the ε-deletion
  neighborhood of every vocabulary token; probe with the query's
  neighborhood; verify candidates with a bit-parallel (Myers/Hyyrö)
  bounded edit distance.

* :class:`PartitionedFastSSIndex` — the paper's partitioned variant for
  long tokens.  Tokens longer than a threshold are split into two
  halves; by pigeonhole, ed(q, w) <= ε implies one half aligns with a
  query prefix/suffix within ⌊ε/2⌋ errors, so only ⌊ε/2⌋-deletion
  neighborhoods of the halves are indexed.  This trades a slightly
  larger candidate set for neighborhood sizes that stay polynomial in
  the half length — the paper's O(min(l^ε, ε²·l_p)·|V|) space bound.

* :class:`BruteForceVariants` — scans the vocabulary; the correctness
  oracle in tests.

All three share the interface ``variants(query, max_errors=None) ->
list[Variant]``, returning ``(token, distance)`` pairs sorted by
(distance, token) so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.exceptions import ConfigurationError
from repro.fastss.edit_distance import bounded_distances
from repro.fastss.neighborhood import deletion_neighborhood


@dataclass(frozen=True, order=True)
class Variant:
    """One member of var_ε(q): a vocabulary token and its edit distance."""

    distance: int
    token: str


class VariantIndex(Protocol):
    """Common protocol of the variant-generation indexes."""

    max_errors: int

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        """All vocabulary tokens within the given edit distance."""
        ...  # pragma: no cover - protocol


def _verify(
    query: str, candidates: Iterable[str], max_errors: int
) -> list[Variant]:
    """Filter candidates by true edit distance; sort deterministically."""
    verified = [
        Variant(distance, token)
        for token, distance in bounded_distances(
            query, candidates, max_errors
        )
    ]
    verified.sort()
    return verified


class FastSSIndex:
    """Plain FastSS: full ε-deletion neighborhoods of every token."""

    def __init__(self, tokens: Iterable[str], max_errors: int = 2):
        if max_errors < 0:
            raise ConfigurationError("max_errors must be >= 0")
        self.max_errors = max_errors
        self._buckets: dict[str, list[str]] = {}
        self._vocabulary: set[str] = set()
        for token in tokens:
            self.add_token(token)

    def add_token(self, token: str) -> None:
        """Index one vocabulary token (idempotent)."""
        if token in self._vocabulary:
            return
        self._vocabulary.add(token)
        for signature in deletion_neighborhood(token, self.max_errors):
            self._buckets.setdefault(signature, []).append(token)

    def __len__(self) -> int:
        return len(self._vocabulary)

    @property
    def bucket_count(self) -> int:
        """Number of distinct deletion signatures (index size)."""
        return len(self._buckets)

    def candidates(self, query: str, max_errors: int) -> set[str]:
        """Unverified candidates: tokens sharing a deletion signature."""
        found: set[str] = set()
        for signature in deletion_neighborhood(query, max_errors):
            bucket = self._buckets.get(signature)
            if bucket:
                found.update(bucket)
        return found

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        """var_ε(q): verified vocabulary tokens within ``max_errors``."""
        eps = self.max_errors if max_errors is None else max_errors
        if eps > self.max_errors:
            raise ConfigurationError(
                f"index built for <= {self.max_errors} errors, asked {eps}"
            )
        return _verify(query, self.candidates(query, eps), eps)


class PartitionedFastSSIndex:
    """FastSS with half-token partitioning for long tokens.

    Tokens of length <= ``partition_threshold`` go into a plain FastSS
    bucket table.  Longer tokens are split into halves w = w1·w2 with
    |w1| = ceil(|w|/2); the ⌊ε/2⌋-deletion neighborhoods of w1 and w2
    are indexed in separate prefix/suffix tables.  At query time both
    tables are probed with the deletion neighborhoods of query prefixes
    and suffixes whose lengths fall in the feasible window, and every
    candidate is verified.
    """

    def __init__(
        self,
        tokens: Iterable[str],
        max_errors: int = 2,
        partition_threshold: int = 9,
    ):
        if max_errors < 0:
            raise ConfigurationError("max_errors must be >= 0")
        if partition_threshold < 2:
            raise ConfigurationError("partition_threshold must be >= 2")
        self.max_errors = max_errors
        self.partition_threshold = partition_threshold
        self._half_errors = max_errors // 2
        self._short = FastSSIndex([], max_errors)
        self._prefix_buckets: dict[str, list[str]] = {}
        self._suffix_buckets: dict[str, list[str]] = {}
        self._long_lengths: set[int] = set()
        seen: set[str] = set()
        for token in tokens:
            if token in seen:
                continue
            seen.add(token)
            if len(token) <= partition_threshold:
                self._short.add_token(token)
            else:
                self._long_lengths.add(len(token))
                half = (len(token) + 1) // 2
                for sig in deletion_neighborhood(
                    token[:half], self._half_errors
                ):
                    self._prefix_buckets.setdefault(sig, []).append(token)
                for sig in deletion_neighborhood(
                    token[half:], self._half_errors
                ):
                    self._suffix_buckets.setdefault(sig, []).append(token)

    def _long_candidates(self, query: str, eps: int) -> set[str]:
        """Probe the prefix/suffix tables for long-token candidates."""
        found: set[str] = set()
        q_len = len(query)
        half_eps = self._half_errors
        # Feasible word lengths differ from |q| by at most eps.
        word_lengths = [
            length
            for length in self._long_lengths
            if abs(length - q_len) <= eps
        ]
        if not word_lengths:
            return found
        prefix_lengths: set[int] = set()
        suffix_lengths: set[int] = set()
        for length in word_lengths:
            half = (length + 1) // 2
            for delta in range(-half_eps - eps, half_eps + eps + 1):
                j = half + delta
                if 0 <= j <= q_len:
                    prefix_lengths.add(j)
                j = (length - half) + delta
                if 0 <= j <= q_len:
                    suffix_lengths.add(j)
        for j in prefix_lengths:
            for sig in deletion_neighborhood(query[:j], half_eps):
                bucket = self._prefix_buckets.get(sig)
                if bucket:
                    found.update(bucket)
        for j in suffix_lengths:
            for sig in deletion_neighborhood(query[q_len - j :], half_eps):
                bucket = self._suffix_buckets.get(sig)
                if bucket:
                    found.update(bucket)
        return found

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        """var_ε(q) over both short and partitioned long tokens."""
        eps = self.max_errors if max_errors is None else max_errors
        if eps > self.max_errors:
            raise ConfigurationError(
                f"index built for <= {self.max_errors} errors, asked {eps}"
            )
        candidates = self._long_candidates(query, eps)
        if len(query) <= self.partition_threshold + eps:
            candidates |= self._short.candidates(query, eps)
        return _verify(query, candidates, eps)


class BruteForceVariants:
    """Reference variant generator: linear scan with bounded verification."""

    def __init__(self, tokens: Iterable[str], max_errors: int = 2):
        self.max_errors = max_errors
        self._tokens = sorted(set(tokens))

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        eps = self.max_errors if max_errors is None else max_errors
        return _verify(query, self._tokens, eps)
