"""Correctness checks run by the same command that measures.

Each check returns a list of failure messages; any failure fails the
run.  The validity check is written from the paper's definition, not
through the engine: a suggested query is valid when some entity of its
result type contains every one of its tokens, read directly from the
corpus postings.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache


def answer_bytes(suggestions) -> bytes:
    """Exact serialization of a top-k (floats by ``repr``)."""
    return repr(
        [dataclasses.astuple(s) for s in suggestions]
    ).encode("utf-8")


class ValidityOracle:
    """Entities of each result type that contain a token, from postings."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.paths = corpus.path_table
        self._entities = lru_cache(maxsize=None)(self._entities_uncached)

    def _entities_uncached(self, token: str, type_path: str):
        """Dewey codes of entities of ``type_path`` containing ``token``."""
        postings = self.corpus.inverted.get(token)
        if postings is None:
            return frozenset()
        depth = type_path.count("/")
        found = set()
        for dewey, path_id, _tf in postings:
            path = self.paths.string_of(path_id)
            if path == type_path or path.startswith(type_path + "/"):
                found.add(tuple(dewey[:depth]))
        return frozenset(found)

    def violations(self, keys) -> list[str]:
        """One message per distinct ``(tokens, result_type)`` suggestion
        with an empty result."""
        problems = []
        for tokens, result_type in dict.fromkeys(keys):
            common = None
            for token in tokens:
                entities = self._entities(token, result_type)
                common = entities if common is None else common & entities
                if not common:
                    break
            if not common:
                problems.append(
                    f"invalid suggestion {' '.join(tokens)!r}: no "
                    f"{result_type} entity contains all its tokens"
                )
        return problems
