"""In-memory delta segment and query-time overlay for live updates.

The live-update pipeline (``docs/index_format.md``, "Live updates")
keeps the base index immutable — an mmap'd v3 snapshot or an in-memory
:class:`~repro.index.corpus.CorpusIndex` — and layers acknowledged
subtree operations on top of it:

* :func:`apply_record` mutates the *logical document* (the Dewey-coded
  tree the index describes) and hands back the old and new subtrees;
* :class:`DeltaSegment` turns those subtrees into exact adjustments of
  every statistic the scoring model reads — postings, vocabulary
  (Eq. 6 background model), subtree token counts and the Eq. 8
  normalizers — plus a tombstone set masking deleted base postings;
* :class:`DeltaOverlayCorpus` exposes the merged view through the
  standard :class:`~repro.index.corpus.QueryEngineMixin` surface, so
  Algorithm 1's merge loop consumes it unchanged via
  ``merged_list_packed``.

**Dewey stability.**  Updates must not renumber nodes the base index
already refers to.  ``add`` therefore appends as the last child, and
``delete`` leaves a childless, textless *placeholder* node in the tree
(removing a middle child would shift every following sibling's
ordinal).  The placeholder carries no tokens, so the entity disappears
from all query results; its node still counts toward ``entity_count``
— on both sides of the equivalence, because the rebuilt reference
corpus is the applied logical document, placeholders included.

**Exactness.**  Every statistic the XClean scoring path reads is
adjusted exactly, so overlay top-k results are byte-identical to a
from-scratch rebuild of the applied document (the crash-recovery tests
assert this with and without skipping, and across shard counts).  The one
documented approximation is the PY08 baseline's ``max_relative_tf``:
a delete cannot lower a base maximum without a global scan, so the
overlay only ever raises it; compaction restores the exact value.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.exceptions import DeweyError, UpdateError
from repro.fastss.generator import (
    DEFAULT_VARIANT_CACHE_SIZE,
    VariantGenerator,
)
from repro.fastss.index import FastSSIndex, Variant
from repro.index.corpus import QueryEngineMixin
from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.path_index import path_counts_from_postings
from repro.index.wal import WalRecord
from repro.obs.faults import active as _active_faults
from repro.xmltree.dewey import DeweyCode
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.document import XMLDocument
from repro.xmltree.labelpath import LabelPath
from repro.xmltree.node import XMLNode

#: Default bound on buffered records before compaction is advised.
DEFAULT_DELTA_MAX_RECORDS = 4096


# ----------------------------------------------------------------------
# Subtree (de)serialization — the WAL payload format
# ----------------------------------------------------------------------


def node_to_json(node: XMLNode) -> dict:
    """Serialize a subtree as the WAL's JSON tree payload."""
    out: dict = {"label": node.label}
    if node.text:
        out["text"] = node.text
    if node.children:
        out["children"] = [node_to_json(child) for child in node.children]
    return out


def node_from_json(document: dict) -> XMLNode:
    """Parse a WAL JSON tree payload into a detached subtree."""
    try:
        node = XMLNode(
            str(document["label"]), text=str(document.get("text", ""))
        )
        for child in document.get("children", ()):
            node.add_child(node_from_json(child))
    except (KeyError, TypeError, AttributeError) as exc:
        raise UpdateError(f"malformed subtree payload: {exc}") from exc
    return node


def document_to_json(document: XMLDocument) -> dict:
    """Serialize a whole logical document (the live-source sidecar)."""
    return {"name": document.name, "root": node_to_json(document.root)}


def document_from_json(payload: dict) -> XMLDocument:
    """Rebuild a logical document from its sidecar payload."""
    root = node_from_json(payload["root"])
    root.assign_deweys((1,))
    return XMLDocument(root, name=payload.get("name", "document"))


# ----------------------------------------------------------------------
# Applying records to the logical document
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ApplyResult:
    """The document mutation produced by one WAL record.

    ``old`` / ``new`` are the replaced and inserted subtrees (``None``
    when the op adds fresh content / ``new`` is the delete
    placeholder); ``parent_labels`` is the label path of the affected
    node's parent, so walking either subtree with
    ``iter_with_paths(prefix=parent_labels)`` yields full label paths.
    """

    record: WalRecord
    old: XMLNode | None
    new: XMLNode
    parent_labels: LabelPath


def _labels_along(document: XMLDocument, dewey: DeweyCode) -> LabelPath:
    """Label path of the node at ``dewey`` (validating the walk)."""
    root = document.root
    if root.dewey != dewey[:1]:
        raise UpdateError(
            f"dewey {dewey!r} does not start at the document root"
        )
    labels = [root.label]
    node = root
    for ordinal in dewey[1:]:
        index = ordinal - 1
        if index < 0 or index >= len(node.children):
            raise UpdateError(f"no node at dewey {dewey!r}")
        node = node.children[index]
        labels.append(node.label)
    return tuple(labels)


def apply_record(
    document: XMLDocument, record: WalRecord
) -> ApplyResult:
    """Apply one record to the logical document (mutating it)."""
    if record.op == "add":
        parent = document.node_at(record.dewey)
        if parent is None:
            raise UpdateError(
                f"add target (parent) {record.dewey!r} does not exist"
            )
        parent_labels = _labels_along(document, record.dewey)
        assert record.subtree is not None
        new = node_from_json(record.subtree)
        parent.children.append(new)
        new.assign_deweys(record.dewey + (len(parent.children),))
        return ApplyResult(record, None, new, parent_labels)

    # update / delete target an existing non-root node.
    if len(record.dewey) < 2:
        raise UpdateError(
            f"cannot {record.op} the document root {record.dewey!r}"
        )
    parent = document.node_at(record.dewey[:-1])
    ordinal = record.dewey[-1]
    if parent is None or not (1 <= ordinal <= len(parent.children)):
        raise UpdateError(
            f"{record.op} target {record.dewey!r} does not exist"
        )
    parent_labels = _labels_along(document, record.dewey[:-1])
    old = parent.children[ordinal - 1]
    if record.op == "update":
        assert record.subtree is not None
        new = node_from_json(record.subtree)
    else:
        # Delete leaves a placeholder so sibling ordinals (and hence
        # every Dewey code the base index stores) stay valid.
        new = XMLNode(old.label)
    parent.children[ordinal - 1] = new
    new.assign_deweys(record.dewey)
    return ApplyResult(record, old, new, parent_labels)


def apply_records(
    document: XMLDocument, records: Iterable[WalRecord]
) -> list[ApplyResult]:
    """Apply a sequence of records in order (mutating the document)."""
    return [apply_record(document, record) for record in records]


# ----------------------------------------------------------------------
# The delta segment
# ----------------------------------------------------------------------


@dataclass
class DeltaSegment:
    """Bounded, exact stat adjustments for a batch of applied records.

    All mappings are *deltas* against the base index: postings to add,
    signed adjustments to the Eq. 6/8 statistics, and a tombstone set
    of subtree roots whose base postings are masked.  ``touched`` names
    every token whose posting list differs from the base — untouched
    tokens pass through the overlay zero-copy.
    """

    tombstones: set[DeweyCode] = field(default_factory=set)
    postings_add: dict[str, list[tuple[DeweyCode, int, int]]] = field(
        default_factory=dict
    )
    touched: set[str] = field(default_factory=set)
    cf_delta: dict[str, int] = field(default_factory=dict)
    df_delta: dict[str, int] = field(default_factory=dict)
    rel_new: dict[str, float] = field(default_factory=dict)
    total_tokens_delta: int = 0
    element_doc_delta: int = 0
    subtree_delta: dict[DeweyCode, int] = field(default_factory=dict)
    path_node_delta: dict[int, int] = field(default_factory=dict)
    path_total_delta: dict[int, int] = field(default_factory=dict)
    max_new_depth: int = 0
    records: list[WalRecord] = field(default_factory=list)
    max_records: int = DEFAULT_DELTA_MAX_RECORDS
    #: Monotone change counter; overlay caches key off it.
    version: int = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dirty(self) -> bool:
        return self.version > 0

    @property
    def needs_compaction(self) -> bool:
        """True once the segment outgrew its configured bound."""
        return len(self.records) >= self.max_records

    # ------------------------------------------------------------------

    def apply(self, result: ApplyResult, tokenizer, path_table) -> None:
        """Fold one applied record into the segment.

        The ``delta.apply`` fault site fires first, so a chaos plan can
        simulate a crash *after* the WAL acknowledged the record but
        before it became query-visible — recovery (WAL replay) must
        land in the same state.
        """
        faults = _active_faults()
        if faults.enabled:
            faults.hit("delta.apply")
        record = result.record
        if result.old is not None:
            self._fold_subtree(
                result.old, result.parent_labels, tokenizer,
                path_table, sign=-1,
            )
            target = result.old.dewey
            assert target is not None
            self.tombstones.add(target)
            self._purge_added_under(target)
        self._fold_subtree(
            result.new, result.parent_labels, tokenizer, path_table,
            sign=+1,
        )
        self.records.append(record)
        self.version += 1

    def _purge_added_under(self, root: DeweyCode) -> None:
        """Drop previously added postings shadowed by a new tombstone."""
        depth = len(root)
        for token, postings in list(self.postings_add.items()):
            kept = [p for p in postings if p[0][:depth] != root]
            if len(kept) != len(postings):
                self.postings_add[token] = kept

    def _fold_subtree(
        self,
        subtree: XMLNode,
        parent_labels: LabelPath,
        tokenizer,
        path_table,
        sign: int,
    ) -> None:
        for node, labels in subtree.iter_with_paths(
            prefix=parent_labels
        ):
            pid = path_table.intern(labels)
            self.path_node_delta[pid] = (
                self.path_node_delta.get(pid, 0) + sign
            )
            if sign > 0 and len(labels) > self.max_new_depth:
                self.max_new_depth = len(labels)
            if not node.text:
                continue
            counts: dict[str, int] = {}
            for token in tokenizer.iter_tokens(node.text):
                counts[token] = counts.get(token, 0) + 1
            if not counts:
                continue
            dewey = node.dewey
            assert dewey is not None
            length = sum(counts.values())
            self.element_doc_delta += sign
            self.total_tokens_delta += sign * length
            for token, tf in counts.items():
                self.touched.add(token)
                self.cf_delta[token] = (
                    self.cf_delta.get(token, 0) + sign * tf
                )
                self.df_delta[token] = (
                    self.df_delta.get(token, 0) + sign
                )
                if sign > 0:
                    self.postings_add.setdefault(token, []).append(
                        (dewey, pid, tf)
                    )
                    rel = tf / length
                    if rel > self.rel_new.get(token, 0.0):
                        self.rel_new[token] = rel
            for depth in range(1, len(dewey) + 1):
                prefix = dewey[:depth]
                self.subtree_delta[prefix] = (
                    self.subtree_delta.get(prefix, 0) + sign * length
                )
                ancestor = path_table.prefix_id(pid, depth)
                self.path_total_delta[ancestor] = (
                    self.path_total_delta.get(ancestor, 0)
                    + sign * length
                )

    # ------------------------------------------------------------------

    def masks(self, dewey: DeweyCode) -> bool:
        """True when a tombstone covers ``dewey`` (ancestor-or-self)."""
        for root in self.tombstones:
            if dewey[: len(root)] == root:
                return True
        return False

    def approx_bytes(self) -> int:
        """Rough in-memory footprint of the segment.

        A deterministic per-entry estimate (CPython container + tuple
        overheads), not a deep ``getsizeof`` walk — /statusz polls
        this, so it must stay O(tokens) and allocation-free.
        """
        postings = sum(len(p) for p in self.postings_add.values())
        return (
            64 * len(self.records)
            + 88 * postings
            + 56 * (
                len(self.cf_delta) + len(self.df_delta)
                + len(self.rel_new)
            )
            + 72 * (
                len(self.subtree_delta) + len(self.path_node_delta)
                + len(self.path_total_delta)
            )
            + 48 * (len(self.touched) + len(self.tombstones))
        )

    def describe(self) -> dict:
        return {
            "records": len(self.records),
            "touched_tokens": len(self.touched),
            "tombstones": len(self.tombstones),
            "added_postings": sum(
                len(p) for p in self.postings_add.values()
            ),
            "total_tokens_delta": self.total_tokens_delta,
            "approx_bytes": self.approx_bytes(),
            "needs_compaction": self.needs_compaction,
        }


# ----------------------------------------------------------------------
# Overlay views (vocabulary / inverted / path index / packed)
# ----------------------------------------------------------------------


class OverlayVocabulary:
    """Base vocabulary plus exact delta adjustments (Eq. 6 inputs)."""

    def __init__(self, base, delta: DeltaSegment):
        self._base = base
        self._delta = delta

    def _cf(self, token: str) -> int:
        return self._base.collection_frequency(token) + (
            self._delta.cf_delta.get(token, 0)
        )

    def __contains__(self, token: str) -> bool:
        return self._cf(token) > 0

    def __len__(self) -> int:
        return sum(1 for _ in self.tokens())

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens())

    def tokens(self) -> Iterator[str]:
        delta_cf = self._delta.cf_delta
        for token in self._base.tokens():
            if self._base.collection_frequency(token) + delta_cf.get(
                token, 0
            ) > 0:
                yield token
        for token, adjust in delta_cf.items():
            if adjust > 0 and self._base.collection_frequency(token) == 0:
                yield token

    @property
    def total_tokens(self) -> int:
        return self._base.total_tokens + self._delta.total_tokens_delta

    @property
    def element_doc_count(self) -> int:
        return (
            self._base.element_doc_count
            + self._delta.element_doc_delta
        )

    def collection_frequency(self, token: str) -> int:
        return max(0, self._cf(token))

    def background_probability(self, token: str) -> float:
        total = self.total_tokens
        if total == 0:
            return 0.0
        return self.collection_frequency(token) / total

    def element_document_frequency(self, token: str) -> int:
        return max(
            0,
            self._base.element_document_frequency(token)
            + self._delta.df_delta.get(token, 0),
        )

    def max_relative_tf(self, token: str) -> float:
        # Approximate under deletes (see module docstring): the base
        # maximum is never lowered, only raised by new elements.
        # XClean scoring does not read it; compaction restores
        # exactness for the PY08 baseline.
        return max(
            self._base.max_relative_tf(token),
            self._delta.rel_new.get(token, 0.0),
        )

    def idf(self, token: str) -> float:
        import math

        df = self.element_document_frequency(token)
        count = self.element_doc_count
        if df == 0 or count == 0:
            return 0.0
        return math.log(count / df)

    def max_tfidf(self, token: str) -> float:
        return self.max_relative_tf(token) * self.idf(token)

    def export_rows(self) -> Iterator[tuple[str, int, int, float]]:
        for token in self.tokens():
            yield (
                token,
                self.collection_frequency(token),
                self.element_document_frequency(token),
                self.max_relative_tf(token),
            )


class OverlayInvertedIndex:
    """Token → posting list view merging base lists with the delta.

    Untouched tokens are served zero-copy from the base; touched
    tokens get a materialized, Dewey-sorted merge of the unmasked base
    postings and the delta additions, cached until the next delta
    version.
    """

    def __init__(self, overlay: "DeltaOverlayCorpus"):
        self._overlay = overlay
        self._cache: dict[str, InvertedList | None] = {}
        self._version = overlay.delta.version

    def _refresh(self) -> None:
        version = self._overlay.delta.version
        if version != self._version:
            self._cache.clear()
            self._version = version

    def get(self, token: str) -> InvertedList | None:
        self._refresh()
        delta = self._overlay.delta
        if token not in delta.touched:
            return self._overlay.base.inverted.get(token)
        if token in self._cache:
            return self._cache[token]
        merged = self._merge(token)
        self._cache[token] = merged
        return merged

    def _merge(self, token: str) -> InvertedList | None:
        delta = self._overlay.delta
        base_list = self._overlay.base.inverted.get(token)
        postings: list[tuple[DeweyCode, int, int]] = []
        if base_list is not None:
            masks = delta.masks
            postings.extend(
                p for p in base_list if not masks(p[0])
            )
        added = delta.postings_add.get(token)
        if added:
            postings.extend(added)
            postings.sort(key=lambda p: p[0])
        if not postings:
            return None
        return InvertedList(token, postings)

    def list_for(self, token: str) -> InvertedList:
        found = self.get(token)
        if found is None:
            return InvertedList(token, [])
        return found

    def __contains__(self, token: str) -> bool:
        return self.get(token) is not None

    def tokens(self) -> Iterator[str]:
        delta = self._overlay.delta
        for token in self._overlay.base.inverted.tokens():
            if token in delta.touched:
                if self.get(token) is not None:
                    yield token
            else:
                yield token
        base = self._overlay.base.inverted
        for token in delta.postings_add:
            if token not in base and self.get(token) is not None:
                yield token

    def __len__(self) -> int:
        return sum(1 for _ in self.tokens())

    def total_postings(self) -> int:
        return sum(
            len(self.list_for(token)) for token in self.tokens()
        )


class OverlayPathIndex:
    """f_w^p counts: recomputed for touched tokens, else pass-through.

    Recomputation runs the same prefix-scan as the index builder over
    the overlay's merged (document-ordered) posting list, so counts
    are exact — not adjusted approximations.
    """

    def __init__(self, overlay: "DeltaOverlayCorpus"):
        self._overlay = overlay
        self._cache: dict[str, dict[int, int]] = {}
        self._version = overlay.delta.version

    def counts_for(self, token: str) -> dict[int, int]:
        overlay = self._overlay
        if token not in overlay.delta.touched:
            return overlay.base.path_index.counts_for(token)
        if overlay.delta.version != self._version:
            self._cache.clear()
            self._version = overlay.delta.version
        counts = self._cache.get(token)
        if counts is None:
            merged = overlay.inverted.get(token)
            counts = (
                path_counts_from_postings(
                    merged.postings, overlay.path_table
                )
                if merged is not None
                else {}
            )
            self._cache[token] = counts
        return counts

    def f(self, token: str, path_id: int) -> int:
        return self.counts_for(token).get(path_id, 0)

    def __contains__(self, token: str) -> bool:
        return bool(self.counts_for(token))

    def tokens(self) -> Iterator[str]:
        return self._overlay.inverted.tokens()


class _OverlayLengths:
    """Packed-key |D(r)| map: base map plus packed delta adjustments."""

    __slots__ = ("_base", "_delta")

    def __init__(self, base, delta: dict[int, int]):
        self._base = base
        self._delta = delta

    def get(self, key: int, default: int = 0) -> int:
        value = self._base.get(key, 0) + self._delta.get(key, 0)
        return value if value > 0 else default


class OverlayPackedView:
    """Packed-engine view over the overlay.

    When the base packer can encode every new Dewey code (the common
    case — updates rarely deepen or widen the tree), untouched tokens
    reuse the base packed columns zero-copy and only touched tokens are
    re-packed.  Otherwise the view falls back to a full re-pack with a
    wider packer: slower to warm, still exact.
    """

    def __init__(self, overlay: "DeltaOverlayCorpus"):
        self._overlay = overlay
        self.version = overlay.delta.version
        self._cache: dict[str, PackedInvertedList | None] = {}
        base_view = overlay.base.packed_view()
        delta = overlay.delta
        packer = base_view.packer
        self._repacked = False
        try:
            packed_delta = {
                packer.pack(code): adjust
                for code, adjust in delta.subtree_delta.items()
            }
        except DeweyError:
            packed_delta = None
        if packed_delta is not None:
            self.packer = packer
            self._base_view = base_view
            self.subtree_lengths = _OverlayLengths(
                base_view.subtree_lengths, packed_delta
            )
        else:
            # The delta outgrew the base packer (deeper tree or wider
            # fanout): re-pack everything against a packer sized to the
            # merged corpus.
            self._repacked = True
            self._base_view = None
            merged = overlay.subtree_token_counts
            self.packer = DeweyPacker.for_codes(merged)
            self.subtree_lengths = {
                self.packer.pack(code): length
                for code, length in merged.items()
            }

    def get(self, token: str) -> PackedInvertedList | None:
        if not self._repacked and (
            token not in self._overlay.delta.touched
        ):
            return self._base_view.get(token)
        if token in self._cache:
            return self._cache[token]
        merged = self._overlay.inverted.get(token)
        packed = (
            PackedInvertedList.from_inverted(merged, self.packer)
            if merged is not None
            else None
        )
        self._cache[token] = packed
        return packed


class OverlayVariantGenerator:
    """Incremental var_ε(q) over the overlay vocabulary.

    Rebuilding a deletion-neighborhood index over the merged
    vocabulary after every update batch is O(|vocabulary|) — seconds
    on a large corpus for a single-record delta.  Instead this wrapper
    probes the *base* generator (typically served zero-copy from the
    snapshot's embedded FastSS sections), drops hits whose token the
    delta removed from the vocabulary, and merges hits from a small
    FastSS index over only the tokens the delta *added* — O(|touched|)
    to construct.  The merged hit set is sorted ``(distance, token)``,
    so results are identical to a generator built from scratch over
    the merged vocabulary.
    """

    def __init__(
        self,
        overlay: "DeltaOverlayCorpus",
        base_generator: VariantGenerator,
        max_errors: int = 2,
        cache_size: int = DEFAULT_VARIANT_CACHE_SIZE,
    ):
        self.max_errors = max_errors
        self._base = base_generator
        self._vocabulary = overlay.vocabulary
        base_vocabulary = overlay.base.vocabulary
        added = sorted(
            token
            for token, adjust in overlay.delta.cf_delta.items()
            if adjust > 0
            and base_vocabulary.collection_frequency(token) == 0
        )
        self._added = (
            FastSSIndex(added, max_errors=max_errors) if added else None
        )
        self.cache_size = cache_size
        self._cache: OrderedDict[
            tuple[str, int], tuple[Variant, ...]
        ] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def variants(
        self, keyword: str, max_errors: int | None = None
    ) -> tuple[Variant, ...]:
        """var_ε(q) over the merged vocabulary (shared tuple)."""
        eps = self.max_errors if max_errors is None else max_errors
        key = (keyword, eps)
        cache = self._cache
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        vocabulary = self._vocabulary
        merged = [
            variant
            for variant in self._base.variants(keyword, eps)
            if variant.token in vocabulary
        ]
        if self._added is not None:
            merged.extend(self._added.variants(keyword, eps))
            merged.sort()
        cached = tuple(merged)
        cache[key] = cached
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
        return cached

    def variant_tokens(
        self, keyword: str, max_errors: int | None = None
    ) -> list[str]:
        """Just the token strings, sorted by (distance, token)."""
        return [v.token for v in self.variants(keyword, max_errors)]

    def distance_of(
        self, keyword: str, token: str, max_errors: int | None = None
    ) -> int | None:
        """Edit distance keyword→token if token ∈ var_ε(keyword)."""
        for variant in self.variants(keyword, max_errors):
            if variant.token == token:
                return variant.distance
        return None


class DeltaOverlayCorpus(QueryEngineMixin):
    """Base corpus + delta segment behind the standard query surface.

    Shares the base's (mutable, interning) path table so path ids are
    identical across base, overlay, and the eventual compacted
    snapshot of the same content.  Call :meth:`refresh` after folding
    records into the delta — it bumps the cache generation so every
    memoized merged list, packed column set, and intersection plan from
    the previous delta version becomes unreachable.
    """

    def __init__(self, base, delta: DeltaSegment | None = None):
        self.base = base
        self.delta = delta if delta is not None else DeltaSegment()
        self.name = base.name
        self.tokenizer = base.tokenizer
        self.path_table = base.path_table
        self.vocabulary = OverlayVocabulary(base.vocabulary, self.delta)
        self.inverted = OverlayInvertedIndex(self)
        self.path_index = OverlayPathIndex(self)
        self._init_query_caches()
        self._packed_overlay: OverlayPackedView | None = None
        self._node_counts: dict[int, int] | None = None
        self._totals: dict[int, float] | None = None
        self._subtree_counts: dict[DeweyCode, int] | None = None
        self._stats_version = self.delta.version

    # -- cache lifecycle ------------------------------------------------

    def refresh(self) -> None:
        """Invalidate every memo after the delta changed."""
        if self.delta.version != self._stats_version:
            self._stats_version = self.delta.version
            self._node_counts = None
            self._totals = None
            self._subtree_counts = None
            self.bump_generation()

    # -- corpus surface -------------------------------------------------

    @property
    def path_node_counts(self) -> dict[int, int]:
        self.refresh()
        found = self._node_counts
        if found is None:
            found = dict(self.base.path_node_counts)
            for pid, adjust in self.delta.path_node_delta.items():
                value = found.get(pid, 0) + adjust
                if value > 0:
                    found[pid] = value
                else:
                    found.pop(pid, None)
            self._node_counts = found
        return found

    @property
    def path_token_totals_map(self) -> dict[int, float]:
        self.refresh()
        found = self._totals
        if found is None:
            found = dict(self.base.path_token_totals())
            for pid, adjust in self.delta.path_total_delta.items():
                value = found.get(pid, 0.0) + adjust
                if value > 0:
                    found[pid] = value
                else:
                    found.pop(pid, None)
            self._totals = found
        return found

    @property
    def max_depth(self) -> int:
        return max(
            self.base.max_path_depth(), self.delta.max_new_depth
        )

    def subtree_length(self, dewey: DeweyCode) -> int:
        length = self.base.subtree_length(dewey) + (
            self.delta.subtree_delta.get(dewey, 0)
        )
        return length if length > 0 else 0

    @property
    def subtree_token_counts(self) -> dict[DeweyCode, int]:
        self.refresh()
        found = self._subtree_counts
        if found is None:
            found = dict(self.base.subtree_token_counts)
            for code, adjust in self.delta.subtree_delta.items():
                value = found.get(code, 0) + adjust
                if value > 0:
                    found[code] = value
                else:
                    found.pop(code, None)
            self._subtree_counts = found
        return found

    def packed_view(self) -> OverlayPackedView:
        self.refresh()
        view = self._packed_overlay
        if view is None or view.version != self.delta.version:
            view = OverlayPackedView(self)
            self._packed_overlay = view
        return view

    def entity_count(self, path_id: int) -> int:
        return self.path_node_counts.get(path_id, 0)

    def variant_generator(
        self,
        max_errors: int = 2,
        cache_size: int = DEFAULT_VARIANT_CACHE_SIZE,
    ):
        """Variant generator over the overlay vocabulary.

        With no touched tokens the base generator (possibly served from
        embedded FastSS sections) is returned; otherwise it is wrapped
        in an :class:`OverlayVariantGenerator` — O(|touched|) to build,
        never O(|vocabulary|) — so added tokens are suggestible
        immediately, fully deleted tokens never are, and installing a
        fresh suggester after an update batch stays cheap enough to run
        under the serving tier's compute lock.
        """
        delta = self.delta
        base = self.base
        if hasattr(base, "variant_generator"):
            base_generator = base.variant_generator(
                max_errors=max_errors, cache_size=cache_size
            )
            if not delta.touched:
                return base_generator
            return OverlayVariantGenerator(
                self,
                base_generator,
                max_errors=max_errors,
                cache_size=cache_size,
            )
        return VariantGenerator(
            self.vocabulary.tokens(),
            max_errors=max_errors,
            cache_size=cache_size,
        )

    def describe(self) -> dict:
        base_describe = getattr(self.base, "describe", None)
        return {
            "overlay": self.delta.describe(),
            "base": base_describe() if base_describe else {},
        }
