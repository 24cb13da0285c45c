"""The MergedList abstraction (Section V-C).

Given the list of variants for one query keyword, a MergedList
organizes their inverted lists as one document-ordered list.  Packed
Dewey keys sort globally, so the member lists are merged *physically*,
once per variant set, into parallel columns
(:class:`PackedMergedColumns`); :class:`PackedMergedList` is a cursor
over them:

* ``cur_pos()`` — the head (smallest Dewey key) without consuming it;
* ``next()`` — pop the head;
* ``skip_to(key)`` — discard every posting smaller than ``key``
  (galloping search) and return the new head.

Each yielded entry carries the originating token, because Algorithm 1
needs to know *which variant* occurred at a position.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.index.inverted import PackedInvertedList
from repro.index.merge_kernel import gallop_left

#: An entry of the packed merged list: (packed_key, path_id, tf, token).
PackedEntry = tuple[int, int, int, str]


def _next_columns_uid(_counter=iter(range(1, 1 << 62)).__next__) -> int:
    """Process-wide unique id for PackedMergedColumns instances.

    Monotonic and never reused (unlike ``id()``), so a cache keyed on
    uids can never alias a dead columns object with a new one."""
    return _counter()


class PackedMergedColumns:
    """The variant lists of one keyword, physically merged (immutable).

    Packed Dewey keys sort globally, so the member lists can be merged
    once into four parallel columns sorted by key.  Two consequences
    make the query-time cursor trivial:

    * ``skip_to`` is a single C-level bisect over the key column — no
      per-member galloping, no heap rebuild;
    * every subtree is a *contiguous* key range (descendants of a node
      share its packed prefix and nothing else sorts between them), so
      ``pop_subtree`` pops one slice found by a second bisect.

    The merge is paid once per variant set and memoized on the corpus;
    :class:`PackedMergedList` cursors share the columns.
    """

    __slots__ = ("keys", "path_ids", "tfs", "token_ids", "tokens",
                 "length", "uid")

    def __init__(self, lists: Iterable[PackedInvertedList]):
        members = list(lists)
        self.tokens = [lst.token for lst in members]
        #: Never-reused identity for plan-cache keys: the corpus memoizes
        #: columns per variant set, so while an instance stays cached its
        #: uid names that variant set in O(1) — no token-tuple hashing on
        #: the query path.  A rebuilt instance gets a fresh uid and the
        #: old plans simply age out of the LRU.
        self.uid = _next_columns_uid()
        rows = [
            (lst.keys[i], member, lst.path_ids[i], lst.tfs[i])
            for member, lst in enumerate(members)
            for i in range(len(lst.keys))
        ]
        # Keys ascending, ties broken by member index — exactly the
        # order a (key, member) min-heap merge would yield.
        rows.sort()
        # Snapshot-backed lists carry memoryview columns; they hold
        # int64 keys just like array('q'), so the merged keys stay a
        # machine-int column (only >63-bit packers fall through).
        if all(
            isinstance(lst.keys, (array, memoryview)) for lst in members
        ):
            self.keys: list[int] | array = array(
                "q", (row[0] for row in rows)
            )
        else:
            self.keys = [row[0] for row in rows]
        self.token_ids = array("i", (row[1] for row in rows))
        self.path_ids = array("i", (row[2] for row in rows))
        self.tfs = array("i", (row[3] for row in rows))
        self.length = len(rows)

    def slice_by_token(
        self, start: int, end: int
    ) -> dict[str, list[PackedEntry]]:
        """Materialize ``[start, end)`` grouped by originating token.

        The group-collection step of Algorithm 1 (Lines 9-11) in one
        call: entries come out in column (document) order within each
        token list, which is what keeps candidate enumeration — and
        hence score accumulation — deterministic across live merges
        and plan replays.
        """
        keys = self.keys
        path_ids = self.path_ids
        tfs = self.tfs
        token_ids = self.token_ids
        tokens = self.tokens
        by_token: dict[str, list[PackedEntry]] = {}
        for j in range(start, end):
            token = tokens[token_ids[j]]
            entry = (keys[j], path_ids[j], tfs[j], token)
            found = by_token.get(token)
            if found is None:
                by_token[token] = [entry]
            else:
                found.append(entry)
        return by_token


class PackedMergedList:
    """Cursor over the physically merged variant lists of one keyword.

    The merge already happened at construction
    (:class:`PackedMergedColumns`), so every operation is a position
    bump or a gallop over an int column.  Entries are
    ``(packed_key, path_id, tf, token)``.  Algorithm 1's merge loop
    reads ``columns`` and ``position`` directly and writes its
    read/skip counts back on exit.
    """

    __slots__ = ("columns", "position", "reads", "skips")

    def __init__(
        self,
        lists: Iterable[PackedInvertedList] | None = None,
        *,
        columns: PackedMergedColumns | None = None,
    ):
        if columns is None:
            columns = PackedMergedColumns(
                [] if lists is None else lists
            )
        self.columns = columns
        self.position = 0
        self.reads = 0
        self.skips = 0

    def __bool__(self) -> bool:
        return self.position < self.columns.length

    def head_key(self) -> int | None:
        """Packed key of the head; O(1), no entry materialized."""
        columns = self.columns
        position = self.position
        if position >= columns.length:
            return None
        return columns.keys[position]

    def cur_pos(self) -> PackedEntry | None:
        """The head entry without consuming it."""
        columns = self.columns
        position = self.position
        if position >= columns.length:
            return None
        return (
            columns.keys[position],
            columns.path_ids[position],
            columns.tfs[position],
            columns.tokens[columns.token_ids[position]],
        )

    def next(self) -> PackedEntry | None:
        """Pop and return the head; ``None`` when exhausted."""
        entry = self.cur_pos()
        if entry is not None:
            self.position += 1
            self.reads += 1
        return entry

    def pop_subtree(self, group: int, shift: int) -> list[PackedEntry]:
        """Pop every entry under ``group`` (Lines 9–11 of Algorithm 1).

        ``shift`` is ``packer.shift_for(depth(group))``: a key belongs
        to the group iff ``key >> shift == group >> shift``.  The head
        must itself be in the group (callers ``skip_to(group)`` first);
        the group then ends at the first key reaching the next prefix,
        found by one bisect.
        """
        columns = self.columns
        keys = columns.keys
        position = self.position
        prefix = group >> shift
        if position >= columns.length or (
            keys[position] >> shift
        ) != prefix:
            return []
        end = gallop_left(
            keys, (prefix + 1) << shift, position, columns.length
        )
        path_ids = columns.path_ids
        tfs = columns.tfs
        token_ids = columns.token_ids
        tokens = columns.tokens
        out = [
            (keys[i], path_ids[i], tfs[i], tokens[token_ids[i]])
            for i in range(position, end)
        ]
        self.reads += end - position
        self.position = end
        return out

    def skip_to(self, key: int) -> PackedEntry | None:
        """Discard all entries with key < ``key``; return the new head.

        Galloping (exponential probe + bisect) from the cursor: skips
        in Algorithm 1 are local, so the probe window is usually a few
        entries wide regardless of how much list remains.
        """
        columns = self.columns
        new_position = gallop_left(
            columns.keys, key, self.position, columns.length
        )
        self.skips += new_position - self.position
        self.position = new_position
        return self.cur_pos()

    @property
    def total_reads(self) -> int:
        """Postings consumed via ``next``/``pop_subtree``."""
        return self.reads

    @property
    def total_skips(self) -> int:
        """Postings jumped over via ``skip_to``."""
        return self.skips

    def drain(self) -> list[PackedEntry]:
        """Consume the remainder of the merged list (testing aid)."""
        out = []
        while True:
            entry = self.next()
            if entry is None:
                return out
            out.append(entry)
