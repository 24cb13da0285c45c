"""Edit distance (Levenshtein) computations.

The paper's error model is built on the minimum number of insertions,
deletions and substitutions transforming one token into another
(Section III).  Two implementations are provided:

* :func:`edit_distance` — the classic O(|s|·|t|) two-row DP, kept as
  the reference;
* :func:`bounded_edit_distance` — Myers/Hyyrö bit-parallel
  Levenshtein: one column of the DP matrix is a pair of bit vectors
  (Python ints, so any length fits), advanced with a handful of bit
  operations per character of the other string, with an early exit
  once the distance provably exceeds the limit.  This is the verifier
  behind FastSS candidate filtering, where the limit is the small
  error threshold ε (1 or 2 in the paper's experiments).
  :func:`bounded_distances` is the batch form FastSS calls.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def edit_distance(s: str, t: str) -> int:
    """Exact Levenshtein distance between ``s`` and ``t``."""
    if s == t:
        return 0
    if not s:
        return len(t)
    if not t:
        return len(s)
    if len(s) < len(t):
        s, t = t, s
    previous = list(range(len(t) + 1))
    for i, cs in enumerate(s, start=1):
        current = [i]
        for j, ct in enumerate(t, start=1):
            cost = 0 if cs == ct else 1
            current.append(
                min(
                    previous[j] + 1,  # delete from s
                    current[j - 1] + 1,  # insert into s
                    previous[j - 1] + cost,  # substitute / match
                )
            )
        previous = current
    return previous[-1]


def _pattern_masks(pattern: str) -> dict[str, int]:
    """Per character, the bit set of its positions in ``pattern``."""
    masks: dict[str, int] = {}
    bit = 1
    for char in pattern:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    return masks


def _myers(
    masks: dict[str, int], length: int, text: str, limit: int
) -> int | None:
    """ed(pattern, text) if <= ``limit``, else ``None`` (Hyyrö 2001).

    ``masks`` and ``length`` describe a non-empty pattern.  ``vp``/
    ``vn`` hold the +1/−1 vertical deltas of the current DP column;
    ``score`` tracks its last cell, ed(pattern, text[:j]).  A row's
    cells differ by at most 1 per column, so the final distance is at
    least ``score`` minus the characters still to read: once that
    exceeds ``limit`` the answer is ``None``.  Every vector is kept to
    ``length`` bits, so ``full ^ x`` is the complement of ``x``.
    """
    full = (1 << length) - 1
    top = 1 << (length - 1)
    vp = full
    vn = 0
    score = length
    remaining = len(text)
    for char in text:
        remaining -= 1
        eq = masks.get(char, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & full
        hp = vn | (full ^ (d0 | vp))
        hn = vp & d0
        if hp & top:
            score += 1
        elif hn & top:
            score -= 1
        if score - remaining > limit:
            return None
        hp = ((hp << 1) | 1) & full
        hn = (hn << 1) & full
        vp = hn | (full ^ (d0 | hp))
        vn = hp & d0
    return score


def bounded_edit_distance(s: str, t: str, limit: int) -> int | None:
    """Levenshtein distance if it is <= ``limit``, else ``None``."""
    for _text, distance in bounded_distances(s, (t,), limit):
        return distance
    return None


def bounded_distances(
    pattern: str, texts: Iterable[str], limit: int
) -> Iterator[tuple[str, int]]:
    """``(text, distance)`` for each text within ``limit`` of ``pattern``.

    The pattern's bit masks are built once for the whole batch — the
    FastSS verifier checks every candidate against one query keyword.
    """
    if limit < 0:
        return
    length = len(pattern)
    masks = _pattern_masks(pattern)
    for text in texts:
        if abs(length - len(text)) > limit:
            continue
        if text == pattern:
            yield text, 0
        elif limit == 0:
            continue
        elif length == 0:
            # The length check above bounds len(text) by the limit.
            yield text, len(text)
        else:
            distance = _myers(masks, length, text, limit)
            if distance is not None:
                yield text, distance


def within_distance(s: str, t: str, limit: int) -> bool:
    """True iff ``ed(s, t) <= limit``."""
    return bounded_edit_distance(s, t, limit) is not None
