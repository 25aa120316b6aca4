"""String edit distance, plain and banded (threshold-aware).

The STR baseline ([13] in the paper) lower-bounds the tree edit distance by
the string edit distance between preorder/postorder label sequences.  A
similarity join only needs to know whether that distance exceeds ``tau``,
so :func:`string_edit_within` evaluates a diagonal band of width
``2*tau + 1`` in ``O(tau * n)`` time and abandons early — the optimization
that makes STR's candidate generation competitive.

Sequences are sequences of hashable symbols (labels, or the interned
label ids the verifier passes), not just characters.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

__all__ = ["string_edit_distance", "string_edit_within"]


def string_edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Classic Levenshtein distance with unit costs, ``O(len(a)*len(b))``.

    >>> string_edit_distance("kitten", "sitting")
    3
    """
    if len(a) < len(b):  # iterate over the longer one, keep the row short
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, sym_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, sym_b in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,  # delete sym_a
                current[j - 1] + 1,  # insert sym_b
                previous[j - 1] + (sym_a != sym_b),  # match / substitute
            )
        previous = current
    return previous[-1]


def string_edit_within(
    a: Sequence[Hashable],
    b: Sequence[Hashable],
    tau: int,
) -> Optional[int]:
    """Return the edit distance if it is ``<= tau``, else ``None``.

    Uses Ukkonen's banded dynamic program: cells farther than ``tau`` from
    the main diagonal can never contribute to a distance ``<= tau``, so only
    a band of ``2*tau + 1`` diagonals is filled, in ``O(len(a) * tau)``
    time, after a common prefix and suffix are cut off.  Rows are stored
    band-sized too, ``O(tau)`` memory: cell ``j`` of row ``i`` lives at
    ``j - i + tau + 1``, with a guard cell either side of the band that
    always holds the ``> tau`` sentinel.  If every cell of a row exceeds
    ``tau`` the computation stops early.

    >>> string_edit_within("kitten", "sitting", 3)
    3
    >>> string_edit_within("kitten", "sitting", 2) is None
    True
    """
    if tau < 0:
        return None
    la, lb = len(a), len(b)
    if abs(la - lb) > tau:
        return None
    # A common prefix or suffix never needs an edit, so it is cut off
    # first: near-duplicate traversals differ in a short middle stretch.
    start = 0
    shorter = la if la < lb else lb
    while start < shorter and a[start] == b[start]:
        start += 1
    end = 0
    shorter -= start
    while end < shorter and a[la - 1 - end] == b[lb - 1 - end]:
        end += 1
    if start or end:
        a = a[start:la - end]
        b = b[start:lb - end]
        la, lb = len(a), len(b)
    if la == 0:
        return lb if lb <= tau else None
    if lb == 0:
        return la if la <= tau else None

    # No distance exceeds max(la, lb), so a larger tau changes no answer.
    tau = min(tau, max(la, lb))
    big = tau + 1  # sentinel: stands for every value > tau
    width = 2 * tau + 3
    # Row 0: j insertions, at cell j + tau + 1.
    previous = [big] * width
    for j in range(min(tau, lb) + 1):
        previous[j + big] = j
    for i in range(1, la + 1):
        sym_a = a[i - 1]
        current = [big] * width
        shift = big - i  # cell of column j is j + shift
        if i <= tau:
            current[shift] = i  # column 0 inside the band
            row_min = i
        else:
            row_min = big
        hi = i + tau if i + tau < lb else lb
        for j in range(i - tau if i > tau else 1, hi + 1):
            c = j + shift
            # previous[c]: (i-1, j-1); previous[c+1]: (i-1, j);
            # current[c-1]: (i, j-1).
            best = previous[c] + (sym_a != b[j - 1])
            alt = previous[c + 1] + 1
            if alt < best:
                best = alt
            alt = current[c - 1] + 1
            if alt < best:
                best = alt
            current[c] = best
            if best < row_min:
                row_min = best
        if row_min > tau:
            return None
        previous = current
    result = previous[lb - la + big]
    return result if result <= tau else None
