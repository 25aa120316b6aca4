"""Threshold-aware (tau-banded) Zhang–Shasha with early exit.

The joins never need an *unbounded* tree edit distance: verification only
asks "is ``TED(T1, T2) <= tau``, and if so what is it?".
:func:`zhang_shasha_bounded` answers exactly that question in
``O(n1 * tau)`` memory rather than ``O(n1 * n2)``, running at most
``2*tau + 1`` banded forest DPs per keyroot of T1 instead of one per
keyroot pair:

- **Keyroot window.** A mapping is postorder-monotone, so if it costs
  ``c`` and pairs node ``u`` of T1 with node ``v`` of T2, the nodes before
  ``l(u)`` in T1's postorder (the subtrees left of ``u``) and those before
  ``l(v)`` in T2's are matched among themselves up to ``c`` insertions and
  deletions: ``|l(u) - l(v)| <= c``.  The same holds inside every forest
  sub-problem whose result can reach a distance ``<= tau``.  The keyroot
  DP ``(i, j)`` only computes distances between nodes on the leftmost
  paths of ``i`` and ``j``, whose leftmost leaves are ``l(i)`` and
  ``l(j)``; when ``|l(i) - l(j)| > tau`` every tree distance it would
  record is ``> tau`` and it is skipped (Touzet, "A linear tree edit
  distance algorithm for similar ordered trees", CPM 2005).  Every leaf
  is the leftmost leaf of exactly one keyroot, so the window of keyroot
  ``i`` is ``O(tau)`` lookups in a leaf-to-keyroot table built once per
  call.  *Ordering constraint:* DP ``(i, j)`` reads tree distances that
  DP ``(i, j')`` recorded for ``j' < j`` (nodes left of T2's leftmost
  path paired with nodes on T1's), so the window is visited in ascending
  postorder of ``j``, never in leftmost-leaf order.
- **Band.** In every keyroot forest DP, cell ``fd[x][y]`` is the distance
  between a postorder *prefix* of ``x`` nodes and one of ``y`` nodes.  Unit
  insertions/deletions change a forest's size by one, so
  ``fd[x][y] >= |x - y|`` and any cell with ``|x - y| > tau`` is provably
  ``> tau``; only the ``2*tau + 1`` diagonals around the main one are
  filled (``O(min(m, n) * tau)`` cells per keyroot pair instead of
  ``O(m * n)``).
- **Band storage.** Neither table is stored in full.  ``fd`` rows hold
  ``2*tau + 3`` cells indexed by ``y - x`` (the band plus one guard cell
  on each side), one buffer reused across keyroot pairs.  ``treedist``
  rows hold ``4*tau + 1`` cells indexed by ``node2 - node1``: a recorded
  distance pairs ``node1 = l(i) + x - 1`` with ``node2 = l(j) + y - 1``,
  so ``|node1 - node2| <= |l(i) - l(j)| + |x - y| <= 2*tau``.  Cells never
  written hold the sentinel.  Both tables take ``O(n1 * tau)`` memory.
- **Saturation.** Values that exceed ``tau`` are capped at the sentinel
  ``tau + 1``.  Capping is sound because the DP is monotone: a capped input
  can only flow into cells whose true value is also ``> tau``.
- **Early exit.** A tree mapping is postorder-monotone, so an edit script
  of cost ``c`` between two forests splits at every prefix ``x`` into a
  prefix-vs-prefix script plus a remainder, each of cost ``<= c``.  Hence
  if *every* cell of a row exceeds ``tau``, every later cell of that
  keyroot DP — including all tree-distance cells it would record — is
  ``> tau``, and the keyroot pair is abandoned on the spot.  Unwritten
  ``treedist`` entries hold the sentinel, which keeps later keyroot DPs
  sound.  Stale ``fd`` cells of an earlier keyroot pair are never read:
  band-edge cells are re-initialised each row, and the jump read
  ``fd[l(i)-li][l(j)-lj]`` is guarded by the same ``|x - y| <= tau`` test
  that defines the band.

The result is exact whenever the true distance is ``<= tau`` (property
tested against :func:`repro.ted.simple.ted_reference` and
:func:`repro.ted.zhang_shasha.zhang_shasha` in ``tests/ted/test_cutoff.py``);
otherwise ``None`` is returned.  The band and window arguments assume
unit insert/delete costs (the paper's model); a custom ``rename_cost``
with non-negative values is supported.

>>> from repro.tree.node import Tree
>>> a, b = Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{b}}")
>>> zhang_shasha_bounded(a, b, 1)
1
>>> zhang_shasha_bounded(a, Tree.from_bracket("{x{y}{z}{w}}"), 2) is None
True
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.tree.node import Tree
from repro.ted.zhang_shasha import AnnotatedTree

__all__ = ["zhang_shasha_bounded", "keyroot_windows"]

RenameCost = Callable[[str, str], int]


def keyroot_windows(
    a1: AnnotatedTree, a2: AnnotatedTree, tau: int
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(i, js)``: each keyroot ``i`` of T1 in ascending postorder
    with the keyroots ``j`` of T2 whose leftmost leaf lies within ``tau``
    of ``l(i)``, also in ascending postorder (see the module docstring
    for why that order is required).  Keyroots with an empty window are
    skipped.

    >>> from repro.tree.node import Tree
    >>> a = AnnotatedTree(Tree.from_bracket("{a{b}{c}{d}}"))
    >>> list(keyroot_windows(a, a, 1))  # the root (4) has leftmost leaf 1
    [(2, [2, 3, 4]), (3, [2, 3]), (4, [2, 4])]
    """
    l1, l2 = a1.lmld, a2.lmld
    keyroot_at = [0] * (a2.size + 1)
    for j in a2.keyroots:
        keyroot_at[l2[j]] = j
    for i in a1.keyroots:
        li = l1[i]
        window = [j for j in keyroot_at[max(li - tau, 0):li + tau + 1] if j]
        if window:
            window.sort()
            yield i, window


def zhang_shasha_bounded(
    t1: Tree | AnnotatedTree,
    t2: Tree | AnnotatedTree,
    tau: int,
    rename_cost: Optional[RenameCost] = None,
) -> Optional[int]:
    """Exact TED if it is ``<= tau``, else ``None`` (the ``> tau`` sentinel).

    Accepts plain trees or pre-computed :class:`AnnotatedTree` wrappers like
    :func:`repro.ted.zhang_shasha.zhang_shasha`; the verifier passes the
    annotations its per-tree records keep, whose labels are interned ids.
    With the default unit costs labels are compared inline; a custom
    ``rename_cost`` is called once per rename cell.

    >>> zhang_shasha_bounded(Tree.from_bracket("{a}"), Tree.from_bracket("{a}"), 0)
    0
    """
    if tau < 0:
        return None
    a1 = t1 if isinstance(t1, AnnotatedTree) else AnnotatedTree(t1)
    a2 = t2 if isinstance(t2, AnnotatedTree) else AnnotatedTree(t2)
    n1, n2 = a1.size, a2.size
    if abs(n1 - n2) > tau:
        return None
    # No distance exceeds n1 + n2, so a larger tau changes no answer; the
    # clamp keeps band storage within O(n1 * (n1 + n2)) for any tau.
    tau = min(tau, n1 + n2)
    big = tau + 1  # sentinel: stands for every value > tau
    band = 2 * tau + 1  # in-band fd columns c = y - x + tau + 1 in 1..band
    l1, l2 = a1.lmld, a2.lmld
    lab1, lab2 = a1.labels, a2.labels
    # treedist[node1][node2 - node1 + 2*tau]; cells the DP never writes are
    # provably > tau (outside every window or band, or their keyroot DP
    # was abandoned with the whole remaining row range > tau).
    treedist = [[big] * (2 * band - 1) for _ in range(n1 + 1)]
    # fd[x][y - x + tau + 1], reused for every keyroot pair; columns 0 and
    # band + 1 are the guard cells either side of the band.
    fd = [[big] * (band + 2) for _ in range(n1 + 1)]

    for i, window in keyroot_windows(a1, a2, tau):
        li = l1[i]
        m = i - li + 2  # forest rows: prefixes of nodes li..i, plus empty
        for j in window:
            lj = l2[j]
            n = j - lj + 2
            # Row 0 (empty left forest): insertions only, banded + guard.
            fd0 = fd[0]
            fd0[big] = 0
            hi0 = tau if tau < n - 1 else n - 1
            for y in range(1, hi0 + 1):
                fd0[big + y] = y
            if hi0 + 1 <= n - 1:
                fd0[big + hi0 + 1] = big  # guard for row 1's `above` reads
            td_shift = lj - li + tau - 1  # treedist column of fd column c
            for x in range(1, m):
                lo = x - tau if x - tau > 1 else 1
                hi = x + tau if x + tau < n - 1 else n - 1
                if lo > hi:
                    # The whole row lies outside the band: every remaining
                    # cell of this keyroot pair is > tau.
                    break
                shift = x - big  # y = c + shift
                row = fd[x]
                above = fd[x - 1]  # above[c + 1] is the cell above row[c]
                node1 = li + x - 1
                l1x = l1[node1]
                label1 = lab1[node1]
                tdrow = treedist[node1]
                whole1 = l1x == li
                jump_row = l1x - li
                fdjump = fd[jump_row]
                jump_shift = lj + jump_row - big  # jump column c = l2y - it
                node_shift = lj - 1 + shift  # node2 = c + node_shift
                c_lo = lo - shift
                if lo == 1:
                    # Column 0 (empty right forest) is a real cell while
                    # x <= tau, the left band guard afterwards.
                    row[c_lo - 1] = x if x <= tau else big
                else:
                    row[0] = big
                row_min = row[c_lo - 1]
                for c in range(c_lo, hi - shift + 1):
                    node2 = c + node_shift
                    l2y = l2[node2]
                    best = above[c + 1] + 1  # delete node1
                    alt = row[c - 1] + 1  # insert node2
                    if alt < best:
                        best = alt
                    if whole1 and l2y == lj:
                        # Both prefixes are whole subtrees: rename case,
                        # and the cell is a tree distance to record.
                        if rename_cost is None:
                            alt = above[c] + (label1 != lab2[node2])
                        else:
                            alt = above[c] + rename_cost(label1, lab2[node2])
                        if alt < best:
                            best = alt
                        if best > tau:
                            best = big
                        row[c] = best
                        tdrow[c + td_shift] = best
                    else:
                        jump_c = l2y - jump_shift
                        if 0 < jump_c <= band:
                            # In-band jump cell: written this keyroot pair.
                            alt = fdjump[jump_c] + tdrow[c + td_shift]
                            if alt < best:
                                best = alt
                        # else: the jump cell is > tau (forest sizes differ
                        # by more than tau), so its branch cannot win.
                        if best > tau:
                            best = big
                        row[c] = best
                    if best < row_min:
                        row_min = best
                if hi + 1 <= n - 1:
                    row[hi + 1 - shift] = big  # guard for the next row
                if row_min > tau:
                    # Early exit: no cell of this row can recover, so no
                    # later cell of this keyroot pair can either.
                    break
    result = treedist[n1][n2 - n1 + 2 * tau]
    return result if result <= tau else None
