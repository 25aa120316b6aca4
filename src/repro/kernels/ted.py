"""Numpy tau-banded Zhang–Shasha: each band row as vector mins.

The reference DP (:func:`repro.ted.cutoff.zhang_shasha_bounded`) visits
the ``2*tau + 1`` in-band cells of each forest row one at a time.  This
kernel evaluates a whole row at once:

- **delete / rename / jump** read only the previous row, earlier rows
  (``fd[jump_row]``) and tree distances recorded by *earlier keyroot
  pairs*, so they are three gathers/shifted slices;
- **insert** (``row[y-1] + 1``) is the one within-row dependency; with
  ``g(y) = row[y] - y`` it is ``g(y) = min(c(y) - y, g(y - 1))`` — a
  prefix minimum (``np.minimum.accumulate``) seeded with the band's
  boundary cell;
- saturation at ``tau + 1`` commutes with the row evaluation (a cell
  ``<= tau`` never depends on a capped input — the same monotonicity
  argument that makes saturation sound in the reference), so one final
  ``np.minimum(row, big)`` reproduces the reference's per-cell capping
  bit for bit;
- the row minimum (boundary included) drives the identical per-keyroot-
  pair early exit, and rename-case cells record into ``treedist`` via
  one masked scatter.  Rename cells (``l2(node2) == lj``) and jump cells
  are disjoint in ``node2``, so jump gathers never see a same-row write;
- keyroot pairs come from the reference's
  :func:`~repro.ted.cutoff.keyroot_windows` (leftmost leaves within
  ``tau``, each window in ascending postorder), so both paths skip the
  same provably useless pairs.  The tables here stay full
  ``(n1+1) x (n2+1)`` arrays.

Row vectorization would only pay once the band is wide — and measured
(``benchmarks/bench_kernels.py``, recorded in ``BENCH_PR9.json``), the
per-row ndarray dispatch still exceeds the scalar loop's cost at every
band up to 289, so :data:`NUMPY_TED_MIN_BAND` sits above every
benchmarked band and :class:`BandedTed` dispatches realistic calls —
and any custom ``rename_cost`` — to the reference implementation.
Either path returns the same exact distances (property-tested with the
crossover pinned to 0).
"""

from __future__ import annotations

from typing import Optional

from repro.kernels import get_numpy
from repro.ted.cutoff import keyroot_windows, zhang_shasha_bounded
from repro.ted.zhang_shasha import AnnotatedTree
from repro.tree.node import Tree

__all__ = ["BandedTed", "NUMPY_TED_MIN_BAND"]

# Band width (2*tau + 1) below which the scalar DP wins.  Tests pin it to
# 0 to force the vector path at every tau; results are identical at any
# value — this is purely a speed crossover.  Measured (BENCH_PR9.json):
# the row-sliced formulation never beats the scalar loop on CPython at
# any band up to 289 (0.05-0.15x — per-row ufunc dispatch and fancy-index
# copies dominate the 2*tau+1-cell rows), so the crossover sits above
# every benchmarked band and the vector path is effectively reserved for
# property testing until a batched numba/C kernel replaces the per-row
# dispatch (see ROADMAP).
NUMPY_TED_MIN_BAND = 512


def _min_band() -> int:
    # Read at call time so tests (and tuning callers) can patch the
    # module constant without re-instantiating verifiers.
    return NUMPY_TED_MIN_BAND


class BandedTed:
    """Callable drop-in for :func:`zhang_shasha_bounded`, numpy-backed.

    One instance per verifier: it interns labels to int codes and caches
    per-annotation ``(lmld, label-code)`` arrays keyed by annotation
    identity (the annotation object is retained in the cache entry, so an
    id is never reused while cached).  The verifier already caches
    annotations per tree, so each tree converts once.
    """

    __slots__ = ("np", "_codes", "_views")

    def __init__(self, np_module=None):
        self.np = np_module if np_module is not None else get_numpy()
        self._codes: dict[str, int] = {}
        self._views: dict[int, tuple] = {}

    def _view(self, annotation: AnnotatedTree):
        """``(lmld array, label-code array)`` for one annotation, cached."""
        key = id(annotation)
        cached = self._views.get(key)
        if cached is not None:
            return cached[1], cached[2]
        np = self.np
        codes = self._codes
        setdefault = codes.setdefault
        lab = np.fromiter(
            (setdefault(s, len(codes)) for s in annotation.labels),
            dtype=np.int64,
            count=annotation.size + 1,
        )
        lmld = np.asarray(annotation.lmld, dtype=np.int64)
        self._views[key] = (annotation, lmld, lab)
        return lmld, lab

    def __call__(
        self,
        t1: Tree | AnnotatedTree,
        t2: Tree | AnnotatedTree,
        tau: int,
        rename_cost=None,
    ) -> Optional[int]:
        if rename_cost is not None or 2 * tau + 1 < _min_band():
            # Custom costs keep the reference semantics verbatim; narrow
            # bands are faster scalar (see module docstring).
            return zhang_shasha_bounded(t1, t2, tau, rename_cost)
        if tau < 0:
            return None
        a1 = t1 if isinstance(t1, AnnotatedTree) else AnnotatedTree(t1)
        a2 = t2 if isinstance(t2, AnnotatedTree) else AnnotatedTree(t2)
        if abs(a1.size - a2.size) > tau:
            return None
        return self._banded(a1, a2, tau)

    def _banded(self, a1: AnnotatedTree, a2: AnnotatedTree, tau: int):
        np = self.np
        n1, n2 = a1.size, a2.size
        big = tau + 1
        l1, l2 = a1.lmld, a2.lmld  # python lists for the scalar reads
        l2_arr, lab2 = self._view(a2)
        lab1 = self._view(a1)[1]
        treedist = np.full((n1 + 1, n2 + 1), big, dtype=np.int64)
        fd = np.full((n1 + 1, n2 + 1), big, dtype=np.int64)
        ys_all = np.arange(n2 + 1, dtype=np.int64)

        for i, window in keyroot_windows(a1, a2, tau):
            li = l1[i]
            m = i - li + 2
            for j in window:
                lj = l2[j]
                n = j - lj + 2
                # Row 0: insertions only, banded, with the band-edge guard.
                fd[0, 0] = 0
                hi0 = tau if tau < n - 1 else n - 1
                if hi0 >= 1:
                    fd[0, 1 : hi0 + 1] = ys_all[1 : hi0 + 1]
                if hi0 + 1 <= n - 1:
                    fd[0, hi0 + 1] = big
                # Per-column data for y = 1..n-1 (index y-1): node2, its
                # jump column, whether the column is a whole subtree.
                node2s_full = np.arange(lj, j + 1, dtype=np.int64)
                jump_cols_full = l2_arr[node2s_full] - lj
                whole2_full = jump_cols_full == 0
                for x in range(1, m):
                    lo = x - tau if x - tau > 1 else 1
                    hi = x + tau if x + tau < n - 1 else n - 1
                    if lo > hi:
                        break
                    row = fd[x]
                    above = fd[x - 1]
                    node1 = li + x - 1
                    l1x = l1[node1]
                    whole1 = l1x == li
                    jump_row = l1x - li
                    if lo == 1:
                        boundary = x if x <= tau else big
                        row[0] = boundary
                    else:
                        boundary = big
                        row[lo - 1] = big
                    span = slice(lo - 1, hi)  # y-1 for y in [lo, hi]
                    node2s = node2s_full[span]
                    # Non-insert candidates, all from finalized state.
                    best = above[lo : hi + 1] + 1  # delete node1
                    if whole1:
                        rename = above[lo - 1 : hi] + (
                            lab2[node2s] != lab1[node1]
                        )
                        wmask = whole2_full[span]
                        np.minimum(
                            best, np.where(wmask, rename, big), out=best
                        )
                    else:
                        wmask = None
                    jump_cols = jump_cols_full[span]
                    in_band = np.abs(jump_row - jump_cols) <= tau
                    if wmask is not None:
                        in_band &= ~wmask
                    jump = fd[jump_row][jump_cols] + treedist[node1][node2s]
                    np.minimum(best, np.where(in_band, jump, big), out=best)
                    # Insert chain: prefix min of best - y, seeded with
                    # the boundary cell, then re-add y and saturate.
                    shifted = best - ys_all[lo : hi + 1]
                    seed = boundary - (lo - 1)
                    if seed < shifted[0]:
                        shifted[0] = seed
                    values = (
                        np.minimum.accumulate(shifted) + ys_all[lo : hi + 1]
                    )
                    np.minimum(values, big, out=values)
                    row[lo : hi + 1] = values
                    if wmask is not None:
                        treedist[node1][node2s[wmask]] = values[wmask]
                    if hi + 1 <= n - 1:
                        row[hi + 1] = big
                    if boundary > tau and values.min() > tau:
                        break
        result = int(treedist[n1, n2])
        return result if result <= tau else None
