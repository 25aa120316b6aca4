"""Tests for the tau-banded Zhang–Shasha (repro.ted.cutoff).

The central property: for every tree pair and every tau, the banded DP
returns exactly the tree edit distance when it is ``<= tau`` and the
``None`` sentinel otherwise.  Both directions matter — a band, keyroot
window or early-exit bug shows up as a too-large value or a spurious
sentinel.  The oracle is the textbook recursion
(:func:`repro.ted.simple.ted_reference`) on small trees and unbounded
Zhang–Shasha on larger ones.
"""

import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ted.cutoff import keyroot_windows, zhang_shasha_bounded
from repro.ted.simple import ted_reference
from repro.ted.zhang_shasha import AnnotatedTree, zhang_shasha
from repro.tree.node import Tree, TreeNode
from tests.conftest import make_cluster_forest, make_random_tree, trees


def within(distance, tau):
    return distance if distance <= tau else None


def expected(t1, t2, tau, rename_cost=None):
    return within(zhang_shasha(t1, t2, rename_cost), tau)


class TestAgainstReference:
    @given(
        t1=trees(max_size=9),
        t2=trees(max_size=9),
        tau=st.integers(min_value=0, max_value=5),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_agrees_with_ted_reference(self, t1, t2, tau):
        assert zhang_shasha_bounded(t1, t2, tau) == within(
            ted_reference(t1, t2), tau
        )


def wide(leaves, front=0):
    """A root over ``leaves`` distinct leaves, ``front`` extra ones first."""
    extra = "".join(f"{{z{k}}}" for k in range(front))
    return Tree.from_bracket(
        "{r" + extra + "".join(f"{{c{k}}}" for k in range(leaves)) + "}"
    )


def left_comb(depth, front=0):
    """Internal nodes along the leftmost path, one leaf right of each;
    ``front`` extra leaves become the first children of the deepest one."""
    text = "{d" + "".join(f"{{z{k}}}" for k in range(front)) + "{c}}"
    for k in range(depth):
        text = f"{{n{k}{text}{{c{k}}}}}"
    return Tree.from_bracket(text)


def right_comb(depth, front=0):
    """Internal nodes along the rightmost path, one leaf left of each;
    ``front`` extra leaves become the first children of the root."""
    text = "{d{c}}"
    for k in range(depth - 1):
        text = f"{{n{k}{{c{k}}}{text}}}"
    extra = "".join(f"{{z{k}}}" for k in range(front))
    return Tree.from_bracket(f"{{r{extra}{{c}}{text}}}")


class TestKeyrootWindow:
    """Near-duplicates whose leftmost-leaf offsets sit at exactly ``tau``
    (the last offset the window keeps) and ``tau + 1`` (the first it
    drops).  Inserting ``d`` leaves in front shifts every later leftmost
    leaf by ``d``; the distance is ``d``.  The DP that pairs a node on
    T1's leftmost path with its shifted copy in T2 reads a tree distance
    that an earlier keyroot of the same window recorded, so these pairs
    also fail when a window is visited in leftmost-leaf order instead of
    postorder."""

    SHAPES = [wide, left_comb, right_comb]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_front_insert_and_delete(self, shape, tau, extra):
        shift = tau + extra
        base, shifted = shape(4), shape(4, front=shift)
        assert ted_reference(base, shifted) == shift
        want = within(shift, tau)
        assert zhang_shasha_bounded(base, shifted, tau) == want  # insert
        assert zhang_shasha_bounded(shifted, base, tau) == want  # delete

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_front_shift_plus_rename(self, shape, tau):
        # A shift of tau - 1 plus one relabelled leaf costs exactly tau.
        base = shape(4, front=1)
        text = shape(4, front=tau).to_bracket().replace("{c1}", "{q}", 1)
        other = Tree.from_bracket(text)
        distance = ted_reference(base, other)
        assert distance == tau
        assert zhang_shasha_bounded(base, other, tau) == tau
        assert zhang_shasha_bounded(other, base, tau) == tau
        assert zhang_shasha_bounded(base, other, tau - 1) is None

    def test_windows_are_postorder_and_within_tau(self, rng):
        for _ in range(50):
            a1 = AnnotatedTree(make_random_tree(rng, rng.randint(1, 30)))
            a2 = AnnotatedTree(make_random_tree(rng, rng.randint(1, 30)))
            for tau in (0, 1, 3):
                got = dict(keyroot_windows(a1, a2, tau))
                for i in a1.keyroots:
                    want = [
                        j for j in a2.keyroots
                        if abs(a1.lmld[i] - a2.lmld[j]) <= tau
                    ]
                    assert got.get(i, []) == want


def chain(size, last):
    root = node = TreeNode("a")
    for depth in range(1, size):
        node = node.add_child(TreeNode(last if depth == size - 1 else "a"))
    return Tree(root)


def star(leaves, last):
    root = TreeNode("r")
    for k in range(leaves):
        root.add_child(TreeNode(last if k == leaves - 1 else "x"))
    return Tree(root)


class TestResourceBounds:
    """Time and memory per call grow with ``n * tau``, not ``n1 * n2``:
    full ``(n1+1) x (n2+1)`` tables would need ~1.6 GB for the chain
    pair, and visiting every keyroot pair of the stars would mean 10^8
    forest DPs."""

    PEAK_BYTES = 32 * 2**20
    WALL_SECONDS = 2.0

    @pytest.mark.parametrize("shape", [chain, star], ids=["chain", "star"])
    def test_10k_nodes_at_tau_1(self, shape):
        a1 = AnnotatedTree(shape(10_000, "b"))
        a2 = AnnotatedTree(shape(10_000, "c"))
        start = time.perf_counter()
        assert zhang_shasha_bounded(a1, a2, 1) == 1
        assert time.perf_counter() - start < self.WALL_SECONDS
        tracemalloc.start()
        try:
            assert zhang_shasha_bounded(a1, a2, 1) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES

    def test_huge_tau_on_small_trees_stays_small(self):
        t1, t2 = Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{c}}")
        tracemalloc.start()
        try:
            assert zhang_shasha_bounded(t1, t2, 10**9) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAgainstUnbounded:
    @given(t1=trees(), t2=trees(), tau=st.integers(min_value=0, max_value=8))
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_agrees_with_zhang_shasha(self, t1, t2, tau):
        assert zhang_shasha_bounded(t1, t2, tau) == expected(t1, t2, tau)

    def test_clustered_forest_all_pairs_all_taus(self, rng):
        forest = make_cluster_forest(
            rng, clusters=3, cluster_size=3, base_size=10, max_edits=4
        )
        for i, t1 in enumerate(forest):
            for t2 in forest[i + 1:]:
                for tau in (0, 1, 2, 3, 5, 40):
                    assert zhang_shasha_bounded(t1, t2, tau) == expected(t1, t2, tau)

    @pytest.mark.parametrize("shape1,shape2", [
        # Combs and stars stress the keyroot structure (buffer reuse across
        # many keyroot pairs) from both extremes.
        ("{a{b{c{d{e{f}}}}}}", "{a{b{c{e{f}}}}}"),
        ("{a{b}{c}{d}{e}{f}}", "{a{b}{c}{d}{f}}"),
        ("{a{b{c}{d}}{e{f}{g}}}", "{a{b{c}{d}}{e{f}}}"),
    ])
    def test_shaped_trees(self, shape1, shape2):
        t1, t2 = Tree.from_bracket(shape1), Tree.from_bracket(shape2)
        for tau in range(0, 6):
            assert zhang_shasha_bounded(t1, t2, tau) == expected(t1, t2, tau)

    def test_custom_rename_cost(self, rng):
        double = lambda a, b: 0 if a == b else 2
        for _ in range(25):
            t1 = make_random_tree(rng, rng.randint(1, 10))
            t2 = make_random_tree(rng, rng.randint(1, 10))
            for tau in (0, 2, 4, 10):
                assert zhang_shasha_bounded(t1, t2, tau, double) == expected(
                    t1, t2, tau, double
                )


class TestSentinelAndEdges:
    def test_identical_trees(self):
        tree = Tree.from_bracket("{a{b{c}}{d}}")
        assert zhang_shasha_bounded(tree, tree.copy(), 0) == 0

    def test_size_filter_short_circuit(self):
        small = Tree.from_bracket("{a}")
        big = Tree.from_bracket("{a{b}{c}{d}{e}}")
        assert zhang_shasha_bounded(small, big, 3) is None

    def test_negative_tau_is_sentinel(self):
        tree = Tree.from_bracket("{a}")
        assert zhang_shasha_bounded(tree, tree.copy(), -1) is None

    def test_single_nodes(self):
        a, b = Tree.from_bracket("{a}"), Tree.from_bracket("{b}")
        assert zhang_shasha_bounded(a, b, 0) is None
        assert zhang_shasha_bounded(a, b, 1) == 1
        assert zhang_shasha_bounded(a, a.copy(), 0) == 0

    def test_accepts_annotated_trees(self, rng):
        t1 = make_random_tree(rng, 8)
        t2 = make_random_tree(rng, 9)
        a1, a2 = AnnotatedTree(t1), AnnotatedTree(t2)
        for tau in (0, 2, 5, 20):
            assert zhang_shasha_bounded(a1, a2, tau) == expected(t1, t2, tau)

    def test_huge_tau_equals_exact(self, rng):
        t1 = make_random_tree(rng, 12)
        t2 = make_random_tree(rng, 7)
        assert zhang_shasha_bounded(t1, t2, 1000) == zhang_shasha(t1, t2)

    def test_annotations_not_mutated_across_calls(self, rng):
        # The reused fd buffer lives inside one call; repeated calls on the
        # same annotations must keep agreeing.
        t1 = make_random_tree(rng, 10)
        t2 = make_random_tree(rng, 10)
        a1, a2 = AnnotatedTree(t1), AnnotatedTree(t2)
        first = [zhang_shasha_bounded(a1, a2, tau) for tau in (0, 1, 2, 3)]
        second = [zhang_shasha_bounded(a1, a2, tau) for tau in (0, 1, 2, 3)]
        assert first == second
