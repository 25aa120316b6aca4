"""Differential tests of the per-tree record's verification views.

Every view :class:`~repro.core.treecache.TreeCache` derives from its flat
arrays — label, degree and binary-branch bags, pre/postorder label
sequences, the Zhang–Shasha annotation and the mirrored one — is checked
against its definition on the :class:`~repro.tree.node.Tree` node walk,
with label ids mapped back through the record's interner.  The shapes
cover the edges of the derivations: one node, a 5,000-deep chain (no
keyroot but the root, mirror keyroots everywhere), a 2,000-leaf star (the
reverse), the empty label (which shares id 0 with ``EPSILON``, the
missing-child label, exactly as the string definition does), labels
with bracket-syntax characters and unicode labels.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.common import Verifier, VerifierCaches
from repro.core.intern import EPSILON, LabelInterner, unpack_twig
from repro.core.treecache import TreeCache
from repro.ted.binary_branch import binary_branches
from repro.ted.rted import mirror_tree
from repro.ted.simple import ted_reference
from repro.ted.zhang_shasha import AnnotatedTree, zhang_shasha
from repro.tree.bracket import parse_bracket, to_bracket
from repro.tree.edits import random_script
from repro.tree.lcrs import to_lcrs
from repro.tree.node import Tree, TreeNode
from tests.conftest import make_random_tree, trees


def chain(size: int, labels=("a", "b")) -> Tree:
    root = node = TreeNode(labels[0])
    for depth in range(1, size):
        node = node.add_child(TreeNode(labels[depth % len(labels)]))
    return Tree(root)


def star(leaves: int) -> Tree:
    return Tree(TreeNode("r", [TreeNode("xyz"[k % 3]) for k in range(leaves)]))


def lcrs_branches(tree: Tree) -> Counter:
    """Binary branches read off the LC-RS node objects (the definition)."""
    bag: Counter = Counter()
    for node in to_lcrs(tree).iter_postorder():
        left = node.left.label if node.left is not None else EPSILON
        right = node.right.label if node.right is not None else EPSILON
        bag[(node.label, left, right)] += 1
    return bag


SHAPES = {
    "single": Tree(TreeNode("a")),
    "chain_5000": chain(5000),
    "star_2000": star(2000),
    "empty_labels": Tree(TreeNode("", [
        TreeNode("", [TreeNode("a"), TreeNode("")]),
        TreeNode("b"),
        TreeNode(""),
    ])),
    "escaped_labels": Tree(TreeNode("{", [
        TreeNode("}", [TreeNode("\\"), TreeNode("a{b}c")]),
        TreeNode("\\{"),
    ])),
    "unicode_labels": Tree(TreeNode("ä", [
        TreeNode("日本", [TreeNode("ß"), TreeNode("😀")]),
        TreeNode("ä"),
    ])),
    "figure2": Tree.from_bracket("{l1{l2{l3{l4{l5}{l6}}}}{l7}}"),
}


def assert_views_match(tree: Tree) -> None:
    interner = LabelInterner()
    record = TreeCache(tree, interner)
    label = interner.label

    assert Counter({label(k): v for k, v in record.label_bag.items()}) == (
        Counter(tree.labels())
    )
    assert record.degree_bag == Counter(
        node.degree for node in tree.iter_preorder()
    )
    branches = Counter({
        tuple(label(part) for part in unpack_twig(key)): count
        for key, count in record.branch_bag.items()
    })
    assert branches == lcrs_branches(tree)
    assert [label(x) for x in record.preorder] == tree.preorder_labels()
    assert [label(x) for x in record.postorder] == tree.postorder_labels()
    for view, expected in (
        (record.annotation, AnnotatedTree(tree)),
        (record.mirror_annotation, AnnotatedTree(mirror_tree(tree))),
    ):
        assert view.size == expected.size
        assert [label(x) for x in view.labels[1:]] == expected.labels[1:]
        assert view.lmld == expected.lmld
        assert view.keyroots == expected.keyroots
        assert view.keyroot_weight() == expected.keyroot_weight()


class TestViewsAgainstTreeWalk:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes(self, name):
        assert_views_match(SHAPES[name])

    def test_random_trees(self):
        rng = random.Random(41)
        for _ in range(200):
            assert_views_match(make_random_tree(rng, rng.randint(1, 60)))

    @given(trees(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_property(self, tree):
        assert_views_match(tree)

    def test_views_are_lazy_and_kept(self):
        record = TreeCache(SHAPES["figure2"], LabelInterner())
        assert record._annotation is None and record._label_bag is None
        first = record.annotation
        assert record.annotation is first
        assert record.mirror_annotation is record.mirror_annotation

    def test_empty_label_shares_epsilon_id_like_the_string_path(self):
        tree = SHAPES["empty_labels"]
        # binary_branches maps the record's ids back: "" and a missing
        # child are the same symbol on both paths.
        assert binary_branches(tree) == lcrs_branches(tree)
        assert ("", "", "") in binary_branches(tree)

    @pytest.mark.parametrize("name", ["escaped_labels", "unicode_labels"])
    def test_bracket_round_trip_keeps_views(self, name):
        tree = SHAPES[name]
        again = parse_bracket(to_bracket(tree))
        interner = LabelInterner()
        one, two = TreeCache(tree, interner), TreeCache(again, interner)
        assert one.branch_bag == two.branch_bag
        assert one.preorder == two.preorder
        assert one.mirror_annotation.labels == two.mirror_annotation.labels


class TestBinaryBranches:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_same_bag_as_lcrs_objects(self, name):
        assert binary_branches(SHAPES[name]) == lcrs_branches(SHAPES[name])


def near_pair(rng: random.Random, size: int, edits: int) -> tuple[Tree, Tree]:
    base = make_random_tree(rng, size)
    edited, _ = random_script(base, edits, rng, list("abcd"))
    return base, edited


class TestVerifierOracle:
    @given(trees(max_size=8), trees(max_size=8), st.integers(0, 4))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_ted_reference(self, t1, t2, tau):
        exact = ted_reference(t1, t2)
        expected = exact if exact <= tau else None
        assert Verifier([t1, t2], tau).verify(0, 1) == expected
        assert Verifier([t1, t2], tau).verify(1, 0) == expected

    @given(st.integers(0, 2**32 - 1), st.integers(16, 40), st.integers(0, 4),
           st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_mirror_sized_pairs_match_zhang_shasha(self, seed, size, edits, tau):
        # Trees of >= MIRROR_SIZE_CUTOFF nodes go through the mirrored
        # annotations whenever that orientation is cheaper; the oracle is
        # Zhang-Shasha over string-labelled annotations of the trees.
        t1, t2 = near_pair(random.Random(seed), size, edits)
        exact = zhang_shasha(AnnotatedTree(t1), AnnotatedTree(t2))
        expected = exact if exact <= tau else None
        assert Verifier([t1, t2], tau).verify(0, 1) == expected

    def test_shared_records_across_taus_and_verifiers(self):
        rng = random.Random(5)
        forest = [t for _ in range(4) for t in near_pair(rng, 24, 2)]
        caches = VerifierCaches()
        for tau in (0, 1, 2, 3):
            shared = Verifier(forest, tau, caches=caches)
            fresh = Verifier(forest, tau)
            for i in range(len(forest)):
                for j in range(i + 1, len(forest)):
                    assert shared.verify(i, j) == fresh.verify(i, j)
        assert set(caches.records) == set(range(len(forest)))

    def test_threshold_unaware_distance_reads_the_records(self):
        rng = random.Random(9)
        t1, t2 = near_pair(rng, 30, 3)
        verifier = Verifier([t1, t2], 1, threshold_aware=False)
        exact = zhang_shasha(AnnotatedTree(t1), AnnotatedTree(t2))
        assert verifier.distance(0, 1) == exact
        assert verifier.verify(0, 1) == (exact if exact <= 1 else None)
