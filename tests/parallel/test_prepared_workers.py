"""Workers that inherit the prepared session instead of rebuilding it.

The pool initializer hands each worker the parent's trees, the session's
:class:`~repro.core.join.PreparedJoinState` and its
:class:`~repro.baselines.common.VerifierCaches`.  These tests pin down
that this warm path is exact:

- a shard driven off the prepared state returns the candidates and
  counters of the cold shard, shard by shard (and, for the random
  partition strategy, merges to the serial prepared join);
- ``Tree`` pickles iteratively, so spawn-started workers receive deep
  trees, and a forced-spawn session join matches the serial one;
- the parent-side degradation fallbacks run warm off the session state.
"""

import pickle
import random

import pytest

from repro.core.join import PartSJConfig, PreparedJoinState
from repro.core.partition import min_partitionable_size
from repro.parallel.sharding import plan_shards
from repro.parallel.worker import execute_shard
from repro.resilience import FaultInjector, RetryPolicy
from repro.session import TreeCollection
from repro.tree.node import Tree, TreeNode
from tests.conftest import make_cluster_forest, make_random_tree

# Owned-tree counters that must merge to the exact serial values.
SERIAL_COUNTERS = (
    "probe_hits", "match_tests", "match_hits", "small_pool_pairs",
    "partitioned_trees", "small_trees", "subgraphs_built", "gamma_total",
)


def triples(result):
    return [(p.i, p.j, p.distance) for p in result.pairs]


def chain(length, label="c"):
    root = TreeNode(label)
    node = root
    for _ in range(length - 1):
        node = node.add_child(TreeNode(label))
    return Tree(root)


def cluster_forest(seed):
    rng = random.Random(seed)
    return make_cluster_forest(
        rng, clusters=5, cluster_size=4, base_size=rng.randint(6, 14),
        max_edits=3,
    )


def equal_size_forest(seed):
    # Long runs of one size: shard boundaries fall inside them.
    rng = random.Random(seed)
    return [make_random_tree(rng, size) for size in (7,) * 9 + (9,) * 9]


def splits_equal_sizes(trees, plans):
    return any(
        trees[a.owned[-1]].size == trees[b.owned[0]].size
        for a, b in zip(plans, plans[1:])
    )


def bare_state(col):
    """The state an unprepared session hands the executor."""
    return PreparedJoinState(
        collection=col.sorted, interner=col.interner, caches=col._caches,
    )


FORESTS = [cluster_forest(seed) for seed in range(3)] + [equal_size_forest(7)]


class TestPreparedShard:
    @pytest.mark.parametrize("tau", (0, 1, 2, 3))
    @pytest.mark.parametrize("forest", range(len(FORESTS)))
    def test_prepared_shard_matches_cold_shard(self, forest, tau):
        trees = FORESTS[forest]
        cfg = PartSJConfig().resolved()
        col = TreeCollection.from_trees(trees)
        state = col.prepare(tau, cfg).join_state()
        for workers in (2, 3, 5):
            for plan in plan_shards(col.sorted, tau, workers):
                cold = execute_shard(trees, tau, cfg, plan)
                warm = execute_shard(trees, tau, cfg, plan, prepared=state)
                assert warm.candidates == cold.candidates, (workers, plan)
                assert warm.counters == cold.counters, (workers, plan)

    @pytest.mark.parametrize("strategy", ("maxmin", "random"))
    @pytest.mark.parametrize("tau", (0, 1, 2, 3))
    @pytest.mark.parametrize("forest", range(len(FORESTS)))
    def test_bare_state_shard_matches_cold_shard(self, forest, tau, strategy):
        trees = FORESTS[forest]
        cfg = PartSJConfig(partition_strategy=strategy).resolved()
        col = TreeCollection.from_trees(trees)
        for workers in (2, 3, 5):
            for plan in plan_shards(col.sorted, tau, workers):
                cold = execute_shard(trees, tau, cfg, plan)
                warm = execute_shard(trees, tau, cfg, plan,
                                     prepared=bare_state(col))
                assert warm.candidates == cold.candidates, (workers, plan)
                assert warm.counters == cold.counters, (workers, plan)

    @pytest.mark.parametrize("strategy", ("maxmin", "random"))
    @pytest.mark.parametrize("tau", (0, 1, 2, 3))
    @pytest.mark.parametrize("forest", range(len(FORESTS)))
    def test_prepared_shards_merge_to_serial(self, forest, tau, strategy):
        # With the session's partitions every shard reuses the serial
        # cuts, so even the random strategy's candidate set and owned
        # counters merge to the one-shard (serial) values exactly.
        trees = FORESTS[forest]
        cfg = PartSJConfig(partition_strategy=strategy).resolved()
        col = TreeCollection.from_trees(trees)
        state = col.prepare(tau, cfg).join_state()
        (whole,) = plan_shards(col.sorted, tau, 1)
        serial = execute_shard(trees, tau, cfg, whole, prepared=state)
        for workers in (2, 3, 5):
            shards = [
                execute_shard(trees, tau, cfg, plan, prepared=state)
                for plan in plan_shards(col.sorted, tau, workers)
            ]
            merged = sorted(pair for s in shards for pair in s.candidates)
            assert merged == sorted(serial.candidates), workers
            for key in SERIAL_COUNTERS:
                total = sum(s.counters[key] for s in shards)
                assert total == serial.counters[key], (workers, key)

    def test_equal_size_forest_splits_a_size_run(self):
        trees = FORESTS[-1]
        col = TreeCollection.from_trees(trees)
        assert splits_equal_sizes(trees, plan_shards(col.sorted, 1, 3))


class TestSpawnSafeTrees:
    def test_deep_chain_pickle_round_trip(self):
        tree = chain(5000)
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.size == 5000
        assert clone == tree

    def test_pickle_preserves_labels(self):
        tree = Tree.from_bracket("{a{b\\{c}{ü{d e}}{f\\}}}")
        assert pickle.loads(pickle.dumps(tree)) == tree

    def test_forced_spawn_session_join_matches_serial(self, monkeypatch):
        import repro.parallel.executor as executor_mod

        trees = cluster_forest(11) + [chain(2000), chain(2001)]
        serial = TreeCollection.from_trees(trees).join(2).run()
        monkeypatch.setattr(executor_mod, "_START_METHOD", "spawn")
        # One cold session (bare state) and one warm session (prepared,
        # verifier caches populated by a serial join): both pickle their
        # state into the spawned workers.
        cold = TreeCollection.from_trees(trees)
        warm = TreeCollection.from_trees(trees)
        warm.join(2).run()
        for col in (cold, warm):
            result = col.join(2, workers=2).run()
            assert triples(result) == triples(serial)
            for key in SERIAL_COUNTERS:
                assert result.stats.extra[key] == serial.stats.extra[key], key
            assert result.stats.extra["worker_failures"] == 0
            assert result.stats.extra["degraded_serial_tasks"] == 0


class TestWarmDegradation:
    def test_fallbacks_fill_the_session_caches(self):
        trees = cluster_forest(3)
        serial = TreeCollection.from_trees(trees).join(2).run()
        col = TreeCollection.from_trees(trees)
        cfg = PartSJConfig(
            workers=2,
            retry=RetryPolicy(max_attempts=1, task_timeout=5.0,
                              backoff_base=0.0, jitter=0.0),
            fault_injector=FaultInjector.from_spec(
                "shard:*=poison,verify:*=poison"
            ),
        )
        result = col.join(2, config=cfg).run()
        assert triples(result) == triples(serial)
        extra = result.stats.extra
        assert extra["degraded_serial_tasks"] == (
            len(extra["shards"]) + extra["verify_chunks"]
        )
        # Every task ran in the parent off the session's state, so the
        # session now holds the tree caches and verifier annotations.
        stats = col.stats()
        assert stats["tree_caches"] == sum(
            t.size >= min_partitionable_size(2) for t in trees
        )
        assert stats["verifier_annotations"] > 0
