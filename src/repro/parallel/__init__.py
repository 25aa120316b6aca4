"""``repro.parallel``: the sharded multiprocess join executor.

Scales the size-sorted join loop across worker processes while keeping
results bit-identical to the serial engine:

- :mod:`~repro.parallel.sharding` — cost-balanced shard planning over the
  collection's size histogram, with the tau-wide handoff band that makes
  shards independent (``ShardPlan`` / ``ShardResult`` protocol);
- :mod:`~repro.parallel.executor` — pool lifecycle, the two-stage
  candidate-generation + verification run, deterministic stats merge;
- :mod:`~repro.parallel.verify_pool` — chunked parallel verification
  usable by every join method, not just PartSJ, plus the background
  ``StreamVerifyPool`` the streaming engine hands its candidates to;
- :mod:`~repro.parallel.worker` — per-process state (the parent's trees,
  prepared session state and verifier caches, handed over by the pool
  initializer; a persistent ``Verifier``; for streaming, an append-only
  ``GrowingTreeStore``) and the task functions.

The streaming hooks: :class:`~repro.parallel.sharding.ShardPlanner`
re-plans shard boundaries lazily as a growing collection's size
histogram changes, and :class:`~repro.parallel.verify_pool.StreamVerifyPool`
verifies streamed candidates in the background (see :mod:`repro.stream`).

Entry points: ``similarity_join(..., workers=N)``,
``PartSJConfig(workers=N)``, ``StreamingJoin(..., workers=N)``, or the
CLI's ``--workers``.
"""

from repro.parallel.executor import open_pool, parallel_partsj_join
from repro.parallel.sharding import (
    ShardPlan,
    ShardPlanner,
    ShardResult,
    estimated_probe_cost,
    plan_shards,
)
from repro.parallel.verify_pool import (
    StreamVerifyPool,
    chunk_pairs,
    parallel_verify,
)

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "ShardResult",
    "estimated_probe_cost",
    "plan_shards",
    "open_pool",
    "parallel_partsj_join",
    "chunk_pairs",
    "parallel_verify",
    "StreamVerifyPool",
]
