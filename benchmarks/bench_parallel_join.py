"""Benchmark: the sharded multiprocess executor vs the serial engine.

PR 3 adds ``repro.parallel`` — candidate generation sharded over the size
axis (tau-wide handoff bands) plus chunked parallel verification.  This
benchmark runs PartSJ end to end at ``workers`` in {1, 2, 4} on the
standard parallel workload (dense near-duplicate clusters, so the banded
TED verification — the embarrassingly parallel stage — dominates):

- every worker count must return *bit-identical* results (same pairs,
  same exact distances) — sharding or merge bugs show up here first;
- wall-clock times and speedups vs the serial engine are reported per
  tau, along with the executor's own breakdown (per-shard times, band
  overhead, verify chunks);
- ``python benchmarks/bench_parallel_join.py --snapshot`` regenerates
  ``BENCH_PR3.json`` (tau in {1, 2, 3}, workers in {1, 2, 4}), which the
  CI perf-smoke step uses as its regression record.

Speedups are hardware-dependent: the snapshot records the host's usable
CPU count, and on a single-CPU host (e.g. a constrained container) the
expected "speedup" is < 1 — worker processes time-slice one core and the
measurement only bounds the executor's overhead.  The CI guard therefore
asserts *multi-worker no slower than serial* only when at least two CPUs
are usable, and on single-CPU hosts just bounds the overhead factor.
A sibling guard holds the prepared-session path (``TreeCollection``,
``prepare`` then ``join(..., workers=2)``) to the same rule: its workers
must reuse the session's prepared state, not rebuild it.

Run with ``pytest benchmarks/bench_parallel_join.py``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.join import PartSJConfig, partsj_join
from repro.session import TreeCollection

SNAPSHOT_PATH = Path(__file__).parent.parent / "BENCH_PR3.json"
SNAPSHOT_TAUS = (1, 2, 3)
WORKER_COUNTS = (1, 2, 4)
REPEATS = 2
# Guard tolerances: multicore hosts must not regress past serial (15%
# noise headroom); single-CPU hosts only bound the time-slicing overhead.
MULTICORE_TOLERANCE = 1.15
SINGLE_CPU_TOLERANCE = 2.0


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux fallback


def best_run(trees, tau, workers, repeats=REPEATS):
    """Best-of-``repeats`` wall time; returns ``(wall, result)``."""
    import time

    best_wall = None
    best_result = None
    config = PartSJConfig(workers=workers)
    for _ in range(repeats):
        started = time.perf_counter()
        result = partsj_join(trees, tau, config)
        wall = time.perf_counter() - started
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_result = result
    return best_wall, best_result


def best_session_run(trees, tau, workers, repeats=REPEATS):
    """Best-of-``repeats`` wall time of a prepared session's join.

    Each repeat builds a fresh session and runs ``prepare(tau)`` untimed,
    then times the first ``join(tau, workers=workers).run()`` (a second
    run would be served from the session's result cache).
    """
    import time

    best_wall = None
    best_result = None
    for _ in range(repeats):
        col = TreeCollection.from_trees(trees)
        col.prepare(tau)
        started = time.perf_counter()
        result = col.join(tau, workers=workers).run()
        wall = time.perf_counter() - started
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_result = result
    return best_wall, best_result


def measure(trees, taus=SNAPSHOT_TAUS, worker_counts=WORKER_COUNTS,
            repeats=REPEATS):
    """Serial vs parallel runs per tau; returns report lines + metrics."""
    lines = [
        "== parallel_join: sharded executor vs serial engine ==",
        f"trees={len(trees)} usable_cpus={usable_cpus()} "
        f"(standard parallel workload)",
    ]
    metrics = {}
    for tau in taus:
        walls = {}
        reference = None
        shard_info = {}
        for workers in worker_counts:
            wall, result = best_run(trees, tau, workers, repeats)
            walls[workers] = wall
            pairs = [(p.i, p.j, p.distance) for p in result.pairs]
            if reference is None:
                reference = pairs
                serial_stats = result.stats
            else:
                assert pairs == reference, (
                    f"tau={tau} workers={workers}: parallel executor "
                    "disagrees with the serial engine"
                )
                shard_info[workers] = {
                    "shards": len(result.stats.extra.get("shards", [])),
                    "band_trees": result.stats.extra.get("band_trees", 0),
                    "verify_chunks": result.stats.extra.get("verify_chunks", 0),
                }
        serial_wall = walls[worker_counts[0]]
        metrics[tau] = {
            "trees": len(trees),
            "candidates": serial_stats.candidates,
            "results": serial_stats.results,
            "serial_candidate_time": round(serial_stats.candidate_time, 4),
            "serial_verify_time": round(serial_stats.verify_time, 4),
            "wall": {str(w): round(walls[w], 4) for w in worker_counts},
            "speedup": {
                str(w): round(serial_wall / max(walls[w], 1e-9), 3)
                for w in worker_counts
            },
            "parallel": {str(w): info for w, info in shard_info.items()},
        }
        speedups = " ".join(
            f"{w}w={serial_wall / max(walls[w], 1e-9):.2f}x"
            for w in worker_counts[1:]
        )
        lines.append(
            f"tau={tau}: serial {serial_wall:.3f}s "
            f"(verify {serial_stats.verify_time:.3f}s) | "
            + " ".join(f"{w}w {walls[w]:.3f}s" for w in worker_counts[1:])
            + f" | speedup {speedups} | candidates={serial_stats.candidates} "
            f"results={serial_stats.results}"
        )
    return lines, metrics


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_join_timed(benchmark, parallel_workload, workers):
    result = benchmark.pedantic(
        lambda: partsj_join(parallel_workload, 2, PartSJConfig(workers=workers)),
        rounds=1, iterations=1,
    )
    assert result.stats.results >= 0


def test_equivalence_and_report(parallel_workload, scale, results_dir):
    from conftest import save_and_print

    lines, metrics = measure(parallel_workload, taus=(1, 2), repeats=1)
    for tau, m in metrics.items():
        assert m["wall"]["1"] > 0
    save_and_print(results_dir, "parallel_join", scale, "\n".join(lines) + "\n")


def test_smoke_guard_multiworker_not_slower(parallel_workload):
    """CI perf smoke: the multi-worker run vs serial on the snapshot workload.

    On a host with >= 2 usable CPUs the 2-worker run must be no slower
    than serial (within noise tolerance) — sharded candidate generation
    plus parallel verification must at least pay for the pool.  On a
    single-CPU host a speedup is physically impossible (workers
    time-slice one core), so the guard only bounds the executor overhead.
    Result equivalence is asserted inside ``measure`` either way.
    """
    _, metrics = measure(parallel_workload, taus=(2,), worker_counts=(1, 2),
                         repeats=2)
    serial_wall = metrics[2]["wall"]["1"]
    parallel_wall = metrics[2]["wall"]["2"]
    cpus = usable_cpus()
    if cpus >= 2:
        assert parallel_wall <= serial_wall * MULTICORE_TOLERANCE, (
            f"2-worker run slower than serial on {cpus} CPUs: "
            f"{parallel_wall:.3f}s vs {serial_wall:.3f}s"
        )
    else:
        assert parallel_wall <= serial_wall * SINGLE_CPU_TOLERANCE, (
            f"single-CPU executor overhead out of bounds: "
            f"{parallel_wall:.3f}s vs serial {serial_wall:.3f}s"
        )


def test_smoke_guard_session_multiworker_not_slower(parallel_workload):
    """CI perf smoke: a prepared session's 2-worker join vs its serial join.

    The one-shot guard above is cold on both sides; this one times the
    session path, where the serial join runs off the prepared state and
    the workers must too.  Same hardware rule and tolerances.
    """
    tau = 2
    serial_wall, serial = best_session_run(parallel_workload, tau, 1)
    parallel_wall, parallel = best_session_run(parallel_workload, tau, 2)
    assert [(p.i, p.j, p.distance) for p in parallel.pairs] == [
        (p.i, p.j, p.distance) for p in serial.pairs
    ], "session workers=2 join disagrees with the serial session join"
    cpus = usable_cpus()
    if cpus >= 2:
        assert parallel_wall <= serial_wall * MULTICORE_TOLERANCE, (
            f"2-worker session join slower than serial on {cpus} CPUs: "
            f"{parallel_wall:.3f}s vs {serial_wall:.3f}s"
        )
    else:
        assert parallel_wall <= serial_wall * SINGLE_CPU_TOLERANCE, (
            f"single-CPU session executor overhead out of bounds: "
            f"{parallel_wall:.3f}s vs serial {serial_wall:.3f}s"
        )


def write_snapshot() -> dict:
    """Regenerate ``BENCH_PR3.json`` from a fresh measurement.

    Uses the exact parallel-workload definition of
    ``benchmarks/conftest.py`` (smoke count).  The snapshot records the
    host's usable CPU count — interpret the speedup columns against it
    (single-CPU hosts cannot show > 1x; regenerate on a multicore host
    for the paper-style scaling figures).
    """
    from conftest import (
        PARALLEL_WORKLOAD_COUNTS,
        PARALLEL_WORKLOAD_SEED,
        PARALLEL_WORKLOAD_SHAPE,
        make_parallel_workload,
    )

    count = PARALLEL_WORKLOAD_COUNTS["smoke"]
    trees = make_parallel_workload(count)
    lines, metrics = measure(trees)
    snapshot = {
        "description": (
            "PartSJ end-to-end wall times of the sharded multiprocess "
            "executor (PR 3) vs the serial engine on the standard parallel "
            "workload (smoke scale), workers in {1, 2, 4}. Speedups are "
            "relative to workers=1 on the recording host; usable_cpus "
            "qualifies them (a single-CPU host cannot exceed 1x). "
            "Regenerate with: python benchmarks/bench_parallel_join.py "
            "--snapshot"
        ),
        "usable_cpus": usable_cpus(),
        "workload": {
            "count": count,
            **PARALLEL_WORKLOAD_SHAPE,
            "seed": PARALLEL_WORKLOAD_SEED,
        },
        "worker_counts": list(WORKER_COUNTS),
        "taus": {str(tau): m for tau, m in metrics.items()},
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    print("\n".join(lines))
    print(f"wrote {SNAPSHOT_PATH}")
    return snapshot


if __name__ == "__main__":
    if "--snapshot" in sys.argv:
        write_snapshot()
    else:
        print(__doc__)
