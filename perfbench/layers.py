"""The traced run: per-layer metrics, measured from outside the program.

One :class:`repro.obs.Tracer` records the whole run.  The benchmark puts
its own spans around each call into a layer's public functions, and the
program grafts the spans it already emits (``join``, ``partsj.*``,
``parallel.*``, ``verify.chunk``, ``wal.*``, ``stream.flush``) under
them.  Spans stay in memory; a span's self time is its duration minus
the part its same-process children cover.

The run, on one seeded input:

1. **Set-up layers**: ``load_trees`` (``tree``), the session
   (``TreeCollection.from_trees``), ``col.cache(i)`` over every tree
   (``core.treecache``), ``prepare(tau)`` on warm caches
   (``core.partition``).
2. **Layer pass**: a serial join replayed through the public layer
   APIs -- ``ShardDriver(..., prepared=prep.join_state()).ingest(i)`` in
   size order, like ``partsj_join``'s loop, then ``Verifier.features``
   for every tree of a candidate pair, then ``Verifier.verify`` on each
   candidate, each outcome classified from the verifier's counter
   deltas.  Lower-bound rejections are attributed to the first bound of
   the verifier's order (size, label, degree, branch, traversal) that
   exceeds ``tau``, by calling the public ``repro.ted.bounds`` and
   ``repro.ted.string_edit`` functions.
3. **The program's joins**: serial traced, serial untraced (for the
   tracing overhead) and ``workers=2`` traced, each on a fresh prepared
   session.  The replay must reproduce the serial ``JoinStats`` counters
   exactly, so it cannot drift from ``partsj_join``.
4. **Serving pass**: the ``StreamingJoin`` + WAL + search loop of the
   end-to-end run, traced once.

All result lists must agree, and a seeded sample is rechecked with
unbounded TED, as in the untraced run.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from pathlib import Path

import checks
from e2e import (
    ORACLE_BUDGET_S,
    SEARCH_BUDGET_S,
    Tally,
    check_searches,
    serving_pass,
    session_searches,
    sidecar_guard,
)

FIDELITY_COUNTERS = ("probe_hits", "match_tests", "match_hits", "dedup_skips")
VERIFIER_COUNTERS = ("lb_filtered", "ub_accepted", "ted_early_exits")
LB_ORDER = ("size", "label", "degree", "branch", "traversal")


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name (same-process children only)."""
    covered: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None and "pid" not in span.attrs:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + (
                span.duration or 0.0
            )
    totals: dict[str, float] = {}
    for span in spans:
        own = max(0.0, (span.duration or 0.0) - covered.get(span.span_id, 0.0))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def first_bound(features_i, features_j, tau: int) -> str | None:
    """The first bound of the verifier's filter order that exceeds tau."""
    from repro.ted.bounds import (
        branch_bound_from_bags,
        degree_bound_from_bags,
        label_bound_from_bags,
    )
    from repro.ted.string_edit import string_edit_within

    f1, f2 = features_i, features_j
    if abs(f1.size - f2.size) > tau:
        return "size"
    if label_bound_from_bags(f1.label_bag, f2.label_bag) > tau:
        return "label"
    if degree_bound_from_bags(f1.degree_bag, f2.degree_bag) > tau:
        return "degree"
    if branch_bound_from_bags(f1.branch_bag, f2.branch_bag) > tau:
        return "branch"
    if (string_edit_within(f1.preorder, f2.preorder, tau) is None
            or string_edit_within(f1.postorder, f2.postorder, tau) is None):
        return "traversal"
    return None


def layer_pass(tracer, col, prep, tau: int, cfg) -> dict:
    """The serial join, replayed layer by layer (see module docstring)."""
    from repro.baselines.common import Verifier
    from repro.core.join import ShardDriver

    verifier = Verifier(col.trees, tau, caches=col.verifier_caches,
                        backend=cfg.backend)
    driver = ShardDriver(col.trees, tau, cfg, prepared=prep.join_state())
    order = col.sorted
    pairs: list[tuple[int, int]] = []
    with tracer.span("candidates.ingest") as sp:
        for position in range(len(order)):
            i = order.original_index(position)
            candidates, _ = driver.ingest(i)
            pairs.extend((i, j) for j in candidates)
    ingest_s = sp.duration
    with tracer.span("verify.features") as sp:
        for index in sorted({k for pair in pairs for k in pair}):
            features = verifier.features(index)
            # TreeFeatures builds its bags lazily; build the ones the
            # verifier's filter chain reads, so this span owns them.
            features.label_bag, features.degree_bag, features.branch_bag
            features.preorder, features.postorder
    features_s = sp.duration
    outcome = {"ub": 0.0, "lb": 0.0, "dp": 0.0}
    counts = {"ub": 0, "lb": 0, "dp_accept": 0, "dp_reject": 0}
    dp_ms: list[float] = []
    lb_pairs = []
    found = []
    clock = time.perf_counter
    with tracer.span("verify") as sp:
        for i, j in pairs:
            ub = verifier.stats_ub_accepted
            lb = verifier.stats_lb_filtered
            exits = verifier.stats_ted_early_exits
            started = clock()
            distance = verifier.verify(i, j)
            took = clock() - started
            if verifier.stats_ub_accepted != ub:
                outcome["ub"] += took
                counts["ub"] += 1
            elif verifier.stats_lb_filtered != lb:
                outcome["lb"] += took
                counts["lb"] += 1
                lb_pairs.append((i, j))
            else:
                outcome["dp"] += took
                dp_ms.append(1e3 * took)
                rejected = verifier.stats_ted_early_exits != exits
                counts["dp_reject" if rejected else "dp_accept"] += 1
            if distance is not None:
                found.append((min(i, j), max(i, j), distance))
        for name, seconds in outcome.items():
            tracer.record(f"verify.{name}", seconds)
    verify_s = sp.duration
    first = {name: 0 for name in LB_ORDER}
    unexplained = 0
    for i, j in lb_pairs:
        name = first_bound(verifier.features(i), verifier.features(j), tau)
        if name is None:
            unexplained += 1
        else:
            first[name] += 1
    return {
        "driver": driver, "verifier": verifier, "pairs": pairs,
        "rows": sorted(found), "ingest_s": ingest_s,
        "features_s": features_s, "verify_s": verify_s,
        "outcome": outcome, "counts": counts, "dp_ms": dp_ms,
        "first": first, "unexplained": unexplained,
    }


def fidelity(replay: dict, stats) -> list[str]:
    """The replay must reproduce the program's serial ``JoinStats``."""
    driver, verifier = replay["driver"], replay["verifier"]
    expected = {
        "candidates": (stats.candidates, len(replay["pairs"])),
        "ted_calls": (stats.ted_calls, verifier.stats_ted_calls),
    }
    for key in FIDELITY_COUNTERS:
        expected[key] = (stats.extra.get(key), getattr(driver.counters, key))
    for key in VERIFIER_COUNTERS:
        expected[key] = (stats.extra.get(key),
                         getattr(verifier, f"stats_{key}"))
    problems = [
        f"fidelity: {key} is {program} in the program's join, "
        f"{replica} in the layer pass"
        for key, (program, replica) in expected.items() if program != replica
    ]
    if sum(replay["first"].values()) != verifier.stats_lb_filtered:
        problems.append(
            f"fidelity: verify.lb.* sum to {sum(replay['first'].values())}, "
            f"lb_filtered is {verifier.stats_lb_filtered}"
        )
    return problems


def fresh_session(trees, tau: int):
    from repro.session import TreeCollection

    col = TreeCollection.from_trees(trees)
    col.prepare(tau)
    gc.collect()
    return col


def timed_join(col, tau: int, workers: int, tracer=None):
    started = time.perf_counter()
    result = col.join(tau, workers=workers).run(trace=tracer)
    return result, time.perf_counter() - started


def traced(workload, trees_text, queries_text, work: Path, seed: int) -> dict:
    from repro.core.join import PartSJConfig
    from repro.datasets.io import load_trees
    from repro.obs import Tracer
    from repro.session import TreeCollection
    from repro.tree.bracket import parse_bracket

    tau = workload.tau
    path = work / "collection.txt"
    path.write_text("\n".join(trees_text) + "\n", encoding="utf-8")
    wal = work / "stream.wal"
    sidecar_guard(path)
    tally = Tally()
    tracer = Tracer()
    cfg = PartSJConfig().resolved()
    gc.collect()

    with tracer.span("bench.setup"):
        with tracer.span("tree.parse") as parse:
            trees = load_trees(path)
        with tracer.span("session.build"):
            col = TreeCollection.from_trees(trees)
        with tracer.span("prepare.caches") as caches:
            for i in range(len(col)):
                col.cache(i)
        with tracer.span("prepare.partition") as partition:
            prep = col.prepare(tau)
    gc.collect()
    with tracer.span("bench.layer_pass") as layer_span:
        replay = layer_pass(tracer, col, prep, tau, cfg)
    tally.record([])
    layer_s = replay["ingest_s"] + replay["features_s"] + replay["verify_s"]

    with tracer.span("bench.join_serial"):
        serial, serial_s = timed_join(fresh_session(trees, tau), tau, 1, tracer)
    untraced, untraced_s = timed_join(fresh_session(trees, tau), tau, 1)
    with tracer.span("bench.join_parallel"):
        parallel, parallel_s = timed_join(fresh_session(trees, tau), tau, 2,
                                          tracer)
    reference = checks.rows(serial.pairs)
    for label, result_rows in (
        ("layer pass", replay["rows"]),
        ("untraced serial join", checks.rows(untraced.pairs)),
        ("workers=2 join", checks.rows(parallel.pairs)),
    ):
        tally.record(checks.diff_rows(reference, result_rows, label))
    tally.note(fidelity(replay, serial.stats))
    if replay["unexplained"]:
        tally.note([f"fidelity: {replay['unexplained']} lower-bound "
                    "rejections match no public bound"])

    queries = [parse_bracket(text) for text in queries_text]
    samples = {"add": [], "flush": [], "search": []}
    searched: list = []
    with tracer.span("bench.stream"):
        stream_stats = serving_pass(workload, trees, range(len(trees)), 0,
                                    queries, reference, wal, tally, samples,
                                    searched, tracer)
    if not workload.search_every:
        with tracer.span("bench.search"):
            session_searches(trees, workload, queries, tally, samples,
                             searched, tracer)
    search_s = sum(samples["search"])
    hits_total = sum(len(hits) for *_, hits in searched)
    wal_bytes = wal.stat().st_size
    wal.unlink()

    checked, problems = checks.oracle_pairs(
        trees, tau, reference, seed, ORACLE_BUDGET_S,
        candidates=replay["pairs"],
    )
    tally.note(problems)
    search_checks = check_searches(trees, queries, tau, searched,
                                   [range(len(trees))], random.Random(seed),
                                   SEARCH_BUDGET_S, tally)

    own = self_times(tracer.spans)
    driver = replay["driver"].counters
    counts = replay["counts"]
    outcome = replay["outcome"]
    dp_calls = counts["dp_accept"] + counts["dp_reject"]
    candidates = len(replay["pairs"])
    extra = parallel.stats.extra
    shard_walls = [shard["wall_time"] for shard in extra.get("shards", [])]
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    metrics = {
        "tree.parse_s": (parse.duration, "s"),
        "prepare.caches_s": (caches.duration, "s"),
        "prepare.partition_s": (partition.duration, "s"),
        "prepare.subgraphs": (prep.describe()["subgraphs"], "count"),
        "candidates.ingest_s": (replay["ingest_s"], "s"),
        "candidates.probe_s": (replay["driver"].probe_time, "s"),
        "candidates.index_s": (replay["driver"].index_time, "s"),
        "candidates.count": (candidates, "count"),
        "candidates.probe_hits": (driver.probe_hits, "count"),
        "candidates.match_tests": (driver.match_tests, "count"),
        "candidates.match_hits": (driver.match_hits, "count"),
        "candidates.dedup_skips": (driver.dedup_skips, "count"),
        "candidates.precision": (ratio(len(reference), candidates), "ratio"),
        "candidates.match_rate": (ratio(driver.match_hits, driver.match_tests),
                                  "ratio"),
        "verify.features_s": (replay["features_s"], "s"),
        "verify.s": (replay["verify_s"], "s"),
        "verify.calls": (candidates, "count"),
        "verify.ub_accepted": (counts["ub"], "count"),
        "verify.lb_filtered": (counts["lb"], "count"),
        "verify.dp_accept": (counts["dp_accept"], "count"),
        "verify.dp_reject": (counts["dp_reject"], "count"),
        "verify.ub_s": (outcome["ub"], "s"),
        "verify.lb_s": (outcome["lb"], "s"),
        "verify.dp_s": (outcome["dp"], "s"),
        "verify.dp_waste": (ratio(counts["dp_reject"], dp_calls), "ratio"),
        "verify.dp_ms_p50": (statistics.median(replay["dp_ms"])
                             if replay["dp_ms"] else 0.0, "ms"),
        "verify.dp_ms_max": (max(replay["dp_ms"], default=0.0), "ms"),
        "verify.share": (ratio(replay["verify_s"], layer_s), "ratio"),
        **{f"verify.lb.{name}": (replay["first"][name], "count")
           for name in LB_ORDER},
        "parallel.plan_s": (extra.get("plan_time", 0.0), "s"),
        "parallel.candidate_wall_s": (extra.get("candidate_wall_time", 0.0), "s"),
        "parallel.verify_wall_s": (extra.get("verify_wall_time", 0.0), "s"),
        "parallel.verify_chunks": (extra.get("verify_chunks", 0), "count"),
        "parallel.band_trees": (extra.get("band_trees", 0), "count"),
        "parallel.shard_skew": (ratio(max(shard_walls, default=0.0),
                                      statistics.mean(shard_walls)
                                      if shard_walls else 0.0), "ratio"),
        "parallel.retries": (sum(extra.get(key, 0) for key in (
            "retries", "worker_failures", "timeouts", "degraded_serial_tasks"
        )), "count"),
        "parallel.efficiency": (ratio(layer_s, 2 * parallel_s), "ratio"),
        "stream.candidates": (stream_stats.candidates, "count"),
        "stream.reverse_candidates": (stream_stats.reverse_candidates, "count"),
        "stream.precision": (ratio(stream_stats.results,
                                   stream_stats.candidates), "ratio"),
        "stream.ingest_s": (stream_stats.ingest_time, "s"),
        "stream.verify_s": (stream_stats.verify_time, "s"),
        "stream.index_entries": (stream_stats.index_entries, "count"),
        "stream.reverse_nodes": (stream_stats.reverse_nodes, "count"),
        "search.s": (search_s, "s"),
        "search.hits": (hits_total, "count"),
        "wal.append_s": (own.get("wal.append", 0.0), "s"),
        "wal.sync_s": (own.get("wal.sync", 0.0), "s"),
        "wal.bytes": (wal_bytes, "bytes"),
        "obs.layer_pass_s": (layer_s, "s"),
        "obs.trace_overhead": (ratio(serial_s, untraced_s), "ratio"),
        "obs.spans": (len(tracer.spans), "count"),
        "obs.unattributed_s": (own.get("bench.setup", 0.0)
                               + own.get("bench.layer_pass", 0.0), "s"),
    }
    return {
        "metrics": metrics,
        "tally": tally,
        "samples": {"oracle_pairs": checked, "searches": len(searched),
                    "search_checks": search_checks},
        "backend": serial.stats.extra.get("backend"),
        "results": len(reference),
        "walls": {"join_serial_traced_s": serial_s,
                  "join_serial_untraced_s": untraced_s,
                  "join_parallel_traced_s": parallel_s,
                  "layer_pass_s": layer_span.duration},
        "self_times": {name: round(value, 6) for name, value in own.items()},
    }
