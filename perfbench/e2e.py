"""End-to-end measurement: what a user of the system waits for.

Tracing is off throughout.  One run alternates two kinds of step until
``--seconds`` are spent, so that every metric's samples are spread over
the whole run (a shared host drifts in speed from one minute to the
next) and every metric is a median over many samples or many passes:

1. **Session units.**  Each unit is a cold set-up -- ``from_file`` on
   the dataset with no ``.repro-idx`` sidecar, then ``prepare(tau)`` --
   followed by the first ``join(tau, workers=W).run()`` on that fresh
   session, so the result cache cannot answer.  ``setup_s`` and
   ``join_s`` are the medians over the units.
2. **Serving passes.**  A fresh ``StreamingJoin(tau, workers=1)`` with a
   write-ahead log (``fsync="batch"``) ingests the collection, flushing
   every ``FLUSH_EVERY`` arrivals.  The first pass takes the dataset's
   order; every later pass a seeded reshuffle of it, so the passes
   cover several arrival orders instead of repeating one.  On
   ``stream-serve`` one ``searcher().search(q)`` runs on the live index
   after every ``search_every`` arrivals (closed loop, one client); on
   the join workloads the next ``SEARCHES_PER_PASS`` held-out queries in
   turn are searched on a freshly prepared session after the stream.
   ``ingest_p*`` and ``search_p*`` are percentiles of a pass's per-call
   latencies and ``ingest_trees_per_s`` its arrivals over its time spent
   in ``add()`` and ``flush()``, each the median over the passes.

The run starts with a unit, then a pass, then a unit, and so on
(:func:`next_step`) until the deadline.  Every join must return the pairs
of the first; every arrival must return exactly the batch pairs that
close on it in that pass's order; a sample of pairs and searches is
rechecked against unbounded TED (:mod:`checks`).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from pathlib import Path

import checks
from repro.obs.trace import NULL_TRACER

FLUSH_EVERY = 100  # StreamingJoin.flush() after every n-th arrival
MIN_UNITS = 2  # session units per run, whatever the time budget
MIN_PASSES = 1  # serving passes per run, whatever the time budget
SEARCHES_PER_PASS = 500  # session searches per pass on the join workloads
ORACLE_BUDGET_S = 1.0  # unbounded-TED pair rechecks per run
SEARCH_BUDGET_S = 1.0  # brute-force search rechecks per run
SEARCH_CHECK_COST = 400_000  # node-product cap for one search recheck


class GuardError(RuntimeError):
    """A measurement precondition does not hold; nothing may be timed."""


def sidecar_guard(path: Path) -> None:
    from repro.persist.snapshot import sidecar_path

    if sidecar_path(path).exists():
        raise GuardError(f"{sidecar_path(path)} exists: set-up would be warm")


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Highest RSS of this process and of its reaped children (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 8 - len(self.problems))])

    def note(self, problems) -> None:
        """Problems found by a later recheck of an operation already
        counted (an oracle sample, the stream's final state)."""
        if problems:
            self.failed = min(self.failed + 1, max(self.attempted, 1))
            self.problems.extend(problems[: max(0, 8 - len(self.problems))])


def session_unit(workload, path: Path, tally: Tally, units: dict) -> None:
    """One session unit: cold set-up, then the first join on that session.

    Appends to ``units["setup"]`` and ``units["join"]``; the first join's
    pairs become ``units["reference"]``, which every later join must
    return again.
    """
    from repro.errors import ReproError
    from repro.session import TreeCollection

    sidecar_guard(path)
    gc.collect()
    started = time.perf_counter()
    col = TreeCollection.from_file(path)
    col.prepare(workload.tau)
    ready = time.perf_counter()
    if col.stats()["cached_results"]:
        raise GuardError("a fresh session already holds cached results")
    try:
        result = col.join(workload.tau, workers=workload.workers).run()
    except ReproError as exc:
        tally.record([f"join raised {exc!r}"])
        return
    finished = time.perf_counter()
    units["setup"].append(ready - started)
    units["join"].append(finished - ready)
    got = checks.rows(result.pairs)
    if units["reference"] is None:
        units["reference"] = got
        units["backend"] = result.stats.extra.get("backend")
    tally.record(checks.diff_rows(units["reference"], got, "repeated join"))


def serving_pass(workload, trees, order, run: int, queries, reference,
                 wal: Path, tally: Tally, samples: dict, searched: list,
                 tracer=NULL_TRACER):
    """One stream of arrivals of ``trees`` in ``order`` (collection
    indices), with interleaved searches when ``workload.search_every`` is
    set.

    The stream numbers trees by arrival, so ``reference`` (collection
    indices) is renumbered before every arrival's pairs are checked.
    Appends latencies to ``samples`` and the searches of pass ``run`` to
    ``searched``; returns the engine's ``StreamStats``.
    ``tracer`` (the traced run) also wraps every ``add()`` and search in
    a span.
    """
    from repro.errors import ReproError
    from repro.stream import StreamingJoin

    arrival = [0] * len(order)
    for n, index in enumerate(order):
        arrival[index] = n
    expected = [(min(arrival[i], arrival[j]), max(arrival[i], arrival[j]), d)
                for i, j, d in reference]
    closing = {}
    for row in expected:
        closing.setdefault(row[1], set()).add(row)
    adds, flushes = samples["add"], samples["flush"]

    def flush() -> None:
        started = time.perf_counter()
        join.flush()
        flushes.append(time.perf_counter() - started)

    if wal.exists():
        wal.unlink()
    gc.collect()
    join = StreamingJoin(workload.tau, workers=1, wal=str(wal),
                         wal_fsync="batch", tracer=tracer)
    try:
        for n, index in enumerate(order):
            started = time.perf_counter()
            try:
                with tracer.span("stream.add"):
                    found = join.add(trees[index])
            except ReproError as exc:
                tally.record([f"add({n}) raised {exc!r}"])
                continue
            adds.append(time.perf_counter() - started)
            got = {(p.i, p.j, p.distance) for p in found}
            tally.record(checks.diff_rows(closing.get(n, set()), got,
                                          f"arrival {n}"))
            if (n + 1) % FLUSH_EVERY == 0:
                flush()
            if workload.search_every and (n + 1) % workload.search_every == 0:
                timed_search(join.searcher().search, queries, run, n + 1,
                             tally, samples, searched, tracer)
        flush()
        tally.note(checks.diff_rows(expected, checks.rows(join.results()),
                                    "stream after flush"))
        stats = join.stats()
    finally:
        join.close()
    return stats


def timed_search(search, queries, run: int, prefix: int, tally: Tally,
                 samples: dict, searched: list, tracer=NULL_TRACER) -> None:
    """One search for the next query in turn, over the first ``prefix``
    arrivals of serving pass ``run``.

    The search is recorded as ``(run, prefix, query index, ((index,
    distance), ...))``: plain ints, which the garbage collector stops
    tracking, so the record does not add to the collections it times.
    """
    from repro.errors import ReproError

    k = len(searched) % len(queries)
    started = time.perf_counter()
    try:
        with tracer.span("search"):
            hits = search(queries[k])
    except ReproError as exc:
        tally.record([f"search({k}) raised {exc!r}"])
        return
    samples["search"].append(time.perf_counter() - started)
    tally.record([])
    searched.append((run, prefix, k,
                     tuple((hit.index, hit.distance) for hit in hits)))


def session_searches(trees, workload, queries, tally: Tally, samples: dict,
                     searched: list, tracer=NULL_TRACER) -> None:
    """The next ``SEARCHES_PER_PASS`` held-out queries in turn against
    the whole collection, on a freshly prepared session (built untimed),
    so every pass starts equally cold."""
    from repro.session import TreeCollection

    col = TreeCollection.from_trees(trees)
    col.searcher(workload.tau)  # prepares and builds the search index
    search = lambda query: col.search(query, workload.tau).run()  # noqa: E731
    gc.collect()
    for _ in range(SEARCHES_PER_PASS):
        timed_search(search, queries, 0, len(trees), tally, samples,
                     searched, tracer)


def check_searches(trees, queries, tau: int, searched, orders, rng,
                   budget_s: float, tally: Tally) -> int:
    """Brute-force rechecks of a seeded sample of searches, within budget
    (at least one when any search is cheap enough to recheck).

    ``orders[run]`` is the arrival order of serving pass ``run`` (the
    session searches of the join workloads are over the collection in
    file order, i.e. pass 0's).
    """
    order = list(searched)
    rng.shuffle(order)
    deadline = time.perf_counter() + budget_s
    done = 0
    for run, prefix, k, found in order:
        if done and time.perf_counter() > deadline:
            break
        hits = [checks.Hit(index, distance) for index, distance in found]
        live = [trees[index] for index in orders[run][:prefix]]
        indices = checks.search_plan(live, queries[k], tau, hits, rng,
                                     SEARCH_CHECK_COST)
        if indices is None:
            continue
        tally.note(checks.oracle_search(live, queries[k], tau, hits, indices))
        done += 1
    return done


def next_step(walls: dict, have_reference: bool, left: float):
    """``"unit"``, ``"pass"`` or ``None`` (the run is over).

    Units and passes take turns, starting with a unit; a pass needs the
    first join's pairs.  Until ``MIN_UNITS`` units and ``MIN_PASSES``
    passes are done the turn is kept whatever the time; after that a
    step starts only if the median wall time of its kind fits in the
    ``left`` seconds, and the other kind steps in when it does not.
    """
    units, passes = len(walls["unit"]), len(walls["pass"])
    if not have_reference:
        turn = ["unit"]
    else:
        turn = ["unit", "pass"] if units <= passes else ["pass", "unit"]
    if units < MIN_UNITS or passes < MIN_PASSES:
        return turn[0]
    for kind in turn:
        if statistics.median(walls[kind]) <= left:
            return kind
    return None


def measure(workload, trees_text, queries_text, seconds: float,
            work: Path, seed: int) -> dict:
    from repro.tree.bracket import parse_bracket

    path = work / "collection.txt"
    path.write_text("\n".join(trees_text) + "\n", encoding="utf-8")
    wal = work / "stream.wal"
    trees = [parse_bracket(text) for text in trees_text]
    queries = [parse_bracket(text) for text in queries_text]
    tally = Tally()
    units = {"setup": [], "join": [], "reference": None, "backend": None}
    passes: list[dict] = []  # per serving pass: its latency samples
    searched: list = []
    walls = {"unit": [], "pass": []}  # wall time of every step, by kind
    orders = [list(range(len(trees)))]  # pass 0: the dataset's order
    reshuffle = random.Random(f"arrivals/{seed}")
    deadline = time.perf_counter() + seconds
    while True:
        if units["reference"] is None and tally.failed >= MIN_UNITS:
            raise GuardError("no join completed: " + "; ".join(tally.problems))
        kind = next_step(walls, units["reference"] is not None,
                         deadline - time.perf_counter())
        if kind is None:
            break
        begun = time.perf_counter()
        if kind == "unit":
            session_unit(workload, path, tally, units)
        else:
            run = len(walls["pass"])
            samples = {"add": [], "flush": [], "search": []}
            passes.append(samples)
            serving_pass(workload, trees, orders[run], run, queries,
                         units["reference"], wal, tally, samples, searched)
            if not workload.search_every:
                session_searches(trees, workload, queries, tally, samples,
                                 searched)
            orders.append(list(orders[0]))
            reshuffle.shuffle(orders[-1])
        walls[kind].append(time.perf_counter() - begun)
    rss = peak_rss_mb()
    reference = units["reference"]

    # Oracle rechecks, outside every timed region.
    rng = random.Random(seed)
    checked, problems = checks.oracle_pairs(
        trees, workload.tau, reference, seed, ORACLE_BUDGET_S
    )
    tally.note(problems)
    search_checks = check_searches(trees, queries, workload.tau, searched,
                                   orders, rng, SEARCH_BUDGET_S, tally)
    if wal.exists():
        wal.unlink()

    def over_passes(key: str, stat) -> float:
        """Median over the serving passes of ``stat`` of a pass's samples:
        a burst of host load that slows one pass moves one value."""
        return statistics.median(stat(p) for p in passes if p[key])

    metrics = {
        "setup_s": (statistics.median(units["setup"]), "s"),
        "join_s": (statistics.median(units["join"]), "s"),
        "ingest_p50_ms": (
            1e3 * over_passes("add", lambda p: statistics.median(p["add"])),
            "ms"),
        "ingest_p90_ms": (
            1e3 * over_passes("add", lambda p: percentile(p["add"], 90)),
            "ms"),
        "ingest_trees_per_s": (
            over_passes("add", lambda p: len(p["add"])
                        / (sum(p["add"]) + sum(p["flush"]))),
            "trees/s"),
        "search_p50_ms": (
            1e3 * over_passes("search",
                              lambda p: statistics.median(p["search"])),
            "ms"),
        "search_p90_ms": (
            1e3 * over_passes("search", lambda p: percentile(p["search"], 90)),
            "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "metrics": metrics,
        "tally": tally,
        "samples": {
            "units": len(units["join"]), "passes": len(walls["pass"]),
            "add": sum(len(p["add"]) for p in passes),
            "search": sum(len(p["search"]) for p in passes),
            "oracle_pairs": checked, "search_checks": search_checks,
        },
        "backend": units["backend"],
        "results": len(reference),
    }
