"""Output checks: every result the benchmark times is checked here.

Three kinds of check feed ``failed`` (and so the error rate):

- **Agreement.**  Pair lists ``(i, j, distance)`` from different
  execution paths of the same input must be identical
  (:func:`diff_rows`).
- **Oracle sample.**  A seeded sample of accepted pairs, of rejected
  pairs inside the size window and (when the candidate list is known)
  of verifier-rejected candidates is recomputed with the *unbounded*
  :func:`repro.ted.zhang_shasha.zhang_shasha` -- never with the banded
  DP or the bounds the join itself uses (:func:`oracle_pairs`).
- **Search brute force.**  A sampled search's hits must equal the trees
  of the searched prefix within ``tau`` by unbounded TED
  (:func:`oracle_search`); where the whole size window is too costly,
  every hit and a seeded sample of the window's non-hits are rechecked
  (:func:`search_plan`).

Unbounded TED is expensive on large trees, so the oracle samples run
under a time budget, always checking at least one pair of each class
that has one.  :func:`selftest` feeds the checkers a corrupted pair list
and a wrong distance and fails unless both are caught; every benchmark
run calls it before measuring, and ``python3 perfbench/checks.py`` runs
it on its own.
"""

from __future__ import annotations

import random
import sys
import time


def rows(pairs) -> list[tuple[int, int, int]]:
    """Canonical sorted ``(i, j, distance)`` rows of join pairs."""
    return sorted((p.i, p.j, p.distance) for p in pairs)


def diff_rows(expected, got, label: str) -> list[str]:
    """Human-readable differences between two row lists (empty: equal)."""
    expected, got = set(expected), set(got)
    problems = []
    for row in sorted(expected - got)[:3]:
        problems.append(f"{label}: missing or wrong pair {row}")
    for row in sorted(got - expected)[:3]:
        problems.append(f"{label}: unexpected pair {row}")
    return problems


def _ted(trees, i: int, j: int) -> int:
    from repro.ted.zhang_shasha import AnnotatedTree, zhang_shasha

    return zhang_shasha(AnnotatedTree(trees[i]), AnnotatedTree(trees[j]))


def oracle_pairs(trees, tau: int, result_rows, seed: int, budget_s: float,
                 candidates=None) -> tuple[int, list[str]]:
    """Recheck a seeded sample of pairs with unbounded Zhang-Shasha.

    Classes: accepted pairs (the distance must match), size-window pairs
    absent from the result (TED must exceed ``tau``) and, when
    ``candidates`` is given, candidates the verifier rejected.  Classes
    are visited round-robin, cheapest-first within a seeded shuffle,
    until ``budget_s`` is spent.  Returns ``(checked, problems)``.
    """
    rng = random.Random(seed)
    accepted = {(i, j): d for i, j, d in result_rows}
    sizes = [t.size for t in trees]
    order = sorted(range(len(trees)), key=lambda k: sizes[k])
    window = []
    for a, i in enumerate(order):
        for j in order[a + 1:]:
            if sizes[j] - sizes[i] > tau:
                break
            pair = (i, j) if i < j else (j, i)
            if pair not in accepted:
                window.append(pair)
    classes = {"accepted": sorted(accepted), "window": window}
    if candidates is not None:
        classes["rejected"] = sorted(
            {(min(p), max(p)) for p in candidates} - set(accepted)
        )
    for name, pairs in classes.items():
        # Sample a few dozen at random, then try the cheapest first, so
        # the budget covers as many distinct pairs as it can.
        pairs = rng.sample(pairs, min(len(pairs), 48))
        pairs.sort(key=lambda p: sizes[p[0]] * sizes[p[1]])
        classes[name] = pairs
    checked = 0
    problems: list[str] = []
    deadline = time.perf_counter() + budget_s
    queues = [(name, iter(pairs)) for name, pairs in classes.items() if pairs]
    rounds = 0
    while queues and (rounds == 0 or time.perf_counter() < deadline):
        rounds += 1
        for name, queue in list(queues):
            pair = next(queue, None)
            if pair is None:
                queues.remove((name, queue))
                continue
            distance = _ted(trees, *pair)
            checked += 1
            if name == "accepted":
                if distance != accepted[pair]:
                    problems.append(
                        f"oracle: pair {pair} reported at distance "
                        f"{accepted[pair]}, TED is {distance}"
                    )
            elif distance <= tau:
                problems.append(
                    f"oracle: pair {pair} missing from the result, "
                    f"TED {distance} <= tau {tau}"
                )
    return checked, problems


def search_plan(prefix, query, tau: int, hits, rng, cap: int):
    """Which prefix trees a search recheck recomputes, or ``None``.

    Every tree of the size window when their unbounded-TED cost (node
    products) fits ``cap``; otherwise every hit plus four seeded non-hits
    of the window, if those fit.
    """
    n = query.size
    window = [i for i, t in enumerate(prefix) if abs(t.size - n) <= tau]
    cost = lambda ids: sum(prefix[i].size * n for i in ids)  # noqa: E731
    if cost(window) <= cap:
        return window
    hit_ids = {hit.index for hit in hits}
    others = [i for i in window if i not in hit_ids]
    chosen = sorted(hit_ids) + rng.sample(others, min(4, len(others)))
    return chosen if cost(chosen) <= cap else None


class Hit:
    """A search hit as the checks read it: a prefix index and a distance."""

    def __init__(self, index: int, distance: int):
        self.index, self.distance = index, distance


def oracle_search(prefix, query, tau: int, hits, indices=None) -> list[str]:
    """Search hits against unbounded TED over ``indices`` of the prefix
    (default: the whole size window -- brute force)."""
    from repro.ted.zhang_shasha import AnnotatedTree, zhang_shasha

    if indices is None:
        indices = [i for i, t in enumerate(prefix)
                   if abs(t.size - query.size) <= tau]
    expected = set()
    annotated_query = AnnotatedTree(query)
    for index in indices:
        distance = zhang_shasha(AnnotatedTree(prefix[index]), annotated_query)
        if distance <= tau:
            expected.add((index, distance))
    checked = set(indices)
    got = {(hit.index, hit.distance) for hit in hits if hit.index in checked}
    problems = diff_rows(expected, got, "search")
    problems += [f"search: hit {hit.index} is outside the size window"
                 for hit in hits
                 if abs(prefix[hit.index].size - query.size) > tau]
    return problems


def selftest() -> list[str]:
    """Show the checkers catch corruption; returns problems (empty: ok)."""
    from repro.tree.node import Tree

    trees = [
        Tree.from_bracket(text)
        for text in (
            "{a{b}{c{d}{e}}}",
            "{a{b}{c{d}}}",
            "{a{b}{c{x}{e}}}",
            "{q{r}{s}{t}{u}}",
        )
    ]
    tau = 1
    truth = [(0, 1, 1), (0, 2, 1)]
    problems = []
    if diff_rows(truth, list(truth), "selftest"):
        problems.append("selftest: identical pair lists reported different")
    corrupted = [(0, 1, 1), (1, 2, 1)]  # one pair dropped, one invented
    if not diff_rows(truth, corrupted, "selftest"):
        problems.append("selftest: corrupted pair list not detected")
    wrong_distance = [(0, 1, 1), (0, 2, 0)]
    if not diff_rows(truth, wrong_distance, "selftest"):
        problems.append("selftest: wrong distance not detected by diff")
    _, found = oracle_pairs(trees, tau, wrong_distance, 0, 1.0)
    if not found:
        problems.append("selftest: wrong distance not detected by the oracle")
    _, found = oracle_pairs(trees, tau, [(0, 1, 1)], 0, 1.0)
    if not found:
        problems.append("selftest: missing pair not detected by the oracle")
    _, found = oracle_pairs(trees, tau, truth, 0, 1.0)
    if found:
        problems.append(f"selftest: oracle rejects a correct result: {found}")

    if not oracle_search(trees[1:], trees[0], tau, [Hit(0, 0)]):
        problems.append("selftest: wrong search hit not detected")
    if oracle_search(trees[1:], trees[0], tau, [Hit(0, 1), Hit(1, 1)]):
        problems.append("selftest: correct search hits rejected")
    return problems


if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failures = selftest()
    for line in failures:
        print(line)
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)
