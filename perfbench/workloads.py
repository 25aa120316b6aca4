"""Seeded input generation for the benchmark workloads.

The generator is the benchmark's own: it builds trees as nested
``[label, children]`` lists with its own ``random.Random(seed)`` and
emits bracket strings, so the inputs of a seed stay byte-identical
whatever the program under test does to its tree model or its dataset
generators.  The program only ever receives the generated bracket file
(join workloads) or the parsed trees (``stream-serve``).

Shapes follow the synthetic model of the paper (Section 4): trees are
grown toward a per-tree target size by attaching each new node to a
uniformly random frontier node below the fanout and depth caps, then
perturbed with decay factor ``Dz`` to form clusters of near-duplicates.
The target sizes of a family's base trees are stratified too: evenly
spaced over the size range, in a seeded order, so every seed has the
same multiset of base sizes (the DP's cost grows with tree size).
A variant of a base tree of ``n`` nodes gets a Binomial(``n``, ``Dz``)
number of edits, each a uniform insert, delete or rename.  The counts are
drawn by stratified sampling: the ``k`` variants of a cluster take the
binomial's quantiles at ``(j + 1/2) / k`` in a seeded order.  Every
cluster then has the same spread of edit counts, the seed moves which
edits land where and on which labels, and the number of near-duplicate
pairs within ``tau`` -- the DP's work -- changes little from seed to
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LABELS = 20  # the paper's default label alphabet size (Table 1)


@dataclass(frozen=True)
class Shape:
    """One family of trees: the synthetic model's knobs."""

    avg_size: int
    fanout: int = 3
    depth: int = 5
    cluster: int = 4
    decay: float = 0.05
    spread: float = 0.25  # per-tree target size within avg_size * (1 +- spread)
    held_out: int = 1  # extra variants per base tree, kept as search queries


@dataclass(frozen=True)
class Workload:
    """What one workload feeds the program, and how it is driven."""

    name: str
    why: str
    tau: int
    families: tuple  # ((Shape, tree count), ...)
    workers: int = 1  # worker processes of the timed join
    # 0: searches run on the prepared session over the whole collection,
    # after the stream; n > 0: one search on the live stream index after
    # every n-th arrival.
    search_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="join-dense",
            why="dense near-duplicate clusters: verification (bounds + banded "
                "DP) dominates the join; the only workload with workers=2",
            tau=2,
            families=((Shape(150, fanout=4, depth=6, cluster=12, decay=0.02,
                             spread=0.1, held_out=20), 600),),
            workers=2,
        ),
        Workload(
            name="join-sparse",
            why="many small trees in pairs: cold load, preparation and candidate "
                "generation dominate; a DP change should not move it",
            tau=1,
            families=((Shape(80, cluster=2, decay=0.05, held_out=2), 2000),),
        ),
        Workload(
            name="stream-serve",
            why="arrivals through StreamingJoin with a WAL interleaved with "
                "searches on the same live index (closed loop, one client)",
            tau=2,
            families=((Shape(80, cluster=8, decay=0.03, held_out=16), 1000),),
            search_every=1,
        ),
    )
}


def _grow(rng: random.Random, shape: Shape, target: int) -> list:
    """One base tree grown to ``target`` nodes under the shape caps."""
    cap = sum(shape.fanout ** level for level in range(shape.depth + 1))
    target = max(1, min(target, cap))
    root = [rng.randrange(LABELS), []]
    frontier = [(root, 0)] if shape.depth > 0 else []
    size = 1
    while size < target and frontier:
        pick = rng.randrange(len(frontier))
        node, depth = frontier[pick]
        child = [rng.randrange(LABELS), []]
        node[1].append(child)
        size += 1
        if depth + 1 < shape.depth:
            frontier.append((child, depth + 1))
        if len(node[1]) >= shape.fanout:
            frontier[pick] = frontier[-1]
            frontier.pop()
    return root


def _copy(node: list) -> list:
    return [node[0], [_copy(child) for child in node[1]]]


def _nodes(root: list) -> list:
    """``(node, parent)`` pairs in preorder (the root's parent is None)."""
    out = []
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        out.append((node, parent))
        stack.extend((child, node) for child in reversed(node[1]))
    return out


def _edit(rng: random.Random, root: list) -> None:
    """One uniform insert / delete / rename, applied in place."""
    nodes = _nodes(root)
    op = rng.randrange(3)
    if op == 1 and len(nodes) == 1:
        op = 0  # never delete the root
    if op == 0:  # rename to a different label
        node, _ = nodes[rng.randrange(len(nodes))]
        node[0] = (node[0] + 1 + rng.randrange(LABELS - 1)) % LABELS
    elif op == 1:  # delete a non-root node, its children take its place
        node, parent = nodes[1 + rng.randrange(len(nodes) - 1)]
        at = next(k for k, child in enumerate(parent[1]) if child is node)
        parent[1][at:at + 1] = node[1]
    else:  # insert a node adopting a run of the parent's children
        parent, _ = nodes[rng.randrange(len(nodes))]
        lo = rng.randint(0, len(parent[1]))
        hi = rng.randint(lo, len(parent[1]))
        parent[1][lo:hi] = [[rng.randrange(LABELS), parent[1][lo:hi]]]


def _variant(rng: random.Random, base: list, edits: int) -> list:
    tree = _copy(base)
    for _ in range(edits):
        _edit(rng, tree)
    return tree


def binomial_quantile(n: int, p: float, q: float) -> int:
    """The smallest ``k`` with ``P(Binomial(n, p) <= k) >= q``."""
    if p >= 1.0:
        return n
    term = (1.0 - p) ** n
    cdf, k = term, 0
    while cdf < q and k < n:
        term *= (n - k) / (k + 1) * p / (1.0 - p)
        k += 1
        cdf += term
    return k


def edit_counts(rng: random.Random, n: int, decay: float, k: int) -> list[int]:
    """Stratified Binomial(n, decay) edit counts for ``k`` variants."""
    counts = [binomial_quantile(n, decay, (j + 0.5) / k) for j in range(k)]
    rng.shuffle(counts)
    return counts


def bracket(root: list) -> str:
    """Bracket notation of a nested-list tree (labels ``L0``..``L19``)."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            out.append("}")
            continue
        out.append("{L%d" % node[0])
        stack.append(None)
        stack.extend(reversed(node[1]))
    return "".join(out)


def base_sizes(rng: random.Random, shape: Shape, bases: int) -> list[int]:
    """Stratified target sizes for ``bases`` base trees: evenly spaced
    over ``avg_size * (1 +- spread)``, in a seeded order."""
    spread = shape.avg_size * shape.spread
    sizes = [round(shape.avg_size + spread * (2 * (b + 0.5) / bases - 1))
             for b in range(bases)]
    rng.shuffle(sizes)
    return sizes


def family(rng: random.Random, shape: Shape, count: int):
    """``count`` bracket trees in clusters of ``shape.cluster`` variants,
    plus ``shape.held_out`` further variants of every base as queries."""
    trees: list[str] = []
    queries: list[str] = []
    targets = base_sizes(rng, shape, -(-count // shape.cluster))
    while len(trees) < count:
        base = _grow(rng, shape, targets.pop())
        n = len(_nodes(base))
        members = min(shape.cluster, count - len(trees))
        for edits in edit_counts(rng, n, shape.decay, members):
            trees.append(bracket(_variant(rng, base, edits)))
        for edits in edit_counts(rng, n, shape.decay, shape.held_out):
            queries.append(bracket(_variant(rng, base, edits)))
    return trees, queries


def generate(workload: Workload, seed: int) -> tuple[list[str], list[str]]:
    """``(collection, queries)`` as bracket strings, a pure function of
    ``(workload, seed)``.

    The collection is shuffled into its arrival order (the order of the
    dataset file and of the stream).  Queries are held-out near-duplicates
    of collection trees, so searches find partners without the query
    being a member.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    trees: list[str] = []
    queries: list[str] = []
    for shape, count in workload.families:
        members, held_out = family(rng, shape, count)
        trees.extend(members)
        queries.extend(held_out)
    rng.shuffle(trees)
    rng.shuffle(queries)
    return trees, queries
