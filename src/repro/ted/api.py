"""Public entry points for tree edit distance computation.

``ted`` dispatches to one of the registered algorithms; ``ted_within`` is
the threshold-aware form every join uses for verification: it applies cheap
lower bounds first and only then runs the exact algorithm.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import InvalidParameterError
from repro.tree.node import Tree
from repro.ted.rted import ted_hybrid
from repro.ted.simple import ted_reference
from repro.ted.zhang_shasha import zhang_shasha

__all__ = ["ted", "ted_within", "TED_ALGORITHMS"]

RenameCost = Callable[[str, str], int]

TED_ALGORITHMS: dict[str, Callable[..., int]] = {
    "zhang_shasha": zhang_shasha,
    "rted": ted_hybrid,  # shape-adaptive hybrid; see repro.ted.rted
    "reference": ted_reference,
}


def ted(
    t1: Tree,
    t2: Tree,
    algorithm: str = "rted",
    rename_cost: Optional[RenameCost] = None,
) -> int:
    """Exact tree edit distance between two rooted ordered labeled trees.

    Parameters
    ----------
    t1, t2:
        The trees to compare.
    algorithm:
        One of ``"rted"`` (default; shape-adaptive, the paper's choice),
        ``"zhang_shasha"``, or ``"reference"`` (small trees only).
    rename_cost:
        Optional rename cost ``(label_a, label_b) -> int``; insert and
        delete always cost 1 (the paper's unit model).

    >>> ted(Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{c}}"))
    1
    """
    try:
        impl = TED_ALGORITHMS[algorithm]
    except KeyError:
        raise InvalidParameterError(
            f"unknown TED algorithm {algorithm!r}; "
            f"choose from {sorted(TED_ALGORITHMS)}"
        ) from None
    return impl(t1, t2, rename_cost)


def ted_within(
    t1: Tree,
    t2: Tree,
    tau: int,
    algorithm: str = "rted",
    use_bounds: bool = True,
) -> Optional[int]:
    """Return ``TED(t1, t2)`` if it is ``<= tau``, else ``None``.

    With ``use_bounds`` (default) the O(n) composite lower bound screens the
    pair before the exact computation; the result is identical either way
    because the bounds are proven lower bounds.  For the Zhang–Shasha-based
    algorithms (``"rted"``, ``"zhang_shasha"``) the exact computation is the
    tau-banded DP of :mod:`repro.ted.cutoff`: it runs only the keyroot
    pairs whose leftmost leaves lie within ``tau`` of each other, fills
    only the cells a ``<= tau`` distance can reach, keeps both tables in
    band-sized rows (``O(n * tau)`` memory rather than ``O(n1 * n2)``),
    and stops as soon as the threshold is provably exceeded.

    >>> a, b = Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a{b}{c}{d}}")
    >>> ted_within(a, b, 1) is None
    True
    >>> ted_within(a, b, 2)
    2
    """
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    if use_bounds:
        from repro.ted.bounds import composite_lower_bound

        if composite_lower_bound(t1, t2) > tau:
            return None
    if algorithm in ("zhang_shasha", "rted"):
        from repro.ted.cutoff import zhang_shasha_bounded
        from repro.ted.rted import MIRROR_SIZE_CUTOFF, oriented_pair

        if algorithm == "rted":
            # Orientation-adaptive, as ted_hybrid, but small pairs skip
            # the mirroring (the banded DP is cheap either way).
            a1, a2 = oriented_pair(t1, t2, size_cutoff=MIRROR_SIZE_CUTOFF)
        else:
            a1, a2 = t1, t2
        return zhang_shasha_bounded(a1, a2, tau)
    distance = ted(t1, t2, algorithm=algorithm)
    return distance if distance <= tau else None
