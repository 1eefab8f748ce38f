"""Constructive matchability checks.

Both checks read a graph as one bitmask of neighbours per vertex, indexed
in declaration order, as the bipartition does.  For bipartite graphs with
equal parts, a perfect matching exists iff every subset W of part X sees at
least |W| neighbors in Y; the checker returns an explicit matching
(augmenting paths) or a violating subset read from the Y vertices that
the final, failing searches from the unmatched X vertices reach.  For
general graphs the criterion is that deleting any vertex set U leaves at
most |U| odd components; the checker returns a matching found by
backtracking, skipping vertex sets from which the search already failed,
or a minimal violating subset.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DomainError, ScaleLimitError
from .graph import ExperimentGraph, _bits, _FrozenRecord

__all__ = [
    "HallWitness",
    "TutteWitness",
    "hall_check",
    "tutte_check",
    "TUTTE_VERTEX_LIMIT",
]

TUTTE_VERTEX_LIMIT = 20


class HallWitness(_FrozenRecord):
    """Subset of part X whose exact neighborhood in Y is smaller than it."""

    subset_w: tuple[str, ...]
    neighborhood: tuple[str, ...]


class TutteWitness(_FrozenRecord):
    """Vertex subset whose removal leaves more odd components than |U|."""

    subset_u: tuple[str, ...]
    odd_components: tuple[tuple[str, ...], ...]


def _matching_edge_ids(g: ExperimentGraph, pairs) -> tuple[str, ...]:
    """The lowest-id edge of every matched vertex index pair, sorted."""
    lowest: dict[tuple[int, int], str] = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        lowest.setdefault((g._index[e.u], g._index[e.v]), e.id)
    return tuple(sorted(lowest[min(pair), max(pair)] for pair in pairs))


def hall_check(
    g: ExperimentGraph,
    parts: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[str, ...] | HallWitness:
    """Return a perfect matching or a Hall witness for a bipartite graph with
    equal part sizes.  ``parts`` pins the bipartition; by default it is
    detected by 2-coloring (lowest-index vertex of each component in X)."""
    if g.measured:
        raise DomainError("matchability checks apply to unmeasured graphs")
    masks = g._neighbour_masks()
    part_x, part_y = g._sides(masks, parts)
    if part_x.bit_count() != part_y.bit_count():
        raise DomainError(
            f"parts have sizes {part_x.bit_count()} and {part_y.bit_count()}; a perfect "
            "matching needs equal parts",
            reason="unequal-parts",
        )

    match_of_y = [-1] * len(masks)
    visited = 0

    def augment(x: int) -> bool:
        nonlocal visited
        while unvisited := masks[x] & ~visited:
            low = unvisited & -unvisited
            visited |= low
            y = low.bit_length() - 1
            if match_of_y[y] < 0 or augment(match_of_y[y]):
                match_of_y[y] = x
                return True
        return False

    unmatched = []
    for x in _bits(part_x):
        visited = 0
        if not augment(x):
            unmatched.append(x)
    # The matching is now maximum, so a search from each unmatched X vertex
    # fails and changes no partner; under one visited set, never reset, the
    # searches mark every Y vertex an alternating path reaches.  Each is
    # matched, and W, the unmatched vertices and those partners, has
    # N(W) = visited, so |N(W)| = |W| - |unmatched| < |W|.
    visited = 0
    for x in unmatched:
        if augment(x):
            raise AssertionError("an augmenting path survived Kuhn's algorithm")
    augment = None  # the closure refers to itself; drop the cycle before returning
    if not unmatched:
        return _matching_edge_ids(g, ((x, y) for y, x in enumerate(match_of_y) if x >= 0))
    reachable_x = sum(1 << x for x in unmatched) | sum(1 << match_of_y[y] for y in _bits(visited))
    assert visited.bit_count() < reachable_x.bit_count()
    return HallWitness(
        tuple(g.vertices[i] for i in _bits(reachable_x)),
        tuple(g.vertices[i] for i in _bits(visited)),
    )


def _find_pm_pairs(masks: list[int]) -> list[tuple[int, int]] | None:
    """First perfect matching, as vertex index pairs, found by pairing the
    lowest unmatched vertex with each unmatched neighbor in turn; None when
    the search exhausts.

    Whether the rest can be matched depends only on the set of vertices
    matched so far, so each set from which the search failed is remembered
    as a bitmask and not searched again.  Only failed subtrees are skipped,
    so the first matching found is unchanged."""
    full = (1 << len(masks)) - 1
    failed: set[int] = set()
    pairs: list[tuple[int, int]] = []

    def rec(matched: int) -> bool:
        if matched == full:
            return True
        if matched in failed:
            return False
        free = ~matched & full
        low = free & -free
        u = low.bit_length() - 1
        for w in _bits(masks[u] & free):
            pairs.append((u, w))
            if rec(matched | low | 1 << w):
                return True
            pairs.pop()
        failed.add(matched)
        return False

    found = rec(0)
    rec = None  # the closure refers to itself; drop the cycle before returning
    return pairs if found else None


def _odd_components(masks: list[int], live: int) -> list[int]:
    """The odd components of the graph on the ``live`` vertices, as
    bitmasks, in the order of their lowest vertex."""
    odd = []
    while live:
        comp = frontier = live & -live
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= masks[v]
            frontier = reach & live & ~comp
            comp |= frontier
        live &= ~comp
        if comp.bit_count() % 2 == 1:
            odd.append(comp)
    return odd


def tutte_check(g: ExperimentGraph) -> tuple[str, ...] | TutteWitness:
    """Return a perfect matching or a minimal odd-components witness.

    The witness search enumerates subsets by increasing size with a
    lexicographic tie-break, so the first reported witness is minimal.  Its
    first subset, U = {}, is tried before the matching search, so a graph
    with an odd component (any graph of odd order) needs no backtracking."""
    if g.measured:
        raise DomainError("matchability checks apply to unmeasured graphs")
    n = len(g.vertices)
    if n > TUTTE_VERTEX_LIMIT:
        raise ScaleLimitError(
            f"witness search on {n} vertices exceeds the guard (<= {TUTTE_VERTEX_LIMIT})"
        )

    def witness(removed: int, odd: list[int]) -> TutteWitness:
        return TutteWitness(
            tuple(g.vertices[i] for i in _bits(removed)),
            tuple(tuple(g.vertices[i] for i in _bits(comp)) for comp in odd),
        )

    masks = g._neighbour_masks()
    full = (1 << n) - 1
    odd = _odd_components(masks, full)
    if odd:  # U = {} is the first subset of the search: no backtracking needed
        return witness(0, odd)
    pairs = _find_pm_pairs(masks)
    if pairs is not None:
        return _matching_edge_ids(g, pairs)

    for size in range(1, n + 1):
        for subset in combinations([1 << i for i in range(n)], size):
            removed = sum(subset)
            odd = _odd_components(masks, full & ~removed)
            if len(odd) > size:
                return witness(removed, odd)
    raise AssertionError("no matching and no witness: unreachable for valid graphs")
