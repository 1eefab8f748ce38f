"""Constructive matchability checks.

For bipartite graphs with equal parts, a perfect matching exists iff every
subset W of part X sees at least |W| neighbors in Y; the checker returns an
explicit matching (augmenting paths) or a violating subset harvested from
the final alternating forest.  For general graphs the criterion is that
deleting any vertex set U leaves at most |U| odd components; the checker
returns a matching found by backtracking, skipping vertex sets from which
the search already failed, or a minimal violating subset.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DomainError, ScaleLimitError
from .graph import ExperimentGraph, _FrozenRecord
from .matching import Matching

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


def _matching_edge_ids(g: ExperimentGraph, pairs) -> Matching:
    """Pick the lowest-id edge for every matched vertex pair."""
    ids = []
    for a, b in pairs:
        connecting = sorted(
            e.id for e in g.edges if {e.u, e.v} == {a, b}
        )
        ids.append(connecting[0])
    return tuple(sorted(ids))


def hall_check(
    g: ExperimentGraph,
    parts: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> Matching | HallWitness:
    """Return a perfect matching or a Hall witness for a bipartite graph with
    equal part sizes.  ``parts`` pins the bipartition; by default it is
    detected by 2-coloring (lowest-index vertex of each component in X)."""
    if g.measured:
        raise DomainError("matchability checks apply to unmeasured graphs")
    if parts is None:
        part_x, part_y = g.bipartition()
    else:
        part_x = tuple(sorted(parts[0], key=g.index))
        part_y = tuple(sorted(parts[1], key=g.index))
        g.biadjacency((part_x, part_y))  # validates the pinned bipartition
    if len(part_x) != len(part_y):
        raise DomainError(
            f"parts have sizes {len(part_x)} and {len(part_y)}; a perfect "
            "matching needs equal parts",
            reason="unequal-parts",
        )

    neighbors: dict[str, list[str]] = {x: [] for x in part_x}
    for e in g.edges:
        x, y = (e.u, e.v) if e.u in neighbors else (e.v, e.u)
        if y not in neighbors[x]:
            neighbors[x].append(y)
    for adj in neighbors.values():
        adj.sort(key=g.index)

    match_of_y: dict[str, str] = {}

    def augment(x: str, visited: set[str]) -> bool:
        for y in neighbors[x]:
            if y in visited:
                continue
            visited.add(y)
            if y not in match_of_y or augment(match_of_y[y], visited):
                match_of_y[y] = x
                return True
        return False

    for x in part_x:
        augment(x, set())

    match_of_x = {x: y for y, x in match_of_y.items()}
    unmatched = [x for x in part_x if x not in match_of_x]
    if not unmatched:
        return _matching_edge_ids(g, sorted(match_of_x.items(), key=lambda p: g.index(p[0])))

    # Alternating reachability from every unmatched X vertex: each reachable
    # Y vertex is matched (else an augmenting path existed) and N(W) stays
    # inside the reachable set, so |N(W)| = |W| - |unmatched| < |W|.
    reachable_x = set(unmatched)
    reachable_y: set[str] = set()
    frontier = list(unmatched)
    while frontier:
        x = frontier.pop(0)
        for y in neighbors[x]:
            if y in reachable_y:
                continue
            reachable_y.add(y)
            partner = match_of_y.get(y)
            if partner is not None and partner not in reachable_x:
                reachable_x.add(partner)
                frontier.append(partner)

    subset_w = tuple(sorted(reachable_x, key=g.index))
    neighborhood = tuple(sorted(reachable_y, key=g.index))
    exact = set()
    for x in subset_w:
        exact.update(neighbors[x])
    assert exact == set(neighborhood) and len(neighborhood) < len(subset_w)
    return HallWitness(subset_w, neighborhood)


def _find_pm_pairs(adjacent: list[set[int]]) -> list[tuple[int, int]] | None:
    """First perfect matching, as vertex index pairs, found by pairing the
    lowest unmatched vertex with each unmatched neighbor in turn; None when
    the search exhausts.

    Whether the rest can be matched depends only on the set of vertices
    matched so far, so each set from which the search failed is remembered
    as a bitmask and not searched again.  Only failed subtrees are skipped,
    so the first matching found is unchanged."""
    n = len(adjacent)
    neighbors = [sorted(adj) for adj in adjacent]

    full = (1 << n) - 1
    failed: set[int] = set()
    pairs: list[tuple[int, int]] = []

    def rec(matched: int) -> bool:
        if matched == full:
            return True
        if matched in failed:
            return False
        free = ~matched & full
        u = (free & -free).bit_length() - 1
        for w in neighbors[u]:
            if matched >> w & 1:
                continue
            pairs.append((u, w))
            if rec(matched | 1 << u | 1 << w):
                return True
            pairs.pop()
        failed.add(matched)
        return False

    if n % 2 != 0 or not rec(0):
        return None
    return pairs


def _components(n: int, adjacent: list[set[int]], removed: set[int]) -> list[list[int]]:
    seen = set(removed)
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adjacent[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    frontier.append(w)
        comps.append(sorted(comp))
    return comps


def tutte_check(g: ExperimentGraph) -> Matching | TutteWitness:
    """Return a perfect matching or a minimal odd-components witness.

    The witness search enumerates subsets by increasing size with a
    lexicographic tie-break, so the first reported witness is minimal."""
    if g.measured:
        raise DomainError("matchability checks apply to unmeasured graphs")
    n = len(g.vertices)
    if n > TUTTE_VERTEX_LIMIT:
        raise ScaleLimitError(
            f"witness search on {n} vertices exceeds the guard (<= {TUTTE_VERTEX_LIMIT})"
        )

    adjacent: list[set[int]] = [set() for _ in range(n)]
    for e in g.edges:
        i, j = g.index(e.u), g.index(e.v)
        adjacent[i].add(j)
        adjacent[j].add(i)

    pairs = _find_pm_pairs(adjacent)
    if pairs is not None:
        return _matching_edge_ids(g, [(g.vertices[a], g.vertices[b]) for a, b in pairs])

    for size in range(0, n + 1):
        for subset in combinations(range(n), size):
            removed = set(subset)
            odd = [c for c in _components(n, adjacent, removed) if len(c) % 2 == 1]
            if len(odd) > size:
                return TutteWitness(
                    tuple(g.vertices[i] for i in subset),
                    tuple(tuple(g.vertices[i] for i in comp) for comp in odd),
                )
    raise AssertionError("no matching and no witness: unreachable for valid graphs")
