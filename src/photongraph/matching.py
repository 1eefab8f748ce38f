"""Perfect matchings and coincidence covers.

A perfect matching is an edge subset covering every vertex exactly once;
it is the graph-side picture of an n-fold coincidence.  Measured (merged)
vertices absorb two photons and must be covered exactly twice; covers of
graphs with measured vertices are called coincidence covers.  One walk,
``_covers``, lists them all: it covers the lowest vertex still in need
completely at each step, so each cover appears once.  The GHZ-dimension
scan and the target search take the pairings of K_n from the same walk;
1-factorizations are searched over bitsets of the candidate matchings.

Counting perfect matchings is #P-complete, so every operation here is an
exact exponential algorithm behind an explicit scale guard.  The default
guards (24 vertices / 60 edges for enumeration, 10 vertices for the pruned
search over families of disjoint pairings behind the GHZ-dimension scan)
can be overridden by the caller.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations

from .errors import DomainError, ScaleLimitError
from .graph import ExperimentGraph, _FrozenRecord, _graph_from_pairs

__all__ = [
    "Matching",
    "Factorization",
    "LayerReport",
    "enumerate_pm",
    "count_pm_formula",
    "max_disjoint_pms",
    "ghz_dimension_bound",
    "enumerate_factorizations",
    "classify_layers",
    "scan_ghz_dimension",
    "is_coincidence_cover",
    "VERTEX_LIMIT",
    "EDGE_LIMIT",
    "SCAN_VERTEX_LIMIT",
]

# A matching is a sorted tuple of edge ids.
Matching = tuple[str, ...]

VERTEX_LIMIT = 24
EDGE_LIMIT = 60
SCAN_VERTEX_LIMIT = 10


class Factorization(_FrozenRecord):
    """Partition of the whole edge set into pairwise disjoint matchings."""

    factors: tuple[Matching, ...]


class LayerReport(_FrozenRecord):
    """Perfect matchings split into those equal to one tagged layer and the
    maverick ones assembled from several layers."""

    layer_matchings: tuple[Matching, ...]
    maverick_matchings: tuple[Matching, ...]


def _check_scale(g: ExperimentGraph, override_limits: bool):
    if override_limits:
        return
    if len(g.vertices) > VERTEX_LIMIT or len(g.edges) > EDGE_LIMIT:
        raise ScaleLimitError(
            f"graph with |V|={len(g.vertices)}, |E|={len(g.edges)} exceeds the "
            f"enumeration guard (|V|<={VERTEX_LIMIT}, |E|<={EDGE_LIMIT}); "
            "pass override_limits=True to force"
        )


def _covers(need: list[int], ends: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every edge subset meeting each vertex v exactly ``need[v]`` times, as
    sorted tuples of indices into ``ends`` (the edges as vertex index pairs).
    Each step covers the lowest vertex with need left completely, by one edge
    or an unordered pair of its free edges, so every cover is produced once:
    an edge to a covered vertex is never free again.  A step lowers only the
    needs of the ends it takes, and restores them on return."""
    incident: list[list[tuple[int, int]]] = [[] for _ in need]
    for k, (a, b) in enumerate(ends):
        incident[a].append((k, b))
        incident[b].append((k, a))
    out: list[tuple[int, ...]] = []

    def rec(v: int, chosen: tuple[int, ...]):
        while v < len(need) and not need[v]:
            v += 1
        if v == len(need):
            out.append(tuple(sorted(chosen)))
        elif need[v] == 1:
            need[v] = 0
            for k, w in incident[v]:
                if need[w]:
                    need[w] -= 1
                    rec(v + 1, chosen + (k,))
                    need[w] += 1
            need[v] = 1
        else:
            need[v] = 0
            for (k, w), (l, x) in combinations([(k, w) for k, w in incident[v] if need[w]], 2):
                if w != x or need[w] > 1:
                    need[w] -= 1
                    need[x] -= 1
                    rec(v + 1, chosen + (k, l))
                    need[w] += 1
                    need[x] += 1
            need[v] = 2

    rec(0, ())
    return out


def _index_covers(g: ExperimentGraph, override_limits: bool) -> tuple[list[str], list[tuple[int, ...]]]:
    """The id-sorted edge ids, and the sorted covers as tuples of indices into them."""
    _check_scale(g, override_limits)
    edges = sorted(g.edges, key=lambda e: e.id)
    need = [2 if v in g.measured else 1 for v in g.vertices]
    return [e.id for e in edges], sorted(_covers(need, [(g.index(e.u), g.index(e.v)) for e in edges]))


def enumerate_pm(g: ExperimentGraph, *, override_limits: bool = False) -> list[Matching]:
    """All perfect matchings (coincidence covers when vertices are measured),
    duplicate-free and sorted lexicographically by edge-id tuple."""
    ids, covers = _index_covers(g, override_limits)
    return [tuple(map(ids.__getitem__, cover)) for cover in covers]


def is_coincidence_cover(g: ExperimentGraph, edge_ids) -> bool:
    """Exact degree check: one incidence per plain vertex, two per measured."""
    ids = list(edge_ids)
    if len(set(ids)) != len(ids):
        return False
    count = {v: 0 for v in g.vertices}
    for edge_id in ids:
        e = g.edge_by_id(edge_id)
        count[e.u] += 1
        count[e.v] += 1
    return all(count[v] == (2 if v in g.measured else 1) for v in g.vertices)


def count_pm_formula(n: int) -> int:
    """Exact number of perfect matchings of the complete graph K_{2n}:
    (2n)! / (n! 2^n)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"half vertex count must be a positive integer, got {n!r}")
    return math.factorial(2 * n) // (math.factorial(n) * 2**n)


def max_disjoint_pms(
    g: ExperimentGraph, *, override_limits: bool = False
) -> tuple[int, list[Matching]]:
    """Largest pairwise edge-disjoint subset of all perfect matchings.

    Exact backtracking over the enumerated matching list with bitset edge
    masks; among maximum witnesses the lexicographically first one is
    returned.  Every cover takes one edge end at a plain vertex and two at a
    measured one, so no more than min over v of deg(v) // need(v) covers
    are pairwise disjoint; the search stops once it holds that many."""
    ids, covers = _index_covers(g, override_limits)
    masks = [sum(1 << k for k in cover) for cover in covers]
    cap = min(
        (g.degree(v) // (2 if v in g.measured else 1) for v in g.vertices),
        default=len(masks),
    )

    best: list[int] = []

    def dfs(start: int, used: int, chosen: list[int]):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        for i in range(start, len(masks)):
            if len(best) == cap or len(chosen) + (len(masks) - i) <= len(best):
                break
            if masks[i] & used:
                continue
            chosen.append(i)
            dfs(i + 1, used | masks[i], chosen)
            chosen.pop()

    dfs(0, 0, [])
    return len(best), [tuple(map(ids.__getitem__, covers[i])) for i in best]


def ghz_dimension_bound(n: int) -> int:
    """Largest d for which an n-photon, d-dimensional GHZ state is reachable
    with a simple graph: 3 for n = 4, otherwise 2 (n even, n >= 4)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 4 or n % 2 != 0:
        raise DomainError(f"photon count must be an even integer >= 4, got {n!r}")
    return 3 if n == 4 else 2


def scan_ghz_dimension(
    n: int, *, override_limits: bool = False
) -> tuple[int, ExperimentGraph]:
    """Largest number d of perfect matchings of a simple graph on ``n``
    vertices whose matchings are all pairwise edge-disjoint (the graphs
    whose state is GHZ-shaped), with one witness graph: among the maxima,
    the one with the smallest edge mask over the row-ordered pairs of K_n.

    Such a graph's matchings are a family of pairwise disjoint pairings of
    K_n whose union holds no other pairing, so the search grows those
    families as bitmasks.  A family whose union holds an extra (maverick)
    pairing is dropped with all its extensions: the maverick shares an edge
    with a member, so it can never join, and unions only grow.  The first
    pass fixes the first pairing, which a relabelling of the vertices
    always allows, to find d; the second finds the smallest union of d
    pairings, dropping any family whose union already exceeds the best."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2 or n % 2 != 0:
        raise DomainError(f"vertex count must be an even integer >= 2, got {n!r}")
    if not override_limits and n > SCAN_VERTEX_LIMIT:
        raise ScaleLimitError(
            f"GHZ-dimension scan on {n} vertices exceeds the guard (n<={SCAN_VERTEX_LIMIT})"
        )

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pms = sorted(sum(1 << k for k in cover) for cover in _covers([1] * n, pairs))
    # Families and pairing sets are bitsets over the indices into ``pms``.
    every = (1 << len(pms)) - 1
    holding = [sum(1 << i for i, m in enumerate(pms) if m >> k & 1) for k in range(len(pairs))]

    def touching(mask: int) -> int:
        """The pairings that share a pair with ``mask``."""
        out = 0
        for k, h in enumerate(holding):
            if mask >> k & 1:
                out |= h
        return out

    clash = [touching(m) for m in pms]
    all_pairs = (1 << len(pairs)) - 1
    best_mask = all_pairs + 1  # above every union until the second pass

    def extensions(union: int, size: int, later: int):
        """Each family grown by one pairing of ``later`` whose union stays
        below ``best_mask`` and holds only its members, with the pairings
        that may still join it."""
        while later:
            low = later & -later
            later ^= low
            i = low.bit_length() - 1
            grown = union | pms[i]
            if grown < best_mask and (every & ~touching(all_pairs & ~grown)).bit_count() == size + 1:
                yield grown, later & ~clash[i]

    def largest(union: int, size: int, later: int) -> int:
        return max((largest(g, size + 1, rest) for g, rest in extensions(union, size, later)), default=size)

    def smallest(union: int, size: int, later: int):
        nonlocal best_mask
        if size == d:
            best_mask = union
            return
        for grown, rest in extensions(union, size, later):
            smallest(grown, size + 1, rest)

    d = largest(pms[0], 1, every & ~clash[0])
    smallest(0, 0, every)
    return d, _graph_from_pairs(n, [pq for k, pq in enumerate(pairs) if best_mask >> k & 1])


def enumerate_factorizations(
    g: ExperimentGraph, *, override_limits: bool = False
) -> list[Factorization]:
    """All unordered partitions of the edge set into perfect matchings.

    Requires a regular graph (every 1-factorizable graph is).  Partitions are
    built by always covering the lowest-id unused edge, branching only over
    the matchings that hold it and share no edge with those chosen, so each
    one appears exactly once, in enumeration order.  Sets of matchings are
    bitsets over the enumeration: per edge, those holding it (``holding``);
    per matching, those sharing an edge with it (``clash``)."""
    degrees = [g.degree(v) for v in g.vertices]
    if degrees and len(set(degrees)) != 1:
        raise DomainError("graph is not regular; a 1-factorization cannot exist")
    if g.measured:
        raise DomainError("factorizations are defined for unmeasured graphs")

    ids, covers = _index_covers(g, override_limits)
    pms = [tuple(map(ids.__getitem__, cover)) for cover in covers]
    masks = [sum(1 << k for k in cover) for cover in covers]
    full = (1 << len(ids)) - 1
    holding = [0] * len(ids)
    for i, cover in enumerate(covers):
        for k in cover:
            holding[k] |= 1 << i
    clash = [reduce(int.__or__, map(holding.__getitem__, cover), 0) for cover in covers]
    out: list[Factorization] = []

    def rec(used: int, avail: int, chosen: tuple[int, ...]):
        if used == full:
            out.append(Factorization(tuple(map(pms.__getitem__, chosen))))
            return
        later = holding[(~used & (used + 1)).bit_length() - 1] & avail
        while later:
            i = (later & -later).bit_length() - 1
            later &= later - 1
            rec(used | masks[i], avail & ~clash[i], chosen + (i,))

    if covers:
        rec(0, (1 << len(covers)) - 1, ())
    return out


def classify_layers(g: ExperimentGraph, *, override_limits: bool = False) -> LayerReport:
    """Split all perfect matchings into layer matchings (equal to one tagged
    layer) and maverick matchings (mixing crystals from several layers)."""
    untagged = [e.id for e in g.edges if e.layer is None]
    if untagged:
        raise DomainError(f"edges {sorted(untagged)} carry no layer tag")
    groups: dict[int, list[str]] = {}
    for e in g.edges:
        groups.setdefault(e.layer, []).append(e.id)
    for tag in sorted(groups):
        if not is_coincidence_cover(g, groups[tag]):
            raise DomainError(f"layer {tag} is not a perfect matching", reason="bad-layer")

    pms = enumerate_pm(g, override_limits=override_limits)
    layer_of = {tuple(sorted(ids)): tag for tag, ids in groups.items()}
    layer_matchings = sorted((pm for pm in pms if pm in layer_of), key=layer_of.__getitem__)
    return LayerReport(tuple(layer_matchings), tuple(pm for pm in pms if pm not in layer_of))
