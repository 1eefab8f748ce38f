"""Constructive matchability checks.

Both checks read a graph as one bitmask of neighbours per vertex, indexed
in declaration order, as the bipartition does, and run one routine on it:
Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965) finds a
maximum matching, then grows a final alternating forest from exposed
vertices.  For bipartite graphs with equal parts, a perfect matching exists
iff every subset W of part X sees at least |W| neighbors in Y; the witness
W is the forest grown from the exposed X vertices (König).  For general
graphs the criterion is that deleting any vertex set U leaves at most |U|
odd components; the witness U is the Gallai–Edmonds barrier A(G), read
from the forest grown from every exposed vertex.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import DomainError
from .graph import ExperimentGraph, _bits, _FrozenRecord

__all__ = [
    "HallWitness",
    "TutteWitness",
    "hall_check",
    "tutte_check",
]


class HallWitness(_FrozenRecord):
    """Subset of part X whose exact neighborhood in Y is smaller than it."""

    subset_w: tuple[str, ...]
    neighborhood: tuple[str, ...]


class TutteWitness(_FrozenRecord):
    """Vertex subset whose removal leaves more odd components than |U|."""

    subset_u: tuple[str, ...]
    odd_components: tuple[tuple[str, ...], ...]


def _grow(masks: list[int], mate: list[int], starts: int) -> tuple[int, list[int], int]:
    """Grow an alternating forest from the exposed vertices of ``starts``,
    breadth first, shrinking each blossom into its base.  Return the first
    exposed vertex that an alternating path from a root reaches (-1 if
    none), the parent links that lead back to the root, and the outer
    vertices as a bitmask.  The forest has more than one root only once the
    matching is maximum, when no edge joins outer vertices of two trees."""
    base = list(range(len(masks)))
    parent = [-1] * len(masks)
    outer = starts
    queue = list(_bits(starts))
    for v in queue:
        for w in _bits(masks[v]):
            if base[v] == base[w] or mate[v] == w:
                continue
            if outer >> w & 1:  # an odd cycle: shrink it into the bases' common ancestor
                a = base[v]
                seen = 1 << a
                while mate[a] >= 0:
                    a = base[parent[mate[a]]]
                    seen |= 1 << a
                b = base[w]
                while not seen >> b & 1:
                    b = base[parent[mate[b]]]
                blossom = 0
                for x, child in ((v, w), (w, v)):
                    while base[x] != b:
                        blossom |= 1 << base[x] | 1 << base[mate[x]]
                        parent[x], child = child, mate[x]
                        x = parent[mate[x]]
                for x in range(len(masks)):
                    if blossom >> base[x] & 1:
                        base[x] = b
                        if not outer >> x & 1:
                            outer |= 1 << x
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    return w, parent, outer
                outer |= 1 << mate[w]
                queue.append(mate[w])
    return -1, parent, outer


def _blossom(masks: list[int], roots: int) -> tuple[list[int], int]:
    """A maximum matching of the graph of neighbour ``masks``, as the
    partner of each vertex (-1 if exposed), and the outer vertices of the
    final alternating forest grown from the exposed vertices of ``roots``.

    The matching starts greedy, each vertex in index order taking its lowest
    free neighbour; one search from each exposed vertex then extends it: a
    vertex from which no alternating path reaches another exposed vertex
    gets none later."""
    mate, matched = [-1] * len(masks), 0
    for v in range(len(masks)):
        free = masks[v] & ~matched
        if free and not matched >> v & 1:
            w = (free & -free).bit_length() - 1
            mate[v], mate[w] = w, v
            matched |= 1 << v | 1 << w
    for r in range(len(masks)):
        if mate[r] < 0:
            w, parent, _ = _grow(masks, mate, 1 << r)
            while w >= 0:  # flip the path from w back to r
                v = parent[w]
                mate[w], mate[v], w = v, w, mate[v]
    exposed = sum(1 << v for v, w in enumerate(mate) if w < 0)
    return mate, _grow(masks, mate, exposed & roots)[2]


def _matching_edge_ids(g: ExperimentGraph, mate: list[int]) -> tuple[str, ...]:
    """The lowest-id edge of every matched vertex pair, sorted."""
    lowest: dict[tuple[int, int], str] = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        lowest.setdefault((g._index[e.u], g._index[e.v]), e.id)
    return tuple(sorted(lowest[v, w] for v, w in enumerate(mate) if v < w))


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
    mate, outer = _blossom(masks, part_x)
    if not outer:
        return _matching_edge_ids(g, mate)
    # no edge joins two X vertices, so no blossom forms and W, the outer
    # vertices, sees only the inner ones, each matched into W
    seen = reduce(or_, map(masks.__getitem__, _bits(outer)))
    assert seen.bit_count() < outer.bit_count()
    return HallWitness(
        tuple(g.vertices[i] for i in _bits(outer)),
        tuple(g.vertices[i] for i in _bits(seen)),
    )


def _odd_components(masks: list[int], live: int) -> list[int]:
    """The odd components of the graph on the ``live`` vertices, as
    bitmasks, in the order of their lowest vertex."""
    odd = []
    while live:
        comp = frontier = live & -live
        while frontier:
            frontier = reduce(or_, map(masks.__getitem__, _bits(frontier))) & live & ~comp
            comp |= frontier
        live &= ~comp
        if comp.bit_count() % 2 == 1:
            odd.append(comp)
    return odd


def tutte_check(g: ExperimentGraph) -> tuple[str, ...] | TutteWitness:
    """Return a perfect matching or the Gallai–Edmonds barrier as witness.

    D(G), the vertices that some maximum matching misses, are the outer
    vertices of the final forest grown from every exposed vertex.  The
    witness U = A(G) holds their neighbours outside D(G), and G - U has
    n - 2ν more odd components than |U|: the components of D(G).  U is
    defined without a vertex order, so a relabelling maps it to the
    relabelled barrier, but it need not be the smallest witness: K_{1,3}
    with two isolated vertices gives its centre, not the empty set."""
    if g.measured:
        raise DomainError("matchability checks apply to unmeasured graphs")
    masks = g._neighbour_masks()
    full = (1 << len(masks)) - 1
    mate, outer = _blossom(masks, full)
    if not outer:
        return _matching_edge_ids(g, mate)
    barrier = reduce(or_, map(masks.__getitem__, _bits(outer))) & ~outer
    return TutteWitness(
        tuple(g.vertices[i] for i in _bits(barrier)),
        tuple(tuple(g.vertices[i] for i in _bits(comp)) for comp in _odd_components(masks, full & ~barrier)),
    )
