"""Independent oracles: deliberately naive algorithms the implementation is
checked against.  Nothing here shares code with the package kernels."""

from __future__ import annotations

import cmath
import math
from itertools import combinations, permutations, product

from photongraph import Edge, ExperimentGraph, vertex_names


def brute_force_covers(g: ExperimentGraph) -> list[tuple[str, ...]]:
    """Enumerate coincidence covers by filtering all edge subsets of the
    right size on the exact degree condition."""
    required = {v: (2 if v in g.measured else 1) for v in g.vertices}
    total = sum(required.values())
    if total % 2 != 0:
        return []
    size = total // 2
    out = []
    for combo in combinations(g.edges, size):
        count = {v: 0 for v in g.vertices}
        for e in combo:
            count[e.u] += 1
            count[e.v] += 1
        if count == required:
            out.append(tuple(sorted(e.id for e in combo)))
    out.sort()
    return out


def max_disjoint_covers(g: ExperimentGraph) -> int:
    """Size of the largest pairwise edge-disjoint set of brute-force covers,
    found by growing every disjoint family one later cover at a time."""
    covers = [set(cover) for cover in brute_force_covers(g)]

    def grow(start: int, used: set) -> int:
        best = 0
        for k in range(start, len(covers)):
            if not covers[k] & used:
                best = max(best, 1 + grow(k + 1, used | covers[k]))
        return best

    return grow(0, set())


def naive_factorizations(g: ExperimentGraph) -> list[tuple[tuple[str, ...], ...]]:
    """Every set of pairwise edge-disjoint brute-force covers whose union is
    the whole edge set of a graph with edges, each as its covers in sorted
    order, the list sorted.  Families are grown one later cover at a time
    from every cover, with no rule on which edge a family must cover next."""
    covers = brute_force_covers(g)
    edges = {e.id for e in g.edges}
    found = []

    def grow(start: int, family: tuple[int, ...], used: set):
        if used == edges:
            found.append(tuple(covers[k] for k in family))
            return
        for k in range(start, len(covers)):
            if not used.intersection(covers[k]):
                grow(k + 1, family + (k,), used.union(covers[k]))

    grow(0, (), set())
    return sorted(found)


def brute_force_state(g: ExperimentGraph) -> dict[tuple[int, ...], complex]:
    """Unpruned, unnormalized state: every brute-force cover whose measured
    vertices see one mode from both edges adds its amplitude product to the
    ket of modes at the unmeasured vertices, in declaration order."""
    by_id = {e.id: e for e in g.edges}
    slots = [v for v in g.vertices if v not in g.measured]
    terms: dict[tuple[int, ...], complex] = {}
    for cover in brute_force_covers(g):
        seen: dict[str, int] = {}
        amp = 1 + 0j
        consistent = True
        for edge_id in cover:
            e = by_id[edge_id]
            amp *= cmath.rect(e.amp_mag, e.amp_phase_rad)
            for vertex, mode in ((e.u, e.mode_u), (e.v, e.mode_v)):
                consistent &= seen.setdefault(vertex, mode) == mode
        if consistent:
            ket = tuple(seen[v] for v in slots)
            terms[ket] = terms.get(ket, 0j) + amp
    return terms


def naive_permanent(matrix):
    """Permanent as the plain sum over all permutations (n <= 8)."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total


def naive_hafnian(matrix):
    """Hafnian as the plain sum over all perfect pairings of the indices:
    the first index is paired with every other one in turn, with no memo
    and no skipping of zero entries (order <= 10)."""
    def pairing_sum(indices: tuple[int, ...]):
        if not indices:
            return 1
        first = indices[0]
        total = 0
        for k in range(1, len(indices)):
            rest = indices[1:k] + indices[k + 1:]
            total += matrix[first][indices[k]] * pairing_sum(rest)
        return total

    return pairing_sum(tuple(range(len(matrix))))


def pairing_masks(n: int, pair_pos: dict[tuple[int, int], int]) -> list[int]:
    """All perfect pairings of n vertices as bitmasks over pair slots."""
    def rec(avail: tuple[int, ...]):
        if not avail:
            yield 0
            return
        first = avail[0]
        for k in range(1, len(avail)):
            rest = avail[1:k] + avail[k + 1:]
            bit = 1 << pair_pos[(first, avail[k])]
            for mask in rec(rest):
                yield bit | mask

    return list(rec(tuple(range(n))))


def naive_ghz_family(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Largest family of pairwise disjoint pairings of K_n whose union holds
    no other pairing, and the vertex pairs of the smallest union mask among
    the largest ones.  Every disjoint family is grown one later pairing at a
    time and checked on its own: no pruning and no fixed first pairing."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    masks = pairing_masks(n, {pq: k for k, pq in enumerate(pairs)})
    best_size, best_union = 0, 0

    def grow(start: int, union: int, size: int):
        nonlocal best_size, best_union
        inside = sum(1 for mask in masks if mask & union == mask)
        if inside == size and (size, -union) > (best_size, -best_union):
            best_size, best_union = size, union
        for k in range(start, len(masks)):
            if not masks[k] & union:
                grow(k + 1, union | masks[k], size + 1)

    grow(0, 0, 0)
    return best_size, [pq for k, pq in enumerate(pairs) if best_union >> k & 1]


def naive_search_graph_for_state(target, *, max_edges: int = 8, max_mode: int = 3, max_parallel: int = 4):
    """First graph of the target search, found the slow way.  The target is
    scaled to unit norm and its global phase fixed on the first ket; for
    each scale s = 1, 2, ... every ket k takes s * |a_k| / min |a| distinct
    pairings of the slots in every combination, labelled with the ket's
    modes.  All unions of one scale are sorted as label tuples, and the
    first one within the bounds whose brute-force state matches the target
    is the answer.  No pruning: every bound is applied at the leaf."""
    peak = max((abs(a) for a in target.terms.values()), default=0.0)
    if peak <= 1e-9:
        return None
    norm = math.hypot(*(abs(a) / peak for a in target.terms.values())) * peak
    kept = {k: a / norm for k, a in target.terms.items() if abs(a / norm) > 1e-9}
    kets = sorted(kept)
    n = len(kets[0])
    if n == 0 or any(len(k) != n for k in kets):
        return None
    first = kept[kets[0]]
    want = {k: a * abs(first) / first for k, a in kept.items()}

    def slot_pairings(avail: tuple[int, ...]):
        if not avail:
            yield ()
            return
        for k in range(1, len(avail)):
            for rest in slot_pairings(avail[1:k] + avail[k + 1:]):
                yield ((avail[0], avail[k]),) + rest

    options = list(slot_pairings(tuple(range(n))))
    smallest = min(abs(a) for a in want.values())
    names = vertex_names(n)

    def within_bounds(labels) -> bool:
        per_pair: dict[tuple[int, int], int] = {}
        for i, j, mi, mj in labels:
            per_pair[(i, j)] = per_pair.get((i, j), 0) + 1
        return (len(labels) <= max_edges and max(per_pair.values()) <= max_parallel
                and all(max(mi, mj) <= max_mode for _, _, mi, mj in labels))

    def matches(g: ExperimentGraph) -> bool:
        state = brute_force_state(g)
        total = math.sqrt(sum(abs(a) ** 2 for a in state.values()))
        state = {k: a / total for k, a in state.items() if abs(a / total) > 1e-9}
        lead = state[min(state)]
        state = {k: a * abs(lead) / lead for k, a in state.items()}
        return set(state) == set(want) and all(abs(state[k] - want[k]) <= 1e-9 for k in want)

    for scale in range(1, len(options) + 1):
        counts = [scale * abs(want[k]) / smallest for k in kets]
        if any(abs(c - round(c)) > 1e-6 for c in counts):
            continue
        unions = set()
        for choice in product(*(combinations(options, round(c)) for c in counts)):
            labels = set()
            for ket, chosen in zip(kets, choice):
                for pairing in chosen:
                    labels.update((i, j, ket[i], ket[j]) for i, j in pairing)
            unions.add(tuple(sorted(labels)))
        for labels in sorted(unions):
            if not within_bounds(labels):
                continue
            g = ExperimentGraph(names, [Edge(f"e{k}", names[i], names[j], mi, mj)
                                        for k, (i, j, mi, mj) in enumerate(labels)])
            if matches(g):
                return g
    return None
