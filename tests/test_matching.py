"""Matching enumeration, disjointness search, factorizations, layers."""

from __future__ import annotations

import gc
import math
import random
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph import Edge, ExperimentGraph
from photongraph.matching import _covers

from fixt import cycle_graph, four_layer6, k4_ghz, k6_factored, layered6, path_graph
from oracles import brute_force_covers, max_disjoint_covers, naive_factorizations, naive_ghz_family


def test_k4_has_three_matchings():
    pms = pg.enumerate_pm(k4_ghz())
    assert pms == [("I", "II"), ("III", "IV"), ("V", "VI")]


def test_k6_has_fifteen_matchings():
    assert len(pg.enumerate_pm(pg.complete_graph(6))) == 15


def test_odd_path_has_no_matching():
    assert pg.enumerate_pm(path_graph(3)) == []


def test_layered6_has_four_matchings():
    assert len(pg.enumerate_pm(layered6())) == 4


def test_enumeration_independent_of_edge_order():
    g = layered6()
    shuffled = list(g.edges)
    random.Random(3).shuffle(shuffled)
    g2 = ExperimentGraph(g.vertices, shuffled)
    assert pg.enumerate_pm(g) == pg.enumerate_pm(g2)


def test_enumeration_matches_brute_force_on_random_graphs():
    rng = random.Random(20)
    for _ in range(40):
        g = pg.random_graph(rng.randrange(2, 9), rng.uniform(0.2, 0.9), rng.getrandbits(32))
        assert pg.enumerate_pm(g) == brute_force_covers(g)


def test_matchings_satisfy_degree_constraints():
    g = four_layer6()
    for pm in pg.enumerate_pm(g):
        assert pg.is_coincidence_cover(g, pm)


def test_deleting_one_vertex_kills_all_matchings():
    g = pg.complete_graph(6)
    smaller = ExperimentGraph(
        g.vertices[:-1],
        [e for e in g.edges if g.vertices[-1] not in (e.u, e.v)],
    )
    assert pg.enumerate_pm(smaller) == []


def test_scale_guard_and_override():
    big = pg.complete_graph(12)  # 66 edges > default edge guard
    with pytest.raises(pg.ScaleLimitError):
        pg.enumerate_pm(big)
    assert len(pg.enumerate_pm(big, override_limits=True)) == 10395


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 15), (5, 945)])
def test_count_formula(n, expected):
    assert pg.count_pm_formula(n) == expected


def test_count_formula_matches_enumeration():
    for n in range(1, 5):
        assert len(pg.enumerate_pm(pg.complete_graph(2 * n))) == pg.count_pm_formula(n)


def test_count_formula_rejects_bad_input():
    with pytest.raises(pg.DomainError):
        pg.count_pm_formula(0)


def test_max_disjoint_k4():
    d, witness = pg.max_disjoint_pms(k4_ghz())
    assert d == 3
    assert witness == [("I", "II"), ("III", "IV"), ("V", "VI")]


def test_max_disjoint_hamilton_cycle():
    d, witness = pg.max_disjoint_pms(cycle_graph(6))
    assert d == 2
    assert len(witness) == 2
    assert not set(witness[0]) & set(witness[1])


def test_max_disjoint_witness_properties():
    g = pg.complete_graph(6)
    d, witness = pg.max_disjoint_pms(g)
    assert d == 5  # a full 1-factorization of K6 is a disjoint family
    pms = set(pg.enumerate_pm(g))
    for pm in witness:
        assert pm in pms
    for a, b in combinations(witness, 2):
        assert not set(a) & set(b)


def test_max_disjoint_k10():
    d, witness = pg.max_disjoint_pms(pg.complete_graph(10), override_limits=True)
    assert d == 9
    assert len({e for pm in witness for e in pm}) == 45


@st.composite
def _multigraph(draw, names, min_edges, max_edges):
    """Random multigraph on ``names`` with parallel edges."""
    edges = []
    for k in range(draw(st.integers(min_value=min_edges, max_value=max_edges))):
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        edges.append(Edge(f"{names[0]}{k}", u, v))
    return ExperimentGraph(names, edges)


@st.composite
def disjointness_graphs(draw):
    """Multigraphs on at most 6 vertices with 0, 1 or 2 measured vertices
    (two halves merged at that many vertex pairs)."""
    pairs = draw(st.integers(min_value=0, max_value=2))
    if not pairs:
        return draw(_multigraph(pg.vertex_names(draw(st.integers(min_value=2, max_value=6))), 0, 12))
    left = draw(_multigraph(list("abcd"), 3, 9))
    right = draw(_multigraph(list("wxyz")[: 2 + pairs], 3, 9))
    return pg.merge_graphs(left, right, list(zip("dc", "wx"))[:pairs])


@given(disjointness_graphs())
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_force_on_measured_multigraphs(g):
    assert pg.enumerate_pm(g) == brute_force_covers(g)


@st.composite
def relabelled_multigraphs(draw):
    """A multigraph on at most 14 vertices with 0, 1 or 2 measured vertices,
    parallel edges and, most of the time, a planted cover, and the same
    graph declared with its vertices in another order and its edges
    shuffled, each edge given from either end."""
    # Weighted toward 10-14 vertices, where the brute-force oracle stops.
    n = draw(st.integers(min_value=0, max_value=14) | st.integers(min_value=10, max_value=14))
    names = [f"v{i}" for i in range(n)]
    measured = draw(st.lists(st.sampled_from(names), max_size=2, unique=True)) if n else []
    slots = draw(st.permutations(names + measured)) if draw(st.integers(0, 4)) else []
    planted = [(u, v) for u, v in zip(slots[::2], slots[1::2]) if u != v]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)), max_size=2 * n)) if n > 1 else []
    ends = planted + [(names[i], names[j + (j >= i)]) for i, j in extra]
    edges = [Edge(f"e{k}", u, v) for k, (u, v) in enumerate(ends)]
    order = draw(st.permutations(names))
    shuffled = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    flipped = [Edge(e.id, e.v, e.u) if flip else e for e, flip in zip(shuffled, flips)]
    return ExperimentGraph(names, edges, measured), ExperimentGraph(order, flipped, measured)


@given(relabelled_multigraphs())
@settings(max_examples=300, deadline=None)
def test_cover_walk_is_invariant_and_counts_the_hafnian(graphs):
    """Past the brute-force oracle's reach: the covers do not depend on the
    declaration order of vertices or edges, each is a coincidence cover and
    appears once, and an unmeasured graph has as many as its hafnian."""
    g, relabelled = graphs
    covers = pg.enumerate_pm(g)
    assert pg.enumerate_pm(relabelled) == covers
    assert len(set(covers)) == len(covers)
    assert all(pg.is_coincidence_cover(g, cover) for cover in covers)
    if not g.measured:
        assert len(covers) == (pg.hafnian(g.adjacency()) if len(g.vertices) % 2 == 0 else 0)


@contextmanager
def _collector(enabled: bool):
    """The cyclic collector switched on or off for the block, and put back
    as it was after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_enumeration_leaves_no_garbage_cycle():
    g = pg.complete_graph(12)
    gc.collect()
    with _collector(False):
        pg.enumerate_pm(g, override_limits=True)
        assert gc.collect() == 0


def _ghz(n: int, d: int) -> pg.QuantumState:
    return pg.QuantumState({(m,) * n: 1.0 for m in range(d)})


# Two measured vertices, the first of them vertex 0, so the cover walk's
# first step takes two edges at once.
_MERGED = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("a", "e"), ("b", "f")])

_C4 = ExperimentGraph(["x0", "x1", "y0", "y1"], [Edge("a", "x0", "y0"), Edge("b", "x0", "y1"),
                                                  Edge("c", "x1", "y0"), Edge("d", "x1", "y1")])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: pg.search_graph_for_state(_ghz(8, 2)), id="search-ghz8x2"),
        pytest.param(lambda: pg.search_graph_for_state(_ghz(4, 3)), id="search-ghz4x3"),
        pytest.param(lambda: pg.enumerate_factorizations(pg.complete_graph(8)), id="enumerate_factorizations"),
        pytest.param(lambda: pg.enumerate_factorizations(_complete_bipartite(4)), id="enumerate_factorizations-K44"),
        pytest.param(lambda: pg.enumerate_pm(_MERGED), id="enumerate_pm-measured"),
        pytest.param(lambda: pg.classify_layers(k6_factored()), id="classify_layers-K6"),
        pytest.param(lambda: pg.max_disjoint_pms(pg.complete_graph(8)), id="max_disjoint_pms"),
        pytest.param(lambda: pg.scan_ghz_dimension(8), id="scan_ghz_dimension"),
        pytest.param(lambda: pg.tutte_check(pg.complete_graph(8)), id="tutte_check"),
        pytest.param(lambda: pg.hall_check(_C4), id="hall_check"),
        pytest.param(lambda: pg.hafnian(pg.complete_graph(8).adjacency()), id="hafnian"),
        pytest.param(lambda: pg.state_from_graph(pg.complete_graph(8)), id="state_from_graph"),
        pytest.param(lambda: pg.frustration_scan(k4_ghz(), "I", [0.0, 1.0]), id="frustration_scan"),
    ],
)
def test_kernel_leaves_no_garbage_cycle(call):
    """A kernel's recursive closures refer to themselves; each call drops
    them before it returns, so nothing it built waits for the collector."""
    gc.collect()
    with _collector(False):
        result = call()
        assert gc.collect() == 0
        assert result is not None


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: pg.enumerate_pm(_MERGED), None, id="enumerate_pm"),
        pytest.param(lambda: pg.enumerate_pm(pg.complete_graph(12)), pg.ScaleLimitError, id="enumerate_pm-guard"),
        pytest.param(lambda: pg.classify_layers(k6_factored()), None, id="classify_layers"),
        pytest.param(lambda: pg.classify_layers(pg.complete_graph(4)), pg.DomainError, id="classify_layers-untagged"),
        pytest.param(lambda: pg.enumerate_factorizations(pg.complete_graph(6)), None, id="enumerate_factorizations"),
        pytest.param(lambda: pg.enumerate_factorizations(path_graph(4)), pg.DomainError,
                     id="enumerate_factorizations-irregular"),
        pytest.param(lambda: pg.enumerate_factorizations(pg.complete_graph(12)), pg.ScaleLimitError,
                     id="enumerate_factorizations-guard"),
    ],
)
def test_listings_leave_the_collector_as_they_found_it(call, error, enabled):
    with _collector(enabled):
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled() is enabled


class _RecordingLabels:
    """Edge labels that note whether the collector is on when read."""

    def __init__(self, labels):
        self.labels = labels
        self.seen: list[bool] = []

    def __iter__(self):
        self.seen.append(gc.isenabled())
        return iter(self.labels)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_the_collector_is_off_while_a_listing_walks(enabled):
    """The cover walk reads its labels with the collector off, and no
    collection runs during a whole factorization listing, whose nested
    cover walk must not switch the collector back on when it returns."""
    labels = _RecordingLabels(list("uvwxyz"))
    phases: list[str] = []

    def note(phase, info):
        phases.append(phase)

    with _collector(enabled):
        gc.callbacks.append(note)
        try:
            covers = _covers([1] * 4, list(combinations(range(4), 2)), labels)
            factorizations = pg.enumerate_factorizations(pg.complete_graph(8))
        finally:
            gc.callbacks.remove(note)
        assert gc.isenabled() is enabled
    assert covers == [("u", "z"), ("v", "y"), ("w", "x")]
    assert len(factorizations) == 6240
    assert labels.seen == [False]
    assert phases == []


@pytest.mark.parametrize(
    "measured, edges, expected",
    [
        # Both parallel edges would reach plain b twice: no cover.
        ("a", [("x", "a", "b"), ("y", "a", "b"), ("z", "b", "c"), ("u", "b", "d")], []),
        # The parallel pair is skipped, the pair through c is kept.
        ("a", [("x", "a", "b"), ("y", "a", "b"), ("z", "a", "c")], [("x", "z"), ("y", "z")]),
        # Two measured ends take both parallel edges: one cover.
        ("ab", [("x", "a", "b"), ("y", "a", "b")], [("x", "y")]),
    ],
)
def test_parallel_pair_at_a_measured_vertex(measured, edges, expected):
    names = sorted({v for _, u, w in edges for v in (u, w)})
    g = ExperimentGraph(names, [Edge(i, u, w) for i, u, w in edges], list(measured))
    assert pg.enumerate_pm(g) == brute_force_covers(g) == expected


@given(disjointness_graphs())
@settings(max_examples=150, deadline=None)
def test_max_disjoint_matches_oracle(g):
    d, witness = pg.max_disjoint_pms(g)
    assert d == max_disjoint_covers(g)
    assert len(witness) == d
    for cover in witness:
        assert pg.is_coincidence_cover(g, cover)
    for a, b in combinations(witness, 2):
        assert not set(a) & set(b)


@pytest.mark.parametrize("n,expected", [(4, 3), (6, 2), (8, 2), (10, 2)])
def test_ghz_dimension_bound(n, expected):
    assert pg.ghz_dimension_bound(n) == expected


@pytest.mark.parametrize("n", [3, 2, 5, 0])
def test_ghz_dimension_bound_domain(n):
    with pytest.raises(pg.DomainError):
        pg.ghz_dimension_bound(n)


def test_scan_ghz_dimension_small():
    d2, witness2 = pg.scan_ghz_dimension(2)
    assert d2 == 1 and len(witness2.edges) == 1
    d4, witness4 = pg.scan_ghz_dimension(4)
    assert d4 == 3
    pms = pg.enumerate_pm(witness4)
    assert len(pms) == 3
    for a, b in combinations(pms, 2):
        assert not set(a) & set(b)


@pytest.mark.parametrize("n,expected_d", [(2, 1), (4, 3), (6, 2), (8, 2)])
def test_scan_ghz_dimension_matches_naive_family_search(n, expected_d):
    d, witness = pg.scan_ghz_dimension(n)
    pairs = sorted((witness.index(e.u), witness.index(e.v)) for e in witness.edges)
    assert (d, pairs) == naive_ghz_family(n)
    assert d == expected_d


def test_scan_ghz_dimension_reaches_the_bound_at_10():
    d, witness = pg.scan_ghz_dimension(10)
    assert d == pg.ghz_dimension_bound(10)
    pms = pg.enumerate_pm(witness)
    assert len(pms) == d
    for a, b in combinations(pms, 2):
        assert not set(a) & set(b)


def test_scan_scale_guard():
    with pytest.raises(pg.ScaleLimitError):
        pg.scan_ghz_dimension(12)


def test_factorizations_k4():
    fzs = pg.enumerate_factorizations(k4_ghz())
    assert len(fzs) == 1
    assert fzs[0].factors == (("I", "II"), ("III", "IV"), ("V", "VI"))


def test_factorizations_k6_count_and_oracle():
    fzs = pg.enumerate_factorizations(pg.complete_graph(6))
    assert len(fzs) == 6
    # independent oracle: 5-subsets of the 15 matchings that are pairwise
    # disjoint are exactly the factorizations (5 x 3 = 15 edges)
    pms = pg.enumerate_pm(pg.complete_graph(6))
    oracle = 0
    for combo in combinations(pms, 5):
        if all(not set(a) & set(b) for a, b in combinations(combo, 2)):
            oracle += 1
    assert oracle == 6


def test_factorizations_cycle():
    fzs = pg.enumerate_factorizations(cycle_graph(6))
    assert len(fzs) == 1
    assert len(fzs[0].factors) == 2


def test_factorizations_partition_properties():
    for fz in pg.enumerate_factorizations(pg.complete_graph(6)):
        ids = [e for factor in fz.factors for e in factor]
        assert sorted(ids) == sorted(e.id for e in pg.complete_graph(6).edges)
        assert len(set(ids)) == len(ids)


def test_factorizations_reject_irregular():
    with pytest.raises(pg.DomainError):
        pg.enumerate_factorizations(path_graph(4))


def _from_pairs(n: int, pairs) -> ExperimentGraph:
    names = pg.vertex_names(n)
    return ExperimentGraph(names, [Edge(f"e{k}", names[i], names[j]) for k, (i, j) in enumerate(pairs)])


def _complete_bipartite(a: int) -> ExperimentGraph:
    return _from_pairs(2 * a, [(i, a + j) for i in range(a) for j in range(a)])


def _circulant(n: int, steps) -> ExperimentGraph:
    return _from_pairs(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def _doubled(g: ExperimentGraph) -> ExperimentGraph:
    return ExperimentGraph(g.vertices, [Edge(f"{e.id}{c}", e.u, e.v) for e in g.edges for c in "ab"])


def _disjoint_union(g: ExperimentGraph, h: ExperimentGraph) -> ExperimentGraph:
    return ExperimentGraph(
        [f"g{v}" for v in g.vertices] + [f"h{v}" for v in h.vertices],
        [Edge(f"g{e.id}", f"g{e.u}", f"g{e.v}") for e in g.edges]
        + [Edge(f"h{e.id}", f"h{e.u}", f"h{e.v}") for e in h.edges],
    )


def _shuffled(g: ExperimentGraph, seed: int) -> ExperimentGraph:
    """The same graph with its vertices declared in another order, its edges
    renamed by a random permutation, listed in another order and each given
    from either end."""
    rng = random.Random(seed)
    order = list(g.vertices)
    rng.shuffle(order)
    names = [f"c{k}" for k in range(len(g.edges))]
    rng.shuffle(names)
    edges = [Edge(name, *((e.v, e.u) if rng.random() < 0.5 else (e.u, e.v))) for name, e in zip(names, g.edges)]
    rng.shuffle(edges)
    return ExperimentGraph(order, edges)


_REGULAR = {
    "K2": lambda: pg.complete_graph(2),
    "3K2": lambda: _from_pairs(6, [(0, 1), (2, 3), (4, 5)]),
    "K4": lambda: pg.complete_graph(4),
    "K6": lambda: pg.complete_graph(6),
    "K33": lambda: _complete_bipartite(3),
    "K44": lambda: _complete_bipartite(4),
    "C6": lambda: cycle_graph(6),
    "C8": lambda: cycle_graph(8),
    "K4x2": lambda: _doubled(pg.complete_graph(4)),
    "C8(1,2)": lambda: _circulant(8, (1, 2)),
}


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(_REGULAR))
def test_factorizations_match_the_naive_oracle(name, seed):
    """The whole list, in order (sorted by factor tuples), equals the
    oracle's on small regular multigraphs, also with shuffled edge ids and
    declaration order."""
    g = _REGULAR[name]()
    if seed is not None:
        g = _shuffled(g, seed)
    expected = naive_factorizations(g)
    assert expected
    assert [fz.factors for fz in pg.enumerate_factorizations(g)] == expected


@pytest.mark.parametrize(
    "g, expected",
    [
        pytest.param(pg.complete_graph(8), 6240, id="K8"),
        # Latin squares of order n over n!: L(4) = 576, L(5) = 161280
        pytest.param(_complete_bipartite(4), 24, id="K44"),
        pytest.param(_complete_bipartite(5), 1344, id="K55"),
    ],
)
def test_factorization_counts_closed_forms(g, expected):
    assert len(pg.enumerate_factorizations(g)) == expected


@pytest.mark.parametrize(
    "g, h, k, expected",
    [
        pytest.param(pg.complete_graph(4), _complete_bipartite(3), 3, 12, id="K4+K33"),
        pytest.param(pg.complete_graph(6), pg.complete_graph(6), 5, 4320, id="K6+K6"),
        pytest.param(_complete_bipartite(4), _complete_bipartite(4), 4, 13824, id="K44+K44"),
    ],
)
def test_factorizations_of_a_disjoint_union_multiply(g, h, k, expected):
    """For k-regular G and H, a 1-factorization of G + H pairs the k factors
    of one of G with those of one of H: |F(G + H)| = |F(G)| |F(H)| k!."""
    count = len(pg.enumerate_factorizations(_disjoint_union(g, h)))
    assert count == len(pg.enumerate_factorizations(g)) * len(pg.enumerate_factorizations(h)) * math.factorial(k)
    assert count == expected


def test_factorizations_without_edges():
    assert pg.enumerate_factorizations(ExperimentGraph([], [])) == [pg.Factorization(())]
    assert pg.enumerate_factorizations(ExperimentGraph(["a", "b"], [])) == []


def test_classify_layers_fig_fixture():
    report = pg.classify_layers(layered6())
    assert len(report.layer_matchings) == 3
    assert len(report.maverick_matchings) == 1
    assert report.maverick_matchings[0] == ("L0ef", "L1ac", "L2bd")


def test_classify_layers_k6():
    report = pg.classify_layers(k6_factored())
    assert len(report.layer_matchings) == 5
    assert len(report.maverick_matchings) == 10


def test_classify_layers_four_disjoint():
    report = pg.classify_layers(four_layer6())
    assert len(report.layer_matchings) == 4
    assert len(report.maverick_matchings) == 4


def test_classify_layers_partitions_enumeration():
    report = pg.classify_layers(k6_factored())
    both = list(report.layer_matchings) + list(report.maverick_matchings)
    assert sorted(both) == pg.enumerate_pm(k6_factored())


def test_classify_layers_requires_tags():
    with pytest.raises(pg.DomainError):
        pg.classify_layers(pg.complete_graph(4))


def test_classify_layers_rejects_non_matching_layer():
    g = ExperimentGraph(
        ["a", "b", "c", "d"],
        [Edge("x", "a", "b", layer=0), Edge("y", "b", "c", layer=0),
         Edge("z", "c", "d", layer=1), Edge("w", "a", "d", layer=1)],
    )
    with pytest.raises(pg.DomainError) as err:
        pg.classify_layers(g)
    assert "layer 0" in str(err.value)


def test_coincidence_cover_check_measured():
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    covers = pg.enumerate_pm(merged)
    assert len(covers) == 9
    for cover in covers:
        assert pg.is_coincidence_cover(merged, cover)
        assert len(cover) == 4
