"""Hall and Tutte checks with constructive witnesses."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph import Edge, ExperimentGraph, vertex_names
from photongraph.feasibility import HallWitness, TutteWitness

from fixt import hall_fixture, k4_ghz, spider
from oracles import brute_force_barrier, brute_force_covers, brute_force_matching_number


def test_hall_witness_fixture():
    result = pg.hall_check(hall_fixture())
    assert isinstance(result, HallWitness)
    assert result.subset_w == ("c", "e", "g")
    assert result.neighborhood == ("d", "f")


def test_hall_ladder_has_matching():
    names = ["a", "b", "c", "d", "e", "f"]
    g = ExperimentGraph(names, [Edge("1", "a", "b"), Edge("2", "c", "d"), Edge("3", "e", "f")])
    result = pg.hall_check(g)
    assert result == ("1", "2", "3")
    assert pg.is_coincidence_cover(g, result)


def test_hall_k33():
    xs, ys = ("x1", "x2", "x3"), ("y1", "y2", "y3")
    g = ExperimentGraph(xs + ys, [Edge(f"{x}{y}", x, y) for x in xs for y in ys])
    result = pg.hall_check(g)
    assert isinstance(result, tuple) and len(result) == 3


def test_hall_rejects_unequal_parts():
    g = ExperimentGraph(["a", "b", "c"], [Edge("1", "a", "b"), Edge("2", "a", "c")])
    with pytest.raises(pg.DomainError):
        pg.hall_check(g)


def test_hall_rejects_odd_cycle():
    g = ExperimentGraph(["a", "b", "c"], [Edge("1", "a", "b"), Edge("2", "b", "c"), Edge("3", "a", "c")])
    with pytest.raises(pg.NotBipartiteError):
        pg.hall_check(g)


def test_hall_pinned_parts():
    xs, ys = ("x1", "x2"), ("y1", "y2")
    g = ExperimentGraph(xs + ys, [Edge("a", "x1", "y1"), Edge("b", "x2", "y2")])
    result = pg.hall_check(g, (xs, ys))
    assert result == ("a", "b")


def test_hall_refuses_bad_pinned_parts():
    """Pinned parts that miss, repeat or add a vertex are refused before any
    edge is read; an edge inside a part is named by the first one declared,
    and it is refused before unequal part sizes are."""
    xs, ys = ("x1", "x2"), ("y1", "y2")
    edges = [Edge("b", "x1", "y1"), Edge("z", "y2", "y1"), Edge("a", "x1", "x2"), Edge("c", "x2", "y2")]
    g = ExperimentGraph(xs + ys, edges)

    def outcome(parts):
        try:
            pg.hall_check(g, parts)
        except pg.PhotonGraphError as exc:
            return type(exc), str(exc), getattr(exc, "odd_cycle", None), exc.reason
        raise AssertionError("hall_check accepted bad parts")

    def inner(edge_id):
        return pg.NotBipartiteError, f"edge {edge_id!r} joins two vertices of the same part", (), "not-bipartite"

    cover = (pg.DomainError, "bipartition parts must cover every vertex exactly once", None, "domain-error")
    cases = [
        ((xs, ys), inner("z")),
        ((("x1", "y1"), ("x2", "y2")), inner("b")),
        ((("x1", "x2", "y2"), ("y1",)), inner("a")),
        ((("x1",), ys), cover),
        ((xs, ("x2", "y1", "y2")), cover),
        ((("x1", "x1", "x2"), ys), cover),
        (((), ()), cover),
        ((xs + ("q",), ys), (pg.DomainError, "unknown vertex 'q'", None, "domain-error")),
    ]
    for parts, expected in cases:
        assert outcome(parts) == expected, parts


def test_tutte_spider_witness():
    result = pg.tutte_check(spider())
    assert isinstance(result, TutteWitness)
    assert result.subset_u == ("d",)
    assert len(result.odd_components) == 3
    assert {frozenset(c) for c in result.odd_components} == {
        frozenset("abc"), frozenset("efg"), frozenset("hij"),
    }


def test_tutte_k4_has_matching():
    result = pg.tutte_check(pg.complete_graph(4))
    assert isinstance(result, tuple)
    assert pg.is_coincidence_cover(pg.complete_graph(4), result)


def test_tutte_two_triangles_empty_witness():
    edges = [Edge("1", "a", "b"), Edge("2", "a", "c"), Edge("3", "b", "c"),
             Edge("4", "d", "e"), Edge("5", "d", "f"), Edge("6", "e", "f")]
    g = ExperimentGraph(list("abcdef"), edges)
    result = pg.tutte_check(g)
    assert isinstance(result, TutteWitness)
    assert result.subset_u == ()
    assert len(result.odd_components) == 2


def test_tutte_k14_two_triangles_empty_witness():
    names = vertex_names(20)
    edges = [Edge(f"k{i}.{j}", names[i], names[j]) for i, j in combinations(range(14), 2)]
    for t in (14, 17):
        edges += [Edge(f"t{a}.{b}", names[a], names[b]) for a, b in combinations(range(t, t + 3), 2)]
    result = pg.tutte_check(ExperimentGraph(names, edges))
    assert isinstance(result, TutteWitness)
    assert result.subset_u == ()
    assert result.odd_components == (names[14:17], names[17:20])


def test_tutte_answers_k22_with_a_perfect_matching():
    g = pg.complete_graph(22)
    result = pg.tutte_check(g)
    assert isinstance(result, tuple) and len(result) == 11
    assert pg.is_coincidence_cover(g, result)


def test_tutte_witness_of_k_10_12_is_the_small_side():
    xs, ys = tuple(f"x{i}" for i in range(10)), tuple(f"y{j}" for j in range(12))
    g = ExperimentGraph(xs + ys, [Edge(f"{x}{y}", x, y) for x in xs for y in ys])
    assert pg.tutte_check(g) == TutteWitness(xs, tuple((y,) for y in ys))


def test_checks_reject_measured_graphs():
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    with pytest.raises(pg.DomainError):
        pg.tutte_check(merged)


def _odd_components(g, removed) -> list[tuple[str, ...]]:
    """Odd components of g without the ``removed`` vertices, each in
    declaration order, listed in the order of their lowest vertex."""
    seen = set(removed)
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for e in g.edges:
                if v not in (e.u, e.v):
                    continue
                w = e.v if e.u == v else e.u
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    frontier.append(w)
        comps.append(tuple(u for u in g.vertices if u in comp))
    return [c for c in comps if len(c) % 2 == 1]


def _witness_is_valid(g, witness) -> bool:
    if isinstance(witness, HallWitness):
        if len(witness.neighborhood) >= len(witness.subset_w):
            return False
        exact = set()
        for e in g.edges:
            if e.u in witness.subset_w:
                exact.add(e.v)
            if e.v in witness.subset_w:
                exact.add(e.u)
        return exact == set(witness.neighborhood)
    odd = _odd_components(g, witness.subset_u)
    reported = [set(c) for c in witness.odd_components]
    return len(odd) > len(witness.subset_u) and sorted(map(sorted, odd)) == sorted(map(sorted, reported))


def test_tutte_k57_witness_is_the_small_side():
    xs, ys = tuple(f"x{i}" for i in range(5)), tuple(f"y{j}" for j in range(7))
    g = ExperimentGraph(xs + ys, [Edge(f"{x}{y}", x, y) for x in xs for y in ys])
    assert pg.tutte_check(g) == TutteWitness(xs, tuple((y,) for y in ys))


def test_tutte_witness_is_the_gallai_edmonds_barrier_not_the_minimal_one():
    # K_{1,3} plus two isolated vertices: the Gallai-Edmonds barrier is {a}
    # (five odd components), though the empty set already leaves {e} and {f}.
    g = ExperimentGraph(list("abcdef"), [Edge("1", "a", "b"), Edge("2", "a", "c"), Edge("3", "a", "d")])
    assert pg.tutte_check(g) == TutteWitness(("a",), (("b",), ("c",), ("d",), ("e",), ("f",)))
    assert _odd_components(g, ()) == [("e",), ("f",)]


def test_bipartite_agreement_exhaustive_parts_3():
    k = 3
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k)]
    slots = [(x, y) for x in xs for y in ys]
    for mask in range(1 << len(slots)):
        edges = [Edge(f"e{s}", u, v) for s, (u, v) in enumerate(slots) if mask >> s & 1]
        g = ExperimentGraph(xs + ys, edges)
        result = pg.hall_check(g, (tuple(xs), tuple(ys)))
        exists = isinstance(result, tuple)
        assert exists == (len(brute_force_covers(g)) > 0)
        if exists:
            assert pg.is_coincidence_cover(g, result)
        else:
            assert _witness_is_valid(g, result)


def test_bipartite_agreement_exhaustive_parts_4():
    # brute-force subsets are too slow at this size; the enumeration engine
    # (itself checked against brute force elsewhere) is the oracle here
    k = 4
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k)]
    slots = [(x, y) for x in xs for y in ys]
    for mask in range(1 << len(slots)):
        edges = [Edge(f"e{s}", u, v) for s, (u, v) in enumerate(slots) if mask >> s & 1]
        g = ExperimentGraph(xs + ys, edges)
        result = pg.hall_check(g, (tuple(xs), tuple(ys)))
        exists = isinstance(result, tuple)
        assert exists == (len(pg.enumerate_pm(g)) > 0)
        if not exists:
            assert _witness_is_valid(g, result)


def test_tutte_agreement_exhaustive_small():
    """Every graph on at most 5 vertices and 300 seeded ones on 6; the
    witness must be the brute-force Gallai-Edmonds barrier with the odd
    components it leaves, n - 2nu more than its size."""
    rng = random.Random(7)
    for n in range(0, 7):
        names = vertex_names(n)
        pairs = list(combinations(range(n), 2))
        masks = range(1 << len(pairs)) if n < 6 else [rng.getrandbits(len(pairs)) for _ in range(300)]
        for mask in masks:
            edges = [Edge(f"e{s}", names[i], names[j]) for s, (i, j) in enumerate(pairs) if mask >> s & 1]
            g = ExperimentGraph(names, edges)
            result = pg.tutte_check(g)
            exists = isinstance(result, tuple)
            assert exists == (len(brute_force_covers(g)) > 0)
            barrier, odd = brute_force_barrier(g)
            if exists:
                assert pg.is_coincidence_cover(g, result)
                assert barrier == odd == ()
            else:
                assert result == TutteWitness(barrier, odd)
                assert len(odd) - len(barrier) == n - 2 * brute_force_matching_number(g)


def test_tutte_agreement_random_14():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice([8, 10, 12, 14])
        g = pg.random_graph(n, rng.uniform(0.05, 0.4), rng.getrandbits(32))
        result = pg.tutte_check(g)
        exists = isinstance(result, tuple)
        assert exists == (len(pg.enumerate_pm(g)) > 0)
        if not exists:
            assert _witness_is_valid(g, result)


@st.composite
def relabelled_graphs(draw, bipartite: bool):
    """A multigraph on at most 10 vertices and the same graph with its
    vertices declared in a random order; a bipartite one joins only its x
    side to its y side, of equal size."""
    if bipartite:
        k = draw(st.integers(min_value=0, max_value=5))
        xs, ys = [f"x{i}" for i in range(k)], [f"y{i}" for i in range(k)]
        names, slots = xs + ys, [(x, y) for x in xs for y in ys]
    else:
        names = list(vertex_names(draw(st.integers(min_value=0, max_value=10))))
        slots = list(combinations(names, 2))
    ends = draw(st.lists(st.sampled_from(slots), max_size=2 * len(names))) if slots else []
    edges = [Edge(f"e{s}", u, v) for s, (u, v) in enumerate(ends)]
    return ExperimentGraph(names, edges), ExperimentGraph(draw(st.permutations(names)), edges)


def _finds_matching(check, g) -> bool:
    """Whether ``check`` finds a perfect matching of ``g``: True for a
    cover, False for a valid witness or, from the 2-colouring of an
    unbalanced graph, a refusal of its unequal parts."""
    try:
        result = check(g)
    except pg.DomainError as exc:
        assert exc.reason == "unequal-parts"
        return False
    if isinstance(result, tuple):
        assert pg.is_coincidence_cover(g, result)
        return True
    assert _witness_is_valid(g, result)
    return False


@given(relabelled_graphs(bipartite=True))
@settings(max_examples=150, deadline=None)
def test_hall_finds_a_matching_whatever_the_vertex_order(pair):
    g, relabelled = pair
    assert _finds_matching(pg.hall_check, relabelled) == _finds_matching(pg.hall_check, g)


@given(relabelled_graphs(bipartite=False))
@settings(max_examples=150, deadline=None)
def test_tutte_finds_a_matching_whatever_the_vertex_order(pair):
    g, relabelled = pair
    assert _finds_matching(pg.tutte_check, relabelled) == _finds_matching(pg.tutte_check, g)


@given(relabelled_graphs(bipartite=False), st.data())
@settings(max_examples=150, deadline=None)
def test_tutte_barrier_maps_with_the_relabelling(pair, data):
    """Renaming the vertices by a bijection, declared in another order,
    renames the barrier and its odd components with them."""
    g, reordered = pair
    image = dict(zip(g.vertices, data.draw(st.permutations(g.vertices))))
    relabelled = ExperimentGraph([image[v] for v in reordered.vertices],
                                 [Edge(e.id, image[e.u], image[e.v]) for e in g.edges])

    def barrier(graph, name=lambda v: v):
        result = pg.tutte_check(graph)
        if isinstance(result, tuple):
            return None
        return {name(v) for v in result.subset_u}, {frozenset(map(name, c)) for c in result.odd_components}

    assert barrier(relabelled) == barrier(g, image.__getitem__)
