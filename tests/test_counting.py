"""Hafnian and permanent kernels against naive oracles."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph import Edge, ExperimentGraph

from fixt import double_edge
from oracles import brute_force_covers, naive_hafnian, naive_permanent


def test_hafnian_single_pair():
    assert pg.hafnian([[0, 1], [1, 0]]) == 1


def test_hafnian_empty_matrix():
    assert pg.hafnian([]) == 1


def test_hafnian_k6_adjacency():
    assert pg.hafnian(pg.complete_graph(6).adjacency()) == 15
    for m in range(1, 11):  # up to K20, (2m - 1)!! matchings
        assert pg.hafnian(pg.complete_graph(2 * m).adjacency()) == pg.count_pm_formula(m)


def test_hafnian_double_edge_multiplicity():
    assert pg.hafnian(double_edge().adjacency()) == 2


def test_hafnian_matches_enumeration_random_8():
    rng = random.Random(5)
    for _ in range(20):
        g = pg.random_graph(8, rng.uniform(0.2, 0.9), rng.getrandbits(32))
        assert pg.hafnian(g.adjacency()) == len(brute_force_covers(g))


def test_hafnian_rejects_odd_order():
    with pytest.raises(pg.DomainError):
        pg.hafnian([[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_hafnian_rejects_asymmetry():
    with pytest.raises(pg.DomainError):
        pg.hafnian([[0, 1], [2, 0]])


def test_hafnian_rejects_nonzero_diagonal():
    with pytest.raises(pg.DomainError):
        pg.hafnian([[1, 1], [1, 0]])


@pytest.mark.parametrize("kernel", [pg.hafnian, pg.permanent])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 1)])
def test_non_finite_entries_are_refused_by_name(kernel, bad):
    m = [[0, bad], [bad, 0]]
    with pytest.raises(pg.DomainError) as err:
        kernel(m)
    assert str(err.value) == f"matrix entry (0,1) is not finite: {bad!r}"
    assert err.value.reason == "domain-error"


def test_hafnian_scale_guard():
    n = 26
    m = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    with pytest.raises(pg.ScaleLimitError):
        pg.hafnian(m)


def _block_diagonal(a, b):
    k, n = len(a), len(a) + len(b)
    return [
        [a[i][j] if i < k and j < k else (b[i - k][j - k] if i >= k and j >= k else 0)
         for j in range(n)]
        for i in range(n)
    ]


def test_hafnian_block_diagonal_product():
    rng = random.Random(9)
    for _ in range(10):
        a = _random_symmetric(rng, 4)
        b = _random_symmetric(rng, 6)
        block = _block_diagonal(a, b)
        assert pg.hafnian(block) == pg.hafnian(a) * pg.hafnian(b)
    # order 26, past the order guard: the counter's live sets cover the
    # first block before they reach the second, so this stays cheap
    a = _random_symmetric(rng, 12)
    b = _random_symmetric(rng, 14)
    block = _block_diagonal(a, b)
    assert pg.hafnian(block, override_limits=True) == pg.hafnian(a) * pg.hafnian(b) != 0


def _random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randrange(0, 4)
    return m


def test_hafnian_complex_entries():
    theta = 2.0
    m = [[0, complex(math.cos(theta), math.sin(theta))],
         [complex(math.cos(theta), math.sin(theta)), 0]]
    value = pg.hafnian(m)
    assert abs(value - complex(math.cos(theta), math.sin(theta))) < 1e-12


@st.composite
def symmetric_matrices(draw, entries):
    """Symmetric matrices of even order <= 10 with a zero diagonal, the
    upper triangle drawn from ``entries``."""
    n = 2 * draw(st.integers(min_value=0, max_value=5))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(entries)
    return m


@given(st.one_of(symmetric_matrices(st.integers(min_value=0, max_value=3)),
                 symmetric_matrices(st.integers(min_value=0, max_value=1))))
@settings(max_examples=120, deadline=None)
def test_hafnian_matches_oracle_on_multigraphs(m):
    assert pg.hafnian(m) == naive_hafnian(m)


@st.composite
def relabelled_symmetric_matrices(draw):
    """An integer symmetric matrix of even order <= 14 with a zero diagonal,
    past the naive oracle's reach, and P A P^T for a random permutation P."""
    n = 2 * draw(st.integers(min_value=0, max_value=7))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.integers(min_value=-3, max_value=3))
    p = draw(st.permutations(range(n)))
    return m, [[m[i][j] for j in p] for i in p]


@given(relabelled_symmetric_matrices())
@settings(max_examples=60, deadline=None)
def test_hafnian_is_invariant_under_relabelling(pair):
    m, relabelled = pair
    assert pg.hafnian(relabelled) == pg.hafnian(m)


@st.composite
def permuted_square_matrices(draw):
    """An integer square matrix of order <= 12 and P A Q for random
    permutations P and Q."""
    n = draw(st.integers(min_value=0, max_value=12))
    m = draw(st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    return m, [[m[i][j] for j in q] for i in p]


@given(permuted_square_matrices())
@settings(max_examples=60, deadline=None)
def test_permanent_is_invariant_under_row_and_column_permutations(pair):
    m, permuted = pair
    assert pg.permanent(permuted) == pg.permanent(m)


def test_hafnian_result_types():
    k4 = pg.complete_graph(4).adjacency()
    # entries whose products underflow keep the float or complex type
    for entry, expected in ((1, 3), (1.0, 3.0), (True, 3), (2, 12), (1e-200, 0.0), (complex(1e-200, 0), 0j)):
        value = pg.hafnian([[entry if x else 0 for x in row] for row in k4])
        assert value == expected and type(value) is type(expected)


def test_hafnian_type_follows_every_entry():
    # a float matrix with no perfect pairing, and a float entry that leads
    # to no pairing next to integer ones, give floats whatever the vertex
    # order, and so does a float entry behind a first row of zeros
    no_pairing = [[0, 1.0, 2.0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0], [0, 0, 0, 0]]
    dead_end = [[0, 1, 0.5, 0], [1, 0, 0, 0], [0.5, 0, 0, 1], [0, 0, 1, 0]]
    dead_end_swapped = [[0, 1, 0, 0], [1, 0, 0.5, 0], [0, 0.5, 0, 1], [0, 0, 1, 0]]  # vertices 0 and 1 swapped
    empty_row = [[0, 0, 0, 0], [0, 0, 0, 1.0], [0, 0, 0, 0], [0, 1.0, 0, 0]]
    for m, expected in ((no_pairing, 0.0), (dead_end, 1.0), (dead_end_swapped, 1.0), (empty_row, 0.0)):
        value = pg.hafnian(m)
        assert value == expected and type(value) is type(expected)


_WIDTH = {bool: 0, int: 0, float: 1, complex: 2}


@st.composite
def relabelled_mixed_matrices(draw):
    """A symmetric matrix of even order <= 10 with a zero diagonal whose
    entries, the diagonal and both mirror entries of a pair included, are
    each an int, float or complex (or bool) of one small integer value, and
    P A P^T for a random permutation P."""
    n = 2 * draw(st.integers(min_value=0, max_value=5))

    def entry(value: int):
        kinds = (int, float, complex) + ((bool,) if value in (0, 1) else ())
        return draw(st.sampled_from(kinds))(value)

    m = [[entry(0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = draw(st.integers(min_value=-2, max_value=2))
            m[i][j], m[j][i] = entry(value), entry(value)
    p = draw(st.permutations(range(n)))
    return m, [[m[i][j] for j in p] for i in p]


@given(relabelled_mixed_matrices())
@settings(max_examples=150, deadline=None)
def test_hafnian_type_is_the_widest_entry_type_under_relabelling(pair):
    m, _ = pair
    widest = max((type(x) for row in m for x in row), key=_WIDTH.__getitem__, default=int)
    exact = pg.hafnian([[int(x.real) for x in row] for row in m])
    for matrix in pair:
        value = pg.hafnian(matrix)
        assert type(value) is (int if widest is bool else widest) and value == exact


def test_permanent_type_follows_every_entry():
    # a float row after an all-int zero row gives a float, as before it
    for m in ([[0, 0], [1.0, 1.0]], [[1.0, 1.0], [0, 0]]):
        value = pg.permanent(m)
        assert value == 0.0 and type(value) is float


@st.composite
def permuted_mixed_matrices(draw):
    """A square matrix of order <= 6 whose entries are each an int, float or
    complex (or bool) of one small integer value, half of them zeros, so
    zero row sums come often, and P A Q and its transpose for random
    permutations P and Q."""
    n = draw(st.integers(min_value=0, max_value=6))
    values = st.one_of(st.just(0), st.integers(min_value=-2, max_value=2))

    def entry(value: int):
        kinds = (int, float, complex) + ((bool,) if value in (0, 1) else ())
        return draw(st.sampled_from(kinds))(value)

    m = [[entry(draw(values)) for _ in range(n)] for _ in range(n)]
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    permuted = [[m[i][j] for j in q] for i in p]
    return m, permuted, [list(col) for col in zip(*permuted)]


@given(permuted_mixed_matrices())
@settings(max_examples=150, deadline=None)
def test_permanent_value_and_type_survive_permutations_and_transposition(matrices):
    m = matrices[0]
    widest = max((type(x) for row in m for x in row), key=_WIDTH.__getitem__, default=int)
    exact = pg.permanent([[int(x.real) for x in row] for row in m])
    for matrix in matrices:
        value = pg.permanent(matrix)
        assert type(value) is (int if widest is bool else widest) and value == exact


_parts = st.floats(min_value=-2.0, max_value=2.0)


@given(symmetric_matrices(st.one_of(st.just(0j), st.builds(complex, _parts, _parts))))
@settings(max_examples=120, deadline=None)
def test_hafnian_matches_oracle_on_sparse_complex_matrices(m):
    # relative to the summed term magnitudes, so a cancelling sum is still
    # held to 1e-9 of the terms that cancel
    scale = naive_hafnian([[abs(x) for x in row] for row in m])
    assert abs(pg.hafnian(m) - naive_hafnian(m)) <= 1e-9 * scale


def _packed_counts(n: int, graphs: list[list[tuple[int, int]]]) -> list[int]:
    """Matching counts of each graph, given as its vertex pairs i < j, from
    one pass of the matching counter with a field per graph."""
    from operator import and_

    from photongraph.counting import _matching_sum

    width = math.prod(range(n - 1, 0, -2)).bit_length()
    field = (1 << width) - 1
    keep = [[0] * n for _ in range(n)]
    for k, graph in enumerate(graphs):
        for i, j in graph:
            keep[i][j] |= field << k * width
    total = _matching_sum(keep, sum(1 << k * width for k in range(len(graphs))), and_)
    return [total >> k * width & field for k in range(len(graphs))]


def test_unit_matchings_fields_hold_the_most_matchings_side_by_side():
    # K24's 23!! matchings fill both fields of a two-graph count: a carry out
    # of the lower field would show in the upper one
    k24 = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    assert _packed_counts(24, [k24, k24]) == [math.prod(range(23, 0, -2))] * 2


def test_unit_matchings_counts_nested_graphs():
    # a 4-cycle 0-1-2-3 and the chords 0-2, 1-3: the cycle has two
    # matchings, the chords one and K4 three
    cycle, chords = [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2), (1, 3)]
    assert _packed_counts(4, [cycle, cycle + chords]) == [2, 3]
    assert _packed_counts(4, [chords, chords + cycle]) == [1, 3]
    assert _packed_counts(4, [[(1, 3)], cycle + chords]) == [0, 3]
    # the family need not be nested
    assert _packed_counts(4, [cycle, chords, []]) == [2, 1, 0]


def test_permanent_identity():
    assert pg.permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_permanent_all_ones():
    assert pg.permanent([[1] * 4 for _ in range(4)]) == 24


def test_permanent_all_ones_factorial():
    for n in range(0, 11):
        m = [[1] * n for _ in range(n)]
        assert pg.permanent(m) == math.factorial(n)


def test_permanent_matches_naive():
    rng = random.Random(17)
    for n in range(1, 8):
        m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        assert pg.permanent(m) == naive_permanent(m)


def test_permanent_complex_matches_naive():
    rng = random.Random(23)
    m = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)] for _ in range(5)]
    assert abs(pg.permanent(m) - naive_permanent(m)) < 1e-9


def test_overflowing_float_results_are_domain_errors():
    for kernel, m in (
        (pg.permanent, [[1e308, 1e308], [1e308, 1e308]]),
        (pg.hafnian, [[0 if i == j else 1e308 for j in range(4)] for i in range(4)]),
        # an integer beyond the double range next to float entries
        (pg.permanent, [[10**400, 0.5], [0.5, 1]]),
        (pg.hafnian, [[0, 10**400, 0, 0], [10**400, 0, 0, 0], [0, 0, 0, 0.5], [0, 0, 0.5, 0]]),
    ):
        with pytest.raises(pg.DomainError) as err:
            kernel(m)
        assert err.value.reason == "overflow"


def test_permanent_rejects_non_square():
    with pytest.raises(pg.DomainError):
        pg.permanent([[1, 2, 3], [4, 5, 6]])


def test_permanent_scale_guard():
    m = [[1] * 21 for _ in range(21)]
    with pytest.raises(pg.ScaleLimitError):
        pg.permanent(m)


def test_permanent_counts_bipartite_matchings():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randrange(1, 6)
        g = _random_bipartite(rng, k)
        bi = g.biadjacency((g.vertices[:k], g.vertices[k:]))
        assert pg.permanent([list(r) for r in bi.entries]) == len(brute_force_covers(g))


def _random_bipartite(rng, k):
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k)]
    edges = []
    for x in xs:
        for y in ys:
            if rng.random() < 0.6:
                edges.append(Edge(f"{x}{y}", x, y))
    return ExperimentGraph(xs + ys, edges)


def test_fifteen_crystal_bipartite_graph_has_eight_matchings():
    from fixt import bipartite_ten

    g = bipartite_ten()
    assert pg.matrix_counts(g) == (8, 8)
    assert len(pg.enumerate_pm(g)) == 8


def test_count_via_matrix_bipartite_agreement():
    rng = random.Random(41)
    g = _random_bipartite(rng, 5)
    assert pg.matrix_counts(g) == (len(pg.enumerate_pm(g)),) * 2


def test_count_via_matrix_edgeless():
    assert pg.matrix_counts(ExperimentGraph(pg.vertex_names(4))) == (0, None)


def test_count_via_matrix_rejects_measured():
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b")], measured=["a"])
    with pytest.raises(pg.DomainError):
        pg.matrix_counts(g)


def test_count_via_matrix_propagates_odd_order():
    with pytest.raises(pg.DomainError):
        pg.matrix_counts(ExperimentGraph(["a", "b", "c"], [Edge("x", "a", "b")]))


def test_matrix_counts_reports_the_permanent_only_for_balanced_bipartite_graphs():
    from fixt import bipartite_ten

    assert pg.matrix_counts(bipartite_ten()) == (8, 8)
    assert pg.matrix_counts(pg.complete_graph(4)) == (3, None)
    star = ExperimentGraph(pg.vertex_names(4), [Edge(f"x{k}", "a", v) for k, v in enumerate("bcd")])
    assert pg.matrix_counts(star) == (0, None)
