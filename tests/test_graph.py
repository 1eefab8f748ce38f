"""Graph model, document round-trips, adjacency matrices, merging."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import re
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph import Edge, ExperimentGraph

from fixt import double_edge, k4_ghz
from oracles import brute_force_covers

K4_DOC = """
{
  "vertices": ["a", "b", "c", "d"],
  "edges": [
    {"id": "I",   "u": "a", "v": "b", "mode_u": 0, "mode_v": 0},
    {"id": "II",  "u": "c", "v": "d", "mode_u": 0, "mode_v": 0},
    {"id": "III", "u": "a", "v": "c", "mode_u": 1, "mode_v": 1},
    {"id": "IV",  "u": "b", "v": "d", "mode_u": 1, "mode_v": 1},
    {"id": "V",   "u": "a", "v": "d", "mode_u": 2, "mode_v": 2},
    {"id": "VI",  "u": "b", "v": "c", "mode_u": 2, "mode_v": 2}
  ]
}
"""


def test_parse_k4_document():
    g = pg.parse_graph(K4_DOC)
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    assert g.measured == frozenset()


def test_parse_empty_graph():
    g = pg.parse_graph('{"vertices": [], "edges": []}')
    assert g.vertices == ()
    assert g.edges == ()


def test_parse_self_loop_rejected():
    doc = '{"vertices": ["a"], "edges": [{"id": "x", "u": "a", "v": "a"}]}'
    with pytest.raises(pg.GraphParseError) as err:
        pg.parse_graph(doc)
    assert "edges[0]" in str(err.value)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ('{"vertices": ["a", "a"]}', "vertices[1]"),
        ('{"vertices": ["a", "b"], "edges": [{"id": "x", "u": "a", "v": "b"}, {"id": "x", "u": "a", "v": "b"}]}',
         "edges[1].id"),
        ('{"vertices": ["a"], "edges": [{"id": "x", "u": "a", "v": "z"}]}', "edges[0].v"),
        ('{"vertices": ["a", "b"], "edges": [{"id": "x", "u": "a", "v": "b", "mode_u": -1}]}',
         "edges[0].mode_u"),
        ('{"vertices": ["a"], "measured": ["q"]}', "measured[0]"),
        ("not json", "<document>"),
        pytest.param('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "amp_mag": 1' + "0" * 400 + "}]}",
                     "edges[0].amp_mag: number must be finite", id="integer-beyond-double"),
        pytest.param("[" * 200000 + "]" * 200000, "<document>: invalid JSON", id="nested-too-deeply"),
        pytest.param('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "amp_mag": -1}]}',
                     "edges[0].amp_mag: amp_mag must be >= 0", id="negative-amp-mag"),
    ],
)
def test_parse_errors_carry_location(doc, fragment):
    with pytest.raises(pg.GraphParseError) as err:
        pg.parse_graph(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "fields, field, problem",
    [
        ({"amp_mag": True}, "amp_mag", "expected a number"),
        ({"amp_phase_rad": False}, "amp_phase_rad", "expected a number"),
        ({"amp_mag": "1"}, "amp_mag", "expected a number"),
        ({"amp_phase_rad": None}, "amp_phase_rad", "expected a number"),
        ({"amp_mag": 10**400}, "amp_mag", "number must be finite"),
    ],
)
def test_edge_refuses_amplitudes_the_readers_refuse(fields, field, problem):
    with pytest.raises(pg.DomainError) as err:
        Edge("x", "a", "b", **fields)
    assert (err.value.field, err.value.problem) == (field, problem)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: ExperimentGraph(["a", "b"], [Edge("x", "a", "b")], measured=[["a"]]), "measured[0]"),
        (lambda: ExperimentGraph(["a", "b"], [Edge("x", ["a"], "b")]), "edges[0].u"),
    ],
)
def test_unhashable_names_are_domain_errors(make, field):
    with pytest.raises(pg.DomainError) as err:
        make()
    assert err.value.field == field


def test_generated_edge_ids():
    doc = '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}, {"u": "a", "v": "b"}]}'
    g = pg.parse_graph(doc)
    assert sorted(e.id for e in g.edges) == ["e0", "e1"]


def test_round_trip_k4_identity():
    g = pg.parse_graph(K4_DOC)
    text = pg.serialize_graph(g)
    assert pg.parse_graph(text) == g
    assert pg.serialize_graph(pg.parse_graph(text)) == text


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_equal_the_graph_and_carry_no_state(duplicate):
    """Copying and pickling rebuild the graph from its vertices, edges and
    measured vertices; a copy made after the graph's state was computed
    starts without it and computes the same state."""
    merged = pg.merge_graphs(pg.complete_graph(4), ExperimentGraph(["x", "y"], [Edge("f", "y", "x", 1, 0)]),
                             [("d", "x")])
    for g in (pg.complete_graph(4), merged):
        assert duplicate(g) == g
        state = pg.state_from_graph(g, normalize=True)
        twin = duplicate(g)
        assert twin == g and twin.measured == g.measured and twin.edges == g.edges
        assert twin._sums is None
        assert pg.state_from_graph(twin, normalize=True) == state


def test_serialization_canonicalizes_edge_order():
    a = ExperimentGraph(["a", "b", "c", "d"], [Edge("x", "a", "b"), Edge("y", "c", "d")])
    b = ExperimentGraph(["a", "b", "c", "d"], [Edge("y", "c", "d"), Edge("x", "a", "b")])
    assert pg.serialize_graph(a) == pg.serialize_graph(b)
    assert a == b


def test_k6_round_trip():
    g = pg.complete_graph(6)
    assert pg.parse_graph(pg.serialize_graph(g)) == g


def test_endpoint_orientation_follows_declaration_order():
    g = ExperimentGraph(["a", "b"], [Edge("x", "b", "a", mode_u=3, mode_v=1)])
    e = g.edges[0]
    assert (e.u, e.v) == ("a", "b")
    assert (e.mode_u, e.mode_v) == (1, 3)


def test_adjacency_k4():
    m = pg.complete_graph(4).adjacency()
    assert m == [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


def test_adjacency_double_edge():
    assert double_edge().adjacency() == [[0, 2], [2, 0]]


def test_adjacency_empty():
    assert ExperimentGraph(["a", "b"]).adjacency() == [[0, 0], [0, 0]]


def test_adjacency_symmetry_zero_diagonal_random():
    rng = random.Random(11)
    for _ in range(25):
        g = pg.random_graph(rng.randrange(0, 9), rng.random(), rng.getrandbits(32))
        m = g.adjacency()
        n = len(m)
        assert all(m[i][i] == 0 for i in range(n))
        assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))


def test_biadjacency_single_edge():
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b")])
    bi = g.biadjacency()
    assert bi.rows == ("a",) and bi.cols == ("b",)
    assert bi.entries == ((1,),)


def test_biadjacency_five_plus_five():
    from fixt import bipartite_ten

    bi = bipartite_ten().biadjacency()
    assert len(bi.rows) == 5 and len(bi.cols) == 5
    assert sum(sum(r) for r in bi.entries) == 15


def test_triangle_not_bipartite():
    g = ExperimentGraph(["a", "b", "c"], [Edge("1", "a", "b"), Edge("2", "b", "c"), Edge("3", "a", "c")])
    with pytest.raises(pg.NotBipartiteError) as err:
        g.biadjacency()
    cycle = err.value.odd_cycle
    assert len(cycle) == 3 and set(cycle) == {"a", "b", "c"}


def test_merge_double_k4():
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    assert len(merged.vertices) == 7
    assert merged.degree("d") == 6
    assert merged.measured == frozenset({"d"})
    assert len(merged.edges) == 12


def test_merge_empty_pairs_is_disjoint_union():
    g1 = ExperimentGraph(["a", "b"], [Edge("x", "a", "b")])
    g2 = ExperimentGraph(["c", "d"], [Edge("y", "c", "d")])
    merged = pg.merge_graphs(g1, g2, [])
    assert merged.vertices == ("a", "b", "c", "d")
    assert sorted(e.id for e in merged.edges) == ["x", "y"]
    assert merged.measured == frozenset()


def test_merge_chains_associatively():
    g1 = k4_ghz(("a", "b", "c", "d"))
    g2 = k4_ghz(("e", "f", "g", "h"))
    g3 = k4_ghz(("i", "j", "k", "l"))
    left = pg.merge_graphs(pg.merge_graphs(g1, g2, [("d", "e")]), g3, [("h", "i")])
    right = pg.merge_graphs(g1, pg.merge_graphs(g2, g3, [("h", "i")]), [("d", "e")])
    assert left == right


def test_merge_preserves_edge_count_and_drops_vertices():
    g1 = k4_ghz(("a", "b", "c", "d"))
    g2 = k4_ghz(("e", "f", "g", "h"))
    merged = pg.merge_graphs(g1, g2, [("a", "e"), ("b", "f")])
    assert len(merged.edges) == len(g1.edges) + len(g2.edges)
    assert len(merged.vertices) == len(g1.vertices) + len(g2.vertices) - 2
    assert merged.measured == frozenset({"a", "b"})


def test_merge_rejects_repeated_pair_member():
    g1 = k4_ghz(("a", "b", "c", "d"))
    g2 = k4_ghz(("e", "f", "g", "h"))
    with pytest.raises(pg.DomainError):
        pg.merge_graphs(g1, g2, [("d", "e"), ("d", "f")])


def test_merge_namespaces_colliding_edge_ids():
    g1 = ExperimentGraph(["a", "b"], [Edge("x", "a", "b")])
    g2 = ExperimentGraph(["c", "d"], [Edge("x", "c", "d")])
    merged = pg.merge_graphs(g1, g2, [])
    assert sorted(e.id for e in merged.edges) == ["2:x", "x"]


def test_random_graph_extremes():
    assert len(pg.random_graph(6, 1.0, 1).edges) == 15
    assert len(pg.random_graph(6, 0.0, 1).edges) == 0


GOLDEN_N8_P05_SEED42 = [
    ("e0", "a", "c"), ("e1", "a", "d"), ("e2", "a", "e"), ("e3", "b", "c"),
    ("e4", "b", "d"), ("e5", "b", "e"), ("e6", "b", "f"), ("e7", "b", "h"),
    ("e8", "c", "d"), ("e9", "c", "g"), ("e10", "d", "f"), ("e11", "e", "f"),
    ("e12", "e", "g"), ("e13", "f", "g"), ("e14", "f", "h"), ("e15", "g", "h"),
]


def test_random_graph_golden_run():
    g = pg.random_graph(8, 0.5, 42)
    assert [(e.id, e.u, e.v) for e in g.edges] == GOLDEN_N8_P05_SEED42
    again = pg.random_graph(8, 0.5, 42)
    assert g == again


def test_random_graph_edge_frequency():
    # 1000 graphs x 10 pair slots = 10000 Bernoulli draws.
    p = 0.3
    draws = 0
    hits = 0
    for seed in range(1000):
        g = pg.random_graph(5, p, seed)
        draws += 10
        hits += len(g.edges)
    freq = hits / draws
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(freq - p) <= 3 * sigma


def test_random_graph_rejects_bad_probability():
    with pytest.raises(pg.DomainError):
        pg.random_graph(4, 1.5, 0)


def test_dot_export():
    text = pg.to_dot(pg.parse_graph(K4_DOC))
    assert text.startswith("graph experiment {")
    assert '"a" -- "b" [label="I:(0,0)"];' in text
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    assert "peripheries=2" in pg.to_dot(merged)
    names = ['a"b', "c\\", 'd\\"e', "f"]
    g = ExperimentGraph(names, [Edge('q"1', 'a"b', "c\\", 1, 0), Edge("r\\", 'd\\"e', "f")])
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', pg.to_dot(g))
    read = [re.sub(r"\\(.)", r"\1", q) for q in quoted]
    assert read == names + ['a"b', "c\\", 'q"1:(1,0)', 'd\\"e', "f", "r\\:(0,0)"]


def test_measured_vertices_serialize():
    g = ExperimentGraph(["a", "b", "c", "d"],
                        [Edge("x", "a", "b"), Edge("y", "c", "d")],
                        measured=["b"])
    doc = json.loads(pg.serialize_graph(g))
    assert doc["measured"] == ["b"]
    assert pg.parse_graph(pg.serialize_graph(g)) == g


def test_immutability():
    g = pg.complete_graph(3)
    with pytest.raises(AttributeError):
        g.vertices = ()


# ---------------------------------------------------------------------------
# one rule set: the readers refuse what the constructors refuse
# ---------------------------------------------------------------------------

_NAMES = ["a", "b", "c", "d"]
# Values of every JSON type, as a document may hold them in any place.
_ANY = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), -1, 2**53 + 1])
    | st.floats()
    | st.sampled_from(["", "a", "e0", "x"])
    | st.lists(st.sampled_from(_NAMES), max_size=2)
)


@st.composite
def _edge_fields(draw, names, k):
    u, v = draw(st.permutations(names))[:2]
    return {
        "id": draw(st.just(f"e{k}") | st.text(min_size=1, max_size=2)),
        "u": u,
        "v": v,
        "mode_u": draw(st.integers(0, 3) | st.just(10**30)),
        "mode_v": draw(st.integers(0, 3)),
        "amp_mag": draw(st.floats(0, 4) | st.integers(0, 2**70)),
        "amp_phase_rad": draw(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)),
        "layer": draw(st.none() | st.integers(0, 3)),
    }


@st.composite
def _field_values(draw):
    """Vertex names, edge field values and measured names of the kinds the
    model takes, with up to two values of any type put in any place."""
    names = draw(st.permutations(_NAMES))[: draw(st.integers(2, 4))]
    vertices = list(names)
    records = [draw(_edge_fields(names, k)) for k in range(draw(st.integers(0, 4)))]
    measured = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        target = draw(st.sampled_from([vertices, measured, *records]))
        if isinstance(target, dict):
            target[draw(st.sampled_from(sorted(target)))] = draw(_ANY)
        else:
            target.append(draw(_ANY))
    return vertices, records, measured


def _constructed(vertices, records, measured):
    """The graph the constructors build, or their refusal as ``(field,
    problem)`` with an edge's own field named as in a graph document."""
    edges = []
    for k, rec in enumerate(records):
        try:
            edges.append(Edge(**rec))
        except pg.DomainError as exc:
            return None, (f"edges[{k}].{exc.field}" if exc.field else f"edges[{k}]", exc.problem)
    try:
        return ExperimentGraph(vertices, edges, measured), None
    except pg.DomainError as exc:
        return None, (exc.field, exc.problem)


def _read(read, text):
    try:
        return read(text), None
    except pg.GraphParseError as exc:
        return None, (exc.location, str(exc).removeprefix(f"{exc.location}: "))


@given(_field_values())
@settings(max_examples=300, deadline=None)
def test_graph_reader_refuses_what_the_constructors_refuse(values):
    vertices, records, measured = values
    text = json.dumps({"vertices": vertices, "measured": measured, "edges": records})
    assert _read(pg.parse_graph, text) == _constructed(vertices, records, measured)


def _plan_location(field):
    """Crystal 0 is ``layers[0][0]``, crystal k > 0 is ``layers[1][k - 1]``."""
    if not field.startswith("edges["):
        return field.replace("vertices", "detectors")
    k, _, rest = field.removeprefix("edges[").partition("]")
    return ("layers[0][0]" if k == "0" else f"layers[1][{int(k) - 1}]") + rest


@given(_field_values())
@settings(max_examples=300, deadline=None)
def test_plan_reader_refuses_what_the_constructors_refuse(values):
    detectors, records, _ = values
    crystals = [{key: value for key, value in rec.items() if key != "layer"} for rec in records]
    layers = [crystals[:1], crystals[1:]]
    text = json.dumps({"detectors": detectors, "layers": layers, "wiring": {}})
    _, refusal = _constructed(detectors, crystals, [])
    plan, read_refusal = _read(pg.parse_plan, text)
    if refusal is not None:
        assert read_refusal == (_plan_location(refusal[0]), refusal[1])
        return
    assert read_refusal is None
    assert plan == pg.SetupPlan(tuple(detectors), tuple(tuple(Edge(**c) for c in layer) for layer in layers), {})
    written = pg.serialize_plan(plan)
    assert pg.parse_plan(written) == plan
    assert pg.serialize_plan(pg.parse_plan(written)) == written


# ---------------------------------------------------------------------------
# randomized round-trip property
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    names = pg.vertex_names(n)
    edge_count = draw(st.integers(min_value=0, max_value=10)) if n >= 2 else 0
    edges = []
    for k in range(edge_count):
        i = draw(st.integers(min_value=0, max_value=n - 2))
        j = draw(st.integers(min_value=i + 1, max_value=n - 1))
        edges.append(
            Edge(
                id=f"e{k}",
                u=names[i],
                v=names[j],
                mode_u=draw(st.integers(min_value=0, max_value=5)),
                mode_v=draw(st.integers(min_value=0, max_value=5)),
                amp_mag=draw(st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
                amp_phase_rad=draw(st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)),
                layer=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4))),
            )
        )
    measured = [name for name in names if draw(st.booleans()) and any(name in (e.u, e.v) for e in edges)]
    return ExperimentGraph(names, edges, measured)


@given(graphs() | _field_values().map(lambda values: _constructed(*values)[0]).filter(lambda g: g is not None))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(g):
    text = pg.serialize_graph(g)
    assert pg.parse_graph(text) == g
    assert pg.serialize_graph(pg.parse_graph(text)) == text


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_cover_enumeration_matches_brute_force(g):
    assert pg.enumerate_pm(g) == brute_force_covers(g)


# ---------------------------------------------------------------------------
# graph and plan documents are what json.dumps(..., indent=2) writes
# ---------------------------------------------------------------------------

class Mode(IntEnum):
    H = 0
    V = 1
    D = 7


# Names with JSON escapes: quotes, backslashes, control characters, non-ASCII
# text and lone surrogates.
_doc_names = st.text(st.characters(exclude_categories=()), min_size=1, max_size=4) | st.sampled_from(
    ['q"1', "b\\2", "c\n\t\x01", "\x7f", "\u2028é", "😀", "\ud800"]
)
_counts = st.integers(0, 9) | st.sampled_from(list(Mode)) | st.just(2**70)
_magnitudes = st.floats(0, 1e300) | st.sampled_from([-0.0, 5e-324, 1e300, 1.7976931348623157e308])
_phases = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -1e300])


@st.composite
def _doc_edges(draw, names, count, layered=True):
    """``count`` edges with distinct escaped ids between two of ``names``."""
    ids = draw(st.lists(_doc_names, min_size=count, max_size=count, unique=True))
    return [
        Edge(id, *draw(st.permutations(names))[:2], draw(_counts), draw(_counts), draw(_magnitudes),
             draw(_phases), draw(st.none() | _counts) if layered else None)
        for id in ids
    ]


def _record(e: Edge) -> dict:
    rec = {"id": e.id, "u": e.u, "v": e.v, "mode_u": e.mode_u, "mode_v": e.mode_v, "amp_mag": e.amp_mag,
           "amp_phase_rad": e.amp_phase_rad}
    if e.layer is not None:
        rec["layer"] = e.layer
    return rec


@st.composite
def _doc_graphs(draw):
    names = draw(st.lists(_doc_names, max_size=6, unique=True))
    edges = draw(_doc_edges(names, draw(st.integers(0, 6)))) if len(names) >= 2 else []
    return ExperimentGraph(names, edges, draw(st.lists(st.sampled_from(names), unique=True)) if names else [])


@given(_doc_graphs())
@settings(max_examples=300, deadline=None)
@example(ExperimentGraph([]))
@example(ExperimentGraph(["a", "b"]))
@example(ExperimentGraph(["a", "b"], [Edge("x", "b", "a", Mode.V, Mode.D, 1e300, -0.0, Mode.H)], ["a"]))
def test_serialize_graph_writes_what_json_writes(g):
    doc: dict = {"vertices": list(g.vertices)}
    if g.measured:
        doc["measured"] = [v for v in g.vertices if v in g.measured]
    doc["edges"] = [_record(e) for e in sorted(g.edges, key=lambda e: e.id)]
    assert pg.serialize_graph(g) == json.dumps(doc, indent=2) + "\n"


@st.composite
def _doc_plans(draw):
    detectors = draw(st.lists(_doc_names, min_size=2, max_size=6, unique=True))
    crystals = draw(_doc_edges(detectors, draw(st.integers(0, 6)), layered=False))
    cuts = sorted(draw(st.lists(st.integers(0, len(crystals)), max_size=3)))
    layers = tuple(tuple(crystals[a:b]) for a, b in zip([0, *cuts], [*cuts, len(crystals)]))
    paths = draw(st.lists(st.sampled_from(detectors), unique=True))
    wiring = {path: tuple(draw(st.lists(_doc_names, max_size=3))) for path in paths}
    return pg.SetupPlan(tuple(detectors), layers if crystals or cuts else (), wiring)


@given(_doc_plans())
@settings(max_examples=300, deadline=None)
@example(pg.SetupPlan((), (), {}))
@example(pg.SetupPlan(("a", "b"), ((), (Edge("x", "a", "b", Mode.D, Mode.H),)), {"a": (), "b": ("x",)}))
def test_serialize_plan_writes_what_json_writes(plan):
    doc = {
        "detectors": list(plan.detectors),
        "layers": [[_record(c) for c in layer] for layer in plan.layers],
        "wiring": {path: list(ids) for path, ids in plan.wiring.items()},
    }
    assert pg.serialize_plan(plan) == json.dumps(doc, indent=2) + "\n"
