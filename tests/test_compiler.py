"""Setup synthesis and plan round-trips."""

from __future__ import annotations

import json
import random

import pytest

import photongraph as pg
from photongraph import Edge, ExperimentGraph

from fixt import double_edge, k4_ghz


def _structural(g):
    return sorted((e.id, e.u, e.v, e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad) for e in g.edges)


def test_k4_plan_is_three_matching_layers():
    g = pg.complete_graph(4)
    plan = pg.synthesize_setup(g)
    assert len(plan.layers) == 3
    for layer in plan.layers:
        ids = [c.id for c in layer]
        assert pg.is_coincidence_cover(g, ids)


def test_single_edge_single_layer():
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b")])
    plan = pg.synthesize_setup(g)
    assert len(plan.layers) == 1
    assert plan.wiring == {"a": ("x",), "b": ("x",)}


def test_existing_tags_are_preserved():
    g = k4_ghz()
    plan = pg.synthesize_setup(g)
    by_layer = [sorted(c.id for c in layer) for layer in plan.layers]
    assert by_layer == [["I", "II"], ["III", "IV"], ["V", "VI"]]
    back = pg.plan_to_graph(plan)
    assert back == g  # dense tags survive the round trip verbatim


def test_partially_tagged_graph_keeps_tags_and_fills_rest():
    g = ExperimentGraph(
        ["a", "b", "c", "d"],
        [
            Edge("I", "a", "b", layer=0), Edge("II", "c", "d", layer=0),
            Edge("III", "a", "c"), Edge("IV", "b", "d"),
            Edge("V", "a", "d"), Edge("VI", "b", "c"),
        ],
    )
    plan = pg.synthesize_setup(g)
    by_layer = [sorted(c.id for c in layer) for layer in plan.layers]
    assert by_layer[0] == ["I", "II"]
    assert len(plan.layers) == 3
    for layer in plan.layers:
        assert pg.is_coincidence_cover(g, [c.id for c in layer])


def test_conflicting_tags_rejected():
    g = ExperimentGraph(
        ["a", "b", "c"],
        [Edge("x", "a", "b", layer=0), Edge("y", "b", "c", layer=0)],
    )
    with pytest.raises(pg.DomainError) as err:
        pg.synthesize_setup(g)
    assert err.value.reason == "layer-conflict"


def test_measured_graphs_rejected():
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    with pytest.raises(pg.DomainError):
        pg.synthesize_setup(merged)


def test_round_trip_k6():
    g = pg.complete_graph(6)
    assert _structural(pg.plan_to_graph(pg.synthesize_setup(g))) == _structural(g)


def test_round_trip_parallel_edges_forced_apart():
    g = double_edge()
    plan = pg.synthesize_setup(g)
    assert len(plan.layers) == 2
    assert _structural(pg.plan_to_graph(plan)) == _structural(g)


def test_round_trip_empty_graph():
    g = ExperimentGraph([])
    plan = pg.synthesize_setup(g)
    assert plan.layers == ()
    assert pg.plan_to_graph(plan) == g


def test_round_trip_random_graphs_and_layer_properties():
    rng = random.Random(55)
    for _ in range(40):
        g = pg.random_graph(rng.randrange(2, 10), rng.uniform(0.2, 0.9), rng.getrandbits(32))
        plan = pg.synthesize_setup(g)
        seen = []
        for layer in plan.layers:
            paths = set()
            for c in layer:
                assert c.u not in paths and c.v not in paths
                paths.update((c.u, c.v))
                seen.append(c.id)
        assert sorted(seen) == sorted(e.id for e in g.edges)
        delta = max((g.degree(v) for v in g.vertices), default=0)
        assert len(plan.layers) <= max(2 * delta - 1, 0) + (0 if g.edges else 0)
        assert _structural(pg.plan_to_graph(plan)) == _structural(g)


def test_plan_document_round_trip():
    plan = pg.synthesize_setup(k4_ghz())
    text = pg.serialize_plan(plan)
    back = pg.parse_plan(text)
    assert back == plan
    assert pg.serialize_plan(back) == text


# The plan document of k4_ghz, written out in full: plan crystals are graph
# edge records without ``layer``.
K4_GHZ_PLAN = """\
{
  "detectors": [
    "a",
    "b",
    "c",
    "d"
  ],
  "layers": [
    [
      {
        "id": "I",
        "u": "a",
        "v": "b",
        "mode_u": 0,
        "mode_v": 0,
        "amp_mag": 1.0,
        "amp_phase_rad": 0.0
      },
      {
        "id": "II",
        "u": "c",
        "v": "d",
        "mode_u": 0,
        "mode_v": 0,
        "amp_mag": 1.0,
        "amp_phase_rad": 0.0
      }
    ],
    [
      {
        "id": "III",
        "u": "a",
        "v": "c",
        "mode_u": 1,
        "mode_v": 1,
        "amp_mag": 1.0,
        "amp_phase_rad": 0.0
      },
      {
        "id": "IV",
        "u": "b",
        "v": "d",
        "mode_u": 1,
        "mode_v": 1,
        "amp_mag": 1.0,
        "amp_phase_rad": 0.0
      }
    ],
    [
      {
        "id": "V",
        "u": "a",
        "v": "d",
        "mode_u": 2,
        "mode_v": 2,
        "amp_mag": 1.0,
        "amp_phase_rad": 0.0
      },
      {
        "id": "VI",
        "u": "b",
        "v": "c",
        "mode_u": 2,
        "mode_v": 2,
        "amp_mag": 1.0,
        "amp_phase_rad": 0.0
      }
    ]
  ],
  "wiring": {
    "a": [
      "I",
      "III",
      "V"
    ],
    "b": [
      "I",
      "IV",
      "VI"
    ],
    "c": [
      "II",
      "III",
      "VI"
    ],
    "d": [
      "II",
      "IV",
      "V"
    ]
  }
}
"""


def test_plan_document_golden():
    assert pg.serialize_plan(pg.synthesize_setup(k4_ghz())) == K4_GHZ_PLAN


def test_wiring_is_chronological():
    plan = pg.synthesize_setup(k4_ghz())
    assert plan.wiring["a"] == ("I", "III", "V")
    assert plan.wiring["d"] == ("II", "IV", "V")


def test_inconsistent_wiring_rejected():
    plan = pg.synthesize_setup(k4_ghz())
    bad = pg.parse_plan(pg.serialize_plan(plan))
    bad.wiring["a"] = ("V", "III", "I")
    with pytest.raises(pg.DomainError) as err:
        pg.plan_to_graph(bad)
    assert err.value.reason == "wiring-inconsistent"


def test_render_plan_lists_crystals_by_layer():
    text = pg.render_plan(pg.synthesize_setup(k4_ghz()))
    assert "layer 0:" in text and "layer 2:" in text
    assert "crystal I: paths a-b, modes (0,0)" in text
    assert text.index("crystal I:") < text.index("crystal V:")


@pytest.mark.parametrize(
    "change, location",
    [
        ({"layers": 5}, "layers"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b", "amp_mag": "big"}]]}, "layers[0][0].amp_mag"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b", "mode_v": -1}]]}, "layers[0][0].mode_v"),
        ({"layers": [[{"id": 7, "u": "a", "v": "b"}]]}, "layers[0][0].id"),
        ({"wiring": {"a": "x"}}, "wiring.a"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b", "colour": "red"}]]}, "layers[0][0]"),
        ({"layers": [[{"id": "x", "u": "a", "v": "a"}]]}, "layers[0][0]"),
        ({"layers": [[{"id": "x", "u": "a", "v": "z"}]]}, "layers[0][0].v"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b", "layer": 0}]]}, "layers[0][0].layer"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b"}], [{"id": "x", "u": "a", "v": "b"}]]}, "layers[1][0].id"),
        ({"layers": [[{"u": "a", "v": "b"}]]}, "layers[0][0]"),
        ({"detectors": ["a", "a"]}, "detectors[1]"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b", "amp_phase_rad": 10**400}]]}, "layers[0][0].amp_phase_rad"),
        ({"layers": [[{"id": "x", "u": "a", "v": "b"}, {"id": "y", "u": "a", "v": "b", "amp_mag": -0.5}]]},
         "layers[0][1].amp_mag"),
    ],
)
def test_malformed_plans_rejected_with_location(change, location):
    doc = {"detectors": ["a", "b"], "layers": [], "wiring": {}}
    doc.update(change)
    with pytest.raises(pg.GraphParseError) as err:
        pg.parse_plan(json.dumps(doc))
    assert err.value.location == location
